#!/usr/bin/env python
"""AST lint: keep the exact numeric core free of float contamination.

The stability verdicts are exact-equality tests (Definitions 3-4), so the
hot modules that feed them — the ``repro.numeric`` scaling layer, the flow
solvers that run on scaled integers, and the integer LGG kernels — must
never introduce true division (``/`` yields a float on two ints, silently
defeating the whole design) or explicit ``float()`` conversions.  This
script walks their ASTs and fails on either construct; strings, comments
and ``//`` floor division are naturally fine.

Run directly (``python tools/lint_exact_core.py``, exits nonzero on a
violation) or through the pytest wrapper in
``tests/numeric/test_lint_exact_core.py``.  CI runs it as its own step.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

#: The exact core: every module here does hot arithmetic whose results are
#: compared for exact equality somewhere.  Additions are cheap — list any
#: module that joins the integer fast path.
EXACT_CORE_GLOBS = [
    "numeric/*.py",
    "flow/residual.py",
    "flow/dinic.py",
    "flow/edmonds_karp.py",
    "flow/push_relabel.py",
    "flow/warmstart.py",
    "flow/parametric.py",
    "flow/feasibility.py",
    "core/fastpath.py",
    "core/lgg.py",
    "core/lgg_fast.py",
]


def exact_core_files() -> list[Path]:
    files: list[Path] = []
    for pattern in EXACT_CORE_GLOBS:
        matches = sorted(SRC.glob(pattern))
        if not matches:
            raise FileNotFoundError(
                f"lint target {pattern!r} matched nothing under {SRC} — "
                "update EXACT_CORE_GLOBS if the module moved"
            )
        files.extend(matches)
    return files


def check_file(path: Path) -> list[str]:
    """Return ``file:line: message`` violations for one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    try:
        rel = path.relative_to(REPO_ROOT)
    except ValueError:  # e.g. a tmp file in the lint's own tests
        rel = path
    violations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            violations.append(
                f"{rel}:{node.lineno}: true division ('/') in the exact core — "
                "use Fraction, integer scaling, or '//'"
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            violations.append(
                f"{rel}:{node.lineno}: float() conversion in the exact core"
            )
    return violations


def main() -> int:
    all_violations: list[str] = []
    files = exact_core_files()
    for path in files:
        all_violations.extend(check_file(path))
    if all_violations:
        print(f"exact-core lint: {len(all_violations)} violation(s):")
        for v in all_violations:
            print(f"  {v}")
        return 1
    print(f"exact-core lint: {len(files)} modules clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
