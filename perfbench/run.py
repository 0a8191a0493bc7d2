"""The repository benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload region-map --seed 1 --seconds 30 --trace 0

Workloads:

* ``region-map`` — exact stability regions through the feasibility
  cache, in-process (``region_map.py``);
* ``lgg-sim`` — five LGG simulation paths, in-process (``lgg_sim.py``);
* ``serve-mixed`` — a closed loop of clients against a fresh
  ``python -m repro serve --workers 1`` child (``serve_mixed.py``).

``BENCHMARK.json`` gates the first two.  ``serve-mixed`` runs on demand
and in every traced pass, but is not gated: on a shared 2-core VM the
spread of ten runs (interquartile range over median) reached 0.30 on its
throughput and 0.55 on its p99, above the largest bound a metric may
have (0.25).

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` in seconds, and throughput and per-unit latency (p50 and a
tail percentile) in units of a fixed reference computation timed beside
each unit of work (``harness.ReferenceClock``), which takes the shared
host's changing speed out of them.  The same figures in seconds are in
the run record.
``--trace 1`` is the traced pass: it runs the chosen workload untraced
and then traced over the same inputs (their wall-time ratio is
``obs.trace_overhead_ratio``), and a shorter traced slice of the other
two workloads, so that every per-layer metric is measured in every
traced run.  Spans and a record of each run go to ``.perfbench_out/``.

Inputs come from ``--seed`` alone and are generated before the timer.
Outputs are checked after it; a failed check makes the result
``"correct": false`` and the exit code 1.  The last line of standard
output is the result: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  The line before it records
the run: git sha, ``nproc``, Python version, sample counts.

The command measures in a child process and returns only once every
process that child started, at any depth, has ended (see
:func:`supervise`).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MODULES = {"serve-mixed": "serve_mixed", "region-map": "region_map",
           "lgg-sim": "lgg_sim"}
#: Set-ups per offline run (a fresh interpreter's imports, then an input
#: generation); ``setup_s`` is their median.
SETUPS = 3
#: Seconds of each other workload's traced slice in a ``--trace 1`` run.
SLICE_SECONDS = 2.0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _fresh_import_seconds(module: str) -> float:
    """Seconds a fresh interpreter takes to import ``module``, with the
    program under test behind it."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "tick = time.perf_counter(); "
            f"import {module}; print(time.perf_counter() - tick)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"),
                           str(ROOT / "src")], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _setup(mod, seed: int, seconds: float, repeats: int):
    """Generate the inputs ``repeats`` times; the same seed must give the
    same inputs every time.  Returns (inputs, per-generation seconds,
    deterministic?)."""
    times, digests, inputs = [], set(), None
    for _ in range(repeats):
        tick = time.perf_counter()
        inputs = mod.make_inputs(seed, seconds)
        times.append(time.perf_counter() - tick)
        digests.add(_digest(mod.fingerprint(inputs)))
    return inputs, times, len(digests) == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = _spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    # the program under test is this checkout's source tree, never an
    # installed copy
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program under test at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    tick = time.perf_counter()
    try:
        mod = importlib.import_module(MODULES[args.workload])
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - tick
    from harness import Outcome, Spans

    # serve-mixed's set-up is the server's; its imports and input
    # generation are trivial and stay out of setup_s
    repeats = 1 if args.workload == "serve-mixed" else SETUPS
    inputs, gen_times, deterministic = _setup(mod, args.seed, args.seconds, repeats)
    import_times = ([import_s] if repeats == 1 else
                    [_fresh_import_seconds(MODULES[args.workload])
                     for _ in range(repeats)])
    setup_s = sorted(i + g for i, g in zip(import_times, gen_times))[repeats // 2]

    outcomes: dict[str, Outcome] = {}
    if not args.trace:
        outcomes[args.workload] = mod.measure(inputs, args.seconds, args.seed)
        metrics = dict(outcomes[args.workload].end_to_end)
        metrics.setdefault("setup_s", setup_s)
    else:
        spans = Spans()
        half = args.seconds / 2
        outcomes[args.workload] = mod.trace(inputs, half, spans, args.seed,
                                            untraced_seconds=half)
        for other in sorted(MODULES):
            if other == args.workload:
                continue
            other_mod = importlib.import_module(MODULES[other])
            other_inputs = other_mod.make_inputs(args.seed, SLICE_SECONDS)
            outcomes[other] = other_mod.trace(other_inputs, SLICE_SECONDS,
                                              spans, args.seed)
        metrics = {}
        for outcome in outcomes.values():
            metrics.update(outcome.layers)
        spans.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        outcomes[args.workload].info["span_self_seconds"] = spans.self_times()

    # the input determinism check counts as one more checked operation
    attempted = sum(o.attempted for o in outcomes.values()) + 1
    failed = sum(o.failed for o in outcomes.values()) + (not deterministic)
    missing = sorted(set(wanted) - set(metrics))
    extra = sorted(set(metrics) - set(wanted))
    if missing or extra:
        raise RuntimeError(f"metrics missing {missing}, unexpected {extra}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "failed_share": failed / attempted,
        "inputs_deterministic": deterministic, "setup_generation_s": gen_times,
        "import_s": import_times,
        "workloads": {name: o.info for name, o in outcomes.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(json.dumps(record, default=str))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in wanted},
    }))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# supervision: a run leaves no process behind
# ----------------------------------------------------------------------
#: Set in the environment of the measuring process.
INNER_ENV = "PERFBENCH_INNER"
#: Seconds leftover descendants get to end on their own before SIGKILL.
GRACE_SECONDS = 5.0
PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36


def _prctl(option: int, value: int) -> bool:
    try:
        import ctypes

        return ctypes.CDLL(None, use_errno=True).prctl(option, value, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _children() -> list[int]:
    """Live and zombie processes whose parent is this one."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = (Path("/proc") / entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.append(int(entry))
    return out


def supervise(argv: list[str]) -> int:
    """Run the measurement in a child process and return its exit code
    once every process it started, at any depth, has ended.

    This process is made a child subreaper, so a descendant orphaned by
    its parent (the server's worker and the ``multiprocessing`` resource
    trackers end after their parents) is re-parented here and reaped
    here, instead of lingering under init.  SIGTERM and SIGINT are passed
    on to the measuring child.
    """
    _prctl(PR_SET_CHILD_SUBREAPER, 1)
    env = {**os.environ, INNER_ENV: str(os.getpid())}
    inner = os.posix_spawn(sys.executable,
                           [sys.executable, str(Path(__file__).resolve()), *argv],
                           env)

    def forward(signum, _frame):
        try:
            os.kill(inner, signum)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    code = None
    while code is None:
        pid, status = os.wait()
        if pid == inner:
            code = os.waitstatus_to_exitcode(status)
    deadline = time.monotonic() + GRACE_SECONDS
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    if os.environ.get(INNER_ENV) is None:
        sys.exit(supervise(sys.argv[1:]))
    # the measuring process dies with its supervisor
    _prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != int(os.environ[INNER_ENV]):
        sys.exit(2)
    # SIGTERM unwinds like SIGINT, so a stopped run still stops its server
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    sys.exit(main())
