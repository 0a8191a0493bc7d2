"""Minimum-cut extraction and the cut taxonomy of Section V.

Given a max flow on the extended graph ``G*``, the canonical minimum cut
``(A, B)`` has ``A`` = nodes residually reachable from ``s*``.  Section V's
induction distinguishes three situations:

1. the *only* min cut is the trivial source cut ``({s*}, V ∪ {d*} \\ {s*})``
   → the network is unsaturated (Section V-A);
2. the sink cut ``((V ∪ {s*}) \\ {d*}, {d*})`` is also minimum
   → saturated at the virtual destination (Section V-B);
3. a min cut exists with nontrivial parts on both sides
   → the induction splits the network along it (Section V-C).

:func:`classify_cut` reproduces exactly that taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import numpy as np

from repro.errors import FlowError
from repro.flow.dinic import dinic
from repro.flow.residual import FlowProblem, FlowResult

__all__ = ["CutKind", "MinCut", "min_cut", "classify_cut", "is_unique_min_cut", "is_sd_cut"]


class CutKind(Enum):
    """Where a minimum cut of ``G*`` sits (Section V's three cases)."""

    TRIVIAL_SOURCE = "trivial_source"  # A == {s*}
    VIRTUAL_SINK = "virtual_sink"      # B == {d*}
    INTERIOR = "interior"              # both sides contain base nodes


@dataclass(frozen=True)
class MinCut:
    """A minimum cut ``(A, B)``.

    ``side`` is a boolean mask over the problem's nodes: ``True`` = on the
    source side ``A``.  ``arcs`` are the indices of original arcs crossing
    from ``A`` to ``B``; ``capacity`` is their total capacity (== the max
    flow value by duality, which :func:`min_cut` asserts).
    """

    side: np.ndarray
    arcs: tuple[int, ...]
    capacity: object  # Number

    @property
    def source_side(self) -> list[int]:
        return [int(v) for v in np.nonzero(self.side)[0]]

    @property
    def sink_side(self) -> list[int]:
        return [int(v) for v in np.nonzero(~self.side)[0]]


def min_cut(result: FlowResult, *, side: str = "min") -> MinCut:
    """Extract a minimum cut from a max-flow result.

    ``side="min"`` returns the canonical smallest source side (nodes
    reachable from the source in the residual graph); ``side="max"`` the
    largest one (complement of nodes co-reachable to the sink).  All min
    cuts are sandwiched between the two.
    """
    p = result.problem
    if side == "min":
        mask = result.source_side()
    elif side == "max":
        mask = result.sink_side_complement()
    else:
        raise FlowError(f"side must be 'min' or 'max', got {side!r}")
    crossing = (mask[np.asarray(p.tails, dtype=np.int64)]
                & ~mask[np.asarray(p.heads, dtype=np.int64)])
    arcs = tuple(j for j in np.flatnonzero(crossing).tolist() if p.capacities[j] > 0)
    capacity = sum(p.capacities[j] for j in arcs)
    # exact equality for int/Fraction capacities, tolerant for floats
    if isinstance(capacity, float) or isinstance(result.value, float):
        import math

        ok = math.isclose(float(capacity), float(result.value), rel_tol=1e-9, abs_tol=1e-9)
    else:
        ok = capacity == result.value
    if not ok:
        raise FlowError(
            f"cut capacity {capacity} != max-flow value {result.value}; "
            "the flow result is not maximum"
        )
    return MinCut(side=mask, arcs=arcs, capacity=capacity)


def is_unique_min_cut(result: FlowResult) -> bool:
    """True iff the max-flow instance has exactly one minimum cut.

    The minimal and maximal source sides coincide exactly when the min cut
    is unique (every min cut's source side is closed under residual
    reachability and contains the minimal side).
    """
    return bool(np.array_equal(result.source_side(), result.sink_side_complement()))


def is_sd_cut(cut: MinCut, sources, destinations) -> bool:
    """True iff the cut is an *S-D-cut* in the paper's sense: every source
    on the ``A`` side and every destination on the ``B`` side (Section IV).

    Min cuts of ``G*`` need not be S-D-cuts — Fig. 3's ``S'``/``D'``
    construction exists precisely because sources can land in ``B`` and
    destinations in ``A``.
    """
    return all(cut.side[s] for s in sources) and not any(
        cut.side[d] for d in destinations
    )


def classify_cut(cut: MinCut, problem: FlowProblem) -> CutKind:
    """Classify a min cut of a ``G*`` instance per Section V's taxonomy."""
    a_size = int(cut.side.sum())
    n = problem.n
    if a_size == 1:
        if not cut.side[problem.source]:
            raise FlowError("source not on the source side of its own cut")
        return CutKind.TRIVIAL_SOURCE
    if a_size == n - 1:
        if cut.side[problem.sink]:
            raise FlowError("sink on the source side of the cut")
        return CutKind.VIRTUAL_SINK
    return CutKind.INTERIOR


def all_min_cut_kinds(problem: FlowProblem) -> set[CutKind]:
    """Kinds realised by the extreme min cuts (min and max source side).

    Section V-B needs to know whether, besides the trivial source cut, the
    virtual-sink cut is also minimum; Section V-C whether an interior cut
    exists.  The two extreme cuts answer both questions: if *any* interior
    min cut exists, at least one of the extremes is interior or the extremes
    differ.
    """
    result = dinic(problem)
    kinds = set()
    for side in ("min", "max"):
        kinds.add(classify_cut(min_cut(result, side=side), problem))
    return kinds
