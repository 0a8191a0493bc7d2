"""Max-flow / min-cut substrate.

The paper's stability results hinge on flows in the extended graph ``G*``
(Definitions 3–4) and on minimum cuts (Section V).  This subpackage
implements, from scratch:

* :mod:`~repro.flow.residual` — the directed flow-network representation
  shared by all solvers (exact :class:`fractions.Fraction` or float
  capacities),
* :mod:`~repro.flow.dinic` — Dinic's blocking-flow algorithm, the one
  production max-flow engine (:func:`max_flow` is Dinic),
* :mod:`~repro.flow.mincut` — cut extraction and the cut taxonomy of
  Section V (trivial source cut / sink cut / interior S-D-cut),
* :mod:`~repro.flow.warmstart` — the parametric warm-start engine: one
  cold Dinic solve, then monotone capacity increases answered by in-place
  Dinic-on-residual re-augmentation,
* :mod:`~repro.flow.parametric` — the Gallo–Grigoriadis–Tarjan breakpoint
  envelope: the exact critical scalar λ* and the full piecewise-linear
  min-cut envelope along a ray in rate space, one cold solve per ray,
* :mod:`~repro.flow.feasibility` — Definitions 3–4: feasible, unsaturated,
  saturated; the exact ε margin via the envelope; ``f*`` — all probes of
  the envelope's scaled-integer ladder (the cold twins live in
  :mod:`~repro.flow.oracles`, which this package does not export),
* :mod:`~repro.flow.decomposition` — flow → path decomposition, used by the
  maximum-flow routing baseline (the ``E_t^Φ`` of the proofs),
* :mod:`~repro.flow.distributed_pr` — the round-synchronous Goldberg–Tarjan
  push-relabel (the paper's reference [6]).

The cold Edmonds–Karp and push-relabel solvers
(:mod:`~repro.flow.edmonds_karp`, :mod:`~repro.flow.push_relabel`) are
differential oracles, reached through the ``ALGORITHMS`` registry of
:mod:`~repro.flow.oracles`.
"""

from repro.flow.residual import FlowProblem, FlowResult
from repro.flow.dinic import dinic as max_flow
from repro.flow.mincut import min_cut, CutKind, MinCut, classify_cut, is_unique_min_cut, is_sd_cut
from repro.flow.feasibility import (
    FeasibilityReport,
    NetworkClass,
    RegionReport,
    classify_network,
    classify_region,
    f_star,
    feasible_flow,
    max_unsaturation_margin,
)
from repro.flow.parametric import (
    BreakpointEnvelope,
    EnvelopeSegment,
    breakpoint_envelope,
)
from repro.flow.decomposition import (
    PathDecomposition,
    decompose_paths,
    edge_flow_from_result,
)
from repro.flow.warmstart import ParametricMaxFlow, source_arc_updates
from repro.flow.cut_enum import CutFamily, count_min_cuts, enumerate_min_cuts
from repro.flow.capacity_scaling import capacity_scaling
from repro.flow.distributed_pr import DistributedRun, distributed_push_relabel
from repro.flow.lp import lp_max_flow, lp_unsaturation_margin

__all__ = [
    "FlowProblem",
    "FlowResult",
    "max_flow",
    "min_cut",
    "CutKind",
    "MinCut",
    "classify_cut",
    "is_unique_min_cut",
    "is_sd_cut",
    "FeasibilityReport",
    "NetworkClass",
    "RegionReport",
    "classify_network",
    "classify_region",
    "f_star",
    "feasible_flow",
    "max_unsaturation_margin",
    "BreakpointEnvelope",
    "EnvelopeSegment",
    "breakpoint_envelope",
    "ParametricMaxFlow",
    "source_arc_updates",
    "PathDecomposition",
    "decompose_paths",
    "edge_flow_from_result",
    "capacity_scaling",
    "DistributedRun",
    "distributed_push_relabel",
    "CutFamily",
    "count_min_cuts",
    "enumerate_min_cuts",
    "lp_max_flow",
    "lp_unsaturation_margin",
]
