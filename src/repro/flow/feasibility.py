"""Feasibility classification of S-D-networks (Definitions 3 and 4).

* **Feasible** (Def. 3): there is an ``s*``-``d*`` flow in ``G*`` with
  ``Φ(s*, s) = in(s)`` for every source — equivalently, the max flow
  saturates every virtual source arc, i.e. equals the arrival rate
  ``Σ in(s)``.
* **Unsaturated** (Def. 4): still feasible when every source capacity is
  scaled to ``(1 + ε) in(s)`` for some ``ε > 0``.  By convexity of the
  feasible-ε set it suffices to test one sufficiently small rational ε
  (see :func:`certification_epsilon`), which we do exactly — scaled
  integers or :class:`fractions.Fraction`, no floating-point doubt.
* **f*** : the max-flow value once the virtual source arcs get infinite
  capacity — the divergence threshold of Theorem 1's converse.

Everything here consumes an :class:`~repro.graphs.extended.ExtendedGraph`
(built by :func:`repro.graphs.extended.build_extended_graph`) or a
:class:`~repro.network.spec.NetworkSpec` via its ``extended()`` helper.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np

from repro.errors import FlowError
from repro.flow.dinic import dinic
from repro.flow.mincut import CutKind, MinCut, classify_cut, is_unique_min_cut, min_cut
from repro.flow.parametric import BreakpointEnvelope, _Ladder, breakpoint_envelope
from repro.flow.residual import FlowProblem, FlowResult
from repro.numeric import common_denominator
from repro.obs.spans import span

__all__ = [
    "NetworkClass",
    "FeasibilityReport",
    "RegionReport",
    "classify_network",
    "classify_region",
    "region_from_envelope",
    "f_star",
    "feasible_flow",
    "certification_epsilon",
    "max_unsaturation_margin",
]


class NetworkClass(Enum):
    """Stability-region classification of an S-D-network."""

    INFEASIBLE = "infeasible"    # arrival rate exceeds what any method can route
    SATURATED = "saturated"      # feasible, but with zero slack (ε = 0 only)
    UNSATURATED = "unsaturated"  # feasible with strictly positive slack


@dataclass(frozen=True)
class FeasibilityReport:
    """Everything the experiments need to know about a network's flow regime.

    ``min_cut`` is the source-minimal min cut at the nominal rates (nodes
    residually reachable from ``s*``), and ``cut_kind`` / ``unique_min_cut``
    describe it.  On a saturated network it can differ from
    :attr:`RegionReport.min_cut`, which is the cut certifying that no
    scale-up is routable.
    """

    network_class: NetworkClass
    arrival_rate: object             # Σ in(v), exact
    max_flow_value: object           # max s*-d* flow with capacities in(v)
    f_star: object                   # max s*-d* flow with infinite source caps
    certified_epsilon: Optional[Fraction]  # the ε > 0 used to certify 'unsaturated'
    min_cut: MinCut
    cut_kind: CutKind
    unique_min_cut: bool

    @property
    def feasible(self) -> bool:
        return self.network_class is not NetworkClass.INFEASIBLE

    @property
    def unsaturated(self) -> bool:
        return self.network_class is NetworkClass.UNSATURATED


def _exact_problem(ext, *, source_cap_override=None) -> FlowProblem:
    """Build a FlowProblem with all capacities coerced to Fractions."""
    p = FlowProblem.from_extended(ext, source_cap_override=source_cap_override)
    return FlowProblem(
        n=p.n,
        tails=p.tails,
        heads=p.heads,
        capacities=[Fraction(c) if not isinstance(c, Fraction) else c for c in p.capacities],
        source=p.source,
        sink=p.sink,
    )


def _f_star_problem(ext) -> FlowProblem:
    """``G*`` with *infinite* capacity on the ``(s*, v)`` arcs.

    "Infinite" is implemented as total sink capacity + 1, which no s*-d*
    flow can exceed, so the relaxation is exact.
    """
    big = sum(ext.out_rates.values(), start=Fraction(0)) + 1
    return _exact_problem(ext, source_cap_override={v: big for v in ext.in_rates})


def feasible_flow(ext) -> FlowResult:
    """Max ``s*``-``d*`` flow of ``G*`` with the nominal source capacities."""
    return dinic(_exact_problem(ext))


def f_star(ext) -> object:
    """Max flow with *infinite* capacity on the ``(s*, v)`` arcs."""
    return dinic(_f_star_problem(ext)).value


def certification_epsilon(ext) -> Fraction:
    """An ε > 0 small enough that 'feasible at this ε' ⇔ 'unsaturated'.

    An a-priori denominator bound that needs no flow solve.  The exact
    *maximal* certifying slack is :func:`max_unsaturation_margin`.

    Max-flow/min-cut duality makes the scaled max-flow value
    ``v(ε) = min_C [(1 + ε)·inCross(C) + rest(C)]`` over cuts ``C``.  The
    network is unsaturated iff every cut with ``inCross(C) < Σin`` has
    strictly more capacity than the arrival rate, and the binding threshold
    is ``min_C (cap₀(C) − Σin) / (Σin − inCross(C))``.  With ``L`` the lcm
    of all capacity denominators, every cut capacity is a multiple of
    ``1/L``, so the threshold is at least ``1 / (L · (⌊Σin⌋ + 1))``; any ε
    strictly below that decides Definition 4.  Convexity (interpolate with
    a feasible ε = 0 flow) gives the converse: feasible at any ε' > 0
    implies feasible at every smaller positive ε.
    """
    arrival = sum((Fraction(r) for r in ext.in_rates.values()), start=Fraction(0))
    if arrival <= 0:
        return Fraction(1)  # no injections: vacuously unsaturated at any ε
    fixed = ext.fixed_capacities
    if fixed is None:
        L = common_denominator(list(ext.capacities) + [arrival])
    else:  # the lcm of the shared fixed scale and the source capacities
        L = common_denominator([Fraction(1, fixed.denominator), arrival,
                                *(ext.capacities[j] for j in ext.source_arcs)])
    return Fraction(1, 2 * L * (int(arrival) + 2))


def classify_network(ext) -> FeasibilityReport:
    """Full Definitions 3–4 classification of an extended graph ``G*``.

    A parametric ladder along the nominal injection ray (the engine
    behind :func:`~repro.flow.parametric.breakpoint_envelope`), started
    from the λ = 0 rung shared by every ladder on ``G*``: a warm rung at
    λ = 1, forked from zero flow, gives the max flow and the
    source-minimal min cut with its kind and uniqueness (its residual is
    the one a cold solve at λ = 1 leaves); a warm probe at λ = 1 + ε
    (the a-priori :func:`certification_epsilon`, stopping early once the
    flow reaches the probe's total source capacity) decides
    unsaturation; ``f*`` is the intercept of the plateau line banked on
    ``G*`` (probed here only when no ladder with the nominal support has
    yet).  Infeasible networks skip the ε probe.  The engines run on
    scaled integers, falling back to exact ``Fraction`` past the
    magnitude guard (recorded in ``repro_core_fraction_fallbacks_total``);
    reports are value-identical either way, and to the cold oracle
    ``repro.flow.oracles.classify_network_cold``.
    """
    arrival = sum((Fraction(r) for r in ext.in_rates.values()), start=Fraction(0))
    with span("flow.classify") as sp:
        ladder = _Ladder(ext, ext.in_rates)
        value, engine = ladder.probe(Fraction(1))
        result = engine.result
        cut = min_cut(result)
        kind = classify_cut(cut, result.problem)
        unique = is_unique_min_cut(result)
        # by duality the cut's capacity is the max-flow value, in true units
        cut = MinCut(side=cut.side, arcs=cut.arcs, capacity=value)
        eps = None
        if value < arrival:
            network_class = NetworkClass.INFEASIBLE
        else:
            eps = certification_epsilon(ext)
            target = (1 + eps) * arrival
            if ladder.probe(1 + eps, target=target)[0] == target:
                network_class = NetworkClass.UNSATURATED
            else:
                network_class, eps = NetworkClass.SATURATED, None
        fs = ladder.plateau_line().intercept
        sp.set("fastpath", not ladder.fell_back)

    return FeasibilityReport(
        network_class=network_class,
        arrival_rate=arrival,
        max_flow_value=value,
        f_star=fs,
        certified_epsilon=eps,
        min_cut=cut,
        cut_kind=kind,
        unique_min_cut=unique,
    )


def max_unsaturation_margin(ext) -> Fraction:
    """The *exact* largest ε with ``(1 + ε) in`` still feasible.

    This is the ε of Definition 4 maximised: ``λ* − 1`` along the nominal
    injection ray, with λ* the exact critical scalar from the parametric
    breakpoint envelope — a :class:`~fractions.Fraction`, not a bisection
    bracket.  Returns 0 for saturated/infeasible networks.  Every
    envelope evaluation is a warm parametric step from the λ = 0 rung
    shared on ``G*`` (its one cold solve).
    """
    arrival = sum((Fraction(r) for r in ext.in_rates.values()), start=Fraction(0))
    if arrival <= 0:
        raise FlowError("margin undefined for a network with no injections")
    env = breakpoint_envelope(ext)
    return max(Fraction(0), env.lambda_star - 1)


@dataclass(frozen=True)
class RegionReport:
    """A stability verdict derived from the exact breakpoint envelope.

    The envelope-native sibling of :class:`FeasibilityReport`: one
    parametric solve yields the class, the exact critical scalar
    ``lambda_star`` along the nominal injection ray, the exact margin
    (``max(0, λ* − 1)``, Definition 4 maximised), the max-flow value at
    the nominal rates, ``f_star``, and a min cut binding at λ = 1.
    Uniqueness of the min cut is *not* probed (it needs extra solves the
    one-solve path deliberately avoids) — use :func:`classify_network`
    when you need it.

    ``min_cut`` is the envelope segment at λ = 1 — the later one when 1
    is a breakpoint.  On a saturated network (λ* = 1) it is therefore the
    scale-up certificate: its slope is below ``arrival_rate``, so it
    refutes every λ > 1.  That is generally *not* the source-minimal cut
    of :attr:`FeasibilityReport.min_cut`, and the two reports can name
    different cut kinds.
    """

    network_class: NetworkClass
    arrival_rate: Fraction
    max_flow_value: Fraction
    f_star: Fraction
    lambda_star: Fraction
    margin: Fraction
    min_cut: MinCut
    cut_kind: CutKind
    envelope: BreakpointEnvelope

    @property
    def feasible(self) -> bool:
        return self.network_class is not NetworkClass.INFEASIBLE

    @property
    def unsaturated(self) -> bool:
        return self.network_class is NetworkClass.UNSATURATED

    @property
    def certified_epsilon(self) -> Optional[Fraction]:
        """The maximal certifying slack — exact, unlike the a-priori bound."""
        return self.margin if self.margin > 0 else None


def classify_region(ext, *, envelope: BreakpointEnvelope | None = None) -> RegionReport:
    """Classify a network from one parametric envelope solve.

    The verdict is a pure function of the exact critical scalar: λ* > 1
    means unsaturated (positive slack), λ* = 1 saturated (feasible at the
    nominal rates — the feasible set along a ray is closed — but with
    zero slack), λ* < 1 infeasible.  The envelope costs a handful of warm
    probes from the λ = 0 rung shared on ``G*`` (the graph's one cold
    solve), and the reported ``lambda_star``/``margin`` are exact
    Fractions.

    Pass a precomputed ``envelope`` (along the nominal injection ray) to
    skip the solve entirely.
    """
    if envelope is None:
        envelope = breakpoint_envelope(ext)
    return region_from_envelope(envelope, ext.n)


def region_from_envelope(envelope: BreakpointEnvelope, n: int) -> RegionReport:
    """The :class:`RegionReport` of a nominal-ray envelope on a ``G*`` of
    ``n`` nodes — all :func:`classify_region` derives, with no graph at
    hand (the feasibility cache's path for a banked envelope)."""
    arrival = envelope.arrival_slope
    lambda_star = envelope.lambda_star
    if lambda_star > 1:
        network_class = NetworkClass.UNSATURATED
    elif lambda_star == 1:
        network_class = NetworkClass.SATURATED
    else:
        network_class = NetworkClass.INFEASIBLE

    # The binding cut at λ = 1: the segment containing 1 (the later one
    # when 1 is a breakpoint, so an infeasibility certificate for any
    # scale-up when λ* = 1).  Its capacity at λ = 1 is the max-flow value
    # at the nominal rates, by duality.
    seg = envelope.segment_at(Fraction(1))
    side = np.zeros(n, dtype=bool)
    side[list(seg.cut_side)] = True
    max_flow_value = seg.value_at(Fraction(1))
    cut = MinCut(side=side, arcs=tuple(seg.cut_arcs), capacity=max_flow_value)
    a_size = len(seg.cut_side)
    if a_size == 1:
        cut_kind = CutKind.TRIVIAL_SOURCE
    elif a_size == n - 1:
        cut_kind = CutKind.VIRTUAL_SINK
    else:
        cut_kind = CutKind.INTERIOR

    return RegionReport(
        network_class=network_class,
        arrival_rate=arrival,
        max_flow_value=max_flow_value,
        f_star=envelope.f_star,
        lambda_star=lambda_star,
        margin=max(Fraction(0), lambda_star - 1),
        min_cut=cut,
        cut_kind=cut_kind,
        envelope=envelope,
    )
