"""GGT-style breakpoint envelope of the parametric feasibility flow.

The feasibility question behind every stability verdict is parametric:
scale the source-arc capacities along a *ray* ``λ · d(v)`` (``d`` a
non-negative direction in rate space, by default the nominal injection
rates) and ask for which ``λ`` the max ``s*``-``d*`` flow still carries
the full scaled injection.  Max-flow/min-cut duality makes the value

    v(λ) = min over cuts C of [ λ · inCross_d(C) + rest(C) ]

a minimum of finitely many lines — concave, piecewise linear, with at
most ``n − 2`` breakpoints (Gallo–Grigoriadis–Tarjan).  This module
computes the *entire* envelope exactly, by Eisner–Severance divide and
conquer over the existing :class:`~repro.flow.warmstart.ParametricMaxFlow`
fork/re-augment machinery: one cold solve at ``λ = 0`` (trivial — every
source arc is closed), then every probe is a warm re-augmentation forked
from the nearest smaller ``λ`` already solved, so capacity schedules
stay monotone along every fork chain.

The payoff is the exact critical scalar

    λ* = sup { λ ≥ 0 : v(λ) = λ · Σd }

as a :class:`~fractions.Fraction` — the feasibility frontier along the
ray — instead of a bisection bracket.  ``max_unsaturation_margin`` and
the region experiments ride on it.

The same ladder of warm engines answers Definitions 3–4 for
:func:`~repro.flow.feasibility.classify_network`: it cold-solves at
``λ = 1`` and probes ``1 + ε`` and the plateau.  Engines run on scaled
integers (:mod:`repro.numeric`) and fall back to ``Fraction`` past the
magnitude guard; results are ``Fraction``s either way, and no floats
enter.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, lcm
from typing import Mapping, NamedTuple, Optional

import numpy as np

from repro.flow.residual import FlowError, FlowProblem
from repro.flow.warmstart import ParametricMaxFlow
from repro.graphs.extended import ExtendedGraph
from repro.numeric import INT_SCALE_LIMIT, note_fraction_fallback, scale_int
from repro.obs.metrics import get_registry
from repro.obs.spans import span

__all__ = [
    "EnvelopeSegment",
    "BreakpointEnvelope",
    "breakpoint_envelope",
]


@dataclass(frozen=True)
class EnvelopeSegment:
    """One linear piece of the min-cut envelope, with its certificate.

    On ``[lo, hi]`` (``hi is None`` means ``+∞``) the min-cut value is
    ``slope · λ + intercept``, and ``cut_side`` / ``cut_arcs`` name a cut
    achieving it for *every* λ in the segment: ``cut_side`` is the
    source-side node set (always contains ``s*``, never ``d*``) and
    ``cut_arcs`` the crossing arc indices into the extended graph.
    """

    lo: Fraction
    hi: Optional[Fraction]
    slope: Fraction
    intercept: Fraction
    cut_side: tuple[int, ...]
    cut_arcs: tuple[int, ...]

    def value_at(self, lam) -> Fraction:
        return self.slope * Fraction(lam) + self.intercept


@dataclass(frozen=True)
class BreakpointEnvelope:
    """The exact piecewise-linear min-cut envelope along one ray.

    ``segments`` tile ``[0, ∞)`` in order; adjacent segments meet at the
    ``breakpoints``.  ``lambda_star`` is the exact feasibility frontier:
    the ray point ``λ · direction`` is routable iff ``0 ≤ λ ≤ lambda_star``
    (the feasible set along a ray is closed — interpolate flows).
    """

    direction: tuple[tuple[int, Fraction], ...]
    arrival_slope: Fraction          # Σ d(v): slope of the demand line λ·Σd
    segments: tuple[EnvelopeSegment, ...]
    lambda_star: Fraction
    cold_solves: int
    probes: int

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """Interior kinks of v(λ), in increasing order (≤ n − 2 of them)."""
        return tuple(seg.lo for seg in self.segments[1:])

    @property
    def f_star(self) -> Fraction:
        """Plateau value: max flow with unbounded source capacity."""
        return self.segments[-1].intercept

    def segment_at(self, lam) -> EnvelopeSegment:
        """The segment containing ``lam`` (the later one at a breakpoint)."""
        lam = Fraction(lam)
        if lam < 0:
            raise FlowError(f"envelope is defined on λ ≥ 0, got {lam}")
        los = [seg.lo for seg in self.segments]
        return self.segments[bisect_right(los, lam) - 1]

    def value_at(self, lam) -> Fraction:
        """Exact min-cut (= max-flow) value at ``λ = lam``."""
        return self.segment_at(lam).value_at(lam)

    def feasible_at(self, lam) -> bool:
        """Is the scaled injection ``lam · direction`` routable?"""
        lam = Fraction(lam)
        return 0 <= lam <= self.lambda_star


def _normalize_direction(ext: ExtendedGraph, direction) -> dict[int, Fraction]:
    """Validate a ray and coerce it to ``{node: Fraction d(v) > 0}``."""
    if direction is None:
        direction = ext.in_rates
    if not direction:
        raise FlowError(
            "breakpoint envelope needs a direction with at least one "
            "positive entry (a network with no injections has no ray)"
        )
    out: dict[int, Fraction] = {}
    for v, rate in direction.items():
        d = Fraction(rate)
        if d < 0:
            raise FlowError(f"direction rate for node {v} is negative: {d}")
        if v not in ext.in_rates:
            raise FlowError(
                f"direction names node {v}, which has no (s*, v) injection arc"
            )
        if d > 0:
            out[v] = d
    if not out:
        raise FlowError("direction has no positive entries")
    return out


class _Line(NamedTuple):
    """A cut's value line ``slope·λ + intercept`` and the cut itself."""

    slope: Fraction
    intercept: Fraction
    arcs: tuple[int, ...]
    side: tuple[int, ...]

    def at(self, lam: Fraction) -> Fraction:
        return self.slope * lam + self.intercept


class _Ladder:
    """Warm-engine bank along one ray: solved λ values with their engines.

    The one engine behind every feasibility question.  ``__init__`` pays
    the only cold solve, at ``first``; ``probe(λ)`` forks the engine at
    the largest solved ``λ' ≤ λ`` and re-augments the parametric arcs up
    to ``λ · d`` — monotone by construction, so
    :meth:`ParametricMaxFlow.raise_arc_capacities` never sees a decrease.

    Number policy: every engine runs on integers, its capacities scaled
    by one common denominator (:mod:`repro.numeric`).  A fork whose probe
    needs a finer denominator rescales its residual by an integer factor.
    When a scale or a scaled capacity would pass ``INT_SCALE_LIMIT``, the
    fork continues exactly on ``Fraction`` (scale ``None``), as does every
    later fork of this ladder, and the ladder records one fallback.
    """

    def __init__(self, ext: ExtendedGraph, direction: Mapping[int, Fraction],
                 first: Fraction = Fraction(0)) -> None:
        self._ext = ext
        self.fell_back = False
        # Source arcs outside the direction support stay pinned to their
        # fixed capacity 0, and that 0 is what any cut pays.
        self._param_arcs: dict[int, Fraction] = {}
        for j in ext.source_arcs:
            d = direction.get(int(ext.refs[j]))
            if d is not None:
                self._param_arcs[j] = Fraction(d)
        first_caps = {j: first * d for j, d in self._param_arcs.items()}

        # The fixed capacities are the extended graph's, aliased on its
        # own scale; only the parametric arcs decide this ladder's scale.
        fixed = ext.fixed_capacities
        scale = None
        if fixed is not None:
            self._fixed_caps, self._fixed_den = fixed.ints, fixed.denominator
            self._fixed_top = max(fixed.ints, default=0)
            scale = self._fit_scale(fixed.denominator, first_caps.values())
        if scale is None:
            self._fall_back()
            self._fixed_caps = [Fraction(c) for c in ext.capacities]
            for j in ext.source_arcs:
                self._fixed_caps[j] = Fraction(0)
            self._fixed_den = k = 1
        else:
            k = scale // self._fixed_den
            first_caps = {j: scale_int(c, scale) for j, c in first_caps.items()}
        caps = [c * k for c in self._fixed_caps] if k > 1 else list(self._fixed_caps)
        for j, c in first_caps.items():
            caps[j] = c
        problem = FlowProblem._trusted(
            n=ext.n, tails=ext.arc_lists[0], heads=ext.arc_lists[1],
            capacities=caps, source=ext.s_star, sink=ext.d_star,
            topology=ext.flow_topology)
        self._lams = [Fraction(first)]
        self._rungs = [(ParametricMaxFlow(problem), scale)]
        self.probes = 0

        # Past ``plateau`` every parametric arc carries more than the total
        # sink capacity, so v(λ) is flat there; it sits above ``first`` so
        # it is always a fresh rung.
        total_out = sum((Fraction(r) for r in ext.out_rates.values()),
                        start=Fraction(0))
        d_min = min(self._param_arcs.values(), default=Fraction(1))
        self.plateau = Fraction(max(ceil(Fraction(total_out + 1, d_min)),
                                    ceil(first) + 1))

    def _fall_back(self) -> None:
        if not self.fell_back:
            self.fell_back = True
            note_fraction_fallback()

    def _fit_scale(self, scale: int, caps) -> Optional[int]:
        """The finest scale ``scale`` needs to make ``caps`` integers, or
        ``None`` when it or a capacity on it would pass the guard."""
        new = lcm(scale, *(c.denominator for c in caps))
        top = max([self._fixed_top * (new // self._fixed_den),
                   *(c.numerator * (new // c.denominator) for c in caps)])
        return new if new <= INT_SCALE_LIMIT and top <= INT_SCALE_LIMIT else None

    def _fit(self, engine: ParametricMaxFlow, scale: Optional[int],
             caps) -> Optional[int]:
        """Rescale a fork so ``caps`` are integers; return its new scale."""
        if scale is None:
            return None
        if not self.fell_back:
            new = self._fit_scale(scale, caps)
            if new is not None:
                if new != scale:
                    engine.rescale(new // scale)
                return new
            self._fall_back()
        engine.rescale(Fraction(1, scale))
        return None

    def probe(self, lam: Fraction, *, target: Optional[Fraction] = None,
              ) -> tuple[Fraction, ParametricMaxFlow]:
        """Exact ``v(lam)`` (``lam ≥ first``) and its engine, solved warm if new.

        ``target`` is an optional early stop: a value no flow at ``lam``
        can exceed (the total source capacity), passed on to
        :meth:`ParametricMaxFlow.raise_arc_capacities`.
        """
        i = bisect_right(self._lams, lam) - 1
        assert i >= 0, f"ladder starts at λ={self._lams[0]}, cannot probe {lam}"
        if self._lams[i] != lam:
            engine = self._rungs[i][0].fork()
            caps = {j: lam * d for j, d in self._param_arcs.items()}
            scale = self._fit(engine, self._rungs[i][1], caps.values())
            if scale is not None:
                caps = {j: scale_int(c, scale) for j, c in caps.items()}
                if target is not None:
                    target = scale_int(target, scale)
            engine.raise_arc_capacities(caps, target_value=target)
            self.probes += 1
            i += 1
            self._lams.insert(i, lam)
            self._rungs.insert(i, (engine, scale))
        engine, scale = self._rungs[i]
        return Fraction(engine.value, scale or 1), engine

    def line_of(self, engine: ParametricMaxFlow) -> _Line:
        """The tangent line of the engine's min-side cut.

        Computed from the side mask directly — never from
        :func:`~repro.flow.mincut.min_cut`'s arc list, which drops
        zero-capacity arcs and so would lose every parametric arc at λ = 0.
        """
        inside = engine.result.source_side()
        ext = self._ext
        slope = Fraction(0)
        intercept = 0
        crossing: list[int] = []
        for j in np.flatnonzero(inside[ext.tails] & ~inside[ext.heads]).tolist():
            d = self._param_arcs.get(j)
            if d is not None:
                slope += d
                crossing.append(j)
            elif self._fixed_caps[j] > 0:
                intercept += self._fixed_caps[j]
                crossing.append(j)
        return _Line(slope, Fraction(intercept, self._fixed_den),
                     tuple(crossing), tuple(np.flatnonzero(inside).tolist()))


def breakpoint_envelope(ext: ExtendedGraph, direction=None) -> BreakpointEnvelope:
    """Compute the exact min-cut envelope of ``v(λ)`` along a ray.

    ``direction`` maps injection nodes to non-negative rates (defaults to
    ``ext.in_rates``); nodes absent from it keep their source arcs closed
    for every λ.  Returns the full :class:`BreakpointEnvelope` — exact
    breakpoints, a min-cut certificate per segment, and the critical
    scalar ``lambda_star`` — after exactly one cold solve; every other
    evaluation is a warm re-augmentation.
    """
    direction = _normalize_direction(ext, direction)
    arrival_slope = sum(direction.values(), start=Fraction(0))

    with span("flow.envelope"):
        ladder = _Ladder(ext, direction)

        # Tangent at λ = 0: the min cut is exactly {s*} (all parametric
        # arcs closed, so no residual arc leaves s*), giving the demand
        # line itself: v ≥ 0 = λ·Σd at the origin with slope Σd.
        v0, engine0 = ladder.probe(Fraction(0))
        assert v0 == 0, "λ=0 instance must have zero max flow"
        line0 = ladder.line_of(engine0)
        assert line0.slope == arrival_slope and line0.intercept == 0, (
            "cut at λ=0 must be the demand line", line0)

        # Tangent on the plateau: beyond λ_end every parametric arc's
        # capacity exceeds any possible flow (total fixed sink capacity
        # + 1), so the binding cut excludes all of them — slope 0.
        lam_end = ladder.plateau
        line_end = ladder.line_of(ladder.probe(lam_end)[1])
        if line_end.slope != 0:
            raise FlowError(
                f"plateau cut still crosses parametric arcs at λ={lam_end}"
            )

        pieces: list[tuple[Fraction, Fraction, _Line]] = []

        def refine(lo, line_lo, hi, line_hi):
            """Resolve the envelope on [lo, hi] given tangents at the ends.

            Concavity plus tangency does all the work: the two tangent
            lines intersect at a unique λ_x in [lo, hi]; if the envelope
            meets their pointwise minimum there, λ_x is a breakpoint and
            each tangent is the envelope on its side (the envelope is
            wedged between chord and tangent); otherwise the probe at λ_x
            yields a strictly lower tangent and we recurse on both halves.
            """
            if line_lo.slope == line_hi.slope:
                # Equal slopes with both tangent ⇒ same line (concavity
                # forbids two parallel tangents with different intercepts
                # touching on one interval unless they coincide).
                pieces.append((lo, hi, line_lo))
                return
            lam_x = Fraction(line_hi.intercept - line_lo.intercept,
                             line_lo.slope - line_hi.slope)
            if lam_x == lo:
                pieces.append((lo, hi, line_hi))
                return
            if lam_x == hi:
                pieces.append((lo, hi, line_lo))
                return
            v_x, engine_x = ladder.probe(lam_x)
            if v_x == line_lo.at(lam_x):
                pieces.append((lo, lam_x, line_lo))
                pieces.append((lam_x, hi, line_hi))
                return
            line_x = ladder.line_of(engine_x)
            assert line_x.at(lam_x) == v_x, "cut does not certify probe"
            refine(lo, line_lo, lam_x, line_x)
            refine(lam_x, line_x, hi, line_hi)

        refine(Fraction(0), line0, lam_end, line_end)

        # Merge adjacent pieces that carry the same line, then stretch the
        # final (slope-0 plateau) piece to +∞.
        segments: list[EnvelopeSegment] = []
        for lo, hi, line in pieces:
            if segments and (segments[-1].slope, segments[-1].intercept) == line[:2]:
                segments[-1] = replace(segments[-1], hi=hi)
            else:
                segments.append(EnvelopeSegment(lo, hi, line.slope, line.intercept,
                                                line.side, line.arcs))
        assert segments[-1].slope == 0, "final envelope segment must be the plateau"
        segments[-1] = replace(segments[-1], hi=None)

        # λ* = sup { λ : v(λ) = λ·Σd }: the first (smallest-λ) crossing of
        # the demand line with a strictly-shallower envelope line.  The
        # plateau has slope 0 < Σd, so the minimum is over a non-empty set
        # and λ* is always finite.
        lambda_star = min(
            Fraction(seg.intercept, arrival_slope - seg.slope)
            for seg in segments if seg.slope < arrival_slope
        )

    reg = get_registry()
    if reg.enabled:
        lbl = {"algorithm": "dinic"}
        reg.counter("repro_flow_envelope_solves_total",
                    "Breakpoint-envelope computations (one cold solve each).",
                    ("algorithm",)).labels(**lbl).inc()
        reg.counter("repro_flow_envelope_probes_total",
                    "Warm parametric probes spent building envelopes.",
                    ("algorithm",)).labels(**lbl).inc(ladder.probes)

    return BreakpointEnvelope(
        direction=tuple(sorted(direction.items())),
        arrival_slope=arrival_slope,
        segments=tuple(segments),
        lambda_star=lambda_star,
        cold_solves=1,
        probes=ladder.probes,
    )
