"""Differential suite for the GGT breakpoint envelope.

The envelope's claims are strong — the *entire* piecewise-linear min-cut
value function, exactly, from one cold solve — so every claim is checked
against an independent oracle on random instances:

* λ* equals the limit of the cold bisection bracket (the PR 5 oracle):
  the bracket's certified ``[lo, lo + tol)`` interval must contain it,
  and direct cold solves confirm feasibility flips exactly at λ*.
* every segment's min-cut certificate verifies: at an interior λ of each
  segment, the cut's capacity (recomputed from scratch from the side
  set) equals ``slope·λ + intercept`` equals an independent cold
  max-flow value.
* concavity and the GGT breakpoint bound: slopes strictly decrease
  left-to-right, and there are at most n − 1 breakpoints.
* the one-cold-solve accounting is enforced through the obs counters.
* the Dinic ladder's envelope equals cold solves by every solver in
  :data:`repro.flow.oracles.ALGORITHMS`.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.errors import FlowError
from repro.flow.feasibility import (
    _exact_problem,
    classify_network,
    classify_region,
)
from repro.flow.oracles import ALGORITHMS, max_unsaturation_margin_cold
from repro.flow.parametric import breakpoint_envelope
from repro.graphs import build_extended_graph
from repro.graphs import generators as gen
from repro.graphs.multigraph import MultiGraph
from repro.obs.metrics import get_registry

TOL = Fraction(1, 512)


def _cold_value_at(ext, lam: Fraction, direction=None,
                   algorithm: str = "dinic") -> Fraction:
    """Oracle: an independent cold max-flow at source caps λ·d."""
    direction = direction if direction is not None else ext.in_rates
    caps = {v: Fraction(0) for v in ext.in_rates}
    for v, d in direction.items():
        caps[v] = lam * Fraction(d)
    res = ALGORITHMS[algorithm](_exact_problem(ext, source_cap_override=caps))
    return Fraction(res.value)


def _feasible_at_lambda(ext, lam: Fraction, direction=None) -> bool:
    direction = direction if direction is not None else ext.in_rates
    total = sum((lam * Fraction(d) for d in direction.values()),
                start=Fraction(0))
    return _cold_value_at(ext, lam, direction) == total


@st.composite
def random_networks(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(4, 10))
    p = draw(st.floats(0.3, 0.75))
    g = gen.random_gnp(n, p, seed=seed, ensure_connected=True)
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(n)
    k = draw(st.integers(1, 3))
    in_rates = {int(nodes[i]): Fraction(int(rng.integers(1, 4)),
                                        int(rng.integers(1, 3)))
                for i in range(k)}
    out_rates = {int(nodes[-(j + 1)]): Fraction(int(rng.integers(1, 5)))
                 for j in range(draw(st.integers(1, 2)))}
    return build_extended_graph(g, in_rates, out_rates)


class TestLambdaStarOracle:
    @given(ext=random_networks())
    @settings(max_examples=20, deadline=None)
    def test_lambda_star_is_the_exact_frontier(self, ext):
        lam = breakpoint_envelope(ext).lambda_star
        assert _feasible_at_lambda(ext, lam)
        assert not _feasible_at_lambda(ext, lam + Fraction(1, 2**40))
        if lam > 0:
            assert _feasible_at_lambda(ext, lam - min(lam, Fraction(1, 2**40)))

    @given(ext=random_networks())
    @settings(max_examples=15, deadline=None)
    def test_lambda_star_in_cold_bisection_bracket(self, ext):
        """The bisection bracket limit IS λ* — brackets become an oracle."""
        lam = breakpoint_envelope(ext).lambda_star
        margin = max_unsaturation_margin_cold(ext, tol=TOL)
        if margin >= 2**20:
            assert lam - 1 >= 2**20  # the cold search's bail-out cap
        elif margin == 0 and lam < 1:
            pass  # infeasible/saturated-below-nominal: bracket never opened
        else:
            assert margin <= lam - 1 < margin + TOL

    @given(ext=random_networks())
    @settings(max_examples=8, deadline=None)
    def test_identical_across_algorithms(self, ext):
        """λ* and every segment line equal cold solves by each oracle."""
        env = breakpoint_envelope(ext)
        arrival = sum((Fraction(r) for r in ext.in_rates.values()), start=Fraction(0))
        lam = env.lambda_star
        for alg in sorted(ALGORITHMS):
            assert _cold_value_at(ext, lam, algorithm=alg) == lam * arrival
            over = lam + Fraction(1, 2**40)
            assert _cold_value_at(ext, over, algorithm=alg) < over * arrival
            for seg in env.segments:
                mid = seg.lo + 1 if seg.hi is None else (seg.lo + seg.hi) / 2
                assert _cold_value_at(ext, mid, algorithm=alg) == seg.value_at(mid)


class TestSegmentCertificates:
    @given(ext=random_networks())
    @settings(max_examples=15, deadline=None)
    def test_every_segment_certificate_verifies(self, ext):
        env = breakpoint_envelope(ext)
        for seg in env.segments:
            # the cut names real nodes, with s* inside and d* outside
            assert ext.s_star in seg.cut_side
            assert ext.d_star not in seg.cut_side
            # recompute the line from scratch off the side set
            in_side = set(seg.cut_side)
            slope = intercept = Fraction(0)
            for j in range(len(ext.tails)):
                u, w = int(ext.tails[j]), int(ext.heads[j])
                if u in in_side and w not in in_side:
                    if u == ext.s_star and w in env_direction(env):
                        slope += env_direction(env)[w]
                    else:
                        intercept += Fraction(ext.capacities[j]) \
                            if u != ext.s_star else Fraction(0)
            assert (slope, intercept) == (seg.slope, seg.intercept)
            # ... and the cut value matches an independent cold solve at
            # an interior point (midpoint; plateau checked at lo + 1)
            mid = seg.lo + 1 if seg.hi is None else (seg.lo + seg.hi) / 2
            assert _cold_value_at(ext, mid) == seg.value_at(mid)

    @given(ext=random_networks())
    @settings(max_examples=20, deadline=None)
    def test_concave_and_breakpoint_bound(self, ext):
        env = breakpoint_envelope(ext)
        slopes = [s.slope for s in env.segments]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))  # strictly concave
        assert slopes[0] == env.arrival_slope and slopes[-1] == 0
        assert len(env.breakpoints) <= ext.n - 1  # GGT: at most n − 2, slack 1
        # segments tile [0, ∞) without gaps
        assert env.segments[0].lo == 0 and env.segments[-1].hi is None
        for a, b in zip(env.segments, env.segments[1:]):
            assert a.hi == b.lo


def env_direction(env) -> dict:
    return dict(env.direction)


class TestDirections:
    def test_custom_ray_scales_frontier(self):
        g = MultiGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        ext = build_extended_graph(g, {0: Fraction(1, 2)}, {2: Fraction(1)})
        assert breakpoint_envelope(ext).lambda_star == 2      # cap 1, rate λ/2
        assert breakpoint_envelope(ext, {0: Fraction(2)}).lambda_star == Fraction(1, 2)
        assert breakpoint_envelope(ext, {0: Fraction(1, 4)}).lambda_star == 4

    def test_direction_validation(self):
        g = MultiGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        ext = build_extended_graph(g, {0: 1}, {2: 1})
        with pytest.raises(FlowError, match="no positive entries"):
            breakpoint_envelope(ext, {0: Fraction(0)})
        with pytest.raises(FlowError, match="negative"):
            breakpoint_envelope(ext, {0: Fraction(-1)})
        with pytest.raises(FlowError, match="no .s\\*, v. injection arc"):
            breakpoint_envelope(ext, {1: Fraction(1)})

    def test_partial_direction_pins_other_sources_closed(self):
        # two unit sources on disjoint unit paths into one sink; a ray
        # moving only source 0 leaves source 2's arc at capacity zero
        g = MultiGraph(5)
        g.add_edge(0, 1)
        g.add_edge(1, 4)
        g.add_edge(2, 3)
        g.add_edge(3, 4)
        ext = build_extended_graph(g, {0: 1, 2: 1}, {4: 2})
        env = breakpoint_envelope(ext, {0: Fraction(1)})
        assert env.arrival_slope == 1
        assert env.lambda_star == 1  # only source 0's unit path counts


class TestSolveAccounting:
    def _total(self, name):
        counter = get_registry().counter(name, "", ("algorithm",))
        return sum(inst.value for _labels, inst in counter._series())

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_envelope_is_one_cold_solve(self, algorithm):
        """One cold solve per envelope; its f* matches each oracle's."""
        g = gen.random_gnp(10, 0.4, seed=11, ensure_connected=True)
        ext = build_extended_graph(g, {0: Fraction(3, 2), 1: Fraction(1)},
                                   {8: Fraction(2), 9: Fraction(2)})
        prev = obs.configure(metrics=True)
        try:
            before_cold = self._total("repro_flow_solves_total")
            before_env = self._total("repro_flow_envelope_solves_total")
            env = breakpoint_envelope(ext)
            assert self._total("repro_flow_solves_total") - before_cold == 1
            assert (self._total("repro_flow_envelope_solves_total")
                    - before_env) == 1
            assert env.cold_solves == 1
        finally:
            obs.configure(**prev)
        assert env.f_star == _cold_value_at(ext, Fraction(2**20), algorithm=algorithm)

    def test_region_path_is_one_cold_solve_per_ray(self):
        """The acceptance criterion: classify_region = 1 cold solve."""
        g = gen.random_gnp(9, 0.5, seed=7, ensure_connected=True)
        ext = build_extended_graph(g, {0: 2, 1: 1}, {7: 2, 8: 1})
        prev = obs.configure(metrics=True)
        try:
            before = self._total("repro_flow_solves_total")
            report = classify_region(ext)
            assert self._total("repro_flow_solves_total") - before == 1
            # versus the classify pipeline's two cold solves would be here:
            # the envelope replaces base + ε-probe + f* entirely
            assert report.network_class is classify_network(ext).network_class
        finally:
            obs.configure(**prev)


class TestRegionReport:
    @given(ext=random_networks())
    @settings(max_examples=15, deadline=None)
    def test_agrees_with_classify_network(self, ext):
        rr = classify_region(ext)
        fr = classify_network(ext)
        assert rr.network_class is fr.network_class
        assert rr.arrival_rate == fr.arrival_rate
        assert rr.max_flow_value == fr.max_flow_value
        assert rr.f_star == fr.f_star
        assert rr.feasible == fr.feasible
        assert rr.margin == max(Fraction(0), rr.lambda_star - 1)
        # the binding cut certifies the max-flow value at λ = 1 by duality
        assert rr.min_cut.capacity == rr.max_flow_value
        if rr.lambda_star == 1:
            # saturated: the cut is the scale-up certificate, whose value
            # grows slower than the demand, refuting every λ > 1
            assert rr.envelope.segment_at(1).slope < rr.arrival_rate
