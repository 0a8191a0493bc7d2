"""Differential correctness of the parametric warm-start engine.

The load-bearing property: after any monotone schedule of capacity
increases, the warm Dinic engine must be *indistinguishable* from a cold
solve of the final problem by every solver in
:data:`repro.flow.oracles.ALGORITHMS` — same exact-Fraction flow value,
same canonical min cut, same cut kind, same uniqueness verdict.
Hypothesis drives random problems through random schedules and compares
at every step, not just the last.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.errors import FlowError
from repro.flow import (
    FlowProblem,
    ParametricMaxFlow,
    classify_network,
    is_unique_min_cut,
    min_cut,
    source_arc_updates,
)
from repro.flow.oracles import ALGORITHMS, classify_network_cold
from repro.graphs import build_extended_graph
from repro.graphs import generators as gen
from repro.obs.metrics import get_registry


@st.composite
def problems_with_schedules(draw):
    """A Fraction-capacity FlowProblem plus a monotone capacity schedule."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(3, 9))
    m = draw(st.integers(2, 16))
    tails = [int(rng.integers(0, n)) for _ in range(m)]
    heads = [int(rng.integers(0, n)) for _ in range(m)]
    # keep at least one s->? and ?->t arc so flows are usually nonzero
    tails[0], heads[-1] = 0, n - 1
    caps = [Fraction(int(rng.integers(0, 9)), int(rng.integers(1, 4)))
            for _ in range(m)]
    problem = FlowProblem(n=n, tails=tails, heads=heads, capacities=caps,
                          source=0, sink=n - 1)
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        arcs = rng.choice(m, size=int(rng.integers(1, min(m, 5) + 1)),
                          replace=False)
        steps.append({int(j): Fraction(int(rng.integers(1, 7)),
                                       int(rng.integers(1, 4)))
                      for j in arcs})
    return problem, steps


def _advance_caps(caps, increments):
    out = list(caps)
    for j, delta in increments.items():
        out[j] = out[j] + delta
    return out


class TestDifferentialSchedules:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @given(case=problems_with_schedules())
    @settings(max_examples=20, deadline=None)
    def test_every_step_matches_cold_solve(self, algorithm, case):
        problem, steps = case
        engine = ParametricMaxFlow(problem)
        caps = list(problem.capacities)
        for increments in steps:
            caps = _advance_caps(caps, increments)
            engine.raise_arc_capacities(
                {j: caps[j] for j in increments}
            )
            cold_problem = FlowProblem(
                n=problem.n, tails=problem.tails, heads=problem.heads,
                capacities=caps, source=problem.source, sink=problem.sink,
            )
            cold = ALGORITHMS[algorithm](cold_problem)
            warm = engine.result
            # exact Fraction equality, no tolerance
            assert warm.value == cold.value
            warm.check()  # capacity + conservation on the warm residual
            # the canonical (source-side-reachability) min cut is an
            # invariant of the problem, not of which max flow was found
            wc, cc = min_cut(warm), min_cut(cold)
            assert wc.capacity == cc.capacity
            assert list(wc.arcs) == list(cc.arcs)
            assert list(np.nonzero(wc.side)[0]) == list(np.nonzero(cc.side)[0])
            assert is_unique_min_cut(warm) == is_unique_min_cut(cold)


@st.composite
def random_networks(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(4, 10))
    p = draw(st.floats(0.25, 0.7))
    g = gen.random_gnp(n, p, seed=seed, ensure_connected=True)
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(n)
    k = draw(st.integers(1, 3))
    in_rates = {int(nodes[i]): Fraction(int(rng.integers(1, 5)),
                                        int(rng.integers(1, 3)))
                for i in range(k)}
    out_rates = {int(nodes[-(j + 1)]): Fraction(int(rng.integers(1, 5)))
                 for j in range(draw(st.integers(1, 3)))}
    return build_extended_graph(g, in_rates, out_rates)


class TestClassifyEquivalence:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @given(ext=random_networks())
    @settings(max_examples=15, deadline=None)
    def test_warm_classify_equals_cold_classify(self, algorithm, ext):
        warm = classify_network(ext)
        cold = classify_network_cold(ext, algorithm)
        assert warm.network_class == cold.network_class
        assert warm.arrival_rate == cold.arrival_rate
        assert warm.max_flow_value == cold.max_flow_value
        assert warm.f_star == cold.f_star
        assert warm.certified_epsilon == cold.certified_epsilon
        assert warm.cut_kind == cold.cut_kind
        assert warm.unique_min_cut == cold.unique_min_cut
        assert list(warm.min_cut.arcs) == list(cold.min_cut.arcs)
        assert warm.min_cut.capacity == cold.min_cut.capacity


class TestEngineBasics:
    def _problem(self):
        return FlowProblem(
            n=4, tails=(0, 0, 1, 2), heads=(1, 2, 3, 3),
            capacities=(Fraction(2), Fraction(2), Fraction(2), Fraction(2)),
            source=0, sink=3,
        )

    def test_capacity_decrease_rejected(self):
        engine = ParametricMaxFlow(self._problem())
        with pytest.raises(FlowError, match="must not decrease"):
            engine.raise_arc_capacities({0: Fraction(1)})

    def test_arc_index_out_of_range(self):
        engine = ParametricMaxFlow(self._problem())
        with pytest.raises(FlowError, match="out of range"):
            engine.raise_arc_capacities({9: Fraction(5)})

    def test_noop_step_keeps_value(self):
        engine = ParametricMaxFlow(self._problem())
        before = engine.value
        assert engine.raise_arc_capacities({0: Fraction(2)}) == before

    def test_fork_isolates_state(self):
        engine = ParametricMaxFlow(self._problem())
        fork = engine.fork()
        # 0->1 and 1->3 raised to 5: that path carries 5, 0->2->3 still 2
        fork.raise_arc_capacities({0: Fraction(5), 2: Fraction(5)})
        assert fork.value == Fraction(7)
        assert engine.value == Fraction(4)
        engine.result.check()
        fork.result.check()

    def test_problem_property_tracks_capacities(self):
        engine = ParametricMaxFlow(self._problem())
        engine.raise_arc_capacities({0: Fraction(7)})
        assert engine.problem.capacities[0] == Fraction(7)

    def test_source_arc_updates_maps_nodes_to_arcs(self):
        g = gen.random_gnp(6, 0.5, seed=3, ensure_connected=True)
        ext = build_extended_graph(g, {0: 2, 1: 3}, {5: 4})
        updates = source_arc_updates(ext, {0: Fraction(9)})
        assert len(updates) == 1
        (j, cap), = updates.items()
        assert cap == Fraction(9)
        assert int(ext.tails[j]) == ext.s_star
        assert int(ext.heads[j]) == 0


class TestOneColdSolveGuard:
    """Lint-level guard: classify_network pays exactly one cold solve.

    The whole point of the warm chain is that the ε-probe and f* steps
    are parametric, not fresh solves — ``repro_flow_solves_total`` (only
    incremented by the cold entry points) must advance by exactly 1 per
    classify call, while the warm-step counter advances instead.  Each
    case also checks the report's flow values against a cold solve by
    one oracle, outside the counted window.
    """

    def _total(self, name):
        counter = get_registry().counter(name, "", ("algorithm",))
        return sum(inst.value for _labels, inst in counter._series())

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_classify_is_one_cold_solve(self, algorithm):
        g = gen.random_gnp(10, 0.4, seed=11, ensure_connected=True)
        ext = build_extended_graph(g, {0: Fraction(3, 2), 1: Fraction(1)},
                                   {8: Fraction(2), 9: Fraction(2)})
        prev = obs.configure(metrics=True)
        try:
            for _call in range(3):
                before_cold = self._total("repro_flow_solves_total")
                before_warm = self._total("repro_flow_warm_solves_total")
                report = classify_network(ext)
                # feasible networks take the ε-probe + f* warm steps; an
                # infeasible one goes straight to f* (one warm step)
                expected_warm = 2 if report.feasible else 1
                assert self._total("repro_flow_solves_total") - before_cold == 1
                assert (self._total("repro_flow_warm_solves_total")
                        - before_warm) == expected_warm
        finally:
            obs.configure(**prev)
        cold = classify_network_cold(ext, algorithm)
        assert (report.max_flow_value, report.f_star) == (cold.max_flow_value, cold.f_star)

    def test_warm_counters_labelled_by_algorithm(self):
        g = gen.random_gnp(8, 0.5, seed=4, ensure_connected=True)
        ext = build_extended_graph(g, {0: 2}, {7: 3})
        prev = obs.configure(metrics=True)
        try:
            classify_network(ext)
            reg = get_registry()
            warm = reg.counter("repro_flow_warm_solves_total", "", ("algorithm",))
            assert warm.labels(algorithm="dinic").value >= 1
            arcs = reg.counter("repro_flow_warm_augment_arcs_total", "",
                               ("algorithm",))
            assert arcs.labels(algorithm="dinic").value >= 0
        finally:
            obs.configure(**prev)
