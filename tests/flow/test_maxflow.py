"""Max-flow solver tests: hand-checked instances, cross-solver agreement,
differential checks against networkx, and hypothesis properties."""

from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlowError
from repro.flow import max_flow
from repro.flow.oracles import ALGORITHMS
from repro.flow.residual import FlowProblem

ALGOS = sorted(ALGORITHMS)


def problem(n, arcs, s, t):
    tails, heads, caps = zip(*arcs) if arcs else ((), (), ())
    return FlowProblem(n=n, tails=list(tails), heads=list(heads),
                       capacities=list(caps), source=s, sink=t)


class TestValidation:
    def test_source_equals_sink_rejected(self):
        with pytest.raises(FlowError):
            problem(2, [(0, 1, 1)], 0, 0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(FlowError):
            problem(2, [(0, 1, -1)], 0, 1)

    def test_arc_out_of_range_rejected(self):
        with pytest.raises(FlowError):
            problem(2, [(0, 5, 1)], 0, 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(FlowError):
            FlowProblem(n=2, tails=[0], heads=[1, 0], capacities=[1], source=0, sink=1)

    def test_unknown_algorithm(self):
        # max_flow is Dinic itself, with no algorithm to choose; the other
        # solvers are oracles, reached only through the registry
        assert max_flow is ALGORITHMS["dinic"]
        with pytest.raises(TypeError):
            max_flow(problem(2, [(0, 1, 1)], 0, 1), algorithm="simplex")


@pytest.mark.parametrize("algo", ALGOS)
class TestKnownInstances:
    def test_single_arc(self, algo):
        r = ALGORITHMS[algo](problem(2, [(0, 1, 7)], 0, 1))
        assert r.value == 7
        r.check()

    def test_no_path(self, algo):
        r = ALGORITHMS[algo](problem(3, [(0, 1, 5)], 0, 2))
        assert r.value == 0

    def test_series_bottleneck(self, algo):
        r = ALGORITHMS[algo](problem(3, [(0, 1, 5), (1, 2, 3)], 0, 2))
        assert r.value == 3
        r.check()

    def test_parallel_arcs_add(self, algo):
        r = ALGORITHMS[algo](problem(2, [(0, 1, 2), (0, 1, 3)], 0, 1))
        assert r.value == 5

    def test_diamond(self, algo):
        arcs = [(0, 1, 3), (0, 2, 2), (1, 3, 2), (2, 3, 3), (1, 2, 5)]
        r = ALGORITHMS[algo](problem(4, arcs, 0, 3))
        assert r.value == 5
        r.check()

    def test_classic_clrs_instance(self, algo):
        # CLRS Figure 26.1 instance, max flow = 23
        arcs = [
            (0, 1, 16), (0, 2, 13), (1, 3, 12), (2, 1, 4), (2, 4, 14),
            (3, 2, 9), (3, 5, 20), (4, 3, 7), (4, 5, 4),
        ]
        r = ALGORITHMS[algo](problem(6, arcs, 0, 5))
        assert r.value == 23
        r.check()

    def test_antiparallel_pair(self, algo):
        arcs = [(0, 1, 1), (1, 0, 1), (1, 2, 1)]
        r = ALGORITHMS[algo](problem(3, arcs, 0, 2))
        assert r.value == 1

    def test_fraction_capacities_exact(self, algo):
        arcs = [(0, 1, Fraction(1, 3)), (0, 1, Fraction(1, 6)), (1, 2, Fraction(1, 2))]
        r = ALGORITHMS[algo](problem(3, arcs, 0, 2))
        assert r.value == Fraction(1, 2)
        r.check()

    def test_zero_capacity_arcs(self, algo):
        r = ALGORITHMS[algo](problem(3, [(0, 1, 0), (1, 2, 4)], 0, 2))
        assert r.value == 0

    def test_long_path(self, algo):
        n = 300
        arcs = [(i, i + 1, 2) for i in range(n - 1)]
        r = ALGORITHMS[algo](problem(n, arcs, 0, n - 1))
        assert r.value == 2


def _random_instance(rng, n_max=10, m_max=25, cap_max=10):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    arcs = []
    for _ in range(m):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            arcs.append((u, v, int(rng.integers(0, cap_max + 1))))
    return problem(n, arcs, 0, n - 1)


class TestDifferential:
    @pytest.mark.parametrize("seed", range(30))
    def test_solvers_agree_with_networkx(self, seed):
        rng = np.random.default_rng(seed)
        p = _random_instance(rng)
        g = nx.DiGraph()
        g.add_nodes_from(range(p.n))
        for u, v, c in zip(p.tails, p.heads, p.capacities):
            if g.has_edge(u, v):
                g[u][v]["capacity"] += c
            else:
                g.add_edge(u, v, capacity=c)
        expected = nx.maximum_flow_value(g, p.source, p.sink) if g.number_of_edges() else 0
        for algo in ALGOS:
            r = ALGORITHMS[algo](p)
            assert r.value == expected, f"{algo} disagrees with networkx on seed {seed}"
            r.check()

    @pytest.mark.parametrize("seed", range(10))
    def test_min_cut_equals_flow(self, seed):
        from repro.flow import min_cut

        rng = np.random.default_rng(1000 + seed)
        p = _random_instance(rng)
        for algo in ALGOS:
            r = ALGORITHMS[algo](p)
            cut = min_cut(r)  # raises if cut capacity != flow value
            assert cut.side[p.source]
            assert not cut.side[p.sink]


@st.composite
def flow_instances(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.integers(min_value=0, max_value=16))
    arcs = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            c = draw(st.integers(min_value=0, max_value=6))
            arcs.append((u, v, c))
    return problem(n, arcs, 0, n - 1)


class TestHypothesis:
    @given(flow_instances())
    @settings(max_examples=60, deadline=None)
    def test_all_solvers_agree_and_conserve(self, p):
        values = set()
        for algo in ALGOS:
            r = ALGORITHMS[algo](p)
            r.check()
            values.add(r.value)
        assert len(values) == 1

    @given(flow_instances())
    @settings(max_examples=40, deadline=None)
    def test_flow_value_bounded_by_source_degree_capacity(self, p):
        r = max_flow(p)
        out_cap = sum(c for u, c in zip(p.tails, p.capacities) if u == p.source)
        in_cap = sum(c for v, c in zip(p.heads, p.capacities) if v == p.sink)
        assert 0 <= r.value <= min(out_cap, in_cap)
