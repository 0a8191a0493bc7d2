"""Residual-network, FlowTopology and FlowResult.check coverage."""

import random
from fractions import Fraction

import pytest

from repro.errors import FlowError
from repro.flow.residual import FlowProblem, FlowResult, FlowTopology, Residual


def problem(n, arcs, s, t):
    tails, heads, caps = zip(*arcs) if arcs else ((), (), ())
    return FlowProblem(n=n, tails=list(tails), heads=list(heads),
                       capacities=list(caps), source=s, sink=t)


class TestResidual:
    def test_initial_capacities(self):
        p = problem(3, [(0, 1, 4), (1, 2, 2)], 0, 2)
        r = Residual(p)
        assert r.residual[0] == 4   # forward of arc 0
        assert r.residual[1] == 0   # backward of arc 0
        assert r.to[0] == 1
        assert r.to[1] == 0

    def test_push_moves_capacity(self):
        p = problem(2, [(0, 1, 4)], 0, 1)
        r = Residual(p)
        r.push(0, 3)
        assert r.residual[0] == 1
        assert r.residual[1] == 3
        assert r.flows() == [3]

    def test_push_negative_undoes(self):
        p = problem(2, [(0, 1, 4)], 0, 1)
        r = Residual(p)
        r.push(0, 3)
        r.push(1, 3)  # push along the reverse arc = cancel
        assert r.flows() == [0]

    def test_reachable_from(self):
        p = problem(4, [(0, 1, 1), (1, 2, 0), (2, 3, 1)], 0, 3)
        r = Residual(p)
        mask = r.reachable_from(0)
        assert mask.tolist() == [True, True, False, False]

    def test_co_reachable_to(self):
        p = problem(4, [(0, 1, 1), (1, 2, 0), (2, 3, 1)], 0, 3)
        r = Residual(p)
        mask = r.co_reachable_to(3)
        assert mask.tolist() == [False, False, True, True]

    def test_reachability_after_saturation(self):
        p = problem(3, [(0, 1, 1), (1, 2, 1)], 0, 2)
        r = Residual(p)
        r.push(0, 1)
        r.push(2, 1)
        # forward saturated everywhere, but backward arcs open the reverse
        assert r.reachable_from(0).tolist() == [True, False, False]
        assert r.reachable_from(2).tolist() == [True, True, True]


def textbook_adjacency(n, tails, heads):
    """Per node, its residual arcs in ascending id order (arc ``2j`` leaves
    ``tails[j]``, ``2j + 1`` leaves ``heads[j]``) and their heads."""
    out_arcs = [[] for _ in range(n)]
    out_heads = [[] for _ in range(n)]
    for j, (u, v) in enumerate(zip(tails, heads)):
        out_arcs[u].append(2 * j)
        out_heads[u].append(v)
        out_arcs[v].append(2 * j + 1)
        out_heads[v].append(u)
    return out_arcs, out_heads


def random_multigraph(rng):
    """Arcs on a few busy nodes, so parallel and antiparallel arcs (and the
    odd self-loop) are common, plus nodes no arc touches."""
    n = rng.randint(1, 12)
    busy = rng.randint(1, n)
    m = rng.choice([0, rng.randint(1, 30)])
    tails = [rng.randrange(busy) for _ in range(m)]
    heads = [rng.randrange(busy) for _ in range(m)]
    return n, tails, heads


class TestFlowTopology:
    @pytest.mark.parametrize("seed", range(40))
    def test_adjacency_equals_textbook_construction(self, seed):
        n, tails, heads = random_multigraph(random.Random(seed))
        topo = FlowTopology(n, tails, heads)
        assert topo.adjacency() == textbook_adjacency(n, tails, heads)
        assert topo.to == [x for u, v in zip(tails, heads) for x in (v, u)]
        assert all(topo.arcs_of(u) == topo.adjacency()[0][u] for u in range(n))

    @pytest.mark.parametrize("n,tails,heads", [
        (4, [], []),                                   # no arcs at all
        (5, [0, 0, 1], [1, 1, 0]),                     # parallel + antiparallel
        (6, [2, 3, 2], [3, 2, 3]),                     # nodes 0, 1, 4, 5 isolated
    ], ids=["no-arcs", "parallel-antiparallel", "isolated-nodes"])
    def test_adjacency_edge_cases(self, n, tails, heads):
        topo = FlowTopology(n, tails, heads)
        out_arcs, out_heads = topo.adjacency()
        assert (out_arcs, out_heads) == textbook_adjacency(n, tails, heads)
        assert len(out_arcs) == len(out_heads) == n
        assert all(type(a) is int for arcs in out_arcs for a in arcs)


class TestFlowResultCheck:
    def make(self, p, flows):
        r = Residual(p)
        for j, f in enumerate(flows):
            if f:
                r.push(2 * j, f)
        value = sum(f for j, f in enumerate(flows) if p.tails[j] == p.source) - sum(
            f for j, f in enumerate(flows) if p.heads[j] == p.source
        )
        return FlowResult(problem=p, value=value, flows=tuple(flows), residual=r)

    def test_valid_flow_passes(self):
        p = problem(3, [(0, 1, 2), (1, 2, 2)], 0, 2)
        self.make(p, [2, 2]).check()

    def test_capacity_violation_detected(self):
        p = problem(3, [(0, 1, 2), (1, 2, 2)], 0, 2)
        bad = FlowResult(problem=p, value=3, flows=(3, 3), residual=Residual(p))
        with pytest.raises(FlowError):
            bad.check()

    def test_conservation_violation_detected(self):
        p = problem(3, [(0, 1, 2), (1, 2, 2)], 0, 2)
        bad = FlowResult(problem=p, value=2, flows=(2, 1), residual=Residual(p))
        with pytest.raises(FlowError):
            bad.check()

    def test_wrong_value_detected(self):
        p = problem(3, [(0, 1, 2), (1, 2, 2)], 0, 2)
        bad = FlowResult(problem=p, value=1, flows=(2, 2), residual=Residual(p))
        with pytest.raises(FlowError):
            bad.check()

    def test_negative_flow_detected(self):
        p = problem(2, [(0, 1, 2)], 0, 1)
        bad = FlowResult(problem=p, value=-1, flows=(-1,), residual=Residual(p))
        with pytest.raises(FlowError):
            bad.check()

    def test_fraction_flows_exact(self):
        p = problem(3, [(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 2))], 0, 2)
        self.make(p, [Fraction(1, 3), Fraction(1, 3)]).check()


class TestFromExtended:
    def test_override_applies_to_source_arcs_only(self):
        from repro.graphs import build_extended_graph
        from repro.graphs import generators as gen

        ext = build_extended_graph(gen.path(3), {0: 1}, {2: 5})
        p = FlowProblem.from_extended(ext, source_cap_override={0: 99})
        # the (s*, 0) arc got the override; the sink arc kept its capacity
        assert 99 in p.capacities
        assert 5 in p.capacities
        assert p.capacities.count(99) == 1
