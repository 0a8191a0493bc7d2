"""Deeper push-relabel coverage: both variants, gap-heuristic paths,
adversarial shapes, exact fractions."""

from fractions import Fraction

import numpy as np
import pytest

from repro.errors import FlowError
from repro.flow import max_flow
from repro.flow.mincut import is_sd_cut, min_cut
from repro.flow.push_relabel import push_relabel
from repro.flow.residual import FlowProblem


def problem(n, arcs, s, t):
    tails, heads, caps = zip(*arcs) if arcs else ((), (), ())
    return FlowProblem(n=n, tails=list(tails), heads=list(heads),
                       capacities=list(caps), source=s, sink=t)


VARIANTS = ["fifo", "highest"]


@pytest.mark.parametrize("variant", VARIANTS)
class TestVariants:
    def test_unknown_variant_rejected(self, variant):
        with pytest.raises(FlowError):
            push_relabel(problem(2, [(0, 1, 1)], 0, 1), "bogus")

    def test_flow_returns_excess_to_source(self, variant):
        # dead-end branch forces flow to retreat through relabeling
        arcs = [(0, 1, 10), (1, 2, 10), (1, 3, 10), (3, 4, 0), (2, 5, 3)]
        r = push_relabel(problem(6, arcs, 0, 5), variant)
        assert r.value == 3
        r.check()

    def test_gap_heuristic_triggering_instance(self, variant):
        # long thin chain with a side pocket: relabeling empties levels
        arcs = [(0, 1, 5), (1, 2, 1), (2, 3, 1), (1, 4, 5), (4, 5, 0), (3, 6, 1)]
        r = push_relabel(problem(7, arcs, 0, 6), variant)
        assert r.value == 1
        r.check()

    def test_star_fan_in(self, variant):
        # many parallel feeders into one sink
        arcs = [(0, i, 2) for i in range(1, 6)] + [(i, 6, 1) for i in range(1, 6)]
        r = push_relabel(problem(7, arcs, 0, 6), variant)
        assert r.value == 5
        r.check()

    def test_fraction_capacities(self, variant):
        arcs = [(0, 1, Fraction(3, 7)), (1, 2, Fraction(2, 7)), (0, 2, Fraction(1, 7))]
        r = push_relabel(problem(3, arcs, 0, 2), variant)
        assert r.value == Fraction(3, 7)
        r.check()

    def test_large_chain_no_stack_issues(self, variant):
        n = 500
        arcs = [(i, i + 1, 1) for i in range(n - 1)]
        r = push_relabel(problem(n, arcs, 0, n - 1), variant)
        assert r.value == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_differential_wide_random(self, variant, seed):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(4, 12))
        arcs = []
        for _ in range(int(rng.integers(5, 35))):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                arcs.append((int(u), int(v), int(rng.integers(0, 12))))
        p = problem(n, arcs, 0, n - 1)
        assert push_relabel(p, variant).value == max_flow(p).value


class TestIsSDCut:
    def test_sd_cut_detection(self):
        p = problem(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)], 0, 3)
        cut = min_cut(max_flow(p))
        assert is_sd_cut(cut, sources=[0], destinations=[3])
        # a "source" on the sink side makes it a non-S-D cut
        assert not is_sd_cut(cut, sources=[0, 3], destinations=[])

    def test_non_sd_cut(self):
        # cut right after the source: node 1 (pretend-source) lands in B
        p = problem(4, [(0, 1, 1), (1, 2, 5), (2, 3, 5)], 0, 3)
        cut = min_cut(max_flow(p), side="min")
        assert cut.source_side == [0]
        assert not is_sd_cut(cut, sources=[0, 1], destinations=[3])
