"""Capacity-scaling max-flow tests."""

from fractions import Fraction

import numpy as np
import pytest

from repro.errors import FlowError
from repro.flow import max_flow
from repro.flow.capacity_scaling import capacity_scaling
from repro.flow.residual import FlowProblem


def problem(n, arcs, s, t):
    tails, heads, caps = zip(*arcs) if arcs else ((), (), ())
    return FlowProblem(n=n, tails=list(tails), heads=list(heads),
                       capacities=list(caps), source=s, sink=t)


class TestKnownInstances:
    def test_single_arc(self):
        r = capacity_scaling(problem(2, [(0, 1, 7)], 0, 1))
        assert r.value == 7
        r.check()

    def test_zero_capacity(self):
        r = capacity_scaling(problem(2, [(0, 1, 0)], 0, 1))
        assert r.value == 0

    def test_no_arcs(self):
        r = capacity_scaling(problem(2, [], 0, 1))
        assert r.value == 0

    def test_large_capacities(self):
        # the scaling advantage case: huge capacities, short paths
        arcs = [(0, 1, 10**9), (1, 2, 10**9 - 7), (0, 2, 13)]
        r = capacity_scaling(problem(3, arcs, 0, 2))
        assert r.value == 10**9 - 7 + 13
        r.check()

    def test_clrs_instance(self):
        arcs = [
            (0, 1, 16), (0, 2, 13), (1, 3, 12), (2, 1, 4), (2, 4, 14),
            (3, 2, 9), (3, 5, 20), (4, 3, 7), (4, 5, 4),
        ]
        r = capacity_scaling(problem(6, arcs, 0, 5))
        assert r.value == 23
        r.check()

    def test_rejects_floats(self):
        with pytest.raises(FlowError):
            capacity_scaling(problem(2, [(0, 1, 1.5)], 0, 1))

    def test_rejects_proper_fractions(self):
        with pytest.raises(FlowError):
            capacity_scaling(problem(2, [(0, 1, Fraction(1, 2))], 0, 1))

    def test_accepts_integral_fractions(self):
        r = capacity_scaling(problem(2, [(0, 1, Fraction(4))], 0, 1))
        assert r.value == 4


class TestDifferential:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_dinic_random(self, seed):
        rng = np.random.default_rng(7000 + seed)
        n = int(rng.integers(3, 11))
        arcs = []
        for _ in range(int(rng.integers(3, 28))):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                arcs.append((int(u), int(v), int(rng.integers(0, 50))))
        p = problem(n, arcs, 0, n - 1)
        r = capacity_scaling(p)
        assert r.value == max_flow(p).value
        r.check()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_on_huge_caps(self, seed):
        rng = np.random.default_rng(8000 + seed)
        n = 6
        arcs = []
        for _ in range(14):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                arcs.append((int(u), int(v), int(rng.integers(1, 10**6))))
        p = problem(n, arcs, 0, n - 1)
        assert capacity_scaling(p).value == max_flow(p).value
