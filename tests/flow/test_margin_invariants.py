"""Invariants of the max-unsaturation-margin searches.

``max_unsaturation_margin`` is now *exact* — λ* − 1 from the parametric
breakpoint envelope — so its contract is the strongest possible:
``(1 + margin)·in`` is feasible and ``(1 + margin + δ)·in`` is not for
*every* δ > 0 (the ε-feasible set is the closed interval ``[0, ε*]``).
The PR 5 warm bracket/bisection search survives as
``max_unsaturation_margin_probe`` and must still walk the identical
bracket trajectory as the all-cold twin; both bracket the exact value.
The documented escape hatches — no injections, essentially-unbounded
slack — must keep working (the probe searches cap at 2**20; the exact
path has no cap).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlowError
from repro.flow.feasibility import _exact_problem, max_unsaturation_margin
from repro.flow.oracles import (
    ALGORITHMS,
    max_unsaturation_margin_cold,
    max_unsaturation_margin_probe,
)
from repro.graphs import build_extended_graph
from repro.graphs import generators as gen
from repro.graphs.multigraph import MultiGraph

TOL = Fraction(1, 512)


def _feasible_at(ext, eps: Fraction, algorithm: str = "dinic") -> bool:
    """Ground truth by an independent cold solve at scale (1 + eps)."""
    arrival = sum((Fraction(r) for r in ext.in_rates.values()),
                  start=Fraction(0))
    caps = {v: (1 + eps) * Fraction(r) for v, r in ext.in_rates.items()}
    res = ALGORITHMS[algorithm](_exact_problem(ext, source_cap_override=caps))
    return res.value == (1 + eps) * arrival


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


class TestExactMarginCertificate:
    @given(ext=random_networks())
    @settings(max_examples=25, deadline=None)
    def test_margin_feasible_any_excess_not(self, ext):
        margin = max_unsaturation_margin(ext)
        if not _feasible_at(ext, Fraction(0)):
            assert margin == 0  # infeasible even unscaled
            return
        # the exact margin is itself feasible (the feasible set is closed)
        assert _feasible_at(ext, margin)
        # ... and *any* strictly larger slack is infeasible — no tol slop
        assert not _feasible_at(ext, margin + Fraction(1, 2**40))

    @given(ext=random_networks())
    @settings(max_examples=25, deadline=None)
    def test_infeasible_or_saturated_margin_is_zero(self, ext):
        margin = max_unsaturation_margin(ext)
        if not _feasible_at(ext, Fraction(0)):
            assert margin == 0


class TestProbeBracketsExact:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @given(ext=random_networks())
    @settings(max_examples=10, deadline=None)
    def test_probe_equals_cold_and_brackets_exact(self, algorithm, ext):
        probe = max_unsaturation_margin_probe(ext, tol=TOL)
        cold = max_unsaturation_margin_cold(ext, tol=TOL, algorithm=algorithm)
        assert probe == cold  # exact Fraction equality, same bracket walk
        exact = max_unsaturation_margin(ext)
        if probe >= 2**20:
            # bracket search bailed out on the unbounded-slack escape
            # hatch; the exact path keeps going
            assert exact >= 2**20
        else:
            # the bisection's lo is a certified lower bound, lo + tol an
            # upper bound — the exact value must land inside
            assert probe <= exact < probe + TOL

    @given(ext=random_networks())
    @settings(max_examples=10, deadline=None)
    def test_exact_identical_across_algorithms(self, ext):
        """The exact margin is the frontier by cold solves of every oracle."""
        margin = max_unsaturation_margin(ext)
        for alg in sorted(ALGORITHMS):
            if not _feasible_at(ext, Fraction(0), alg):
                assert margin == 0
                continue
            assert _feasible_at(ext, margin, alg)
            assert not _feasible_at(ext, margin + Fraction(1, 2**40), alg)


class TestEdgePaths:
    def test_no_injections_raises(self):
        g = gen.random_gnp(5, 0.6, seed=1, ensure_connected=True)
        ext = build_extended_graph(g, {}, {4: 2})
        with pytest.raises(FlowError, match="no injections"):
            max_unsaturation_margin(ext)
        with pytest.raises(FlowError, match="no injections"):
            max_unsaturation_margin_probe(ext)
        with pytest.raises(FlowError, match="no injections"):
            max_unsaturation_margin_cold(ext)

    def test_unbounded_slack_exact_beyond_bracket_cap(self):
        # A 3-node path with a microscopic injection: even (1 + 2**20)·in
        # stays far below the unit edge capacity, so the probe searches'
        # exponential bracket gives up at 2**20 — but the envelope path
        # returns the exact frontier: λ* = 2**22, margin 2**22 − 1.
        g = MultiGraph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        ext = build_extended_graph(g, {0: Fraction(1, 2**22)}, {2: 1})
        assert max_unsaturation_margin(ext) == 2**22 - 1
        assert max_unsaturation_margin_probe(ext) == 2**20
        assert max_unsaturation_margin_cold(ext) == 2**20

    def test_saturated_chain_is_zero(self):
        # in == capacity exactly: feasible with zero slack
        g = MultiGraph(2)
        g.add_edge(0, 1)
        ext = build_extended_graph(g, {0: 1}, {1: 1})
        assert max_unsaturation_margin(ext) == 0

    def test_infeasible_is_zero(self):
        g = MultiGraph(2)
        g.add_edge(0, 1)
        ext = build_extended_graph(g, {0: 5}, {1: 1})
        assert max_unsaturation_margin(ext) == 0
