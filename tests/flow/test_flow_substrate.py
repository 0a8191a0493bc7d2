"""The per-network flow substrate: one ``G*`` shared by every solve on it.

``NetworkSpec.extended()`` memoizes the extended graph on the topology
snapshot, and every parametric ladder aliases its residual topology and
scaled fixed capacities.  These tests pin the sharing contract (aliasing
without mutation, invalidation on graph mutation, a bounded memo, the
``Fraction`` fallback rule) and show, differentially, that sharing leaks
no state across rays or calls.
"""

import pickle
from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np
import pytest

from repro.flow import breakpoint_envelope, classify_network, classify_region
from repro.flow.oracles import ALGORITHMS, classify_network_cold
from repro.flow.feasibility import _exact_problem
from repro.flow.parametric import _Ladder
from repro.graphs import build_extended_graph
from repro.graphs import generators as gen
from repro.graphs.extended import _MEMO_PER_SNAPSHOT, extended_graph_of
from repro.network import NetworkSpec
from repro.numeric import fraction_fallbacks_total, reset_counters
from repro.sweep import (FeasibilityCache, canonical_ray_key, canonical_spec_key,
                         random_instance_spec)


def facts(value):
    """A flow output as nested tuples (``==`` on a dataclass holding an
    ndarray would hit numpy's ambiguous truth value)."""
    if is_dataclass(value):
        return tuple((f.name, facts(getattr(value, f.name))) for f in fields(value))
    if isinstance(value, np.ndarray):
        return ("ndarray", value.tolist())
    if isinstance(value, (list, tuple)):
        return tuple(facts(v) for v in value)
    return value


def topology_state(topo):
    out_arcs, out_heads = topo.adjacency()
    return list(topo.to), [list(a) for a in out_arcs], [list(h) for h in out_heads]


def grid_spec():
    return NetworkSpec.classical(gen.grid(3, 4), {0: 2, 5: 1}, {11: 3})


class TestSharedSubstrate:
    def test_ladders_alias_one_topology_and_never_mutate_it(self):
        ext = grid_spec().extended()
        topo = ext.flow_topology
        before = topology_state(topo)
        fixed_before = list(ext.fixed_capacities.ints)
        arcs_before = tuple(list(a) for a in ext.arc_lists)

        def assert_untouched():
            assert topology_state(topo) == before
            assert ext.fixed_capacities.ints == fixed_before
            assert tuple(list(a) for a in ext.arc_lists) == arcs_before

        a = _Ladder(ext, ext.in_rates, first=Fraction(1))
        assert_untouched()
        b = _Ladder(ext, {0: Fraction(2, 3), 5: Fraction(5, 7)})
        assert_untouched()
        for lam in (Fraction(3, 2), Fraction(7, 4), a.plateau):
            a.probe(lam)
            a.line_of(a.probe(lam)[1])
        for lam in (Fraction(1, 3), Fraction(11, 5), Fraction(13, 2), b.plateau):
            b.probe(lam)  # new denominators: forks rescale their residuals
            assert_untouched()
        for ladder in (a, b):
            assert len(ladder._rungs) > 2
            for engine, _scale in ladder._rungs:
                assert engine._res.topology is topo
                assert engine.problem.topology is topo
                assert engine.problem.tails is ext.arc_lists[0]
        assert_untouched()

    def test_verdicts_share_the_memoized_extended_graph(self):
        spec = grid_spec()
        ext = spec.extended()
        assert spec.extended() is ext
        twin = NetworkSpec.classical(spec.graph, dict(spec.in_rates),
                                     dict(spec.out_rates))
        assert twin.extended() is ext  # same topology epoch, same rates

    @pytest.mark.parametrize("mutate", ["add_edge", "remove_edge"])
    def test_mutation_invalidates_the_extended_graph(self, mutate):
        spec = grid_spec()
        g = spec.graph
        before = spec.extended()
        if mutate == "add_edge":
            g.add_edge(0, 11)
        else:
            g.remove_edge(3)
        after = spec.extended()
        assert after is not before
        fresh = build_extended_graph(g, spec.in_rates, spec.out_rates)
        assert after.tails.tolist() == fresh.tails.tolist()
        assert after.heads.tolist() == fresh.heads.tolist()
        assert after.refs.tolist() == fresh.refs.tolist()
        assert after.capacities == fresh.capacities
        assert after.num_arcs == before.num_arcs + (2 if mutate == "add_edge" else -2)
        assert facts(classify_network(after)) == facts(classify_network_cold(fresh))

    def test_memo_is_bounded_per_snapshot(self):
        g = gen.grid(3, 3)
        exts = [extended_graph_of(g, {0: r}, {8: 1}) for r in range(1, 3 * _MEMO_PER_SNAPSHOT)]
        assert len(g.to_csr().extended_memo) == _MEMO_PER_SNAPSHOT
        # the newest survive and stay shared; an evicted one is rebuilt equal
        assert extended_graph_of(g, {0: 3 * _MEMO_PER_SNAPSHOT - 1}, {8: 1}) is exts[-1]
        rebuilt = extended_graph_of(g, {0: 1}, {8: 1})
        assert rebuilt is not exts[0] and rebuilt.capacities == exts[0].capacities
        assert len(g.to_csr().extended_memo) == _MEMO_PER_SNAPSHOT

    def test_memo_key_keeps_rate_types_apart(self):
        g = gen.path(3)
        as_int = extended_graph_of(g, {0: 2}, {2: 1})
        as_fraction = extended_graph_of(g, {0: Fraction(2)}, {2: 1})
        assert as_int is not as_fraction
        assert type(as_fraction.capacities[as_fraction.source_arc_of(0)]) is Fraction

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("where", ["in", "out"])
    def test_one_fallback_per_ladder_on_shared_capacities(self, algorithm, where):
        big = (1 << 70) + 1
        g = gen.random_gnp(10, 0.5, seed=7, ensure_connected=True)
        in_rates, out_rates = {0: 2, 1: 1}, {9: 3}
        if where == "in":
            in_rates[0] = big
        else:
            out_rates[9] = big
        ext = NetworkSpec.classical(g, in_rates, out_rates).extended()
        # a huge sink rate defeats the shared scale; a huge source rate
        # only each ladder's parametric arcs
        assert (ext.fixed_capacities is None) == (where == "out")
        reset_counters()
        report = classify_network(ext)
        assert fraction_fallbacks_total() == 1
        envelope = breakpoint_envelope(ext)
        assert fraction_fallbacks_total() == 2
        classify_region(ext)
        assert fraction_fallbacks_total() == 3
        fresh = build_extended_graph(g, in_rates, out_rates)
        assert facts(report) == facts(classify_network_cold(fresh, algorithm))
        assert facts(envelope) == facts(breakpoint_envelope(fresh))
        # every segment's line is the cold max flow at an interior λ
        for seg in envelope.segments:
            lam = seg.lo + 1 if seg.hi is None else (seg.lo + seg.hi) / 2
            caps = {v: lam * Fraction(r) for v, r in in_rates.items()}
            cold = ALGORITHMS[algorithm](_exact_problem(fresh, source_cap_override=caps))
            assert cold.value == seg.value_at(lam)


class TestPickle:
    """Solving fills caches on the graph (CSR snapshot, ``G*`` memo, flow
    topology and its adjacency); none of it may ride along in a pickle."""

    def test_solved_spec_pickles_like_a_fresh_one(self):
        params = {"family": "gnp", "n": 150, "sources": 3, "sinks": 2, "p": 0.4}
        spec = random_instance_spec(params, 3)
        fresh = random_instance_spec(params, 3)
        cache = FeasibilityCache()
        cache.classify(spec)
        cache.region(spec)
        assert spec.graph._csr_cache is not None  # solving did fill the caches
        solved = pickle.dumps(spec)
        assert len(solved) <= len(pickle.dumps(fresh))
        back = pickle.loads(solved)
        assert list(back.graph.edges()) == list(spec.graph.edges())
        assert (back.in_rates, back.out_rates) == (spec.in_rates, spec.out_rates)
        assert canonical_spec_key(back) == canonical_spec_key(spec)
        ray = {v: 2 for v in spec.in_rates}
        assert canonical_ray_key(back, ray) == canonical_ray_key(spec, ray)
        # the live graph keeps its caches; the copy rebuilds its own
        assert spec.graph._csr_cache is not None
        assert back.extended() is not spec.extended()
        assert facts(cache.classify(spec)) == facts(classify_network(back.extended()))

    def test_round_trip_keeps_tombstones_and_stays_mutable(self):
        g = gen.grid(3, 3)
        g.remove_edge(2)
        g.to_csr()
        back = pickle.loads(pickle.dumps(g))
        assert list(back.edges()) == list(g.edges())
        assert back.m == g.m
        assert back.add_edge(0, 8) == g.add_edge(0, 8)
        assert list(back.edges()) == list(g.edges())


#: Small versions of the region-map families, six instances each.
FAMILY_PARAMS = [
    {"family": "gnp", "n": 10, "p": 0.4},
    {"family": "gnp", "n": 16, "p": 0.3},
    {"family": "geometric", "n": 14, "radius": 0.45},
    {"family": "ba", "n": 20},
    {"family": "ws", "n": 16},
]


def _rays(spec, seed):
    rng = np.random.default_rng(seed)
    sources = sorted(spec.in_rates)
    return [{v: Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 3)))
             for v in sources} for _ in range(2)]


@pytest.mark.parametrize("params", FAMILY_PARAMS, ids=lambda p: f"{p['family']}-{p['n']}")
def test_cached_substrate_matches_fresh_uncached_calls(params):
    """Cached verdicts on one shared ``G*`` equal fresh calls, each on its
    own independently rebuilt spec and extended graph."""
    params = {"sources": 3, "sinks": 2, **params}
    for seed in range(6):
        spec = random_instance_spec(params, seed)
        rays = _rays(spec, seed)
        cache = FeasibilityCache()
        # interleave rays and questions on the one memoized G*
        cached = {"envelope0": cache.envelope(spec, rays[0]),
                  "classify": cache.classify(spec),
                  "envelope1": cache.envelope(spec, rays[1]),
                  "region": cache.region(spec)}
        assert cache.classify(spec) is cached["classify"]

        def fresh_ext():
            other = random_instance_spec(params, seed)
            return build_extended_graph(other.graph, other.in_rates, other.out_rates)

        fresh = {"envelope0": breakpoint_envelope(fresh_ext(), rays[0]),
                 "classify": classify_network(fresh_ext()),
                 "envelope1": breakpoint_envelope(fresh_ext(), rays[1]),
                 "region": classify_region(fresh_ext())}
        for name in cached:
            assert facts(cached[name]) == facts(fresh[name]), (params, seed, name)
        assert facts(cached["classify"]) == facts(classify_network_cold(fresh_ext()))
