"""The ladder bank on ``G*``: one λ = 0 rung and one plateau line per support.

Every parametric ladder on an extended graph forks its shared λ = 0 rung
(:attr:`ExtendedGraph.base_rung`), and the slope-0 plateau line of
``v(λ)`` is probed once per ray support and banked
(:attr:`ExtendedGraph.plateau_lines`).  These tests show that the bank
leaks nothing between calls: a banked line is the one a fresh probe
finds, results on one shared ``G*`` equal results on fresh ones in any
call order, the base rung is never mutated, and concurrent callers agree.
"""

import random
import sys
import threading
from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np
import pytest

from repro.flow import (breakpoint_envelope, classify_network, classify_region,
                        max_unsaturation_margin)
from repro.flow.feasibility import _exact_problem
from repro.flow.oracles import ALGORITHMS
from repro.flow.parametric import _Ladder
from repro.graphs import build_extended_graph
from repro.graphs.multigraph import MultiGraph


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


def random_network(seed):
    """``(graph, in_rates, out_rates, rays)``: a random multigraph with
    parallel edges and rational rates, and rays that share the nominal
    support, shrink it, or reweight it."""
    rng = random.Random(seed)
    n = rng.randint(4, 11)
    g = MultiGraph(n)
    for u in range(1, n):  # a spanning tree, then extra and parallel edges
        g.add_edge(rng.randrange(u), u)
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(range(n), 2)
        g.add_edge(u, v)
    nodes = rng.sample(range(n), n)
    in_rates = {v: Fraction(rng.randint(1, 4), rng.randint(1, 3))
                for v in nodes[:rng.randint(1, 3)]}
    out_rates = {v: Fraction(rng.randint(1, 5), rng.randint(1, 2))
                 for v in nodes[-rng.randint(1, 2):]}
    sources = sorted(in_rates)
    rays = [None,
            {v: Fraction(rng.randint(1, 5), rng.randint(1, 4)) for v in sources},
            {sources[0]: Fraction(rng.randint(1, 3))},
            {v: Fraction(rng.randint(1, 4)) for v in sources}]
    return g, in_rates, out_rates, rays


def fresh_plateau_line(g, in_rates, out_rates, ray):
    """The plateau line of ``ray`` probed on a ``G*`` no ladder has seen."""
    ext = build_extended_graph(g, in_rates, out_rates)
    ladder = _Ladder(ext, ext.in_rates if ray is None
                     else {v: Fraction(d) for v, d in ray.items()})
    return ladder.line_of(ladder.probe(ladder.plateau)[1])


def questions(rays):
    """``name -> call`` of every flow question asked of one ``G*``."""
    out = {"classify": classify_network, "region": classify_region,
           "margin": max_unsaturation_margin}
    for k, ray in enumerate(rays):
        out[f"envelope{k}"] = lambda ext, ray=ray: breakpoint_envelope(ext, ray)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_banked_plateau_line_equals_a_fresh_probe(seed):
    g, in_rates, out_rates, rays = random_network(seed)
    ext = build_extended_graph(g, in_rates, out_rates)
    for ray in rays:
        env = breakpoint_envelope(ext, ray)
        support = frozenset(j for j in ext.source_arcs
                            if int(ext.refs[j]) in dict(env.direction))
        banked = ext.plateau_lines[support]
        assert banked == fresh_plateau_line(g, in_rates, out_rates, ray)
        assert banked.slope == 0 and banked.intercept == env.f_star
        # f*: the cold max flow with the supported source arcs uncapped
        big = sum(out_rates.values()) + 1
        caps = {v: (big if v in dict(env.direction) else 0) for v in in_rates}
        cold = ALGORITHMS["edmonds_karp"](_exact_problem(ext, source_cap_override=caps))
        assert cold.value == env.f_star
    # rays 0, 1 and 3 share the nominal support; ray 2 may not
    assert len(ext.plateau_lines) == len({frozenset(r or in_rates) for r in rays})


@pytest.mark.parametrize("seed", range(12))
def test_shared_graph_in_any_order_equals_fresh_graphs(seed):
    g, in_rates, out_rates, rays = random_network(seed)
    asked = questions(rays)
    fresh = {name: facts(call(build_extended_graph(g, in_rates, out_rates)))
             for name, call in asked.items()}
    for order in range(3):
        names = sorted(asked)
        random.Random(f"{seed}/{order}").shuffle(names)
        ext = build_extended_graph(g, in_rates, out_rates)
        for name in names:
            # twice: the second call reads a warm bank
            for _ in range(2):
                assert facts(asked[name](ext)) == fresh[name], (seed, names, name)


@pytest.mark.parametrize("seed", range(6))
def test_base_rung_is_never_mutated(seed):
    g, in_rates, out_rates, rays = random_network(seed)
    ext = build_extended_graph(g, in_rates, out_rates)
    base = ext.base_rung
    residual = list(base._res.residual)
    capacities = list(base.problem.capacities)
    mask = base.result.source_side().tolist()
    assert base.value == 0 and mask == [v == ext.s_star for v in range(ext.n)]
    for ray in rays:
        breakpoint_envelope(ext, ray)
    classify_network(ext)
    classify_region(ext)
    assert ext.base_rung is base
    assert base._res.residual == residual
    assert list(base.problem.capacities) == capacities
    assert base.result.source_side().tolist() == mask
    assert base.value == 0


def test_concurrent_callers_on_one_graph_agree():
    """More threads than cores, switching often, race to build the base
    rung and bank the plateau of one cold ``G*``: every result equals the
    single-threaded one on a fresh graph."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(8):
            g, in_rates, out_rates, rays = random_network(seed)
            calls = {"classify": classify_network,
                     "envelope": lambda ext: breakpoint_envelope(ext, rays[1])}
            expected = {name: facts(call(build_extended_graph(g, in_rates, out_rates)))
                        for name, call in calls.items()}
            ext = build_extended_graph(g, in_rates, out_rates)  # cold bank
            names = sorted(calls) * 3
            barrier = threading.Barrier(len(names))
            got, errors = [], []

            def run(name):
                try:
                    barrier.wait()
                    for _ in range(3):
                        got.append((name, facts(calls[name](ext))))
                except BaseException as exc:  # surfaced below
                    errors.append(exc)
                    raise

            threads = [threading.Thread(target=run, args=(name,)) for name in names]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors
            assert len(got) == 3 * len(names)
            for name, result in got:
                assert result == expected[name], (seed, name)
    finally:
        sys.setswitchinterval(interval)
