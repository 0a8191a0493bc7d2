"""The min-cut source side handed over by the Dinic kernel's last BFS.

When the phase loop ends because the sink is unreachable, the labelled
set of that BFS is exactly the set of nodes residually reachable from the
source, so :meth:`FlowResult.source_side` reads it instead of traversing
again.  Every case below checks the handed-over mask against a fresh
:meth:`Residual.reachable_from` traversal, and that anything which moves
flow drops it; across whole envelopes, also against the source side of a
cold solve by each oracle solver.
"""

from fractions import Fraction

import pytest

import repro.flow.warmstart as warmstart_module
from repro.flow import ParametricMaxFlow, breakpoint_envelope, min_cut, source_arc_updates
from repro.flow.dinic import augment_residual, dinic
from repro.flow.oracles import ALGORITHMS
from repro.flow.residual import FlowProblem
from repro.graphs import build_extended_graph
from repro.graphs import generators as gen
from repro.sweep import random_instance_spec

IN_RATES = {0: 2, 5: 1}


def grid_ext(out_rates):
    return build_extended_graph(gen.grid(4, 4), IN_RATES, out_rates)


def closed_problem(ext):
    """``G*`` with every source arc closed (λ = 0)."""
    return FlowProblem.from_extended(ext, source_cap_override={v: 0 for v in IN_RATES})


def assert_mask_is_reachability(res):
    mask = res.source_mask
    assert mask is not None
    assert mask.dtype == bool and not mask.flags.writeable
    assert mask.tolist() == res.reachable_from(res.problem.source).tolist()


def warm_engine(out_rates=None):
    ext = grid_ext(out_rates or {15: 3})
    engine = ParametricMaxFlow(closed_problem(ext))
    return ext, engine


class TestHandoff:
    def test_cold_solve(self):
        result = dinic(FlowProblem.from_extended(grid_ext({15: 3})))
        assert_mask_is_reachability(result.residual)
        assert result.source_side() is result.residual.source_mask

    def test_warm_raise(self):
        ext, engine = warm_engine()
        engine.raise_arc_capacities(source_arc_updates(ext, IN_RATES))
        assert engine.value > 0
        assert_mask_is_reachability(engine.result.residual)

    def test_unchanged_raise_keeps_the_mask(self):
        ext, engine = warm_engine()
        engine.raise_arc_capacities(source_arc_updates(ext, IN_RATES))
        mask = engine.result.residual.source_mask
        engine.raise_arc_capacities(source_arc_updates(ext, IN_RATES))
        assert engine.result.residual.source_mask is mask
        assert_mask_is_reachability(engine.result.residual)

    def test_fork(self):
        ext, engine = warm_engine()
        engine.raise_arc_capacities(source_arc_updates(ext, IN_RATES))
        clone = engine.fork()
        assert clone.result.residual.source_mask is engine.result.residual.source_mask
        assert_mask_is_reachability(clone.result.residual)

    @pytest.mark.parametrize("factor", [3, Fraction(2, 3)], ids=["int", "fraction"])
    def test_rescale(self, factor):
        ext, engine = warm_engine()
        engine.raise_arc_capacities(source_arc_updates(ext, IN_RATES))
        engine.rescale(factor)
        assert_mask_is_reachability(engine.result.residual)

    def test_target_stopped_raise_has_no_mask(self):
        ext, engine = warm_engine(out_rates={15: 3, 10: 3})
        target = sum(IN_RATES.values())
        engine.raise_arc_capacities(source_arc_updates(ext, IN_RATES), target_value=target)
        assert engine.value == target  # reached, so the final BFS was skipped
        res = engine.result.residual
        assert res.source_mask is None
        assert engine.result.source_side().tolist() == \
            res.reachable_from(res.problem.source).tolist()

    def test_push_drops_the_mask(self):
        res = dinic(FlowProblem.from_extended(grid_ext({15: 3}))).residual
        assert res.source_mask is not None
        arc = next(a for a, r in enumerate(res.residual) if r)
        res.push(arc, res.residual[arc])
        assert res.source_mask is None

    def test_min_cut_from_the_mask_equals_the_traversal_cut(self):
        result = dinic(FlowProblem.from_extended(grid_ext({15: 3, 10: 1})))
        from_mask = min_cut(result)
        result.residual.source_mask = None
        traversed = min_cut(result)
        assert from_mask.side.tolist() == traversed.side.tolist()
        assert (from_mask.arcs, from_mask.capacity) == (traversed.arcs, traversed.capacity)


@pytest.mark.parametrize("params", [
    {"family": "gnp", "n": 12, "p": 0.4},
    {"family": "geometric", "n": 14, "radius": 0.45},
    {"family": "ba", "n": 20},
    {"family": "ws", "n": 16},
], ids=lambda p: p["family"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_handed_mask_is_the_reachable_set(params, algorithm, monkeypatch):
    """Across whole envelopes, each kernel call either hands over the
    exact reachable set or — only when stopped at its target — none.  The
    reachable set is the source-minimal min-cut side, so a cold solve of
    the same capacities by any solver reaches the same nodes."""
    seen = {"masked": 0}

    def checking(res, **kwargs):
        out = augment_residual(res, **kwargs)
        if res.source_mask is None:
            assert kwargs.get("target_gain") is not None
        else:
            assert_mask_is_reachability(res)
            cold = ALGORITHMS[algorithm](res.problem)
            assert res.source_mask.tolist() == \
                cold.residual.reachable_from(res.problem.source).tolist()
            seen["masked"] += 1
        return out

    monkeypatch.setattr(warmstart_module, "augment_residual", checking)
    for seed in range(3):
        spec = random_instance_spec({"sources": 3, "sinks": 2, **params}, seed)
        breakpoint_envelope(spec.extended())
    assert seen["masked"] > 0
