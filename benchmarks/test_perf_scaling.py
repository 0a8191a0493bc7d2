"""Scaling benchmarks: how the hot paths grow with problem size.

Complements ``test_perf_engine.py`` (fixed-size hot paths) with size
sweeps, so complexity regressions (an accidental O(n²) in the step loop,
a solver losing its unit-capacity advantage) show up as super-linear jumps
between the parametrized cases.
"""

import numpy as np
import pytest

from repro.core import HalfEdges, SimulationConfig, Simulator, lgg_select_fast
from repro.core.packet_engine import PacketSimulator
from repro.flow import max_flow
from repro.flow.cut_enum import enumerate_min_cuts
from repro.flow.distributed_pr import distributed_push_relabel
from repro.flow.lp import lp_max_flow
from repro.flow.residual import FlowProblem
from repro.graphs import generators as gen
from repro.network import NetworkSpec


def grid_spec(side):
    g = gen.grid(side, side)
    return NetworkSpec.classical(g, {0: 1}, {g.n - 1: 2})


class TestLGGStepScaling:
    @pytest.mark.parametrize("side", [10, 20, 40])
    def test_fast_step(self, side, benchmark):
        g = gen.grid(side, side)
        half = HalfEdges.from_graph(g)
        rng = np.random.default_rng(0)
        q = rng.integers(0, 20, size=g.n).astype(np.int64)
        benchmark(lgg_select_fast, half, q, q)


class TestEngineScaling:
    @pytest.mark.parametrize("side", [8, 16])
    def test_engine_500_steps(self, side, benchmark):
        spec = grid_spec(side)

        def run():
            sim = Simulator(spec, config=SimulationConfig(horizon=500, seed=0))
            sim.run()

        benchmark.pedantic(run, rounds=1, iterations=1)

    def test_packet_engine_overhead(self, benchmark):
        """Packet bookkeeping cost relative to the array engine."""
        spec = grid_spec(8)

        def run():
            sim = PacketSimulator(spec, config=SimulationConfig(horizon=500, seed=0))
            sim.run()

        benchmark.pedantic(run, rounds=1, iterations=1)

    def test_ensemble_16_replicas_500_steps(self, benchmark):
        """Vectorized replicas: compare against 16x the scalar 500-step run."""
        from repro.core.ensemble import EnsembleSimulator

        spec = grid_spec(8)

        def run():
            return EnsembleSimulator(spec, replicas=16, seed=0).run(500)

        res = benchmark.pedantic(run, rounds=1, iterations=1)
        assert res.replicas == 16


class TestFlowScaling:
    def _problem(self, side):
        spec = grid_spec(side)
        return FlowProblem.from_extended(spec.extended())

    @pytest.mark.parametrize("side", [10, 20])
    def test_dinic(self, side, benchmark):
        p = self._problem(side)
        benchmark(max_flow, p)

    @pytest.mark.parametrize("side", [10, 20])
    def test_lp_highs(self, side, benchmark):
        p = self._problem(side)
        benchmark(lp_max_flow, p)

    def test_distributed_pr_grid10(self, benchmark):
        p = self._problem(10)
        run = benchmark.pedantic(distributed_push_relabel, args=(p,),
                                 rounds=1, iterations=1)
        assert run.converged

    def test_cut_enumeration_chain(self, benchmark):
        # 12 serial bottlenecks -> 12 min cuts; enumeration must stay fast
        arcs = [(i, i + 1, 1) for i in range(12)]
        p = FlowProblem(n=13, tails=[a for a, _, _ in arcs],
                        heads=[b for _, b, _ in arcs],
                        capacities=[c for _, _, c in arcs], source=0, sink=12)
        fam = benchmark(enumerate_min_cuts, p)
        assert len(fam) == 12
