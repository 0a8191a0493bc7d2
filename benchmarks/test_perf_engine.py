"""Performance benchmarks of the hot paths (not tied to a paper artifact).

These track the throughput of the two LGG implementations (the vectorized
step must beat the per-node reference), the full engine step, and the
three max-flow solvers, so regressions in the substrates are visible.
"""

import numpy as np
import pytest

from repro.core import (
    HalfEdges,
    LGGPolicy,
    SimulationConfig,
    Simulator,
    lgg_select_fast,
    lgg_select_reference,
)
from repro.flow.oracles import ALGORITHMS
from repro.flow.residual import FlowProblem
from repro.graphs import generators as gen
from repro.network import NetworkSpec


def _grid_workload(side=20):
    g = gen.grid(side, side)
    n = g.n
    spec = NetworkSpec.classical(
        g, {0: 1, side - 1: 1}, {n - 1: 2, n - side: 2}
    )
    rng = np.random.default_rng(0)
    queues = rng.integers(0, 20, size=n).astype(np.int64)
    return g, spec, queues


class TestLGGStep:
    def test_lgg_fast_step(self, benchmark):
        g, _, queues = _grid_workload()
        half = HalfEdges.from_graph(g)
        benchmark(lgg_select_fast, half, queues, queues)

    def test_lgg_reference_step(self, benchmark):
        g, _, queues = _grid_workload()
        benchmark(lgg_select_reference, g, queues, queues)


class TestEngine:
    def test_engine_1000_steps_grid20(self, benchmark):
        _, spec, _ = _grid_workload()

        def run():
            sim = Simulator(spec, config=SimulationConfig(horizon=1000, seed=0))
            return sim.run()

        result = benchmark.pedantic(run, rounds=1, iterations=1)
        # NOTE: 1000 steps is inside the gradient build-up transient of a
        # 20x20 grid (LGG needs queue heights ~ O(diameter) before steady
        # delivery; see EXPERIMENTS.md), so we check conservation, not the
        # stability verdict, in this pure-performance bench.
        result.trajectory.check_conservation()

    def test_engine_reference_policy_200_steps(self, benchmark):
        _, spec, _ = _grid_workload()

        def run():
            sim = Simulator(
                spec,
                policy=LGGPolicy(use_reference=True),
                config=SimulationConfig(horizon=200, seed=0),
            )
            return sim.run()

        benchmark.pedantic(run, rounds=1, iterations=1)


class TestMaxFlowSolvers:
    def _instance(self):
        g = gen.grid(15, 15)
        spec = NetworkSpec.classical(g, {0: 2}, {g.n - 1: 4})
        return FlowProblem.from_extended(spec.extended())

    @pytest.mark.parametrize("algo", ["dinic", "edmonds_karp", "push_relabel"])
    def test_solver(self, algo, benchmark):
        p = self._instance()
        result = benchmark(ALGORITHMS[algo], p)
        assert result.value == 2
