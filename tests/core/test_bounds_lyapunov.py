"""Paper-bound constants and Lyapunov-identity tests."""


import pytest

import repro.obs as obs
from repro.core import SimulationConfig, Simulator, bounds, lyapunov, simulate_lgg
from repro.errors import InfeasibleNetworkError
from repro.flow import f_star
from repro.graphs import generators as gen
from repro.network import NetworkSpec


def unsaturated_spec():
    # two disjoint 3-hop paths, arrival 1: margin ~1 -> comfortably unsaturated
    g, s, d = gen.parallel_paths(2, 3)
    return NetworkSpec.classical(g, {s: 1}, {d: 2})


class TestBoundConstants:
    def test_property1_bound_formula(self):
        spec = unsaturated_spec()
        n = spec.n
        delta = spec.graph.max_degree()
        assert bounds.property1_bound(spec) == 5 * n * delta * delta

    def test_generalized_growth_bound_formula(self):
        spec = NetworkSpec.generalized(gen.path(4), {0: 2}, {3: 3}, retention=2)
        n, delta = 4, 2
        sd = 2
        out_max = 3
        expected = 2 * sd * (2 + out_max) * out_max + delta**2 * (3 * n - 2 * sd) + 4 * sd * delta * 2
        assert bounds.generalized_growth_bound(spec) == expected

    def test_paper_epsilon_positive_for_unsaturated(self):
        eps = bounds.paper_epsilon(unsaturated_spec())
        assert eps > 0

    def test_paper_epsilon_raises_for_saturated(self):
        spec = NetworkSpec.classical(gen.path(4), {0: 1}, {3: 1})
        with pytest.raises(InfeasibleNetworkError):
            bounds.paper_epsilon(spec)

    def test_compute_bounds_consistency(self):
        spec = unsaturated_spec()
        b = bounds.compute_bounds(spec)
        assert b.growth_bound == bounds.property1_bound(spec)
        assert b.y == (5 * b.n * b.f_star / b.epsilon + 3 * b.n) * b.delta**2
        assert b.decrease_threshold == b.n * b.y**2
        assert b.lemma1_cap == b.decrease_threshold + b.growth_bound
        assert b.f_star >= 1

    def test_compute_bounds_is_one_cold_solve(self):
        spec = unsaturated_spec()
        prev = obs.configure(metrics=True)
        try:
            counter = obs.get_registry().counter(
                "repro_flow_solves_total", "", ("algorithm",))

            def total():
                return sum(inst.value for _labels, inst in counter._series())

            before = total()
            b = bounds.compute_bounds(spec)
            assert total() - before == 1  # ε and f* share one envelope
        finally:
            obs.configure(**prev)
        assert b.f_star == f_star(spec.extended())


class TestLyapunovIdentities:
    def run_recorded(self, spec, horizon=60, seed=0, **kw):
        cfg = SimulationConfig(horizon=horizon, seed=seed, record_events=True,
                               record_queues=True, **kw)
        sim = Simulator(spec, config=cfg)
        sim.run()
        return sim

    def test_potential_identity_exact(self):
        sim = self.run_recorded(unsaturated_spec())
        qh = sim.trajectory.queue_history
        for qb, qa in zip(qh, qh[1:]):
            assert lyapunov.potential_identity_residual(qb, qa) == 0

    def test_delta_snapshots_vs_events(self):
        """Eq. (3): the event-level decomposition equals the snapshot δ_t."""
        sim = self.run_recorded(unsaturated_spec(), horizon=80, seed=3)
        qh = sim.trajectory.queue_history
        for ev, qb, qa in zip(sim.events, qh, qh[1:]):
            assert (ev.q_start == qb).all()
            assert lyapunov.delta_from_events(ev) == lyapunov.delta_from_snapshots(qb, qa)

    def test_delta_events_with_losses(self):
        from repro.loss import BernoulliLoss

        sim = self.run_recorded(unsaturated_spec(), horizon=80, seed=4,
                                losses=BernoulliLoss(0.4))
        qh = sim.trajectory.queue_history
        for ev, qb, qa in zip(sim.events, qh, qh[1:]):
            assert lyapunov.delta_from_events(ev) == lyapunov.delta_from_snapshots(qb, qa)

    def test_drift_series_matches_trajectory(self):
        sim = self.run_recorded(unsaturated_spec(), horizon=50, seed=1)
        records = lyapunov.drift_series(sim.events)
        deltas = sim.trajectory.potential_deltas()
        for rec in records:
            assert rec.potential_change == deltas[rec.t]
            assert rec.potential_change == 2 * rec.delta + rec.second_moment

    def test_property1_bound_holds_empirically(self):
        """Max observed P_{t+1}-P_t stays below 5nΔ² on an unsaturated net."""
        spec = unsaturated_spec()
        res = simulate_lgg(spec, horizon=500, seed=0)
        cap = bounds.property1_bound(spec)
        assert int(res.trajectory.potential_deltas().max()) <= cap
