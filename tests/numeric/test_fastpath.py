"""Differential matrix for the exact integer fast paths.

Two fast paths share the ``repro.numeric`` contract "bit-identical or
decline": the integer LGG kernel (:mod:`repro.core.fastpath`, auto-engaged
by the scalar and batched engines) and the scaled-integer parametric
ladder behind :func:`repro.flow.classify_network`,
:func:`repro.flow.breakpoint_envelope` and :func:`repro.flow.classify_region`.  Both keep their slow
twin alive as the oracle — the stage pipeline (``numeric_fastpath=False``)
and the pure-``Fraction`` :func:`classify_network_cold` — and this module
asserts exact equality across randomized instances:

* LGG: random connected graphs x integer rates x both deterministic
  tie-breaks x optional initial queues x optional queue recording, scalar
  and batched backends, full trajectory equality;
* flow: all-integral and mixed-denominator capacity specs x every
  oracle solver, full report equality against the cold classifier
  (envelopes: λ* and every segment checked by independent cold solves of
  that solver), with the engagement
  counters asserting *zero* Fraction fallbacks on scalable specs and a
  recorded fallback (still exact) when a pathological denominator trips
  the magnitude guard.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.engine import SimulationConfig, Simulator
from repro.core.ensemble import EnsembleSimulator
from repro.core.tiebreak import TieBreak
from repro.errors import SimulationError
from repro.exp.workloads import bottleneck_spec
from repro.flow import breakpoint_envelope, classify_region
from repro.flow.feasibility import _exact_problem, classify_network
from repro.flow.oracles import ALGORITHMS, classify_network_cold
from repro.graphs import build_extended_graph
from repro.graphs import generators as gen
from repro.network import NetworkSpec
from repro.numeric import (
    fastpath_steps_total,
    fraction_fallbacks_total,
    reset_counters,
)
from repro.obs.metrics import get_registry

DETERMINISTIC_TIEBREAKS = [TieBreak.QUEUE_THEN_ID, TieBreak.QUEUE_THEN_REVERSED_ID]


def traj_facts(t):
    return (
        tuple(t.potentials),
        tuple(t.total_queued),
        tuple(t.max_queues),
        tuple(t.injected),
        tuple(t.transmitted),
        tuple(t.lost),
        tuple(t.delivered),
    )


def report_facts(report):
    # MinCut's dataclass __eq__ trips on the numpy side mask; compare fields
    return (
        report.network_class,
        report.arrival_rate,
        report.max_flow_value,
        report.f_star,
        report.certified_epsilon,
        report.cut_kind,
        report.unique_min_cut,
        tuple(report.min_cut.arcs),
        report.min_cut.capacity,
        tuple(report.min_cut.side.tolist()),
    )


# ----------------------------------------------------------------------
# LGG kernel vs stage pipeline
# ----------------------------------------------------------------------
@st.composite
def lgg_instances(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(4, 12))
    p = draw(st.floats(0.25, 0.7))
    g = gen.random_gnp(n, p, seed=seed, ensure_connected=True)
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(n)
    n_src = draw(st.integers(1, 3))
    n_snk = draw(st.integers(1, 3))
    in_rates = {int(v): int(rng.integers(1, 4)) for v in nodes[:n_src]}
    out_rates = {int(v): int(rng.integers(1, 4)) for v in nodes[n_src:n_src + n_snk]}
    spec = NetworkSpec.classical(g, in_rates, out_rates)
    tiebreak = draw(st.sampled_from(DETERMINISTIC_TIEBREAKS))
    # assess_stability needs >= 8 trajectory samples, so horizon >= 7
    horizon = draw(st.integers(8, 120))
    q0 = rng.integers(0, 4, size=n).astype(np.int64) if draw(st.booleans()) else None
    record = draw(st.booleans())
    return spec, tiebreak, horizon, q0, record


class TestKernelVsPipeline:
    @given(lgg_instances())
    @settings(max_examples=40, deadline=None)
    def test_scalar_backend_bit_identical(self, inst):
        spec, tiebreak, horizon, q0, record = inst
        reset_counters()
        fast = Simulator(
            spec,
            config=SimulationConfig(horizon=horizon, tiebreak=tiebreak,
                                    record_queues=record),
            initial_queues=q0,
        ).run()
        assert fastpath_steps_total() == horizon  # the kernel, not the pipeline
        slow = Simulator(
            spec,
            config=SimulationConfig(horizon=horizon, tiebreak=tiebreak,
                                    record_queues=record, numeric_fastpath=False),
            initial_queues=q0,
        ).run()
        assert fastpath_steps_total() == horizon  # forced pipeline adds nothing
        assert traj_facts(fast.trajectory) == traj_facts(slow.trajectory)
        assert (fast.final_queues == slow.final_queues).all()
        assert fast.verdict == slow.verdict
        if record:
            fq, sq = fast.trajectory.queue_history, slow.trajectory.queue_history
            assert len(fq) == len(sq)
            assert all((a == b).all() for a, b in zip(fq, sq))

    @given(lgg_instances())
    @settings(max_examples=15, deadline=None)
    def test_batched_backend_bit_identical(self, inst):
        spec, tiebreak, horizon, q0, record = inst
        replicas = 3
        fast = EnsembleSimulator(
            spec, replicas, seed=0, initial_queues=q0,
            config=SimulationConfig(horizon=horizon, tiebreak=tiebreak,
                                    record_queues=record),
        ).run()
        slow = EnsembleSimulator(
            spec, replicas, seed=0, initial_queues=q0,
            config=SimulationConfig(horizon=horizon, tiebreak=tiebreak,
                                    record_queues=record, numeric_fastpath=False),
        ).run()
        for name in ("total_queued", "potentials", "max_queues", "injected_series",
                     "transmitted_series", "lost_series", "delivered_series",
                     "final_queues"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert a.shape == b.shape and a.dtype == b.dtype and (a == b).all(), name
        assert fast.verdicts == slow.verdicts
        if record:
            assert (fast.queue_history == slow.queue_history).all()

    def test_random_tiebreak_stays_on_pipeline(self):
        spec = bottleneck_spec(3)
        reset_counters()
        Simulator(spec, config=SimulationConfig(
            horizon=30, seed=5, tiebreak=TieBreak.QUEUE_THEN_RANDOM,
        )).run()
        assert fastpath_steps_total() == 0

    def test_require_mode_raises_when_ineligible(self):
        spec = bottleneck_spec(3)
        cfg = SimulationConfig(horizon=10, numeric_fastpath=True,
                               activation_prob=0.5)
        with pytest.raises(SimulationError, match="not kernel-eligible"):
            Simulator(spec, config=cfg).run()

    def test_counters_mirror_into_metrics_registry(self):
        spec = bottleneck_spec(2)
        prev = obs.configure(metrics=True)
        try:
            before = get_registry().counter("repro_core_fastpath_steps_total").value
            Simulator(spec, config=SimulationConfig(horizon=25)).run()
            after = get_registry().counter("repro_core_fastpath_steps_total").value
            assert after - before == 25
        finally:
            obs.configure(**prev)


# ----------------------------------------------------------------------
# scaled-integer feasibility vs the Fraction oracle
# ----------------------------------------------------------------------
def _flow_instance(seed: int, denominators):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 16))
    g = gen.random_gnp(n, 0.4, seed=seed, ensure_connected=True)
    nodes = rng.permutation(n)
    dens = list(denominators)
    in_rates = {
        int(v): Fraction(int(rng.integers(1, 5)), dens[i % len(dens)])
        for i, v in enumerate(nodes[:3])
    }
    out_rates = {
        int(v): Fraction(int(rng.integers(1, 6)), dens[(i + 1) % len(dens)])
        for i, v in enumerate(nodes[3:6])
    }
    return build_extended_graph(g, in_rates, out_rates)


def _cold_value_at(ext, lam, algorithm):
    caps = {v: lam * Fraction(r) for v, r in ext.in_rates.items()}
    return ALGORITHMS[algorithm](_exact_problem(ext, source_cap_override=caps)).value


def assert_envelope_matches_cold(ext, env, algorithm):
    """λ* is the exact frontier and every segment the exact max flow,
    both by independent cold ``Fraction`` solves."""
    arrival = sum((Fraction(r) for r in ext.in_rates.values()), start=Fraction(0))
    lam = env.lambda_star
    assert _cold_value_at(ext, lam, algorithm) == lam * arrival
    over = lam + Fraction(1, 2**40)
    assert _cold_value_at(ext, over, algorithm) < over * arrival
    for seg in env.segments:
        mid = seg.lo + 1 if seg.hi is None else (seg.lo + seg.hi) / 2
        assert _cold_value_at(ext, mid, algorithm) == seg.value_at(mid)


def region_facts(report):
    return (report.network_class, report.arrival_rate,
            report.max_flow_value, report.f_star)


class TestClassifyVsFractionOracle:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("denominators,label", [
        ((1,), "integral"),
        ((2, 3, 5), "mixed-denominator"),
    ])
    def test_scaled_path_matches_oracle_no_fallback(
        self, algorithm, denominators, label
    ):
        for seed in (0, 1, 2):
            ext = _flow_instance(seed, denominators)
            reset_counters()
            warm = classify_network(ext)
            assert fraction_fallbacks_total() == 0, (
                f"{label} spec must stay on the integer path"
            )
            cold = classify_network_cold(ext, algorithm)
            assert report_facts(warm) == report_facts(cold)

            env = breakpoint_envelope(ext)
            region = classify_region(ext)
            assert fraction_fallbacks_total() == 0, (
                f"{label} envelope must stay on the integer path"
            )
            assert_envelope_matches_cold(ext, env, algorithm)
            assert region_facts(region) == region_facts(cold)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("in_rates", [{}, {0: 0}], ids=["none", "zero"])
    def test_no_injections_matches_oracle(self, algorithm, in_rates):
        # no positive source arc: the ladder has no parametric arcs to fit
        ext = build_extended_graph(gen.path(3), in_rates, {2: 1})
        reset_counters()
        warm = classify_network(ext)
        assert fraction_fallbacks_total() == 0
        cold = classify_network_cold(ext, algorithm)
        assert report_facts(warm) == report_facts(cold)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_magnitude_guard_falls_back_exactly(self, algorithm):
        # a denominator past INT_SCALE_LIMIT defeats common-denominator
        # scaling; the classifier must decline, count it, and stay exact
        rng = np.random.default_rng(7)
        g = gen.random_gnp(10, 0.5, seed=7, ensure_connected=True)
        nodes = rng.permutation(10)
        big = (1 << 70) + 1
        in_rates = {int(nodes[0]): Fraction(1, big), int(nodes[1]): 2}
        out_rates = {int(nodes[2]): 3}
        ext = build_extended_graph(g, in_rates, out_rates)
        reset_counters()
        warm = classify_network(ext)
        assert fraction_fallbacks_total() == 1
        cold = classify_network_cold(ext, algorithm)
        assert report_facts(warm) == report_facts(cold)

        reset_counters()
        env = breakpoint_envelope(ext)
        assert fraction_fallbacks_total() == 1
        assert_envelope_matches_cold(ext, env, algorithm)
        reset_counters()
        region = classify_region(ext)
        assert fraction_fallbacks_total() == 1
        assert region_facts(region) == region_facts(cold)
