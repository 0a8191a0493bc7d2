"""Exact region boundaries: one envelope per ray vs. ε-probes per point.

The workload is the one e03/e17/e23 actually run: a region map resolves
every instance at a *grid of load scales* along its injection ray —
"is λ·(in rates) still routable?" for each sampled λ — plus the
stability margin at the nominal point.  The previous path answers each
sample with its own warm classify (:func:`classify_network` of the
scaled instance; nothing carries over between scales, and the margin
needs a separate ε-probe bisection).  The new path answers the *entire
ray* from one :func:`classify_region` call: the breakpoint envelope is
exact for every λ at once, so each sample is an O(log segments) lookup
and the margin falls out exactly, not ``tol``-bracketed.

Consistency is asserted unconditionally: at every sampled scale the
envelope's verdict (class and max-flow value) must equal the scaled
classify's, and the ε-probe margin must bracket the exact one from
below within ``TOL``.  Both paths run Dinic; the other solvers of
:data:`repro.flow.oracles.ALGORITHMS` each take the old path's place as
cold oracles (cold classify per scale, cold margin search), equality
only.  Only the Dinic case's wall-clock ratio is gated, on
``perf_asserts`` (off under ``--perf-smoke``, where shared CI runners
make timing flaky).

Results append to ``benchmarks/results/BENCH_region.json`` (gitignored
output, not an input).
"""

import json
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.flow.feasibility import NetworkClass, classify_network, classify_region
from repro.flow.oracles import (
    ALGORITHMS,
    classify_network_cold,
    max_unsaturation_margin_cold,
    max_unsaturation_margin_probe,
)
from repro.graphs import build_extended_graph
from repro.graphs import generators as gen

# (n, gnp_p, sources, sinks, rate_lo, rate_hi) — region maps sweep many
# instances; per-ray resolution cost is what the envelope path attacks
SPECS = [
    (60, 0.10, 6, 6, 2, 6),
    (90, 0.08, 8, 8, 3, 8),
    (120, 0.06, 8, 8, 3, 8),
]
REPEATS = 2
# the rate axis of the map: load scales λ sampled along each ray, the
# e03 "k-fold inflation" axis at map resolution
SCALES = [Fraction(k, 4) for k in range(1, 17)]
TOL = Fraction(1, 4096)
SPEEDUP_FLOOR = 3.0
RESULTS = Path(__file__).parent / "results" / "BENCH_region.json"


def _record(payload: dict) -> None:
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    history = []
    if RESULTS.exists():
        try:
            history = json.loads(RESULTS.read_text())
        except json.JSONDecodeError:
            history = []
    history.append(payload)
    RESULTS.write_text(json.dumps(history, indent=2) + "\n")


def _instances():
    """(graph, in_rates, out_rates) triples — both paths build their own
    extended graphs from these, so instance construction is charged to
    whichever pipeline needs it (the old one, once per scale)."""
    out = []
    for i, (n, p, n_src, n_snk, r_lo, r_hi) in enumerate(SPECS):
        for rep in range(REPEATS):
            seed = 7000 * i + rep
            rng = np.random.default_rng(seed)
            g = gen.random_gnp(n, p, seed, ensure_connected=True)
            nodes = rng.permutation(n)
            in_rates = {
                int(v): Fraction(int(rng.integers(r_lo, r_hi)),
                                 int(rng.integers(1, 3)))
                for v in nodes[:n_src]
            }
            out_rates = {
                int(v): Fraction(int(rng.integers(r_lo + 1, r_hi + 2)))
                for v in nodes[n_src:n_src + n_snk]
            }
            out.append((g, in_rates, out_rates))
    return out


class TestRegionEnvelopeSpeedup:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_envelope_beats_probe_path_3x(self, algorithm, benchmark,
                                          timed_mean, perf_asserts):
        instances = _instances()
        if algorithm == "dinic":
            classify, margin_of = classify_network, max_unsaturation_margin_probe
        else:  # another solver: the cold oracles, equality only
            classify = partial(classify_network_cold, algorithm=algorithm)
            margin_of = partial(max_unsaturation_margin_cold, algorithm=algorithm)

        # warm-up: let both paths touch their code once, off the clock
        g0, in0, out0 = instances[0]
        classify_region(build_extended_graph(g0, in0, out0))
        classify(build_extended_graph(g0, in0, out0))
        margin_of(build_extended_graph(g0, in0, out0), tol=TOL)

        # -- old path: one warm classify per sampled scale, ε-probe margin
        probe_rows, probe_margins = [], []
        t0 = time.perf_counter()
        for g, in_rates, out_rates in instances:
            row = []
            for s in SCALES:
                scaled = build_extended_graph(
                    g, {v: s * r for v, r in in_rates.items()}, out_rates)
                rep = classify(scaled)
                row.append((rep.network_class, rep.max_flow_value))
            probe_rows.append(row)
            probe_margins.append(margin_of(
                build_extended_graph(g, in_rates, out_rates), tol=TOL))
        probe_s = time.perf_counter() - t0

        # -- new path: one parametric solve per ray, lookups per scale
        reports = []

        def envelope_pass():
            reports.clear()
            for g, in_rates, out_rates in instances:
                report = classify_region(
                    build_extended_graph(g, in_rates, out_rates))
                env = report.envelope
                row = [(NetworkClass.UNSATURATED if s < env.lambda_star
                        else NetworkClass.SATURATED if s == env.lambda_star
                        else NetworkClass.INFEASIBLE,
                        env.value_at(s)) for s in SCALES]
                reports.append((report, row))
            return reports

        benchmark.pedantic(envelope_pass, rounds=1, iterations=1)

        # correctness is never timing-gated: every sampled verdict must
        # match, and the bisection bracket must contain the exact margin
        for (report, row), old_row, margin in zip(reports, probe_rows,
                                                  probe_margins):
            assert row == old_row
            if margin >= 2**20:
                assert report.margin >= 2**20  # probe bailed at its cap
            else:
                assert margin <= report.margin < margin + TOL
        envelope_s = timed_mean()
        if algorithm != "dinic" or envelope_s is None:
            return  # the old path on another solver's cold oracles

        speedup = probe_s / envelope_s if envelope_s > 0 else float("inf")
        _record({
            "bench": "region_envelope",
            "algorithm": algorithm,
            "instances": len(instances),
            "scales_per_ray": len(SCALES),
            "tol": str(TOL),
            "probe_s": round(probe_s, 4),
            "envelope_s": round(envelope_s, 4),
            "speedup": round(speedup, 2),
            "perf_asserts": perf_asserts,
        })
        print(f"\n[region:{algorithm}] probe {probe_s:.3f}s  "
              f"envelope {envelope_s:.3f}s  speedup {speedup:.2f}x over "
              f"{len(instances)} rays x {len(SCALES)} scales")

        if perf_asserts:
            assert speedup >= SPEEDUP_FLOOR, (
                f"{algorithm}: envelope path only {speedup:.2f}x faster "
                f"(probe {probe_s:.3f}s, envelope {envelope_s:.3f}s); floor "
                f"is {SPEEDUP_FLOOR}x"
            )
