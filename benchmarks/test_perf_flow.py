"""Parametric warm-start flow engine: classify + margin speedup.

The claim: on a benchmark set of random S-D-networks, the warm-started
feasibility stack — :func:`classify_network` (one cold solve, then the
ε-probe and ``f*`` as parametric steps) plus
:func:`max_unsaturation_margin_probe` (bracket + bisection re-augmenting from
the last feasible residual, with banked min-cut certificates refuting
infeasible probes in O(1)) — beats the cold-solve twins
(:func:`classify_network_cold` / :func:`max_unsaturation_margin_cold`,
every probe a fresh cold Dinic solve) by >= 3x wall-clock.

The warm stack always runs Dinic.  Exact agreement of every verdict with
the cold twins is asserted unconditionally, with the twins run on every
solver in :data:`repro.flow.oracles.ALGORITHMS` — speed never buys away
correctness.  Only the Dinic case's wall-clock ratio is gated, on
``perf_asserts`` (off under ``--perf-smoke``, where shared CI runners
make timing flaky); the other solvers' cases check equality only.

Results append to ``benchmarks/results/BENCH_flow.json`` (gitignored
output, not an input).
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.flow.feasibility import classify_network
from repro.flow.oracles import (
    ALGORITHMS,
    classify_network_cold,
    max_unsaturation_margin_cold,
    max_unsaturation_margin_probe,
)
from repro.graphs import build_extended_graph
from repro.graphs import generators as gen

# (n, gnp_p, sources, sinks, rate_lo, rate_hi) — three sizes, three
# repeats each: big enough that solve time dominates instance set-up,
# small enough for CI
SPECS = [
    (60, 0.10, 6, 6, 2, 6),
    (90, 0.08, 8, 8, 3, 8),
    (120, 0.06, 8, 8, 3, 8),
]
REPEATS = 3
TOL = Fraction(1, 4096)
SPEEDUP_FLOOR = 3.0
RESULTS = Path(__file__).parent / "results" / "BENCH_flow.json"


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
    out = []
    for i, (n, p, n_src, n_snk, r_lo, r_hi) in enumerate(SPECS):
        for rep in range(REPEATS):
            seed = 1000 * i + rep
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
            out.append(build_extended_graph(g, in_rates, out_rates))
    return out


def _report_facts(report):
    return (
        report.network_class,
        report.arrival_rate,
        report.max_flow_value,
        report.f_star,
        report.certified_epsilon,
        report.cut_kind,
        report.unique_min_cut,
        tuple(report.min_cut.arcs),
    )


class TestWarmStartSpeedup:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_warm_beats_cold_3x(self, algorithm, benchmark, perf_asserts):
        exts = _instances()

        # warm-up: let both paths touch their code once, off the clock
        classify_network(exts[0])
        classify_network_cold(exts[0], algorithm=algorithm)

        cold_facts, cold_margins = [], []
        t0 = time.perf_counter()
        for ext in exts:
            cold_facts.append(
                _report_facts(classify_network_cold(ext, algorithm=algorithm))
            )
            cold_margins.append(
                max_unsaturation_margin_cold(ext, tol=TOL, algorithm=algorithm)
            )
        cold_s = time.perf_counter() - t0

        warm_facts, warm_margins = [], []

        def warm_pass():
            warm_facts.clear()
            warm_margins.clear()
            for ext in exts:
                warm_facts.append(
                    _report_facts(classify_network(ext))
                )
                warm_margins.append(
                    max_unsaturation_margin_probe(ext, tol=TOL)
                )

        benchmark.pedantic(warm_pass, rounds=1, iterations=1)
        warm_s = benchmark.stats["mean"]
        speedup = cold_s / warm_s if warm_s > 0 else float("inf")

        # correctness is never timing-gated: every verdict must be exact
        assert warm_facts == cold_facts
        assert warm_margins == cold_margins
        if algorithm != "dinic":
            return  # a cold twin on another solver: equality only

        _record({
            "bench": "flow_warmstart",
            "algorithm": algorithm,
            "instances": len(exts),
            "tol": str(TOL),
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "speedup": round(speedup, 2),
            "perf_asserts": perf_asserts,
        })
        print(f"\n[flow:{algorithm}] cold {cold_s:.3f}s  warm {warm_s:.3f}s  "
              f"speedup {speedup:.2f}x over {len(exts)} instances")

        if perf_asserts:
            assert speedup >= SPEEDUP_FLOOR, (
                f"{algorithm}: warm path only {speedup:.2f}x faster "
                f"(cold {cold_s:.3f}s, warm {warm_s:.3f}s); floor is "
                f"{SPEEDUP_FLOOR}x"
            )
