"""``lgg-sim``: LGG simulated at length, in-process.

A job runs five parts in turn, each sized to a comparable share of its
wall time:

* ``kernel_memo`` — the e03 bottleneck sweep (integer kernel, memo hits);
* ``kernel`` — grid 20x20, deterministic (integer kernel, no memo hits);
* ``scalar`` — ba-200 with ``BernoulliLoss`` (scalar stage pipeline);
* ``batched`` — ba-200 as an ``EnsembleSimulator`` with R=32 and loss
  (batched stage pipeline);
* ``interference`` — grid 10x10 with ``GreedyMatchingInterference``
  (a feature only the scalar pipeline has).

Core does all the work; flow and serve do none.  A step of an ensemble
counts once per replica.

The topologies are fixed; ``--seed`` drives the loss and tie-break
streams of every job.  Which nodes inject and which drain changes the
cost of a step several-fold, so drawing them per seed would swamp the
run-to-run spread with input variation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from harness import (Outcome, ReferenceClock, Spans, delta, host_normalized,
                     registry_enabled, registry_snapshot)

from repro.core import EnsembleResult, EnsembleSimulator, SimulationConfig, Simulator
from repro.exp.workloads import bottleneck_spec
from repro.graphs import generators
from repro.interference import GreedyMatchingInterference
from repro.loss import BernoulliLoss
from repro.network import NetworkSpec

LOSS_P = 0.05
REPLICAS = 32
#: Steps per part in one job, each about 40 ms on a 2-core x86 VM.
HORIZON = {"kernel_memo": 400, "kernel": 230, "scalar": 140,
           "batched": 14, "interference": 160}
PARTS = tuple(HORIZON)
#: Latency is per job; the tail is fixed at p90, which a run of the
#: configured length supports.
TAIL_Q = 0.9
#: Jobs are generated for this many per measured second, well above what
#: one core sustains, so a run ends on time, not on inputs.
JOBS_PER_SECOND = 10
#: Steps of the differential checks run after the timed interval.
CHECK_STEPS = 100


@dataclass
class Inputs:
    e03: list          # the e03 sweep's eight bottleneck specs
    grid20: NetworkSpec
    ba200: NetworkSpec
    grid10: NetworkSpec
    jobs: list         # one seed per job


def make_inputs(seed: int, seconds: float) -> Inputs:
    grid20 = NetworkSpec.classical(generators.grid(20, 20), {0: 1, 19: 1},
                                   {380: 2, 399: 2})
    ba = generators.barabasi_albert(200, 2, seed=200)
    ba200 = NetworkSpec.classical(ba, {199: 1, 198: 1, 197: 1}, {0: 2, 1: 2})
    grid10 = NetworkSpec.classical(generators.grid(10, 10), {0: 1}, {99: 2})
    e03 = [bottleneck_spec(k, width=8, bridge=4) for k in range(1, 9)]
    rng = random.Random(f"lgg-sim:{seed}")
    count = max(1, int(seconds * JOBS_PER_SECOND))
    return Inputs(e03, grid20, ba200, grid10,
                  [rng.getrandbits(31) for _ in range(count)])


def fingerprint(inputs: Inputs) -> list:
    """What must match between two generations from one seed."""
    specs = [inputs.grid20, inputs.ba200, inputs.grid10, *inputs.e03]
    return [[sorted(s.graph.edges()), sorted(s.in_rates.items()),
             sorted(s.out_rates.items())] for s in specs] + [inputs.jobs]


def _run_part(inputs: Inputs, part: str, seed: int) -> tuple[int, list]:
    """One part of a job → (replica-steps advanced, results to check)."""
    steps = HORIZON[part]
    if part == "kernel_memo":
        results = [Simulator(spec, config=SimulationConfig(seed=seed)).run(steps)
                   for spec in inputs.e03]
        return steps * len(results), results
    if part == "kernel":
        sim = Simulator(inputs.grid20, config=SimulationConfig(seed=seed))
    elif part == "scalar":
        sim = Simulator(inputs.ba200, config=SimulationConfig(
            seed=seed, losses=BernoulliLoss(LOSS_P)))
    elif part == "interference":
        sim = Simulator(inputs.grid10, config=SimulationConfig(
            seed=seed, interference=GreedyMatchingInterference()))
    else:
        ens = EnsembleSimulator(inputs.ba200, REPLICAS, seed=seed,
                                config=SimulationConfig(losses=BernoulliLoss(LOSS_P)))
        return steps * REPLICAS, [ens.run(steps)]
    return steps, [sim.run(steps)]


def _simulate(inputs: Inputs, jobs: list, seconds: float, spans: Spans,
              host: ReferenceClock | None = None) -> dict:
    """Run jobs until ``seconds`` pass; with ``host``, time the reference
    after each job."""
    latencies: list[float] = []
    refs: list[float] = []
    steps_by_part = dict.fromkeys(PARTS, 0)
    seconds_by_part = dict.fromkeys(PARTS, 0.0)
    results: list = []
    clock = time.perf_counter
    t0 = clock()
    for seed in jobs:
        if clock() - t0 >= seconds:
            break
        start = clock()
        with spans.span("sim.job"):
            for part in PARTS:
                tick = clock()
                with spans.span("sim.part", part=part):
                    steps, out = _run_part(inputs, part, seed)
                seconds_by_part[part] += clock() - tick
                steps_by_part[part] += steps
                results.extend(out)
        latencies.append(clock() - start)
        if host is not None:
            refs.append(host.sample())
    return {"wall": clock() - t0, "latencies": latencies, "refs": refs,
            "results": results, "steps": steps_by_part, "seconds": seconds_by_part}


def _conserved(result) -> bool:
    """injected = delivered + queued + lost, per run or per replica."""
    if isinstance(result, EnsembleResult):
        queued = result.final_queues.sum(axis=1)
        return bool((result.injected == result.delivered + queued + result.lost).all())
    traj = result.trajectory
    return (traj.cumulative("injected") == traj.cumulative("delivered")
            + int(result.final_queues.sum()) + traj.cumulative("lost"))


def _check(run: dict, out: Outcome) -> None:
    for k, result in enumerate(run["results"]):
        out.attempted += 1
        if not _conserved(result):
            out.fail(f"run {k}: conservation violated")


def _differential_checks(inputs: Inputs, seed: int, out: Outcome) -> None:
    """One ensemble replica equals a scalar run with the same seed, and a
    kernel prefix equals the stage pipeline (``numeric_fastpath=False``)."""
    rng = random.Random(f"lgg-sim-check:{seed}")
    seeds = [rng.getrandbits(31) for _ in range(3)]
    ens = EnsembleSimulator(inputs.ba200, len(seeds), seeds=seeds,
                            config=SimulationConfig(losses=BernoulliLoss(LOSS_P)))
    batched = ens.run(CHECK_STEPS)
    for r, s in enumerate(seeds):
        out.attempted += 1
        scalar = Simulator(inputs.ba200, config=SimulationConfig(
            seed=s, losses=BernoulliLoss(LOSS_P))).run(CHECK_STEPS)
        if (batched.total_queued[:, r].tolist() != scalar.trajectory.total_queued
                or batched.final_queues[r].tolist() != scalar.final_queues.tolist()):
            out.fail(f"ensemble replica {r} differs from the scalar run (seed {s})")
    s = seeds[0]
    out.attempted += 1
    kernel = Simulator(inputs.grid20, config=SimulationConfig(seed=s)).run(CHECK_STEPS)
    pipeline = Simulator(inputs.grid20, config=SimulationConfig(
        seed=s, numeric_fastpath=False)).run(CHECK_STEPS)
    if (list(kernel.trajectory.potentials) != list(pipeline.trajectory.potentials)
            or kernel.final_queues.tolist() != pipeline.final_queues.tolist()):
        out.fail("integer kernel prefix differs from the stage pipeline")


def measure(inputs: Inputs, seconds: float, seed: int) -> Outcome:
    out = Outcome()
    host = ReferenceClock()
    run = _simulate(inputs, inputs.jobs, seconds, Spans(enabled=False), host)
    _check(run, out)
    _differential_checks(inputs, seed, out)
    out.end_to_end, raw = host_normalized(
        run["latencies"], run["refs"], sum(run["steps"].values()),
        run["wall"] - host.total, host, TAIL_Q)
    out.info.update(raw)
    out.info.update({"jobs": len(run["latencies"]),
                     "seconds_by_part": run["seconds"],
                     "exhausted_inputs": len(run["latencies"]) == len(inputs.jobs)})
    return out


def trace(inputs: Inputs, seconds: float, spans: Spans, seed: int, *,
          untraced_seconds: float = 0.0) -> Outcome:
    """The traced pass; with ``untraced_seconds`` an untraced pass over the
    same jobs first, for the tracing overhead."""
    out = Outcome()
    jobs = inputs.jobs
    plain = None
    if untraced_seconds > 0:
        plain = _simulate(inputs, jobs, untraced_seconds, Spans(enabled=False))
        _check(plain, out)
        # the traced pass repeats exactly the untraced pass's jobs
        jobs, seconds = jobs[:len(plain["latencies"])], float("inf")
    with registry_enabled():
        before = registry_snapshot()
        with spans.span("workload", workload="lgg-sim"):
            run = _simulate(inputs, jobs, seconds, spans)
        after = registry_snapshot()
    _check(run, out)
    _differential_checks(inputs, seed, out)

    def us_per_step(part: str) -> float:
        return 1e6 * run["seconds"][part] / max(1, run["steps"][part])

    out.layers = {
        "core.kernel_memo_us_per_step": us_per_step("kernel_memo"),
        "core.kernel_us_per_step": us_per_step("kernel"),
        "core.scalar_us_per_step": us_per_step("scalar"),
        "core.batched_us_per_replica_step": us_per_step("batched"),
        "core.interference_us_per_step": us_per_step("interference"),
        "core.fastpath_step_share":
            delta(after, before, "repro_core_fastpath_steps_total")
            / sum(run["steps"].values()),
    }
    if plain is not None:
        out.layers["obs.trace_overhead_ratio"] = run["wall"] / plain["wall"]
    out.info.update({"jobs": len(run["latencies"])})
    return out
