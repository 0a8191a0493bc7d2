"""``region-map``: exact stability regions mapped in-process, one thread.

Instances are the sweep layer's ``random_instance_spec`` scaled up (the
e17 recipe at gnp-60, gnp-150, geometric-120, ba-400 and ws-200, each
with 3 sources and 2 sinks), visited in a fixed family rotation so that
every seed carries the same mix.  Each instance gets
``FeasibilityCache.classify``, ``.region`` and ``.envelope`` on two
extra rays.  Every fourth instance repeats an earlier one as a fresh
but equal spec, so cache reads (which pay the key hash) run beside cache
writes.  Flow and cache do nearly all the work; there is no HTTP
and no simulation.

A *region point* is one exact λ* along one ray: the nominal ray of
``.region`` plus the two extra rays, three per instance.  Throughput is
in points and latency is per point (one ``.region`` or ``.envelope``
call).
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Optional

from harness import (Outcome, ReferenceClock, Spans, delta, host_normalized, median,
                     registry_enabled, registry_snapshot)

from repro.flow import breakpoint_envelope, classify_network, classify_region
from repro.network import NetworkSpec
from repro.sweep import FeasibilityCache, canonical_spec_key, random_instance_spec

FAMILIES = (("gnp", 60), ("gnp", 150), ("geometric", 120), ("ba", 400), ("ws", 200))
LABELS = tuple(f"{family}-{n}" for family, n in FAMILIES)
#: e17 draws gnp density and geometric radius per instance; they are
#: pinned at mid-range here so that every seed carries the same cost mix.
KNOBS = {"gnp": {"p": 0.4}, "geometric": {"radius": 0.45}}
#: Inputs are generated for this many instances per measured second, well
#: above what one core sustains, so a run ends on time, not on inputs.
INSTANCES_PER_SECOND = 12
#: The latency tail is fixed at p95 over per-point latencies, which a run
#: of the configured length supports.
TAIL_Q = 0.95
#: Fresh instances per family that the layer probes time directly.
PROBES_PER_FAMILY = 2


@dataclass
class Instance:
    label: str
    spec: NetworkSpec
    rays: tuple
    repeat_of: Optional[int]
    gen_seconds: float


def make_inputs(seed: int, seconds: float) -> list[Instance]:
    """Instances in blocks of four: three fresh ones in family rotation,
    then a repeat of an earlier instance, its family also in rotation."""
    rng = random.Random(f"region-map:{seed}")
    out: list[Instance] = []
    fresh: dict[str, list[int]] = {label: [] for label in LABELS}
    n_fresh = n_repeat = 0
    for i in range(max(4 * len(FAMILIES), int(seconds * INSTANCES_PER_SECOND))):
        if i % 4 == 3 and fresh[LABELS[n_repeat % len(FAMILIES)]]:
            label = LABELS[n_repeat % len(FAMILIES)]
            n_repeat += 1
            j = rng.choice(fresh[label])
            first = out[j]
            tick = time.perf_counter()
            spec = NetworkSpec.classical(first.spec.graph.copy(),
                                         dict(first.spec.in_rates),
                                         dict(first.spec.out_rates))
            out.append(Instance(label, spec, first.rays, j,
                                time.perf_counter() - tick))
            continue
        k = n_fresh % len(FAMILIES)
        n_fresh += 1
        family, n = FAMILIES[k]
        tick = time.perf_counter()
        spec = random_instance_spec(
            {"family": family, "n": n, "sources": 3, "sinks": 2, **KNOBS.get(family, {})},
            rng.getrandbits(31))
        gen = time.perf_counter() - tick
        sources = sorted(spec.in_rates)
        rays = tuple({v: rng.randint(1, 4) for v in sources} for _ in range(2))
        fresh[LABELS[k]].append(len(out))
        out.append(Instance(LABELS[k], spec, rays, None, gen))
    return out


def fingerprint(instances: list[Instance]) -> list:
    """What must match between two generations from one seed.  Reads the
    edge store directly: a canonical key would cache the CSR snapshot on
    each graph and take that cost out of the timed run."""
    return [(i.label, hashlib.sha256(repr(list(i.spec.graph.edges())).encode()).hexdigest(),
             sorted(i.spec.in_rates.items()), sorted(i.spec.out_rates.items()),
             i.rays, i.repeat_of) for i in instances]


def _map(instances: list[Instance], seconds: float, spans: Spans,
         host: ReferenceClock | None = None) -> dict:
    """Map instances through a fresh cache until ``seconds`` have passed;
    with ``host``, time the reference after each instance."""
    cache = FeasibilityCache()
    latencies: list[float] = []
    refs: list[float] = []
    hit_seconds: list[float] = []
    verdicts: list[tuple] = []
    clock = time.perf_counter
    t0 = clock()
    for inst in instances:
        if clock() - t0 >= seconds:
            break
        with spans.span("instance", family=inst.label):
            steps = [("cache.classify", cache.classify, (inst.spec,)),
                     ("cache.region", cache.region, (inst.spec,))]
            steps += [("cache.envelope", cache.envelope, (inst.spec, ray))
                      for ray in inst.rays]
            results = []
            for name, call, args in steps:
                hits = cache.hits
                tick = clock()
                with spans.span(name, family=inst.label):
                    results.append(call(*args))
                took = clock() - tick
                if name != "cache.classify":
                    latencies.append(took)
                if cache.hits > hits:
                    hit_seconds.append(took)
        verdicts.append((inst.label, results[0].network_class,
                         results[1].network_class))
        if host is not None:
            refs += [host.sample()] * (len(latencies) - len(refs))
    return {"wall": clock() - t0, "latencies": latencies, "refs": refs,
            "hit_seconds": hit_seconds,
            "verdicts": verdicts, "hits": cache.hits, "misses": cache.misses,
            "fresh": sum(1 for inst in instances[:len(verdicts)]
                         if inst.repeat_of is None)}


def _check(run: dict, out: Outcome) -> None:
    """The classify and region verdicts agree on every instance."""
    for k, (label, classified, region) in enumerate(run["verdicts"]):
        out.attempted += 1
        if classified != region:
            out.fail(f"instance {k} ({label}): classify says {classified.value}, "
                     f"region says {region.value}")


def measure(instances: list[Instance], seconds: float, seed: int) -> Outcome:
    out = Outcome()
    host = ReferenceClock()
    run = _map(instances, seconds, Spans(enabled=False), host)
    _check(run, out)
    out.end_to_end, raw = host_normalized(
        run["latencies"], run["refs"], len(run["latencies"]),
        run["wall"] - host.total, host, TAIL_Q)
    out.info.update(raw)
    out.info.update({"instances": len(run["verdicts"]),
                     "points": len(run["latencies"]),
                     "cache_hits": run["hits"],
                     "exhausted_inputs": len(run["verdicts"]) == len(instances)})
    return out


def _time(call, *args) -> float:
    tick = time.perf_counter()
    call(*args)
    return time.perf_counter() - tick


def _probe_layers(instances: list[Instance], spans: Spans) -> dict:
    """Graph, key and flow costs per family, each call timed on its own."""
    layers: dict[str, float] = {}
    csr, extended = [], []
    for label in LABELS:
        fresh = [i for i in instances
                 if i.label == label and i.repeat_of is None][:PROBES_PER_FAMILY]
        key, cn, cr, env = [], [], [], []
        for inst in fresh:
            spec = inst.spec
            copy = NetworkSpec.classical(spec.graph.copy(), dict(spec.in_rates),
                                         dict(spec.out_rates))
            with spans.span("cache.key", family=label):
                key.append(_time(canonical_spec_key, copy))
            with spans.span("graphs.csr", family=label):
                csr.append(_time(spec.graph.copy().to_csr))
            with spans.span("graphs.extended", family=label):
                extended.append(_time(spec.extended))
            with spans.span("flow.classify_network", family=label):
                cn.append(_time(classify_network, spec.extended()))
            with spans.span("flow.classify_region", family=label):
                cr.append(_time(classify_region, spec.extended()))
            with spans.span("flow.envelope", family=label):
                env.append(_time(breakpoint_envelope, spec.extended(), inst.rays[0]))
        layers[f"cache.key_us.{label}"] = 1e6 * median(key)
        layers[f"graphs.instance_ms.{label}"] = 1e3 * median(
            i.gen_seconds for i in instances
            if i.label == label and i.repeat_of is None)
        layers[f"flow.classify_network_ms.{label}"] = 1e3 * median(cn)
        layers[f"flow.classify_region_ms.{label}"] = 1e3 * median(cr)
        layers[f"flow.envelope_ms.{label}"] = 1e3 * median(env)
    layers["graphs.csr_us"] = 1e6 * median(csr)
    layers["graphs.extended_us"] = 1e6 * median(extended)
    return layers


def trace(instances: list[Instance], seconds: float, spans: Spans, seed: int, *,
          untraced_seconds: float = 0.0) -> Outcome:
    """The traced pass; with ``untraced_seconds`` an untraced pass over the
    same instances first, for the tracing overhead."""
    out = Outcome()
    plain = None
    if untraced_seconds > 0:
        plain = _map(instances, untraced_seconds, Spans(enabled=False))
        _check(plain, out)
        # the traced pass repeats exactly the untraced pass's instances
        instances, seconds = instances[:len(plain["verdicts"])], float("inf")
    with registry_enabled():
        before = registry_snapshot()
        with spans.span("workload", workload="region-map"):
            run = _map(instances, seconds, spans)
        after = registry_snapshot()
    _check(run, out)
    rays = delta(after, before, "repro_flow_envelope_solves_total")
    out.layers = {
        "cache.hit_us": 1e6 * median(run["hit_seconds"] or [0.0]),
        "cache.hit_ratio": run["hits"] / (run["hits"] + run["misses"]),
        "flow.solves_per_instance":
            delta(after, before, "repro_flow_solves_total") / max(1, run["fresh"]),
        "flow.envelope_probes_per_ray":
            delta(after, before, "repro_flow_envelope_probes_total") / max(1, rays),
        "core.fraction_fallbacks":
            delta(after, before, "repro_core_fraction_fallbacks_total"),
    }
    out.layers.update(_probe_layers(instances, spans))
    if plain is not None:
        out.layers["obs.trace_overhead_ratio"] = run["wall"] / plain["wall"]
    out.info.update({"instances": len(run["verdicts"]), "cache_hits": run["hits"]})
    return out
