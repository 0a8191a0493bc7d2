"""``serve-mixed``: a closed loop of clients against a fresh server.

Each run spawns ``python -m repro serve --port 0 --workers 1`` as a child
process, so the feasibility cache starts cold, and drives it from
``repro.loadgen`` with at most ``nproc`` (and at most two) connections.
The request mix:

* 40% classify on fresh gnp-40 specs (cache miss);
* 20% classify from a 16-spec hot set warmed before the timer (cache hit);
* 15% region on fresh gnp-60 specs;
* 25% simulate on gnp-30 with horizon 300 (32 specs, so concurrent
  requests can share a micro-batch).

This is the only workload that crosses HTTP, codec, admission, batching
and worker IPC.  Hits and misses share one path, so a change to the
cache path and a change to the flow path both show.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from harness import Outcome, ReferenceClock, Spans, host_normalized, median

from repro.core import SimulationConfig, Simulator
from repro.flow import breakpoint_envelope, classify_network, classify_region
from repro.loadgen import RequestSpec, classify_request, run_closed_loop, simulate_request
from repro.obs import parse_exposition
from repro.serve import AdmissionController, ServeClient, WorkerPool, direct_simulate
from repro.serve.codec import (
    parse_region_request,
    parse_simulate_request,
    parse_spec,
    region_response,
    report_to_json,
    simulation_response,
)

#: Request kinds per block of 20; each block is shuffled, so every stretch
#: of the run carries the same mix.
MIX = (("classify_miss", 8), ("classify_hit", 4), ("region", 3), ("simulate", 5))
KINDS = tuple(kind for kind, _ in MIX)
HOT_SPECS = 16
SIM_SPECS = 32
HORIZON = 300
#: Closed-loop clients: one connection each, never more than the cores.
CLIENTS = max(1, min(2, os.cpu_count() or 1))
#: Requests handed to the closed loop at a time; the clock is read between
#: chunks, so a run overshoots its seconds by at most one chunk.
CHUNK = 64
#: Requests generated per measured second, well above what two cores
#: sustain, so a run ends on time, not on inputs.
REQUESTS_PER_SECOND = 400
WARMUP_REQUESTS = 48
#: Server set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Simulate responses checked against the scalar oracle per run.
SIMULATE_CHECKS = 12
TAIL_Q = 0.99
ADMIT_CALLS = 5000
PINGS = 300
CLASSIFY_FIELDS = ("network_class", "max_flow", "f_star")
#: The checkout: the server child runs from here on its ``src`` tree.
ROOT = Path(__file__).resolve().parent.parent
SERVE_ENDPOINTS = ("/v1/classify", "/v1/region", "/v1/simulate")


def _gnp(rng: random.Random, n: int, p: float) -> dict:
    """A fresh gnp spec.  Density is fixed per request kind and only the
    graph and terminals vary, so every seed carries the same cost mix."""
    source, sink = rng.sample(range(n), 2)
    return {"topology": "gnp", "n": n, "p": p, "seed": rng.getrandbits(40),
            "source": source, "sink": sink,
            "in_rate": rng.randint(1, 3), "out_rate": rng.randint(1, 4)}


def _sim_spec(rng: random.Random) -> dict:
    # unit injection against a double-rate sink: a stable network
    return {**_gnp(rng, 30, 0.2), "in_rate": 1, "out_rate": 2}


def _requests(rng: random.Random, count: int, hot: list, sims: list) -> list:
    kinds: list[str] = []
    while len(kinds) < count:
        block = [kind for kind, n in MIX for _ in range(n)]
        rng.shuffle(block)
        kinds += block
    out = []
    for kind in kinds[:count]:
        if kind == "classify_miss":
            request = classify_request(_gnp(rng, 40, 0.2))
        elif kind == "classify_hit":
            request = classify_request(rng.choice(hot))
        elif kind == "region":
            request = RequestSpec("POST", "/v1/region", {"spec": _gnp(rng, 60, 0.15)})
        else:
            request = simulate_request(rng.choice(sims), horizon=HORIZON,
                                       seed=rng.getrandbits(31))
        out.append((kind, request))
    return out


@dataclass
class Inputs:
    warmup: list    # (kind, RequestSpec); disjoint seed, plus the hot set
    requests: list  # (kind, RequestSpec) in send order


def make_inputs(seed: int, seconds: float) -> Inputs:
    rng = random.Random(f"serve-mixed:{seed}")
    hot = [_gnp(rng, 40, 0.2) for _ in range(HOT_SPECS)]
    sims = [_sim_spec(rng) for _ in range(SIM_SPECS)]
    requests = _requests(rng, int(seconds * REQUESTS_PER_SECOND) + CHUNK, hot, sims)
    warm = random.Random(f"serve-mixed-warmup:{seed}")
    warmup = ([("classify_hit", classify_request(spec)) for spec in hot]
              + _requests(warm, WARMUP_REQUESTS, hot, sims))
    return Inputs(warmup, requests)


def fingerprint(inputs: Inputs) -> list:
    """What must match between two generations from one seed."""
    return [(kind, r.path, json.dumps(r.payload, sort_keys=True))
            for kind, r in inputs.warmup + inputs.requests]


# ----------------------------------------------------------------------
# the child server
# ----------------------------------------------------------------------
class ChildServer:
    """``python -m repro serve --port 0 --workers 1`` in its own session,
    so that stopping it can reach its worker process too."""

    def __init__(self, root: Path, log: Path) -> None:
        self.root, self.log = root, log
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self, timeout: float = 90.0) -> float:
        """Spawn and wait until ``/healthz`` reports the worker alive;
        returns the seconds that took."""
        env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        self.log.parent.mkdir(parents=True, exist_ok=True)
        tick = time.perf_counter()
        with self.log.open("ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", "1"],
                cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log,
                start_new_session=True)
        deadline = tick + timeout
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.perf_counter()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"server did not start (see {self.log})")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(f"server exited at start (see {self.log})")
                line += chunk
        self.url = line.decode().split()[-1]
        client = ServeClient(self.url, timeout=10.0)
        while client.healthz().get("workers", {}).get("alive") != 1:
            if time.perf_counter() > deadline:
                raise RuntimeError("server worker never came alive")
            time.sleep(0.01)
        return time.perf_counter() - tick

    def stop(self) -> None:
        """SIGINT for a clean shutdown, then SIGKILL for whatever is left
        of the session; returns once every process in it has ended."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.02)


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
def _drive(url: str, requests: list, seconds: float,
           host: ReferenceClock | None = None) -> dict:
    """Run ``requests`` through the closed loop until ``seconds`` pass;
    with ``host``, time the reference after each chunk.

    Returns the per-request ``(kind, request, result, offset)`` rows;
    ``offset`` maps a result's chunk-relative times onto
    ``time.perf_counter``.  ``refs[i]`` is the reference time taken
    after row ``i``'s chunk.
    """
    rows = []
    refs = []
    chunk_rates = []
    t0 = time.perf_counter()
    i = 0
    while i < len(requests) and time.perf_counter() - t0 < seconds:
        chunk = requests[i:i + CHUNK]
        offset = time.perf_counter()
        report = run_closed_loop(url, [r for _, r in chunk], concurrency=CLIENTS,
                                 timeout=60.0, keep_bodies=True)
        chunk_rates.append(report.ok / (time.perf_counter() - offset))
        for res in report.results:
            kind, request = chunk[res.index]
            rows.append((kind, request, res, offset))
        if host is not None:
            refs += [host.sample()] * (len(rows) - len(refs))
        i += len(chunk)
    return {"rows": rows, "refs": refs, "wall": time.perf_counter() - t0,
            "chunk_rates": chunk_rates}


def _latencies(rows: list, kind: str | None = None) -> list[float]:
    return [res.latency for k, _, res, _ in rows
            if res.status == 200 and (kind is None or k == kind)]


def _scrape(url: str) -> list:
    return parse_exposition(ServeClient(url, timeout=30.0).metrics_text())["samples"]


def _total(samples: list, name: str, **match) -> float:
    """Sum of the parent-side samples of ``name`` whose labels match;
    ``match`` values may be tuples of accepted values."""
    total = 0.0
    for sample, labels, value in samples:
        if sample != name or "worker" in labels:
            continue
        if all(labels.get(k) in (v if isinstance(v, tuple) else (v,))
               for k, v in match.items()):
            total += value
    return total


# ----------------------------------------------------------------------
# output checks (after the timed interval, server stopped)
# ----------------------------------------------------------------------
class Checker:
    """Recomputes every classify and region answer in-process, and a
    sample of simulate answers with the scalar oracle, timing the codec
    calls on the way."""

    def __init__(self) -> None:
        self.classified: dict[str, dict] = {}
        self.parse_s = {k: [] for k in KINDS}
        self.encode_s = {k: [] for k in KINDS}

    def _timed(self, bucket: dict, kind: str, call, *args):
        tick = time.perf_counter()
        value = call(*args)
        bucket[kind].append(time.perf_counter() - tick)
        return value

    def check(self, rows: list, out: Outcome, *, simulate_checks: int) -> None:
        sims = [k for k, row in enumerate(rows) if row[0] == "simulate"]
        stride = max(1, len(sims) // max(1, simulate_checks))
        sampled = set(sims[::stride][:simulate_checks])
        for k, (kind, request, res, _) in enumerate(rows):
            out.attempted += 1
            if res.status != 200 or res.body is None:
                out.fail(f"request {k} ({kind}): status {res.status} {res.error or ''}")
                continue
            if kind in ("classify_miss", "classify_hit"):
                want = self._classify(kind, request.payload)
                got = {f: res.body.get(f) for f in CLASSIFY_FIELDS}
            elif kind == "region":
                want, got = self._region(request.payload), res.body.get("lambda_star")
            elif k in sampled:
                want = self._simulate(request.payload)
                got = json.dumps({f: res.body.get(f) for f in json.loads(want)},
                                 sort_keys=True)
            else:
                self._timed(self.parse_s, kind, parse_simulate_request, request.payload)
                continue
            if got != want:
                out.fail(f"request {k} ({kind}): served {got!r}, in-process {want!r}")

    def _classify(self, kind: str, payload: dict) -> dict:
        spec = self._timed(self.parse_s, kind, parse_spec, payload["spec"])
        key = json.dumps(payload["spec"], sort_keys=True)
        if key not in self.classified:
            report = classify_network(spec.extended())
            body = self._timed(self.encode_s, kind, report_to_json, report)
            self.classified[key] = {f: body[f] for f in CLASSIFY_FIELDS}
        return self.classified[key]

    def _region(self, payload: dict) -> str:
        spec, direction = self._timed(self.parse_s, "region",
                                      parse_region_request, payload)
        envelope = breakpoint_envelope(spec.extended(), direction)
        report = classify_region(spec.extended(), envelope=envelope)
        body = self._timed(self.encode_s, "region", region_response, envelope, report)
        return body["lambda_star"]

    def _simulate(self, payload: dict) -> str:
        spec, horizon, seed, loss_p = self._timed(
            self.parse_s, "simulate", parse_simulate_request, payload)
        want = direct_simulate(spec, horizon, seed, loss_p)
        # the workload sends no loss, so this is the run the server made
        result = Simulator(spec, config=SimulationConfig(
            horizon=horizon, seed=seed)).run(horizon)
        self._timed(self.encode_s, "simulate", simulation_response, result)
        return json.dumps(want, sort_keys=True)

    def per_request_us(self, bucket: dict) -> float:
        """Mean per-request cost, weighted by the request mix."""
        share = dict(MIX)
        return 1e6 * sum(share[k] * (sum(v) / len(v))
                         for k, v in bucket.items() if v) / sum(
            share[k] for k, v in bucket.items() if v)


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def _serve(inputs: Inputs, seed: int, setups: int, segments) -> tuple:
    """Set the server up ``setups`` times (the last one is kept), warm it
    on the disjoint warm-up requests, then run ``segments(server)``."""
    times = []
    for k in range(setups):
        server = ChildServer(ROOT, ROOT / ".perfbench_out" / f"server-{seed}.log")
        try:
            times.append(server.start())
            if k < setups - 1:
                continue
            _drive(server.url, inputs.warmup, float("inf"))
            result = segments(server)
            health = ServeClient(server.url, timeout=30.0).healthz()
        finally:
            server.stop()
    return times, result, health


def _check_health(health: dict, out: Outcome) -> None:
    out.attempted += 1
    restarts = health.get("workers", {}).get("restarts")
    if restarts != 0:
        out.fail(f"server worker restarts = {restarts}")


def measure(inputs: Inputs, seconds: float, seed: int) -> Outcome:
    out = Outcome()

    host = ReferenceClock()

    def segments(server: ChildServer) -> dict:
        return _drive(server.url, inputs.requests, seconds, host)

    setup_times, run, health = _serve(inputs, seed, SETUPS, segments)
    _check_health(health, out)
    Checker().check(run["rows"], out, simulate_checks=SIMULATE_CHECKS)
    served = [(res.latency, ref) for (_, _, res, _), ref in zip(run["rows"], run["refs"])
              if res.status == 200]
    ok = len(served)
    out.end_to_end, raw = host_normalized(
        [lat for lat, _ in served], [ref for _, ref in served], ok,
        run["wall"] - host.total, host, TAIL_Q)
    out.end_to_end["setup_s"] = median(setup_times)
    out.info.update(raw)
    out.info.update({"requests": len(run["rows"]), "ok": ok,
                     "median_chunk_rate": median(run["chunk_rates"]),
                     "setup_s_samples": setup_times,
                     "by_kind": {k: [len(_latencies(run["rows"], k)),
                                     1e3 * median(_latencies(run["rows"], k))]
                                 for k in KINDS}})
    return out


def _admit_us() -> float:
    admission = AdmissionController(max_inflight=64)
    tick = time.perf_counter()
    for _ in range(ADMIT_CALLS):
        admission.try_admit().release()
    return 1e6 * (time.perf_counter() - tick) / ADMIT_CALLS


def _ipc_probe(out: Outcome) -> float:
    """Median ``WorkerPool(1).submit("ping")`` round trip, in µs."""
    pool = WorkerPool(1)
    pool.start()
    try:
        trips = []
        for k in range(PINGS):
            tick = time.perf_counter()
            echoed = pool.submit("ping", (k,)).result(timeout=30)
            trips.append(time.perf_counter() - tick)
            if echoed != k:
                out.fail(f"ping {k} echoed {echoed!r}")
        out.attempted += 2
        if pool.restarts or pool.duplicate_results:
            out.fail(f"worker pool restarts={pool.restarts} "
                     f"duplicate_results={pool.duplicate_results}")
    finally:
        pool.close()
    return 1e6 * median(trips)


def trace(inputs: Inputs, seconds: float, spans: Spans, seed: int, *,
          untraced_seconds: float = 0.0) -> Outcome:
    """The traced pass: per-kind latency from an untraced segment, then a
    segment bracketed by ``/metrics`` scrapes whose requests are recorded
    as spans, then in-process codec, admission and IPC probes."""
    out = Outcome()
    split = len(inputs.requests) // 2
    first, second = inputs.requests[:split], inputs.requests[split:]

    def segments(server: ChildServer) -> dict:
        plain = _drive(server.url, first, untraced_seconds or seconds)
        before = _scrape(server.url)
        with spans.span("workload", workload="serve-mixed") as seg:
            traced = _drive(server.url, second, seconds)
        after = _scrape(server.url)
        return {"plain": plain, "traced": traced, "before": before,
                "after": after, "segment": seg}

    _, run, health = _serve(inputs, seed, 1, segments)
    _check_health(health, out)
    plain, traced = run["plain"], run["traced"]
    # the closed loop owns the requests, so their spans are recorded
    # afterwards from the loop's own start and finish times
    for k, (kind, _, res, offset) in enumerate(traced["rows"]):
        spans.records.append({
            "id": f"request-{k}", "parent": run["segment"]["id"],
            "name": "serve.request", "kind": kind, "status": res.status,
            "trace_id": res.trace_id, "start": offset + res.started,
            "end": offset + res.finished})
    checker = Checker()
    checker.check(plain["rows"] + traced["rows"], out,
                  simulate_checks=SIMULATE_CHECKS)

    def d(name: str, **match) -> float:
        return (_total(run["after"], name, **match)
                - _total(run["before"], name, **match))

    server_n = d("repro_serve_request_seconds_count", endpoint=SERVE_ENDPOINTS)
    server_ms = 1e3 * d("repro_serve_request_seconds_sum",
                        endpoint=SERVE_ENDPOINTS) / max(1, server_n)
    client = _latencies(traced["rows"])
    tasks = d("repro_serve_worker_tasks_total",
              kind=("classify", "region", "simulate_batch"))
    out.layers = {f"serve.{kind}_p50_ms": 1e3 * median(_latencies(plain["rows"], kind))
                  for kind in KINDS}
    out.layers.update({
        "serve.server_side_ms": server_ms,
        "serve.outside_server_ms": 1e3 * sum(client) / len(client) - server_ms,
        "serve.codec.parse_us": checker.per_request_us(checker.parse_s),
        "serve.codec.encode_us": checker.per_request_us(checker.encode_s),
        "serve.admission.admit_us": _admit_us(),
        "serve.admission.shed": d("repro_serve_shed_total"),
        "serve.batching.batch_size_mean":
            d("repro_serve_batch_size_sum") / max(1, d("repro_serve_batch_size_count")),
        "serve.workers.ipc_roundtrip_us": _ipc_probe(out),
        "serve.workers.tasks": tasks,
        "serve.workers.restarts": d("repro_serve_worker_restarts_total"),
    })
    if untraced_seconds:
        per_plain = plain["wall"] / len(plain["rows"])
        per_traced = traced["wall"] / len(traced["rows"])
        out.layers["obs.trace_overhead_ratio"] = per_traced / per_plain
    out.info.update({"requests": len(plain["rows"]) + len(traced["rows"]),
                     "server_requests": server_n})
    return out
