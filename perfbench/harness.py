"""Plumbing shared by the three workloads: spans, statistics, the
reference clock, registry deltas and the per-run measurement record.

Nothing here reaches into the program under test: every layer is timed
from outside, around calls into its public functions.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

#: Percentiles a short run falls back to, highest first.
TAIL_FALLBACKS = (0.95, 0.9, 0.75, 0.5)
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


class Spans:
    """In-memory spans recorded by the benchmark around public calls.

    Each record holds ``name``, ``start``, ``end`` (``perf_counter``
    seconds), the ``parent`` span id and free-form attributes.  With
    ``enabled=False`` :meth:`span` is a no-op, so one workload body
    serves the untraced and the traced pass.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        record = {"id": span_id, "parent": parent, "name": name, **attrs}
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.records.append(record)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child coverage."""
        child_time: dict[int, float] = {}
        for r in self.records:
            if r["parent"] is not None:
                child_time[r["parent"]] = (child_time.get(r["parent"], 0.0)
                                           + r["end"] - r["start"])
        out: dict[str, float] = {}
        for r in self.records:
            own = r["end"] - r["start"] - child_time.get(r["id"], 0.0)
            out[r["name"]] = out.get(r["name"], 0.0) + own
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for r in sorted(self.records, key=lambda r: r["start"]):
                fh.write(json.dumps(r, sort_keys=True, default=str) + "\n")


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def nearest_rank(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def tail(samples: list[float], q: float) -> tuple[float, float]:
    """``(q, value)`` for percentile ``q``, or for the highest lower
    percentile with ``TAIL_BEYOND`` samples beyond it when the run was too
    short for ``q``.  Each workload fixes its ``q`` so that runs of the
    configured length always report the same percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    for cand in (q, *(c for c in TAIL_FALLBACKS if c < q)):
        if n - 1 - min(n - 1, int(cand * n)) >= TAIL_BEYOND:
            return cand, nearest_rank(ordered, cand)
    return 0.5, nearest_rank(ordered, 0.5)


def reference_work() -> int:
    """A fixed computation owned by the benchmark, about 12 ms on a 2-core
    x86 VM: dict updates, a sort and small integer array arithmetic, the
    kinds of work the workloads do."""
    import numpy as np

    counts: dict[int, int] = {}
    for k in range(30000):
        counts[k % 997] = counts.get(k % 997, 0) + k
    arr = np.arange(4096)
    for _ in range(300):
        arr = (arr * 3 + 1) % 1009
    return sorted(counts.values(), key=lambda v: -v)[0] + int(arr.sum())


class ReferenceClock:
    """Times :func:`reference_work` once after each unit of a workload.

    The host these runs share speeds up and slows down by up to 1.6x over
    seconds to minutes, and a slow stretch slows the reference as much as
    the program.  Dividing each unit's time by the reference time taken
    beside it measures the program in units of the reference (``ref``),
    which the host's speed cancels out of: on a shared 2-core x86 VM the
    ten-run spread of lgg-sim's mean job time fell from 0.16-0.21 in
    seconds to 0.05-0.10 in ``ref``.  The raw times stay in the run record.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        tick = time.perf_counter()
        reference_work()
        took = time.perf_counter() - tick
        self.samples.append(took)
        return took

    @property
    def total(self) -> float:
        return sum(self.samples)


def host_normalized(latencies: list[float], refs: list[float], work: float,
                    busy: float, clock: ReferenceClock, tail_q: float) -> tuple:
    """The end-to-end metrics of an untraced pass and the raw figures
    behind them.

    ``latencies[i]`` is one unit's seconds and ``refs[i]`` the reference
    time taken beside it; ``work`` units of work took ``busy`` seconds,
    reference time excluded.  Returns ``(metrics, info)``.
    """
    ref_s = statistics.mean(clock.samples)
    ratios = [lat / ref for lat, ref in zip(latencies, refs)]
    q, tail_ratio = tail(ratios, tail_q)
    metrics = {"throughput_per_ref": work / busy * ref_s,
               "latency_p50_ref": median(ratios),
               "latency_tail_ref": tail_ratio}
    info = {"reference_ms": 1e3 * ref_s, "throughput_per_s": work / busy,
            "latency_p50_ms": 1e3 * median(latencies),
            "latency_tail_ms": 1e3 * tail(latencies, tail_q)[1],
            "tail_percentile": q}
    return metrics, info


def registry_snapshot() -> dict[str, float]:
    """Flat ``{name: value}`` view of the in-process ``repro.obs`` registry.

    Counters and gauges sum over their label children; histograms give
    ``<name>_sum`` and ``<name>_count``.
    """
    from repro.obs import get_registry

    flat: dict[str, float] = {}
    for name, entry in get_registry().snapshot().items():
        for series in entry["series"]:
            if "count" in series:
                flat[name + "_sum"] = flat.get(name + "_sum", 0.0) + series["sum"]
                flat[name + "_count"] = (flat.get(name + "_count", 0.0)
                                         + series["count"])
            else:
                flat[name] = flat.get(name, 0.0) + series["value"]
    return flat


def delta(after: dict[str, float], before: dict[str, float], name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


@contextlib.contextmanager
def registry_enabled():
    """Turn the in-process metrics registry on for a traced pass."""
    from repro import obs

    previous = obs.configure(metrics=True)
    try:
        yield
    finally:
        obs.configure(**previous)


@dataclass
class Outcome:
    """What one workload pass measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: end-to-end metrics (untraced pass)
    end_to_end: dict = field(default_factory=dict)
    #: per-layer metrics (traced pass)
    layers: dict = field(default_factory=dict)
    #: sample counts, percentiles used, mismatches, ... (printed, not gated)
    info: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.info.setdefault("failures", [])
        if len(self.info["failures"]) < 20:
            self.info["failures"].append(what)
