"""Feasibility-classification memoization keyed by canonical network hashes.

Sweeps revisit the same flow problem constantly: a grid over (topology ×
rate × engine knob × repeat) re-classifies each (topology, rate) cell once
per knob value and repeat, and the knobs only perturb the *simulation*,
never the max-flow computation.  This cache keys
:func:`repro.flow.classify_network` results on a canonical hash of the
network's flow-relevant identity — the multigraph as an *unordered* edge
multiset plus the rate maps — so the key is invariant to edge-insertion
order, node-preserving copies, and tombstoned edge ids.

The cache is per-process by design: each sweep worker warms its own (the
:class:`~concurrent.futures.ProcessPoolExecutor` reuses worker processes
across chunks, so the warmth accumulates).  Nothing is shared across
*processes*; within a process the table is guarded by an internal
:class:`threading.Lock`, so thread pools (the :mod:`repro.serve` request
executor, user code) can share one instance.  The lock covers only table
and counter accesses — ``classify_network`` itself runs unlocked, so two
threads missing the same key concurrently both compute it (wasted work,
never wrong results).
"""

from __future__ import annotations

import hashlib
import threading
from typing import TYPE_CHECKING, Optional

from repro.errors import SweepError
from repro.graphs.multigraph import MultiGraph
from repro.network.spec import NetworkSpec
from repro.obs.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flow.feasibility import FeasibilityReport, RegionReport
    from repro.flow.parametric import BreakpointEnvelope

__all__ = [
    "canonical_graph_key",
    "canonical_spec_key",
    "canonical_ray_key",
    "shard_index",
    "FeasibilityCache",
    "shared_cache",
    "cached_classify",
    "cached_envelope",
    "cached_region",
]


def shard_index(key: str, shards: int) -> int:
    """Which of ``shards`` owners a canonical key belongs to.

    The partition behind the serve worker tier's fingerprint-range
    sharding: each worker process owns one shard of the key space and
    keeps a private :class:`FeasibilityCache` for it, so affinity
    routing (same key → same worker) reproduces single-process cache
    semantics without shared memory.  Stable across processes and runs
    (pure sha256, no per-process seeding), uniform for any ``shards``.
    """
    if shards < 1:
        raise SweepError(f"shards must be >= 1, got {shards}")
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


def canonical_graph_key(graph: MultiGraph) -> str:
    """Canonical hash of a multigraph's live structure.

    Two graphs get the same key iff they have the same node count and the
    same unordered multiset of (undirected) edges — regardless of the order
    edges were inserted, of removed-edge tombstones, and of edge ids.
    Delegates to the cached CSR snapshot so a sweep hashing the same graph
    across many cells does not re-walk the edge store each time; the digest
    payload is byte-identical to the historical format.
    """
    return graph.to_csr().canonical_digest()


def canonical_spec_key(spec: NetworkSpec) -> str:
    """Canonical hash of everything :func:`classify_network` can see.

    Covers the graph (as :func:`canonical_graph_key`), both rate maps, and
    nothing else: retention / revelation / injection semantics affect the
    *simulation*, not the extended graph ``G*``, so specs differing only
    there deliberately share a key (and a flow computation).
    """
    return spec.graph.to_csr().canonical_digest({
        "in": sorted(spec.in_rates.items()),
        "out": sorted(spec.out_rates.items()),
    })


def canonical_ray_key(spec: NetworkSpec, direction=None) -> str:
    """Canonical hash of a (network, ray) pair for envelope banking.

    Extends :func:`canonical_spec_key` with the ray — the direction in
    rate space a :func:`~repro.flow.parametric.breakpoint_envelope` is
    computed along.  ``None`` means the nominal injection ray (the
    ``in_rates`` themselves), hashed under the same bytes as the explicit
    equivalent so callers can't split the cache by spelling.  Ray rates
    are stringified exactly (``Fraction`` is not JSON-serializable);
    zero-rate entries are dropped first, matching the envelope's own
    normalization.
    """
    from fractions import Fraction

    ray = spec.in_rates if direction is None else direction
    payload = {
        "in": sorted(spec.in_rates.items()),
        "out": sorted(spec.out_rates.items()),
        "ray": [[int(v), str(Fraction(r))]
                for v, r in sorted(ray.items()) if Fraction(r) != 0],
    }
    return spec.graph.to_csr().canonical_digest(payload)


class FeasibilityCache:
    """Memo table for the flow verdicts of a network: ``classify`` entries
    keyed by :func:`canonical_spec_key`, ``envelope`` and ``region``
    entries by :func:`canonical_ray_key`.

    ``max_entries`` bounds the table (insertion-order eviction — sweep
    grids revisit cells in bursts, so oldest-first is the right victim);
    ``None`` means unbounded, the default for in-process sweeps.  Hits,
    misses and evictions are mirrored into the :mod:`repro.obs` registry
    when metrics are enabled.

    >>> cache = FeasibilityCache()
    >>> # report = cache.classify(spec); cache.hits, cache.misses
    """

    def __init__(self, *, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise SweepError(f"max_entries must be >= 1 or None, got {max_entries}")
        self.max_entries = max_entries
        # entries key as ("classify", spec digest) or ("ray"/"region",
        # ray digest) — disjoint keys sharing one table, one bound, one
        # eviction order
        self._table: dict[tuple, object] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _memoized(self, key: tuple, compute):
        """Lock-guarded get-or-compute with eviction and obs counters.

        The lock covers only table and counter accesses — ``compute``
        runs unlocked, so two threads missing the same key concurrently
        both compute it (wasted work, never wrong results).
        """
        reg = get_registry()
        with self._lock:
            value = self._table.get(key)
            if value is not None:
                self.hits += 1
        if value is not None:
            if reg.enabled:
                reg.counter("repro_feasibility_cache_hits_total",
                            "FeasibilityCache lookups served from memory.").inc()
            return value
        value = compute()
        evicted = 0
        with self._lock:
            self._table[key] = value
            self.misses += 1
            if self.max_entries is not None:
                while len(self._table) > self.max_entries:
                    self._table.pop(next(iter(self._table)))  # oldest insertion
                    evicted += 1
            self.evictions += evicted
        if reg.enabled:
            reg.counter("repro_feasibility_cache_misses_total",
                        "FeasibilityCache lookups that computed a classify, envelope or region entry.").inc()
            if evicted:
                reg.counter("repro_feasibility_cache_evictions_total",
                            "FeasibilityCache entries evicted (max_entries).").inc(evicted)
        return value

    def classify(self, spec: NetworkSpec) -> "FeasibilityReport":
        """``classify_network(spec.extended())``, memoized.

        A miss pays exactly one cold max-flow solve: ``classify_network``
        cold-solves at the nominal rates (λ = 1), then probes λ = 1 + ε
        (feasible networks only) and the ``f*`` plateau as warm steps of
        one parametric ladder.
        """
        def compute():
            from repro.flow.feasibility import classify_network

            return classify_network(spec.extended())

        return self._memoized(("classify", canonical_spec_key(spec)), compute)

    def envelope(self, spec: NetworkSpec, direction=None) -> "BreakpointEnvelope":
        """``breakpoint_envelope(spec.extended(), direction)``, memoized.

        Banks the full exact envelope — λ*, breakpoints, per-segment cut
        certificates — under :func:`canonical_ray_key`, so repeated
        region queries (serve ``/v1/region``, sweeps, the CLI) pay the
        one-cold-solve parametric computation once per (network, ray).
        """
        return self._envelope(spec, direction, canonical_ray_key(spec, direction))

    def _envelope(self, spec: NetworkSpec, direction,
                  ray_key: str) -> "BreakpointEnvelope":
        def compute():
            from repro.flow.parametric import breakpoint_envelope

            return breakpoint_envelope(spec.extended(), direction)

        return self._memoized(("ray", ray_key), compute)

    def region(self, spec: NetworkSpec) -> "RegionReport":
        """``classify_region`` along the nominal injection ray, memoized.

        Derived from (and sharing) the banked envelope, so a region
        lookup after an envelope lookup — or vice versa — never re-solves.
        """
        ray_key = canonical_ray_key(spec, None)

        def compute():
            from repro.flow.feasibility import region_from_envelope

            env = self._envelope(spec, None, ray_key)
            return region_from_envelope(env, spec.n + 2)  # G* adds s*, d*

        return self._memoized(("region", ray_key), compute)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._table)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the table (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counters as one JSON-able dict (healthz, worker heartbeats)."""
        with self._lock:
            return {
                "size": len(self._table),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def clear(self) -> None:
        with self._lock:
            self._table.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0


_SHARED = FeasibilityCache()


def shared_cache() -> FeasibilityCache:
    """The process-global cache used by sweep point functions."""
    return _SHARED


def cached_classify(spec: NetworkSpec) -> "FeasibilityReport":
    """:func:`classify_network` through the process-global cache."""
    return _SHARED.classify(spec)


def cached_envelope(spec: NetworkSpec, direction=None) -> "BreakpointEnvelope":
    """:func:`breakpoint_envelope` through the process-global cache."""
    return _SHARED.envelope(spec, direction)


def cached_region(spec: NetworkSpec) -> "RegionReport":
    """:func:`classify_region` through the process-global cache."""
    return _SHARED.region(spec)
