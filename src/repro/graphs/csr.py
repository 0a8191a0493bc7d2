"""Flat struct-of-arrays topology shared by every layer.

:class:`CSRTopology` is the one canonical flat representation of a
:class:`~repro.graphs.multigraph.MultiGraph`'s live structure.  It is built
once per topology epoch (cached on the graph, invalidated by mutation) and
*aliased* — never copied — by every consumer that used to re-derive its own
arrays: the engine's half-edge view (:class:`repro.core.lgg_fast.HalfEdges`),
the adjacency view (:class:`repro.graphs.multigraph.Adjacency`), the sweep
cache's canonical hashes, and the integer LGG kernel's neighbour lists.
The extended graph ``G*`` interleaves its arc table from the snapshot's
edge arrays and is memoized on the snapshot
(:func:`repro.graphs.extended.extended_graph_of`), and so is Algorithm 1's
presorted half-edge order per tie-break, so a mutation retires them
together.

Layout
------
Half-edge CSR: node ``u``'s incident half-edges occupy slots
``indptr[u]:indptr[u+1]`` of ``neighbors`` / ``edge_ids`` / ``senders``
(``senders`` is constant-``u`` over the block — materialised because the
vectorized selector indexes it wholesale).  Edge list: ``eids[k]`` is the
id of the ``k``-th live edge with endpoints ``us[k] <= vs[k]`` normalised
for hashing (the multigraph is undirected, so orientation is cosmetic);
``tails[k]`` / ``heads[k]`` keep the endpoints in the order they were
added, which fixes the orientation of ``G*``'s forward arcs.

The canonical digest hashes only the flat arrays — node count plus the
sorted live-edge multiset — so it is invariant to edge-insertion order,
tombstoned ids, and node-preserving copies, exactly the contract the
feasibility cache keys rely on.  The sorted edge list is JSON-encoded
once per snapshot and streamed into every digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["CSRTopology"]


def _dumps(value) -> bytes:
    """The canonical JSON encoding every cache key has always used."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass(frozen=True)
class CSRTopology:
    """Immutable flat-array snapshot of a multigraph's live structure."""

    n: int
    num_edge_slots: int          # edge ids ever allocated (live + tombstoned)
    indptr: np.ndarray           # (n+1,) int64 half-edge offsets
    neighbors: np.ndarray        # (2m,) int64 opposite endpoint per half-edge
    edge_ids: np.ndarray         # (2m,) int64 connecting edge id per half-edge
    senders: np.ndarray          # (2m,) int64 owning endpoint per half-edge
    eids: np.ndarray             # (m,) int64 live edge ids, ascending
    us: np.ndarray               # (m,) int64 min endpoint per live edge
    vs: np.ndarray               # (m,) int64 max endpoint per live edge
    tails: np.ndarray            # (m,) int64 first endpoint, as added
    heads: np.ndarray            # (m,) int64 second endpoint, as added
    #: ``G*`` memo of :func:`repro.graphs.extended.extended_graph_of`
    extended_memo: dict = field(default_factory=dict, compare=False, repr=False)
    #: tie-break → presorted half-edge order (:meth:`repro.core.lgg_fast.HalfEdges.presorted`)
    presort_memo: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def m(self) -> int:
        """Number of live edges."""
        return len(self.eids)

    @property
    def num_half_edges(self) -> int:
        return len(self.neighbors)

    # ------------------------------------------------------------------
    @classmethod
    def from_multigraph(cls, graph) -> "CSRTopology":
        """Build the flat arrays from the graph's live-edge arrays.

        Half-edge ``2k`` belongs to ``tails[k]`` and ``2k + 1`` to
        ``heads[k]``; a stable sort by owner lays each node's block out
        in edge-id order.
        """
        n = graph.n
        eids, tails, heads = graph.edge_array()
        owners = np.empty(2 * len(eids), dtype=np.int64)
        owners[0::2] = tails
        owners[1::2] = heads
        opposite = np.empty_like(owners)
        opposite[0::2] = heads
        opposite[1::2] = tails
        order = np.argsort(owners, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owners, minlength=n), out=indptr[1:])
        neighbors = opposite[order]
        edge_ids = np.repeat(eids, 2)[order]
        senders = owners[order]
        us = np.minimum(tails, heads)
        vs = np.maximum(tails, heads)
        for arr in (indptr, neighbors, edge_ids, senders, eids, us, vs, tails, heads):
            arr.setflags(write=False)  # aliased everywhere: freeze
        return cls(
            n=n,
            num_edge_slots=graph.num_edge_slots,
            indptr=indptr,
            neighbors=neighbors,
            edge_ids=edge_ids,
            senders=senders,
            eids=eids,
            us=us,
            vs=vs,
            tails=tails,
            heads=heads,
        )

    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def canonical_edges(self) -> list[tuple[int, int]]:
        """The live-edge multiset as a sorted list of ``(min, max)`` pairs."""
        return sorted(zip(self.us.tolist(), self.vs.tolist()))

    @cached_property
    def _edges_json(self) -> bytes:
        """:meth:`canonical_edges` in the digest's JSON encoding (once)."""
        return _dumps(self.canonical_edges())

    def canonical_digest(self, extra: dict | None = None) -> str:
        """sha256 over the flat structure (plus optional ``extra`` payload).

        Two graphs collide iff they share node count and live-edge multiset
        — the invariance contract of the feasibility cache keys.  The bytes
        hashed are ``json.dumps({"n": n, "edges": canonical_edges(),
        **extra}, sort_keys=True, separators=(",", ":"))``, streamed key
        by key so the cached edge encoding is reused.
        """
        payload: dict = {"n": self.n}
        if extra:
            payload.update(extra)
        if "edges" in payload:  # extra replaces the edge list itself
            return hashlib.sha256(_dumps(payload)).hexdigest()
        digest = hashlib.sha256()
        sep = b"{"
        for key in sorted([*payload, "edges"]):
            digest.update(sep + _dumps(key) + b":")
            digest.update(self._edges_json if key == "edges" else _dumps(payload[key]))
            sep = b","
        digest.update(b"}")
        return digest.hexdigest()
