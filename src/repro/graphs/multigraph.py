"""Undirected multigraph with integer nodes and stable edge ids.

Design notes
------------
* Nodes are dense integers ``0 .. n-1``; experiments that need labels keep
  their own mapping (see :func:`repro.graphs.convert.from_networkx`).
* Edges get a stable id when added.  Removal leaves a *tombstone* so ids of
  surviving edges never shift — the dynamic-topology driver (Conjecture 4)
  relies on this to splice link schedules across epochs.
* The hot path of the simulator reads the graph through a cached CSR-style
  adjacency (:meth:`MultiGraph.adjacency`), three numpy arrays shared by all
  engines.  Any mutation invalidates the cache.
* Self-loops are rejected: a node transmitting to itself has no meaning in
  the paper's model, and Algorithm 1's strict-inequality test could never
  select one anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import CSRTopology

__all__ = ["MultiGraph", "Adjacency"]


@dataclass(frozen=True)
class Adjacency:
    """CSR-style adjacency view of a :class:`MultiGraph`.

    ``indptr`` has length ``n + 1``; the incident half-edges of node ``v``
    occupy slots ``indptr[v]:indptr[v+1]`` of ``neighbors`` (the node at the
    other endpoint) and ``edge_ids`` (the id of the connecting edge).
    Parallel edges appear once per copy, so ``indptr[v+1] - indptr[v]`` is
    exactly the paper's ``|Γ(v)|`` (degree counting multiplicity).
    """

    indptr: np.ndarray
    neighbors: np.ndarray
    edge_ids: np.ndarray

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.neighbors[self.indptr[v] : self.indptr[v + 1]]

    def edges_of(self, v: int) -> np.ndarray:
        return self.edge_ids[self.indptr[v] : self.indptr[v + 1]]


class MultiGraph:
    """An undirected multigraph on nodes ``0 .. n-1``.

    >>> g = MultiGraph(3)
    >>> g.add_edge(0, 1)
    0
    >>> g.add_edge(0, 1)   # parallel edge, its own id
    1
    >>> g.degree(0)
    2
    """

    __slots__ = ("_n", "_eu", "_ev", "_alive", "_m_alive", "_adj_cache", "_csr_cache")

    def __init__(self, n: int = 0) -> None:
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        self._n = int(n)
        self._eu: list[int] = []
        self._ev: list[int] = []
        self._alive: list[bool] = []
        self._m_alive = 0
        self._adj_cache: Optional[Adjacency] = None
        self._csr_cache: Optional[CSRTopology] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "MultiGraph":
        """Build a graph on ``n`` nodes from an iterable of ``(u, v)`` pairs."""
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def copy(self) -> "MultiGraph":
        """Deep copy (edge ids, including tombstones, are preserved)."""
        g = MultiGraph(self._n)
        g._eu = list(self._eu)
        g._ev = list(self._ev)
        g._alive = list(self._alive)
        g._m_alive = self._m_alive
        return g

    def __getstate__(self):
        """Pickle the edge store only.  The derived caches — the adjacency
        view and the CSR snapshot with everything memoized on it (``G*``,
        its flow topology, encoded edge bytes) — are rebuilt on demand,
        so they never cross a process boundary."""
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_adj_cache"] = state["_csr_cache"] = None
        return None, state

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_nodes(self, k: int = 1) -> range:
        """Append ``k`` fresh nodes; returns their id range."""
        if k < 0:
            raise GraphError(f"cannot add {k} nodes")
        first = self._n
        self._n += k
        self._adj_cache = None
        self._csr_cache = None
        return range(first, self._n)

    def add_edge(self, u: int, v: int) -> int:
        """Add an undirected edge and return its id.

        Parallel edges are allowed and each gets a distinct id.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop at node {u} is not allowed")
        eid = len(self._eu)
        self._eu.append(int(u))
        self._ev.append(int(v))
        self._alive.append(True)
        self._m_alive += 1
        self._adj_cache = None
        self._csr_cache = None
        return eid

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> list[int]:
        return [self.add_edge(u, v) for u, v in edges]

    def remove_edge(self, eid: int) -> None:
        """Remove edge ``eid`` (ids of other edges are unaffected)."""
        self._check_edge(eid)
        self._alive[eid] = False
        self._m_alive -= 1
        self._adj_cache = None
        self._csr_cache = None

    def restore_edge(self, eid: int) -> None:
        """Undo a prior :meth:`remove_edge` (used by topology schedules)."""
        if not (0 <= eid < len(self._eu)):
            raise GraphError(f"unknown edge id {eid}")
        if not self._alive[eid]:
            self._alive[eid] = True
            self._m_alive += 1
            self._adj_cache = None
            self._csr_cache = None

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of live edges."""
        return self._m_alive

    @property
    def num_edge_slots(self) -> int:
        """Number of edge ids ever allocated (live + tombstoned)."""
        return len(self._eu)

    def has_edge_id(self, eid: int) -> bool:
        return 0 <= eid < len(self._eu) and self._alive[eid]

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        self._check_edge(eid)
        return self._eu[eid], self._ev[eid]

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.edge_endpoints(eid)
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"node {v} is not an endpoint of edge {eid}")

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(eid, u, v)`` for every live edge, in id order."""
        for eid, (u, v, alive) in enumerate(zip(self._eu, self._ev, self._alive)):
            if alive:
                yield eid, u, v

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live edges as ``(eids, us, vs)`` int64 arrays (id order)."""
        alive = np.array(self._alive, dtype=bool)
        eids = np.flatnonzero(alive).astype(np.int64)
        us = np.array(self._eu, dtype=np.int64)[alive]
        vs = np.array(self._ev, dtype=np.int64)[alive]
        return eids, us, vs

    def degree(self, v: int) -> int:
        """``|Γ(v)|`` counting parallel edges with multiplicity."""
        self._check_node(v)
        adj = self.adjacency()
        return adj.degree(v)

    def degrees(self) -> np.ndarray:
        """Degree of every node as an int64 array."""
        adj = self.adjacency()
        return np.diff(adj.indptr)

    def max_degree(self) -> int:
        """The paper's ``Δ`` (0 for an edgeless graph)."""
        if self._n == 0:
            return 0
        degs = self.degrees()
        return int(degs.max()) if len(degs) else 0

    def neighbors(self, v: int) -> list[int]:
        """Neighbors of ``v`` with multiplicity (one entry per parallel edge)."""
        self._check_node(v)
        return self.adjacency().neighbors_of(v).tolist()

    def distinct_neighbors(self, v: int) -> list[int]:
        return sorted(set(self.neighbors(v)))

    def incident_edges(self, v: int) -> list[int]:
        self._check_node(v)
        return self.adjacency().edges_of(v).tolist()

    def edge_multiplicity(self, u: int, v: int) -> int:
        """Number of parallel edges between ``u`` and ``v``."""
        self._check_node(u)
        self._check_node(v)
        adj = self.adjacency()
        return int(np.count_nonzero(adj.neighbors_of(u) == v))

    # ------------------------------------------------------------------
    # flat topology (cached, shared by all engines)
    # ------------------------------------------------------------------
    def to_csr(self) -> CSRTopology:
        """The flat struct-of-arrays topology over live edges.

        Built once and cached until the next mutation; every consumer
        (adjacency views, half-edge arrays, canonical hashes, the integer
        LGG kernel) aliases these arrays instead of re-deriving its own.
        """
        if self._csr_cache is None:
            self._csr_cache = CSRTopology.from_multigraph(self)
        return self._csr_cache

    def adjacency(self) -> Adjacency:
        """CSR adjacency over live edges (cached until the next mutation).

        A zero-copy view of :meth:`to_csr`'s arrays.
        """
        if self._adj_cache is None:
            csr = self.to_csr()
            self._adj_cache = Adjacency(
                indptr=csr.indptr, neighbors=csr.neighbors, edge_ids=csr.edge_ids
            )
        return self._adj_cache

    # ------------------------------------------------------------------
    # connectivity / subgraphs
    # ------------------------------------------------------------------
    def components(self) -> list[list[int]]:
        """Connected components, each a sorted node list."""
        seen = np.zeros(self._n, dtype=bool)
        adj = self.adjacency()
        out: list[list[int]] = []
        for start in range(self._n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj.neighbors_of(v):
                    if not seen[w]:
                        seen[w] = True
                        stack.append(int(w))
            out.append(sorted(comp))
        return out

    def is_connected(self) -> bool:
        if self._n == 0:
            return True
        return len(self.components()) == 1

    def induced_subgraph(self, nodes: Sequence[int]) -> tuple["MultiGraph", dict[int, int]]:
        """Subgraph induced by ``nodes``.

        Returns the new graph (nodes renumbered ``0..k-1``) and the mapping
        ``old id -> new id``.
        """
        mapping = {}
        for new, old in enumerate(nodes):
            self._check_node(old)
            if old in mapping:
                raise GraphError(f"duplicate node {old} in subgraph request")
            mapping[old] = new
        g = MultiGraph(len(mapping))
        for _, u, v in self.edges():
            if u in mapping and v in mapping:
                g.add_edge(mapping[u], mapping[v])
        return g, mapping

    # ------------------------------------------------------------------
    # dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultiGraph(n={self._n}, m={self._m_alive})"

    def __eq__(self, other: object) -> bool:
        """Structural equality over live edges (as an unordered multiset)."""
        if not isinstance(other, MultiGraph):
            return NotImplemented
        if self._n != other._n or self._m_alive != other._m_alive:
            return False
        mine = sorted(tuple(sorted((u, v))) for _, u, v in self.edges())
        theirs = sorted(tuple(sorted((u, v))) for _, u, v in other.edges())
        return mine == theirs

    def __hash__(self) -> int:  # MultiGraph is mutable
        raise TypeError("MultiGraph is unhashable (mutable)")

    def _check_node(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise GraphError(f"unknown node {v} (graph has {self._n} nodes)")

    def _check_edge(self, eid: int) -> None:
        if not (0 <= eid < len(self._eu)) or not self._alive[eid]:
            raise GraphError(f"unknown or removed edge id {eid}")
