"""Directed flow-network representation shared by every max-flow solver.

The representation is the classic *paired residual arc* layout: original
arc ``j`` owns residual slots ``2j`` (forward, capacity ``cap_j - flow_j``)
and ``2j + 1`` (backward, capacity ``flow_j``).  Solvers only manipulate the
``residual`` array; flows are recovered at the end.

Capacities may be ``int``, ``float`` or :class:`fractions.Fraction`.
Exact :class:`~fractions.Fraction` capacities are what the feasibility
classifier uses to certify the ε of Definition 4 without floating-point
doubt; the solvers are written generically so both modes share one code
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from repro.errors import FlowError

__all__ = ["FlowProblem", "FlowResult", "FlowTopology", "Residual"]

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class FlowProblem:
    """A single-source single-sink max-flow instance on a directed multigraph.

    ``tails[j] -> heads[j]`` with capacity ``capacities[j]``; parallel arcs
    and antiparallel pairs are fine.  Nodes are ``0 .. n-1``.
    """

    n: int
    tails: Sequence[int]
    heads: Sequence[int]
    capacities: Sequence[Number]
    source: int
    sink: int
    #: prebuilt residual adjacency of ``tails``/``heads`` (set only through
    #: :meth:`_trusted`); ``None`` makes :class:`Residual` build its own
    topology: FlowTopology | None = field(default=None, init=False,
                                          repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise FlowError(f"need at least one node, got n={self.n}")
        if not (len(self.tails) == len(self.heads) == len(self.capacities)):
            raise FlowError("tails/heads/capacities length mismatch")
        if not (0 <= self.source < self.n) or not (0 <= self.sink < self.n):
            raise FlowError(f"source/sink out of range: {self.source}, {self.sink}")
        if self.source == self.sink:
            raise FlowError("source and sink must differ")
        for j, (u, v, c) in enumerate(zip(self.tails, self.heads, self.capacities)):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise FlowError(f"arc {j} endpoint out of range: ({u}, {v})")
            if c < 0:
                raise FlowError(f"arc {j} has negative capacity {c}")

    @property
    def num_arcs(self) -> int:
        return len(self.tails)

    @classmethod
    def _trusted(cls, *, n, tails, heads, capacities, source, sink,
                 topology=None) -> "FlowProblem":
        """Construct without re-running ``__post_init__`` validation.

        Internal fast path for the parametric warm-start engine, which
        rebuilds the problem every step with capacities it has already
        checked (same topology, monotone increases of validated values).
        ``topology`` must be the :class:`FlowTopology` of ``tails``/``heads``.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "capacities", capacities)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "sink", sink)
        object.__setattr__(self, "topology", topology)
        return self

    @classmethod
    def from_extended(cls, ext, *, source_cap_override: dict[int, Number] | None = None) -> "FlowProblem":
        """Build the ``s* -> d*`` instance from an
        :class:`~repro.graphs.extended.ExtendedGraph`.

        ``source_cap_override`` replaces the capacity of selected ``(s*, v)``
        arcs (keyed by base node ``v``) — used by ``f*`` (infinite source
        capacity) and by the ε-scaling feasibility probes.
        """
        from repro.graphs.extended import ArcKind  # local import avoids a cycle

        caps = list(ext.capacities)
        if source_cap_override:
            for i, (kind, ref) in enumerate(zip(ext.kinds, ext.refs)):
                if kind is ArcKind.SOURCE and int(ref) in source_cap_override:
                    caps[i] = source_cap_override[int(ref)]
        tails, heads = ext.arc_lists  # cached on G*, aliased (never mutated)
        return cls(
            n=ext.n,
            tails=tails,
            heads=heads,
            capacities=caps,
            source=ext.s_star,
            sink=ext.d_star,
        )


class FlowTopology:
    """Immutable per-node adjacency over the paired residual arcs of a problem.

    :meth:`adjacency` lists, per node ``u``, its outgoing residual arcs in
    ascending original-arc id order, forward slot before backward, beside
    their heads, so solvers that walk the arcs in order make bit-identical
    decisions.  ``to[a]`` is the head of residual arc ``a``.  Built once
    per topology and shared by every fork — the parametric warm-start
    engine swaps ``problem`` (new capacities, same tails/heads) without
    touching it — and, through
    :attr:`repro.graphs.extended.ExtendedGraph.flow_topology`, by every
    engine on one extended graph.
    """

    __slots__ = ("to", "_adjacency")

    def __init__(self, n: int, tails, heads) -> None:
        # Residual arc 2j leaves tails[j] and 2j + 1 leaves heads[j]; a
        # stable sort by owner keeps each node's arcs in ascending order,
        # forward slot before backward.
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        owners = np.empty(2 * len(tails), dtype=np.int64)
        owners[0::2] = tails
        owners[1::2] = heads
        to = np.empty_like(owners)
        to[0::2] = heads
        to[1::2] = tails
        order = np.argsort(owners, kind="stable")
        bounds = np.cumsum(np.bincount(owners, minlength=n))[:-1]
        self.to = to.tolist()
        self._adjacency = ([a.tolist() for a in np.split(order, bounds)],
                           [h.tolist() for h in np.split(to[order], bounds)])

    def adjacency(self) -> tuple[list[list[int]], list[list[int]]]:
        """``(out_arcs, out_heads)``: per node, its residual arcs in
        ascending order and their heads (``out_heads[u][k] ==
        to[out_arcs[u][k]]``).

        One copy per topology, shared by every solve on it.  Read-only,
        like the rest of the topology.
        """
        return self._adjacency

    def arcs_of(self, u: int) -> list[int]:
        """Outgoing residual arcs of ``u``: the shared list, read-only."""
        return self._adjacency[0][u]


class Residual:
    """Mutable residual network for a :class:`FlowProblem`.

    Residual arc ``2j`` is the forward copy of original arc ``j``; ``2j ^ 1``
    is always its partner.  Adjacency lives in a shared
    :class:`FlowTopology`.

    ``source_mask`` is the min-cut source side handed over by the Dinic
    kernel, whose last, failed BFS labels exactly the nodes residually
    reachable from the source; ``None`` when no such BFS describes the
    current residual.  Anything that moves flow drops it (:meth:`push`,
    the warm engine's capacity raise); positive scaling and :meth:`fork`
    keep residual signs and so keep it.  The mask is read-only.
    """

    __slots__ = ("problem", "to", "residual", "topology", "source_mask")

    def __init__(self, problem: FlowProblem) -> None:
        self.problem = problem
        topo = problem.topology or FlowTopology(problem.n, problem.tails, problem.heads)
        self.topology = topo
        self.to = topo.to
        residual: list[Number] = [0] * (2 * problem.num_arcs)
        residual[0::2] = problem.capacities
        self.residual = residual
        self.source_mask: np.ndarray | None = None

    def push(self, arc: int, amount: Number) -> None:
        """Move ``amount`` units of residual capacity along ``arc``."""
        self.residual[arc] -= amount
        self.residual[arc ^ 1] += amount
        self.source_mask = None

    def fork(self) -> "Residual":
        """An independent copy sharing the immutable topology arrays.

        ``topology`` (its ``to`` and adjacency lists) is never mutated
        after construction, so forks alias it, and the read-only
        ``source_mask`` with it; only the ``residual`` array (the flow
        state) is copied.  This makes checkpoint/rollback in the
        parametric warm-start engine an O(m) list copy instead of a full
        rebuild.
        """
        clone = Residual.__new__(Residual)
        clone.problem = self.problem
        clone.to = self.to
        clone.topology = self.topology
        clone.source_mask = self.source_mask
        clone.residual = list(self.residual)
        return clone

    def flows(self) -> list[Number]:
        """Per-original-arc flow values (the backward residual)."""
        return self.residual[1::2]

    def reachable_from(self, start: int) -> np.ndarray:
        """Boolean mask of nodes reachable from ``start`` via positive residual."""
        seen = [False] * self.problem.n
        seen[start] = True
        stack = [start]
        out_arcs, out_heads = self.topology.adjacency()
        residual = self.residual
        while stack:
            u = stack.pop()
            for a, v in zip(out_arcs[u], out_heads[u]):
                if residual[a] > 0 and not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return np.array(seen)

    def co_reachable_to(self, target: int) -> np.ndarray:
        """Boolean mask of nodes that can reach ``target`` via positive residual."""
        seen = [False] * self.problem.n
        seen[target] = True
        stack = [target]
        out_arcs, out_heads = self.topology.adjacency()
        residual = self.residual
        while stack:
            v = stack.pop()
            # arc a leaves v; its partner a^1 enters v from u.
            for a, u in zip(out_arcs[v], out_heads[v]):
                if residual[a ^ 1] > 0 and not seen[u]:
                    seen[u] = True
                    stack.append(u)
        return np.array(seen)


@dataclass(frozen=True)
class FlowResult:
    """Outcome of a max-flow computation.

    ``flows[j]`` is the flow on original arc ``j``; ``value`` is the total
    ``source -> sink`` flow.  The residual network is retained so cut
    extraction does not recompute anything.
    """

    problem: FlowProblem
    value: Number
    flows: tuple[Number, ...]
    residual: Residual = field(repr=False, compare=False)

    def check(self) -> None:
        """Validate capacity and conservation constraints (testing aid)."""
        p = self.problem
        excess: list[Number] = [0] * p.n
        for j, f in enumerate(self.flows):
            if f < 0 or f > p.capacities[j]:
                raise FlowError(f"arc {j}: flow {f} violates capacity {p.capacities[j]}")
            excess[p.heads[j]] += f
            excess[p.tails[j]] -= f
        for v in range(p.n):
            if v in (p.source, p.sink):
                continue
            if excess[v] != 0:
                raise FlowError(f"conservation violated at node {v}: excess {excess[v]}")
        if excess[p.sink] != self.value or excess[p.source] != -self.value:
            raise FlowError(
                f"flow value {self.value} inconsistent with node excess "
                f"(source {excess[p.source]}, sink {excess[p.sink]})"
            )

    def source_side(self) -> np.ndarray:
        """Min-cut source side: nodes residually reachable from the source.

        The mask the Dinic kernel's last BFS handed over when there is one
        (read-only), else a fresh traversal.
        """
        mask = self.residual.source_mask
        if mask is None:
            mask = self.residual.reachable_from(self.problem.source)
        return mask

    def sink_side_complement(self) -> np.ndarray:
        """Largest min-cut source side: complement of nodes co-reachable to sink."""
        return ~self.residual.co_reachable_to(self.problem.sink)
