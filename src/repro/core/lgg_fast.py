"""Vectorized Algorithm 1 — the engine hot path.

Per the hpc-parallel guidance (vectorize the bottleneck, keep a legible
reference): sorts over the half-edge arrays replace the per-node Python
loops of :func:`repro.core.lgg.lgg_select_reference`.

Presorted order: Algorithm 1 orders ``Γ(u)`` by revealed queue, then by
the tie key.  For the deterministic tie-breaks that key never changes
during a topology epoch, so :meth:`HalfEdges.presorted` orders the
half-edges by (sender, tie key) once per CSR snapshot
(:class:`PresortedOrder`, memoized on the snapshot).  The CSR already
groups half-edges by sender, so the presort only permutes inside each
sender block: position ``i`` keeps sender ``senders[i]`` and block rank
``rank[i] = i - indptr[senders[i]]``.  ``QUEUE_THEN_RANDOM`` builds the
same object per step from its one permutation draw.

Per step, one *stable* argsort of ``sender·(span+1) + revealed`` over the
presorted receivers orders each block by revealed queue; stability keeps
the tie-key order among equal revealed queues, so the result is exactly
the (sender, revealed queue, tie key) order.  Sender blocks stay where
they were, so the sender array, the rank and the true sender queues
``q_send`` need no reordering.

Correctness argument: within one sender's block sorted by ascending
revealed queue, the *eligible* half-edges (receiver revealed queue strictly
below the sender's true queue ``q_u``) form a prefix.  Algorithm 1 sends on
the first ``min(q_u, #eligible)`` of them, i.e. exactly the half-edges that
are both eligible and have within-block rank ``< q_u``.  Both conditions
are elementwise once ranks are known, so the whole step is one small sort
plus a handful of vector ops — no per-neighbour Python loop.  The scalar
selector and the ``(R, n)`` batched selector run this one body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.tiebreak import TieBreak, tie_keys
from repro.graphs.csr import CSRTopology
from repro.graphs.multigraph import MultiGraph

__all__ = ["HalfEdges", "PresortedOrder", "lgg_select_fast", "lgg_select_fast_batched"]

_INT64_KEYS = 1 << 63   # composite keys take values in [0, blocks·width)
_UINT16_KEYS = 1 << 16  # small enough for numpy's radix sort


def _block_argsort(senders: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Stable argsort of ``keys`` (``(H,)`` or ``(R, H)``) by (sender, key).

    ``senders`` is ascending (the CSR block layout), so one composite key
    ``sender·(span+1) + (key − min)`` sorts both at once.  It is ``uint16``
    when it fits (numpy radix-sorts those), int64 otherwise, and a 2-key
    ``lexsort`` when even int64 would overflow — exact for every input.
    """
    if keys.size == 0:
        return np.zeros(keys.shape, dtype=np.intp)
    lo, hi = int(keys.min()), int(keys.max())
    width = hi - lo + 1
    blocks = int(senders[-1]) + 1
    if blocks * width >= _INT64_KEYS:
        return np.lexsort((keys, np.broadcast_to(senders, keys.shape)), axis=-1)
    composite = senders * width + (keys - lo)
    if blocks * width <= _UINT16_KEYS:
        composite = composite.astype(np.uint16)
    return np.argsort(composite, axis=-1, kind="stable")


def _take(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``values`` gathered at ``index`` along the last axis; two ``(R, ·)``
    arrays pair up row by row, a 1-D side is shared by every row."""
    if values.ndim == index.ndim == 2:
        return np.take_along_axis(values, index, axis=1)
    return values[..., index]


@dataclass(frozen=True)
class PresortedOrder:
    """A topology's half-edges ordered by (sender, tie key).

    ``perm`` maps presorted positions to CSR slots; ``receivers`` and
    ``edge_ids`` are the CSR arrays permuted by it.  Sender blocks keep
    their CSR offsets, so ``rank`` — each position's rank inside its block
    — is the same for every tie-break.  The deterministic tie-breaks store
    one instance per CSR snapshot (:meth:`HalfEdges.presorted`), aliased
    by every simulator and policy on that topology; ``QUEUE_THEN_RANDOM``
    builds one per step, ``(R, H)``-shaped in the batched selector.
    """

    perm: np.ndarray
    receivers: np.ndarray
    edge_ids: np.ndarray
    rank: np.ndarray
    indptr: np.ndarray

    @cached_property
    def neighbor_lists(self) -> list[list[int]]:
        """Per-node receiver lists in tie-key order (the integer kernel's Γ(u))."""
        recv = self.receivers.tolist()
        bounds = self.indptr.tolist()
        return [recv[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


@dataclass(frozen=True)
class HalfEdges:
    """Flattened directed half-edge arrays of a multigraph.

    ``senders[i] -> receivers[i]`` over edge ``edge_ids[i]``; every
    undirected edge contributes two half-edges.  Built once per topology
    epoch and reused every step.
    """

    senders: np.ndarray
    receivers: np.ndarray
    edge_ids: np.ndarray
    indptr: np.ndarray  # CSR offsets: half-edges of node u in [indptr[u], indptr[u+1])
    num_edge_slots: int
    csr: CSRTopology = field(compare=False, repr=False)  # owns the presort memo

    @classmethod
    def from_graph(cls, graph: MultiGraph) -> "HalfEdges":
        # Zero-copy view of the shared CSR topology: the arrays are frozen
        # on the CSRTopology side, so aliasing is safe.
        csr = graph.to_csr()
        return cls(
            senders=csr.senders,
            receivers=csr.neighbors,
            edge_ids=csr.edge_ids,
            indptr=csr.indptr,
            num_edge_slots=csr.num_edge_slots,
            csr=csr,
        )

    @property
    def size(self) -> int:
        return len(self.senders)

    def presorted(self, tiebreak: TieBreak) -> PresortedOrder:
        """The (sender, tie key) order of a deterministic tie-break.

        Memoized on the CSR snapshot, so every consumer of one topology
        epoch shares one object and a graph mutation drops it.
        """
        if tiebreak is TieBreak.QUEUE_THEN_RANDOM:
            raise ValueError("QUEUE_THEN_RANDOM has no fixed order; draw one per step")
        memo = self.csr.presort_memo
        order = memo.get(tiebreak)
        if order is None:
            keys = tie_keys(tiebreak, self.receivers, self.edge_ids,
                            num_edge_slots=self.num_edge_slots)
            rank = np.arange(self.size, dtype=np.int64) - self.indptr[self.senders]
            order = self._ordered_by(keys, rank)
            for arr in (order.perm, order.receivers, order.edge_ids, order.rank):
                arr.setflags(write=False)  # aliased by every consumer: freeze
            order = memo.setdefault(tiebreak, order)
        return order

    def _ordered_by(self, keys: np.ndarray, rank: np.ndarray) -> PresortedOrder:
        perm = _block_argsort(self.senders, keys)
        return PresortedOrder(perm=perm, receivers=self.receivers[perm],
                              edge_ids=self.edge_ids[perm], rank=rank,
                              indptr=self.indptr)

    def _step_order(self, tiebreak: TieBreak, rngs) -> PresortedOrder:
        """This step's presorted order; ``rngs`` is one generator (scalar)
        or a list of them (one ``(R, H)`` row each) for the random tie-break."""
        if tiebreak is not TieBreak.QUEUE_THEN_RANDOM:
            return self.presorted(tiebreak)
        def draw(g):
            return tie_keys(tiebreak, self.receivers, self.edge_ids, g,
                            num_edge_slots=self.num_edge_slots)
        keys = np.stack([draw(g) for g in rngs]) if isinstance(rngs, list) else draw(rngs)
        return self._ordered_by(keys, self.presorted(TieBreak.QUEUE_THEN_ID).rank)


def _select(
    half: HalfEdges, pre: PresortedOrder, q_send: np.ndarray, revealed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The shared step body → ``(order, mask)`` over presorted positions.

    ``q_send`` holds the true sender queues per position (static: sorting
    keeps every block in place); ``revealed`` is ``(n,)`` or ``(R, n)``.
    ``order`` sorts each block by revealed receiver queue (stably, so the
    tie-key order survives) and ``mask`` marks Algorithm 1's picks among
    the sorted positions.
    """
    q_recv = _take(revealed, pre.receivers)
    order = _block_argsort(half.senders, q_recv)
    mask = (q_send > _take(q_recv, order)) & (pre.rank < q_send)
    return order, mask


def lgg_select_fast(
    half: HalfEdges,
    queues: np.ndarray,
    revealed: np.ndarray,
    *,
    tiebreak: TieBreak = TieBreak.QUEUE_THEN_ID,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Algorithm 1.

    Returns ``(edge_ids, senders, receivers)`` arrays of the selected
    transmissions, ordered by (sender, revealed queue, tie key) — the same
    order the reference implementation produces.  ``QUEUE_THEN_RANDOM``
    draws one permutation from ``rng`` per call, like the reference.
    """
    if half.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    pre = half._step_order(tiebreak, rng)
    order, chosen = _select(half, pre, queues[half.senders], revealed)
    sel = order[chosen]
    return pre.edge_ids[sel], half.senders[chosen], pre.receivers[sel]


def lgg_select_fast_batched(
    half: HalfEdges,
    queues: np.ndarray,
    revealed: np.ndarray,
    *,
    tiebreak: TieBreak = TieBreak.QUEUE_THEN_ID,
    rngs: list[np.random.Generator] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 1 for ``R`` replicas at once on an ``(R, n)`` queue matrix.

    One row-wise stable argsort over the shared presorted order replaces
    ``R`` per-replica selections, so row ``r``'s sorted order is *exactly*
    the order :func:`lgg_select_fast` would produce for replica ``r``
    (``QUEUE_THEN_RANDOM`` draws one permutation per replica from
    ``rngs[r]``, mirroring the scalar per-step draw).

    Returns ``(edge_ids, senders, receivers, mask)``, all ``(R, H)``: the
    half-edge arrays sorted per replica plus the boolean selection mask
    (``senders`` is a read-only broadcast: sorting keeps sender blocks in
    place).  Restricting row ``r`` to ``mask[r]`` yields replica ``r``'s
    selected transmissions in scalar engine order.
    """
    H = half.size
    R = queues.shape[0]
    if H == 0:
        empty = np.empty((R, 0), dtype=np.int64)
        return empty, empty.copy(), empty.copy(), np.empty((R, 0), dtype=bool)
    if tiebreak is TieBreak.QUEUE_THEN_RANDOM and rngs is None:
        raise ValueError("QUEUE_THEN_RANDOM tie-break needs per-replica rngs")
    pre = half._step_order(tiebreak, rngs)
    order, mask = _select(half, pre, queues[:, half.senders], revealed)
    return (_take(pre.edge_ids, order), np.broadcast_to(half.senders, (R, H)),
            _take(pre.receivers, order), mask)
