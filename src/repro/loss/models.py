"""Loss-model implementations.

A loss model receives the step's transmissions and returns a boolean mask
(``True`` = lost in transit).  All models are seeded through the engine's
generator, keeping runs reproducible.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.errors import SpecError

__all__ = [
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "AdversarialEdgeLoss",
    "TargetedNodeLoss",
]


class LossModel(Protocol):
    """``sample(edge_ids, senders, receivers, t, rng) -> bool[k]``.

    Batched backend: a model may additionally expose
    ``sample_batch(edge_ids, senders, receivers, selected, t, rngs)``
    over ``(R, H)`` half-edge matrices (``selected`` is the boolean
    transmission mask; the return is a lost-mask ⊆ ``selected``).  It MUST
    be equivalent to calling ``sample`` per replica on the masked entries
    with that replica's generator — draw-free models can vectorise across
    replicas outright; stochastic ones loop.  Stateful models should *not*
    implement it and should be given to the ensemble as per-replica
    instances instead.
    """

    def sample(
        self,
        edge_ids: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
        t: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        ...


class NoLoss:
    """Every transmission succeeds (the Section V-B hypothesis)."""

    def sample(self, edge_ids, senders, receivers, t, rng) -> np.ndarray:
        return np.zeros(len(edge_ids), dtype=bool)

    def sample_batch(self, edge_ids, senders, receivers, selected, t, rngs) -> np.ndarray:
        return np.zeros(selected.shape, dtype=bool)


class BernoulliLoss:
    """Independent loss with probability ``p`` per transmission."""

    def __init__(self, p: float) -> None:
        if not (0.0 <= p <= 1.0):
            raise SpecError(f"loss probability must be in [0, 1], got {p}")
        self.p = p

    def sample(self, edge_ids, senders, receivers, t, rng) -> np.ndarray:
        if self.p == 0.0:
            return np.zeros(len(edge_ids), dtype=bool)
        return rng.random(len(edge_ids)) < self.p

    def sample_batch(self, edge_ids, senders, receivers, selected, t, rngs) -> np.ndarray:
        """Per-replica draws over the selected entries, mirroring ``sample``."""
        out = np.zeros(selected.shape, dtype=bool)
        if self.p == 0.0:
            return out
        # one draw per replica, in replica order, skipping the replicas that
        # sent nothing (as the engine skips the model); the boolean scatter
        # fills ``selected`` row-major, so each row gets its own draws
        draws = [rng.random(k) for rng, k in zip(rngs, selected.sum(axis=1).tolist()) if k]
        if draws:
            out[selected] = np.concatenate(draws) < self.p
        return out


class GilbertElliottLoss:
    """Two-state bursty channel per edge (good/bad), the classic
    Gilbert–Elliott model.

    Edges share transition probabilities but evolve independently; in the
    bad state a transmission is lost with ``p_bad``, in the good state with
    ``p_good``.  State is lazily allocated per edge id.
    """

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        *,
        p_loss_bad: float = 1.0,
        p_loss_good: float = 0.0,
    ) -> None:
        for name, p in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("p_loss_bad", p_loss_bad),
            ("p_loss_good", p_loss_good),
        ):
            if not (0.0 <= p <= 1.0):
                raise SpecError(f"{name} must be in [0, 1], got {p}")
        self._gb = p_good_to_bad
        self._bg = p_bad_to_good
        self._pb = p_loss_bad
        self._pg = p_loss_good
        self._bad: dict[int, bool] = {}

    def sample(self, edge_ids, senders, receivers, t, rng) -> np.ndarray:
        out = np.zeros(len(edge_ids), dtype=bool)
        for i, eid in enumerate(edge_ids):
            eid = int(eid)
            bad = self._bad.get(eid, False)
            p = self._pb if bad else self._pg
            out[i] = rng.random() < p
            # evolve the channel after use
            if bad:
                if rng.random() < self._bg:
                    self._bad[eid] = False
            else:
                if rng.random() < self._gb:
                    self._bad[eid] = True
        return out


class AdversarialEdgeLoss:
    """Drop everything crossing a fixed set of edges (cut sabotage).

    The strongest structured adversary compatible with Section II: it
    turns chosen links into pure packet sinks.  Useful to stress the
    Conjecture 1 domination claim — losing a packet is equivalent to it
    never having been injected downstream.
    """

    def __init__(self, edges: Sequence[int]) -> None:
        self._edges = frozenset(int(e) for e in edges)

    def sample(self, edge_ids, senders, receivers, t, rng) -> np.ndarray:
        return np.array([int(e) in self._edges for e in edge_ids], dtype=bool)

    def sample_batch(self, edge_ids, senders, receivers, selected, t, rngs) -> np.ndarray:
        """Draw-free: vectorised across all replicas at once."""
        sabotaged = np.isin(edge_ids, np.fromiter(self._edges, dtype=np.int64,
                                                  count=len(self._edges)))
        return sabotaged & selected


class TargetedNodeLoss:
    """Drop every packet *destined to* the given nodes with probability
    ``p`` — models a jammed receiver."""

    def __init__(self, nodes: Sequence[int], p: float = 1.0) -> None:
        if not (0.0 <= p <= 1.0):
            raise SpecError(f"loss probability must be in [0, 1], got {p}")
        self._nodes = frozenset(int(v) for v in nodes)
        self.p = p

    def sample(self, edge_ids, senders, receivers, t, rng) -> np.ndarray:
        targeted = np.array([int(v) in self._nodes for v in receivers], dtype=bool)
        if self.p >= 1.0:
            return targeted
        return targeted & (rng.random(len(receivers)) < self.p)
