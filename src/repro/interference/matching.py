"""Node-exclusive interference: active links must form a matching.

Conjecture 5: "If an oracle can provide an optimal set ``E_t`` in the
S-D-network G at time t, then LGG is stable on G."  The interference model
of the paper's reference [2] (Wu & Srikant, node-exclusive spectrum
sharing) is the standard instantiation: a node can take part in at most
one transmission per step, so the feasible ``E_t`` are matchings of the
candidate set.

Two schedulers are provided:

* :class:`OracleMatchingInterference` — the conjecture's oracle: a
  *maximum-weight* matching over the candidate transmissions, weighted by
  the queue differential ``q(u) − q'(v)`` (the max-weight/backpressure
  schedule known to be throughput-optimal in this class);
* :class:`GreedyMatchingInterference` — a maximal matching built greedily
  by descending weight: the practical, distributed-friendly 1/2
  approximation.
"""

from __future__ import annotations

from typing import Protocol

import networkx as nx
import numpy as np

__all__ = [
    "InterferenceModel",
    "GreedyMatchingInterference",
    "OracleMatchingInterference",
]


class InterferenceModel(Protocol):
    """``filter(...) -> bool[k]`` mask of transmissions allowed to proceed."""

    def filter(
        self,
        edge_ids: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
        queues: np.ndarray,
        revealed: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        ...


class GreedyMatchingInterference:
    """Maximal matching by descending queue differential.

    Deterministic: ties broken by (edge id, sender id).  Every node ends up
    in at most one surviving transmission; no surviving transmission could
    be added without a conflict (maximality).
    """

    def filter(self, edge_ids, senders, receivers, queues, revealed, rng) -> np.ndarray:
        k = len(edge_ids)
        keep = np.zeros(k, dtype=bool)
        if k == 0:
            return keep
        weight = queues[senders] - revealed[receivers]
        order = np.lexsort((senders, edge_ids, -weight))
        snd, rcv = senders.tolist(), receivers.tolist()
        busy: set[int] = set()
        for i in order.tolist():
            u, v = snd[i], rcv[i]
            if u in busy or v in busy:
                continue
            keep[i] = True
            busy.add(u)
            busy.add(v)
        return keep


class OracleMatchingInterference:
    """Maximum-weight matching over the candidates (the Conjecture 5 oracle).

    Weights are the queue differentials (clamped at ≥ 1 so zero-differential
    candidates may still be scheduled when they cost nothing); solved
    exactly with networkx's blossom implementation.
    """

    def filter(self, edge_ids, senders, receivers, queues, revealed, rng) -> np.ndarray:
        k = len(edge_ids)
        keep = np.zeros(k, dtype=bool)
        if k == 0:
            return keep
        g = nx.Graph()
        weight = queues[senders] - revealed[receivers]
        # keep the best candidate per unordered node pair (blossom wants a
        # simple graph); remember which transmission index it stands for
        best: dict[tuple[int, int], tuple[int, int]] = {}
        for i in range(k):
            u, v = int(senders[i]), int(receivers[i])
            key = (u, v) if u < v else (v, u)
            w = int(max(weight[i], 1))
            if key not in best or w > best[key][0]:
                best[key] = (w, i)
        for (u, v), (w, i) in best.items():
            g.add_edge(u, v, weight=w, index=i)
        matching = nx.max_weight_matching(g, maxcardinality=False)
        for u, v in matching:
            keep[g.edges[u, v]["index"]] = True
        return keep
