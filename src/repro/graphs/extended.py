"""The extended graph ``G*`` of the paper (Fig. 2 and Fig. 4).

``G*`` augments the network multigraph ``G`` with a virtual source ``s*``
and a virtual sink ``d*``:

* an arc ``(s*, v)`` of capacity ``in(v)`` for every node with ``in(v) > 0``,
* an arc ``(v, d*)`` of capacity ``out(v)`` for every node with
  ``out(v) > 0``,
* every (undirected, unit-capacity) edge of ``G`` becomes a pair of opposite
  arcs of capacity 1 each — the standard undirected-to-directed reduction,
  which preserves the max-flow value.

For a classical S-D-network only sources have ``in`` and only sinks have
``out``; for an R-generalized network (Fig. 4) the same node may carry both,
and both arcs are present.

This module only *describes* the construction (node numbering + arc table);
solving flows on it is the job of :mod:`repro.flow`.

One ``G*`` is the flow substrate of every verdict on its network, so it
also carries what every solve over it shares: the residual
:class:`~repro.flow.residual.FlowTopology`, the non-source capacities
scaled to one integer denominator, the λ = 0 rung of the parametric
ladder (its one cold solve) and the plateau line per ray support.  Each
is built on first use and then shared by every parametric ladder
(``classify_network``, the envelope, ``classify_region``, the margin) —
never mutated.
:func:`extended_graph_of` memoizes the graph itself per topology epoch:
it lives on the multigraph's cached
:class:`~repro.graphs.csr.CSRTopology`, so a mutation retires it with
the snapshot.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Optional, Union

import numpy as np

from repro.errors import GraphError
from repro.graphs.multigraph import MultiGraph
from repro.numeric import ScaledValues, try_scale

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flow.residual import FlowTopology
    from repro.flow.warmstart import ParametricMaxFlow

__all__ = ["ArcKind", "ExtendedGraph", "build_extended_graph", "extended_graph_of"]

Number = Union[int, float, Fraction]


class ArcKind(Enum):
    """Provenance of an arc of ``G*``."""

    EDGE_FWD = "edge_fwd"  # u -> v copy of an undirected edge (u, v)
    EDGE_BWD = "edge_bwd"  # v -> u copy of the same edge
    SOURCE = "source"      # s* -> v, capacity in(v)
    SINK = "sink"          # v -> d*, capacity out(v)


@dataclass(frozen=True)
class ExtendedGraph:
    """Immutable description of ``G*``.

    Nodes ``0 .. n-1`` are the nodes of the base graph; ``s_star == n`` and
    ``d_star == n + 1``.  Arcs are parallel arrays; ``ref[i]`` is the base
    edge id for ``EDGE_*`` arcs and the base node id for ``SOURCE`` /
    ``SINK`` arcs.  One instance is shared by every solve on its network
    (see :func:`extended_graph_of`): treat all of it, rate maps included,
    as read-only.
    """

    n_base: int
    s_star: int
    d_star: int
    tails: np.ndarray          # int64, arc tail node
    heads: np.ndarray          # int64, arc head node
    capacities: tuple[Number, ...]
    kinds: tuple[ArcKind, ...]
    refs: np.ndarray           # int64, provenance reference
    in_rates: Mapping[int, Number] = field(default_factory=dict)
    out_rates: Mapping[int, Number] = field(default_factory=dict)

    @property
    def n(self) -> int:
        """Total node count of ``G*`` (base nodes + the two virtual nodes)."""
        return self.n_base + 2

    @property
    def num_arcs(self) -> int:
        return len(self.tails)

    @cached_property
    def arc_lists(self) -> tuple[list[int], list[int]]:
        """Arc ``(tails, heads)`` as plain Python-int lists.

        Cached on the (frozen) instance so every
        :meth:`~repro.flow.residual.FlowProblem.from_extended` call over the
        same ``G*`` — the feasibility classifier builds several per verdict —
        shares one conversion instead of re-walking the numpy arrays.  The
        lists are aliased, never copied; callers must not mutate them.
        """
        return self.tails.tolist(), self.heads.tolist()

    @cached_property
    def source_arcs(self) -> list[int]:
        """Indices of the ``(s*, v)`` arcs, ascending."""
        return np.flatnonzero(self.tails == self.s_star).tolist()

    @cached_property
    def fixed_capacities(self) -> Optional[ScaledValues]:
        """Every capacity but the source arcs' (zeroed), on one integer scale.

        The non-parametric part of every ladder's capacity vector: ladders
        alias the integers and scale only their own source arcs.  ``None``
        when the common denominator or a scaled capacity would pass
        ``INT_SCALE_LIMIT`` — then every ladder runs on ``Fraction``.
        """
        caps = list(self.capacities)
        for j in self.source_arcs:
            caps[j] = 0
        return try_scale(caps)

    @cached_property
    def flow_topology(self) -> "FlowTopology":
        """The residual adjacency of ``G*``, shared by every solve on it."""
        from repro.flow.residual import FlowTopology  # local import avoids a cycle

        return FlowTopology(self.n, self.tails, self.heads)

    @cached_property
    def base_rung(self) -> "ParametricMaxFlow":
        """The λ = 0 rung every parametric ladder on ``G*`` starts from.

        The one cold solve per ``G*``: zero flow on the fixed capacities,
        every source arc closed, on ``fixed_capacities.denominator`` (on
        ``Fraction`` when that scale is ``None``).  It is the same for
        every ray, so ladders only ever fork it — read-only.
        """
        from repro.flow.residual import FlowProblem  # local imports avoid a cycle
        from repro.flow.warmstart import ParametricMaxFlow

        fixed = self.fixed_capacities
        if fixed is not None:
            caps = fixed.ints
        else:
            caps = [Fraction(c) for c in self.capacities]
            for j in self.source_arcs:
                caps[j] = Fraction(0)
        tails, heads = self.arc_lists
        return ParametricMaxFlow(FlowProblem._trusted(
            n=self.n, tails=tails, heads=heads, capacities=caps,
            source=self.s_star, sink=self.d_star, topology=self.flow_topology))

    @cached_property
    def plateau_lines(self) -> dict:
        """The plateau line of ``v(λ)`` per ray support, banked by the first
        ladder that probes it.

        Keyed by the ``frozenset`` of parametric source arcs: the plateau
        (slope 0, value ``f*``) is the source-minimal min cut of ``G*`` with
        those arcs uncapped, whatever the ray's weights.
        """
        return {}

    def arcs_of_kind(self, kind: ArcKind) -> np.ndarray:
        """Indices of arcs with the given provenance."""
        return np.array([i for i, k in enumerate(self.kinds) if k is kind], dtype=np.int64)

    def source_arc_of(self, v: int) -> int:
        """Arc index of ``(s*, v)``; raises if ``v`` has no injection."""
        for i, (k, r) in enumerate(zip(self.kinds, self.refs)):
            if k is ArcKind.SOURCE and r == v:
                return i
        raise GraphError(f"node {v} has no (s*, v) arc")

    def sink_arc_of(self, v: int) -> int:
        """Arc index of ``(v, d*)``; raises if ``v`` has no extraction."""
        for i, (k, r) in enumerate(zip(self.kinds, self.refs)):
            if k is ArcKind.SINK and r == v:
                return i
        raise GraphError(f"node {v} has no (v, d*) arc")

    def total_injection(self) -> Number:
        """The arrival rate ``Σ in(v)`` — capacity out of ``s*``."""
        return sum(self.in_rates.values(), start=0)


def build_extended_graph(
    graph: MultiGraph,
    in_rates: Mapping[int, Number],
    out_rates: Mapping[int, Number],
    *,
    edge_capacity: Number = 1,
    source_scale: Number = 1,
) -> ExtendedGraph:
    """Construct ``G*`` from a base multigraph and injection/extraction rates.

    Parameters
    ----------
    graph:
        The network multigraph ``G``.
    in_rates / out_rates:
        ``node -> rate`` maps.  Zero-rate entries are dropped; negative rates
        are rejected.  A node may appear in both maps (R-generalized model).
    edge_capacity:
        Per-link capacity; the paper fixes this to 1, but the parameter keeps
        capacity-scaling experiments honest.
    source_scale:
        Multiplies every ``in(v)`` capacity — ``source_scale = 1 + eps`` is
        exactly the unsaturated test of Definition 4.
    """
    n = graph.n
    for label, rates in (("in", in_rates), ("out", out_rates)):
        for v, r in rates.items():
            if not (0 <= v < n):
                raise GraphError(f"{label}_rates references unknown node {v}")
            if r < 0:
                raise GraphError(f"{label}({v}) = {r} is negative")
    in_clean = {v: r for v, r in sorted(in_rates.items()) if r > 0}
    out_clean = {v: r for v, r in sorted(out_rates.items()) if r > 0}

    # Live edge k becomes arcs 2k (tail -> head, as added) and 2k + 1 (the
    # reverse), in edge-id order; then the source arcs, then the sink arcs.
    csr = graph.to_csr()
    m = csr.m
    s_star, d_star = n, n + 1
    k_in, k_out = len(in_clean), len(out_clean)
    size = 2 * m + k_in + k_out
    tails = np.empty(size, dtype=np.int64)
    heads = np.empty(size, dtype=np.int64)
    refs = np.empty(size, dtype=np.int64)
    tails[0:2 * m:2] = heads[1:2 * m:2] = csr.tails
    heads[0:2 * m:2] = tails[1:2 * m:2] = csr.heads
    refs[0:2 * m:2] = refs[1:2 * m:2] = csr.eids
    tails[2 * m:2 * m + k_in] = s_star
    heads[2 * m:2 * m + k_in] = refs[2 * m:2 * m + k_in] = list(in_clean)
    tails[2 * m + k_in:] = refs[2 * m + k_in:] = list(out_clean)
    heads[2 * m + k_in:] = d_star
    for arr in (tails, heads, refs):
        arr.setflags(write=False)  # shared by every solve: freeze

    return ExtendedGraph(
        n_base=n,
        s_star=s_star,
        d_star=d_star,
        tails=tails,
        heads=heads,
        capacities=((edge_capacity,) * (2 * m)
                    + tuple(r * source_scale for r in in_clean.values())
                    + tuple(out_clean.values())),
        kinds=((ArcKind.EDGE_FWD, ArcKind.EDGE_BWD) * m
               + (ArcKind.SOURCE,) * k_in + (ArcKind.SINK,) * k_out),
        refs=refs,
        in_rates=in_clean,
        out_rates=out_clean,
    )


#: ``G*`` instances kept per topology snapshot (one per rate-map pair).
_MEMO_PER_SNAPSHOT = 4
_memo_lock = threading.Lock()


def extended_graph_of(
    graph: MultiGraph,
    in_rates: Mapping[int, Number],
    out_rates: Mapping[int, Number],
    *,
    source_scale: Number = 1,
) -> ExtendedGraph:
    """:func:`build_extended_graph`, memoized on the graph's CSR snapshot.

    Every caller asking for the same rate maps on the same topology epoch
    gets the same :class:`ExtendedGraph` — and with it the same residual
    topology and scaled capacities.  A graph mutation replaces the
    snapshot and so drops its memo; each snapshot keeps at most
    ``_MEMO_PER_SNAPSHOT`` graphs, evicting the oldest first.
    """
    memo = graph.to_csr().extended_memo
    # types are part of the key: 2 and Fraction(2) hash alike but make
    # differently-typed capacities
    key = tuple(tuple((v, type(r), r) for v, r in sorted(rates.items()))
                for rates in (in_rates, out_rates, {0: source_scale}))
    with _memo_lock:
        ext = memo.get(key)
    if ext is None:
        ext = build_extended_graph(graph, in_rates, out_rates, source_scale=source_scale)
        with _memo_lock:
            ext = memo.setdefault(key, ext)
            while len(memo) > _MEMO_PER_SNAPSHOT:
                memo.pop(next(iter(memo)))
    return ext
