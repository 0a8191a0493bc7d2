"""Network specifications: the paper's S-D-networks and their R-generalized
extension.

Terminology map (paper → code):

* S-D-network (Section II) → ``NetworkSpec.classical(...)``: sources inject
  *exactly* ``in(s)`` per step (packet losses are modelled on links, or —
  equivalently per Section IV — as injection shortfall), sinks extract
  ``min(out(d), q_t(d))``.
* Pseudo-source (Definition 5) → a generalized node with ``R = 0`` whose
  arrival process may inject *less* than ``in(s)``.
* R-pseudo-destination (Definition 6) / R-generalized node (Definition 7)
  → ``NetworkSpec.generalized(...)`` with retention ``R``: extraction is
  *at most* ``out(v)`` but *at least* ``min(out(v), q - R)`` when
  ``q > R``, and the node may misreport ("lie about") its queue length as
  any value ``≤ R`` whenever the true length is ``≤ R``.
* Definition 8 → a spec where every node in ``S ∪ D`` is R-generalized and
  the rest behave classically (``in = out = 0``).

A classical S-D-network is exactly a 0-generalized network with truthful
revelation and exact injection — ``NetworkSpec.classical`` is literally a
thin wrapper that encodes that observation from the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Optional

import numpy as np

from repro.errors import SpecError
from repro.graphs.extended import ExtendedGraph, extended_graph_of
from repro.graphs.multigraph import MultiGraph

__all__ = ["NodeRole", "RevelationPolicy", "NetworkSpec"]


class NodeRole(Enum):
    """Role of a node, derived from its rates (Definition 7's convention)."""

    RELAY = "relay"            # in = out = 0
    SOURCE = "source"          # in > out  (classical source: out = 0)
    DESTINATION = "destination"  # 0 < out and in <= out (classical sink: in = 0)


class RevelationPolicy(Enum):
    """How an R-generalized node reveals its queue length (Def. 7(ii)).

    When ``q > R`` every policy reveals the truth (the definition forces
    it); they differ only in the ``q ≤ R`` regime.
    """

    TRUTHFUL = "truthful"        # reveal q (always legal: q <= R there)
    ALWAYS_R = "always_r"        # claim the maximum allowed, R
    ZERO = "zero"                # claim an empty queue
    RANDOM = "random"            # uniform integer in [0, R]


@dataclass(frozen=True)
class NetworkSpec:
    """Immutable description of an (R-generalized) S-D-network.

    Attributes
    ----------
    graph:
        The multigraph ``G``.
    in_rates / out_rates:
        ``node -> nonnegative int``; zero entries are normalised away.
    retention:
        The constant ``R ≥ 0`` of the generalized model (0 = classical).
    revelation:
        Queue-revelation policy for nodes in ``S ∪ D`` (relays are always
        truthful — the paper only generalizes sources/destinations).
    exact_injection:
        ``True`` (classical Section II): sources inject exactly ``in(s)``
        each step.  ``False`` (Definition 5 pseudo-sources): the arrival
        process may inject anywhere in ``[0, in(s)]``.
    """

    graph: MultiGraph
    in_rates: Mapping[int, int]
    out_rates: Mapping[int, int]
    retention: int = 0
    revelation: RevelationPolicy = RevelationPolicy.TRUTHFUL
    exact_injection: bool = True

    def __post_init__(self) -> None:
        n = self.graph.n
        for label, rates in (("in", self.in_rates), ("out", self.out_rates)):
            for v, r in rates.items():
                if not (0 <= v < n):
                    raise SpecError(f"{label}_rates references unknown node {v}")
                if not isinstance(r, (int, np.integer)):
                    raise SpecError(f"{label}({v}) = {r!r} must be an integer")
                if r < 0:
                    raise SpecError(f"{label}({v}) = {r} is negative")
        if self.retention < 0:
            raise SpecError(f"retention R = {self.retention} must be >= 0")
        # normalise: drop zero rates, freeze as plain dicts
        object.__setattr__(
            self, "in_rates", {int(v): int(r) for v, r in sorted(self.in_rates.items()) if r > 0}
        )
        object.__setattr__(
            self, "out_rates", {int(v): int(r) for v, r in sorted(self.out_rates.items()) if r > 0}
        )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def classical(
        cls,
        graph: MultiGraph,
        in_rates: Mapping[int, int],
        out_rates: Mapping[int, int],
    ) -> "NetworkSpec":
        """A classical S-D-network (Section II).

        Sources and sinks must be disjoint — the paper's classical model
        keeps ``S`` and ``D`` separate; use :meth:`generalized` for nodes
        that both inject and extract.
        """
        overlap = set(k for k, r in in_rates.items() if r > 0) & set(
            k for k, r in out_rates.items() if r > 0
        )
        if overlap:
            raise SpecError(
                f"classical S-D-networks need disjoint sources and sinks; "
                f"overlap: {sorted(overlap)} (use NetworkSpec.generalized)"
            )
        return cls(graph=graph, in_rates=in_rates, out_rates=out_rates, retention=0,
                   revelation=RevelationPolicy.TRUTHFUL, exact_injection=True)

    @classmethod
    def generalized(
        cls,
        graph: MultiGraph,
        in_rates: Mapping[int, int],
        out_rates: Mapping[int, int],
        retention: int,
        revelation: RevelationPolicy = RevelationPolicy.TRUTHFUL,
    ) -> "NetworkSpec":
        """An R-generalized S-D-network (Definition 8)."""
        return cls(graph=graph, in_rates=in_rates, out_rates=out_rates,
                   retention=retention, revelation=revelation, exact_injection=False)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def sources(self) -> list[int]:
        """Nodes with ``in > out`` (plus classical pure sources)."""
        return [v for v in sorted(set(self.in_rates) | set(self.out_rates))
                if self.in_rates.get(v, 0) > self.out_rates.get(v, 0)]

    @property
    def destinations(self) -> list[int]:
        """Nodes with ``out > 0`` and ``in <= out`` (Definition 7's split)."""
        return [v for v in sorted(set(self.in_rates) | set(self.out_rates))
                if self.out_rates.get(v, 0) > 0
                and self.in_rates.get(v, 0) <= self.out_rates.get(v, 0)]

    @property
    def terminals(self) -> list[int]:
        """``S ∪ D`` — every node with a nonzero rate."""
        return sorted(set(self.in_rates) | set(self.out_rates))

    def role(self, v: int) -> NodeRole:
        i, o = self.in_rates.get(v, 0), self.out_rates.get(v, 0)
        if i == 0 and o == 0:
            return NodeRole.RELAY
        return NodeRole.SOURCE if i > o else NodeRole.DESTINATION

    @property
    def arrival_rate(self) -> int:
        """``Σ_v in(v)`` — packets entering per step at full injection."""
        return sum(self.in_rates.values())

    @property
    def is_generalized(self) -> bool:
        return self.retention > 0 or not self.exact_injection or (
            self.revelation is not RevelationPolicy.TRUTHFUL
        )

    def in_vector(self) -> np.ndarray:
        """Dense int64 ``in(v)`` vector."""
        out = np.zeros(self.n, dtype=np.int64)
        for v, r in self.in_rates.items():
            out[v] = r
        return out

    def out_vector(self) -> np.ndarray:
        """Dense int64 ``out(v)`` vector."""
        out = np.zeros(self.n, dtype=np.int64)
        for v, r in self.out_rates.items():
            out[v] = r
        return out

    def extended(self, *, source_scale=1) -> ExtendedGraph:
        """The extended graph ``G*`` of this network (Fig. 2 / Fig. 4).

        Memoized per topology epoch and rate maps: equal specs on one
        graph share one ``G*`` and every flow substrate cached on it.
        """
        return extended_graph_of(
            self.graph, self.in_rates, self.out_rates, source_scale=source_scale
        )

    def with_retention(self, retention: int) -> "NetworkSpec":
        """Copy of this spec with a different ``R`` (induction bookkeeping)."""
        return replace(self, retention=retention)

    def with_rates(
        self,
        in_rates: Optional[Mapping[int, int]] = None,
        out_rates: Optional[Mapping[int, int]] = None,
    ) -> "NetworkSpec":
        """Copy with replaced rate maps (used by the Section V-C reduction)."""
        return replace(
            self,
            in_rates=self.in_rates if in_rates is None else in_rates,
            out_rates=self.out_rates if out_rates is None else out_rates,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkSpec(n={self.n}, m={self.graph.m}, "
            f"sources={len(self.sources)}, destinations={len(self.destinations)}, "
            f"R={self.retention}, arrival={self.arrival_rate})"
        )
