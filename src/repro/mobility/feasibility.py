"""Feasibility tracked *through* a mobility trace.

Per snapshot the question is the paper's Definition 3 on that instant's
radio graph: does a flow exist in ``G*`` routing the full arrival rate
``Σ in(v)``?  Solving each snapshot from scratch repeats almost all the
flow work — consecutive snapshots share most of their links — so
:func:`feasibility_timeline` reuses :class:`repro.flow.warmstart.\
ParametricMaxFlow` chains instead:

* **One arc universe.**  All snapshots are posed on a single
  :class:`~repro.flow.residual.FlowProblem` whose edge arcs cover every
  pair that is *ever* a link in the trace (two opposite unit arcs per
  pair), plus the usual ``(s*, v)`` / ``(v, d*)`` rate arcs.  A link
  absent from a snapshot is an arc of capacity 0 — so "this link
  appeared" is a monotone capacity increase, the only move the warm
  engine supports.
* **Block fork chains.**  Snapshots are grouped in blocks of ``block``;
  each block cold-solves its link-set *intersection* (the core every
  member shares) once, then answers each snapshot from an O(m)
  :meth:`~repro.flow.warmstart.ParametricMaxFlow.fork` of that core
  state by warm-raising only the snapshot's additions.  Link *removals*
  never need a (forbidden) capacity decrease — a removed link is simply
  not raised above the core.
* **Cold fallback.**  A snapshot whose delta from the core exceeds
  ``max_warm_delta`` pairs is solved cold — warm-starting from a nearly
  empty residual saves nothing.

Everything is exact :class:`fractions.Fraction` arithmetic, so the warm
timeline equals the cold-solve-per-snapshot oracle
(:func:`feasibility_timeline_cold`) *identically* — asserted by the
differential test in ``tests/mobility/test_feasibility.py``.  The
warm/cold split is exported through :mod:`repro.obs`
(``repro_mobility_steps_total``, ``repro_mobility_solves_total{mode}``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from repro.errors import SpecError
from repro.flow.dinic import dinic
from repro.flow.residual import FlowProblem
from repro.flow.warmstart import ParametricMaxFlow
from repro.mobility.trace import MobilityTrace
from repro.obs.metrics import get_registry
from repro.obs.spans import span

__all__ = [
    "TimelineEntry",
    "FeasibilityTimeline",
    "feasibility_timeline",
    "feasibility_timeline_cold",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class TimelineEntry:
    """Feasibility verdict for one snapshot of the trace."""

    t: int
    links: int                 # |link set| of the snapshot
    delta: int                 # pairs raised above the block core (warm work)
    mode: str                  # "warm" (fork + re-augment) or "cold"
    max_flow_value: Fraction   # == arrival iff feasible (value never exceeds it)
    feasible: bool


@dataclass(frozen=True)
class FeasibilityTimeline:
    """Per-snapshot feasibility of a mobility trace, plus solve accounting."""

    arrival: Fraction
    entries: tuple[TimelineEntry, ...]
    warm_solves: int
    cold_solves: int

    @property
    def always_feasible(self) -> bool:
        return all(e.feasible for e in self.entries)

    @property
    def feasible_fraction(self) -> float:
        return sum(e.feasible for e in self.entries) / len(self.entries)

    def first_infeasible(self) -> Optional[int]:
        """Step index of the first infeasible snapshot, or ``None``."""
        for e in self.entries:
            if not e.feasible:
                return e.t
        return None

    def __len__(self) -> int:
        return len(self.entries)


def _coerce_rates(rates: Mapping[int, object], n: int, label: str) -> dict[int, Fraction]:
    clean: dict[int, Fraction] = {}
    for v, r in sorted(rates.items()):
        if not (0 <= int(v) < n):
            raise SpecError(f"{label}_rates references unknown node {v} (n={n})")
        f = Fraction(r)
        if f < 0:
            raise SpecError(f"{label}({v}) = {r} is negative")
        if f > 0:
            clean[int(v)] = f
    return clean


class _UniverseProblem:
    """The fixed arc universe all snapshots of one trace are posed on.

    Arc layout mirrors :class:`~repro.graphs.extended.ExtendedGraph`: two
    opposite unit arcs per universe pair (``2k`` / ``2k + 1`` for pair
    ``k``), then the ``(s*, v)`` arcs, then the ``(v, d*)`` arcs.
    """

    def __init__(self, trace: MobilityTrace,
                 in_rates: Mapping[int, object],
                 out_rates: Mapping[int, object]) -> None:
        n = trace.n
        self.in_rates = _coerce_rates(in_rates, n, "in")
        self.out_rates = _coerce_rates(out_rates, n, "out")
        self.arrival = sum(self.in_rates.values(), start=_ZERO)
        self.pairs = trace.link_universe()
        self.pair_index = {p: k for k, p in enumerate(self.pairs)}
        self.s_star, self.d_star = n, n + 1
        tails: list[int] = []
        heads: list[int] = []
        for u, v in self.pairs:
            tails += (u, v)
            heads += (v, u)
        for v in self.in_rates:
            tails.append(self.s_star)
            heads.append(v)
        for v in self.out_rates:
            tails.append(v)
            heads.append(self.d_star)
        self.n_star = n + 2
        self.tails = tails
        self.heads = heads
        self._rate_caps = list(self.in_rates.values()) + list(self.out_rates.values())

    def problem(self, present: "set[tuple[int, int]]") -> FlowProblem:
        """The instance whose edge arcs carry capacity 1 on ``present``
        pairs and 0 elsewhere."""
        caps: list[Fraction] = []
        for p in self.pairs:
            c = _ONE if p in present else _ZERO
            caps += (c, c)
        caps.extend(self._rate_caps)
        return FlowProblem(
            n=self.n_star, tails=self.tails, heads=self.heads,
            capacities=caps, source=self.s_star, sink=self.d_star,
        )

    def raise_updates(self, pairs: "set[tuple[int, int]]") -> dict[int, Fraction]:
        """Arc-capacity updates opening ``pairs`` (both directions) to 1."""
        updates: dict[int, Fraction] = {}
        for p in pairs:
            k = self.pair_index[p]
            updates[2 * k] = _ONE
            updates[2 * k + 1] = _ONE
        return updates


def _note_solve(mode: str) -> None:
    reg = get_registry()
    if reg.enabled:
        reg.counter("repro_mobility_solves_total",
                    "Flow solves answering mobility snapshots, by warm/cold mode.",
                    ("mode",)).labels(mode=mode).inc()


def _note_steps(k: int) -> None:
    reg = get_registry()
    if reg.enabled:
        reg.counter("repro_mobility_steps_total",
                    "Mobility snapshots whose feasibility was evaluated.").inc(k)


def feasibility_timeline(
    trace: MobilityTrace,
    in_rates: Mapping[int, object],
    out_rates: Mapping[int, object],
    *,
    block: int = 8,
    max_warm_delta: Optional[int] = 256,
) -> FeasibilityTimeline:
    """Incremental per-snapshot Definition-3 feasibility of a trace.

    ``block`` snapshots share one cold core solve (their link-set
    intersection); each is then answered from a fork of the core by
    warm-raising its additions.  A snapshot more than ``max_warm_delta``
    pairs away from the core is solved cold instead (``None`` disables
    the fallback).  Exact arithmetic throughout — the result is
    entry-for-entry identical to :func:`feasibility_timeline_cold`.
    """
    if block < 1:
        raise SpecError(f"block must be >= 1, got {block}")
    if max_warm_delta is not None and max_warm_delta < 0:
        raise SpecError(f"max_warm_delta must be >= 0, got {max_warm_delta}")
    uni = _UniverseProblem(trace, in_rates, out_rates)
    arrival = uni.arrival
    entries: list[TimelineEntry] = []
    warm = cold = 0
    with span("mobility.timeline", snapshots=len(trace), block=block):
        for start in range(0, len(trace), block):
            chunk = trace.snapshots[start : start + block]
            link_sets = [set(s.links) for s in chunk]
            core: set[tuple[int, int]] = set.intersection(*link_sets)
            engine = ParametricMaxFlow(uni.problem(core))
            cold += 1
            _note_solve("cold")
            for snap, links in zip(chunk, link_sets):
                extra = links - core
                if max_warm_delta is not None and len(extra) > max_warm_delta:
                    value = dinic(uni.problem(links)).value
                    mode = "cold"
                    cold += 1
                elif extra:
                    fork = engine.fork()
                    value = fork.raise_arc_capacities(
                        uni.raise_updates(extra), target_value=arrival
                    )
                    mode = "warm"
                    warm += 1
                else:
                    # the snapshot *is* the core — the block solve answers it
                    value = engine.value
                    mode = "warm"
                    warm += 1
                _note_solve(mode)
                entries.append(TimelineEntry(
                    t=snap.t, links=len(links), delta=len(extra), mode=mode,
                    max_flow_value=value, feasible=(value == arrival),
                ))
    _note_steps(len(entries))
    return FeasibilityTimeline(
        arrival=arrival, entries=tuple(entries),
        warm_solves=warm, cold_solves=cold,
    )


def feasibility_timeline_cold(
    trace: MobilityTrace,
    in_rates: Mapping[int, object],
    out_rates: Mapping[int, object],
) -> FeasibilityTimeline:
    """The differential oracle: one independent cold solve per snapshot.

    Same universe problem, same exact arithmetic, no residual reuse —
    :func:`feasibility_timeline` must match it entry for entry.
    """
    uni = _UniverseProblem(trace, in_rates, out_rates)
    arrival = uni.arrival
    entries: list[TimelineEntry] = []
    for snap in trace.snapshots:
        links = set(snap.links)
        value = dinic(uni.problem(links)).value
        _note_solve("cold")
        entries.append(TimelineEntry(
            t=snap.t, links=len(links), delta=len(links), mode="cold",
            max_flow_value=value, feasible=(value == arrival),
        ))
    _note_steps(len(entries))
    return FeasibilityTimeline(
        arrival=arrival, entries=tuple(entries),
        warm_solves=0, cold_solves=len(entries),
    )
