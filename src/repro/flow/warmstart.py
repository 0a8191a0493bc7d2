"""Warm-started parametric max-flow over monotone capacity increases.

The feasibility stack (Definitions 3–4) keeps solving the *same* extended
graph ``G*`` while only the virtual ``(s*, v)`` arc capacities grow: the
base problem, the ε-scaled certification probe, the ``f*`` relaxation, and
every probe of the margin search.  Solving each from scratch repeats all
the flow work; this module solves the base problem once with Dinic (the
only *cold* solve) and answers each subsequent capacity increase
*incrementally*:

* raise the forward residual slots of the changed arcs in place — the
  existing flow stays feasible because capacities only went up;
* re-augment from that flow with Dinic-on-residual: Dinic's phase loop
  never assumes a zero initial flow, so
  :func:`repro.flow.dinic.augment_residual` continues exactly where the
  previous parameter value stopped.

This is the Gallo–Grigoriadis–Tarjan parametric construction with Dinic
as its engine.  The cold solvers it is checked against (Edmonds–Karp and
push-relabel among them) live in :mod:`repro.flow.oracles`.

Everything is exact: capacities stay whatever number type the problem
uses (the feasibility stack runs scaled integers, falling back to
:class:`fractions.Fraction` past the magnitude guard — see
:meth:`ParametricMaxFlow.rescale`), and each step's :class:`~repro.flow.residual.FlowResult` supports
``min_cut`` / ``is_unique_min_cut`` unchanged because warm-started
residuals are indistinguishable from cold ones.

:meth:`ParametricMaxFlow.fork` checkpoints the engine in O(m) (the
residual shares its immutable topology arrays), which is what lets the
margin search restart every probe from the *last feasible* state even
though its bisection is not itself monotone.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import FlowError
from repro.flow.dinic import augment_residual, dinic
from repro.flow.residual import FlowProblem, FlowResult, Number
from repro.obs.metrics import get_registry
from repro.obs.spans import span

__all__ = ["ParametricMaxFlow", "source_arc_updates"]


def source_arc_updates(ext, override: Mapping[int, Number]) -> dict[int, Number]:
    """Map a ``{base node: new capacity}`` override onto arc indices of ``G*``.

    The arc order of :meth:`FlowProblem.from_extended` mirrors the arc
    order of the :class:`~repro.graphs.extended.ExtendedGraph`, so the
    indices address both representations.
    """
    from repro.graphs.extended import ArcKind  # local import avoids a cycle

    updates: dict[int, Number] = {}
    for i, (kind, ref) in enumerate(zip(ext.kinds, ext.refs)):
        if kind is ArcKind.SOURCE and int(ref) in override:
            updates[i] = override[int(ref)]
    return updates


class ParametricMaxFlow:
    """One cold solve, then incremental answers to capacity increases.

    >>> engine = ParametricMaxFlow(problem)          # cold solve (Dinic)
    >>> value = engine.raise_arc_capacities({3: 7})  # warm: re-augment
    >>> checkpoint = engine.fork()                   # O(m) state snapshot

    :meth:`raise_arc_capacities` returns the new max-flow value; the full
    :class:`FlowResult` (for ``min_cut`` / ``is_unique_min_cut`` / flow
    recovery) is materialised lazily by :attr:`result`, so value-only
    probes — the margin search's bisection — skip the O(m) snapshot cost.
    Successive results *share* the engine's live residual, so extract cuts
    from a step's result before advancing to the next step — or
    :meth:`fork` first.
    """

    __slots__ = ("_res", "_value", "_result")

    def __init__(self, problem: FlowProblem) -> None:
        with span("flow.solve", kind="cold"):
            base = dinic(problem)  # the one and only cold solve
        self._res = base.residual
        self._value = base.value
        self._result = base

    # -- state ---------------------------------------------------------
    @property
    def problem(self) -> FlowProblem:
        """The problem at the current parameter value (updated capacities)."""
        return self._res.problem

    @property
    def value(self) -> Number:
        return self._value

    @property
    def result(self) -> FlowResult:
        """The :class:`FlowResult` at the current parameter value.

        Materialised lazily: the per-arc flow snapshot is O(m), which
        value-only parameter sweeps never need to pay.
        """
        if self._result is None:
            self._result = FlowResult(
                problem=self._res.problem,
                value=self._value,
                flows=tuple(self._res.flows()),
                residual=self._res,
            )
        return self._result

    def fork(self) -> "ParametricMaxFlow":
        """An independent engine sharing nothing mutable with this one.

        O(m): the residual array is copied, the topology arrays are
        aliased.  Used by the margin search to probe a capacity increase
        without committing to it.
        """
        clone = object.__new__(ParametricMaxFlow)
        clone._res = self._res.fork()
        clone._value = self._value
        clone._result = None
        return clone

    def rescale(self, factor: Number) -> None:
        """Multiply every capacity, residual slot and the flow value by ``factor``.

        ``factor`` is a positive int (refine an integer scale so a new
        probe's capacities stay integral) or a ``Fraction`` (leave the
        integer scale for exact ``Fraction`` units).  Positive scaling
        keeps every residual's sign, so the flow stays maximum, the
        residual's ``source_mask`` stays valid and later steps take the
        same decisions.
        """
        res = self._res
        p = res.problem
        res.residual = [r * factor for r in res.residual]
        res.problem = FlowProblem._trusted(
            n=p.n, tails=p.tails, heads=p.heads,
            capacities=[c * factor for c in p.capacities],
            source=p.source, sink=p.sink, topology=p.topology,
        )
        self._value = self._value * factor
        self._result = None

    # -- the parametric step -------------------------------------------
    def raise_arc_capacities(
        self, new_caps: Mapping[int, Number], *, target_value: Number | None = None,
    ) -> Number:
        """Advance to ``new_caps`` (``{arc index: capacity}``) and re-solve warm.

        Returns the new max-flow value.  Capacities may only *increase* —
        a decrease would invalidate the carried flow and raises
        :class:`FlowError`.  Arcs not mentioned keep their capacity.

        ``target_value`` is an optional early-stop certificate: a value the
        caller has *proved* no flow can exceed (the feasibility probes use
        the total source-arc capacity).  Augmentation stops as soon as the
        flow reaches it, skipping the final no-path search; a flow can
        never overshoot a capacity bound, so the result stays exact.
        """
        with span("flow.solve", kind="warm"):
            return self._raise_arc_capacities(new_caps, target_value=target_value)

    def _raise_arc_capacities(
        self, new_caps: Mapping[int, Number], *, target_value: Number | None = None,
    ) -> Number:
        p = self._res.problem
        caps = list(p.capacities)
        changed = False
        for j, c in new_caps.items():
            if not (0 <= j < len(caps)):
                raise FlowError(f"arc index {j} out of range (m={len(caps)})")
            delta = c - caps[j]
            if delta < 0:
                raise FlowError(
                    f"parametric step must not decrease capacities: "
                    f"arc {j} {caps[j]} -> {c}"
                )
            if delta > 0:
                self._res.residual[2 * j] += delta
                caps[j] = c
                changed = True
        if changed:
            self._res.source_mask = None  # new residual may open paths out of the cut
        # topology and endpoints are unchanged and the new capacities were
        # validated monotone above, so skip __post_init__'s O(m) re-check
        problem = FlowProblem._trusted(
            n=p.n, tails=p.tails, heads=p.heads,
            capacities=caps, source=p.source, sink=p.sink, topology=p.topology,
        )
        self._res.problem = problem

        gained: Number = 0
        arc_pushes = 0
        if changed:
            target_gain = None
            if target_value is not None:
                target_gain = target_value - self._value
            gained, _, _, arc_pushes = augment_residual(
                self._res, target_gain=target_gain
            )
        self._value = self._value + gained

        reg = get_registry()
        if reg.enabled:
            lbl = {"algorithm": "dinic"}
            reg.counter("repro_flow_warm_solves_total",
                        "Warm-started parametric max-flow steps.",
                        ("algorithm",)).labels(**lbl).inc()
            reg.counter("repro_flow_warm_augment_arcs_total",
                        "Residual arcs pushed while re-augmenting warm steps.",
                        ("algorithm",)).labels(**lbl).inc(arc_pushes)

        self._result = None  # rebuilt on demand by .result
        return self._value
