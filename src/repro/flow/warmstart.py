"""Warm-started parametric max-flow over monotone capacity increases.

The feasibility stack (Definitions 3–4) keeps solving the *same* extended
graph ``G*`` while only the virtual ``(s*, v)`` arc capacities grow: the
base problem, the ε-scaled certification probe, the ``f*`` relaxation, and
every probe of the margin search.  Solving each from scratch repeats all
the flow work; this module solves the base problem once (the only *cold*
solve) and answers each subsequent capacity increase *incrementally*:

* raise the forward residual slots of the changed arcs in place — the
  existing flow stays feasible because capacities only went up;
* re-augment from that flow:

  - **Dinic-on-residual** (``dinic`` / ``edmonds_karp`` engines): Dinic's
    phase loop never assumes a zero initial flow, so
    :func:`repro.flow.dinic.augment_residual` continues exactly where the
    previous parameter value stopped;
  - **warm push-relabel** (``push_relabel`` / ``push_relabel_fifo``
    engines, Gallo–Grigoriadis–Tarjan style): saturate the residual arcs
    out of the source (re-creating a preflow), keep the height function
    from the previous step when it is still a valid labeling — raising
    capacities can only invalidate it on the re-created arcs, which is
    checked — and otherwise repair it with one exact global relabeling
    (BFS distance labels, O(m)); then discharge the new excess.  The
    expensive part — the flow itself — always carries over.

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

from collections import deque
from typing import Mapping

from repro.errors import FlowError
from repro.flow.dinic import augment_residual
from repro.flow.maxflow import ALGORITHMS, max_flow
from repro.flow.residual import FlowProblem, FlowResult, Number, Residual
from repro.obs.metrics import get_registry
from repro.obs.spans import span

__all__ = ["ParametricMaxFlow", "source_arc_updates"]

_PUSH_RELABEL_ENGINES = frozenset({"push_relabel", "push_relabel_fifo"})


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


def _global_relabel(res: Residual) -> list[int]:
    """Exact BFS distance labels — always a valid push-relabel labeling.

    Sink-side nodes get their residual distance to ``t``; nodes that
    cannot reach ``t`` get ``n`` + their residual distance to ``s`` (the
    drain-back labels); nodes that can reach neither are inert — no
    preflow excess can ever sit on them — and are parked at ``2n``.
    """
    problem = res.problem
    n, s, t = problem.n, problem.source, problem.sink
    topo = res.topology
    indptr, arcs = topo.indptr, topo.arcs
    to, residual = res.to, res.residual
    unset = 2 * n
    height = [unset] * n
    height[t] = 0
    queue = deque([t])
    while queue:
        w = queue.popleft()
        d = height[w] + 1
        for i in range(indptr[w], indptr[w + 1]):
            a = arcs[i]
            # arc a leaves w; its partner a^1 runs to[a] -> w
            # (truthiness == "> 0": residuals are never negative, and it
            # skips the costly Fraction rational comparison)
            if residual[a ^ 1]:
                u = to[a]
                if u != s and height[u] == unset:
                    height[u] = d
                    queue.append(u)
    height[s] = n
    queue = deque([s])
    while queue:
        w = queue.popleft()
        d = height[w] + 1
        for i in range(indptr[w], indptr[w + 1]):
            a = arcs[i]
            if residual[a ^ 1]:
                u = to[a]
                if u != t and height[u] == unset:
                    height[u] = d
                    queue.append(u)
    return height


def _labeling_valid(res: Residual, height: list[int]) -> bool:
    """True iff ``height[u] <= height[v] + 1`` for every residual arc u->v."""
    problem = res.problem
    if height[problem.source] != problem.n or height[problem.sink] != 0:
        return False
    residual = res.residual
    to = res.to
    topo = res.topology
    indptr, arcs = topo.indptr, topo.arcs
    for u in range(topo.n):
        hu = height[u]
        for i in range(indptr[u], indptr[u + 1]):
            a = arcs[i]
            if residual[a] and hu > height[to[a]] + 1:
                return False
    return True


def _pr_reaugment(res: Residual, height: list[int] | None) -> tuple:
    """Warm push-relabel step: saturate source arcs, discharge new excess.

    Returns ``(gained, arc_pushes, height)`` — the flow added on top of
    the residual's current flow, the number of residual-arc pushes, and
    the (possibly repaired) height function to carry into the next step.
    """
    problem = res.problem
    n, s, t = problem.n, problem.source, problem.sink
    topo = res.topology
    indptr, arcs = topo.indptr, topo.arcs
    to, residual = res.to, res.residual
    excess: list = [0] * n
    arc_pushes = 0

    # Re-create the preflow: every residual arc out of s gets saturated.
    # The flow already routed to t is untouched; the new excess either
    # reaches t (the gain) or drains back to s during discharge.
    for i in range(indptr[s], indptr[s + 1]):
        a = arcs[i]
        amt = residual[a]
        if amt:
            v = to[a]
            if v == t:
                # direct s->t arcs contribute immediately
                res.push(a, amt)
                excess[t] += amt
                arc_pushes += 1
                continue
            res.push(a, amt)
            excess[v] += amt
            arc_pushes += 1

    if height is None or not _labeling_valid(res, height):
        height = _global_relabel(res)

    count = [0] * (2 * n + 1)
    for h in height:
        count[min(h, 2 * n)] += 1
    # per-node current-arc cursor, absolute into the flat arcs array
    it = list(indptr[:n])

    active: deque[int] = deque()
    in_active = [False] * n
    for v in range(n):
        if v not in (s, t) and excess[v]:
            in_active[v] = True
            active.append(v)

    def activate(v: int) -> None:
        if v not in (s, t) and not in_active[v] and excess[v]:
            in_active[v] = True
            active.append(v)

    def push(u: int, a: int) -> None:
        nonlocal arc_pushes
        v = to[a]
        amount = excess[u] if excess[u] < residual[a] else residual[a]
        res.push(a, amount)
        excess[u] -= amount
        excess[v] += amount
        activate(v)
        arc_pushes += 1

    def relabel(u: int) -> None:
        old = height[u]
        new = min(
            (
                height[to[arcs[i]]]
                for i in range(indptr[u], indptr[u + 1])
                if residual[arcs[i]]
            ),
            default=2 * n - 1,
        ) + 1
        count[old] -= 1
        if count[old] == 0 and old < n:  # gap heuristic
            for w in range(n):
                if old < height[w] < n and w != s:
                    count[height[w]] -= 1
                    height[w] = n + 1
                    count[height[w]] += 1
        height[u] = new
        count[min(new, 2 * n)] += 1
        it[u] = indptr[u]

    while active:
        u = active.popleft()
        in_active[u] = False
        end = indptr[u + 1]
        while excess[u]:
            if it[u] == end:
                relabel(u)
                if height[u] >= 2 * n:
                    break
                continue
            a = arcs[it[u]]
            if residual[a] and height[u] == height[to[a]] + 1:
                push(u, a)
            else:
                it[u] += 1
        if excess[u] and height[u] < 2 * n:
            activate(u)

    return excess[t], arc_pushes, height


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

    __slots__ = ("algorithm", "_res", "_value", "_result", "_height",
                 "warm_steps", "warm_arc_pushes")

    def __init__(self, problem: FlowProblem, algorithm: str = "dinic") -> None:
        if algorithm not in ALGORITHMS:
            raise FlowError(
                f"unknown algorithm {algorithm!r}; available: {sorted(ALGORITHMS)}"
            )
        self.algorithm = algorithm
        with span("flow.solve", algorithm=algorithm, kind="cold"):
            base = max_flow(problem, algorithm)  # the one and only cold solve
        self._res = base.residual
        self._value = base.value
        self._result = base
        self._height: list[int] | None = None
        self.warm_steps = 0
        self.warm_arc_pushes = 0

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

        O(m): the residual array and height function are copied, the
        topology arrays are aliased.  Used by the margin search to probe a
        capacity increase without committing to it.
        """
        clone = object.__new__(ParametricMaxFlow)
        clone.algorithm = self.algorithm
        clone._res = self._res.fork()
        clone._value = self._value
        clone._height = list(self._height) if self._height is not None else None
        clone.warm_steps = self.warm_steps
        clone.warm_arc_pushes = self.warm_arc_pushes
        clone._result = None
        return clone

    def rescale(self, factor: Number) -> None:
        """Multiply every capacity, residual slot and the flow value by ``factor``.

        ``factor`` is a positive int (refine an integer scale so a new
        probe's capacities stay integral) or a ``Fraction`` (leave the
        integer scale for exact ``Fraction`` units).  Positive scaling
        keeps every residual's sign, so the flow stays maximum, heights
        and the residual's ``source_mask`` stay valid and later steps take
        the same decisions.
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
        never overshoot a capacity bound, so the result stays exact.  Only
        the Dinic-based engines use it — a push-relabel discharge cannot
        stop mid-flight without leaving preflow excess behind.
        """
        with span("flow.solve", algorithm=self.algorithm, kind="warm"):
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
            if self.algorithm in _PUSH_RELABEL_ENGINES:
                gained, arc_pushes, self._height = _pr_reaugment(self._res, self._height)
                # Belt and braces for exactness: a single no-op BFS when the
                # discharge already reached the max flow, a completion
                # otherwise.  Keeps every step certified independently of
                # push-relabel's termination subtleties.
                extra, _, _, extra_pushes = augment_residual(self._res)
                if extra:
                    gained += extra
                    arc_pushes += extra_pushes
                    self._height = None  # heights stale after Dinic touched flow
            else:
                target_gain = None
                if target_value is not None:
                    target_gain = target_value - self._value
                gained, _, _, arc_pushes = augment_residual(
                    self._res, target_gain=target_gain
                )

        self._value = self._value + gained
        self.warm_steps += 1
        self.warm_arc_pushes += arc_pushes

        reg = get_registry()
        if reg.enabled:
            lbl = {"algorithm": self.algorithm}
            reg.counter("repro_flow_warm_solves_total",
                        "Warm-started parametric max-flow steps.",
                        ("algorithm",)).labels(**lbl).inc()
            reg.counter("repro_flow_warm_augment_arcs_total",
                        "Residual arcs pushed while re-augmenting warm steps.",
                        ("algorithm",)).labels(**lbl).inc(arc_pushes)

        self._result = None  # rebuilt on demand by .result
        return self._value
