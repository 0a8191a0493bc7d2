"""Goldberg–Tarjan push-relabel maximum flow (the paper's reference [6]).

The paper's LGG protocol is explicitly "related to the distributed
algorithm for the maximum flow problem proposed by Goldberg and Tarjan" —
both move units downhill along a local gradient (heights there, queue
lengths here).  We implement the algorithm faithfully:

* **FIFO** active-node selection (O(V³)) and **highest-label** selection
  (O(V² sqrt(E))), chosen via ``variant``;
* the **gap heuristic** (when a height level empties, every node above it
  is lifted past ``n``, cutting useless relabels).

Like the other solvers it is generic over ``int`` / ``float`` /
``Fraction`` capacities.
"""

from __future__ import annotations

from collections import deque
from typing import Literal

from repro.errors import FlowError
from repro.flow.residual import FlowProblem, FlowResult, Residual
from repro.obs.metrics import get_registry

__all__ = ["push_relabel"]

Variant = Literal["fifo", "highest"]


def push_relabel(problem: FlowProblem, variant: Variant = "highest") -> FlowResult:
    """Compute a maximum flow with Goldberg–Tarjan push-relabel."""
    if variant not in ("fifo", "highest"):
        raise FlowError(f"unknown push-relabel variant {variant!r}")
    res = Residual(problem)
    n, s, t = problem.n, problem.source, problem.sink
    out_arcs, out_heads = res.topology.adjacency()
    to, residual = res.to, res.residual

    height = [0] * n
    excess: list = [0] * n
    count = [0] * (2 * n + 1)  # nodes per height level, for the gap heuristic
    height[s] = n
    count[0] = n - 1
    count[n] = 1
    it = [0] * n  # per-node current-arc cursor into out_arcs[u]

    active: deque[int] = deque()
    in_active = [False] * n
    pushes = 0
    relabels = 0

    def activate(v: int) -> None:
        if v not in (s, t) and not in_active[v] and excess[v] > 0:
            in_active[v] = True
            active.append(v)

    # saturate every source arc
    for a, v in zip(out_arcs[s], out_heads[s]):
        cap = residual[a]
        if cap > 0:
            res.push(a, cap)
            excess[v] += cap
            excess[s] -= cap
            activate(v)

    def push(u: int, a: int) -> None:
        nonlocal pushes
        v = to[a]
        amount = excess[u] if excess[u] < residual[a] else residual[a]
        res.push(a, amount)
        excess[u] -= amount
        excess[v] += amount
        activate(v)
        pushes += 1

    def relabel(u: int) -> None:
        nonlocal relabels
        relabels += 1
        old = height[u]
        new = min(
            (height[v] for a, v in zip(out_arcs[u], out_heads[u]) if residual[a] > 0),
            default=2 * n - 1,
        ) + 1
        count[old] -= 1
        # gap heuristic: level `old` emptied below n -> lift stranded nodes
        if count[old] == 0 and old < n:
            for w in range(n):
                if old < height[w] < n and w != s:
                    count[height[w]] -= 1
                    height[w] = n + 1
                    count[height[w]] += 1
        height[u] = new
        count[new] += 1
        it[u] = 0

    def discharge(u: int) -> None:
        arcs_u, heads_u = out_arcs[u], out_heads[u]
        end = len(arcs_u)
        while excess[u] > 0:
            k = it[u]
            if k == end:
                relabel(u)
                if height[u] >= 2 * n:
                    break
                continue
            if residual[arcs_u[k]] > 0 and height[u] == height[heads_u[k]] + 1:
                push(u, arcs_u[k])
            else:
                it[u] += 1

    if variant == "fifo":
        while active:
            u = active.popleft()
            in_active[u] = False
            discharge(u)
            if excess[u] > 0 and height[u] < 2 * n:  # lifted but still carrying excess
                activate(u)
    else:  # highest-label: bucket queue over heights
        buckets: list[list[int]] = [[] for _ in range(2 * n + 1)]
        highest = -1
        while active:  # move seeds into buckets
            u = active.popleft()
            in_active[u] = False
            buckets[height[u]].append(u)
            highest = max(highest, height[u])
        in_bucket = [False] * n
        for level in range(len(buckets)):
            for u in buckets[level]:
                in_bucket[u] = True

        def bucket_activate(v: int) -> None:
            nonlocal highest
            if v not in (s, t) and excess[v] > 0 and not in_bucket[v]:
                in_bucket[v] = True
                buckets[height[v]].append(v)
                if height[v] > highest:
                    highest = height[v]

        # re-route activation through the buckets
        def push_h(u: int, a: int) -> None:
            nonlocal pushes
            v = to[a]
            amount = excess[u] if excess[u] < residual[a] else residual[a]
            res.push(a, amount)
            excess[u] -= amount
            excess[v] += amount
            bucket_activate(v)
            pushes += 1

        while highest >= 0:
            if not buckets[highest]:
                highest -= 1
                continue
            u = buckets[highest].pop()
            in_bucket[u] = False
            if u in (s, t) or excess[u] <= 0:
                continue
            arcs_u, heads_u = out_arcs[u], out_heads[u]
            end = len(arcs_u)
            while excess[u] > 0 and height[u] < 2 * n:
                k = it[u]
                if k == end:
                    relabel(u)
                    continue
                if residual[arcs_u[k]] > 0 and height[u] == height[heads_u[k]] + 1:
                    push_h(u, arcs_u[k])
                else:
                    it[u] += 1
            if excess[u] > 0 and height[u] < 2 * n:
                bucket_activate(u)
            if height[u] > highest:
                highest = min(height[u], 2 * n)

    value = excess[t]
    reg = get_registry()
    if reg.enabled:
        lbl = {"algorithm": f"push_relabel_{variant}"}
        reg.counter("repro_flow_solves_total",
                    "Max-flow solver invocations.",
                    ("algorithm",)).labels(**lbl).inc()
        reg.counter("repro_flow_pushes_total",
                    "Push-relabel push operations.",
                    ("algorithm",)).labels(**lbl).inc(pushes)
        reg.counter("repro_flow_relabels_total",
                    "Push-relabel relabel operations.",
                    ("algorithm",)).labels(**lbl).inc(relabels)
    return FlowResult(problem=problem, value=value, flows=tuple(res.flows()), residual=res)
