"""Capacity-scaling max flow (Edmonds–Karp with a Δ-scaling phase).

A fourth independent solver for the differential-testing battery:
augment only along paths of residual capacity ≥ Δ, halving Δ each phase.
O(E² log C) — asymptotically better than plain Edmonds–Karp on instances
with large capacities, which is where the LP/flow cross-checks want an
extra witness.

Restricted to *integer* capacities (the classical setting of the
algorithm); fractional or float instances should use Dinic.  Deliberately
not in the :data:`repro.flow.oracles.ALGORITHMS` registry for that reason —
import it explicitly.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from repro.errors import FlowError
from repro.flow.residual import FlowProblem, FlowResult, Residual

__all__ = ["capacity_scaling"]


def capacity_scaling(problem: FlowProblem) -> FlowResult:
    """Compute a maximum flow by capacity scaling."""
    for j, c in enumerate(problem.capacities):
        if isinstance(c, float) or (isinstance(c, Fraction) and c.denominator != 1):
            raise FlowError(
                f"capacity scaling needs integer capacities; arc {j} has {c!r} "
                "(use dinic/edmonds_karp for fractional or float capacities)"
            )
    res = Residual(problem)
    s, t, n = problem.source, problem.sink, problem.n

    max_cap = max((c for c in problem.capacities), default=0)
    if max_cap <= 0:
        return FlowResult(problem=problem, value=0, flows=tuple(res.flows()), residual=res)

    # initial threshold: largest power of two <= max capacity
    delta = 1
    while delta * 2 <= max_cap:
        delta *= 2

    value = 0
    parent = [-1] * n
    while delta >= 1:
        while True:
            # BFS using only residual arcs with capacity >= delta
            for i in range(n):
                parent[i] = -1
            parent[s] = -2
            queue = deque([s])
            found = False
            while queue and not found:
                u = queue.popleft()
                for a in res.topology.arcs_of(u):
                    if res.residual[a] >= delta:
                        v = res.to[a]
                        if parent[v] == -1:
                            parent[v] = a
                            if v == t:
                                found = True
                                break
                            queue.append(v)
            if not found:
                break
            bottleneck = None
            v = t
            while v != s:
                a = parent[v]
                r = res.residual[a]
                bottleneck = r if bottleneck is None or r < bottleneck else bottleneck
                v = res.to[a ^ 1]
            v = t
            while v != s:
                a = parent[v]
                res.push(a, bottleneck)
                v = res.to[a ^ 1]
            value = value + bottleneck
        if delta == 1:
            break
        delta //= 2

    return FlowResult(problem=problem, value=value, flows=tuple(res.flows()), residual=res)
