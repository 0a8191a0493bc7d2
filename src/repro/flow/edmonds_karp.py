"""Edmonds–Karp max flow: shortest augmenting paths by BFS.

O(V · E²); the simplest correct solver, kept as the differential-testing
reference for Dinic and push-relabel.  Works unchanged for ``int``,
``float`` and :class:`fractions.Fraction` capacities.
"""

from __future__ import annotations

from collections import deque

from repro.flow.residual import FlowProblem, FlowResult, Residual
from repro.obs.metrics import get_registry

__all__ = ["edmonds_karp"]


def edmonds_karp(problem: FlowProblem) -> FlowResult:
    """Compute a maximum ``source -> sink`` flow by BFS augmentation."""
    res = Residual(problem)
    s, t = problem.source, problem.sink
    out_arcs, out_heads = res.topology.adjacency()
    to, residual = res.to, res.residual
    value = 0
    augmentations = 0
    parent_arc = [-1] * problem.n

    while True:
        for i in range(problem.n):
            parent_arc[i] = -1
        parent_arc[s] = -2  # sentinel: visited, no incoming arc
        queue = deque([s])
        found = False
        while queue and not found:
            u = queue.popleft()
            for a, v in zip(out_arcs[u], out_heads[u]):
                if residual[a] > 0 and parent_arc[v] == -1:
                    parent_arc[v] = a
                    if v == t:
                        found = True
                        break
                    queue.append(v)
        if not found:
            break
        # bottleneck along the path, then push
        bottleneck = None
        v = t
        while v != s:
            a = parent_arc[v]
            r = residual[a]
            bottleneck = r if bottleneck is None or r < bottleneck else bottleneck
            v = to[a ^ 1]
        v = t
        while v != s:
            a = parent_arc[v]
            res.push(a, bottleneck)
            v = to[a ^ 1]
        value = value + bottleneck
        augmentations += 1

    reg = get_registry()
    if reg.enabled:
        lbl = {"algorithm": "edmonds_karp"}
        reg.counter("repro_flow_solves_total",
                    "Max-flow solver invocations.",
                    ("algorithm",)).labels(**lbl).inc()
        reg.counter("repro_flow_augmentations_total",
                    "Augmenting paths pushed.",
                    ("algorithm",)).labels(**lbl).inc(augmentations)
    return FlowResult(problem=problem, value=value, flows=tuple(res.flows()), residual=res)
