"""Dinic's max-flow algorithm: level graphs + blocking flows.

O(V² · E) in general, O(E · sqrt(V)) on unit-capacity networks — which is
exactly what the extended graphs ``G*`` of this library look like away from
the virtual arcs, so this is the default solver.

The phase loop is factored out as :func:`augment_residual` so the
parametric warm-start engine (:mod:`repro.flow.warmstart`) can re-run it on
a residual network that already carries flow: Dinic never assumes the flow
starts at zero, so "continue augmenting from here" is the same code path as
"solve from scratch".

The kernel does as little Python work per phase as the textbook visiting
order allows, and takes exactly the decisions of the plain algorithm (same
augmenting paths, same counters, same final residual):

* **Adjacency on the topology.**  BFS and DFS walk the per-node
  ``(arcs, heads)`` lists of :meth:`FlowTopology.adjacency`, built once per
  topology and shared by every fork and ladder on it.
* **Level cap.**  The BFS goes one level at a time and stops as soon as
  the sink is one step away.  It labels nothing at or beyond the sink's
  level, nor the nodes one level below it that have no residual arc into
  the sink: none of them can lie on a shortest augmenting path.  The DFS
  therefore never explores them, and one level below the sink it looks
  only at the arcs into the sink.
* **The last BFS is the min cut.**  When the phase loop ends because the
  sink is unreachable, that BFS has labelled exactly the nodes residually
  reachable from the source — the source-minimal min-cut side.  It is
  handed to the residual as ``source_mask``, so
  :meth:`FlowResult.source_side` needs no second traversal.
"""

from __future__ import annotations

import numpy as np

from repro.flow.residual import FlowProblem, FlowResult, Residual
from repro.obs.metrics import get_registry

__all__ = ["dinic", "augment_residual"]


def augment_residual(res: Residual, *, target_gain=None) -> tuple:
    """Run Dinic phases on ``res`` until no augmenting path remains.

    Returns ``(gained, phases, augmentations, arc_pushes)`` where ``gained``
    is the flow added on top of whatever ``res`` already carried and
    ``arc_pushes`` counts individual residual-arc pushes (the work metric
    mirrored into ``repro_flow_warm_augment_arcs_total`` by the warm-start
    engine).  When the loop ends because the sink is unreachable, the
    labelled set of that last BFS becomes ``res.source_mask``.

    ``target_gain`` stops the phase loop as soon as ``gained`` reaches it,
    skipping the final no-path BFS (so no mask is handed over).  Callers
    pass it only when reaching the target *certifies* maximality (e.g. the
    feasibility probes, whose target equals the total source-arc capacity
    — an upper bound no flow can exceed); the flow cannot overshoot a
    capacity bound, so stopping there is exact.
    """
    problem = res.problem
    n, s, t = problem.n, problem.source, problem.sink
    out_arcs, out_heads = res.topology.adjacency()
    to, residual = res.to, res.residual
    unlabelled = [-1] * n
    level = list(unlabelled)
    phases = 0
    augmentations = 0
    arc_pushes = 0
    res.source_mask = None  # the phases move flow; a final failed BFS re-sets it

    # t's incoming residual arcs as (arc, tail) pairs: the partners of its
    # outgoing ones; and for each such tail, the positions of its arcs into
    # t in its own arc list
    into_t = [(a ^ 1, v) for a, v in zip(out_arcs[t], out_heads[t])]
    t_pos = {u: [k for k, v in enumerate(out_heads[u]) if v == t]
             for _, u in into_t}

    def bfs() -> bool:
        """Label BFS levels from ``s``, one level at a time.

        Before expanding a level, find its *feeders*, the nodes with a
        residual arc into ``t``.  If there are any, ``t`` takes the next
        level and the BFS stops: nothing at or beyond ``t``'s level, and
        no node of this level but a feeder, lies on a shortest augmenting
        path, so they stay unlabelled.  Otherwise the BFS ends, ``t``
        unreachable, once a level labels nothing or every node but ``t``
        is labelled; the labelled nodes are then exactly those residually
        reachable from ``s``.
        """
        level[:] = unlabelled
        level[s] = 0
        frontier = [s]
        depth = 0
        left = n - 2  # unlabelled nodes other than t
        while frontier:
            feeders = {u for a, u in into_t if residual[a] and level[u] == depth}
            if feeders:
                # the rest of this level cannot reach t in one step: dead ends
                for u in frontier:
                    if u not in feeders:
                        level[u] = -1
                level[t] = depth + 1
                return True
            if not left:
                return False
            depth += 1
            labelled = []
            for u in frontier:
                for a, v in zip(out_arcs[u], out_heads[u]):
                    # truthiness == "> 0": residuals are never negative, and
                    # Fraction.__bool__ (an int != 0) is far cheaper than
                    # the Fraction.__gt__ rational comparison on this hot path
                    if level[v] < 0 and residual[a]:
                        level[v] = depth
                        labelled.append(v)
                if len(labelled) == left:
                    break  # the rest of the level can label nothing new
            left -= len(labelled)
            frontier = labelled
        return False

    def blocking_flow():
        """Saturate the current level graph; returns the amount pushed.

        Iterative path-growing DFS (no recursion — long path topologies
        would overflow Python's stack otherwise): grow a path of admissible
        arcs from the source; on reaching the sink, push the bottleneck and
        retreat to the saturated arc; on a dead end, prune the node from the
        level graph and retreat one step.
        """
        nonlocal augmentations, arc_pushes
        it = [0] * n  # per-node current-arc cursor into out_arcs[u]
        t_level = level[t]
        total = 0
        path: list[int] = []  # residual arc indices from s to the current node
        u = s
        while True:
            if u == t:
                bottleneck = min(residual[a] for a in path)
                for a in path:
                    residual[a] -= bottleneck
                    residual[a ^ 1] += bottleneck
                total += bottleneck
                augmentations += 1
                arc_pushes += len(path)
                # retreat to just before the first saturated arc
                for i, a in enumerate(path):
                    if not residual[a]:
                        del path[i:]
                        break
                u = to[path[-1]] if path else s
                continue
            arcs_u = out_arcs[u]
            heads_u = out_heads[u]
            k = it[u]
            end = len(arcs_u)
            nxt = level[u] + 1
            if nxt == t_level:
                # one level below t only arcs into t are admissible: the
                # BFS left every other node of t's level unlabelled
                for k in t_pos.get(u, ()):
                    if k >= it[u] and residual[arcs_u[k]]:
                        break
                else:
                    k = end
            else:
                while k < end:
                    if residual[arcs_u[k]] and level[heads_u[k]] == nxt:
                        break
                    k += 1
            it[u] = k
            if k < end:
                path.append(arcs_u[k])
                u = heads_u[k]
                continue
            # dead end: prune u and retreat
            if u == s:
                return total
            level[u] = -1
            u = to[path.pop() ^ 1]
            it[u] += 1

    gained = 0
    while target_gain is None or gained < target_gain:
        if not bfs():
            mask = np.array(level) >= 0
            mask.flags.writeable = False
            res.source_mask = mask
            break
        phases += 1
        gained = gained + blocking_flow()
    return gained, phases, augmentations, arc_pushes


def dinic(problem: FlowProblem) -> FlowResult:
    """Compute a maximum ``source -> sink`` flow with Dinic's algorithm."""
    res = Residual(problem)
    value, phases, augmentations, _ = augment_residual(res)

    reg = get_registry()
    if reg.enabled:
        lbl = {"algorithm": "dinic"}
        reg.counter("repro_flow_solves_total",
                    "Max-flow solver invocations.",
                    ("algorithm",)).labels(**lbl).inc()
        reg.counter("repro_flow_phases_total",
                    "Dinic level-graph phases (BFS rounds).",
                    ("algorithm",)).labels(**lbl).inc(phases)
        reg.counter("repro_flow_augmentations_total",
                    "Augmenting paths pushed.",
                    ("algorithm",)).labels(**lbl).inc(augmentations)
    return FlowResult(problem=problem, value=value, flows=tuple(res.flows()), residual=res)
