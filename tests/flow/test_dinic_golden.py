"""Golden counters for the Dinic kernel (:func:`augment_residual`).

The kernel's visiting order decides which augmenting paths it finds, so a
rewrite that changes the order changes the flow it leaves behind even when
the max-flow value agrees.  These literals pin, per instance, the
``(gained, phases, augmentations, arc_pushes)`` of a cold solve and of every
kernel call a warm ladder makes, together with a sha256 of each final
residual array.  A kernel change must reproduce them exactly.  The warm
ladders start from a cold Dinic flow and, to pin the kernel on a flow it
did not find itself, from a cold Edmonds–Karp flow.
"""

import hashlib
import random
from collections import deque
from fractions import Fraction

import pytest

import repro.flow.dinic as dinic_module
import repro.flow.warmstart as warmstart_module
from repro.exp.workloads import bottleneck_spec
from repro.flow import breakpoint_envelope, classify_network
from repro.flow.dinic import augment_residual
from repro.flow.oracles import ALGORITHMS
from repro.flow.residual import FlowProblem, Residual
from repro.graphs import build_extended_graph
from repro.graphs import generators as gen
from repro.sweep import random_instance_spec

#: Small versions of the region-map families, three seeds each (plus one
#: gnp-60, the smallest region-map size).
FAMILY_PARAMS = {
    "gnp-10": {"family": "gnp", "n": 10, "p": 0.4},
    "gnp-16": {"family": "gnp", "n": 16, "p": 0.3},
    "geometric-14": {"family": "geometric", "n": 14, "radius": 0.45},
    "ba-20": {"family": "ba", "n": 20},
    "ws-16": {"family": "ws", "n": 16},
}


def _instances():
    """``name -> (graph, in_rates, out_rates)`` of each golden ``G*``."""
    out = {}
    for label, params in FAMILY_PARAMS.items():
        for seed in range(3):
            spec = random_instance_spec({"sources": 3, "sinks": 2, **params}, seed)
            out[f"{label}/{seed}"] = (spec.graph, spec.in_rates, spec.out_rates)
    out["grid-4x4"] = (gen.grid(4, 4), {0: 2, 5: 1}, {15: 3})
    out["grid-3x4-rational"] = (gen.grid(3, 4), {0: Fraction(3, 2), 6: Fraction(2, 3)},
                                {11: Fraction(5, 2)})
    for name, k in (("e03-saturated", 4), ("e03-infeasible", 5)):
        spec = bottleneck_spec(k)
        out[name] = (spec.graph, spec.in_rates, spec.out_rates)
    spec = random_instance_spec({"family": "gnp", "n": 60, "p": 0.4,
                                 "sources": 3, "sinks": 2}, 1)
    out["gnp-60"] = (spec.graph, spec.in_rates, spec.out_rates)
    g = gen.random_gnp(10, 0.5, seed=7, ensure_connected=True)
    out["fraction-fallback"] = (g, {0: (1 << 70) + 1, 1: 1}, {9: 3})
    return out


INSTANCES = _instances()


def _extended(name):
    return build_extended_graph(*INSTANCES[name])


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _call_record(res, out) -> tuple:
    gained, phases, augmentations, arc_pushes = out
    return (str(gained), phases, augmentations, arc_pushes, _digest(res.residual))


def cold_record(name) -> tuple:
    res = Residual(FlowProblem.from_extended(_extended(name)))
    return _call_record(res, augment_residual(res))


def warm_record(name, cold_solver, monkeypatch) -> tuple:
    """``(calls, phases, augmentations, arc_pushes, digest)`` over every
    kernel call of an envelope and a classification, each on one ladder
    whose cold solve is ``ALGORITHMS[cold_solver]``."""
    calls = []

    def recording(res, **kwargs):
        out = augment_residual(res, **kwargs)
        calls.append(_call_record(res, out))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(dinic_module, "augment_residual", recording)
        patch.setattr(warmstart_module, "augment_residual", recording)
        patch.setattr(warmstart_module, "dinic", ALGORITHMS[cold_solver])
        ext = _extended(name)
        breakpoint_envelope(ext)
        classify_network(ext)
    return (len(calls), sum(c[1] for c in calls), sum(c[2] for c in calls),
            sum(c[3] for c in calls), _digest(calls))


#: Captured from the kernel before its per-node adjacency rewrite:
#: ``cold`` is ``(gained, phases, augmentations, arc_pushes, residual digest)``,
#: each ladder's cold solver ``(calls, phases, augmentations, arc_pushes,
#: calls digest)``.
GOLDEN = {
    'ba-20/0': {
        'cold': ('3', 2, 3, 10, 'b4cc6f8cbfd20ba2'),
        'dinic': (5, 7, 11, 40, 'ca9985c005ff517d'),
        'edmonds_karp': (3, 5, 8, 30, '9031ee6f16e80f55'),
    },
    'ba-20/1': {
        'cold': ('3', 3, 3, 12, 'f4aa858227dd02bb'),
        'dinic': (5, 10, 12, 54, '22219d73ea5d51a3'),
        'edmonds_karp': (3, 7, 9, 42, '958f62515616731e'),
    },
    'ba-20/2': {
        'cold': ('5', 4, 5, 21, '5ed3992f4a1f916e'),
        'dinic': (6, 11, 15, 62, '73744d4ea0f24772'),
        'edmonds_karp': (4, 7, 10, 41, '8cd6facaf6b14b53'),
    },
    'e03-infeasible': {
        'cold': ('4', 1, 4, 20, 'b04dd29b3f92b6ae'),
        'dinic': (5, 3, 16, 80, '200537472a34b638'),
        'edmonds_karp': (3, 2, 12, 60, '0c2a3625ade8fa48'),
    },
    'e03-saturated': {
        'cold': ('4', 1, 4, 20, 'e158418ce3e7cb9c'),
        'dinic': (6, 3, 12, 60, 'dd4ef52b86d264f1'),
        'edmonds_karp': (4, 2, 8, 40, 'b612ab88ffbda0d9'),
    },
    'fraction-fallback': {
        'cold': ('3', 2, 3, 10, '4dcd6c5b1ee1ff78'),
        'dinic': (5, 6, 10, 34, '437343d1b0322b17'),
        'edmonds_karp': (3, 4, 7, 24, 'd1dc9e957d8efbd8'),
    },
    'geometric-14/0': {
        'cold': ('2', 2, 2, 9, '0d313e128a13c6c4'),
        'dinic': (5, 6, 7, 29, 'd5c77afc6e4bfaaf'),
        'edmonds_karp': (3, 4, 5, 20, '27c73245cc68e456'),
    },
    'geometric-14/1': {
        'cold': ('4', 2, 4, 14, '1d80dd755f002abb'),
        'dinic': (5, 8, 15, 57, 'a48c6a75b6264b0c'),
        'edmonds_karp': (3, 6, 11, 43, '0a79103434f7cde5'),
    },
    'geometric-14/2': {
        'cold': ('3', 3, 3, 15, 'e9548a5719fdf72e'),
        'dinic': (7, 14, 16, 86, '63ac719d1e8a7c41'),
        'edmonds_karp': (5, 11, 13, 71, 'e3730faedaca35c3'),
    },
    'gnp-10/0': {
        'cold': ('3', 1, 3, 9, 'a7ae084d34e11641'),
        'dinic': (5, 4, 11, 35, 'b8c654bec318cd1e'),
        'edmonds_karp': (3, 3, 8, 26, 'a75e76c32f721b53'),
    },
    'gnp-10/1': {
        'cold': ('3', 2, 3, 10, 'd30fd517042d6a25'),
        'dinic': (6, 10, 20, 76, '69d932291c1c8209'),
        'edmonds_karp': (4, 8, 17, 66, '3c8f3808aff9e263'),
    },
    'gnp-10/2': {
        'cold': ('5', 2, 5, 16, '769eb69a59b9245d'),
        'dinic': (6, 10, 23, 82, '1d1571b85ef1bca0'),
        'edmonds_karp': (4, 8, 18, 66, '2530debd4ca76c85'),
    },
    'gnp-16/0': {
        'cold': ('2', 1, 2, 6, 'be87012a92b2d9fc'),
        'dinic': (5, 4, 8, 25, '3064ba7406ea12bc'),
        'edmonds_karp': (3, 3, 6, 19, 'fe6bc0a025655475'),
    },
    'gnp-16/1': {
        'cold': ('3', 2, 3, 10, '21ff9ff685fb7a08'),
        'dinic': (5, 7, 12, 45, '9fd090ad74572cc3'),
        'edmonds_karp': (3, 5, 9, 35, 'ca8a503583383567'),
    },
    'gnp-16/2': {
        'cold': ('4', 2, 4, 13, '516fdd201981dca7'),
        'dinic': (5, 6, 13, 43, '96d881f1428b88fd'),
        'edmonds_karp': (3, 4, 9, 30, 'e14ee6f2a14d5ac0'),
    },
    'gnp-60': {
        'cold': ('4', 2, 4, 13, '0c22b8598c89abe7'),
        'dinic': (6, 8, 22, 79, 'df74dc7257d45a32'),
        'edmonds_karp': (4, 6, 18, 66, 'd3f8c537954076e0'),
    },
    'grid-3x4-rational': {
        'cold': ('2', 2, 4, 25, '47b1edddadb1d488'),
        'dinic': (5, 5, 10, 58, '8c26460f69518d4e'),
        'edmonds_karp': (3, 3, 6, 33, 'cfb81e43290ca1e5'),
    },
    'grid-4x4': {
        'cold': ('2', 2, 2, 14, 'ba668ad4e983a509'),
        'dinic': (5, 5, 8, 56, 'e947fac7be071910'),
        'edmonds_karp': (3, 3, 6, 42, '8f05abd4b80b895b'),
    },
    'ws-16/0': {
        'cold': ('2', 1, 2, 8, '5f708183f8dadea9'),
        'dinic': (5, 4, 7, 29, '3b4e8d9c65ee4174'),
        'edmonds_karp': (3, 3, 5, 21, '82b479f704502808'),
    },
    'ws-16/1': {
        'cold': ('3', 2, 3, 10, 'bb5a0860f449cac9'),
        'dinic': (5, 7, 11, 41, '8d8acde7d9404b3b'),
        'edmonds_karp': (3, 5, 8, 31, 'a54c84b6c4c3e980'),
    },
    'ws-16/2': {
        'cold': ('4', 2, 4, 15, '9e92b54e14e433a7'),
        'dinic': (5, 7, 14, 57, '50e3bd48c8828add'),
        'edmonds_karp': (3, 5, 10, 42, '381dc409655a724b'),
    },
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_cold_kernel_matches_golden(name):
    assert cold_record(name) == GOLDEN[name]["cold"]


@pytest.mark.parametrize("cold_solver", ["dinic", "edmonds_karp"])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_warm_ladder_matches_golden(name, cold_solver, monkeypatch):
    assert warm_record(name, cold_solver, monkeypatch) == GOLDEN[name][cold_solver]


def test_fallback_instance_runs_on_fractions(monkeypatch):
    """The ``(1<<70)+1`` source rate defeats the integer scale, so that
    ladder's kernel calls run on ``Fraction`` residuals."""
    kinds = set()

    def recording(res, **kwargs):
        kinds.update(type(r) for r in res.residual)
        return augment_residual(res, **kwargs)

    monkeypatch.setattr(warmstart_module, "augment_residual", recording)
    breakpoint_envelope(_extended("fraction-fallback"))
    assert Fraction in kinds


def textbook_augment(problem, residual, target_gain=None) -> tuple:
    """Plain Dinic on a residual list: a full BFS per phase and a DFS that
    walks into every admissible subtree, on its own adjacency built from
    ``tails``/``heads``.  The kernel must take exactly its decisions."""
    n, s, t = problem.n, problem.source, problem.sink
    adj = [[] for _ in range(n)]
    to = []
    for j, (u, v) in enumerate(zip(problem.tails, problem.heads)):
        adj[u].append(2 * j)
        adj[v].append(2 * j + 1)
        to += [v, u]
    for arcs in adj:
        arcs.sort()
    gained, phases, augmentations, arc_pushes = 0, 0, 0, 0
    while target_gain is None or gained < target_gain:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for a in adj[u]:
                if residual[a] > 0 and level[to[a]] < 0:
                    level[to[a]] = level[u] + 1
                    queue.append(to[a])
        if level[t] < 0:
            break
        phases += 1
        it = [0] * n
        path, u = [], s
        while True:
            if u == t:
                bottleneck = min(residual[a] for a in path)
                for a in path:
                    residual[a] -= bottleneck
                    residual[a ^ 1] += bottleneck
                gained += bottleneck
                augmentations += 1
                arc_pushes += len(path)
                saturated = next(i for i, a in enumerate(path) if residual[a] == 0)
                del path[saturated:]
                u = to[path[-1]] if path else s
                continue
            while it[u] < len(adj[u]):
                a = adj[u][it[u]]
                if residual[a] > 0 and level[to[a]] == level[u] + 1:
                    break
                it[u] += 1
            if it[u] < len(adj[u]):
                path.append(adj[u][it[u]])
                u = to[path[-1]]
                continue
            if u == s:
                break
            level[u] = -1
            u = to[path.pop() ^ 1]
            it[u] += 1
    return gained, phases, augmentations, arc_pushes


@pytest.mark.parametrize("seed", range(8))
def test_kernel_takes_the_textbook_decisions(seed):
    """Random multigraphs — parallel and antiparallel arcs, self-loops,
    direct source-sink arcs, ``int`` and ``Fraction`` capacities — each
    solved, raised and re-solved three times, some runs stopped at a
    target: counters and residuals equal the textbook kernel's after every
    call, and a handed-over mask is the reachable set."""
    rng = random.Random(seed)
    for _ in range(60):
        n, m = rng.randint(2, 12), rng.randint(1, 40)
        as_fraction = rng.random() < 0.3
        problem = FlowProblem(
            n=n, tails=[rng.randrange(n) for _ in range(m)],
            heads=[rng.randrange(n) for _ in range(m)],
            capacities=[Fraction(rng.randint(0, 6), rng.randint(1, 3)) if as_fraction
                        else rng.randint(0, 5) for _ in range(m)],
            source=0, sink=n - 1)
        res = Residual(problem)
        expected = list(res.residual)
        for _ in range(3):
            target = rng.randint(0, 6) if rng.random() < 0.3 else None
            assert augment_residual(res, target_gain=target) == \
                textbook_augment(problem, expected, target)
            assert res.residual == expected
            if res.source_mask is not None:
                assert res.source_mask.tolist() == res.reachable_from(0).tolist()
            for j in rng.sample(range(m), min(m, 2)):
                raised = rng.randint(0, 3)
                res.residual[2 * j] += raised
                expected[2 * j] += raised
