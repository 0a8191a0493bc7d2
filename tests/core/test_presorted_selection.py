"""The presorted half-edge order behind Algorithm 1's vectorized selectors.

The scalar and batched selectors sort each step over one (sender, tie key)
order memoized on the CSR snapshot.  The lexsort and composite-key
formulations they replaced are kept here as oracles: every output —
edge ids, senders, receivers, their order, the batched masks — must equal
them and the per-node reference, for every tie-break, on multigraphs with
parallel edges, isolated nodes, no edges at all, and revealed queues that
differ from the true ones.  Also pinned here: the presort's aliasing and
invalidation, the int64 boundaries of the composite key, and the smaller
per-step costs that ride along (link-capacity skip, injection checks,
the greedy matching loop).
"""

import itertools
import random
import re

import numpy as np
import pytest

from repro.core import SimulationConfig, Simulator, TieBreak
from repro.core.ensemble import EnsembleSimulator
from repro.core.lgg import lgg_select_reference
from repro.core.lgg_fast import (
    HalfEdges,
    _block_argsort,
    lgg_select_fast,
    lgg_select_fast_batched,
)
from repro.core.pipeline import LinkCapacityMode, link_conflicts_impossible
from repro.core.policies import BackpressurePolicy, LGGPolicy
from repro.core.tiebreak import tie_keys
from repro.dynamic import ScheduledChanges
from repro.errors import SimulationError
from repro.graphs import MultiGraph
from repro.graphs import generators as gen
from repro.interference import GreedyMatchingInterference
from repro.loss import BernoulliLoss
from repro.network import NetworkSpec, RevelationPolicy

TIEBREAKS = list(TieBreak)


# ----------------------------------------------------------------------
# oracles: the formulations the presorted order replaced
# ----------------------------------------------------------------------
def lexsort_select(half, queues, revealed, tiebreak, rng):
    """One 3-key lexsort over all half-edges per step."""
    if half.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    q_send = queues[half.senders]
    q_recv = revealed[half.receivers]
    keys = tie_keys(tiebreak, half.receivers, half.edge_ids, rng,
                    num_edge_slots=half.num_edge_slots)
    order = np.lexsort((keys, q_recv, half.senders))
    rank = np.arange(half.size, dtype=np.int64) - half.indptr[half.senders[order]]
    chosen = (q_send[order] > q_recv[order]) & (rank < q_send[order])
    sel = order[chosen]
    return half.edge_ids[sel], half.senders[sel], half.receivers[sel]


def composite_select_batched(half, queues, revealed, tiebreak, rngs):
    """One wide (sender, revealed queue, tie key) argsort for all replicas."""
    H, R = half.size, queues.shape[0]
    if H == 0:
        empty = np.empty((R, 0), dtype=np.int64)
        return empty, empty.copy(), empty.copy(), np.empty((R, 0), dtype=bool)
    q_send = queues[:, half.senders]
    q_recv = revealed[:, half.receivers]
    if tiebreak is TieBreak.QUEUE_THEN_RANDOM:
        tie = np.stack([tie_keys(tiebreak, half.receivers, half.edge_ids, g,
                                 num_edge_slots=half.num_edge_slots) for g in rngs])
    else:
        tie = tie_keys(tiebreak, half.receivers, half.edge_ids, None,
                       num_edge_slots=half.num_edge_slots)
    tie = tie - tie.min()
    b_tie = int(tie.max()) + 1
    b_q = int(q_recv.max()) + 2
    assert (int(half.senders.max()) + 1) * b_q * b_tie <= 2**62, "oracle key overflow"
    keys = half.senders.astype(np.int64) * (b_q * b_tie) + q_recv * b_tie + tie
    order = np.argsort(keys, axis=1, kind="stable")
    s_sorted = half.senders[order]
    rank = np.arange(H, dtype=np.int64)[None, :] - half.indptr[s_sorted]
    qs = np.take_along_axis(q_send, order, axis=1)
    qr = np.take_along_axis(q_recv, order, axis=1)
    mask = (qs > qr) & (rank < qs)
    return half.edge_ids[order], s_sorted, half.receivers[order], mask


def presorted_neighbors(half, reverse):
    """The integer kernel's per-run neighbour-list sort."""
    stride = half.num_edge_slots + 1
    nbrs = []
    for u in range(len(half.indptr) - 1):
        lo, hi = int(half.indptr[u]), int(half.indptr[u + 1])
        pairs = sorted(
            ((int(half.receivers[i]) * stride + int(half.edge_ids[i]),
              int(half.receivers[i])) for i in range(lo, hi)),
            reverse=reverse,
        )
        nbrs.append([v for _, v in pairs])
    return nbrs


def greedy_matching_loop(edge_ids, senders, receivers, queues, revealed):
    """GreedyMatchingInterference.filter's per-element ``int()`` loop."""
    keep = np.zeros(len(edge_ids), dtype=bool)
    if len(edge_ids) == 0:
        return keep
    weight = queues[senders] - revealed[receivers]
    order = np.lexsort((senders, edge_ids, -weight))
    busy = set()
    for i in order:
        u, v = int(senders[i]), int(receivers[i])
        if u in busy or v in busy:
            continue
        keep[i] = True
        busy.add(u)
        busy.add(v)
    return keep


def triples(out):
    eids, snd, rcv = out
    return list(zip(eids.tolist(), snd.tolist(), rcv.tolist()))


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------
def random_multigraph(rng, n):
    """Parallel edges, tombstoned ids and (often) isolated nodes."""
    g = MultiGraph(n)
    if n >= 2:
        for _ in range(int(rng.integers(0, 3 * n + 1))):
            u, v = rng.choice(n, size=2, replace=False)
            g.add_edge(int(u), int(v))
            if rng.random() < 0.2:
                g.add_edge(int(v), int(u))  # a parallel edge
    live = [e for e in range(g.num_edge_slots) if g.has_edge_id(e)]
    for e in rng.permutation(live)[: int(rng.integers(0, 3))]:
        g.remove_edge(int(e))
    return g


def queue_matrix(rng, R, n, kind):
    if kind == "zero":
        Q = np.zeros((R, n), dtype=np.int64)
        return Q, Q
    hi = {"small": 4, "wide": 2**20, "huge": 2**40}[kind]
    Q = rng.integers(0, hi, size=(R, n)).astype(np.int64)
    lie = rng.random((R, n)) < 0.35
    revealed = np.where(lie, rng.integers(0, hi, size=(R, n)), Q).astype(np.int64)
    return Q, revealed


CASES = list(itertools.product(range(40), ["small", "wide", "zero", "huge"]))


class TestSelectionOracles:
    @pytest.mark.parametrize("tiebreak", TIEBREAKS, ids=lambda t: t.value)
    @pytest.mark.parametrize("trial,kind", CASES)
    def test_scalar_equals_lexsort_and_reference(self, trial, kind, tiebreak):
        rng = np.random.default_rng(1000 * trial + len(kind))
        n = int(rng.integers(1, 14))
        g = random_multigraph(rng, n)
        half = HalfEdges.from_graph(g)
        Q, REV = queue_matrix(rng, 3, n, kind)
        for r in range(3):
            seed = 7 * trial + r
            got = lgg_select_fast(half, Q[r], REV[r], tiebreak=tiebreak,
                                  rng=np.random.default_rng(seed))
            want = lexsort_select(half, Q[r], REV[r], tiebreak,
                                  np.random.default_rng(seed))
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tolist() == b.tolist()
            ref = lgg_select_reference(g, Q[r], REV[r], tiebreak=tiebreak,
                                       rng=np.random.default_rng(seed))
            assert triples(got) == ref

    @pytest.mark.parametrize("tiebreak", TIEBREAKS, ids=lambda t: t.value)
    @pytest.mark.parametrize("trial,kind", CASES)
    def test_batched_equals_composite_and_scalar(self, trial, kind, tiebreak):
        rng = np.random.default_rng(1000 * trial + len(kind))
        n = int(rng.integers(1, 14))
        g = random_multigraph(rng, n)
        half = HalfEdges.from_graph(g)
        R = 4
        Q, REV = queue_matrix(rng, R, n, kind)
        seeds = [11 * trial + r for r in range(R)]
        got = lgg_select_fast_batched(
            half, Q, REV, tiebreak=tiebreak,
            rngs=[np.random.default_rng(s) for s in seeds])
        if kind != "huge":  # the composite oracle's key overflows there
            want = composite_select_batched(
                half, Q, REV, tiebreak, [np.random.default_rng(s) for s in seeds])
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tolist() == b.tolist()
        eids, snd, rcv, mask = got
        for r, s in enumerate(seeds):
            scalar = lgg_select_fast(half, Q[r], REV[r], tiebreak=tiebreak,
                                     rng=np.random.default_rng(s))
            row = (eids[r][mask[r]], snd[r][mask[r]], rcv[r][mask[r]])
            assert triples(row) == triples(scalar)

    def test_no_edges(self):
        g = MultiGraph(4)
        half = HalfEdges.from_graph(g)
        q = np.array([3, 0, 5, 1], dtype=np.int64)
        for tb in TIEBREAKS:
            out = lgg_select_fast(half, q, q, tiebreak=tb, rng=np.random.default_rng(0))
            assert all(len(a) == 0 for a in out)
            eids, snd, rcv, mask = lgg_select_fast_batched(
                half, q[None, :], q[None, :], tiebreak=tb,
                rngs=[np.random.default_rng(0)])
            assert eids.shape == snd.shape == rcv.shape == mask.shape == (1, 0)
        for tb in (TieBreak.QUEUE_THEN_ID, TieBreak.QUEUE_THEN_REVERSED_ID):
            assert half.presorted(tb).neighbor_lists == [[], [], [], []]

    def test_random_tiebreak_draws_exactly_once(self):
        g = gen.grid(3, 3)
        half = HalfEdges.from_graph(g)
        q = np.arange(9, dtype=np.int64)
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        lgg_select_fast(half, q, q, tiebreak=TieBreak.QUEUE_THEN_RANDOM, rng=a)
        b.permutation(g.num_edge_slots + 1)
        assert a.integers(1 << 30) == b.integers(1 << 30)

    @pytest.mark.parametrize("tiebreak", [TieBreak.QUEUE_THEN_ID,
                                          TieBreak.QUEUE_THEN_REVERSED_ID],
                             ids=lambda t: t.value)
    def test_kernel_neighbor_lists_match_per_run_sort(self, tiebreak):
        rng = np.random.default_rng(3)
        for _ in range(30):
            g = random_multigraph(rng, int(rng.integers(1, 15)))
            half = HalfEdges.from_graph(g)
            reverse = tiebreak is TieBreak.QUEUE_THEN_REVERSED_ID
            assert half.presorted(tiebreak).neighbor_lists == presorted_neighbors(half, reverse)


# ----------------------------------------------------------------------
# the composite key at its integer boundaries
# ----------------------------------------------------------------------
class TestKeyBoundaries:
    @pytest.mark.parametrize("blocks", [1, 3, 7])
    def test_block_argsort_matches_lexsort_across_boundaries(self, blocks):
        # key widths on both sides of the uint16 and int64 limits of
        # blocks·width, offset to both ends of the int64 range
        rnd = random.Random(blocks)
        senders = np.array(sorted(rnd.randrange(blocks) for _ in range(40)))
        senders[-1] = blocks - 1
        for limit in (1 << 16, 1 << 63):
            for width in {limit // blocks - 1, limit // blocks,
                          limit // blocks + 1, -(-limit // blocks)}:
                for lo in (0, -(1 << 63)):
                    if not 1 <= width <= (1 << 63) - lo:
                        continue
                    values = [rnd.randrange(width) for _ in range(38)] + [0, width - 1]
                    keys = np.array([lo + v for v in values], dtype=np.int64)
                    want = np.lexsort((keys, senders))
                    assert _block_argsort(senders, keys).tolist() == want.tolist()
                    rows = np.stack([keys, keys[::-1]])
                    want = np.lexsort((rows, np.broadcast_to(senders, rows.shape)), axis=-1)
                    assert _block_argsort(senders, rows).tolist() == want.tolist()

    @pytest.mark.parametrize("tiebreak", TIEBREAKS, ids=lambda t: t.value)
    def test_scalar_at_int64_overflow_boundary(self, tiebreak):
        # n·(max q + 1) on either side of 2**63: the composite key and the
        # lexsort fallback must both give the oracle's selection
        g = gen.star(4)  # hub 0, leaves 1..4; blocks = 5
        half = HalfEdges.from_graph(g)
        top = (1 << 63) // 5
        for hi in (top - 2, top - 1, top, top + 1, (1 << 63) - 1):
            q = np.array([hi, hi - 1, 0, hi, 3], dtype=np.int64)
            rev = np.array([hi, 0, hi - 2, hi, 3], dtype=np.int64)
            got = lgg_select_fast(half, q, rev, tiebreak=tiebreak,
                                  rng=np.random.default_rng(1))
            want = lexsort_select(half, q, rev, tiebreak, np.random.default_rng(1))
            assert triples(got) == triples(want)
            assert triples(got) == lgg_select_reference(
                g, q, rev, tiebreak=tiebreak, rng=np.random.default_rng(1))

    def test_ensemble_with_huge_queues_equals_scalar_runs(self):
        ba = gen.barabasi_albert(200, 2, seed=200)
        spec = NetworkSpec.classical(ba, {199: 1, 198: 1, 197: 1}, {0: 2, 1: 2})
        q0 = np.full(200, 1 << 40, dtype=np.int64)
        q0[::4] = 0
        seeds = [3, 8, 21]
        res = EnsembleSimulator(spec, len(seeds), seeds=seeds, initial_queues=q0,
                                config=SimulationConfig(losses=BernoulliLoss(0.05))).run(20)
        for r, s in enumerate(seeds):
            sr = Simulator(spec, config=SimulationConfig(seed=s, losses=BernoulliLoss(0.05)),
                           initial_queues=q0).run(20)
            assert res.total_queued[:, r].tolist() == sr.trajectory.total_queued
            assert res.lost_series[:, r].tolist() == sr.trajectory.lost
            assert res.final_queues[r].tolist() == sr.final_queues.tolist()


# ----------------------------------------------------------------------
# one presort per topology snapshot
# ----------------------------------------------------------------------
class TestPresortMemo:
    def spec(self):
        return NetworkSpec.classical(gen.grid(4, 4), {0: 1}, {15: 2})

    @pytest.mark.parametrize("tiebreak", [TieBreak.QUEUE_THEN_ID,
                                          TieBreak.QUEUE_THEN_REVERSED_ID],
                             ids=lambda t: t.value)
    def test_aliased_across_simulators(self, tiebreak):
        spec = self.spec()
        a = Simulator(spec, config=SimulationConfig(seed=1, tiebreak=tiebreak))
        b = Simulator(spec, config=SimulationConfig(seed=2, tiebreak=tiebreak,
                                                    numeric_fastpath=False))
        ens = EnsembleSimulator(spec, 2, seed=3, config=SimulationConfig(tiebreak=tiebreak))
        a.run(10)
        b.run(10)
        ens.run(10)
        pre = a._half.presorted(tiebreak)
        assert b._half.presorted(tiebreak) is pre
        assert ens._half.presorted(tiebreak) is pre
        assert spec.graph.to_csr().presort_memo[tiebreak] is pre
        assert a._half.presorted(tiebreak).neighbor_lists is pre.neighbor_lists
        assert not pre.perm.flags.writeable and not pre.receivers.flags.writeable

    def test_random_tiebreak_is_never_memoized(self):
        spec = self.spec()
        Simulator(spec, config=SimulationConfig(
            seed=1, tiebreak=TieBreak.QUEUE_THEN_RANDOM)).run(10)
        assert TieBreak.QUEUE_THEN_RANDOM not in spec.graph.to_csr().presort_memo
        with pytest.raises(ValueError, match="no fixed order"):
            HalfEdges.from_graph(spec.graph).presorted(TieBreak.QUEUE_THEN_RANDOM)

    def test_mutation_drops_it(self):
        g = gen.grid(3, 3)
        pre = HalfEdges.from_graph(g).presorted(TieBreak.QUEUE_THEN_ID)
        eid = g.add_edge(0, 8)
        after_add = HalfEdges.from_graph(g).presorted(TieBreak.QUEUE_THEN_ID)
        assert after_add is not pre
        assert 8 in after_add.neighbor_lists[0]
        g.remove_edge(eid)
        after_remove = HalfEdges.from_graph(g).presorted(TieBreak.QUEUE_THEN_ID)
        assert after_remove is not after_add
        assert after_remove.neighbor_lists == pre.neighbor_lists

    def test_topology_stage_rebuild_drops_it(self):
        g = gen.grid(3, 3)
        spec = NetworkSpec.classical(g, {0: 1}, {8: 2})
        sim = Simulator(spec, config=SimulationConfig(
            seed=4, topology=ScheduledChanges({5: ([0], []), 9: ([], [0])})))
        before = sim._half.presorted(TieBreak.QUEUE_THEN_ID)
        sim.run(7)
        during = sim._half.presorted(TieBreak.QUEUE_THEN_ID)
        assert during is not before
        assert 0 not in during.edge_ids.tolist()
        assert g.to_csr().presort_memo[TieBreak.QUEUE_THEN_ID] is during
        sim.run(5)
        assert sim._half.presorted(TieBreak.QUEUE_THEN_ID) is not during


# ----------------------------------------------------------------------
# satellites: link-capacity skip, injection checks, greedy matching
# ----------------------------------------------------------------------
class _BothDirections:
    """Sends over every edge in both directions — always contests links."""

    def select(self, ctx):
        h = ctx.half
        ok = ctx.queues[h.senders] > 0
        return h.edge_ids[ok], h.senders[ok], h.receivers[ok]

    def on_topology_change(self, spec, half):
        pass


class TestLinkCapacitySkip:
    def test_predicate(self):
        g = gen.path(3)
        truthful = NetworkSpec.classical(g, {0: 1}, {2: 1})
        liar = NetworkSpec.generalized(g, {0: 1}, {2: 1}, retention=2,
                                       revelation=RevelationPolicy.ZERO)
        liar_r0 = NetworkSpec.generalized(g, {0: 1}, {2: 1}, retention=0,
                                          revelation=RevelationPolicy.ZERO)
        per_link, per_dir = LinkCapacityMode.PER_LINK, LinkCapacityMode.PER_DIRECTION
        assert link_conflicts_impossible(LGGPolicy, truthful, per_link)
        assert link_conflicts_impossible(LGGPolicy, liar_r0, per_link)
        assert link_conflicts_impossible(LGGPolicy, liar, per_dir)
        assert not link_conflicts_impossible(LGGPolicy, liar, per_link)
        for other in (BackpressurePolicy, _BothDirections):
            for spec, mode in ((truthful, per_link), (truthful, per_dir), (liar, per_dir)):
                assert not link_conflicts_impossible(other, spec, mode)

    def test_other_policies_still_trimmed(self):
        spec = NetworkSpec.classical(gen.path(3), {0: 1}, {2: 1})
        sim = Simulator(spec, policy=_BothDirections(), config=SimulationConfig(
            seed=0, record_events=True), initial_queues=np.array([4, 4, 4]))
        sim.run(8)
        for ev in sim.events:
            assert len(set(ev.edge_ids.tolist())) == len(ev.edge_ids)  # one packet per link

    def test_lying_terminals_still_trimmed(self):
        # both endpoints are terminals that reveal 0 while holding packets,
        # so each sends to the other over the one link
        spec = NetworkSpec.generalized(gen.path(2), {0: 1}, {1: 1}, retention=5,
                                       revelation=RevelationPolicy.ZERO)
        q0 = np.array([3, 3])
        sim = Simulator(spec, config=SimulationConfig(seed=0, record_events=True),
                        initial_queues=q0)
        sim.run(8)
        assert sim.events[0].edge_ids.tolist() == [0]  # two were selected
        res = EnsembleSimulator(spec, 1, seeds=[0], initial_queues=q0).run(8)
        assert res.transmitted_series[:, 0].tolist() == sim.trajectory.transmitted
        assert res.transmitted_series[0, 0] == 1


class _Fixed:
    def __init__(self, value):
        self.value = np.asarray(value)

    def sample(self, t, rng):
        return self.value


INJECTION_ERRORS = {
    "shape": ([1, 0], "arrival process returned shape (2,)"),
    "negative": ([1, 0, -1], "arrival process injected negative packets"),
    "over": ([2, 0, 0], "arrival process exceeded in(v) for some node"),
    "negative and over": ([2, -1, 0], "arrival process injected negative packets"),
    "inexact": ([0, 0, 0],
                "classical S-D-network requires exact injection in(s) per step; "
                "use NetworkSpec.generalized for pseudo-sources"),
}


class TestInjectionChecks:
    @pytest.mark.parametrize("case", list(INJECTION_ERRORS))
    def test_scalar_messages(self, case):
        value, message = INJECTION_ERRORS[case]
        spec = NetworkSpec.classical(gen.path(3), {0: 1}, {2: 1})
        sim = Simulator(spec, config=SimulationConfig(seed=0, arrivals=_Fixed(value)))
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            sim.step()

    @pytest.mark.parametrize("case", list(INJECTION_ERRORS))
    def test_batched_messages(self, case):
        value, message = INJECTION_ERRORS[case]
        if case == "shape":
            message = "arrival process returned shape (2, 2)"
        spec = NetworkSpec.classical(gen.path(3), {0: 1}, {2: 1})
        ens = EnsembleSimulator(spec, 2, seed=0, arrivals=_Fixed(value))
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            ens.step()

    def test_valid_arrivals_pass(self):
        g = gen.path(3)
        exact = NetworkSpec.classical(g, {0: 1}, {2: 1})
        Simulator(exact, config=SimulationConfig(
            seed=0, arrivals=_Fixed([1, 0, 0]))).step()
        pseudo = NetworkSpec.generalized(g, {0: 2}, {2: 1}, retention=1)
        for value in ([0, 0, 0], [1, 0, 0], [2, 0, 0]):
            Simulator(pseudo, config=SimulationConfig(
                seed=0, arrivals=_Fixed(value))).step()
            EnsembleSimulator(pseudo, 2, seed=0, arrivals=_Fixed(value)).step()


class TestGreedyMatching:
    def test_equals_per_element_loop(self):
        rng = np.random.default_rng(2024)
        model = GreedyMatchingInterference()
        for _ in range(200):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(0, 25))
            senders = rng.integers(0, n, size=k).astype(np.int64)
            receivers = (senders + rng.integers(1, n, size=k)) % n
            edge_ids = rng.integers(0, 30, size=k).astype(np.int64)
            queues = rng.integers(0, 6, size=n).astype(np.int64)
            revealed = np.where(rng.random(n) < 0.3, 0, queues)
            got = model.filter(edge_ids, senders, receivers, queues, revealed, None)
            want = greedy_matching_loop(edge_ids, senders, receivers, queues, revealed)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
