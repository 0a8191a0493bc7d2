"""Unit tests for the :class:`~repro.serve.workers.WorkerPool` process
tier: task execution, shard-affine cache ownership, error transport,
and lazy recovery from idle worker deaths.

The SIGKILL-mid-batch chaos scenarios live in ``test_worker_chaos.py``;
the HTTP-level pooled-vs-inprocess equality matrix lives in
``test_workers_differential.py``.
"""

import os
import signal
import time

import pytest

from repro.errors import ServeError
from repro.serve import WorkerPool, direct_simulate, parse_spec
from repro.sweep.cache import canonical_spec_key, shard_index

SPEC_PAYLOAD = {"topology": "gnp", "n": 16, "p": 0.3, "seed": 3,
                "in_rate": 1, "out_rate": 2}


@pytest.fixture(scope="module")
def pool():
    """One 2-worker pool shared by the whole module (spawns are ~1s)."""
    with WorkerPool(2, spawn_timeout=120.0) as p:
        yield p


class TestTaskExecution:
    def test_ping_roundtrip(self, pool):
        payload = {"nested": [1, 2, {"deep": "value"}]}
        assert pool.submit("ping", (payload,)).result(30) == payload

    def test_classify_matches_in_process(self, pool):
        from repro.flow import classify_network
        from repro.serve import report_to_json

        spec = parse_spec(SPEC_PAYLOAD)
        out, _hit = pool.submit(
            "classify", (spec,),
            shard_key=canonical_spec_key(spec),
        ).result(60)
        assert out == report_to_json(classify_network(spec.extended()))

    def test_simulate_batch_matches_scalar_oracle(self, pool):
        spec = parse_spec(SPEC_PAYLOAD)
        seeds = [11, 12, 13]
        responses = pool.submit(
            "simulate_batch", (spec, 300, 0.0, seeds)).result(120)
        assert len(responses) == len(seeds)
        for seed, body in zip(seeds, responses):
            assert body == direct_simulate(spec, 300, seed)

    def test_round_robin_spreads_unsharded_tasks(self, pool):
        futures = [pool.submit("ping", (i,)) for i in range(6)]
        assert [f.result(30) for f in futures] == list(range(6))


class TestShardAffinity:
    def test_same_key_hits_worker_cache(self, pool):
        spec = parse_spec({**SPEC_PAYLOAD, "seed": 41})
        key = canonical_spec_key(spec)
        _, hit1 = pool.submit("classify", (spec,),
                              shard_key=key).result(60)
        _, hit2 = pool.submit("classify", (spec,),
                              shard_key=key).result(60)
        assert hit1 is False
        assert hit2 is True  # affinity routed it to the same shard owner

    def test_worker_for_matches_shard_index(self, pool):
        for salt in range(20):
            key = f"key-{salt}"
            assert pool.worker_for(key) == shard_index(key, pool.n_workers)

    def test_shard_index_is_stable_and_in_range(self):
        seen = {shard_index(f"k{i}", 4) for i in range(64)}
        assert seen <= set(range(4))
        assert len(seen) > 1  # not everything collapsing onto one worker
        assert shard_index("abc", 4) == shard_index("abc", 4)

    def test_shard_index_rejects_bad_shards(self):
        from repro.errors import SweepError

        with pytest.raises(SweepError, match="shards"):
            shard_index("abc", 0)


class TestErrorTransport:
    def test_worker_exception_reaches_caller(self, pool):
        # a TypeError inside the handler (bad arity: the task tuple of
        # an engine choice that no longer exists) must cross the pipe
        with pytest.raises(TypeError):
            pool.submit("classify", ("not-a-spec", "dinic")).result(30)

    def test_unknown_kind_rejected_at_submit(self, pool):
        with pytest.raises(ServeError, match="unknown task kind"):
            pool.submit("no-such-kind", ())

    def test_pool_survives_a_failed_task(self, pool):
        with pytest.raises(TypeError):
            pool.submit("ping", (1, 2, 3, 4)).result(30)
        assert pool.submit("ping", ("still alive",)).result(30) == "still alive"


class TestLifecycle:
    def test_rejects_zero_workers(self):
        with pytest.raises(ServeError, match="n_workers"):
            WorkerPool(0)

    def test_submit_before_start_rejected(self):
        pool = WorkerPool(1)
        with pytest.raises(ServeError, match="not running"):
            pool.submit("ping", (1,))

    def test_idle_death_is_recovered_on_next_task(self):
        with WorkerPool(1, spawn_timeout=120.0) as solo:
            assert solo.submit("ping", (0,)).result(30) == 0
            (pid,) = solo.worker_pids()
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while solo.alive_count and time.monotonic() < deadline:
                time.sleep(0.02)
            # the next submissions ride the respawn transparently
            assert [solo.submit("ping", (i,)).result(60)
                    for i in range(4)] == list(range(4))
            assert solo.restarts == 1
            assert solo.duplicate_results == 0
            assert solo.alive_count == 1

    def test_close_fails_queued_tasks_cleanly(self):
        pool = WorkerPool(1, spawn_timeout=120.0)
        pool.start()
        # a slow task followed by queued ones, then close underneath them
        slow = pool.submit(
            "simulate_batch",
            (parse_spec(SPEC_PAYLOAD), 2000, 0.0, [0, 1]))
        queued = [pool.submit("ping", (i,)) for i in range(3)]
        pool.close()
        # the in-flight batch either finished or was failed by shutdown;
        # every queued task must resolve (never hang), almost always as
        # a clean shutdown ServeError
        for fut in [slow, *queued]:
            try:
                fut.result(30)
            except ServeError as exc:
                assert exc.error == "shutdown"
        pool.close()  # idempotent

    def test_health_shape(self, pool):
        pool.submit("ping", (1,)).result(30)
        health = pool.health()
        assert health["configured"] == 2
        assert health["alive"] == 2
        assert set(health) == {"configured", "alive", "restarts", "queued",
                               "completed", "per_worker"}
        per_worker = health["per_worker"]
        assert [w["index"] for w in per_worker] == [0, 1]
        assert all(w["alive"] and w["restarts"] == 0 for w in per_worker)
        assert health["completed"].get("ping", 0) >= 1
