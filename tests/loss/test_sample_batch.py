"""``BernoulliLoss.sample_batch`` against the per-replica loop it replaces.

Replica ``r`` must see exactly what the scalar model would draw for its
selected transmissions with its own generator: one ``rng.random(k)`` per
replica that sent ``k > 0`` packets, in replica order, and no draw at all
for a replica that sent nothing.
"""

import numpy as np
import pytest

from repro.loss import BernoulliLoss


def loop_reference(model, selected, rngs):
    out = np.zeros(selected.shape, dtype=bool)
    for r, rng in enumerate(rngs):
        idx = np.nonzero(selected[r])[0]
        if len(idx):
            out[r, idx] = model.sample(idx, idx, idx, 0, rng)
    return out


@pytest.mark.parametrize("seed", range(30))
def test_batch_equals_per_replica_scalar_draws(seed):
    gen = np.random.default_rng(seed)
    replicas, edges = int(gen.integers(1, 9)), int(gen.integers(0, 25))
    selected = gen.random((replicas, edges)) < gen.random()
    selected[gen.random(replicas) < 0.3] = False  # some replicas send nothing
    model = BernoulliLoss(float(gen.choice([0.0, 1.0, gen.random()])))
    batch_rngs = [np.random.default_rng([seed, r]) for r in range(replicas)]
    loop_rngs = [np.random.default_rng([seed, r]) for r in range(replicas)]

    got = model.sample_batch(None, None, None, selected, 0, batch_rngs)
    assert got.dtype == bool and got.shape == selected.shape
    assert got.tolist() == loop_reference(model, selected, loop_rngs).tolist()
    assert not got[~selected].any()
    # every generator advanced by exactly the same draws
    assert [g.random() for g in batch_rngs] == [g.random() for g in loop_rngs]
