"""Pure-integer time-batched kernel for classical LGG runs.

On the classical model (exact injection, truthful revelation, ``R = 0``,
no losses / interference / topology dynamics, every node active) a run is
a completely deterministic integer recurrence, yet the stage pipeline pays
tens of microseconds per step shuffling numpy scaffolding through it.
This module runs the recurrence in plain Python integers instead:

* neighbour lists come pre-sorted by the tie-break key from the topology's
  shared presorted order (:meth:`repro.core.lgg_fast.HalfEdges.presorted`;
  Algorithm 1 orders ``Γ(u)`` by revealed queue, then by the pluggable tie
  key — a stable sort on the queue alone therefore reproduces the full
  composite order), and are re-sorted per step only when the sender's
  packet budget actually truncates the eligible list;
* whole step transitions are memoized on the boundary queue vector:
  deterministic runs either fall into a cycle (every step after the
  transient is a dictionary hit) or diverge, in which case the memo shuts
  itself off after :data:`MISS_STREAK_LIMIT` consecutive misses so
  divergent runs do not keep paying for dead lookups.

Bit-exactness against the stage pipeline is the contract: the differential
matrix in ``tests/numeric/test_fastpath.py`` asserts step-for-step
trajectory equality against both the scalar engine and the batched
ensemble.  Eligibility is checked conservatively — any knob the kernel
does not model routes the run back to the pipeline (and
``SimulationConfig(numeric_fastpath=True)`` turns that silent fallback
into an error for callers who *require* the kernel).
"""

from __future__ import annotations

import math
import operator
from typing import Optional

import numpy as np

from repro.core.policies import LGGPolicy
from repro.core.tiebreak import TieBreak
from repro.errors import SimulationError
from repro.network.spec import RevelationPolicy
from repro.numeric import note_fastpath_steps

__all__ = [
    "MEMO_CAP",
    "MISS_STREAK_LIMIT",
    "ineligibility_reasons",
    "ensemble_ineligibility_reasons",
    "maybe_run",
    "maybe_run_ensemble",
]

#: Step-transition memo size bound (entries are whole queue vectors).
MEMO_CAP = 1 << 14

#: Consecutive memo misses after which a run is declared divergent and the
#: memo is dropped.  Must exceed the transient-plus-cycle length of stable
#: runs (those re-hit within the cycle length, resetting the streak);
#: divergent runs pay the memo's lookup+insert tax for exactly this many
#: steps, so the limit trades stable-run coverage against divergent-run
#: overhead.
MISS_STREAK_LIMIT = 1 << 10

_sumprod = getattr(math, "sumprod", None)
if _sumprod is None:  # pragma: no cover - Python < 3.12
    def _sumprod(p, q):
        return sum(map(operator.mul, p, q))

_FAST_TIEBREAKS = (TieBreak.QUEUE_THEN_ID, TieBreak.QUEUE_THEN_REVERSED_ID)

# network_state_rows switches to big-int rows at this queue magnitude; the
# ensemble fast path must replicate the dtype choice step for step
_BIGINT_THRESHOLD = 3_000_000_000


# ----------------------------------------------------------------------
# eligibility
# ----------------------------------------------------------------------
def _spec_config_reasons(spec, cfg, trace) -> list[str]:
    """Ineligibility reasons shared by the scalar and batched front ends."""
    reasons = []
    if spec.retention != 0:
        reasons.append(f"retention R={spec.retention} (kernel models R=0)")
    if spec.revelation is not RevelationPolicy.TRUTHFUL:
        reasons.append(f"revelation policy {spec.revelation.value}")
    if not spec.exact_injection:
        reasons.append("pseudo-source (inexact) injection")
    if cfg.interference is not None:
        reasons.append("interference model")
    if cfg.topology is not None:
        reasons.append("topology schedule")
    if cfg.activation_prob != 1.0:
        reasons.append(f"activation_prob={cfg.activation_prob}")
    if cfg.record_events:
        reasons.append("per-step event records")
    if cfg.profile_stages:
        reasons.append("stage profiling")
    if cfg.validate_every_step:
        reasons.append("per-step validation")
    if trace.enabled:
        reasons.append("tracing enabled")
    return reasons


def ineligibility_reasons(sim) -> list[str]:
    """Why the scalar ``Simulator`` run cannot use the kernel (empty = can)."""
    from repro.arrivals.deterministic import DeterministicArrivals
    from repro.core.engine import Simulator

    reasons = _spec_config_reasons(sim.spec, sim.config, sim.trace)
    if type(sim) is not Simulator:
        # subclasses (e.g. PacketSimulator) hang extra state off the
        # per-step _on_inject/_on_transmit/_on_extract hooks
        reasons.append(f"simulator subclass {type(sim).__name__}")
    if type(sim.policy) is not LGGPolicy:
        reasons.append(f"policy {type(sim.policy).__name__}")
    else:
        if sim.policy.use_reference:
            reasons.append("reference LGG selection")
        if sim.policy.tiebreak not in _FAST_TIEBREAKS:
            reasons.append(f"tie-break {sim.policy.tiebreak.value}")
    if sim.losses is not None:
        reasons.append("loss model")
    if type(sim.arrivals) is not DeterministicArrivals:
        reasons.append(f"arrival process {type(sim.arrivals).__name__}")
    return reasons


def ensemble_ineligibility_reasons(ens) -> list[str]:
    """Why the batched ``EnsembleSimulator`` run cannot broadcast the kernel.

    On top of the scalar conditions the replicas must be *indistinguishable*:
    no per-replica arrival or loss process (the only randomness sources left
    after the shared checks) and identical starting queue vectors — then all
    ``R`` trajectories coincide and one kernel run covers the ensemble.
    """
    from repro.core.ensemble import EnsembleSimulator

    reasons = _spec_config_reasons(ens.spec, ens.config, ens.trace)
    if type(ens) is not EnsembleSimulator:
        reasons.append(f"ensemble subclass {type(ens).__name__}")
    if ens.config.tiebreak not in _FAST_TIEBREAKS:
        reasons.append(f"tie-break {ens.config.tiebreak.value}")
    if ens.arrivals is not None:
        reasons.append("per-replica arrival process")
    if ens.losses is not None:
        reasons.append("per-replica loss model")
    if not bool((ens.Q == ens.Q[0]).all()):
        reasons.append("replicas start from differing queue vectors")
    return reasons


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------
def _simulate(spec, half, tiebreak, q0, steps: int, record_queues: bool):
    """Run ``steps`` classical LGG steps from ``q0`` in pure integers.

    Returns ``(q_final, inj_total, pots, tots, mxs, txs, dels, snaps)``
    where the five series are per-step lists matching the trajectory's
    accounting (``lost`` is identically 0 and ``injected`` identically
    ``inj_total`` on eligible runs) and ``snaps`` is the optional list of
    post-step queue snapshots.
    """
    n = spec.n
    nbrs = half.presorted(tiebreak).neighbor_lists  # shared: read only
    active = [u for u in range(n) if nbrs[u]]
    in_list = list(spec.in_rates.items())
    out_list = list(spec.out_rates.items())
    inj_total = sum(r for _, r in in_list)

    q = [int(x) for x in q0]
    pots: list[int] = []
    tots: list[int] = []
    mxs: list[int] = []
    txs: list[int] = []
    dels: list[int] = []
    snaps: Optional[list[np.ndarray]] = [] if record_queues else None

    memo: Optional[dict] = {}
    miss_streak = 0
    sumprod = _sumprod

    for _ in range(steps):
        if memo is not None:
            key = tuple(q)  # boundary state, before this step's injection
            hit = memo.get(key)
            if hit is not None:
                q_next, tx, dv, tot, pot, mx = hit
                q = list(q_next)
                miss_streak = 0
                pots.append(pot)
                tots.append(tot)
                mxs.append(mx)
                txs.append(tx)
                dels.append(dv)
                if snaps is not None:
                    snaps.append(np.array(q_next, dtype=np.int64))
                continue

        # injection: exactly in(v), every step (classical Section II)
        for v, r in in_list:
            q[v] += r
        # Algorithm 1 selection, applied synchronously
        delta = [0] * n
        tx = 0
        for u in active:
            qu = q[u]
            if qu <= 0:
                continue
            elig = [v for v in nbrs[u] if q[v] < qu]
            m = len(elig)
            if not m:
                continue
            if m > qu:
                # stable sort by revealed queue preserves the tie-key
                # pre-order, reproducing the pipeline's presorted selection
                elig = sorted(elig, key=q.__getitem__)[:qu]
                m = qu
            delta[u] -= m
            for v in elig:
                delta[v] += 1
            tx += m
        if tx:
            q = [a + b for a, b in zip(q, delta)]
        # greedy extraction: min(out(v), q_v)
        dv = 0
        for v, r in out_list:
            qv = q[v]
            if qv > 0:
                e = r if r < qv else qv
                q[v] = qv - e
                dv += e
        tot = sum(q)
        mx = max(q) if q else 0
        pot = sumprod(q, q)
        pots.append(pot)
        tots.append(tot)
        mxs.append(mx)
        txs.append(tx)
        dels.append(dv)
        if snaps is not None:
            snaps.append(np.array(q, dtype=np.int64))
        if memo is not None:
            if len(memo) < MEMO_CAP:
                memo[key] = (tuple(q), tx, dv, tot, pot, mx)
            miss_streak += 1
            if miss_streak >= MISS_STREAK_LIMIT:
                memo = None  # divergent run: stop paying for dead lookups

    return q, inj_total, pots, tots, mxs, txs, dels, snaps


# ----------------------------------------------------------------------
# engine front ends
# ----------------------------------------------------------------------
def maybe_run(sim, steps: int) -> bool:
    """Advance a scalar ``Simulator`` by ``steps`` via the kernel if eligible.

    Mutates ``sim.queues`` / ``sim.trajectory`` / ``sim.t`` exactly as
    ``steps`` pipeline iterations would; returns ``False`` (and touches
    nothing) when the configuration is not kernel-eligible.
    """
    want = sim.config.numeric_fastpath
    if want is False or steps <= 0:
        return False
    reasons = ineligibility_reasons(sim)
    if reasons:
        if want is True:
            raise SimulationError(
                "numeric_fastpath=True but the run is not kernel-eligible: "
                + "; ".join(reasons)
            )
        return False
    traj = sim.trajectory
    q, inj_total, pots, tots, mxs, txs, dels, snaps = _simulate(
        sim.spec, sim._half, sim.policy.tiebreak, sim.queues, steps,
        traj.queue_history is not None,
    )
    traj.potentials.extend(pots)
    traj.total_queued.extend(tots)
    traj.max_queues.extend(mxs)
    traj.injected.extend([inj_total] * steps)
    traj.transmitted.extend(txs)
    traj.lost.extend([0] * steps)
    traj.delivered.extend(dels)
    if traj.queue_history is not None:
        traj.queue_history.extend(snaps)
    sim.queues = np.array(q, dtype=np.int64)
    sim.t += steps
    note_fastpath_steps(steps)
    return True


def maybe_run_ensemble(ens, steps: int) -> bool:
    """Advance an ``EnsembleSimulator`` by broadcasting one kernel run.

    Eligible ensembles are fully deterministic and replica-symmetric, so a
    single kernel trajectory tiled ``R`` ways reproduces the batched
    pipeline bit for bit (including :func:`network_state_rows`' per-step
    int64-vs-bigint dtype choice).
    """
    want = ens.config.numeric_fastpath
    if want is False or steps <= 0:
        return False
    reasons = ensemble_ineligibility_reasons(ens)
    if reasons:
        if want is True:
            raise SimulationError(
                "numeric_fastpath=True but the ensemble is not kernel-eligible: "
                + "; ".join(reasons)
            )
        return False
    R = ens.R
    record = ens.queue_hist is not None
    q, inj_total, pots, tots, mxs, txs, dels, snaps = _simulate(
        ens.spec, ens._half, ens.config.tiebreak, ens.Q[0], steps, record,
    )
    zero = np.zeros(R, dtype=np.int64)
    inj_row = np.full(R, inj_total, dtype=np.int64)
    for pot, tot, mx, tx, dv in zip(pots, tots, mxs, txs, dels):
        if mx < _BIGINT_THRESHOLD:
            ens.pot_hist.append(np.full(R, pot, dtype=np.int64))
        else:
            ens.pot_hist.append(np.array([pot] * R, dtype=object))
        ens.total_hist.append(np.full(R, tot, dtype=np.int64))
        ens.max_hist.append(np.full(R, mx, dtype=np.int64))
        ens.injected_hist.append(inj_row.copy())
        ens.transmitted_hist.append(np.full(R, tx, dtype=np.int64))
        ens.lost_hist.append(zero.copy())
        ens.delivered_hist.append(np.full(R, dv, dtype=np.int64))
    if record:
        for s in snaps:
            ens.queue_hist.append(np.tile(s, (R, 1)))
    ens.Q = np.tile(np.array(q, dtype=np.int64), (R, 1))
    ens.t += steps
    note_fastpath_steps(steps)
    return True
