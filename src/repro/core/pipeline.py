"""The composable step pipeline: one set of stage objects, two backends.

Section II's step semantics (inject → reveal → transmit → lose → extract)
used to live twice: once in the monolithic ``Simulator.step()`` and again
as a restricted hand-vectorized copy in the ensemble engine.  This module
is the single home of those semantics.  Each phase of a synchronous step
is a small :class:`Stage` object with two entry points:

* ``scalar(host, st)``  — operates on one ``(n,)`` queue vector
  (:class:`repro.core.engine.Simulator` and its packet-level subclass);
* ``batched(host, st)`` — operates on an ``(R, n)`` queue matrix of ``R``
  independent replicas (:class:`repro.core.ensemble.EnsembleSimulator`).

The stage order is fixed by :data:`DEFAULT_PIPELINE`::

    topology → injection → revelation → selection → activation →
    budget → link-capacity → interference → loss → application →
    extraction → recording

Both backends share one :class:`StepState` contract (the per-step working
fields each stage reads/writes) and, wherever the maths is identical, one
helper function — so the two implementations cannot drift apart.

Bit-exactness across backends
-----------------------------
The batched backend keeps **one RNG stream per replica** and mirrors the
scalar engine's draw pattern exactly: every stage draws from replica
``r``'s generator with the same numpy calls, in the same order, behind
the same guards ("only draw when there is something to randomise") as the
scalar stage does.  A batched run seeded ``seeds=[s_0, …, s_{R-1}]`` is
therefore *bit-identical*, per replica, to ``R`` scalar runs seeded
``s_r`` — for every extraction mode, revelation policy, loss model,
tie-break strategy and ``activation_prob``.  The differential test matrix
in ``tests/core/test_pipeline.py`` asserts this for the full knob product.

Per-stage instrumentation
-------------------------
``StagePipeline.run`` accepts an optional timing sink: a dict mapping
stage name → :class:`StageTiming` accumulated across steps.  Enable it
with ``SimulationConfig(profile_stages=True)``; the host then exposes the
sink as ``.stage_timings``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from time import perf_counter
from typing import Optional

import numpy as np

from repro.core.lgg_fast import HalfEdges, lgg_select_fast_batched
from repro.core.policies import LGGPolicy
from repro.errors import SimulationError, SpecError
from repro.obs.trace import step_record
from repro.network.spec import RevelationPolicy
from repro.network.state import StepStats, network_state, network_state_rows

__all__ = [
    "ExtractionMode",
    "LinkCapacityMode",
    "StepEvents",
    "StepState",
    "StageTiming",
    "Stage",
    "StagePipeline",
    "DEFAULT_PIPELINE",
    "STAGE_NAMES",
    "reveal_queues",
    "link_capacity_keep",
    "link_conflicts_impossible",
    "extraction_amounts",
]


class ExtractionMode(Enum):
    """How much an R-generalized destination extracts (within Def. 7's band).

    * ``GREEDY`` — extract ``min(out, q)``: the classical sink behaviour,
      and the most helpful compliant choice.
    * ``MANDATORY_MINIMUM`` — extract only ``min(out, max(q - R, 0))``: the
      least helpful compliant choice; stability must survive it.
    * ``RANDOM`` — uniform between the two bounds each step.

    For ``R = 0`` all three coincide with the classical ``min(out, q)``.
    """

    GREEDY = "greedy"
    MANDATORY_MINIMUM = "mandatory_minimum"
    RANDOM = "random"


class LinkCapacityMode(Enum):
    """Per-step capacity of an undirected link.

    The paper says "each link can transmit at most 1 packet"; with truthful
    revelation LGG can never select both directions (the gradient test is
    strict), but lying terminals can.  ``PER_LINK`` (default, the paper's
    model) keeps only the stronger-gradient direction; ``PER_DIRECTION``
    allows one packet each way (a common relaxation, exposed for ablation).
    """

    PER_LINK = "per_link"
    PER_DIRECTION = "per_direction"


@dataclass(frozen=True)
class StepEvents:
    """Full per-step event record (opt-in via ``record_events``).

    ``q_start`` is the boundary snapshot *before* injection; the Lyapunov
    decomposition of Eq. (3) is recomputable from these fields alone.
    """

    t: int
    q_start: np.ndarray
    injections: np.ndarray
    edge_ids: np.ndarray
    senders: np.ndarray
    receivers: np.ndarray
    lost_mask: np.ndarray
    extractions: np.ndarray


_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY_BOOL = np.empty(0, dtype=bool)


@dataclass
class StepState:
    """Per-step working state passed through the pipeline.

    The *contract* between stages: each stage reads the fields earlier
    stages filled and writes its own.  Field shapes depend on the backend:

    =================  =======================  ==========================
    field              scalar backend           batched backend
    =================  =======================  ==========================
    ``injections``     ``(n,)`` int64           unset (totals only)
    ``revealed``       ``(n,)`` int64           ``(R, n)`` int64
    ``eids/snd/rcv``   ``(k,)`` selected        ``(R, H)`` half-edges in
                       transmissions, kept in   per-replica scalar order;
                       scalar engine order      ``sel_mask`` marks selected
    ``sel_mask``       unused                   ``(R, H)`` bool
    ``lost_mask``      ``(k,)`` bool            ``(R, H)`` bool (⊆ mask)
    ``extractions``    ``(n,)`` int64           ``(R, n)`` int64
    counters           python ints              ``(R,)`` int64 arrays
    =================  =======================  ==========================

    ``eids/snd/rcv`` in the batched backend hold *every* half-edge sorted
    per replica so that, restricted to ``sel_mask``, replica ``r``'s
    transmissions appear in exactly the order the scalar engine's arrays
    would — the property that lets stochastic stages replay the scalar
    draw pattern per replica.
    """

    t: int
    q_start: Optional[np.ndarray] = None
    injections: np.ndarray = field(default_factory=lambda: _EMPTY)
    revealed: np.ndarray = field(default_factory=lambda: _EMPTY)
    eids: np.ndarray = field(default_factory=lambda: _EMPTY)
    snd: np.ndarray = field(default_factory=lambda: _EMPTY)
    rcv: np.ndarray = field(default_factory=lambda: _EMPTY)
    sel_mask: np.ndarray = field(default_factory=lambda: _EMPTY_BOOL)
    lost_mask: np.ndarray = field(default_factory=lambda: _EMPTY_BOOL)
    extractions: np.ndarray = field(default_factory=lambda: _EMPTY)
    # counters: ints (scalar) or (R,) int64 (batched)
    injected: object = 0
    transmitted: object = 0
    lost: object = 0
    delivered: object = 0
    stats: Optional[StepStats] = None   # scalar backend only


@dataclass
class StageTiming:
    """Accumulated wall-clock cost of one stage across steps."""

    calls: int = 0
    seconds: float = 0.0

    @property
    def mean_us(self) -> float:
        return 1e6 * self.seconds / self.calls if self.calls else 0.0


# ----------------------------------------------------------------------
# shared helpers — one implementation of the maths, used by both backends
# ----------------------------------------------------------------------
def reveal_queues(
    q: np.ndarray,
    terminal_mask: np.ndarray,
    retention: int,
    policy: RevelationPolicy,
    rng: np.random.Generator,
) -> np.ndarray:
    """Declared queue lengths per Definition 7(ii), for one ``(n,)`` vector.

    Draws from ``rng`` only for :attr:`RevelationPolicy.RANDOM` and only
    when liars exist — the guard both backends must mirror.
    """
    if policy is RevelationPolicy.TRUTHFUL or retention == 0:
        return q
    revealed = q.copy()
    liars = terminal_mask & (q <= retention)
    if not liars.any():
        return revealed
    idx = np.nonzero(liars)[0]
    if policy is RevelationPolicy.ALWAYS_R:
        revealed[idx] = retention
    elif policy is RevelationPolicy.ZERO:
        revealed[idx] = 0
    elif policy is RevelationPolicy.RANDOM:
        revealed[idx] = rng.integers(0, retention + 1, size=len(idx))
    else:  # pragma: no cover - enum is closed
        raise SpecError(f"unknown revelation policy {policy!r}")
    return revealed


def link_capacity_keep(
    eids: np.ndarray,
    snd: np.ndarray,
    rcv: np.ndarray,
    q: np.ndarray,
    mode: LinkCapacityMode,
) -> np.ndarray:
    """Keep-mask enforcing per-link (or per-direction) unit capacity.

    Conflict resolution: keep the transmission with the larger sender
    queue (stronger gradient), tie-broken by lower sender id.  Purely
    deterministic — safe to skip when a conflict is provably impossible.
    """
    keep = np.ones(len(eids), dtype=bool)
    if len(eids) == 0:
        return keep
    if mode is LinkCapacityMode.PER_DIRECTION:
        key = eids * 2 + (snd < rcv)
    else:
        key = eids
    uniq, counts = np.unique(key, return_counts=True)
    if (counts == 1).all():
        return keep
    order = np.lexsort((snd, -q[snd], key))
    keep_sorted = np.ones(len(order), dtype=bool)
    key_sorted = key[order]
    keep_sorted[1:] = key_sorted[1:] != key_sorted[:-1]
    keep = np.zeros(len(order), dtype=bool)
    keep[order[keep_sorted]] = True
    return keep


def extraction_amounts(
    q: np.ndarray,
    out_vec: np.ndarray,
    retention: int,
    mode: ExtractionMode,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-node extraction amounts for one ``(n,)`` queue vector.

    ``RANDOM`` draws ``rng.random(n)`` every step (no guard) — the batched
    backend replays the same unconditional draw per replica.
    """
    greedy = np.minimum(out_vec, np.maximum(q, 0))
    if mode is ExtractionMode.GREEDY or retention == 0:
        return greedy
    mandated = np.minimum(out_vec, np.maximum(q - retention, 0))
    if mode is ExtractionMode.MANDATORY_MINIMUM:
        return mandated
    if mode is ExtractionMode.RANDOM:
        span = greedy - mandated
        extra = (rng.random(len(q)) * (span + 1)).astype(np.int64)
        return mandated + np.minimum(extra, span)
    raise SpecError(f"unknown extraction mode {mode!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------
class Stage:
    """One phase of a synchronous step, implemented for both backends.

    ``host`` is the owning simulator: :class:`~repro.core.engine.Simulator`
    for ``scalar``, :class:`~repro.core.ensemble.EnsembleSimulator` for
    ``batched``.  Stages are stateless; all per-step state lives in the
    :class:`StepState`, all run-long state on the host.
    """

    name: str = "stage"

    def scalar(self, host, st: StepState) -> None:
        raise NotImplementedError(f"{self.name} has no scalar backend")

    def batched(self, host, st: StepState) -> None:
        raise NotImplementedError(f"{self.name} has no batched backend")


class TopologyStage(Stage):
    """Apply the dynamic-topology schedule, if any (static in batched runs)."""

    name = "topology"

    def scalar(self, host, st: StepState) -> None:
        if host.topology is not None and host.topology.apply(host.spec.graph, host.t):
            host._half = HalfEdges.from_graph(host.spec.graph)
            host.policy.on_topology_change(host.spec, host._half)

    def batched(self, host, st: StepState) -> None:
        pass  # dynamic topology is rejected at EnsembleSimulator construction


class InjectionStage(Stage):
    """Sources add packets: exactly ``in(s)`` classically, anything in
    ``[0, in(s)]`` for pseudo-sources (decided by the arrival process)."""

    name = "injection"

    def scalar(self, host, st: StepState) -> None:
        spec = host.spec
        inj = np.asarray(host.arrivals.sample(host.t, host.rng), dtype=np.int64)
        self._validate(spec, inj, (spec.n,), host._in_vec)
        host.queues += inj
        host._on_inject(inj)
        st.injections = inj
        st.injected = int(inj.sum())

    def batched(self, host, st: StepState) -> None:
        spec, R = host.spec, host.R
        arr = host.arrivals
        if arr is None:
            # classical exact injection: a broadcast, no validation needed
            host.Q += host._in_vec
            st.injected = np.full(R, int(host._in_vec.sum()), dtype=np.int64)
            return
        if isinstance(arr, list):
            inj = np.stack([
                np.asarray(a.sample(st.t, g), dtype=np.int64)
                for a, g in zip(arr, host.rngs)
            ])
        elif hasattr(arr, "sample_batch"):
            inj = np.asarray(arr.sample_batch(st.t, host.rngs), dtype=np.int64)
        else:
            inj = np.stack([
                np.asarray(arr.sample(st.t, g), dtype=np.int64) for g in host.rngs
            ])
        self._validate(spec, inj, (R, spec.n), host._in_vec)
        host.Q += inj
        st.injected = inj.sum(axis=1).astype(np.int64)

    @staticmethod
    def _validate(spec, inj, shape, in_vec) -> None:
        # accept the classical case in two passes; anything else meets the
        # full checks below, in their order, so every error stays the same
        if (spec.exact_injection and inj.shape == shape
                and (inj == in_vec).all() and in_vec.min(initial=0) >= 0):
            return
        if inj.shape != shape:
            raise SimulationError(f"arrival process returned shape {inj.shape}")
        if (inj < 0).any():
            raise SimulationError("arrival process injected negative packets")
        if (inj > in_vec).any():
            raise SimulationError("arrival process exceeded in(v) for some node")
        if spec.exact_injection and not np.array_equal(
            inj, np.broadcast_to(in_vec, shape)
        ):
            raise SimulationError(
                "classical S-D-network requires exact injection in(s) per step; "
                "use NetworkSpec.generalized for pseudo-sources"
            )


class RevelationStage(Stage):
    """R-generalized terminals declare queue lengths per Definition 7(ii)."""

    name = "revelation"

    def scalar(self, host, st: StepState) -> None:
        st.revealed = reveal_queues(
            host.queues, host._terminal_mask, host.spec.retention,
            host.spec.revelation, host.rng,
        )

    def batched(self, host, st: StepState) -> None:
        spec, Q = host.spec, host.Q
        pol, ret = spec.revelation, spec.retention
        if pol is RevelationPolicy.TRUTHFUL or ret == 0:
            st.revealed = Q
            return
        revealed = Q.copy()
        liars = host._terminal_mask[None, :] & (Q <= ret)
        if pol is RevelationPolicy.ALWAYS_R:
            revealed[liars] = ret
        elif pol is RevelationPolicy.ZERO:
            revealed[liars] = 0
        elif pol is RevelationPolicy.RANDOM:
            # per-replica draws, mirroring the scalar guard (no liars →
            # no draw) and call signature exactly
            for r in range(host.R):
                idx = np.nonzero(liars[r])[0]
                if len(idx):
                    revealed[r, idx] = host.rngs[r].integers(
                        0, ret + 1, size=len(idx)
                    )
        else:  # pragma: no cover - enum is closed
            raise SpecError(f"unknown revelation policy {pol!r}")
        st.revealed = revealed


class SelectionStage(Stage):
    """The transmission policy picks ``E_t`` (Algorithm 1 by default)."""

    name = "selection"

    def scalar(self, host, st: StepState) -> None:
        from repro.core.policies import StepContext

        ctx = StepContext(
            spec=host.spec, half=host._half, queues=host.queues,
            revealed=st.revealed, t=host.t, rng=host.rng,
        )
        eids, snd, rcv = host.policy.select(ctx)
        st.eids = np.asarray(eids, dtype=np.int64)
        st.snd = np.asarray(snd, dtype=np.int64)
        st.rcv = np.asarray(rcv, dtype=np.int64)

    def batched(self, host, st: StepState) -> None:
        h = host._half
        if h.size == 0:
            R = host.R
            st.eids = st.snd = st.rcv = np.empty((R, 0), dtype=np.int64)
            st.sel_mask = np.empty((R, 0), dtype=bool)
            return
        st.eids, st.snd, st.rcv, st.sel_mask = lgg_select_fast_batched(
            h, host.Q, st.revealed,
            tiebreak=host.config.tiebreak, rngs=host.rngs,
        )


class ActivationStage(Stage):
    """Asynchronous operation: only awake nodes transmit this step."""

    name = "activation"

    def scalar(self, host, st: StepState) -> None:
        p_act = host.config.activation_prob
        if p_act < 1.0 and len(st.snd):
            awake = host.rng.random(host.spec.n) < p_act
            keep = awake[st.snd]
            st.eids, st.snd, st.rcv = st.eids[keep], st.snd[keep], st.rcv[keep]

    def batched(self, host, st: StepState) -> None:
        p_act = host.config.activation_prob
        if p_act >= 1.0 or st.sel_mask.shape[1] == 0:
            return
        n = host.spec.n
        for r in range(host.R):
            if not st.sel_mask[r].any():
                continue  # scalar draws only when it selected something
            awake = host.rngs[r].random(n) < p_act
            st.sel_mask[r] &= awake[st.snd[r]]


class BudgetStage(Stage):
    """Validate sender budgets — a policy may never send packets it lacks."""

    name = "budget"

    def scalar(self, host, st: StepState) -> None:
        if len(st.snd):
            counts = np.bincount(st.snd, minlength=host.spec.n)
            if (counts > host.queues).any():
                bad = int(np.nonzero(counts > host.queues)[0][0])
                raise SimulationError(
                    f"policy overdrew node {bad}: {counts[bad]} sends > "
                    f"queue {host.queues[bad]}"
                )

    def batched(self, host, st: StepState) -> None:
        if st.sel_mask.shape[1] == 0 or not st.sel_mask.any():
            return
        n = host.spec.n
        flat = (host._row * n + st.snd)[st.sel_mask]
        counts = np.bincount(flat, minlength=host.R * n).reshape(host.R, n)
        over = counts > host.Q
        if over.any():
            r, bad = (int(x[0]) for x in np.nonzero(over))
            raise SimulationError(
                f"policy overdrew node {bad}: {counts[r, bad]} sends > "
                f"queue {host.Q[r, bad]} (replica {r})"
            )


def link_conflicts_impossible(policy_type: type, spec, mode: LinkCapacityMode) -> bool:
    """True when :func:`link_capacity_keep` provably keeps every transmission.

    Algorithm 1 selects each directed half-edge at most once, so a
    ``PER_DIRECTION`` conflict never arises, and its gradient test is
    strict: ``q_u > q_v`` and ``q_v > q_u`` cannot both hold, so with
    declared queues equal to true ones (truthful revelation, or ``R = 0``)
    no link is contested either.  Only lying terminals under ``PER_LINK``
    capacity, or another policy, can contest a link.
    """
    return policy_type is LGGPolicy and (
        spec.revelation is RevelationPolicy.TRUTHFUL
        or spec.retention == 0
        or mode is LinkCapacityMode.PER_DIRECTION
    )


class LinkCapacityStage(Stage):
    """Enforce "each link can transmit at most 1 packet" (Section II)."""

    name = "link_capacity"

    def scalar(self, host, st: StepState) -> None:
        if link_conflicts_impossible(
            type(host.policy), host.spec, host.config.link_capacity
        ):
            return
        keep = link_capacity_keep(
            st.eids, st.snd, st.rcv, host.queues, host.config.link_capacity
        )
        if not keep.all():
            st.eids, st.snd, st.rcv = st.eids[keep], st.snd[keep], st.rcv[keep]

    def batched(self, host, st: StepState) -> None:
        # the batched backend runs Algorithm 1 only
        if link_conflicts_impossible(LGGPolicy, host.spec, host.config.link_capacity):
            return
        if st.sel_mask.shape[1] == 0:
            return
        for r in range(host.R):
            idx = np.nonzero(st.sel_mask[r])[0]
            if len(idx) < 2:
                continue
            keep = link_capacity_keep(
                st.eids[r, idx], st.snd[r, idx], st.rcv[r, idx],
                host.Q[r], host.config.link_capacity,
            )
            if not keep.all():
                st.sel_mask[r, idx[~keep]] = False


class InterferenceStage(Stage):
    """Apply the interference model (Conjecture 5), scalar backend only."""

    name = "interference"

    def scalar(self, host, st: StepState) -> None:
        if host.interference is not None and len(st.eids):
            keep = host.interference.filter(
                st.eids, st.snd, st.rcv, host.queues, st.revealed, host.rng
            )
            st.eids, st.snd, st.rcv = st.eids[keep], st.snd[keep], st.rcv[keep]

    def batched(self, host, st: StepState) -> None:
        pass  # interference models are rejected at construction


class LossStage(Stage):
    """Sample in-transit losses ("this packet can be lost without any
    notification") over the surviving transmissions."""

    name = "loss"

    def scalar(self, host, st: StepState) -> None:
        transmitted = len(st.eids)
        st.transmitted = transmitted
        if host.losses is not None and transmitted:
            lost_mask = np.asarray(
                host.losses.sample(st.eids, st.snd, st.rcv, host.t, host.rng),
                dtype=bool,
            )
            if lost_mask.shape != (transmitted,):
                raise SimulationError("loss model returned a mask of wrong shape")
        else:
            lost_mask = np.zeros(transmitted, dtype=bool)
        st.lost_mask = lost_mask
        st.lost = int(lost_mask.sum())

    def batched(self, host, st: StepState) -> None:
        mask = st.sel_mask
        st.transmitted = mask.sum(axis=1).astype(np.int64)
        models = host.losses
        if models is None or mask.shape[1] == 0:
            st.lost_mask = np.zeros_like(mask)
            st.lost = np.zeros(host.R, dtype=np.int64)
            return
        if not isinstance(models, list) and hasattr(models, "sample_batch"):
            lost = np.asarray(
                models.sample_batch(st.eids, st.snd, st.rcv, mask, st.t, host.rngs),
                dtype=bool,
            )
            if lost.shape != mask.shape:
                raise SimulationError("loss model returned a mask of wrong shape")
            lost &= mask
        else:
            lost = np.zeros_like(mask)
            for r in range(host.R):
                model = models[r] if isinstance(models, list) else models
                idx = np.nonzero(mask[r])[0]
                if len(idx) == 0:
                    continue  # scalar skips the model when nothing transmitted
                row = np.asarray(
                    model.sample(
                        st.eids[r, idx], st.snd[r, idx], st.rcv[r, idx],
                        st.t, host.rngs[r],
                    ),
                    dtype=bool,
                )
                if row.shape != (len(idx),):
                    raise SimulationError("loss model returned a mask of wrong shape")
                lost[r, idx[row]] = True
        st.lost_mask = lost
        st.lost = lost.sum(axis=1).astype(np.int64)


class ApplicationStage(Stage):
    """Apply transmissions: every sender pays; only survivors arrive."""

    name = "application"

    def scalar(self, host, st: StepState) -> None:
        if len(st.eids):
            q = host.queues
            np.subtract.at(q, st.snd, 1)
            survivors = st.rcv[~st.lost_mask]
            if len(survivors):
                np.add.at(q, survivors, 1)
            host._on_transmit(st.snd, st.rcv, st.lost_mask)

    def batched(self, host, st: StepState) -> None:
        mask = st.sel_mask
        if mask.shape[1] == 0 or not mask.any():
            return
        R, n = host.R, host.spec.n
        idx_snd = (host._row * n + st.snd)[mask]
        host.Q -= np.bincount(idx_snd, minlength=R * n).reshape(R, n)
        arrived = mask & ~st.lost_mask
        if arrived.any():
            idx_rcv = (host._row * n + st.rcv)[arrived]
            host.Q += np.bincount(idx_rcv, minlength=R * n).reshape(R, n)


class ExtractionStage(Stage):
    """Sinks remove packets: ``min(out, q)`` classically; within Definition
    7's ``[min(out, q-R), out]`` band when R-generalized."""

    name = "extraction"

    def scalar(self, host, st: StepState) -> None:
        ext = extraction_amounts(
            host.queues, host._out_vec, host.spec.retention,
            host.config.extraction, host.rng,
        )
        host.queues -= ext
        host._on_extract(ext)
        st.extractions = ext
        st.delivered = int(ext.sum())

    def batched(self, host, st: StepState) -> None:
        Q, out = host.Q, host._out_vec
        ret = host.spec.retention
        mode = host.config.extraction
        greedy = np.minimum(out, np.maximum(Q, 0))
        if mode is ExtractionMode.GREEDY or ret == 0:
            ext = greedy
        else:
            mandated = np.minimum(out, np.maximum(Q - ret, 0))
            if mode is ExtractionMode.MANDATORY_MINIMUM:
                ext = mandated
            elif mode is ExtractionMode.RANDOM:
                span = greedy - mandated
                ext = np.empty_like(mandated)
                for r in range(host.R):
                    # same unconditional per-step draw as the scalar engine
                    extra = (
                        host.rngs[r].random(Q.shape[1]) * (span[r] + 1)
                    ).astype(np.int64)
                    ext[r] = mandated[r] + np.minimum(extra, span[r])
            else:  # pragma: no cover - enum is closed
                raise SpecError(f"unknown extraction mode {mode!r}")
        Q -= ext
        st.extractions = ext
        st.delivered = ext.sum(axis=1).astype(np.int64)


class RecordingStage(Stage):
    """Book the step: invariants, event records, trajectory/history rows."""

    name = "recording"

    def scalar(self, host, st: StepState) -> None:
        q = host.queues
        if host.config.validate_every_step and (q < 0).any():
            raise SimulationError("negative queue after step — engine invariant broken")
        if host.config.record_events:
            host.events.append(
                StepEvents(
                    t=host.t,
                    q_start=st.q_start,
                    injections=st.injections.copy(),
                    edge_ids=st.eids.copy(),
                    senders=st.snd.copy(),
                    receivers=st.rcv.copy(),
                    lost_mask=st.lost_mask.copy(),
                    extractions=st.extractions.copy(),
                )
            )
        host.t += 1
        stats = StepStats(
            t=host.t,
            injected=st.injected,
            transmitted=st.transmitted,
            lost=st.lost,
            delivered=st.delivered,
            potential=network_state(q),
            total_queued=int(q.sum()),
            max_queue=int(q.max()) if len(q) else 0,
        )
        host.trajectory.record(stats, q if host.config.record_queues else None)
        st.stats = stats
        tr = host.trace
        if tr.enabled:
            tr.emit(step_record(
                st.t,
                injected=stats.injected,
                transmitted=stats.transmitted,
                lost=stats.lost,
                delivered=stats.delivered,
                potential=stats.potential,
                total_queued=stats.total_queued,
                max_queue=stats.max_queue,
                active_edges=len(np.unique(st.eids)),
            ))

    def batched(self, host, st: StepState) -> None:
        Q = host.Q
        if host.config.validate_every_step and (Q < 0).any():
            raise SimulationError("negative queue after step — engine invariant broken")
        host.t += 1
        host.total_hist.append(Q.sum(axis=1))
        host.pot_hist.append(network_state_rows(Q))
        host.max_hist.append(
            Q.max(axis=1) if Q.shape[1] else np.zeros(host.R, dtype=np.int64)
        )
        host.injected_hist.append(st.injected)
        host.transmitted_hist.append(st.transmitted)
        host.lost_hist.append(st.lost)
        host.delivered_hist.append(st.delivered)
        if host.queue_hist is not None:
            host.queue_hist.append(Q.copy())
        tr = host.trace
        if tr.enabled:
            tr.emit(step_record(
                st.t,
                injected=st.injected,
                transmitted=st.transmitted,
                lost=st.lost,
                delivered=st.delivered,
                potential=host.pot_hist[-1],
                total_queued=host.total_hist[-1],
                max_queue=host.max_hist[-1],
                # per-replica count of half-edges that actually carried a
                # packet (== transmitted; distinct-edge refinement is a
                # scalar-backend nicety)
                active_edges=st.transmitted,
            ))


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StagePipeline:
    """An ordered composition of stages; the whole step semantics."""

    stages: tuple[Stage, ...]

    def run(
        self,
        host,
        st: StepState,
        *,
        backend: str,
        timings: Optional[dict] = None,
    ) -> StepState:
        """Execute every stage on ``st`` in order.

        ``backend`` selects the implementation (``"scalar"`` or
        ``"batched"``); ``timings`` (name → :class:`StageTiming`) opts into
        per-stage wall-clock accounting.
        """
        if timings is None:
            if backend == "scalar":
                for stage in self.stages:
                    stage.scalar(host, st)
            else:
                for stage in self.stages:
                    stage.batched(host, st)
            return st
        for stage in self.stages:
            tick = perf_counter()
            try:
                if backend == "scalar":
                    stage.scalar(host, st)
                else:
                    stage.batched(host, st)
            finally:
                # book the (possibly partial) stage time even when the
                # stage raises: profiles from failed runs stay truthful
                timing = timings.setdefault(stage.name, StageTiming())
                timing.calls += 1
                timing.seconds += perf_counter() - tick
        return st

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages)


DEFAULT_PIPELINE = StagePipeline((
    TopologyStage(),
    InjectionStage(),
    RevelationStage(),
    SelectionStage(),
    ActivationStage(),
    BudgetStage(),
    LinkCapacityStage(),
    InterferenceStage(),
    LossStage(),
    ApplicationStage(),
    ExtractionStage(),
    RecordingStage(),
))

STAGE_NAMES = DEFAULT_PIPELINE.names
