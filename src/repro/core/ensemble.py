"""Vectorized ensemble simulation: many independent replicas in one array.

Monte-Carlo experiments (Conjecture 3's "with high probability", the E17
confusion matrix, seed-sensitivity sweeps) re-run the same network dozens
of times.  :class:`EnsembleSimulator` is the *batched backend* of the
shared stage pipeline (:mod:`repro.core.pipeline`): it steps ``R``
replicas as a single ``(R, n)`` queue matrix — one row-wise stable argsort
per step for all replicas' Algorithm 1 decisions — while running exactly
the same stage objects as the scalar :class:`~repro.core.engine.Simulator`.

Since the pipeline refactor the batched path supports the *full* model
knob set: every :class:`~repro.core.pipeline.ExtractionMode`, lying
:class:`~repro.network.spec.RevelationPolicy` terminals,
``activation_prob < 1``, every tie-break strategy, arbitrary arrival
processes and loss models (via per-replica instances or the
``sample_batch`` protocol), and per-link capacity contention.  Still
scalar-only: interference models, dynamic topology, non-LGG policies and
per-step event records — those are rejected at construction.

Randomness is **per replica**: each replica owns an independent generator
(``seeds=[s_0, …]`` or spawned from ``seed``), and every stochastic stage
replays the scalar engine's draw pattern against it.  A batched run with
``seeds=[s_0, …, s_{R-1}]`` is bit-identical, per replica, to ``R``
scalar runs seeded ``s_r`` — the differential test matrix in
``tests/core/test_pipeline.py`` asserts exact trajectory equality across
the whole knob product.

Stateful components (e.g. :class:`~repro.loss.models.GilbertElliottLoss`)
must not be shared across replicas: pass a *factory* (``lambda: model()``
/ ``lambda spec: process(spec)``) or a list of ``R`` instances.  A single
shared instance is fine for stateless models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro._rng import SeedLike, as_generator, spawn
from repro.core import fastpath
from repro.core.engine import SimulationConfig, SimulationResult
from repro.core.lgg_fast import HalfEdges
from repro.core.pipeline import DEFAULT_PIPELINE, StagePipeline, StageTiming, StepState
from repro.core.stability import StabilityVerdict, assess_stability
from repro.errors import ObservabilityError, SimulationError
from repro.obs.spans import span
from repro.obs.trace import (
    config_fingerprint,
    get_tracer,
    run_end_record,
    run_start_record,
)
from repro.network.spec import NetworkSpec
from repro.network.state import Trajectory, network_state_rows

__all__ = ["EnsembleResult", "EnsembleSimulator"]


def _stack(rows: list[np.ndarray], replicas: int) -> np.ndarray:
    if rows:
        return np.stack(rows)
    return np.zeros((0, replicas), dtype=np.int64)


@dataclass(frozen=True)
class EnsembleResult:
    """Outcome of an ensemble run.

    Per-step accounting lives in the ``*_series`` matrices (step × replica);
    the cumulative ``delivered`` / ``lost`` / ``injected`` / ``transmitted``
    properties mirror :class:`~repro.core.engine.SimulationResult`'s
    counters, one entry per replica, so analysis code can treat both result
    types uniformly — or call :meth:`replica` to get a replica's slice *as*
    a :class:`~repro.core.engine.SimulationResult`.
    """

    spec: NetworkSpec
    config: SimulationConfig
    total_queued: np.ndarray        # (T+1, R)
    potentials: np.ndarray          # (T+1, R) int64
    max_queues: np.ndarray          # (T+1, R)
    injected_series: np.ndarray     # (T, R)
    transmitted_series: np.ndarray  # (T, R)
    lost_series: np.ndarray         # (T, R)
    delivered_series: np.ndarray    # (T, R)
    final_queues: np.ndarray        # (R, n)
    verdicts: tuple[StabilityVerdict, ...]
    queue_history: Optional[np.ndarray] = field(default=None, repr=False)  # (T+1, R, n)

    @property
    def replicas(self) -> int:
        return self.total_queued.shape[1]

    @property
    def bounded_fraction(self) -> float:
        return sum(v.bounded for v in self.verdicts) / len(self.verdicts)

    # -- SimulationResult-style cumulative reporting, one entry per replica
    @property
    def delivered(self) -> np.ndarray:
        """Cumulative packets delivered per replica, ``(R,)`` int64."""
        return self.delivered_series.sum(axis=0).astype(np.int64)

    @property
    def lost(self) -> np.ndarray:
        """Cumulative packets lost in transit per replica, ``(R,)`` int64."""
        return self.lost_series.sum(axis=0).astype(np.int64)

    @property
    def injected(self) -> np.ndarray:
        """Cumulative packets injected per replica, ``(R,)`` int64."""
        return self.injected_series.sum(axis=0).astype(np.int64)

    @property
    def transmitted(self) -> np.ndarray:
        """Cumulative link transmissions per replica, ``(R,)`` int64."""
        return self.transmitted_series.sum(axis=0).astype(np.int64)

    # -- per-replica views ------------------------------------------------
    def trajectory(self, r: int) -> Trajectory:
        """Replica ``r``'s column materialised as a full trajectory."""
        return Trajectory.from_series(
            self.spec.n,
            potentials=self.potentials[:, r],
            total_queued=self.total_queued[:, r],
            max_queues=self.max_queues[:, r],
            injected=self.injected_series[:, r],
            transmitted=self.transmitted_series[:, r],
            lost=self.lost_series[:, r],
            delivered=self.delivered_series[:, r],
            queue_history=(
                None if self.queue_history is None else self.queue_history[:, r]
            ),
        )

    def replica(self, r: int) -> SimulationResult:
        """Replica ``r`` as a scalar-engine result (for ``summarize`` etc.)."""
        return SimulationResult(
            spec=self.spec,
            config=self.config,
            trajectory=self.trajectory(r),
            final_queues=self.final_queues[r].copy(),
            verdict=self.verdicts[r],
        )


ProcessLike = Union[None, object, Sequence[object], Callable]


class EnsembleSimulator:
    """Run ``replicas`` independent copies of one LGG network in lockstep.

    Parameters
    ----------
    spec, replicas:
        The network and the ensemble width ``R``.
    seed / seeds:
        Either one master ``seed`` (per-replica generators are spawned
        from it) or an explicit ``seeds`` list of length ``R``.  With
        ``seeds=[s_0, …]`` replica ``r`` reproduces the scalar
        ``Simulator`` run seeded ``s_r`` bit-for-bit.
    config:
        A full :class:`~repro.core.engine.SimulationConfig`; all knobs are
        honoured except interference / topology / record_events (scalar
        backend only — rejected here) and ``seed`` (superseded by
        ``seed``/``seeds`` above).
    arrivals, losses:
        Override ``config``'s processes: a single (stateless) instance
        shared by all replicas, a list of ``R`` instances, or a factory
        (``callable`` taking the spec — or nothing — and returning a fresh
        instance per replica).
    loss_p, uniform_arrivals:
        Back-compat conveniences: i.i.d. Bernoulli losses and uniform
        ``[0, in(v)]`` injections.
    """

    pipeline: StagePipeline = DEFAULT_PIPELINE

    def __init__(
        self,
        spec: NetworkSpec,
        replicas: int,
        *,
        seed: SeedLike = None,
        seeds: Optional[Sequence[SeedLike]] = None,
        config: Optional[SimulationConfig] = None,
        arrivals: ProcessLike = None,
        losses: ProcessLike = None,
        loss_p: float = 0.0,
        uniform_arrivals: bool = False,
        initial_queues: Optional[np.ndarray] = None,
    ) -> None:
        if replicas < 1:
            raise SimulationError(f"need >= 1 replica, got {replicas}")
        if not (0.0 <= loss_p <= 1.0):
            raise SimulationError(f"loss_p must be in [0, 1], got {loss_p}")
        if uniform_arrivals and spec.exact_injection:
            raise SimulationError(
                "uniform arrivals require a generalized spec (pseudo-sources)"
            )
        self.spec = spec
        self.R = replicas
        self.config = config or SimulationConfig()
        if not (0.0 <= self.config.activation_prob <= 1.0):
            raise SimulationError(
                f"activation_prob must be in [0, 1], got {self.config.activation_prob}"
            )
        for name in ("interference", "topology"):
            if getattr(self.config, name) is not None:
                raise SimulationError(
                    f"the batched backend does not support {name} models; "
                    "use the scalar Simulator"
                )
        if self.config.record_events:
            raise SimulationError(
                "per-step event records are scalar-only; use the Simulator"
            )

        if seeds is not None:
            if len(seeds) != replicas:
                raise SimulationError(
                    f"seeds has {len(seeds)} entries for {replicas} replicas"
                )
            self.rngs = [as_generator(s) for s in seeds]
        else:
            self.rngs = spawn(seed, replicas)
        self.t = 0

        n = spec.n
        if initial_queues is not None:
            q0 = np.asarray(initial_queues, dtype=np.int64)
            if q0.shape == (n,):
                self.Q = np.tile(q0, (replicas, 1))
            elif q0.shape == (replicas, n):
                self.Q = q0.copy()
            else:
                raise SimulationError(
                    f"initial_queues shape {q0.shape} != ({n},) or ({replicas}, {n})"
                )
            if (self.Q < 0).any():
                raise SimulationError("initial queue lengths must be non-negative")
        else:
            self.Q = np.zeros((replicas, n), dtype=np.int64)

        self._in_vec = spec.in_vector()
        self._out_vec = spec.out_vector()
        self._terminal_mask = np.zeros(n, dtype=bool)
        for v in spec.terminals:
            self._terminal_mask[v] = True
        self._half = HalfEdges.from_graph(spec.graph)
        self._row = np.arange(replicas)[:, None]

        self.arrivals = self._resolve_processes(
            arrivals if arrivals is not None else self.config.arrivals,
            legacy=uniform_arrivals, kind="arrival",
        )
        self.losses = self._resolve_processes(
            losses if losses is not None else self.config.losses,
            legacy=loss_p > 0.0, kind="loss", loss_p=loss_p,
        )

        self.stage_timings: dict[str, StageTiming] = {}
        # resolved once, like the scalar engine: configure repro.obs first
        self.trace = self.config.trace if self.config.trace is not None else get_tracer()
        self.total_hist: list[np.ndarray] = [self.Q.sum(axis=1)]
        self.pot_hist: list[np.ndarray] = [network_state_rows(self.Q)]
        self.max_hist: list[np.ndarray] = [
            self.Q.max(axis=1) if n else np.zeros(replicas, dtype=np.int64)
        ]
        self.injected_hist: list[np.ndarray] = []
        self.transmitted_hist: list[np.ndarray] = []
        self.lost_hist: list[np.ndarray] = []
        self.delivered_hist: list[np.ndarray] = []
        self.queue_hist: Optional[list[np.ndarray]] = (
            [self.Q.copy()] if self.config.record_queues else None
        )

    # ------------------------------------------------------------------
    def _resolve_processes(self, given, *, legacy: bool, kind: str, loss_p: float = 0.0):
        """Normalise a process spec to ``None`` / single instance / list."""
        if given is None and legacy:
            if kind == "arrival":
                from repro.arrivals.stochastic import UniformArrivals

                return UniformArrivals(self.spec)  # stateless: safe to share
            from repro.loss.models import BernoulliLoss

            return BernoulliLoss(loss_p)           # stateless: safe to share
        if given is None:
            return None
        if callable(given) and not hasattr(given, "sample"):
            try:
                return [given(self.spec) for _ in range(self.R)]
            except TypeError:
                return [given() for _ in range(self.R)]
        if isinstance(given, (list, tuple)):
            items = list(given)
            if len(items) != self.R:
                raise SimulationError(
                    f"{kind} process list has {len(items)} entries for "
                    f"{self.R} replicas"
                )
            return items
        return given

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance every replica by one synchronous network step."""
        st = StepState(t=self.t)
        self.pipeline.run(
            self, st, backend="batched",
            timings=self.stage_timings if self.config.profile_stages else None,
        )

    def run(self, horizon: Optional[int] = None) -> EnsembleResult:
        steps = self.config.horizon if horizon is None else horizon
        tr = self.trace
        fingerprint = None
        with span("sim.run", backend="batched", steps=steps, n=self.spec.n,
                  replicas=self.R):
            if tr.enabled:
                fingerprint = config_fingerprint(self.config)
                tr.emit(run_start_record(
                    backend="batched",
                    fingerprint=fingerprint,
                    seed=None,  # per-replica seeds; identity lives in the spans
                    n=self.spec.n,
                    replicas=self.R,
                    potential0=self.pot_hist[-1],
                    total_queued0=self.total_hist[-1],
                    max_queue0=self.max_hist[-1],
                ))
            tick = perf_counter()
            if not fastpath.maybe_run_ensemble(self, steps):
                for _ in range(steps):
                    self.step()
            result = self.result()
            if tr.enabled:
                tr.emit(run_end_record(
                    fingerprint=fingerprint,
                    steps=steps,
                    bounded=[v.bounded for v in result.verdicts],
                    wall_time=perf_counter() - tick,
                ))
        return result

    def profile_report(self) -> str:
        """Per-stage timing table (needs ``profile_stages=True``)."""
        from repro.obs.profile import profile_report

        if not self.stage_timings:
            raise ObservabilityError(
                "no stage timings recorded — run with "
                "SimulationConfig(profile_stages=True)"
            )
        return profile_report(self.stage_timings, stage_order=self.pipeline.names)

    def result(self) -> EnsembleResult:
        total = np.stack(self.total_hist)       # (T+1, R)
        pots = np.stack(self.pot_hist)
        maxes = np.stack(self.max_hist)
        injected = _stack(self.injected_hist, self.R)
        transmitted = _stack(self.transmitted_hist, self.R)
        lost = _stack(self.lost_hist, self.R)
        delivered = _stack(self.delivered_hist, self.R)
        verdicts = []
        for r in range(self.R):
            traj = Trajectory.from_series(
                self.spec.n,
                potentials=pots[:, r],
                total_queued=total[:, r],
                max_queues=maxes[:, r],
                injected=injected[:, r],
                transmitted=transmitted[:, r],
                lost=lost[:, r],
                delivered=delivered[:, r],
            )
            traj.check_conservation()
            verdicts.append(assess_stability(traj))
        return EnsembleResult(
            spec=self.spec,
            config=self.config,
            total_queued=total,
            potentials=pots,
            max_queues=maxes,
            injected_series=injected,
            transmitted_series=transmitted,
            lost_series=lost,
            delivered_series=delivered,
            final_queues=self.Q.copy(),
            verdicts=tuple(verdicts),
            queue_history=(
                np.stack(self.queue_hist) if self.queue_hist is not None else None
            ),
        )
