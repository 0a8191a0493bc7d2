"""Cold solvers and cold or bracketed twins of the feasibility stack,
kept as oracles.

Production answers every flow question with Dinic
(:func:`repro.flow.max_flow` and the warm ladder behind
:mod:`repro.flow.feasibility`).  Differential tests and benchmarks check
it against independent solvers and slower paths:

* :data:`ALGORITHMS` — the four cold max-flow solvers by name: Dinic,
  Edmonds–Karp, and highest-label and FIFO Goldberg–Tarjan push-relabel.
  This is the only module that imports :mod:`repro.flow.edmonds_karp`
  and :mod:`repro.flow.push_relabel`;
* :func:`classify_network_cold` (three cold ``Fraction`` solves by any
  registered solver), :func:`max_unsaturation_margin_probe` (warm
  bracket and bisection, within ``tol`` of the exact margin) and
  :func:`max_unsaturation_margin_cold` (the same search, every probe a
  cold solve).

:mod:`repro.flow` does not export this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from repro.errors import FlowError
from repro.flow.dinic import dinic
from repro.flow.edmonds_karp import edmonds_karp
from repro.flow.feasibility import (
    FeasibilityReport,
    NetworkClass,
    _exact_problem,
    _f_star_problem,
    certification_epsilon,
)
from repro.flow.mincut import classify_cut, is_unique_min_cut, min_cut
from repro.flow.push_relabel import push_relabel
from repro.flow.residual import FlowProblem, FlowResult
from repro.flow.warmstart import ParametricMaxFlow, source_arc_updates

__all__ = [
    "ALGORITHMS",
    "classify_network_cold",
    "max_unsaturation_margin_cold",
    "max_unsaturation_margin_probe",
]


#: Every cold max-flow solver by name.  They return the same flow *value*;
#: the flow assignment itself may differ (max flows are not unique), which
#: the differential tests exploit.
ALGORITHMS: dict[str, Callable[[FlowProblem], FlowResult]] = {
    "dinic": dinic,
    "edmonds_karp": edmonds_karp,
    "push_relabel": lambda p: push_relabel(p, "highest"),
    "push_relabel_fifo": lambda p: push_relabel(p, "fifo"),
}


def classify_network_cold(ext, algorithm: str = "dinic") -> FeasibilityReport:
    """The pre-warm-start classifier: three independent cold solves by
    ``ALGORITHMS[algorithm]``.

    Kept as the differential/benchmark twin of
    :func:`~repro.flow.feasibility.classify_network` —
    same verdicts, no residual reuse.
    """
    solve = ALGORITHMS[algorithm]
    arrival = sum((Fraction(r) for r in ext.in_rates.values()), start=Fraction(0))
    base = solve(_exact_problem(ext))
    cut = min_cut(base)
    problem = base.problem
    kind = classify_cut(cut, problem)
    unique = is_unique_min_cut(base)
    fs = solve(_f_star_problem(ext)).value

    if base.value < arrival:
        return FeasibilityReport(
            network_class=NetworkClass.INFEASIBLE,
            arrival_rate=arrival,
            max_flow_value=base.value,
            f_star=fs,
            certified_epsilon=None,
            min_cut=cut,
            cut_kind=kind,
            unique_min_cut=unique,
        )

    eps = certification_epsilon(ext)
    scaled_caps = {v: (1 + eps) * Fraction(r) for v, r in ext.in_rates.items()}
    scaled = solve(_exact_problem(ext, source_cap_override=scaled_caps))
    unsaturated = scaled.value == (1 + eps) * arrival

    return FeasibilityReport(
        network_class=NetworkClass.UNSATURATED if unsaturated else NetworkClass.SATURATED,
        arrival_rate=arrival,
        max_flow_value=base.value,
        f_star=fs,
        certified_epsilon=eps if unsaturated else None,
        min_cut=cut,
        cut_kind=kind,
        unique_min_cut=unique,
    )


def max_unsaturation_margin_probe(ext, *, tol: Fraction = Fraction(1, 1024)) -> Fraction:
    """Largest ε (to within ``tol``) with ``(1 + ε) in`` still feasible.

    The warm bracket-and-bisection search, kept as the differential oracle
    for the exact envelope path
    (:func:`~repro.flow.feasibility.max_unsaturation_margin`)
    and as the benchmark baseline: binary search on exact rationals, so
    the returned value is a certified *lower* bound with ``returned +
    tol`` an upper bound.  Returns 0 for saturated/infeasible networks.

    One cold solve (ε = 0), then every probe of the exponential bracket
    and the bisection is a warm parametric step: each probes ε > lo from a
    :meth:`~repro.flow.warmstart.ParametricMaxFlow.fork` of the engine
    state at the last *feasible* ε (``lo``), so an infeasible probe costs
    only the marginal augmentation between ``lo`` and the probe — never a
    re-solve from scratch — and is then discarded.  Each infeasible probe
    additionally banks its min cut as a *certificate*: a cut's capacity is
    linear in ε (``rest + (1 + ε)·inCross``), so later probes it blocks
    are refuted in O(1) with no flow work at all (the Gallo–Grigoriadis–
    Tarjan parametric-cut structure).  The lo/hi bracket trajectory is
    identical to :func:`max_unsaturation_margin_cold`.
    """
    arrival = sum((Fraction(r) for r in ext.in_rates.values()), start=Fraction(0))
    if arrival <= 0:
        raise FlowError("margin undefined for a network with no injections")

    engine = ParametricMaxFlow(_exact_problem(ext))  # state at ε = 0
    if engine.value != arrival:
        return Fraction(0)

    # arc index of (s*, v) per source node, computed once for all probes
    arc_of = source_arc_updates(ext, {v: v for v in ext.in_rates})
    base_caps = engine.problem.capacities  # only source arcs are ever raised
    # (inCross, rest) per banked min cut: capacity at ε is rest + (1+ε)·inCross
    cut_certs: list[tuple[Fraction, Fraction]] = []

    def probe(eps: Fraction) -> "ParametricMaxFlow | None":
        """Engine advanced to ε, or None when ε is infeasible (discarded)."""
        scale = 1 + eps
        target = scale * arrival
        if any(rest + scale * in_cross < target for in_cross, rest in cut_certs):
            return None  # a banked cut already refutes this ε
        fork = engine.fork()
        updates = {j: scale * Fraction(ext.in_rates[v]) for j, v in arc_of.items()}
        value = fork.raise_arc_capacities(updates, target_value=target)
        if value == target:
            return fork
        cut = min_cut(fork.result)
        in_cross = rest = Fraction(0)
        for j in cut.arcs:
            v = arc_of.get(j)
            if v is not None:
                in_cross += Fraction(ext.in_rates[v])
            else:
                rest += Fraction(base_caps[j])
        cut_certs.append((in_cross, rest))
        return None

    lo = Fraction(0)
    # exponential search for an infeasible upper bracket
    hi = Fraction(1)
    while (advanced := probe(hi)) is not None:
        engine = advanced  # restart point: last feasible residual
        lo = hi
        hi *= 2
        if hi > 2**20:  # pathological: essentially unbounded slack
            return lo
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if (advanced := probe(mid)) is not None:
            engine = advanced
            lo = mid
        else:
            hi = mid
    return lo


def max_unsaturation_margin_cold(ext, *, tol: Fraction = Fraction(1, 1024), algorithm: str = "dinic") -> Fraction:
    """The pre-warm-start margin search: every probe a cold solve by
    ``ALGORITHMS[algorithm]``.

    Kept as the differential/benchmark twin of
    :func:`max_unsaturation_margin_probe` — identical brackets and result.
    """
    solve = ALGORITHMS[algorithm]
    arrival = sum((Fraction(r) for r in ext.in_rates.values()), start=Fraction(0))
    if arrival <= 0:
        raise FlowError("margin undefined for a network with no injections")

    def feasible_at(eps: Fraction) -> bool:
        caps = {v: (1 + eps) * Fraction(r) for v, r in ext.in_rates.items()}
        res = solve(_exact_problem(ext, source_cap_override=caps))
        return res.value == (1 + eps) * arrival

    if not feasible_at(Fraction(0)):
        return Fraction(0)
    lo = Fraction(0)
    # exponential search for an infeasible upper bracket
    hi = Fraction(1)
    while feasible_at(hi):
        lo = hi
        hi *= 2
        if hi > 2**20:  # pathological: essentially unbounded slack
            return lo
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if feasible_at(mid):
            lo = mid
        else:
            hi = mid
    return lo
