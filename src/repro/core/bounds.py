"""Theoretical constants from the paper's lemmas and properties.

Every bound is computed symbolically from the network spec (exact
``Fraction`` arithmetic where the ε of Definition 4 enters) so the
experiments can print "measured / bound" ratios with no numerical fog.

Paper inventory:

* Property 1:  ``P_{t+1} − P_t ≤ 5 n Δ²``  (unsaturated S-D-network).
* ``Y = (5 n f* / ε + 3 n) Δ²`` with ``ε = min_s (Φ(s*, s) − in(s))`` for
  an unsaturated flow Φ.
* Property 2: ``P_t > n Y²  ⇒  P_{t+1} − P_t < −5 n Δ²``.
* Lemma 1 bound: ``P_t ≤ n Y² + 5 n Δ²`` for all t.
* Properties 3/5 (R-generalized growth) and 4/6 (decrease):
  ``2|S∪D| (R + out_max) out_max + Δ² (3n − 2|S∪D|) + 4 |S∪D| Δ R``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from repro.errors import InfeasibleNetworkError
from repro.flow.feasibility import max_unsaturation_margin
from repro.flow.parametric import breakpoint_envelope
from repro.network.spec import NetworkSpec
from repro.numeric import common_denominator, scale_int

__all__ = [
    "PaperBounds",
    "property1_bound",
    "generalized_growth_bound",
    "paper_epsilon",
    "y_constant",
    "property2_threshold",
    "lemma1_bound",
    "compute_bounds",
]


def property1_bound(spec: NetworkSpec) -> int:
    """Property 1's growth cap ``5 n Δ²``."""
    n = spec.n
    delta = spec.graph.max_degree()
    return 5 * n * delta * delta


def generalized_growth_bound(spec: NetworkSpec) -> int:
    """Property 3/5's growth cap for R-generalized networks.

    ``2|S∪D|(R + out_max) out_max + Δ²(3n − 2|S∪D|) + 4|S∪D| Δ R``.
    """
    n = spec.n
    delta = spec.graph.max_degree()
    sd = len(spec.terminals)
    R = spec.retention
    out_max = max(spec.out_rates.values(), default=0)
    return (
        2 * sd * (R + out_max) * out_max
        + delta * delta * (3 * n - 2 * sd)
        + 4 * sd * delta * R
    )


def paper_epsilon(spec: NetworkSpec) -> Fraction:
    """The ε of Section III: ``min_s (Φ(s*, s) − in(s))`` maximised over
    unsaturated flows Φ.

    We realise Φ as the flow saturating source arcs scaled by the maximum
    unsaturation margin ``m`` (so ``Φ(s*, s) = (1 + m) in(s)``), giving
    ``ε = m · min_s in(s)`` — now *exact*, since the margin comes from
    the parametric breakpoint envelope rather than a bisection bracket.
    Raises for saturated/infeasible networks, where no positive ε exists.
    """
    return _epsilon_from_margin(spec, max_unsaturation_margin(spec.extended()))


def _epsilon_from_margin(spec: NetworkSpec, margin: Fraction) -> Fraction:
    if margin <= 0:
        raise InfeasibleNetworkError(
            "paper ε undefined: the network is not unsaturated (Definition 4)"
        )
    # in-rates are ints already; one Fraction multiply, no per-rate wrapping
    return margin * min(spec.in_rates.values())


@dataclass(frozen=True)
class PaperBounds:
    """All Section III constants for one unsaturated network."""

    n: int
    delta: int
    f_star: Fraction
    epsilon: Fraction
    growth_bound: int            # Property 1: 5 n Δ²
    y: Fraction                  # Y = (5 n f*/ε + 3n) Δ²
    decrease_threshold: Fraction  # Property 2 trigger: n Y²
    lemma1_cap: Fraction         # Lemma 1: n Y² + 5 n Δ²


def y_constant(spec: NetworkSpec, f_star_value, epsilon: Fraction) -> Fraction:
    """``Y = (5 n f* / ε + 3 n) Δ²``."""
    n = spec.n
    delta = spec.graph.max_degree()
    fs = Fraction(f_star_value)
    eps = Fraction(epsilon)
    # the only ratio in Section III's constants: hoist it once through a
    # common denominator so f*/ε is a single integer-over-integer Fraction
    # instead of a rational division feeding the Fraction arithmetic chain
    den = common_denominator([fs, eps])
    ratio = Fraction(scale_int(fs, den), scale_int(eps, den))
    return (5 * n * ratio + 3 * n) * (delta * delta)


def property2_threshold(spec: NetworkSpec, y: Fraction) -> Fraction:
    """Property 2's trigger level ``n Y²``."""
    return spec.n * y * y


def lemma1_bound(spec: NetworkSpec, y: Fraction) -> Fraction:
    """Lemma 1's all-time cap ``n Y² + 5 n Δ²``."""
    return property2_threshold(spec, y) + property1_bound(spec)


def compute_bounds(spec: NetworkSpec) -> PaperBounds:
    """Compute every Section III constant for an unsaturated network.

    ε and ``f*`` both come from one breakpoint envelope (one cold solve).
    """
    env = breakpoint_envelope(spec.extended())
    eps = _epsilon_from_margin(spec, env.lambda_star - 1)
    fs = env.f_star
    y = y_constant(spec, fs, eps)
    return PaperBounds(
        n=spec.n,
        delta=spec.graph.max_degree(),
        f_star=fs,
        epsilon=eps,
        growth_bound=property1_bound(spec),
        y=y,
        decrease_threshold=property2_threshold(spec, y),
        lemma1_cap=lemma1_bound(spec, y),
    )
