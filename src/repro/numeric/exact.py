"""Common-denominator integer scaling with a checked magnitude guard.

The transformation is the classical one: given rationals ``x_i = p_i/q_i``,
let ``D = lcm(q_i)``; then every ``x_i · D`` is an integer, arithmetic over
the scaled values is exact, and ``Fraction(x_i · D, D)`` recovers ``x_i``
bit-for-bit.  Crucially for the flow solvers, scaling by a *positive*
constant preserves order and sign, so every comparison, positivity test and
min-cut membership decided in the scaled domain equals the decision the
``Fraction`` oracle would have made.

Python integers never overflow, so the "overflow" fallback is a *magnitude
guard*: once scaled values outgrow :data:`INT_SCALE_LIMIT` they stop
fitting machine words and big-int arithmetic erodes the speedup (and a
pathological lcm can be astronomically large).  :func:`try_scale` simply
declines — callers fall back to the ``Fraction`` path and record it via
:func:`repro.numeric.counters.note_fraction_fallback`, keeping results
exact either way.

This module is inside the exact core: the AST lint
(``tools/lint_exact_core.py``) bans ``float()`` and bare ``/`` true
division here, so only integer and ``Fraction`` arithmetic can appear.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Optional, Union

from repro.errors import FlowError

__all__ = [
    "INT_SCALE_LIMIT",
    "ScaledValues",
    "common_denominator",
    "scale_int",
    "try_scale",
    "unscale",
]

Rational = Union[int, Fraction]

#: Magnitude guard for the integer fast path.  Scaled values at or below
#: this bound keep CPython's fast small-int arithmetic dominant; beyond it
#: the caller should prefer the ``Fraction`` path (still exact, just slow).
INT_SCALE_LIMIT: int = 1 << 62


class ScaledValues(NamedTuple):
    """A batch of rationals scaled to one common denominator."""

    ints: list[int]
    denominator: int


def _as_rational(value: Rational) -> Rational:
    """``value`` as an int or a Fraction — both expose an exact
    ``numerator`` / ``denominator`` pair, so ints need no conversion."""
    if type(value) is int or isinstance(value, Fraction):
        return value
    # floats (and other number types) are deliberately converted through
    # Fraction's exact expansion so nothing here ever rounds — but exact
    # callers should not be passing floats at all.
    return Fraction(value)


def common_denominator(values: Iterable[Rational]) -> int:
    """The lcm of the denominators of ``values`` (1 for an empty batch)."""
    dens = [_as_rational(v).denominator for v in values]
    return lcm(*dens) if dens else 1


def scale_int(value: Rational, denominator: int) -> int:
    """``value * denominator`` as an exact integer.

    Raises :class:`~repro.errors.FlowError` when ``denominator`` is not a
    multiple of ``value``'s own denominator (the scaling would not be
    integral — a caller bug, never a rounding opportunity).
    """
    f = _as_rational(value)
    num = f.numerator * denominator
    q, r = divmod(num, f.denominator)
    if r:
        raise FlowError(
            f"{value} cannot be scaled integrally by denominator {denominator}"
        )
    return q


def try_scale(
    values: Iterable[Rational], *, limit: int = INT_SCALE_LIMIT
) -> Optional[ScaledValues]:
    """Scale ``values`` to their common denominator, or ``None`` to decline.

    Declines (returning ``None``) when the common denominator or any scaled
    magnitude exceeds ``limit`` — the checked overflow-and-denominator
    fallback: the caller must then take the ``Fraction`` path.  Never
    raises for in-domain rationals and never rounds.
    """
    values = list(values)
    if all(type(v) is int for v in values):
        # already on the integer scale: only the magnitude guard applies
        if values and (max(values) > limit or min(values) < -limit):
            return None
        return ScaledValues(ints=values, denominator=1)
    fracs = [_as_rational(v) for v in values]
    den = lcm(*[f.denominator for f in fracs]) if fracs else 1
    if den > limit:
        return None
    ints = []
    for f in fracs:
        scaled = f.numerator * (den // f.denominator)
        if scaled > limit or scaled < -limit:
            return None
        ints.append(scaled)
    return ScaledValues(ints=ints, denominator=den)


def unscale(value: int, denominator: int) -> Fraction:
    """Undo :func:`scale_int` exactly: ``Fraction(value, denominator)``."""
    return Fraction(value, denominator)
