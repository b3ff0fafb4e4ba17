"""The additive character e(x) = exp(2*pi*i*{x}) of Q_p, with exact phases.

Phases stay exact fractions (elements of Q/Z with p-power denominator)
through all algebra; conversion to a complex double happens once, at the
outermost summation, so the only numeric error is final rounding.

A phase is a reduced PFraction m/p**e held as the integers (p, m, e).
char_e reduces the unit of its argument modulo p**(-v) once; phase_mul adds
two numerators over the larger exponent and divides out factors of p, so
neither builds a Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .padic import PadicNumber, PFraction, _pfraction, frac_part

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class UnitPhase:
    """The root of unity exp(2*pi*i*phase) for an exact phase in [0, 1)."""

    phase: PFraction

    @classmethod
    def trivial(cls, p: int) -> "UnitPhase":
        return cls(PFraction.zero(p))

    @property
    def is_trivial(self) -> bool:
        return not self.phase

    def conjugate(self) -> "UnitPhase":
        return UnitPhase(frac_part(-self.phase.value, self.phase.prime))

    def __str__(self) -> str:
        return str(self.phase)


def char_e(x: PadicNumber) -> UnitPhase:
    """e(x) for a truncated p-adic value; exact whenever {x} is readable."""
    return UnitPhase(x.fractional_part())


def char_of_rational(q: Fraction | int, p: int) -> UnitPhase:
    """e(q) for an exactly-known rational argument."""
    return UnitPhase(frac_part(q, p))


def phase_mul(q1: UnitPhase, q2: UnitPhase) -> UnitPhase:
    """Exact product of two roots of unity: phases add modulo 1.

    The numerators are added over the larger exponent e, modulo p**e; only
    when both exponents are e can the sum gain factors of p to divide out.
    """
    x, y = q1.phase, q2.phase
    p = x.prime
    if y.prime != p:
        raise ValueError(f"mixed primes {p} and {y.prime}")
    e = max(x.exp, y.exp)
    m = (x.num * p ** (e - x.exp) + y.num * p ** (e - y.exp)) % p**e
    if not m:
        return UnitPhase(_pfraction(p, 0, 0))
    while not m % p:
        m //= p
        e -= 1
    return UnitPhase(_pfraction(p, m, e))


def phase_to_complex(q: UnitPhase | PFraction) -> complex:
    """cos/sin evaluation of a unit phase; modulus 1 up to double rounding."""
    frac = q.phase if isinstance(q, UnitPhase) else q
    t = _TWO_PI * float(frac.value)
    return complex(math.cos(t), math.sin(t))
