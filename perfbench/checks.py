"""Exact property checks that have no subcommand, run through the public API.

Each check takes seeded inputs, calls padic_mub, and compares with exact
rational arithmetic done here (see oracle.py).  It returns a JSON-ready
report whose ``passed`` field is the verdict.
"""

from __future__ import annotations

from fractions import Fraction

import padic_mub as pm

from .oracle import valuation


def _frac_part(q: Fraction, p: int) -> Fraction:
    """{q} in [0, 1): the m / p^e with q - m / p^e in Z_p."""
    e = -valuation(q, p) if q else 0
    if e <= 0:
        return Fraction(0)
    unit_den = q.denominator // p**e
    return Fraction(q.numerator * pow(unit_den, -1, p**e) % p**e, p**e)


def _agrees(x: pm.PadicNumber, q: Fraction, p: int) -> bool:
    """x is q modulo p^(abs precision of x)."""
    return valuation(q - x.to_fraction(), p) >= x.abs_precision


def padic_arith(p: int, precision: int, pairs: list[list[int]]) -> dict:
    """add, mul, inv and norm of truncated expansions against exact rationals."""
    checks = failures = 0
    for n1, d1, n2, d2 in pairs:
        q1, q2 = Fraction(n1, d1), Fraction(n2, d2)
        x = pm.from_rational(n1, d1, p, precision)
        y = pm.from_rational(n2, d2, p, precision)
        oks = [
            _agrees(x + y, q1 + q2, p),
            _agrees(x - y, q1 - q2, p),
            _agrees(x * y, q1 * q2, p),
            pm.norm_p(x * y) == pm.norm_p(x) * pm.norm_p(y),
            pm.norm_p(x + y) <= max(pm.norm_p(x), pm.norm_p(y)),
            pm.norm_p(x) == (Fraction(p) ** -valuation(q1, p) if q1 else 0),
        ]
        if q1:
            oks.append(_agrees(x.inv(), 1 / q1, p))
        checks += len(oks)
        failures += oks.count(False)
    return {"kind": "padic-arith", "p": p, "checks": checks, "failures": failures,
            "passed": failures == 0}


def char_hom(p: int, precision: int, pairs: list[list[int]]) -> dict:
    """e(x + y) = e(x) e(y), and e(x) = exp(2 pi i {x}) with {x} exact."""
    checks = failures = 0
    for n1, d1, n2, d2 in pairs:
        x = pm.from_rational(n1, d1, p, precision)
        y = pm.from_rational(n2, d2, p, precision)
        oks = [
            pm.char_e(x + y) == pm.phase_mul(pm.char_e(x), pm.char_e(y)),
            pm.char_e(x).phase.value == _frac_part(Fraction(n1, d1), p),
        ]
        checks += len(oks)
        failures += oks.count(False)
    return {"kind": "char-hom", "p": p, "checks": checks, "failures": failures,
            "passed": failures == 0}


def trace_props(p: int, r: int, pairs: list[list[int]]) -> dict:
    """Trace linearity and Frobenius invariance on labelled elements of F_{p^r}."""
    field = pm.build_field(p, r)
    checks = failures = 0
    for s, t, c in pairs:
        x, y = field.element(s), field.element(t)
        tx, ty = pm.trace(x), pm.trace(y)
        oks = [
            pm.trace(x + y) == (tx + ty) % p,
            pm.trace(field.element(c % p) * x) == c * tx % p,
            pm.trace(x**p) == tx,
        ]
        checks += len(oks)
        failures += oks.count(False)
    return {"kind": "trace-props", "p": p, "r": r, "checks": checks,
            "failures": failures, "passed": failures == 0}


CHECKS = {"padic-arith": padic_arith, "char-hom": char_hom, "trace-props": trace_props}
