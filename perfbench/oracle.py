"""The benchmark's own oracle: the exit code each generated job must produce.

Nothing here calls padic_mub.  The rules restate the mathematics and the
documented limits of the command line:

* valid input exits 0 with a PASS verdict, because every closed form the
  commands check is a theorem;
* p = 2 exits 2 where a closed-form norm table needs an odd prime;
* work over a documented size cap exits 2;
* a digit string known below the precision a command needs exits 2.  The
  precision of ``d0 d1 ... dn-1 *p^e`` is worked out from the string itself:
  it pins the value down modulo p^(e + n), whatever its digits are.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf

TERM_CAP = 10**6  # terms in one brute-force sum
FIELD_CAP = 625  # elements of F_{p^r}
DIM_CAP = 343  # dimension of the finite-field MUB set
CELL_CAP = 100_000  # cells of a grid model of p^(-r)Z_p

PASS, INVALID = 0, 2  # exit codes


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def valuation(q: Fraction | int, p: int) -> int | float:
    q = Fraction(q)
    if q == 0:
        return INF
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------
# coefficients: ("rat", num, den) or ("digits", (d0, d1, ...), exponent)
# ---------------------------------------------------------------------------


def coeff_text(c: list, p: int) -> str:
    if c[0] == "rat":
        _, num, den = c
        return str(num) if den == 1 else f"{num}/{den}"
    _, digits, exp = c
    return " ".join(str(d) for d in digits) + f" *{p}^{exp}"


def coeff_value(c: list, p: int) -> Fraction:
    """The exact rational a coefficient stands for (its truncation for digits)."""
    if c[0] == "rat":
        return Fraction(c[1], c[2])
    _, digits, exp = c
    return sum(Fraction(d) * Fraction(p) ** (exp + i) for i, d in enumerate(digits))


def coeff_abs_precision(c: list) -> int | float:
    """The value is known modulo p^this; rationals are exact."""
    if c[0] == "rat":
        return INF
    _, digits, exp = c
    return exp + len(digits)


# ---------------------------------------------------------------------------
# expected exit codes, one rule set per command
# ---------------------------------------------------------------------------


def expect_gauss_ring(p: int, k: int, l: int, a: int, b: int, oracle: bool) -> int:
    if not is_prime(p) or p == 2 or not 1 <= l <= k:
        return INVALID
    if oracle and p**k > TERM_CAP:
        return INVALID
    return PASS


def integral_reduction(p: int, r: int, a: Fraction, b: Fraction) -> tuple[int, int]:
    """(l, k) at which the integral over p^(-r)Z_p becomes a sum over Z/p^k.

    Substituting x = p^(-r) y, the integrand e(a p^(-2r) y^2 + b p^(-r) y)
    has integral coefficients modulo p^l once l >= 2r - v(a) and
    l >= r - v(b), and is constant on cosets of p^k once k >= 2r - v(a),
    2k >= 2r - v(a) and k >= r - v(b).
    """
    va, vb = valuation(a, p), valuation(b, p)
    ls, ks = [1], [1]
    if va != INF:
        ls.append(2 * r - va)
        ks += [2 * r - va, r - math.floor(va / 2)]
    if vb != INF:
        ls.append(r - vb)
        ks.append(r - vb)
    l = max(ls)
    return l, max(ks + [l])


def expect_gauss_integral(p: int, r: int, a: list, b: list, oracle: bool) -> int:
    if not is_prime(p) or p == 2:
        return INVALID
    if coeff_abs_precision(a) < 2 * r or coeff_abs_precision(b) < r:
        return INVALID
    if oracle:
        _, k = integral_reduction(p, r, coeff_value(a, p), coeff_value(b, p))
        if p**k > TERM_CAP:
            return INVALID
    return PASS


def expect_mub_finite(p: int, r: int) -> int:
    if not is_prime(p) or p == 2 or r < 1:
        return INVALID
    if p**r > FIELD_CAP or p**r > DIM_CAP:
        return INVALID
    return PASS


def mub_padic_r_used(p: int, r: int, bs: list[Fraction]) -> int:
    """Truncation exponent of the p+1 family table for b samples in Z_p.

    Two quadratic families a != a' (a unit apart) are certified from r = 1;
    two samples of one family, or two delta states, from r = v(b - b') + 1.
    """
    deepest = max(
        (valuation(x - y, p) for i, x in enumerate(bs) for y in bs[i + 1:] if x != y),
        default=0,
    )
    return max(r, 1, 1 + deepest)


def expect_mub_padic(p: int, r: int, bs: list[list] | None) -> int:
    """The grid is p^(-r)Z_p mod p^(2r) at r = r_used (the unit family a = 1
    needs k = 2r), so it has p^(3 r_used) cells; delta states read each b
    modulo p^k."""
    if not is_prime(p) or p == 2:
        return INVALID
    values = [coeff_value(b, p) for b in bs] if bs else list(range(p))
    if any(valuation(v, p) < 0 for v in values):
        raise ValueError("the oracle covers b samples in Z_p only")
    r_used = mub_padic_r_used(p, r, values)
    if p ** (3 * r_used) > CELL_CAP:
        return INVALID
    if bs and any(coeff_abs_precision(b) < 2 * r_used for b in bs):
        return INVALID
    return PASS


def fourier_ball_grid(p: int, r: int, z: Fraction, k: int | None) -> tuple[int, int]:
    """(r0, k) of the grid holding the ball z + p^r Z_p and its transform."""
    vz = valuation(z, p)
    r0 = max(0, -vz if vz != INF else 0, -r)
    return r0, (max(r, 1 - r0) if k is None else k)


def expect_fourier_ball(p: int, r: int, z: list, k: int | None) -> int:
    if not is_prime(p):
        return INVALID
    r0, kk = fourier_ball_grid(p, r, coeff_value(z, p), k)
    if r0 + kk < 1 or p ** (r0 + kk) > CELL_CAP or r > kk:
        return INVALID
    return PASS


def resolution(p: int, r: int, a: Fraction, b: Fraction) -> int:
    """Least k making e(a x^2 + b x) constant on the cells of p^(-r)Z_p mod p^k."""
    bounds = [0]
    va, vb = valuation(a, p), valuation(b, p)
    if va != INF:
        bounds += [2 * r - va, r - va, math.ceil(-va / 2)]
    if vb != INF:
        bounds += [r - vb, -vb]
    return max(bounds)


def eigen_grid(p: int, a: Fraction, b: Fraction, c: Fraction) -> tuple[int, int]:
    """(r, k) of the grid on which X_c Z_{2ac} acts on the (a, b) state."""
    vc = valuation(c, p)
    r = max(1, -vc if vc != INF else 0)
    k = max(resolution(p, r, a, b), resolution(p, r, Fraction(0), 2 * a * c), 1 - r)
    return r, k


def expect_eigen_check(p: int, a: list, b: list, c: list) -> int:
    if not is_prime(p):
        return INVALID
    r, k = eigen_grid(p, *(coeff_value(x, p) for x in (a, b, c)))
    if p ** (r + k) > CELL_CAP:
        return INVALID
    return PASS
