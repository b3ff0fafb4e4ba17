"""Quadratic Gauss sums over Z/p^k Z and Gauss integrals over balls in Q_p.

Three independent routes to the same norms live here and check one another:

* closed forms, all read off one case table (valid for odd p only),
* an exact counting identity for |sum|^2 over the finite ring, and
* direct numeric summation with exact phase reduction.

Every closed form reads one case table, `_norm_table`, at the shifted
valuations dx = v(a) - 2r, dy = v(b) - r over the ball p^(-r)Z_p (inf for
a zero coefficient): case1 where dx < 0 and dx <= dy, norm p^(v(a)/2);
else case2 where dy < 0, norm 0; else case3, the ball's measure p^r.  A
ring sum over Z/p^k Z mod p^l reads it at dx, dy = v_l - l (valuations
truncated at l) with measure p^k; a field sum over F_{p^r} at dx, dy = -r
or 0 as the coefficient is nonzero or zero.  `simplified_norm` is the table
read at R = max(r, threshold_t + 1), certified for r > threshold_t, and the
Gram pairs of `mub_padic` read it too.  The table, the counting oracles
and the ring reduction of an integral, whose identities all need 2 to be
a unit, refuse p = 2 through `errors.check_odd_prime`.
The integral forms read a and b once each (`padic.read_coefficient`), a to
the window p^(2r) and b to p^r, and form their Fractions last;
`threshold_t` and `simplified_norm` read valuations alone and refuse a zero
O(p^N), whose valuation is only known to be >= N; for such a coefficient
`integral_report` reports no threshold and certifies nothing.
The reduction of a ball integral to a ring sum reads the same (dx, dy): it
takes one full period, p^l terms with l = max(1, -dx, -dy).  Whether a grid
resolves e(a*x^2 + b*x) is cell constancy, `mub_padic.required_resolution`,
which reads v(a) and v(b) themselves.

A numeric sum over N terms is a sum of roots of unity zeta_{p^l}^e with
exact integer exponents e.  Its caller hands `_phase_sum`, the one place
exponents are binned, the exact int64 exponents mod p^l, repeats allowed,
and one exact integer weight (for a ring sum, the exponents of one period
of x only, weighted by the exact number of periods; for a field sum, every
trace, weighted 1).  It counts them into an exact int64 table c of p rows
and one column for each coset {r + j*p^(l-1)} that occurs, or for every
coset when there are at least p^l exponents, so c is never more than p
times as long as the exponents.  Since Phi_{p^l}(x) = Phi_p(x^(p^(l-1))),
the p roots of each coset sum to 0, so subtracting from c its minimum on
each coset leaves the sum unchanged in Z[zeta_{p^l}]; the result c' is the
canonical representative with a zero in every coset, and the sum is 0
exactly when c' is.  Only then does it convert to doubles: fsum of the
weighted roots c'[m] * w[m] over the nonzero entries of c', in ascending
residue order, for the real and the imaginary part.  Each weighted root is
rounded once and fsum rounds once (Shewchuk 1997), so each part lies within
(1 + eps) * eps * N' of the same sum over the rounded roots w, where
N' = sum(c') <= N, and results are reproducible bit for bit.  Every int64
modulus p^e, here and in `mub_padic`'s phase rows, first passes
`_check_modulus(p, e)`, the one guard that keeps every product of two
residues inside int64; it compares p^e with MAX_INT64_RESIDUE without
forming p^e, so a huge e is refused at once.  `_residues(p, l)` builds
0..p^l-1 only past it.

A ring sum counts only the columns that survive that reduction.  Written
x = u + s*v with s = p^ceil(l/2) and n = p^l/s, s^2 = 0 mod p^l gives the
exponent a*x^2 + b*x = f(u) + s*(v*c(u) mod n) mod p^l, with
f(u) = a*u^2 + b*u and c(u) = 2a*u + b.  A column u with n | c(u) is
stationary: its n terms all fall in bin f(u).  The lemma: any other column
adds p^t to each bin = f(u) mod s*p^t, p^t = gcd(c(u), n) < n, as v*c(u)
takes each multiple of p^t exactly p^t times (character orthogonality,
sum_v zeta_n^(v*c) = n*[n | c]); its period s*p^t divides p^(l-1), so it is
constant on every coset and the reduction removes it exactly.
`_ring_exponents` therefore returns f(u) of the stationary columns alone:
the u with 2a*u + b = 0 mod n, one residue class mod n/gcd(2a, n) or none,
so at most s*gcd(2a, n)/n exponents, each of weight n*p^(k-l).  Their table
is not the defining histogram bin for bin, but its c' is the same, so
every sum keeps its bits.  The counting oracle
reads every column of a*y + b exactly.  Neither is a Gauss-sum identity.

The bulk table over every (a, b) in [0, p^l)^2 sums the same definition by
one inverse FFT of each chirp row zeta^(a*x^2), which rounds like any FFT:
within about log2(p^l) * eta * p^k per entry, eta a few eps (Higham,
Accuracy and Stability of Numerical Algorithms, ch. 24); see
`ring_sum_numeric_table`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import PrecisionError, check_odd_prime, check_power_cap
from .finite_field import FieldElem
from .padic import INF, Coefficient, _check_prime, _scaled_residue, int_valuation, read_coefficient

DEFAULT_TERM_CAP = 10**6

NEG_INF = -math.inf


def _roots(m: np.ndarray, n) -> np.ndarray:
    """The roots of unity exp(2*pi*i*m/n) of the integer array m, n an int
    or an int array broadcast against m: the one place a root is evaluated,
    so each root is the same double everywhere."""
    return np.exp(2j * np.pi * m / n)


@lru_cache(maxsize=64)
def roots_of_unity(n: int) -> np.ndarray:
    """The n-th roots of unity exp(2*pi*i*m/n), m = 0..n-1 (read-only).
    Cached, so only for the p-entry tables of F_p phases."""
    w = _roots(np.arange(n), n)
    w.setflags(write=False)
    return w


INT64_MAX = 2**63 - 1
MAX_INT64_RESIDUE = math.isqrt(INT64_MAX)  # 3037000499


def _check_modulus(p: int, e: int) -> None:
    """Refuse a modulus p^e whose residue products could overflow int64:
    the package's one int64 residue guard, met before p^e is formed."""
    check_power_cap(p, e, MAX_INT64_RESIDUE,
                    "phase modulus {size} exceeds {cap}: residue products overflow int64")


def _residues(p: int, l: int) -> np.ndarray:
    """The residues 0..p^l-1 as int64, for moduli whose squares fit int64."""
    _check_modulus(p, l)
    return np.arange(p**l, dtype=np.int64)


def _phase_sum(expo: np.ndarray, weight: int, mod: int, p: int) -> complex:
    """weight * sum_e zeta_mod^e over exact int64 exponents e in [0, mod),
    repeats allowed, mod = p^l: the one place exponents are binned.

    The exponents are grouped by coset r = e mod mod/p, over the cosets
    that occur, and counted into a (p, #cosets) int64 table, row j of
    column r counting r + j*mod/p, times weight.  When they number at least
    mod, as at l = 1 or for a field sum, every coset takes a column and e is
    its own index.  Each column less its minimum changes the sum by an
    exact 0.  Only the nonzero entries enter, in ascending residue order
    (np.nonzero walks the table row by row).  Every array is at most p
    times as long as expo, whatever mod is.  The entries' roots
    `_roots(m, mod)` are those of `roots_of_unity(mod)`, bit for bit,
    without a table of all mod roots.  See the module docstring for the
    error bound.
    """
    step = mod // p
    if mod <= expo.size:  # a bin for every residue costs no more than the exponents
        cosets, index = np.arange(step), expo
    else:  # np.unique imports numpy.ma at its first call: 8-18 ms on a 2-CPU Xeon
        cosets = np.sort(expo % step)
        cosets = np.concatenate((cosets[:1], cosets[1:][cosets[1:] != cosets[:-1]]))
        index = expo // step * cosets.size + np.searchsorted(cosets, expo % step)
    table = np.bincount(index, minlength=p * cosets.size).reshape(p, -1)
    table -= table.min(axis=0)
    j, i = np.nonzero(table)
    c = table[j, i] * weight
    w = _roots(j * step + cosets[i], mod)
    # fsum reads the doubles through a memoryview, without a list of floats
    real = math.fsum(memoryview(c * w.real))
    return complex(real, math.fsum(memoryview(c * w.imag)))


# ---------------------------------------------------------------------------
# exact norms p^(m/2)
# ---------------------------------------------------------------------------


def _float_power(p: int, exponent: float, what: str = "norm") -> float:
    """p ** exponent as a float, or a ValueError past the double range: past
    its largest value, or below its smallest normal one, where the power
    would keep fewer than 53 bits, or none at all."""
    try:
        value = float(p) ** exponent
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise ValueError(f"{what} {p}^{exponent:.15g} exceeds the double range")
    return value


@dataclass(frozen=True)
class ExactNorm:
    """A norm that is exactly 0 or exactly p**(half_power/2)."""

    p: int
    half_power: int | None = None  # None encodes the exact zero

    @property
    def is_zero(self) -> bool:
        return self.half_power is None

    @property
    def value(self) -> float:
        if self.is_zero:
            return 0.0
        return _float_power(self.p, self.half_power / 2.0)

    @property
    def normsq(self) -> Fraction:
        """The squared norm, an exact rational power of p."""
        if self.is_zero:
            return Fraction(0)
        hp = self.half_power
        return Fraction(self.p**hp) if hp >= 0 else Fraction(1, self.p**-hp)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        hp = self.half_power
        if hp == 0:
            return "1"
        if hp % 2 == 0:
            return f"{self.p}^{{{hp // 2}}}"
        return f"{self.p}^{{{hp}/2}}"


_CASES = ("case1", "case2", "case3")


def _norm_table(p: int, dx, dy):
    """Case index 0, 1 or 2 (case1..case3, see the module docstring) of the
    shifted valuations dx, dy, given as ints, math.inf or int arrays."""
    check_odd_prime(p)
    # plain operators, so that scalars stay Python numbers and arrays numpy
    case1 = (dx < 0) & (dx <= dy)
    case2 = (dy < 0) & (case1 == 0)
    case3 = (case1 | case2) == 0
    return 1 * case2 + 2 * case3


def _table_norm(p: int, dx, dy, base: int) -> tuple[ExactNorm, str]:
    """The table's norm and case label for one coefficient pair, where
    p^(base/2) is the domain's measure: half-power base + dx, none or base."""
    case = _norm_table(p, dx, dy)
    return ExactNorm(p, (base + dx, None, base)[case]), _CASES[case]


# ---------------------------------------------------------------------------
# sums over the finite ring Z/p^k Z
# ---------------------------------------------------------------------------


def ring_sum_numeric(
    p: int, k: int, l: int, a: int, b: int, term_cap: int = DEFAULT_TERM_CAP
) -> complex:
    """Direct summation of exp(2*pi*i*(a*x^2 + b*x)/p^l) over x in Z/p^k Z.

    The exponent mod p^l has period p^l in x, so its histogram over the
    p^k terms is exactly p^(k-l) times the histogram over one period
    x in [0, p^l).  Of that period only the stationary columns are
    summed: with x = u + s*v, s = p^ceil(l/2), n = p^l/s, the exponent of
    x is f(u) + s*(v*c(u) mod n) mod p^l, f(u) = a*u^2 + b*u and
    c(u) = 2a*u + b, as s^2 = 0 mod p^l.  A column with n | c(u) puts its
    n terms in bin f(u).  Any other column adds p^t to each bin
    = f(u) mod s*p^t, p^t = gcd(c(u), n) < n, a count whose period divides
    p^(l-1) (the lemma of the module docstring).  `_phase_sum` reduces its
    counts by their minimum on each coset of p^(l-1)Z/p^l Z, which changes
    the sum by an exact 0 and removes such a column exactly.  So it is
    handed the exponents f(u) of the kept columns alone, each of weight
    n*p^(k-l) = p^(k - ceil(l/2)), and they give the same reduced counts,
    and the same bits, as every x would; at 997^2 the traced peak is 12
    KiB, with no array of p^l entries.  No Gauss-sum identity enters, only
    character orthogonality.  The weighted roots of the at most
    p^l - p^(l-1) nonzero reduced entries are fsummed: within
    (1 + eps) * eps * p^k of the same sum over the rounded roots, in each
    of the real and imaginary parts.  A sum that is 0 in
    Z[zeta_{p^l}], such as every case2 sum, comes out exactly 0j.
    """
    check_ring_params(p, k, l)
    check_power_cap(p, k, term_cap, "{size} terms exceed the cap {cap}")
    check_power_cap(p, k, INT64_MAX, "{size} terms overflow the int64 counts")
    return _phase_sum(_ring_exponents(p, l, a, b), p ** (k - (l + 1) // 2), p**l, p)


def _ring_exponents(p: int, l: int, a: int, b: int) -> np.ndarray:
    """The int64 exponents f(u) = a*u^2 + b*u mod p^l of the stationary
    columns of one period x in [0, p^l), as `ring_sum_numeric` sums them,
    each standing for n = p^floor(l/2) terms: binned, the exponent
    histogram up to a count constant on each coset of p^(l-1)Z/p^l Z."""
    _check_modulus(p, l)
    mod = p**l
    s = p ** ((l + 1) // 2)
    n = mod // s
    # column u is stationary when 2a*u + b = 0 mod n: with g = gcd(2a, n),
    # no u unless g | b, else the u of one residue class mod n/g
    g = math.gcd(2 * a, n)
    step = n // g
    start = -(b // g) * pow(2 * a // g, -1, step) % step if b % g == 0 else s
    u = np.arange(start, s, step, dtype=np.int64)
    # Every intermediate stays below p^(2l) <= INT64_MAX (`_check_modulus`).
    f = u * (a % mod)
    f += b % mod  # at most (p^l - 1)*s < p^(2l)
    f %= mod
    f *= u  # below p^l*s
    f %= mod
    return f


def ring_sum_normsq_exact(p: int, k: int, l: int, a: int, b: int) -> int:
    """Exact |sum|^2 by counting solutions of a*y + b = 0 mod p^l.

    |sum|^2 = p^(2(k-l)) * p^l * #solutions.  This counts directly, with no
    case analysis, so it is an independent oracle for the closed form.  The
    identity rests on 2 being a unit mod p^l, so p = 2 raises OddPrimeError.
    Every y in [0, p^l) is counted, by the columns of `ring_sum_numeric`
    on the bare digit base s = p^ceil(l/2), n = p^l/s: with y = u + s*v,
    a*y + b = g(u) + s*(v*a mod n) mod p^l, g(u) = a*u + b.  Column u takes
    each value = g(u) mod s*p^t exactly p^t times, p^t = gcd(a, n) (all n
    at g(u) when it is stationary, n | a), so it holds p^t zeros when
    g(u) = 0 mod s*p^t and none otherwise.  A count needs every column, so
    none is dropped: the count is p^t times the number of such u < s, the
    defining count, solution for solution, in O(s) work, every intermediate
    below p^(2l) <= INT64_MAX, with no full-size array.
    """
    check_ring_params(p, k, l)
    check_odd_prime(p)
    _check_modulus(p, l)
    mod = p**l
    s = p ** ((l + 1) // 2)
    period = s * math.gcd(a, mod // s)
    g = np.arange(s, dtype=np.int64)
    g *= a % period
    g += b % period  # below period*s <= p^(2l)
    g %= period
    count = (s - int(np.count_nonzero(g))) * (period // s)
    return p ** (2 * (k - l)) * mod * count


def ring_sum_norm_closed(p: int, k: int, l: int, a: int, b: int) -> tuple[ExactNorm, str]:
    """Closed-form norm of the ring sum, with the case that fired.

    case1: a != 0 mod p^l and v(a) <= v(b)  ->  p^(k - l/2 + v(a)/2)
    case2: b != 0 mod p^l and v(a) >  v(b)  ->  0
    case3: a  = b = 0 mod p^l               ->  p^k

    min(v(x), l) is the truncated valuation of x mod p^l, so the table is
    read with no power of p formed.
    """
    check_ring_params(p, k, l)
    dx, dy = (min(int_valuation(x, p), l) - l for x in (a, b))
    return _table_norm(p, dx, dy, 2 * k)


def ring_sum_norm_closed_table(p: int, k: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """The case table's (case, half-power) arrays for every (a, b) in
    [0, p^l)^2, indexed [a, b]: ring_sum_norm_closed for all pairs at once."""
    check_ring_params(p, k, l)
    x = _residues(p, l)
    shift = sum((x % p**j == 0).astype(np.int64) for j in range(1, l + 1)) - l
    dx = shift[:, None]
    case = _norm_table(p, dx, shift[None, :])
    return case, np.where(case == 0, 2 * k + dx, 2 * k)


def ring_sum_numeric_table(
    p: int, k: int, l: int, term_cap: int = DEFAULT_TERM_CAP
) -> np.ndarray:
    """Numeric ring sums for every (a, b) in [0, p^l)^2 at once.

    Bulk path for exhaustive sweeps.  Row a is the DFT of the chirp
    f_a(x) = zeta^(a*x^2 mod p^l) over one period x in [0, p^l):
    S(a, b) = sum_x f_a(x) * zeta^(b*x), so the table is p^(k-l) * p^l times
    one inverse FFT of each chirp row.  This evaluates the defining sum
    directly and uses no Gauss-sum identity, so it stays independent of the
    closed form.  For a radix-2 FFT of length n, Higham (Accuracy and
    Stability of Numerical Algorithms, ch. 24) bounds the 2-norm error of a
    row by log2(n) * eta / (1 - log2(n) * eta) times its 2-norm, where
    eta = mu + gamma_4 * (sqrt(2) + mu) and mu bounds the error of the
    computed twiddle factors; numpy's FFT takes radix-p passes for
    n = p^l, whose analysis has the same form.  By Parseval each row has
    2-norm p^l, so an entry lies within about log2(p^l) * eta * p^k of the
    exact sum.  Over every gauss-grid combo the entries lie within
    2.4 * eps * p^k of ring_sum_numeric(p, k, l, a, b) and of a per-a
    gather of the p^l roots.
    """
    check_ring_params(p, k, l)
    check_power_cap(p, k, term_cap, "{size} terms exceed the cap {cap}")
    x = _residues(p, l)
    mod = p**l
    scale = p ** (k - l)  # each residue class mod p^l is hit p^(k-l) times
    w = _roots(x, mod)  # its own table, not the cached one
    chirp = w[np.outer(x, x * x % mod) % mod]  # chirp[a, x] = zeta^(a*x^2)
    return scale * mod * np.fft.ifft(chirp, axis=1)


def ring_sum_normsq_table(p: int, k: int, l: int) -> np.ndarray:
    """Exact counting |sum|^2 for every (a, b) in [0, p^l)^2 (int64 array);
    odd p only, as ring_sum_normsq_exact."""
    check_ring_params(p, k, l)
    check_odd_prime(p)
    y = _residues(p, l)
    mod = p**l
    a = y[:, None]
    # cell a*mod + b counts the y with a*y + b = 0 mod p^l
    hits = np.bincount((a * mod + (-a * y) % mod).ravel(), minlength=mod * mod)
    return p ** (2 * (k - l)) * mod * hits.reshape(mod, mod)


# ---------------------------------------------------------------------------
# sums over the finite field F_{p^r}
# ---------------------------------------------------------------------------


def field_sum_numeric(alpha: FieldElem, beta: FieldElem) -> complex:
    """sum over x in F_{p^r} of exp(2*pi*i*trace(alpha*x^2 + beta*x)/p)."""
    ctx = alpha.ctx
    if beta.ctx != ctx:
        raise ValueError("coefficients from different field contexts")
    traces = [(alpha * x * x + beta * x).trace() for x in ctx.elements()]
    return _phase_sum(np.array(traces, dtype=np.int64), 1, ctx.p, ctx.p)


def field_sum_norm_closed(alpha: FieldElem, beta: FieldElem) -> tuple[ExactNorm, str]:
    """|field Gauss sum|: sqrt(p^r) if alpha != 0; else 0 or p^r as beta is 0."""
    p, r = alpha.ctx.p, alpha.ctx.r
    dx, dy = (0 if x.is_zero else -r for x in (alpha, beta))
    return _table_norm(p, dx, dy, 2 * r)


# ---------------------------------------------------------------------------
# Gauss integrals over the ball p^(-r) Z_p
# ---------------------------------------------------------------------------


def integral_norm_closed(
    p: int, r: int, a: Coefficient, b: Coefficient
) -> tuple[ExactNorm, str]:
    """Closed-form norm of the quadratic Gauss integral over p^(-r)Z_p.

    case1: v(a) < 2r and v(a) <= v(b) + r  ->  p^(v(a)/2)
    case2: v(b) < r  and v(a) >  v(b) + r  ->  0
    case3: v(a) >= 2r and v(b) >= r        ->  p^r   (the whole ball's measure)
    """
    _check_prime(p)
    dx = read_coefficient(a, p).need(2 * r).valuation - 2 * r
    dy = read_coefficient(b, p).need(r).valuation - r
    return _table_norm(p, dx, dy, 2 * r)


def _integral_reduction(
    p: int, r: int, af: Fraction, bf: Fraction, dx: int | float, dy: int | float,
    term_cap: float = math.inf,
) -> tuple[tuple[int, int, int], float]:
    """The ring sum behind the ball integral: ((l, A, B), p^(r-l)), from a, b
    as rationals and their shifted valuations dx = v(a) - 2r, dy = v(b) - r.

    l = max(1, -dx, -dy) makes A = a*p^(l-2r) and B = b*p^(l-r) integral; a
    zero coefficient (dx or dy inf) drops out.  A mod p^l is p^(l+dx) times
    the unit part of a, and B likewise, both taken in integers
    (`_scaled_residue`).  With x = p^(-r)*y the integrand e(a*x^2 + b*x) is
    zeta_{p^l}^(A*y^2 + B*y), so it depends on y mod p^l alone: the ball
    p^(-r)Z_p splits into p^l cosets of measure p^(r-l), on each of which it
    is constant.  The integral is therefore p^(r-l) times one full period,
    the ring sum of A, B at k = l, which is refused over term_cap terms
    before p^l or the scale p^(r-l) is formed.
    """
    check_odd_prime(p)  # as the table it checks
    l = max(1, -dx, -dy)
    check_power_cap(p, l, term_cap, "{size} terms exceed the cap {cap}")
    scale = _float_power(p, r - l, "norm scale")
    a_int = _scaled_residue(p, l, af, dx + 2 * r, l + dx)
    b_int = _scaled_residue(p, l, bf, dy + r, l + dy)
    return (l, a_int, b_int), scale


def integral_numeric(
    p: int, r: int, a: Coefficient, b: Coefficient, term_cap: int = DEFAULT_TERM_CAP
) -> complex:
    """Brute-force value of the Gauss integral, via its finite-ring
    reduction `_integral_reduction`: p^(r-l) times one period of a ring sum."""
    a, b = read_coefficient(a, p).need(2 * r), read_coefficient(b, p).need(r)
    (l, a_int, b_int), scale = _integral_reduction(
        p, r, a.value, b.value, a.valuation - 2 * r, b.valuation - r, term_cap)
    return scale * ring_sum_numeric(p, l, l, a_int, b_int, term_cap)


def threshold_t(p: int, a: Coefficient, b: Coefficient) -> int | float:
    """Largest integer at or below the truncation threshold of the simplified
    three-case norm table: the table is certified exactly for integer r > t.

    t = -inf if a = b = 0; t = v(b) if a = 0 only; otherwise
    t = floor(max(v(a)/2, v(a) - v(b))).  A zero O(p^N), whose valuation is
    only known to be >= N, raises PrecisionError.
    """
    _check_prime(p)
    return _threshold(read_coefficient(a, p).known_valuation,
                      read_coefficient(b, p).known_valuation)


def _threshold(va: int | float, vb: int | float) -> int | float:
    """threshold_t from the valuations v(a), v(b)."""
    if va == INF:
        return NEG_INF if vb == INF else vb
    return max(va // 2, va - vb)


def simplified_norm(
    p: int, r: int, a: Coefficient, b: Coefficient
) -> tuple[ExactNorm, str, bool]:
    """The simplified large-r norm table, plus whether r certifies it.

    This is the case table read at R = max(r, threshold_t + 1), where it is
    certified; coefficients need no digits beyond their valuations.  Returns
    (norm, case, certified) where certified means r > threshold_t; for r at
    or below the threshold the table is *not* asserted to hold and callers
    must treat the norm as informational only.  A zero O(p^N) raises
    PrecisionError, as threshold_t does.
    """
    _check_prime(p)
    return _simplified(p, r, read_coefficient(a, p).known_valuation,
                       read_coefficient(b, p).known_valuation)


def _simplified(p: int, r: int, va: int | float, vb: int | float) -> tuple[ExactNorm, str, bool]:
    """simplified_norm from the valuations v(a), v(b), for callers that
    have read them once and try many r."""
    t = _threshold(va, vb)
    big_r = max(r, t + 1)
    return (*_table_norm(p, va - 2 * big_r, vb - big_r, 2 * big_r), r > t)


# ---------------------------------------------------------------------------
# comparison reports
# ---------------------------------------------------------------------------


@dataclass
class NormReport:
    """Outcome of a closed-form vs brute-force norm comparison."""

    kind: str
    case: str
    closed: ExactNorm
    numeric: float | None
    deviation: float | None
    tol: float
    passed: bool
    params: dict
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        d = {"schema": 1, **vars(self), **self.extras}
        del d["extras"]
        d["closed_exact"] = str(d.pop("closed"))
        return d


def check_ring_params(p: int, k: int, l: int) -> None:
    """Reject a composite p, or exponents outside 1 <= l <= k: the one check
    on the parameters of every ring function."""
    _check_prime(p)
    if not 1 <= l <= k:
        raise ValueError("need k >= l >= 1")


def ring_report(
    p: int,
    k: int,
    l: int,
    a: int,
    b: int,
    oracle: bool = False,
    tol: float = 1e-6,
    term_cap: int = DEFAULT_TERM_CAP,
) -> NormReport:
    """Closed form for the ring sum; with oracle=True also both brute forces.

    The oracle passes when the counting |sum|^2 equals the closed norm's
    square exactly and |closed - numeric| <= tol * max(closed, 1).  Like the
    closed form and the counting identity, it refuses p = 2 with
    OddPrimeError; ring_sum_numeric alone sums at p = 2.
    """
    closed, case = ring_sum_norm_closed(p, k, l, a, b)
    numeric = deviation = None
    passed = True
    extras: dict = {}
    if oracle:
        numeric = abs(ring_sum_numeric(p, k, l, a, b, term_cap))
        normsq = ring_sum_normsq_exact(p, k, l, a, b)
        deviation = abs(closed.value - numeric)
        exact_match = closed.normsq == normsq
        passed = exact_match and deviation / max(closed.value, 1.0) <= tol
        extras = {"normsq_exact": normsq, "counting_matches_closed": exact_match}
    return NormReport(
        kind="ring",
        case=case,
        closed=closed,
        numeric=numeric,
        deviation=deviation,
        tol=tol,
        passed=passed,
        params={"p": p, "k": k, "l": l, "a": a, "b": b},
        extras=extras,
    )


def integral_report(
    p: int,
    r: int,
    a: Coefficient,
    b: Coefficient,
    oracle: bool = False,
    tol: float = 1e-9,
    term_cap: int = DEFAULT_TERM_CAP,
) -> NormReport:
    """Closed form for the ball integral; with oracle=True also brute force.

    a and b are read once.  Their shifted valuations give the closed norm,
    the threshold and, under oracle only, the reduction `_integral_reduction`,
    whose scale p^(r-l) can overflow a double.  The brute force is p^(r-l)
    times a ring sum of p^l unit terms, and the oracle judges that sum as
    ring_report does: it passes when
    |closed - numeric| <= tol * max(closed, p^(r-l), 1).  An absolute
    tolerance would ask for more than double precision once p^r is large,
    even for a zero norm.  The reported deviation stays absolute.
    """
    _check_prime(p)
    a, b = read_coefficient(a, p).need(2 * r), read_coefficient(b, p).need(r)
    af, bf, dx, dy = a.value, b.value, a.valuation - 2 * r, b.valuation - r
    closed, case = _table_norm(p, dx, dy, 2 * r)
    try:
        t = _threshold(a.known_valuation, b.known_valuation)
    except PrecisionError:  # a zero O(p^N): no threshold, nothing certified
        t = math.inf
    extras = {"threshold": t if math.isfinite(t) else None, "simplified_certified": r > t}
    numeric = deviation = None
    passed = True
    if oracle:
        (l, a_int, b_int), scale = _integral_reduction(p, r, af, bf, dx, dy, term_cap)
        # reduction_k is one period, k = l; the field stays for report readers
        extras.update({"reduction_l": l, "reduction_k": l})
        numeric = abs(scale * ring_sum_numeric(p, l, l, a_int, b_int, term_cap))
        deviation = abs(closed.value - numeric)
        passed = deviation / max(closed.value, scale, 1.0) <= tol
    return NormReport(
        kind="integral",
        case=case,
        closed=closed,
        numeric=numeric,
        deviation=deviation,
        tol=tol,
        passed=passed,
        params={"p": p, "r": r, "a": str(af), "b": str(bf)},
        extras=extras,
    )
