"""Exact truncated-precision arithmetic for the field Q_p of p-adic numbers.

A nonzero value is a unit scaled by a power of the prime,

    x = p**v * u,   u = d0 + d1*p + ... + d_{N-1}*p**(N-1),   d0 != 0,

so x is known exactly modulo p**(v + N).  A PadicNumber holds the four
integers (p, v, u, N), with u reduced modulo p**N.  The digit count N is
chosen by the caller per computation; arithmetic propagates min(N_x, N_y)
significant digits (additive cancellation shrinks the count further) and
operations that would need digits outside the retained window raise
PrecisionError instead of silently padding zeros.  An all-zero digit string
or a full cancellation is not the exact zero but O(p**N): no digits, known
only modulo p**N.

Cost: +, -, * and inv are a few big-integer operations on numbers below
p**N (inv is one modular inverse), plus a valuation search after a sum
whose leading digits cancel; the fractional part is one reduction modulo
p**(-v).  None of them forms a digit, and neither do `==` and `hash`, which
read the four integers: `digits` and `str` cost one divmod per digit and are
computed each time they are read.

A coefficient of the toolkit (a `Coefficient`: an exact rational or a digit
string) is read in one place, `read_coefficient`, once per call, and its
`Reading` is passed on.  The reading checks that a digit string's prime
is p, not that p is prime: the consumers check that, by `_check_prime`.
It carries the valuation (+inf for any zero) and the absolute precision
(+inf for a rational).  A consumer reads the valuation first, for its
caps; only then does it check the window it needs (`Reading.need`) and
read the exact `value`, the only step that forms a Fraction, refused past
the valuation limit.
"""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import PrecisionError

INF = math.inf


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_prime(p: int) -> None:
    """Raise ValueError unless p is prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def int_valuation(n: int, p: int) -> int | float:
    """Exponent of the largest power of p dividing n; +inf for n = 0."""
    if p < 2:
        raise ValueError(f"{p} is not prime")
    if n == 0:
        return INF
    if n % p:
        return 0
    # p^(2^j) for j = 0.. until one does not divide n, then back down: each
    # step halves the bits of v left to find, so v costs O(log v) divisions
    powers = [p, p * p]
    while n % powers[-1] == 0:
        powers.append(powers[-1] ** 2)
    v = 0
    for j in range(len(powers) - 2, -1, -1):
        q, rem = divmod(n, powers[j])
        if rem == 0:
            n = q
            v += 1 << j
    return v


def _scaled_residue(p: int, l: int, x: Fraction, v: int | float, e: int | float) -> int:
    """x * p^(e - v) mod p^l for x of valuation v and e >= 0: p^e times the
    unit part of x, in integers.  It is 0 for e >= l, which covers x = 0 (v
    and e inf).  For e < 0, x * p^(e - v) is not p-integral: ValueError."""
    if e >= l:
        return 0
    if e < 0:
        raise ValueError(f"{x} * {p}^{e - v} is not {p}-integral: no residue modulo {p}^{l}")
    num, den = x.numerator, x.denominator
    if v > 0:
        num //= p**v
    elif v < 0:
        den //= p**-v
    mod = p**l
    return p**e * num * pow(den, -1, mod) % mod


@dataclass(frozen=True)
class PFraction:
    """A rational m / p**n in [0, 1) with p-power denominator, fully reduced.

    This is the value set of the fractional-part map on Q_p: the sum of the
    negative-power digits of a p-adic number.
    """

    prime: int
    num: int
    exp: int

    def __post_init__(self):
        p, m, n = self.prime, self.num, self.exp
        if p < 2 or n < 0 or not 0 <= m < p**n or (m == 0 and n != 0):
            raise ValueError(f"invalid p-fraction {m}/{p}^{n}")
        if m != 0 and m % p == 0:
            raise ValueError(f"p-fraction {m}/{p}^{n} is not reduced")

    @classmethod
    def zero(cls, p: int) -> "PFraction":
        return cls(p, 0, 0)

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.prime**self.exp)

    def __bool__(self) -> bool:
        return self.num != 0

    def __str__(self) -> str:
        if self.num == 0:
            return "0"
        if self.exp == 1:
            return f"{self.num}/{self.prime}"
        return f"{self.num}/{self.prime}^{self.exp}"


def _pfraction(p: int, num: int, exp: int) -> PFraction:
    """A p-fraction that an operation has already reduced, built unchecked."""
    x = object.__new__(PFraction)
    object.__setattr__(x, "prime", p)
    object.__setattr__(x, "num", num)
    object.__setattr__(x, "exp", exp)
    return x


def frac_part(q: Fraction | int, p: int) -> PFraction:
    """Fractional part {q} of an exactly-known rational, viewed in Q_p.

    {q} is the unique m/p**n in [0, 1) with q - m/p**n in Z_p, i.e. q mod Z_p.
    n is the valuation of q's denominator: for n > 0 that makes v_p(q) = -n
    and m = q * p^n mod p^n, and n = 0 gives {q} = 0.
    """
    q = Fraction(q)
    n = int_valuation(q.denominator, p)
    return PFraction(p, _scaled_residue(p, n, q, -n, 0), n)


class PadicNumber:
    """A truncated p-adic value x = p**valuation * unit, the unit known modulo
    p**precision.

    A nonzero value has precision >= 1 significant digits and a unit in
    [1, p**precision) prime to p, so x is known exactly modulo
    p**abs_precision = p**(valuation + precision).  A zero has precision 0
    and unit 0: the exact zero has valuation +inf, the zero O(p**N) known only
    modulo p**N has valuation N.

    The public constructor takes the digit form, PadicNumber(p, v, digits)
    with digits[j] the coefficient of p**(v + j), and checks it in full.
    The four integers are the value: arithmetic, `==` and `hash` read them,
    and `digits` (one divmod per digit) and `str` are computed each time they
    are read.  Instances are immutable.
    """

    __slots__ = ("prime", "valuation", "unit", "precision")

    def __init__(self, prime: int, valuation: int | float, digits: tuple[int, ...]):
        p = prime
        _check_prime(p)
        u = 0
        if digits:
            if valuation == INF:
                raise ValueError("the exact zero must carry an empty digit tuple")
            if digits[0] == 0:
                raise ValueError("leading digit must be nonzero")
            if any(not 0 <= d < p for d in digits):
                raise ValueError(f"digits must lie in [0, {p})")
            for d in reversed(digits):
                u = u * p + d
        _fill(self, p, valuation, u, len(digits))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle through the checking constructor
        return PadicNumber, (self.prime, self.valuation, self.digits)

    # -- structure ---------------------------------------------------------

    @property
    def digits(self) -> tuple[int, ...]:
        """digits[j] is the coefficient of p**(valuation + j); () for a zero."""
        p, u, digits = self.prime, self.unit, []
        for _ in range(self.precision):
            u, d = divmod(u, p)
            digits.append(d)
        return tuple(digits)

    @property
    def is_zero(self) -> bool:
        """Zero as far as it is known: the exact zero or some O(p**N)."""
        return not self.precision

    @property
    def abs_precision(self) -> int | float:
        """The value is known exactly modulo p**abs_precision."""
        return self.valuation + self.precision

    def to_fraction(self) -> Fraction:
        """Canonical rational representative: the truncated series itself."""
        if self.is_zero:
            return Fraction(0)
        v = self.valuation
        if v >= 0:
            return Fraction(self.unit * self.prime**v)
        return Fraction(self.unit, self.prime**-v)  # in lowest terms: p does not divide u

    def norm(self) -> Fraction:
        """The p-adic norm p**(-valuation), exactly; 0 for the zero element."""
        if self.is_zero:
            return Fraction(0)
        v = self.valuation
        return Fraction(1, self.prime**v) if v >= 0 else Fraction(self.prime**-v)

    def __eq__(self, other):
        if other.__class__ is not PadicNumber:
            return NotImplemented
        return (self.prime == other.prime and self.valuation == other.valuation
                and self.precision == other.precision and self.unit == other.unit)

    def __hash__(self) -> int:
        return hash((self.prime, self.valuation, self.precision, self.unit))

    # -- arithmetic ---------------------------------------------------------

    def _check_same_field(self, other: "PadicNumber") -> None:
        if not isinstance(other, PadicNumber):
            raise TypeError(f"expected a p-adic number, got {type(other).__name__}")
        if other.prime != self.prime:
            raise ValueError(f"mixed primes {self.prime} and {other.prime}")

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        """Sum known modulo the coarser modulus; a full cancellation is O(p**N)."""
        self._check_same_field(other)
        if self.valuation == INF:
            return other
        if other.valuation == INF:
            return self
        p = self.prime
        v = min(self.valuation, other.valuation)
        abs_prec = min(self.abs_precision, other.abs_precision)
        window = abs_prec - v  # digits determined at level v
        total = (
            self.unit * p ** (self.valuation - v) + other.unit * p ** (other.valuation - v)
        ) % p**window
        if total == 0:
            return _zero(p, abs_prec)
        shift = int_valuation(total, p)
        return _padic(p, v + shift, total // p**shift, window - shift)

    def __neg__(self) -> "PadicNumber":
        if self.is_zero:
            return self
        n = self.precision
        return _padic(self.prime, self.valuation, self.prime**n - self.unit, n)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self + (-other)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_field(other)
        v = self.valuation + other.valuation
        if self.is_zero or other.is_zero:  # O(p**N) * x is known modulo p**(N + v(x))
            return _zero(self.prime, v)
        n = min(self.precision, other.precision)
        return _padic(self.prime, v, self.unit * other.unit % self.prime**n, n)

    def inv(self) -> "PadicNumber":
        """Multiplicative inverse at the same digit count."""
        if self.is_zero:
            raise ZeroDivisionError("the zero element has no inverse")
        n = self.precision
        return _padic(self.prime, -self.valuation, pow(self.unit, -1, self.prime**n), n)

    def fractional_part(self) -> PFraction:
        """Sum of the negative-power digits, as an exact reduced fraction.

        Requires every negative-power digit to sit inside the retained window
        (precision >= -valuation when the valuation is negative); a zero
        O(p**N) with N < 0 has none of them.
        """
        p = self.prime
        if self.valuation >= 0:
            return _pfraction(p, 0, 0)
        depth = -self.valuation
        if self.precision < depth:
            raise PrecisionError(
                f"need {depth} digits to read the fractional part, have {self.precision}"
            )
        return _pfraction(p, self.unit % p**depth, depth)

    # -- text forms ----------------------------------------------------------

    def __repr__(self) -> str:
        return (f"PadicNumber(prime={self.prime!r}, valuation={self.valuation!r}, "
                f"digits={self.digits!r})")

    def __str__(self) -> str:
        if self.is_zero:
            return "0" if self.valuation == INF else f"O({self.prime}^{self.valuation})"
        body = " ".join(str(d) for d in self.digits)
        return f"{body} *{self.prime}^{self.valuation}"


# Operations build their results through these, past the frozen __setattr__
# and the digit checks of the public constructor.
_new = object.__new__
_set_prime, _set_valuation, _set_unit, _set_precision = (
    getattr(PadicNumber, name).__set__ for name in PadicNumber.__slots__)


def _fill(x: PadicNumber, p: int, v: int | float, u: int, n: int) -> PadicNumber:
    _set_prime(x, p)
    _set_valuation(x, v)
    _set_unit(x, u)
    _set_precision(x, n)
    return x


def _padic(p: int, v: int, u: int, n: int) -> PadicNumber:
    """p**v * u for a unit u in [1, p**n) known modulo p**n, checking only what
    an operation can break: a digit left (n >= 1) and a unit (u % p != 0)."""
    if n < 1:
        raise PrecisionError("no significant digits survive this operation")
    if not u % p:
        raise ValueError("leading digit must be nonzero")
    return _fill(_new(PadicNumber), p, v, u, n)


def _zero(p: int, v: int | float) -> PadicNumber:
    """The zero O(p**v), or the exact zero for v = +inf."""
    return _fill(_new(PadicNumber), p, v, 0, 0)


def zero(p: int) -> PadicNumber:
    return PadicNumber(p, INF, ())


def from_rational(num: int, den: int, p: int, precision: int) -> PadicNumber:
    """The p-adic expansion of num/den truncated to `precision` digits."""
    if den == 0:
        raise ZeroDivisionError("denominator must be nonzero")
    _check_prime(p)
    if precision < 1:
        raise ValueError("precision must be at least 1")
    if num == 0:
        return _zero(p, INF)
    vn, vd = int_valuation(num, p), int_valuation(den, p)
    mod = p**precision
    u = (num // p**vn) * pow(den // p**vd, -1, mod) % mod
    return _padic(p, vn - vd, u, precision)


def valuation(x: PadicNumber) -> int | float:
    """v_p(x); +inf for the exact zero, the lower bound N for O(p**N)."""
    return x.valuation


def norm_p(x: PadicNumber) -> Fraction:
    return x.norm()


Coefficient = PadicNumber | Fraction | int

# A digit string becomes a Fraction only while p^|v| stays below 2^8192, about
# 2466 decimal digits: forming it stays cheap, and its text leaves room for
# the digits it carries under Python's 4300-digit limit on int-to-str.
MAX_VALUATION_BITS = 8192


class Reading(NamedTuple):
    """A coefficient x as read in Q_p by `read_coefficient`: v_p(x), +inf for
    any zero, and the absolute precision, x being known modulo
    p**precision: +inf for a rational and the exact zero, N for O(p**N)."""

    prime: int
    valuation: int | float
    precision: int | float
    source: Fraction | PadicNumber

    def need(self, window: int | float) -> "Reading":
        """This reading, once x is known modulo p**window; else PrecisionError."""
        if self.precision < window:
            raise PrecisionError(f"coefficient known only modulo {self.prime}^"
                                 f"{self.precision}, need {self.prime}^{window}")
        return self

    @property
    def known_valuation(self) -> int | float:
        """The valuation, refusing a zero O(p**N): it is known only to be >= N."""
        if self.valuation == INF and self.precision != INF:
            raise PrecisionError(f"coefficient known only as 0 modulo {self.prime}^"
                                 f"{self.precision}: its valuation is unknown")
        return self.valuation

    @property
    def value(self) -> Fraction:
        """The exact rational: a rational itself, or a digit string's canonical
        representative (0 for a zero O(p**N)).  A nonzero digit string with
        |v| > MAX_VALUATION_BITS // p.bit_length() is refused."""
        x = self.source
        if x.__class__ is not PadicNumber:
            return x
        limit = MAX_VALUATION_BITS // self.prime.bit_length()
        if self.valuation != INF and abs(self.valuation) > limit:
            raise ValueError(f"coefficient valuation {self.valuation} exceeds the limit "
                             f"|v| <= {limit} at p = {self.prime}")
        return x.to_fraction()


def read_coefficient(x: Coefficient, p: int) -> Reading:
    """Read a coefficient in Q_p: its valuation and precision, with no
    Fraction formed for a digit string, whose prime must be p."""
    if isinstance(x, PadicNumber):
        if x.prime != p:
            raise ValueError(f"coefficient lives in Q_{x.prime}, expected Q_{p}")
        return Reading(p, INF if x.is_zero else x.valuation, x.abs_precision, x)
    q = x if isinstance(x, Fraction) else Fraction(x)
    v = int_valuation(q.numerator, p) - int_valuation(q.denominator, p) if q else INF
    return Reading(p, v, INF, q)


_INTEGER = re.compile(r"\s*[+-]?\d+(_\d+)*\s*")  # the text int() reads, digit limit aside


def parse_coefficient(text: str, p: int) -> Fraction | PadicNumber:
    """Parse an exact rational `num/den` or integer, or a digit string `d0 d1 ... *p^v`.

    Rationals stay exact; only a digit string carries a truncated precision.
    Text of none of these forms, a zero denominator among them, raises one
    ValueError that quotes it.
    """

    def unreadable() -> ValueError:
        return ValueError(f"cannot read the coefficient {text!r}: expected an integer, "
                          f"num/den with den != 0, or digits 'd0 d1 ... *p^v'")

    def integer(part: str) -> int:
        if not _INTEGER.fullmatch(part):
            raise unreadable()
        return int(part)

    text = text.strip()
    if "*" in text:
        body, _, tail = text.partition("*")
        digits = tuple(integer(t) for t in body.split())
        base, _, exp = tail.partition("^")
        if integer(base) != p:
            raise ValueError(f"digit string is base {base}, expected {p}")
        v = integer(exp) if exp else 0
        if not any(digits):  # known to be 0 modulo p^(v + n) only
            return PadicNumber(p, v + len(digits), ())
        # leading zeros only shift the valuation; trailing zeros stay significant
        shift = next(i for i, d in enumerate(digits) if d != 0)
        return PadicNumber(p, v + shift, digits[shift:])
    if "/" in text:
        num, _, den = text.partition("/")
        num, den = integer(num), integer(den)
        if den == 0:
            raise unreadable()
        return Fraction(num, den)
    return Fraction(integer(text))


def parse_padic(text: str, p: int, precision: int = 12) -> PadicNumber:
    """Parse as parse_coefficient does, expanding a rational to `precision` digits."""
    x = parse_coefficient(text, p)
    if isinstance(x, PadicNumber):
        return x
    return from_rational(x.numerator, x.denominator, p, precision)
