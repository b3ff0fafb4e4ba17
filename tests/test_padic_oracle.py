"""padic.PadicNumber on integers against the digit-tuple class it replaced.

The oracle below is `PadicNumber` as it was, with its `_from_unit`, `zero`
and `from_rational`, unchanged: each operation turned digit tuples into
integers, split its result back into digits and checked them.  Hypothesis
draws values of both classes from one spec, and every operation is compared
on each field, `digits`, `str`, `repr`, and on the type and message of any
error.  `hash` is compared only as the equalities it gives: the oracle hashed
its digit tuple, and `padic.PadicNumber` hashes its four integers.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_mub import padic
from padic_mub.characters import UnitPhase, char_e
from padic_mub.errors import PrecisionError
from padic_mub.padic import INF, PFraction, int_valuation, is_prime

from oracles import frac_valuation

# -- the oracle: padic.PadicNumber as it was -----------------------------------


@dataclass(frozen=True)
class PadicNumber:
    """A truncated p-adic expansion: digits[j] is the coefficient of p**(valuation+j).

    A zero has an empty digit tuple: the exact zero has valuation +inf, the
    zero O(p**N) known only modulo p**N has valuation N.  Any other value has
    a nonzero leading digit.  Instances are immutable.
    """

    prime: int
    valuation: int | float
    digits: tuple[int, ...]

    def __post_init__(self):
        p = self.prime
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not self.digits:
            return
        if self.valuation == INF:
            raise ValueError("the exact zero must carry an empty digit tuple")
        if self.digits[0] == 0:
            raise ValueError("leading digit must be nonzero")
        if any(not 0 <= d < p for d in self.digits):
            raise ValueError(f"digits must lie in [0, {p})")

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """Zero as far as it is known: the exact zero or some O(p**N)."""
        return not self.digits

    @property
    def precision(self) -> int:
        """Count of significant digits retained (0 for a zero)."""
        return len(self.digits)

    @property
    def abs_precision(self) -> int | float:
        """The value is known exactly modulo p**abs_precision."""
        return self.valuation + len(self.digits)

    def unit(self) -> int:
        """The digit expansion evaluated as an integer (x = unit * p**valuation)."""
        u = 0
        for d in reversed(self.digits):
            u = u * self.prime + d
        return u

    def to_fraction(self) -> Fraction:
        """Canonical rational representative: the truncated series itself."""
        if self.is_zero:
            return Fraction(0)
        return Fraction(self.unit()) * Fraction(self.prime) ** self.valuation

    def norm(self) -> Fraction:
        """The p-adic norm p**(-valuation), exactly; 0 for the zero element."""
        if self.is_zero:
            return Fraction(0)
        return Fraction(self.prime) ** (-self.valuation)

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
        mod = p**window
        total = (
            self.unit() * p ** (self.valuation - v)
            + other.unit() * p ** (other.valuation - v)
        ) % mod
        if total == 0:
            return PadicNumber(p, abs_prec, ())
        shift = int_valuation(total, p)
        return _from_unit(p, v + shift, total // p**shift, window - shift)

    def __neg__(self) -> "PadicNumber":
        if self.is_zero:
            return self
        mod = self.prime ** len(self.digits)
        return _from_unit(self.prime, self.valuation, mod - self.unit(), len(self.digits))

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self + (-other)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        self._check_same_field(other)
        if self.is_zero or other.is_zero:  # O(p**N) * x is known modulo p**(N + v(x))
            return PadicNumber(self.prime, self.valuation + other.valuation, ())
        n = min(len(self.digits), len(other.digits))
        u = self.unit() * other.unit() % self.prime**n
        return _from_unit(self.prime, self.valuation + other.valuation, u, n)

    def inv(self) -> "PadicNumber":
        """Multiplicative inverse at the same digit count."""
        if self.is_zero:
            raise ZeroDivisionError("the zero element has no inverse")
        n = len(self.digits)
        u = pow(self.unit(), -1, self.prime**n)
        return _from_unit(self.prime, -self.valuation, u, n)

    def fractional_part(self) -> PFraction:
        """Sum of the negative-power digits, as an exact reduced fraction.

        Requires every negative-power digit to sit inside the retained window
        (precision >= -valuation when the valuation is negative); a zero
        O(p**N) with N < 0 has none of them.
        """
        p = self.prime
        if self.valuation >= 0:
            return PFraction.zero(p)
        depth = -self.valuation
        if len(self.digits) < depth:
            raise PrecisionError(
                f"need {depth} digits to read the fractional part, have {len(self.digits)}"
            )
        return PFraction(p, self.unit() % p**depth, depth)

    # -- text forms ----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0" if self.valuation == INF else f"O({self.prime}^{self.valuation})"
        body = " ".join(str(d) for d in self.digits)
        return f"{body} *{self.prime}^{self.valuation}"


def _from_unit(p: int, v: int, u: int, n: int) -> PadicNumber:
    """Build from a unit integer (u % p != 0) known modulo p**n."""
    if n < 1:
        raise PrecisionError("no significant digits survive this operation")
    u %= p**n
    digits = []
    for _ in range(n):
        u, d = divmod(u, p)
        digits.append(d)
    return PadicNumber(p, v, tuple(digits))


def zero(p: int) -> PadicNumber:
    return PadicNumber(p, INF, ())


def from_rational(num: int, den: int, p: int, precision: int) -> PadicNumber:
    """The p-adic expansion of num/den truncated to `precision` digits."""
    if den == 0:
        raise ZeroDivisionError("denominator must be nonzero")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if precision < 1:
        raise ValueError("precision must be at least 1")
    if num == 0:
        return zero(p)
    vn, vd = int_valuation(num, p), int_valuation(den, p)
    mod = p**precision
    u = (num // p**vn) * pow(den // p**vd, -1, mod) % mod
    return _from_unit(p, vn - vd, u, precision)


# -- drawing one value as both classes -----------------------------------------

PRIMES = [2, 3, 5, 7]


@st.composite
def pairs(draw, p):
    """(new, old): one spec built as padic.PadicNumber and as the oracle: a
    digit string, a rational expansion, the exact zero, or O(p^N) with N of
    either sign."""
    kind = draw(st.sampled_from(["digits", "rational", "exact zero", "O(p^N)"]))
    if kind == "digits":
        v = draw(st.integers(-4, 4))
        digits = (draw(st.integers(1, p - 1)),
                  *draw(st.lists(st.integers(0, p - 1), max_size=7)))
        return padic.PadicNumber(p, v, digits), PadicNumber(p, v, digits)
    if kind == "rational":
        num = draw(st.integers(-400, 400))
        den = draw(st.integers(1, 400))
        n = draw(st.integers(1, 9))
        return padic.from_rational(num, den, p, n), from_rational(num, den, p, n)
    if kind == "exact zero":
        return padic.zero(p), zero(p)
    v = draw(st.integers(-4, 4))
    return padic.PadicNumber(p, v, ()), PadicNumber(p, v, ())


def view(x):
    """Everything a caller can read off a result of either class."""
    if not isinstance(x, (padic.PadicNumber, PadicNumber)):
        return x
    unit = x.unit if isinstance(x, padic.PadicNumber) else x.unit()
    return (x.prime, x.valuation, x.digits, x.precision, unit, x.abs_precision,
            x.is_zero, str(x), repr(x), x.to_fraction(), x.norm())


def agree(new, old):
    """new() and old() return results with one view, or raise one error."""
    try:
        want = old()
    except Exception as exc:  # the oracle's error is the expected one
        with pytest.raises(Exception) as got:
            new()
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return None
    got = new()
    assert view(got) == view(want)
    return got


@settings(max_examples=400, deadline=None)
@given(data=st.data(), p=st.sampled_from(PRIMES))
def test_unary_operations_match_the_digit_tuple_class(data, p):
    xn, xo = data.draw(pairs(p))
    assert view(xn) == view(xo)
    agree(lambda: -xn, lambda: -xo)
    agree(xn.inv, xo.inv)
    agree(xn.fractional_part, xo.fractional_part)
    agree(lambda: char_e(xn), lambda: UnitPhase(xo.fractional_part()))
    agree(lambda: padic.read_coefficient(xn, p).value, lambda: xo.to_fraction())
    agree(lambda: padic.PadicNumber(p, xn.valuation, xn.digits),
          lambda: PadicNumber(p, xo.valuation, xo.digits))
    agree(lambda: xn + 1, lambda: xo + 1)
    assert (xn == xo.to_fraction()) is (xo == xo.to_fraction()) is False


@settings(max_examples=400, deadline=None)
@given(data=st.data(), p=st.sampled_from(PRIMES))
def test_binary_operations_match_the_digit_tuple_class(data, p):
    (xn, xo), (yn, yo) = data.draw(pairs(p)), data.draw(pairs(p))
    sn = agree(lambda: xn + yn, lambda: xo + yo)
    agree(lambda: xn - yn, lambda: xo - yo)
    mn = agree(lambda: xn * yn, lambda: xo * yo)
    agree(lambda: xn * yn + xn, lambda: xo * yo + xo)
    # full cancellation, and a sum whose leading digits cancel
    agree(lambda: xn - xn, lambda: xo - xo)
    agree(lambda: xn + (-xn), lambda: xo + (-xo))
    agree(lambda: (xn + yn) - xn, lambda: (xo + yo) - xo)
    assert (xn == yn) is (xo == yo)
    assert (hash(xn) == hash(yn)) is (hash(xo) == hash(yo))
    if sn is not None and mn is not None:
        agree(lambda: (sn * mn).inv(), lambda: ((xo + yo) * (xo * yo)).inv())


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.sampled_from(PRIMES))
def test_hash_reads_the_four_integers_not_the_digits(data, p):
    """Every arithmetic result hashes as the value its digits rebuild, and
    hashing it forms no digit."""
    (x, _), (y, _) = data.draw(pairs(p)), data.draw(pairs(p))
    results = []
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x * y + (x + y),
               lambda: x - x, lambda: -x, x.inv):
        try:
            results.append(op())
        except (PrecisionError, ZeroDivisionError):
            pass
    rebuilt = [padic.PadicNumber(p, z.valuation, z.digits) for z in results]

    def refused(self):
        raise AssertionError("hash formed the digits")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(padic.PadicNumber, "digits", property(refused))
        for z, w in zip(results, rebuilt):
            assert z == w and hash(z) == hash(w)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.sampled_from(PRIMES), q=st.sampled_from(PRIMES))
def test_mixed_primes_raise_the_same_error(data, p, q):
    (xn, xo), (yn, yo) = data.draw(pairs(p)), data.draw(pairs(q))
    for op in ("__add__", "__sub__", "__mul__"):
        agree(lambda: getattr(xn, op)(yn), lambda: getattr(xo, op)(yo))


@settings(max_examples=400, deadline=None)
@given(
    p=st.sampled_from([-3, 0, 1, 2, 3, 4, 5, 9]),
    v=st.integers(-3, 3) | st.just(INF),
    digits=st.lists(st.integers(-1, 9), max_size=4),
)
def test_the_public_constructor_checks_the_digit_form_as_before(p, v, digits):
    agree(lambda: padic.PadicNumber(p, v, tuple(digits)),
          lambda: PadicNumber(p, v, tuple(digits)))


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(-50, 50), den=st.integers(-50, 50),
    p=st.sampled_from([1, 2, 3, 4, 5, 7]), n=st.integers(-1, 6),
)
def test_from_rational_matches_and_refuses_as_before(num, den, p, n):
    agree(lambda: padic.from_rational(num, den, p, n), lambda: from_rational(num, den, p, n))


@pytest.mark.parametrize("n", [1, 2, 9])
def test_a_value_is_frozen_as_before(n):
    xn, xo = padic.from_rational(5, 9, 3, n), from_rational(5, 9, 3, n)
    for name in ("prime", "valuation", "digits"):
        agree(lambda: setattr(xn, name, 1), lambda: setattr(xo, name, 1))
        agree(lambda: delattr(xn, name), lambda: delattr(xo, name))
    with pytest.raises(FrozenInstanceError):
        xn.unit = 1
    for again in (copy.copy(xn), copy.deepcopy(xn), pickle.loads(pickle.dumps(xn))):
        assert view(again) == view(xo)


def test_the_private_constructor_checks_what_an_operation_can_break():
    with pytest.raises(PrecisionError, match="no significant digits survive"):
        padic._padic(3, 0, 1, 0)
    with pytest.raises(ValueError, match="leading digit must be nonzero"):
        padic._padic(3, 0, 6, 2)
    x = padic._padic(3, -1, 5, 2)
    assert view(x) == view(PadicNumber(3, -1, (2, 1)))


def test_long_precision_arithmetic_is_exact():
    """1/7 and 2/5 in Q_3 to 10^5 digits: their product plus their sum is
    3/5, of valuation 1, and its inverse 5/3."""
    n = 100000
    x, y = padic.from_rational(1, 7, 3, n), padic.from_rational(2, 5, 3, n)
    s = x * y + (x + y)
    results = [(x, Fraction(1, 7)), (y, Fraction(2, 5)), (s, Fraction(3, 5)),
               (s.inv(), Fraction(5, 3))]
    assert s.valuation == 1 and s.precision == n - 1
    for got, q in results:
        assert frac_valuation(q - got.to_fraction(), 3) >= got.abs_precision
