"""The coefficient-reading helpers as they were before `padic.read_coefficient`,
kept unchanged as oracles: `as_fraction`, `frac_valuation`,
`coefficient_valuation` and its window check `_check_window` (from padic),
`known_valuation` (gauss._known_valuation) and `shifted_valuations`
(gauss._shifted_valuations).
"""

from fractions import Fraction

from padic_mub.errors import PrecisionError
from padic_mub.padic import INF, MAX_VALUATION_BITS, PadicNumber, int_valuation


def frac_valuation(q, p):
    if q == 0:
        return INF
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


def as_fraction(x, p, need_abs_precision=None):
    """Coerce a coefficient to an exact rational.

    Rationals pass through unchanged.  A truncated p-adic value is replaced by
    its canonical representative, but only if its retained window reaches
    `need_abs_precision`.  A nonzero digit string with
    |v| > MAX_VALUATION_BITS // p.bit_length() is refused.
    """
    if isinstance(x, PadicNumber):
        _check_window(x, p, need_abs_precision)
        limit = MAX_VALUATION_BITS // p.bit_length()
        if not x.is_zero and abs(x.valuation) > limit:
            raise ValueError(f"coefficient valuation {x.valuation} exceeds the limit "
                             f"|v| <= {limit} at p = {p}")
        return x.to_fraction()
    return x if isinstance(x, Fraction) else Fraction(x)


def coefficient_valuation(x, p, need_abs_precision=None):
    """v_p(as_fraction(x, p, need_abs_precision)), raising what that raises,
    but a digit string's valuation is read off it with no Fraction built:
    +inf for any zero, which as_fraction reads as 0."""
    if isinstance(x, PadicNumber):
        _check_window(x, p, need_abs_precision)
        return INF if x.is_zero else x.valuation
    return frac_valuation(as_fraction(x, p), p)


def _check_window(x, p, need_abs_precision):
    if x.prime != p:
        raise ValueError(f"coefficient lives in Q_{x.prime}, expected Q_{p}")
    if need_abs_precision is not None and x.abs_precision < need_abs_precision:
        raise PrecisionError(
            f"coefficient known only modulo {p}^{x.abs_precision}, "
            f"need {p}^{need_abs_precision}"
        )


def known_valuation(x, p):
    """v(x), refusing a zero O(p^N): its valuation is known only to be >= N."""
    if isinstance(x, PadicNumber) and x.is_zero and x.valuation != INF:
        raise PrecisionError(
            f"coefficient known only as 0 modulo {p}^{x.valuation}: its valuation is unknown"
        )
    return frac_valuation(as_fraction(x, p), p)


def shifted_valuations(p, r, a, b):
    """a and b as rationals known to p^(2r) and p^r, and their shifted
    valuations dx = v(a) - 2r, dy = v(b) - r over the ball p^(-r)Z_p."""
    af = as_fraction(a, p, need_abs_precision=2 * r)
    bf = as_fraction(b, p, need_abs_precision=r)
    return af, bf, frac_valuation(af, p) - 2 * r, frac_valuation(bf, p) - r
