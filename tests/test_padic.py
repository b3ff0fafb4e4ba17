"""Truncated p-adic arithmetic: representation, field ops, fractional part."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_mub import INF, PrecisionError, from_rational, norm_p, valuation, zero
from padic_mub.padic import (
    PadicNumber,
    PFraction,
    _scaled_residue,
    frac_part,
    int_valuation,
    parse_coefficient,
    parse_padic,
    read_coefficient,
)

from oracles import frac_valuation, rational_mod

primes = st.sampled_from([3, 5, 7])


def test_from_rational_45_base3():
    x = from_rational(45, 1, 3, 4)
    assert x.valuation == 2
    # 45 = 2*3^2 + 1*3^3; the two retained trailing digits are known zeros
    assert x.digits == (2, 1, 0, 0)
    assert x.digits[:2] == (2, 1)
    assert x.to_fraction() == 45


def test_from_rational_zero():
    x = from_rational(0, 7, 5, 4)
    assert x.is_zero
    assert x.valuation == INF
    assert x.digits == ()


def test_from_rational_minus_one_has_all_digits_p_minus_1():
    x = from_rational(-1, 1, 3, 4)
    assert x.valuation == 0
    assert x.digits == (2, 2, 2, 2)


def test_from_rational_rejects_bad_inputs():
    with pytest.raises(ZeroDivisionError):
        from_rational(1, 0, 3, 4)
    with pytest.raises(ValueError):
        from_rational(1, 2, 4, 4)
    with pytest.raises(ValueError):
        from_rational(1, 2, 3, 0)


def test_valuation_examples():
    assert valuation(from_rational(45, 1, 3, 4)) == 2
    assert valuation(from_rational(5, 9, 3, 4)) == -2
    assert valuation(zero(3)) == INF


def test_norm_examples():
    assert norm_p(from_rational(45, 1, 3, 4)) == Fraction(1, 9)
    assert norm_p(from_rational(1, 3, 3, 4)) == 3
    assert norm_p(zero(3)) == 0


def test_additive_inverse_cancels_exactly():
    one = from_rational(1, 1, 3, 5)
    assert (one + (-one)).is_zero


def test_multiplicative_inverse():
    third = from_rational(1, 3, 3, 5)
    three = from_rational(3, 1, 3, 5)
    assert (third * three).to_fraction() == 1
    assert third.inv().to_fraction() == 3


def test_add_with_carry():
    two = from_rational(2, 1, 3, 4)
    s = two + two
    assert s.valuation == 0
    assert s.digits == (1, 1, 0, 0)


def test_mixed_primes_rejected():
    with pytest.raises(ValueError):
        from_rational(1, 1, 3, 4) + from_rational(1, 1, 5, 4)


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        zero(3).inv()


def test_cancellation_shrinks_precision():
    # 1 and 1+3^3 agree on three digits; their difference keeps only one
    a = from_rational(1, 1, 3, 4)
    b = from_rational(-(1 + 27), 1, 3, 4)
    d = a + b
    assert d.valuation == 3
    assert d.precision == 1


def test_fractional_part_examples():
    assert from_rational(5, 9, 3, 4).fractional_part().value == Fraction(5, 9)
    assert from_rational(7, 1, 3, 4).fractional_part().value == 0
    x = from_rational(-1, 3, 3, 4).fractional_part()
    assert x.value == Fraction(2, 3)
    # oracle: the difference -1/3 - 2/3 = -1 must be a p-adic integer
    assert frac_valuation(Fraction(-1, 3) - Fraction(2, 3), 3) >= 0


def test_fractional_part_requires_enough_digits():
    x = from_rational(1, 81, 3, 3)  # valuation -4, only 3 digits retained
    with pytest.raises(PrecisionError):
        x.fractional_part()


def test_fractional_part_matches_rational_frac_part():
    for num in range(-20, 21):
        for den in (1, 3, 9, 27, 2, 6):
            if num == 0:
                continue
            x = from_rational(num, den, 3, 12)
            assert x.fractional_part().value == frac_part(Fraction(num, den), 3).value


def test_fractional_part_unchanged_by_integral_shift():
    x = from_rational(5, 9, 3, 8)
    for z_num in (1, 2, 3, 7, -4):
        z = from_rational(z_num, 1, 3, 8)
        assert (x + z).fractional_part().value == x.fractional_part().value


def test_frac_part_difference_is_integral():
    for num in range(-15, 16):
        for den in (1, 2, 3, 9, 27):
            q = Fraction(num, den)
            assert frac_valuation(q - frac_part(q, 3).value, 3) >= 0


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11, 13]), num=st.integers(-10**6, 10**6),
       den=st.integers(1, 10**6), v=st.integers(-8, 8), l=st.integers(0, 9),
       e=st.integers(-6, 12))
def test_scaled_residue_is_the_fraction_residue(p, num, den, v, l, e):
    """p^e times the unit part of x mod p^l, for x of valuation v of either
    sign, e - v of either sign and e >= l too, is the residue of the Fraction
    x * p^(e - v).  For e < 0 that is not p-integral: the helper refuses it,
    as the oracle does modulo every p^l > 1.  frac_part reads its digits
    through the same helper."""
    num, den = num * p + 1, den * p + 1  # units: x = num/den * p^v has valuation v
    x = Fraction(num, den) * Fraction(p) ** v
    y = x * Fraction(p) ** (e - v)
    if e < 0:
        with pytest.raises(ValueError, match="is not .*-integral"):
            _scaled_residue(p, l, x, v, e)
        if l:  # modulo p^0 = 1 the oracle reads every rational as 0
            with pytest.raises(ValueError, match="has no residue"):
                rational_mod(y, p**l)
    else:
        assert _scaled_residue(p, l, x, v, e) == rational_mod(y, p**l)
    part = frac_part(x, p)
    assert part.exp == max(0, -v) and 0 <= part.value < 1
    assert frac_valuation(x - part.value, p) >= 0
    assert _scaled_residue(p, l, Fraction(0), INF, INF) == 0


def test_norm_is_multiplicative_exhaustive():
    values = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3, 9) if n]
    for p in (2, 3, 5):
        nums = [from_rational(q.numerator, q.denominator, p, 10) for q in values]
        for x in nums[::5]:
            for y in nums[::3]:
                assert norm_p(x * y) == norm_p(x) * norm_p(y)


def test_ultrametric_inequality_exhaustive():
    values = [Fraction(n, d) for n in range(-6, 7) for d in (1, 3, 9)]
    nums = [from_rational(q.numerator, q.denominator, 3, 10) for q in values]
    for x in nums[::4]:
        for y in nums[::3]:
            assert norm_p(x + y) <= max(norm_p(x), norm_p(y))


@settings(max_examples=80, deadline=None)
@given(
    num=st.integers(-300, 300),
    den=st.integers(1, 300),
    p=primes,
    n=st.integers(3, 12),
)
def test_roundtrip_matches_modulo_retained_window(num, den, p, n):
    x = from_rational(num, den, p, n)
    if x.is_zero:
        assert num == 0
        return
    diff = x.to_fraction() - Fraction(num, den)
    assert diff == 0 or frac_valuation(diff, p) >= x.valuation + n


@settings(max_examples=80, deadline=None)
@given(
    a=st.integers(-200, 200),
    b=st.integers(-200, 200),
    den=st.integers(1, 100),
    p=primes,
)
def test_ultrametric_and_multiplicativity_random(a, b, den, p):
    x = from_rational(a, den, p, 12)
    y = from_rational(b, den, p, 12)
    assert norm_p(x * y) == norm_p(x) * norm_p(y)
    assert norm_p(x + y) <= max(norm_p(x), norm_p(y))


def test_pfraction_validation():
    with pytest.raises(ValueError):
        PFraction(3, 3, 2)  # 3/9 is not reduced
    with pytest.raises(ValueError):
        PFraction(3, 9, 2)  # outside [0, 1)
    assert frac_part(Fraction(4, 3), 3) == PFraction(3, 1, 1)
    assert frac_part(Fraction(1, 2), 3) == PFraction.zero(3)  # 1/2 lies in Z_3
    assert frac_part(Fraction(1, 6), 3) == PFraction(3, 2, 1)  # 1/6 - 2/3 = -1/2


def test_parse_and_print_roundtrip():
    x = from_rational(-7, 9, 3, 6)
    again = parse_padic(str(x), 3)
    assert again == x
    y = parse_padic("45", 3, precision=4)
    assert y == from_rational(45, 1, 3, 4)
    z = parse_padic("5/9", 3, precision=6)
    assert z == from_rational(5, 9, 3, 6)
    assert parse_padic("0 0 0 *3^2", 3).is_zero


def test_digit_string_keeps_trailing_zeros():
    x = parse_padic("2 2 0 0 *3^-1", 3)
    assert x.digits == (2, 2, 0, 0)
    assert x.abs_precision == 3


def test_parse_coefficient_keeps_rationals_exact():
    assert parse_coefficient("1/3", 3) == Fraction(1, 3)
    assert isinstance(parse_coefficient("1/3", 3), Fraction)
    assert parse_coefficient(" -45 ", 3) == Fraction(-45)
    assert parse_coefficient("2 2 0 0 *3^-1", 3) == parse_padic("2 2 0 0 *3^-1", 3)
    with pytest.raises(ValueError, match="cannot read the coefficient '5/0'"):
        parse_coefficient("5/0", 3)
    with pytest.raises(ValueError, match="^digit string is base 5, expected 3$"):
        parse_coefficient("1 *5^0", 3)  # base mismatch


@pytest.mark.parametrize("text", [
    "", " ", " 1/0 ", "-3/00", "1/", "/2", "1/2/3", "1.5", "abc", "0x10", "1__0", "2 x *3^0",
    "1 2 *", "1 2 *3^x", "1 2 *^1", "1 2 *3^1^2",
])
def test_unreadable_coefficient_raises_one_error_quoting_its_text(text):
    with pytest.raises(ValueError) as info:
        parse_coefficient(text, 3)
    assert str(info.value) == (f"cannot read the coefficient {text.strip()!r}: expected an integer, "
                               "num/den with den != 0, or digits 'd0 d1 ... *p^v'")


@pytest.mark.parametrize("text,want", [
    (" +7 ", Fraction(7)), ("1_000", Fraction(1000)), ("-2/ 4", Fraction(-1, 2)),
    ("1 2 * 3^ -1", PadicNumber(3, -1, (1, 2))),
])
def test_parse_coefficient_reads_what_int_reads(text, want):
    assert parse_coefficient(text, 3) == want


def test_a_number_past_the_digit_limit_keeps_its_own_message():
    with pytest.raises(ValueError, match="Exceeds the limit"):
        parse_coefficient("9" * 5000, 3)


def test_direct_construction_validates():
    with pytest.raises(ValueError):
        PadicNumber(3, 0, (0, 1))  # leading digit zero
    with pytest.raises(ValueError):
        PadicNumber(3, 0, (3,))  # digit out of range
    with pytest.raises(ValueError):
        PadicNumber(3, INF, (1,))  # zero with digits


def test_valuation_refuses_p_below_2():
    for p in (1, 0, -3):
        with pytest.raises(ValueError, match=f"{p} is not prime"):
            int_valuation(5, p)


def _stripped_valuation(n, p):
    """Oracle: strip one factor of p at a time."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 6, 7, 10, 97]),
    v=st.integers(0, 300),
    q=st.integers(-10**6, 10**6),
    r=st.integers(1, 96),
)
def test_valuation_by_squaring_matches_stripping(p, v, q, r):
    n = (q * p + r % (p - 1) + 1) * p**v  # the cofactor is prime to p
    assert int_valuation(n, p) == _stripped_valuation(n, p) == v


def test_valuation_of_a_large_power():
    assert int_valuation(3**100000, 3) == 100000
    assert int_valuation(-2 * 3**100001, 3) == 100001
    assert int_valuation(0, 3) == INF


def test_zero_digit_string_is_known_to_its_digits_only():
    x = parse_coefficient("0 0 *3^1", 3)
    assert x.is_zero and x.abs_precision == 3 and str(x) == "O(3^3)"
    assert read_coefficient(x, 3).need(3).value == 0
    with pytest.raises(PrecisionError, match="known only modulo 3\\^3, need 3\\^4"):
        read_coefficient(x, 3).need(4)


def test_full_cancellation_keeps_the_sum_precision():
    three = from_rational(3, 1, 3, 4)  # known modulo 3^5
    d = three + (-three)
    assert d.is_zero and d.abs_precision == 5 and d != zero(3)
    with pytest.raises(PrecisionError):
        read_coefficient(d, 3).need(6)
    # an O(3^5) only blurs what it is added to past 3^5
    s = d + from_rational(1, 1, 3, 10)
    assert s.abs_precision == 5 and s.to_fraction() == 1
    assert (d + from_rational(3**6, 1, 3, 4)).abs_precision == 5


def test_zero_times_a_value_is_known_modulo_the_product_level():
    z = parse_coefficient("0 0 *3^0", 3)  # O(3^2)
    assert (z * from_rational(9, 1, 3, 4)).abs_precision == 4
    assert (from_rational(1, 9, 3, 1) * z).abs_precision == 0
    assert (z * z).abs_precision == 4
    assert (zero(3) * z) == zero(3) == (z * zero(3))  # the exact zero stays exact
    assert (zero(3) + z) == z and (z + zero(3)) == z


def test_zero_fractional_part_needs_its_negative_digits():
    assert PadicNumber(3, 0, ()).fractional_part() == PFraction.zero(3)
    assert zero(3).fractional_part() == PFraction.zero(3)
    with pytest.raises(PrecisionError):
        PadicNumber(3, -1, ()).fractional_part()


def _digit_strings(p):
    return st.builds(
        lambda ds, e: parse_coefficient(" ".join(map(str, ds)) + f" *{p}^{e}", p),
        st.lists(st.integers(0, p - 1), min_size=1, max_size=6), st.integers(-3, 3),
    ) | st.just(zero(p))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=primes)
def test_sum_is_known_no_better_than_its_terms(data, p):
    x, y = data.draw(_digit_strings(p)), data.draw(_digit_strings(p))
    s = x + y
    n = min(x.abs_precision, y.abs_precision)
    assert s.abs_precision <= n
    if n != INF:  # and the sum is right modulo p^n
        diff = s.to_fraction() - x.to_fraction() - y.to_fraction()
        assert diff == 0 or frac_valuation(diff, p) >= n
