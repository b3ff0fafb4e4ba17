"""Exact additive-character evaluation and phase algebra."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_mub import UnitPhase, char_e, char_of_rational, from_rational, phase_mul, phase_to_complex
from padic_mub.padic import PFraction, frac_part

from oracles import pfraction_of


def test_trivial_on_padic_integers():
    for num in (1, 2, 7, -5, 45, -1):
        z = from_rational(num, 1, 3, 6)
        assert char_e(z).is_trivial
    # p-adic units with non-p denominators are integers too
    assert char_e(from_rational(1, 2, 3, 6)).is_trivial


def test_char_one_third():
    q = char_e(from_rational(1, 3, 3, 6))
    assert q.phase.value == Fraction(1, 3)


def test_char_minus_one_ninth():
    q = char_e(from_rational(-1, 9, 3, 6))
    assert q.phase.value == Fraction(8, 9)
    # oracle: e(-1/9) * e(1/9) must be the trivial character
    other = char_e(from_rational(1, 9, 3, 6))
    assert phase_mul(q, other).is_trivial


def test_phase_mul_examples():
    p13 = char_of_rational(Fraction(1, 3), 3)
    p23 = char_of_rational(Fraction(2, 3), 3)
    p19 = char_of_rational(Fraction(1, 9), 3)
    p89 = char_of_rational(Fraction(8, 9), 3)
    assert phase_mul(p13, p23).is_trivial
    assert phase_mul(p19, p13).phase.value == Fraction(4, 9)
    assert phase_mul(p89, p89).phase.value == Fraction(7, 9)


def test_phase_mul_rejects_mixed_primes():
    with pytest.raises(ValueError):
        phase_mul(char_of_rational(Fraction(1, 3), 3), char_of_rational(Fraction(1, 5), 5))


def test_phase_to_complex_values():
    assert phase_to_complex(UnitPhase.trivial(3)) == 1 + 0j
    assert abs(phase_to_complex(char_of_rational(Fraction(1, 2), 2)) - (-1)) < 1e-15
    w = phase_to_complex(char_of_rational(Fraction(1, 3), 3))
    assert abs(w - complex(-0.5, 0.8660254037844387)) < 1e-15


def test_phase_to_complex_unit_modulus():
    for m in range(27):
        q = char_of_rational(Fraction(m, 27), 3)
        assert abs(abs(phase_to_complex(q)) - 1.0) < 1e-15
        assert abs(phase_to_complex(q) - cmath.exp(2j * cmath.pi * m / 27)) < 1e-14


def test_homomorphism_exact_exhaustive():
    values = [Fraction(n, d) for n in range(-8, 9) for d in (1, 3, 9, 27)]
    for qx in values[::3]:
        for qy in values[::4]:
            x = from_rational(qx.numerator, qx.denominator, 3, 12)
            y = from_rational(qy.numerator, qy.denominator, 3, 12)
            assert char_e(x + y) == phase_mul(char_e(x), char_e(y))


@settings(max_examples=80, deadline=None)
@given(
    nx=st.integers(-200, 200),
    ny=st.integers(-200, 200),
    dx=st.sampled_from([1, 3, 9, 27, 81]),
    dy=st.sampled_from([1, 3, 9, 27, 81]),
)
def test_homomorphism_exact_random(nx, ny, dx, dy):
    x = from_rational(nx, dx, 3, 14)
    y = from_rational(ny, dy, 3, 14)
    assert char_e(x + y) == phase_mul(char_e(x), char_e(y))


def test_only_fractional_part_of_alpha_matters_on_integers():
    # x in Z_p: e(alpha*x) = e((alpha+1)*x)
    for alpha_num, alpha_den in ((1, 3), (2, 9), (5, 27), (1, 1)):
        alpha = Fraction(alpha_num, alpha_den)
        for x in range(-6, 7):
            lhs = char_of_rational(alpha * x, 3)
            rhs = char_of_rational((alpha + 1) * x, 3)
            assert lhs == rhs


def test_conjugate_inverts():
    q = char_of_rational(Fraction(5, 27), 3)
    assert phase_mul(q, q.conjugate()).is_trivial


def test_char_of_rational_agrees_with_digit_route():
    for num in range(-12, 13):
        for den in (1, 3, 9, 2):
            via_rational = char_of_rational(Fraction(num, den), 3)
            via_digits = char_e(from_rational(num, den, 3, 12))
            assert via_rational == via_digits


def test_phase_prints_as_exact_fraction():
    assert str(char_of_rational(Fraction(8, 9), 3)) == "8/3^2"
    assert str(char_of_rational(Fraction(1, 3), 3)) == "1/3"
    assert str(UnitPhase.trivial(3)) == "0"
    assert str(frac_part(Fraction(-1, 9), 3)) == "8/3^2"


def phase_mul_by_fraction(q1: UnitPhase, q2: UnitPhase) -> UnitPhase:
    """phase_mul as it was: a Fraction sum, reduced by the former
    PFraction.from_fraction (`oracles.pfraction_of`)."""
    p = q1.phase.prime
    if q2.phase.prime != p:
        raise ValueError(f"mixed primes {p} and {q2.phase.prime}")
    return UnitPhase(pfraction_of(q1.phase.value + q2.phase.value, p))


@st.composite
def phases(draw, p):
    """A reduced m/p^e, e from 0 to 5; the numerators that share e with
    another draw often sum to a multiple of p."""
    e = draw(st.integers(0, 5))
    if e == 0:
        return UnitPhase.trivial(p)
    m = draw(st.integers(1, p**e - 1).filter(lambda m: m % p))
    return UnitPhase(PFraction(p, m, e))


@settings(max_examples=500, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]))
def test_phase_mul_matches_the_fraction_sum(data, p):
    q1, q2 = data.draw(phases(p)), data.draw(phases(p))
    got, want = phase_mul(q1, q2), phase_mul_by_fraction(q1, q2)
    assert got == want and str(got) == str(want)
    # a sum at one exponent that p divides, and one that cancels in full
    x = q1.phase
    near = UnitPhase(PFraction(p, (p - x.num) % p**x.exp, x.exp)) if x.exp > 1 else q1
    for other in (near, q1.conjugate()):
        assert phase_mul(q1, other) == phase_mul_by_fraction(q1, other)
    p_other = {2: 3, 3: 5, 5: 7, 7: 2}[p]
    with pytest.raises(ValueError, match=f"mixed primes {p} and {p_other}"):
        phase_mul(q1, char_of_rational(Fraction(1, p_other), p_other))


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11]), m=st.integers(-10**4, 10**4), n=st.integers(0, 6))
def test_char_of_rational_is_the_old_reduction_on_p_power_denominators(p, m, n):
    """char_of_rational, the one route from a rational to a phase, is the
    former UnitPhase.of (`oracles.pfraction_of`) wherever that was defined,
    and conjugate takes the same route."""
    q = Fraction(m, p**n)
    phase = char_of_rational(q, p)
    assert phase == UnitPhase(pfraction_of(q, p))
    assert phase.conjugate() == UnitPhase(pfraction_of(-q, p))
