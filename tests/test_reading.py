"""padic.read_coefficient, the one coefficient reader, against the five
helpers it replaced (tests/oracles.py), and the consumers that read each
coefficient once per call."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padic_mub import Grid, eigen_check, gauss, mub_padic, parse_coefficient, sweeps
from padic_mub.errors import CapError, PrecisionError
from padic_mub.mub_padic import ball_fourier_closed, canonical_family_params, gram_report
from padic_mub.padic import INF, MAX_VALUATION_BITS, PadicNumber, read_coefficient

import oracles

PRIMES = (3, 5, 7, 11)


@dataclass(frozen=True)
class Raised:
    type: type
    message: str


def outcome(fn):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn()
    except Exception as exc:  # the error is the outcome compared
        return Raised(type(exc), str(exc))


@st.composite
def coefficients(draw, p):
    """A Fraction or int, a nonzero digit string (sometimes of |v| past the
    valuation limit), the exact zero, a zero O(p^N), or a digit string of
    another prime."""
    limit = MAX_VALUATION_BITS // p.bit_length()
    v = draw(st.one_of(st.integers(-8, 8), st.sampled_from([-limit - 1, -limit, limit, limit + 1])))
    n = draw(st.integers(1, 6))
    digits = [draw(st.integers(1, p - 1)), *draw(st.lists(st.integers(0, p - 1), min_size=n - 1,
                                                           max_size=n - 1))]
    other = 2 if p != 2 else 3
    return draw(st.one_of(
        st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
        st.integers(-10**6, 10**6),
        st.just(PadicNumber(p, v, tuple(digits))),
        st.just(PadicNumber(p, INF, ())),
        st.just(PadicNumber(p, v, ())),
        st.just(PadicNumber(other, v, (1,))),
        st.just(PadicNumber(other, v, ())),
    ))


@settings(max_examples=600, deadline=None)
@given(data=st.data(), p=st.sampled_from(PRIMES))
@example(data=None, p=3)
def test_the_reader_agrees_with_the_five_old_helpers(data, p):
    if data is None:  # the all-zero digit string of the CLI, just under its window
        x, window = parse_coefficient("0 0 *3^1", 3), 4
    else:
        x = data.draw(coefficients(p))
        precision = x.abs_precision if isinstance(x, PadicNumber) else 0
        window = data.draw(st.one_of(st.none(), st.integers(-12, 12),
                                     st.sampled_from([precision - 1, precision, precision + 1])))
    need = -INF if window is None else window

    # coefficient_valuation, and with it frac_valuation and _check_window
    got = outcome(lambda: read_coefficient(x, p).need(need).valuation)
    assert got == outcome(lambda: oracles.coefficient_valuation(x, p, window)), (x, p, window)
    if not isinstance(x, PadicNumber):
        assert got == oracles.frac_valuation(Fraction(x), p)
    # as_fraction: the window, then the valuation limit, then the value
    got = outcome(lambda: read_coefficient(x, p).need(need).value)
    assert got == outcome(lambda: oracles.as_fraction(x, p, window)), (x, p, window)

    # gauss._known_valuation, but the prime is read first, and no Fraction,
    # so no valuation limit, is needed for a valuation
    want = outcome(lambda: oracles.known_valuation(x, p))
    got = outcome(lambda: read_coefficient(x, p).known_valuation)
    if isinstance(x, PadicNumber) and x.prime != p:
        assert got == Raised(ValueError, f"coefficient lives in Q_{x.prime}, expected Q_{p}")
    elif isinstance(want, Raised) and "exceeds the limit" in want.message:
        assert got == x.valuation
    else:
        assert got == want, (x, p)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.sampled_from(PRIMES), r=st.integers(-4, 6))
def test_integral_reads_match_the_old_shifted_valuations(data, p, r):
    """gauss._shifted_valuations of (a, b) as the integral reads them: both
    windows, then both values; the old helper read a in full, then b."""
    a, b = data.draw(coefficients(p)), data.draw(coefficients(p))

    def read():
        ra, rb = read_coefficient(a, p).need(2 * r), read_coefficient(b, p).need(r)
        return ra.value, rb.value, ra.valuation - 2 * r, rb.valuation - r

    want = outcome(lambda: oracles.shifted_valuations(p, r, a, b))
    got = outcome(read)
    a_fails = isinstance(outcome(lambda: oracles.as_fraction(a, p, 2 * r)), Raised)
    b_fails = isinstance(outcome(lambda: read_coefficient(b, p).need(r)), Raised)
    if a_fails and b_fails and "exceeds the limit" in want.message:
        assert got == outcome(lambda: read_coefficient(b, p).need(r))  # b's window first
    else:
        assert got == want, (p, r, a, b)


def count_reads(monkeypatch) -> list:
    """The coefficients read from now on, in order, by every module that
    reads them."""
    reads = []

    def counted(x, p):
        reads.append(x)
        return read_coefficient(x, p)

    for module in (gauss, mub_padic, sweeps):
        monkeypatch.setattr(module, "read_coefficient", counted)
    return reads


def test_cell_phase_indices_reads_each_coefficient_once(monkeypatch):
    reads = count_reads(monkeypatch)
    grid = Grid(3, 1, 3)
    for a, b in ((Fraction(1, 3), 2), (parse_coefficient("1 2 0 *3^-1", 3), Fraction(5, 3)),
                 (0, parse_coefficient("0 0 *3^1", 3))):
        reads.clear()
        mub_padic._cell_phase_indices(a, b, grid)
        assert reads == [a, b]
        reads.clear()
        mub_padic.vector_v(a, b, grid)
        assert reads == [a, b]


def test_gram_report_reads_each_distinct_label_once(monkeypatch):
    reads = count_reads(monkeypatch)
    bs = [parse_coefficient("2 1" + " 0" * 10 + " *3^-1", 3), Fraction(1, 9), 2]
    rep = gram_report(canonical_family_params(3, bs), r=1, p=3)
    assert rep.passed
    # in order of first use: a = 0, b's digit string, 1/9 and 2 (which a
    # shares), a = 1; the delta family's None is no coefficient
    assert reads == [0, bs[0], bs[1], 2, 1]


def _extended(text: str, extra: list[int]) -> str:
    """The digit string with more digits after the ones it carries."""
    digits, _, tail = text.partition("*")
    return " ".join([*digits.split(), *map(str, extra)]) + " *" + tail


@pytest.mark.parametrize("short, long", [
    # the phase is 8/3^2 for a = 1/3^2 and 5/3^2 for a = "1 1 *3^-2"
    (("1 *3^-2", "0", "1"), ("1 1 *3^-2", "0", "1")),
    # 8/3^2 for c = 1/3, 2/3^2 for c = "1 1 *3^-1"
    (("1", "0", "1 *3^-1"), ("1", "0", "1 1 *3^-1")),
    (("1", "1 *3^-1", "1 1 *3^-1"), ("1", "1 1 *3^-1", "1 1 *3^-1")),
    # on the edge: N_a = 0 >= -2v(c) and N_c = 2 = -v(a) - v(c)
    (("1 *3^-2", "0", "1 0 *3^0"), ("1 0 *3^-2", "0", "1 0 *3^0")),
    (("1 0 *3^-2", "0", "1 *3^0"), ("1 0 *3^-2", "0", "1 0 *3^0")),
])
def test_eigen_check_refuses_a_coefficient_short_of_its_phase(short, long):
    assert eigen_check(*(parse_coefficient(t, 3) for t in long), p=3).passed
    with pytest.raises(PrecisionError, match="known only modulo 3"):
        eigen_check(*(parse_coefficient(t, 3) for t in short), p=3)


@pytest.mark.parametrize("short, long", [
    (("0 *3^0", "0", "1 *3^-1"), ("0 0 *3^0", "0", "1 *3^-1")),
    (("1 *3^-2", "0", "0 *3^-1"), ("1 *3^-2", "0", "0 0 *3^-1")),
    (("1", "0 *3^-1", "1"), ("1", "0 0 0 *3^-1", "1")),
])
def test_eigen_check_refuses_a_zero_big_o_however_many_digits(short, long):
    # a zero O(3^N) admits values of every valuation >= N, so no digit count
    # fixes the grid: it is refused before the grid is sized
    for texts in (short, long):
        with pytest.raises(PrecisionError, match="its valuation is unknown"):
            eigen_check(*(parse_coefficient(t, 3) for t in texts), p=3)


def test_eigen_check_digits_golden_case_carries_what_it_needs():
    # N_a = 1 >= 0 and N_c = 1 = max(-v(b), -v(a) - v(c))
    a, c = parse_coefficient("1 2 *5^-1", 5), parse_coefficient("4 *5^0", 5)
    assert eigen_check(a, Fraction(3, 5), c, p=5).passed


def _digit_strings(p: int, vmin: int, vmax: int):
    """A digit string and the same string carrying one to three more digits."""
    digits = st.lists(st.integers(0, p - 1), min_size=1, max_size=3)
    return st.builds(
        lambda lead, body, v, extra: (f"{' '.join(map(str, [lead, *body]))} *{p}^{v}", extra),
        st.integers(1, p - 1), st.lists(st.integers(0, p - 1), max_size=2),
        st.integers(vmin, vmax), digits)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.sampled_from([3, 5]))
def test_eigen_check_reports_what_the_carried_digits_fix_or_refuses(data, p):
    """Two digit strings that agree on the digits the shorter one carries
    give the same phase and verdict, or the shorter one is refused."""
    texts = [data.draw(_digit_strings(p, -2, 1)) for _ in "abc"]
    short = [parse_coefficient(t, p) for t, _ in texts]
    long = [parse_coefficient(_extended(t, extra), p) for t, extra in texts]
    want = outcome(lambda: eigen_check(*short, p=p))
    for other in (long, [long[0], *short[1:]], [short[0], long[1], short[2]],
                  [*short[:2], long[2]]):
        got = outcome(lambda: eigen_check(*other, p=p))
        if isinstance(want, Raised):  # the cell cap comes first, from the valuations
            assert want.type is PrecisionError or got == want, (want, got)
            assert want.type in (PrecisionError, CapError), want
        else:
            assert not isinstance(got, Raised), got
            assert (got.expected_phase, got.passed) == (want.expected_phase, want.passed)


def test_ball_fourier_closed_reads_z_to_the_ball():
    dual = Grid(3, 3, 0)
    one, longer = parse_coefficient("1 *3^0", 3), parse_coefficient("1 2 *3^0", 3)
    with pytest.raises(PrecisionError, match="known only modulo 3\\^1, need 3\\^3"):
        ball_fourier_closed(one, 3, dual)
    with pytest.raises(PrecisionError):
        ball_fourier_closed(longer, 3, dual)
    assert np.array_equal(ball_fourier_closed(one, 1, dual), ball_fourier_closed(longer, 1, dual))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.sampled_from([3, 5]), r=st.integers(0, 2), k=st.integers(0, 2))
def test_ball_fourier_closed_is_what_the_carried_digits_fix_or_refused(data, p, r, k):
    text, extra = data.draw(_digit_strings(p, -2, 2))
    dual = Grid(p, k, r) if r + k >= 1 else Grid(p, 1, r)
    scale = data.draw(st.integers(-dual.k, dual.r))
    short, long = parse_coefficient(text, p), parse_coefficient(_extended(text, extra), p)
    want = outcome(lambda: ball_fourier_closed(short, scale, dual))
    if isinstance(want, Raised):
        assert want.type is PrecisionError, want
    else:
        assert want.tobytes() == ball_fourier_closed(long, scale, dual).tobytes()
