"""Gauss sums and integrals: closed forms against both brute-force oracles."""

import cmath
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from padic_mub import (
    CapError,
    OddPrimeError,
    PrecisionError,
    build_field,
    simplified_norm,
    field_sum_norm_closed,
    field_sum_numeric,
    from_rational,
    integral_norm_closed,
    integral_numeric,
    integral_report,
    ring_report,
    ring_sum_norm_closed,
    ring_sum_normsq_exact,
    ring_sum_numeric,
    threshold_t,
)
import padic_mub.gauss as gauss
import padic_mub.sweeps as sweeps
from padic_mub.gauss import (
    DEFAULT_TERM_CAP,
    INF,
    NEG_INF,
    ExactNorm,
    _float_power,
    _integral_reduction,
    _phase_sum,
    _table_norm,
    ring_sum_norm_closed_table,
    ring_sum_normsq_table,
    ring_sum_numeric_table,
    roots_of_unity,
)
from padic_mub.padic import PadicNumber, _check_prime, int_valuation, parse_coefficient
from padic_mub.padic import zero as padic_zero
from padic_mub.sweeps import (
    gauss_grid_combos,
    sweep_gauss_grid,
    sweep_thresholds,
    threshold_grid_coefficients,
)

from oracles import as_fraction, frac_valuation, rational_mod
from oracles import shifted_valuations as _shifted_valuations
from test_reading import count_reads

EPS = np.finfo(float).eps


def _hand_ring_sum(p, k, l, a, b):
    """Oracle: the definition, summed term by term with library-free phases."""
    w = cmath.exp(2j * cmath.pi / p**l)
    return sum(w ** ((a * x * x + b * x) % p**l) for x in range(p**k))


def _fsum_ring_sum(p, k, l, a, b):
    """Reference: fsum of the gathered root of every one of the p^k terms."""
    mod = p**l
    x = np.arange(p**k, dtype=np.int64) % mod
    expo = ((a % mod) * (x * x % mod) + (b % mod) * x) % mod
    terms = roots_of_unity(mod)[expo]
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _field_counts(alpha, beta):
    """How many x in F_q have each trace class of alpha*x^2 + beta*x."""
    counts = [0] * alpha.ctx.p
    for x in alpha.ctx.elements():
        counts[(alpha * x * x + beta * x).trace()] += 1
    return counts


def _fsum_field_sum(alpha, beta):
    """Reference: fsum over all p trace classes, zero counts included."""
    counts = _field_counts(alpha, beta)
    w = roots_of_unity(alpha.ctx.p)
    return complex(
        math.fsum(c * w[m].real for m, c in enumerate(counts)),
        math.fsum(c * w[m].imag for m, c in enumerate(counts)),
    )


def _coset_reduced_fsum(counts, p):
    """Reference: subtract each coset's minimum in plain Python, then fsum."""
    mod = len(counts)
    step = mod // p
    reduced = list(counts)
    for r in range(step):
        low = min(counts[r + j * step] for j in range(p))
        for j in range(p):
            reduced[r + j * step] -= low
    w = roots_of_unity(mod)
    bins = [(m, c) for m, c in enumerate(reduced) if c]
    return complex(
        math.fsum(c * w[m].real for m, c in bins),
        math.fsum(c * w[m].imag for m, c in bins),
    )


def test_ring_sum_p3_quadratic():
    s = ring_sum_numeric(3, 1, 1, 1, 0)
    # 1 + 2w with w = e^(2pi*i/3), i.e. i*sqrt(3)
    assert abs(s - complex(0, math.sqrt(3))) < 1e-12
    assert abs(s - _hand_ring_sum(3, 1, 1, 1, 0)) < 1e-12


def test_ring_sum_pure_character_vanishes():
    assert abs(ring_sum_numeric(3, 1, 1, 0, 1)) < 1e-12


def test_ring_sum_all_ones():
    assert abs(ring_sum_numeric(3, 1, 1, 0, 0) - 3) < 1e-12


def test_ring_sum_matches_hand_oracle_grid():
    for p, k, l in ((3, 1, 1), (3, 2, 1), (3, 2, 2), (5, 2, 1), (5, 2, 2)):
        for a in range(p**l):
            for b in range(p**l):
                got = ring_sum_numeric(p, k, l, a, b)
                want = _hand_ring_sum(p, k, l, a, b)
                assert abs(got - want) < 1e-9


def test_ring_normsq_exact_examples():
    assert ring_sum_normsq_exact(3, 1, 1, 1, 0) == 3
    assert ring_sum_normsq_exact(3, 1, 1, 0, 1) == 0
    assert ring_sum_normsq_exact(3, 2, 1, 0, 0) == 81


def test_ring_closed_examples():
    norm, case = ring_sum_norm_closed(3, 1, 1, 1, 0)
    assert (str(norm), case) == ("3^{1/2}", "case1")
    norm, case = ring_sum_norm_closed(3, 2, 2, 3, 1)
    assert norm.is_zero and case == "case2"
    norm, case = ring_sum_norm_closed(5, 2, 2, 5, 10)
    assert (str(norm), case) == ("5^{3/2}", "case1")
    assert norm.normsq == ring_sum_normsq_exact(5, 2, 2, 5, 10) == 125
    norm, case = ring_sum_norm_closed(3, 2, 1, 0, 0)
    assert (norm.normsq, case) == (81, "case3")


def test_ring_closed_rejects_p2():
    with pytest.raises(OddPrimeError):
        ring_sum_norm_closed(2, 1, 1, 1, 0)


def test_counting_identities_refuse_p2():
    # at p = 2 the count of a*y + b = 0 is not |S|^2: here it gives 8, not 16
    assert abs(ring_sum_numeric(2, 2, 1, 1, 1)) == 4  # x^2 + x is even: four terms of 1
    with pytest.raises(OddPrimeError):
        ring_sum_normsq_exact(2, 2, 1, 1, 1)
    with pytest.raises(OddPrimeError):
        ring_sum_normsq_table(2, 2, 1)  # [[16, 0], [8, 8]] where |S|^2 is [[16, 0], [0, 16]]


def test_ring_numeric_accepts_p2():
    # brute force stays available for exploration at p = 2
    s = ring_sum_numeric(2, 1, 1, 1, 1)
    assert abs(s - _hand_ring_sum(2, 1, 1, 1, 1)) < 1e-12


_RING_FUNCTIONS = {
    "ring_sum_numeric": lambda p, k, l: ring_sum_numeric(p, k, l, 1, 0),
    "ring_sum_normsq_exact": lambda p, k, l: ring_sum_normsq_exact(p, k, l, 1, 0),
    "ring_sum_norm_closed": lambda p, k, l: ring_sum_norm_closed(p, k, l, 1, 0),
    "ring_sum_norm_closed_table": ring_sum_norm_closed_table,
    "ring_sum_numeric_table": ring_sum_numeric_table,
    "ring_sum_normsq_table": ring_sum_normsq_table,
}


@pytest.mark.parametrize("name", sorted(_RING_FUNCTIONS))
@pytest.mark.parametrize("p, k, l, message", [
    (3, 1, 2, "need k >= l >= 1"),  # normsq_table once gave p^(-2)-scaled floats
    (3, 1, 0, "need k >= l >= 1"),  # numeric_table once gave a 1x1 table
    (3, 0, 0, "need k >= l >= 1"),
    (9, 1, 1, "9 is not prime"),
    (1, 1, 1, "1 is not prime"),
])
def test_ring_functions_check_their_parameters(name, p, k, l, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _RING_FUNCTIONS[name](p, k, l)


@pytest.mark.parametrize("function, args", [
    pytest.param(function, args, id=f"{function.__name__}{args}") for function, args in (
        (integral_norm_closed, (9, 1, 1, 0)),
        (simplified_norm, (9, 1, 1, 0)),
        (threshold_t, (9, 1, 0)),
        (integral_report, (9, 1, 1, 0)),
        (gauss.check_ring_params, (15, 2, 1)),
        (_check_prime, (0,)),
        (_check_prime, (-3,)),
    )])
def test_closed_forms_refuse_a_composite_p(function, args):
    with pytest.raises(ValueError, match=f"^{args[0]} is not prime$"):
        function(*args)


def test_ring_term_cap():
    with pytest.raises(CapError):
        ring_sum_numeric(3, 13, 1, 1, 0, term_cap=10**5)


@pytest.mark.parametrize("p, k, l", [(2, 11, 3), (3, 7, 3), (5, 5, 2), (7, 4, 2), (3, 6, 1)])
def test_ring_sum_histogram_matches_full_fsum(p, k, l):
    # the histogram kernel sums at most p^l weighted roots instead of p^k
    # roots; both are within (1 + eps) * eps * p^k per part of the
    # rounded-root sum
    for a in (0, 1, 2, p, p + 1, p * p):  # zero, units, non-units
        for b in (0, 1, p, 3 * p + 2):
            got = ring_sum_numeric(p, k, l, a, b)
            want = _fsum_ring_sum(p, k, l, a, b)
            assert abs(got - want) <= 4 * EPS * p**k, (p, k, l, a, b)


def test_int64_guard_raises_cap_error():
    # 3^21 > 3037000499 = isqrt(2^63 - 1): residue products would overflow
    with pytest.raises(CapError, match="overflow int64"):
        ring_sum_numeric(3, 21, 21, 1, 1, term_cap=10**11)
    with pytest.raises(CapError, match="overflow int64"):
        ring_sum_normsq_exact(3, 21, 21, 1, 1)
    with pytest.raises(CapError, match="overflow int64"):
        ring_sum_numeric_table(3, 21, 21, term_cap=10**11)
    with pytest.raises(CapError, match="overflow int64"):
        ring_sum_normsq_table(3, 21, 21)
    # 3^40 terms overflow the int64 histogram even over a small modulus
    with pytest.raises(CapError, match="overflow the int64 counts"):
        ring_sum_numeric(3, 40, 1, 1, 0, term_cap=10**30)


def test_int64_guard_names_the_modulus_as_a_power_before_forming_it():
    # 3^1000000 has 477122 digits: the guard compares it with the bound
    # without forming it, and names it as p^e, as every cap does
    want = "phase modulus 3^1000000 exceeds 3037000499: residue products overflow int64"
    for call in (lambda: ring_sum_normsq_exact(3, 10**6, 10**6, 1, 0),
                 lambda: ring_sum_norm_closed_table(3, 10**6, 10**6),
                 lambda: ring_sum_normsq_table(3, 10**6, 10**6)):
        with pytest.raises(CapError) as exc:
            call()
        assert str(exc.value) == want


def test_ring_closed_form_forms_no_power_of_p():
    # one power 3^(10^7) has 4.8 million digits; the closed form reads the
    # valuations alone
    start = time.perf_counter()
    norm, case = ring_sum_norm_closed(3, 10**7, 10**7, 1, 0)
    seconds = time.perf_counter() - start
    assert (str(norm), case) == ("3^{5000000}", "case1")
    assert seconds < 1, seconds


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.sampled_from([3, 5, 7]), l=st.integers(1, 4), extra=st.integers(0, 2))
def test_ring_closed_form_matches_the_reduced_valuations(data, p, l, extra):
    # the old form reduced a and b mod p^l before it took their valuations:
    # for x != 0 with v(x) < l that keeps v(x), and otherwise both give l
    coefficient = st.one_of(
        st.integers(-2 * p ** (l + 3), 2 * p ** (l + 3)),
        st.builds(lambda m, j: m * p**j, st.integers(-5, 5), st.sampled_from([l, l + 3])),
    )
    a, b = data.draw(coefficient), data.draw(coefficient)
    k = l + extra
    dx, dy = (min(int_valuation(x % p**l, p), l) - l for x in (a, b))
    assert ring_sum_norm_closed(p, k, l, a, b) == _table_norm(p, dx, dy, 2 * k), (p, k, l, a, b)


def _old_ring_exponents(p, l, a, b):
    """Oracle: the exponent of every x of one period, by three full-size
    passes of % (the kernel before the split)."""
    mod = p**l
    x = np.arange(mod, dtype=np.int64)
    expo = x * x
    expo %= mod
    expo *= a % mod
    x *= b % mod
    x %= mod
    expo += x
    expo %= mod
    return expo


def _old_ring_sum_numeric(p, k, l, a, b):
    return _phase_sum(_old_ring_exponents(p, l, a, b), p ** (k - l), p**l, p)


def _old_normsq_exact(p, k, l, a, b):
    mod = p**l
    y = np.arange(mod, dtype=np.int64)
    count = int((((a % mod) * y + b % mod) % mod == 0).sum())
    return p ** (2 * (k - l)) * mod * count


def _bits(z):
    return z.real.hex(), z.imag.hex()


def _coset_reduced(counts, p):
    """counts less its minimum on each coset {r + j*len/p}: the canonical
    representative that `_phase_sum` reads, as a (p, len/p) array."""
    cosets = counts.reshape(p, -1)
    return cosets - cosets.min(axis=0)


def _assert_ring_kernels_match_the_old_ones(p, k, l, a, b):
    # the kernel keeps the exponents of the stationary columns alone, each
    # standing for n = p^floor(l/2) terms, so their histogram equals the
    # defining one only once both are reduced on the cosets of p^(l-1)
    got = gauss._ring_exponents(p, l, a, b)
    assert got.dtype == np.int64
    mod = p**l
    want = _coset_reduced(np.bincount(_old_ring_exponents(p, l, a, b), minlength=mod), p)
    assert np.array_equal(_coset_reduced(np.bincount(got, minlength=mod) * p ** (l // 2), p),
                          want), (p, l, a, b)
    value = ring_sum_numeric(p, k, l, a, b, term_cap=p**k)
    assert _bits(value) == _bits(_old_ring_sum_numeric(p, k, l, a, b)), (p, k, l, a, b)
    if p != 2:
        normsq = ring_sum_normsq_exact(p, k, l, a, b)
        assert type(normsq) is int  # a numpy int would change the JSON reports
        assert normsq == _old_normsq_exact(p, k, l, a, b), (p, k, l, a, b)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([2, 3, 5, 7, 11]),
    l=st.integers(1, 6),
    extra=st.integers(0, 1),
)
def test_digit_split_histogram_matches_the_old_histogram(data, p, l, extra):
    # Small multiples of every p^j, j <= l, let a be 0 mod n = p^floor(l/2)
    # and b 0 mod p^l, so that all, some or none of the columns are
    # stationary (test_digit_split_reaches_every_level pins both kinds);
    # p = 2 is summed though 2 is no unit
    mod = p**l
    coefficient = st.one_of(
        st.just(0),
        st.integers(-3 * mod, 3 * mod),
        st.builds(lambda j, u: p**j * (u * p + 1), st.integers(1, l + 1), st.integers(-mod, mod)),
        st.builds(lambda j, m: m * p**j, st.integers(0, l), st.integers(-3, 3)),
    )
    a, b = data.draw(coefficient), data.draw(coefficient)
    _assert_ring_kernels_match_the_old_ones(p, l + extra, l, a, b)


def _stationary(p, l, a, b):
    """Whether each column u < s = p^ceil(l/2) is stationary: n | c(u),
    n = p^floor(l/2), c(u) = 2a*u + b."""
    n = p ** (l // 2)
    return [(2 * a * u + b) % n == 0 for u in range(p ** ((l + 1) // 2))]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_digit_split_reaches_every_level(p):
    # at every l <= 6 these pairs give stationary columns and, past l = 1
    # (n = 1, where every column is stationary), columns that are not:
    # a = 1 with b = 0 or 1 (at p = 2, b = 1 alone gives non-stationary
    # ones), and a = 0 mod n, b = 0 mod p^l (stationary only)
    for l in range(1, 7):
        n = p ** (l // 2)
        pairs = [(1, 0), (1, 1), (n, 0), (5 * n, p**l)]
        kinds = {kept for a, b in pairs for kept in _stationary(p, l, a, b)}
        assert kinds == ({True} if l == 1 else {True, False}), (p, l, kinds)
        for a, b in pairs:
            _assert_ring_kernels_match_the_old_ones(p, l, l, a, b)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_a_column_that_is_not_stationary_is_constant_on_each_coset(p):
    # the lemma behind the ring sum: column u of x = u + s*v, v < n, with
    # n not dividing c(u) bins a*x^2 + b*x mod p^l, counted term by term,
    # into a count constant on each coset of p^(l-1)Z/p^l Z
    rng = np.random.default_rng(p)
    for l in range(2, 7):
        mod, s = p**l, p ** ((l + 1) // 2)
        v = np.arange(mod // s, dtype=np.int64)
        pairs = [(1, 0), (1, 1), (p, 1), *rng.integers(0, mod, (3, 2)).tolist()]
        moved = 0
        for a, b in pairs:
            for u, kept in enumerate(_stationary(p, l, a, b)):
                if not kept:
                    x = u + s * v
                    cosets = np.bincount((a * x * x + b * x) % mod, minlength=mod).reshape(p, -1)
                    assert (cosets == cosets[0]).all(), (p, l, a, b, u)
                    moved += 1
        assert moved, (p, l)


@pytest.mark.parametrize("p, l", [(3, 12), (3, 11), (5, 8), (7, 7), (29, 4), (31, 4), (997, 2),
                                  (2039, 1), (2053, 1), (4099, 1), (43, 2), (47, 2)])
def test_ring_kernels_match_the_old_ones_at_the_benchmark_moduli(p, l):
    # the largest ring moduli of the benchmark; primes whose l = 1 periods
    # are p stationary columns of one term each, and the short squares 43^2
    # and 47^2
    mod = p**l
    pairs = [(1, 0), (p, 1), (mod - 1, p ** (l // 2) + 2), (123456789 % mod, 0),
             (2 * p ** (l - 1), 1)]  # the last a is 0 mod p^(l-1)
    for a, b in pairs:
        _assert_ring_kernels_match_the_old_ones(p, l, l, a, b)


def test_a_column_takes_each_multiple_of_its_gcd_equally_often():
    # the column fact behind both ring kernels: on Z/n, n = p^L, the multiset
    # {v*c mod n : v < n} is p^t copies of p^t*Z/n, t = min(v_p(c), L)
    for p in (2, 3, 5, 7):
        for big_l in range(5):
            n = p**big_l
            v = np.arange(n, dtype=np.int64)
            for c in range(n):
                step = p ** min(int_valuation(c, p), big_l)
                want = np.where(v % step == 0, step, 0)
                assert np.array_equal(np.bincount(v * c % n, minlength=n), want), (p, n, c)


@pytest.mark.parametrize("kernel", [ring_sum_numeric, ring_sum_normsq_exact])
def test_ring_kernels_hold_one_histogram_at_most(kernel):
    # a 997^2 period: the sum hands _phase_sum the exponent of its one
    # stationary column, and _phase_sum bins it over its one coset, so no
    # array of p^l entries (7.6 MiB in int64) is built: 12 KiB traced; the
    # count holds its 997 columns alone (8 KiB)
    bound = 64 * 2**10
    kernel(997, 2, 2, 5, 7)  # warm caches outside the trace
    tracemalloc.start()
    try:
        kernel(997, 2, 2, 5, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


def test_counting_oracle_reads_3_to_the_19_by_its_columns():
    # 3^19 residues, 1.2e9: the count reads 3^10 columns, 0.45 MiB, where a
    # pass over every y would take about 10^9 operations
    pairs = [(1, 0), (5, 7), (3**4, 1), (0, 0), (2 * 3**15, 3**17), (3**12, 5 * 3**12)]
    tracemalloc.start()
    try:
        for a, b in pairs:
            normsq = ring_sum_normsq_exact(3, 19, 19, a, b)
            assert normsq == ring_sum_norm_closed(3, 19, 19, a, b)[0].normsq, (a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak


def test_scale_invariance_exact_at_phase_level():
    # the exponent histogram at (k, l) is exactly p^(k-l) copies of (l, l)
    for p, k, l in ((3, 3, 1), (3, 3, 2), (5, 2, 1)):
        mod = p**l
        for a, b in ((1, 0), (2, 3), (0, 1), (p, 1), (p, p)):
            big = np.bincount(
                [(a * x * x + b * x) % mod for x in range(p**k)], minlength=mod
            )
            small = np.bincount(
                [(a * x * x + b * x) % mod for x in range(mod)], minlength=mod
            )
            assert (big == p ** (k - l) * small).all()


def test_bulk_tables_match_scalar_paths():
    for p, k, l in ((3, 2, 1), (3, 2, 2), (5, 2, 2), (7, 2, 1)):
        table = ring_sum_numeric_table(p, k, l)
        sqtable = ring_sum_normsq_table(p, k, l)
        mod = p**l
        for a in range(0, mod, max(1, mod // 6)):
            for b in range(0, mod, max(1, mod // 6)):
                assert abs(table[a, b] - ring_sum_numeric(p, k, l, a, b)) < 1e-10
                assert sqtable[a, b] == ring_sum_normsq_exact(p, k, l, a, b)



def _gather_table(p, k, l):
    """Oracle: the former bulk path, a per-a gather of the p^l roots of each
    row's exponents a*x^2 + b*x, summed pairwise by numpy."""
    mod = p**l
    x = np.arange(mod, dtype=np.int64)
    xsq = x * x % mod
    w = np.exp(2j * np.pi * x / mod)
    out = np.empty((mod, mod), dtype=complex)
    for a in range(mod):
        expo = ((a * xsq % mod)[None, :] + np.outer(x, x)) % mod
        out[a] = w[expo].sum(axis=1)
    return p ** (k - l) * out


def _loop_normsq_table(p, k, l):
    """Oracle: the former per-a bincount loop of the counting table."""
    mod = p**l
    y = np.arange(mod, dtype=np.int64)
    out = np.zeros((mod, mod), dtype=np.int64)
    for a in range(mod):
        out[a] = np.bincount((-a * y) % mod, minlength=mod)
    return p ** (2 * (k - l)) * mod * out


def test_fft_table_matches_the_gather_table():
    # an FFT of each chirp row, within its rounding bound of the gathered
    # sums; 2.3 * eps * p^k was measured over the grid
    for p, k, l in gauss_grid_combos():
        table = ring_sum_numeric_table(p, k, l)
        want = _gather_table(p, k, l)
        assert table.shape == want.shape == (p**l, p**l)
        assert np.abs(table - want).max() <= 8 * EPS * p**k, (p, k, l)


def test_normsq_table_matches_the_loop():
    for p, k, l in gauss_grid_combos():
        got, want = ring_sum_normsq_table(p, k, l), _loop_normsq_table(p, k, l)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), (p, k, l)


def test_numeric_table_checks_the_cap_before_allocating(monkeypatch):
    # the cap fires before the int64 guard, which fires before any array
    with pytest.raises(CapError, match="exceed the cap"):
        ring_sum_numeric_table(3, 21, 21, term_cap=3**21 - 1)

    def no_residues(p, l):
        raise AssertionError("residues built before the cap check")

    monkeypatch.setattr(gauss, "_residues", no_residues)
    for p, k, l in gauss_grid_combos():
        with pytest.raises(CapError, match="exceed the cap"):
            ring_sum_numeric_table(p, k, l, term_cap=p**k - 1)

def test_field_sum_cases_f9():
    f = build_field(3, 2)
    zero, one = f.zero, f.one
    assert abs(field_sum_numeric(zero, zero) - 9) < 1e-12
    for b in f.elements():
        if b.is_zero:
            continue
        assert abs(field_sum_numeric(zero, b)) < 1e-12
    for a in f.elements():
        if a.is_zero:
            continue
        for b in (zero, one):
            assert abs(abs(field_sum_numeric(a, b)) - 3) < 1e-12
    norm, case = field_sum_norm_closed(one, zero)
    assert norm.value == 3 and case == "case1"


@pytest.mark.parametrize("p, r", [(3, 2), (5, 2)])
def test_field_sum_matches_generator_fsum(p, r):
    # the coset reduction changes the rounding, not the exact sum: within
    # 4 eps q of the fsum over all p bins, and bit for bit the plain-Python
    # reduction followed by fsum
    ctx = build_field(p, r)
    elems = list(ctx.elements())
    q = len(elems)
    for alpha in elems:
        for beta in elems[:: len(elems) // 5]:  # every beta of F_9, 5 of F_25
            got = field_sum_numeric(alpha, beta)
            assert abs(got - _fsum_field_sum(alpha, beta)) <= 4 * EPS * q
            assert got == _coset_reduced_fsum(_field_counts(alpha, beta), p)
    # a nontrivial character sums to an exact zero
    for beta in elems:
        if not beta.is_zero:
            assert field_sum_numeric(ctx.zero, beta) == 0j


def _exponents(data, p, l):
    """Drawn exponents mod p^l, repeats allowed, and a weight that takes
    every count times the weight up to 10^9."""
    mod = p**l
    expo = data.draw(arrays(np.int64, st.integers(0, 3 * mod), elements=st.integers(0, mod - 1)))
    top = max(np.bincount(expo).max(initial=0), 1)
    return expo, data.draw(st.integers(1, 10**9 // top))


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([2, 3, 5, 7]),
    l=st.integers(1, 4),
)
def test_phase_sum_ignores_coset_constant_counts(data, p, l):
    # Phi_{p^l}(x) = Phi_p(x^(p^(l-1))): the p roots of each coset of
    # p^(l-1)Z/p^l Z sum to 0, and the kernel sees only the reduced counts;
    # adding all p members of any coset, as often as drawn, changes no bit
    mod = p**l
    expo, weight = _exponents(data, p, l)
    per_coset = data.draw(st.lists(st.integers(0, mod // p - 1), max_size=6))
    whole = np.array([r + j * (mod // p) for r in per_coset for j in range(p)], dtype=np.int64)
    value = _phase_sum(expo, weight, mod, p)
    assert _phase_sum(np.concatenate((expo, whole)), weight, mod, p) == value
    counts = np.bincount(expo, minlength=mod) * weight
    assert value == _coset_reduced_fsum(counts.tolist(), p)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([2, 3, 5, 7]),
    l=st.integers(1, 4),
)
def test_phase_sum_reads_the_exponents_as_a_multiset(data, p, l):
    # only how often each exponent occurs enters: shuffling the exponents,
    # or splitting them and concatenating the parts in another order,
    # changes no bit, and twice the exponents are twice the weight
    mod = p**l
    expo, weight = _exponents(data, p, l)
    value = _phase_sum(expo, weight, mod, p)
    shuffled = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(expo)
    assert _bits(_phase_sum(shuffled, weight, mod, p)) == _bits(value)
    cuts = sorted(data.draw(st.lists(st.integers(0, expo.size), max_size=4)))
    parts = np.split(expo, cuts)
    assert _bits(_phase_sum(np.concatenate(parts[::-1]), weight, mod, p)) == _bits(value)
    if weight % 2 == 0:
        doubled = np.concatenate((expo, expo))
        assert _bits(_phase_sum(doubled, weight // 2, mod, p)) == _bits(value)


def test_case2_ring_sums_are_exact_zeros():
    # a case2 sum's counts are constant on every coset, so they reduce to zero
    count = 0
    for p, k, l in gauss_grid_combos():
        mod = p**l
        for a in range(mod):
            for b in range(mod):
                if ring_sum_norm_closed(p, k, l, a, b)[1] == "case2":
                    assert ring_sum_numeric(p, k, l, a, b) == 0j, (p, k, l, a, b)
                    count += 1
    assert count == 18376


@pytest.mark.parametrize("mod", [3, 8, 49, 243, 3125, 2**19, 7**7, 997**2])
def test_phase_roots_match_the_root_table_bit_for_bit(mod):
    m = np.unique(np.random.default_rng(mod).integers(0, mod, size=2000))
    w = np.exp(2j * np.pi * m / mod)  # the roots _phase_sum evaluates
    assert np.array_equal(w.view(np.float64), roots_of_unity(mod)[m].view(np.float64))


def test_ring_sum_builds_no_root_table():
    before = roots_of_unity.cache_info()
    ring_sum_numeric(31, 4, 4, 1, 1)
    assert roots_of_unity.cache_info() == before


def test_integral_closed_examples():
    norm, case = integral_norm_closed(3, 1, 1, 0)
    assert (norm.normsq, case) == (1, "case1")
    norm, case = integral_norm_closed(3, 1, 0, Fraction(1, 3))
    assert norm.is_zero and case == "case2"
    norm, case = integral_norm_closed(3, 2, 0, 0)
    assert (norm.value, case) == (9.0, "case3")


def test_integral_numeric_examples():
    assert abs(abs(integral_numeric(3, 1, 1, 0)) - 1) < 1e-9
    assert abs(integral_numeric(3, 1, 0, Fraction(1, 3))) < 1e-9
    assert abs(integral_numeric(3, 0, 0, 0) - 1) < 1e-12  # measure of Z_p
    assert abs(integral_numeric(3, 2, 0, 0) - 9) < 1e-12


def test_integral_accepts_padic_coefficients():
    a = from_rational(1, 1, 3, 8)
    b = from_rational(0, 1, 3, 8)
    assert abs(abs(integral_numeric(3, 1, a, b)) - 1) < 1e-9


def test_integral_rejects_p2():
    with pytest.raises(OddPrimeError):
        integral_norm_closed(2, 1, 1, 0)
    with pytest.raises(OddPrimeError):
        integral_numeric(2, 1, 1, 0)


def test_integral_closed_cases_partition():
    # the three conditions cover every valuation combination exactly once
    for va in list(range(-3, 4)) + [None]:
        for vb in list(range(-3, 4)) + [None]:
            a = 0 if va is None else Fraction(3) ** va
            b = 0 if vb is None else Fraction(3) ** vb
            for r in range(-2, 4):
                norm, case = integral_norm_closed(3, r, a, b)
                assert case in ("case1", "case2", "case3")


def test_threshold_examples():
    assert threshold_t(3, 0, 0) == NEG_INF
    assert threshold_t(3, 0, 9) == 2
    assert threshold_t(3, 1, 1) == 0
    # odd valuation of a: t floors v(a)/2 so that integer r > t iff r > v(a)/2
    assert threshold_t(3, 3, 0) == 0
    assert threshold_t(3, 27, 0) == 1
    assert threshold_t(3, Fraction(1, 27), 1) == -2


def test_threshold_certifies_simplified_table():
    grid = [Fraction(u) * Fraction(3) ** v for u in (1, 2) for v in range(-2, 3)]
    for a in grid + [Fraction(0)]:
        for b in grid + [Fraction(0)]:
            t = threshold_t(3, a, b)
            rs = range(-1, 4) if t == NEG_INF else range(int(t) + 1, int(t) + 4)
            for r in rs:
                closed, _ = integral_norm_closed(3, r, a, b)
                simplified, _, certified = simplified_norm(3, r, a, b)
                assert certified
                assert simplified.normsq == closed.normsq


def test_threshold_not_vacuous():
    # below the threshold the simplified table must fail somewhere
    mismatches = 0
    for a in (Fraction(9), Fraction(27)):
        t = threshold_t(3, a, Fraction(0))
        for r in range(-2, int(t) + 1):
            closed, _ = integral_norm_closed(3, r, a, 0)
            simplified, _, certified = simplified_norm(3, r, a, 0)
            assert not certified
            if simplified.normsq != closed.normsq:
                mismatches += 1
    assert mismatches > 0


def test_integral_oracle_equivalence_small_grid():
    coeffs = [Fraction(0)] + [Fraction(u) * Fraction(3) ** v for u in (1, 2) for v in (-2, 0, 2)]
    for a in coeffs:
        for b in coeffs:
            for r in range(-1, 3):
                closed, _ = integral_norm_closed(3, r, a, b)
                numeric = abs(integral_numeric(3, r, a, b))
                assert abs(numeric - closed.value) < 1e-9


def test_exact_norm_formatting():
    assert str(ExactNorm(3, 1)) == "3^{1/2}"
    assert str(ExactNorm(3, 4)) == "3^{2}"
    assert str(ExactNorm(3, -2)) == "3^{-1}"
    assert str(ExactNorm(3, -3)) == "3^{-3/2}"
    assert str(ExactNorm(3, 0)) == "1"
    assert str(ExactNorm(3, None)) == "0"
    assert ExactNorm(3, -2).normsq == Fraction(1, 9)


def test_exact_normsq_is_the_rational_power():
    for p in (3, 5, 7):
        for hp in range(-6, 7):
            assert ExactNorm(p, hp).normsq == Fraction(p) ** hp
        assert ExactNorm(p, None).normsq == 0


def test_float_value_past_the_double_range_is_a_value_error():
    assert ExactNorm(599, 200).value == pytest.approx(599.0**100)
    with pytest.raises(ValueError, match="exceeds the double range"):
        ExactNorm(599, 400).value
    # below the smallest normal double too: 599^-200 would round to 0.0
    assert ExactNorm(599, -200).value == pytest.approx(599.0**-100)
    with pytest.raises(ValueError, match="exceeds the double range"):
        ExactNorm(599, -400).value
    with pytest.raises(ValueError, match="exceeds the double range"):
        integral_numeric(599, 200, 0, 0)


def test_ring_report_roundtrip():
    rep = ring_report(3, 1, 1, 1, 0, oracle=True)
    assert rep.passed
    d = rep.to_json_dict()
    assert d["schema"] == 1
    assert d["closed_exact"] == "3^{1/2}"
    assert d["normsq_exact"] == 3
    assert d["counting_matches_closed"] is True


def test_ring_report_refuses_p2():
    # the closed form and the counting oracle both need an odd prime
    for oracle in (False, True):
        with pytest.raises(OddPrimeError):
            ring_report(2, 2, 1, 1, 1, oracle=oracle)


def test_integral_report_reads_each_valuation_once(monkeypatch):
    reads = count_reads(monkeypatch)
    for oracle in (False, True):
        reads.clear()
        assert integral_report(3, 1, Fraction(1, 3), Fraction(2), oracle=oracle).passed
        assert reads == [Fraction(1, 3), Fraction(2)], oracle


def test_integral_report_flags_uncertified():
    rep = integral_report(3, 0, Fraction(9), Fraction(0), oracle=True)
    assert rep.extras["threshold"] == 1
    assert rep.extras["simplified_certified"] is False
    assert rep.passed  # the full closed form still matches the oracle


def test_integral_report_certifies_no_threshold_of_a_zero_big_o():
    # "0 *3^1" is 0 modulo 3^2: it admits 9 and 18, whose threshold is 2,
    # so its digits fix no threshold, and r = 1 certifies nothing
    zero = parse_coefficient("0 *3^1", 3)
    for a, b in ((zero, 1), (1, zero), (zero, zero)):
        rep = integral_report(3, 1, a, b, oracle=True)
        assert (rep.extras["threshold"], rep.extras["simplified_certified"]) == (None, False)
        assert rep.passed  # the closed form reads the digits' own value
    for a in (9, 18):
        rep = integral_report(3, 1, Fraction(a), Fraction(1))
        assert (rep.extras["threshold"], rep.extras["simplified_certified"]) == (2, False)
    # exact zeros have threshold -inf: null, and every r is certified
    rep = integral_report(3, 1, Fraction(0), Fraction(0))
    assert (rep.extras["threshold"], rep.extras["simplified_certified"]) == (None, True)


def test_params_validation():
    with pytest.raises(ValueError):
        ring_report(3, 1, 2, 0, 0)  # k < l
    with pytest.raises(ValueError):
        ring_report(4, 1, 1, 0, 0)
    with pytest.raises(ValueError):
        integral_report(6, 1, Fraction(0), Fraction(0))


def test_integral_report_tolerance_scales_with_the_ball():
    # the norm is 199^7, about 1.2e16: double rounding alone exceeds 1e-9
    rep = integral_report(199, 7, Fraction(0), Fraction(0), oracle=True)
    assert rep.closed.normsq == Fraction(199) ** 14
    assert rep.deviation == abs(rep.closed.value - rep.numeric)  # stays absolute
    assert rep.deviation / rep.closed.value <= rep.tol
    assert rep.passed
    # a zero norm, brute-forced as 11^(9-k) times a ring sum of 11^k terms
    rep = integral_report(11, 9, Fraction(0), Fraction(-7086244, 3), oracle=True)
    assert rep.case == "case2" and rep.extras["reduction_k"] == 3
    assert rep.deviation / 11**6 <= rep.tol
    assert rep.passed


# ---------------------------------------------------------------------------
# the closed forms as they were before the one case table, kept as oracles
# ---------------------------------------------------------------------------


def _old_truncated_valuation(x, p, l):
    x %= p**l
    if x == 0:
        return l
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _old_ring_closed(p, k, l, a, b):
    va = _old_truncated_valuation(a, p, l)
    vb = _old_truncated_valuation(b, p, l)
    if va == l and vb == l:
        return 2 * k, "case3"
    if va <= vb:
        return 2 * k - l + va, "case1"
    return None, "case2"


def _old_field_closed(alpha, beta):
    r = alpha.ctx.r
    if not alpha.is_zero:
        return r, "case1"
    if not beta.is_zero:
        return None, "case2"
    return 2 * r, "case3"


def _old_integral_closed(p, r, a, b):
    va = frac_valuation(as_fraction(a, p, need_abs_precision=2 * r), p)
    vb = frac_valuation(as_fraction(b, p, need_abs_precision=r), p)
    if va < 2 * r and va <= vb + r:
        return int(va), "case1"
    if vb < r and va > vb + r:
        return None, "case2"
    return 2 * r, "case3"


def _old_threshold_t(p, a, b):
    af, bf = as_fraction(a, p), as_fraction(b, p)
    va, vb = frac_valuation(af, p), frac_valuation(bf, p)
    if va == math.inf and vb == math.inf:
        return NEG_INF
    if va == math.inf:
        return int(vb)
    bound = Fraction(int(va), 2)
    if vb != math.inf:
        bound = max(bound, Fraction(int(va) - int(vb)))
    return math.floor(bound)


def _old_simplified(p, r, a, b):
    af, bf = as_fraction(a, p), as_fraction(b, p)
    certified = r > _old_threshold_t(p, af, bf)
    if af != 0:
        return int(frac_valuation(af, p)), "case1", certified
    if bf != 0:
        return None, "case2", certified
    return 2 * r, "case3", certified


def _outcome(fn, *args):
    """What a closed form returns, with its ExactNorm read as a half-power,
    or the type of the error it raises."""
    try:
        out = fn(*args)
    except (ValueError, RuntimeError) as e:
        return type(e)
    if isinstance(out, tuple) and isinstance(out[0], ExactNorm):
        return (out[0].half_power, *out[1:])
    return out


def _is_inexact_zero(x):
    return isinstance(x, PadicNumber) and x.is_zero and x.valuation != math.inf


def test_ring_forms_match_the_old_ones_and_the_old_sweep_loop():
    checks = failures = 0
    max_rel = 0.0
    for p, k, l in gauss_grid_combos():
        numeric = np.abs(ring_sum_numeric_table(p, k, l))
        exact_sq = ring_sum_normsq_table(p, k, l)
        case, half = ring_sum_norm_closed_table(p, k, l)
        for a in range(p**l):
            for b in range(p**l):
                old = _old_ring_closed(p, k, l, a, b)
                assert _outcome(ring_sum_norm_closed, p, k, l, a, b) == old, (p, k, l, a, b)
                table_half = None if case[a, b] == 1 else int(half[a, b])
                assert (table_half, f"case{case[a, b] + 1}") == old, (p, k, l, a, b)
                # the sweep's old per-cell loop
                closed = ExactNorm(p, old[0])
                checks += 1
                if closed.normsq != int(exact_sq[a, b]):
                    failures += 1
                    continue
                rel = abs(numeric[a, b] - closed.value) / max(closed.value, 1.0)
                max_rel = max(max_rel, rel)
                failures += rel > 1e-6
    got = sweep_gauss_grid()
    assert (got["checks"], got["failures"]) == (checks, failures) == (140466, 0)
    assert got["max_rel_deviation"] == max_rel  # bit for bit


@pytest.mark.parametrize("p, r", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_field_form_matches_the_old_one(p, r):
    f = build_field(p, r)
    elems = list(f.elements())
    for alpha in elems[:8]:
        for beta in elems[:8]:
            assert _outcome(field_sum_norm_closed, alpha, beta) == _old_field_closed(alpha, beta)


def _valuation_grid_coefficients(p):
    """0, one rational and two digit strings per valuation in -6..6, and the
    all-zero digit string: the strings carry from 1 to 31 digits, so some
    are too coarse for the integral's precision demand at larger r."""
    coeffs = [Fraction(0), parse_coefficient("0 0 *%d^0" % p, p)]
    for v in range(-6, 7):
        coeffs.append(Fraction(1 + v % 2 * (p - 2)) * Fraction(p) ** v)
        for n in (1 + (v + 6) % 4, 31):
            digits = " ".join(["2", "1"] + ["0"] * (n - 2))[: 2 * n - 1]
            coeffs.append(parse_coefficient(f"{digits} *{p}^{v}", p))
    return coeffs


def test_integral_and_simplified_forms_match_the_old_ones():
    p = 3
    coeffs = _valuation_grid_coefficients(p)
    compared = raised = 0
    for a in coeffs:
        for b in coeffs:
            # a zero O(p^N) has no known valuation: the old forms read it as
            # the exact zero, the new ones refuse it
            inexact_zero = _is_inexact_zero(a) or _is_inexact_zero(b)
            want_t = PrecisionError if inexact_zero else _old_threshold_t(p, a, b)
            assert _outcome(threshold_t, p, a, b) == want_t, (a, b)
            for r in range(-4, 9):
                old = _outcome(_old_integral_closed, p, r, a, b)
                assert _outcome(integral_norm_closed, p, r, a, b) == old, (p, r, a, b)
                raised += isinstance(old, type)
                old = PrecisionError if inexact_zero else _outcome(_old_simplified, p, r, a, b)
                assert _outcome(simplified_norm, p, r, a, b) == old, (p, r, a, b)
                compared += 1
    assert compared == len(coeffs) ** 2 * 13 and 0 < raised < compared


def _old_reduction_exponents(r, va, vb):
    l_bounds = [1]
    k_bounds = [1]
    if va != INF:
        l_bounds.append(2 * r - int(va))
        k_bounds += [2 * r - int(va), r - math.floor(va / 2)]
    if vb != INF:
        l_bounds.append(r - int(vb))
        k_bounds.append(r - int(vb))
    l = max(l_bounds)
    return l, max(k_bounds + [l])


def _old_shifted_reduction_exponents(dx, dy):
    """Oracle: the former (l, k) body, k the bound for constancy on cosets of p^k."""
    l = max(1, -dx, -dy)
    return l, l if dx == INF else max(l, -(dx // 2))


def _reduction_l(dx, dy):
    """The l of `_integral_reduction` at r = 0, where dx, dy are v(a), v(b)."""
    a, b = (0 if v == INF else Fraction(3) ** v for v in (dx, dy))
    return _integral_reduction(3, 0, a, b, dx, dy)[0][0]


def test_reduction_exponents_read_the_shifted_valuations():
    vals = [*range(-8, 9), INF]
    cases = 0
    for r in range(-6, 9):
        for va in vals:
            for vb in vals:
                dx, dy = va - 2 * r, vb - r
                got = _reduction_l(dx, dy)
                assert type(got) is int
                # the k bound never binds: every reduction is one period, k = l
                assert (got, got) == _old_reduction_exponents(r, va, vb), (r, va, vb)
                assert (got, got) == _old_shifted_reduction_exponents(dx, dy), (r, va, vb)
                cases += 1
    assert cases == 4860
    for dx in [*range(-60, 61), INF]:
        for dy in [*range(-60, 61), INF]:
            if dx != INF or dy != INF:
                l, k = _old_shifted_reduction_exponents(dx, dy)
                assert k == l == _reduction_l(dx, dy), (dx, dy)


def test_closed_forms_refuse_p2_from_the_table():
    f = build_field(2, 2)
    for call in (
        lambda: ring_sum_norm_closed(2, 2, 1, 1, 0),
        lambda: field_sum_norm_closed(f.one, f.zero),
        lambda: integral_norm_closed(2, 1, 1, 0),
        lambda: integral_numeric(2, 1, 1, 0),
        lambda: simplified_norm(2, 1, 1, 0),
    ):
        with pytest.raises(OddPrimeError, match="odd prime"):
            call()


VALUATIONS = st.one_of(st.integers(-8, 8), st.just(math.inf))


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7]),
    va=VALUATIONS,
    vb=VALUATIONS,
    units=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    r=st.integers(-4, 8),
)
@example(p=3, va=1, vb=0, units=(1, 1), r=1)  # dx = dy < 0: case1
@example(p=5, va=2, vb=math.inf, units=(1, 1), r=1)  # dx = 0: case3
@example(p=7, va=math.inf, vb=-1, units=(2, 3), r=0)  # a = 0 and dy < 0: case2
def test_one_case_fires_and_the_simplified_table_holds_above_the_threshold(p, va, vb, units, r):
    a, b = (
        Fraction(0) if v == math.inf else Fraction(1 + u % (p - 1)) * Fraction(p) ** v
        for v, u in ((va, units[0]), (vb, units[1]))
    )
    fired = [
        va < 2 * r and va <= vb + r,
        vb < r and va > vb + r,
        va >= 2 * r and vb >= r,
    ]
    closed, case = integral_norm_closed(p, r, a, b)
    assert fired.count(True) == 1
    assert case == f"case{fired.index(True) + 1}"
    simplified, simplified_case, certified = simplified_norm(p, r, a, b)
    assert certified == (r > threshold_t(p, a, b))
    if certified:
        assert (simplified_case, simplified.normsq) == (case, closed.normsq)



def test_an_inexact_zero_has_no_valuation():
    # O(3^2) admits a = 9, whose norm is case1, so it is not the exact zero
    o9 = parse_coefficient("0 0 *3^0", 3)
    with pytest.raises(PrecisionError, match="known only as 0 modulo 3\\^2"):
        simplified_norm(3, 5, o9, 1)
    with pytest.raises(PrecisionError):
        simplified_norm(3, 5, 1, o9)
    with pytest.raises(PrecisionError):
        threshold_t(3, o9, 1)
    with pytest.raises(PrecisionError):
        threshold_t(3, 1, o9)
    assert _outcome(simplified_norm, 3, 5, 9, 1) == (2, "case1", True)
    # exact zeros, nonzero digit strings and rationals read as before
    for zero in (0, Fraction(0), padic_zero(3)):
        assert _outcome(simplified_norm, 3, 5, zero, 1) == (None, "case2", True)
        assert threshold_t(3, zero, 1) == 0
    assert _outcome(simplified_norm, 3, 5, parse_coefficient("1 *3^2", 3), 1) == (
        2,
        "case1",
        True,
    )
    assert threshold_t(3, parse_coefficient("0 0 1 *3^0", 3), 1) == 2


def _threshold_cases(p=3):
    """Every (r, a, b) that sweep_thresholds checks, in its order."""
    for a in threshold_grid_coefficients():
        for b in threshold_grid_coefficients():
            t = threshold_t(p, a, b)
            r_values = set(range(-2, 4))
            if t != NEG_INF:
                r_values |= {int(t) + 1, int(t) + 2, int(t) + 3}
            for r in sorted(r_values):
                yield r, a, b


def _old_sweep_thresholds(p=3, tol=1e-9, term_cap=DEFAULT_TERM_CAP):
    """Oracle: the former sweep body, one integral_numeric per check."""
    checks = failures = skipped = 0
    max_dev = 0.0
    mismatch_below_threshold = 0
    for a in threshold_grid_coefficients():
        for b in threshold_grid_coefficients():
            t = threshold_t(p, a, b)
            r_values = set(range(-2, 4))
            if t != NEG_INF:
                r_values |= {int(t) + 1, int(t) + 2, int(t) + 3}
            for r in sorted(r_values):
                closed, _case = integral_norm_closed(p, r, a, b)
                try:
                    numeric = abs(integral_numeric(p, r, a, b, term_cap))
                except CapError:
                    skipped += 1
                    continue
                checks += 1
                dev = abs(numeric - closed.value)
                max_dev = max(max_dev, dev)
                if dev > tol:
                    failures += 1
                simplified, _sc, certified = simplified_norm(p, r, a, b)
                if certified != (r > t):
                    failures += 1
                if certified and simplified.normsq != closed.normsq:
                    failures += 1
                if not certified and simplified.normsq != closed.normsq:
                    mismatch_below_threshold += 1
    return {
        "schema": 1,
        "suite": "thresholds",
        "p": p,
        "checks": checks,
        "skipped_over_cap": skipped,
        "failures": failures,
        "max_deviation": max_dev,
        "mismatches_below_threshold": mismatch_below_threshold,
        "threshold_not_vacuous": mismatch_below_threshold > 0,
        "tol": tol,
        "passed": failures == 0 and mismatch_below_threshold > 0,
    }


def _old_integral_reduction(p, r, af, bf, dx, dy):
    """Oracle: the reduction key and scale by Fraction arithmetic, as before
    the integer residues."""
    l = max(1, -dx, -dy)
    mod = p**l
    a_int = rational_mod(af * Fraction(p) ** (l - 2 * r), mod)
    b_int = rational_mod(bf * Fraction(p) ** (l - r), mod)
    return (l, a_int, b_int), _float_power(p, r - l, "norm scale")


def _assert_reduction_matches_the_old_one(p, r, a, b):
    args = _shifted_valuations(p, r, a, b)
    assert _integral_reduction(p, r, *args) == _old_integral_reduction(p, r, *args), (p, r, a, b)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([3, 5, 7, 11]),
    r=st.integers(-3, 6),
)
def test_integral_reduction_matches_the_fraction_formula(data, p, r):
    # a unit with any denominator prime to p, times p^v; or the exact zero
    prime_to_p = st.integers(1, 500).filter(lambda n: n % p)
    unit = st.builds(lambda sign, num, den: Fraction(sign * num, den),
                     st.sampled_from([1, -1]), prime_to_p, prime_to_p)
    coefficient = st.one_of(
        st.just(Fraction(0)),
        st.builds(lambda u, v: u * Fraction(p) ** v, unit, st.integers(-6, 6)),
    )
    _assert_reduction_matches_the_old_one(p, r, data.draw(coefficient), data.draw(coefficient))


@pytest.mark.parametrize("p, r, a, b", [
    (3, 1, Fraction(7, 45), Fraction(0)),  # unit 7/5, v = -2
    (3, 2, Fraction(-7, 45), Fraction(11, 10)),
    (5, 0, Fraction(0), Fraction(0)),  # the exact zero: l = 1, A = B = 0
    (5, -1, Fraction(3, 7), Fraction(0)),
    (3, 0, Fraction(3**6), Fraction(1, 9)),  # v(a) - 2r >= 0: A = 0 at l = 2
    (7, 1, Fraction(2, 7**5), Fraction(7**9, 13)),  # v(b) - r >= 0: B = 0 at l = 7
    (3, 1, parse_coefficient("2 2 0 0 *3^-1", 3), Fraction(0)),
    (3, 2, parse_coefficient("1 2 0 1 2 0 0 0 *3^-2", 3), parse_coefficient("2 1 1 *3^1", 3)),
    (5, 1, parse_coefficient("4 0 3 1 2 *5^-3", 5), parse_coefficient("0 0 0 *5^0", 5)),
])
def test_integral_reduction_matches_the_fraction_formula_at_edges(p, r, a, b):
    _assert_reduction_matches_the_old_one(p, r, a, b)


def _old_integral_numeric(p, r, a, b, term_cap=DEFAULT_TERM_CAP):
    """Oracle: the former integral_numeric body, reduction inlined with its k."""
    af, bf, dx, dy = _shifted_valuations(p, r, a, b)
    l, k = _old_shifted_reduction_exponents(dx, dy)
    mod = p**l
    a_int = rational_mod(af * Fraction(p) ** (l - 2 * r), mod)
    b_int = rational_mod(bf * Fraction(p) ** (l - r), mod)
    scale = _float_power(p, r - k, "norm scale")
    return scale * ring_sum_numeric(p, k, l, a_int, b_int, term_cap)


@pytest.mark.parametrize("term_cap", [DEFAULT_TERM_CAP, 3**5])
def test_threshold_sweep_sums_each_reduction_once(monkeypatch, term_cap):
    keys = {_integral_reduction(3, r, *_shifted_valuations(3, r, a, b))[0]
            for r, a, b in _threshold_cases()}
    kept = {key for key in keys if 3 ** key[0] <= term_cap}
    assert len(kept) < len(keys)  # some reductions are over either cap
    want = _old_sweep_thresholds(term_cap=term_cap)
    calls = []

    def counted(*args):
        value = ring_sum_numeric(*args)  # raises CapError before it is counted
        calls.append(args[:5])
        return value

    monkeypatch.setattr(sweeps, "ring_sum_numeric", counted)
    got = sweep_thresholds(term_cap=term_cap)
    assert got == want
    assert sorted(calls) == sorted((3, key[0], *key) for key in kept)  # one period, k = l
    if term_cap == DEFAULT_TERM_CAP:
        assert (got["checks"], got["skipped_over_cap"]) == (1542, 20)
        assert (len(keys), len(kept)) == (299, 283)  # of 1562 checks


def test_threshold_sweep_reads_each_valuation_once_per_pair(monkeypatch):
    reads = count_reads(monkeypatch)
    got = sweep_thresholds()
    coeffs = threshold_grid_coefficients()
    assert len(reads) == 2 * len(coeffs) ** 2  # v(a) and v(b), once per (a, b)
    assert (got["checks"], got["failures"], got["skipped_over_cap"]) == (1542, 0, 20)


def test_integral_numeric_is_the_scaled_ring_sum_bit_for_bit():
    compared = 0
    for r, a, b in _threshold_cases():
        key, scale = _integral_reduction(3, r, *_shifted_valuations(3, r, a, b))
        if 3 ** key[0] > DEFAULT_TERM_CAP:
            continue
        got = integral_numeric(3, r, a, b)
        assert got == scale * ring_sum_numeric(3, key[0], *key) == _old_integral_numeric(3, r, a, b)
        compared += 1
    assert compared == 1542
