"""Acceptance criteria: one test per criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (run `pytest -s` to see them all).
"""

import time
from fractions import Fraction

import numpy as np

from padic_mub import (
    FieldMubSet,
    StateVector,
    ball_fourier_closed,
    ball_state,
    build_field,
    canonical_family_params,
    char_e,
    fourier,
    from_rational,
    gram_report,
    make_grid,
    norm_p,
    phase_mul,
    trace,
    verify_mub,
)
from padic_mub.sweeps import sweep_gauss_grid, sweep_operators, sweep_thresholds

from oracles import build_mub_set, frac_valuation, gram_entries, verify_matrices


def _report(n, name, ok):
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_finite_field_mubs():
    t0 = time.monotonic()
    ok = True
    for p, r in ((3, 1), (5, 1), (7, 1), (3, 2)):
        # the package's report of the field's set, and the basis matrices themselves
        bases = build_mub_set(build_field(p, r))
        assert len(bases) == p**r + 1
        for rep in (verify_mub(FieldMubSet.from_field(build_field(p, r)), tol=1e-10),
                    verify_matrices(bases, tol=1e-10)):
            ok = ok and rep.passed and rep.max_deviation <= 1e-10
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _report(1, f"finite-field MUB reproduction ({elapsed:.2f}s)", ok)


def test_criterion_2_ring_sum_oracle_equivalence():
    t0 = time.monotonic()
    result = sweep_gauss_grid()
    elapsed = time.monotonic() - t0
    ok = result["passed"] and result["failures"] == 0 and result["tol_rel"] == 1e-6
    ok = ok and elapsed < 60.0
    # the sweep compares closed-form norm^2 with the exact count *exactly*
    # and the numeric norm within 1e-6 relative for every (a, b)
    expected_pairs = sum(c["pairs"] for c in result["combos"])
    ok = ok and result["checks"] == expected_pairs
    _report(2, f"ring Gauss-sum oracle equivalence over {result['checks']} cases "
               f"({elapsed:.2f}s)", ok)


def test_criterion_3_integral_oracle_and_thresholds():
    result = sweep_thresholds()
    ok = (
        (result["p"], result["tol"]) == (3, 1e-9)
        and result["passed"]
        and result["failures"] == 0
        and result["max_deviation"] <= 1e-9
        and result["threshold_not_vacuous"]
    )
    _report(3, f"Gauss-integral oracle + threshold table over {result['checks']} cases",
            ok)


def test_criterion_4_family_gram_tables_desk_scale():
    t0 = time.monotonic()
    ok = True
    for p in (3, 5):
        rep = gram_report(canonical_family_params(p), r=1, p=p, tol=1e-9)
        ok = ok and rep.passed
        n_b = p
        for e in gram_entries(rep):
            fam_i, fam_j = e.i // n_b, e.j // n_b
            if fam_i != fam_j:
                want = 1.0
            elif e.i == e.j:
                want = float(p) ** rep.r_used
            else:
                want = 0.0
            ok = ok and abs(e.numeric - want) <= 1e-9
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _report(4, f"p+1 family Gram tables for p in (3, 5) ({elapsed:.2f}s)", ok)


def test_criterion_5_fourier_ball_and_plancherel():
    ok = True
    for scale in (0, 1, 2):
        for z in (Fraction(0), Fraction(1), Fraction(1, 3)):
            r0 = max(0, -int(frac_valuation(z, 3)) if z else 0, -scale)
            grid = make_grid(3, r0, max(scale + 1, 1 - r0))
            psi = ball_state(z, scale, grid)
            phat = fourier(psi)
            closed = ball_fourier_closed(z, scale, phat.grid)
            ok = ok and np.abs(phat.amplitudes - closed).max() <= 1e-10
    rng = np.random.default_rng(2024)
    grid = make_grid(3, 4, 4)  # n = 3^8
    for _ in range(100):
        psi = StateVector(grid, rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n))
        ok = ok and abs(fourier(psi).norm_sq() - psi.norm_sq()) <= 1e-9 * psi.norm_sq()
    _report(5, "Fourier ball closed form + Plancherel at n=3^8", ok)


def test_criterion_6_operator_algebra():
    result = sweep_operators(seed=2024)
    ok = (
        [result[key] for key in ("p", "n_commutation", "n_eigen", "tol")] == [3, 50, 25, 1e-9]
        and result["passed"]
        and result["failures"] == 0
        and result["max_eigen_residual"] < 1e-9
    )
    _report(6, "shift/modulation/chirp operator algebra", ok)


def test_criterion_7_exact_property_suite():
    ok = True
    # ultrametric inequality and norm multiplicativity, exact rationals
    for p in (3, 5, 7):
        values = [
            from_rational(n, d, p, 12)
            for n in range(-10, 11)
            for d in (1, 2, 3, 5, 7, 9, 25, 49)
        ]
        for x in values[::7]:
            for y in values[::5]:
                ok = ok and norm_p(x * y) == norm_p(x) * norm_p(y)
                ok = ok and norm_p(x + y) <= max(norm_p(x), norm_p(y))
    # character homomorphism, exact phases
    for p, dens in ((3, (1, 3, 9)), (5, (1, 5, 25))):
        xs = [from_rational(n, d, p, 12) for n in range(-8, 9) for d in dens]
        for x in xs[::5]:
            for y in xs[::4]:
                ok = ok and char_e(x + y) == phase_mul(char_e(x), char_e(y))
    # trace linearity, Frobenius invariance, fiber sizes
    for p, r in ((2, 3), (3, 1), (3, 2), (3, 3), (5, 2), (7, 2), (5, 3)):
        field = build_field(p, r)
        elems = list(field.elements())
        counts = [0] * p
        for x in elems:
            counts[trace(x)] += 1
            ok = ok and trace(x**p) == trace(x)
        ok = ok and counts == [p ** (r - 1)] * p
        step = 1 if p**r <= 27 else max(1, p**r // 40)
        for x in elems[::step]:
            for y in elems[::step]:
                ok = ok and trace(x + y) == (trace(x) + trace(y)) % p
    _report(7, "exact arithmetic/character/trace property suite", ok)
