"""Exhaustive and randomized verification sweeps over the module contracts.

Each sweep drives one family of oracle-equivalence checks across a fixed
parameter grid, with fixed tolerances, and returns an aggregate, JSON-ready
summary.  The CLI's `sweep` command and the acceptance suite both run these.
A sweep's parameters are the options it reads: `term_cap` for gauss-grid
and thresholds, `seed` for operators (`SUITES`).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .characters import phase_to_complex
from .errors import CapError
from .gauss import (
    DEFAULT_TERM_CAP,
    NEG_INF,
    _integral_reduction,
    _roots,
    _simplified,
    _table_norm,
    _threshold,
    ring_sum_norm_closed_table,
    ring_sum_normsq_table,
    ring_sum_numeric,
    ring_sum_numeric_table,
)
from .mub_padic import (
    StateVector,
    _cell_phase_indices,
    _quad_phase_indices,
    eigen_check,
    make_grid,
    required_resolution,
)
from .padic import PFraction, frac_part, read_coefficient

GAUSS_GRID_PRIMES = (3, 5, 7)
GAUSS_GRID_MAX_EXP = 3
THRESHOLDS_PRIME = 3


def gauss_grid_combos():
    for p in GAUSS_GRID_PRIMES:
        for k in range(1, GAUSS_GRID_MAX_EXP + 1):
            for l in range(1, k + 1):
                yield p, k, l


def sweep_gauss_grid(term_cap: int = DEFAULT_TERM_CAP) -> dict:
    """Ring-sum oracle equivalence over every (a, b) of every grid combo.

    For each combo the closed-form norm must equal the square root of the
    exact counting norm^2 *exactly*, and the brute-force numeric norm must
    agree within tol_rel = 1e-6 (relative to max(norm, 1)).
    """
    tol_rel = 1e-6
    checks = failures = 0
    max_rel = 0.0
    combos = []
    for p, k, l in gauss_grid_combos():
        numeric = np.abs(ring_sum_numeric_table(p, k, l, term_cap))
        exact_sq = ring_sum_normsq_table(p, k, l)
        case, half = ring_sum_norm_closed_table(p, k, l)
        zero = case == 1
        matched = np.where(zero, 0, p**half) == exact_sq
        value = np.where(zero, 0.0, float(p) ** (half / 2.0))
        rel = np.abs(numeric - value) / np.maximum(value, 1.0)
        checks += rel.size
        failures += int((~matched | (rel > tol_rel)).sum())
        max_rel = max(max_rel, float(rel.max(where=matched, initial=0.0)))
        combos.append({"p": p, "k": k, "l": l, "pairs": rel.size})
    return {
        "schema": 1,
        "suite": "gauss-grid",
        "combos": combos,
        "checks": checks,
        "failures": failures,
        "max_rel_deviation": max_rel,
        "tol_rel": tol_rel,
        "passed": failures == 0,
    }


def threshold_grid_coefficients():
    """The zero and u * p^v for the units u = 1, 2 and every valuation v in
    [-3, 3], at p = THRESHOLDS_PRIME."""
    vals: list[Fraction] = [Fraction(0)]
    for v in range(-3, 4):
        for u in (1, 2):
            vals.append(Fraction(u) * Fraction(THRESHOLDS_PRIME) ** v)
    return vals


def sweep_thresholds(term_cap: int = DEFAULT_TERM_CAP) -> dict:
    """Gauss-integral oracle equivalence and threshold behaviour on a grid.

    Checks, for every coefficient pair at p = THRESHOLDS_PRIME: numeric vs
    closed norm within tol = 1e-9 at each r in [-2, 3]; and the simplified
    three-case table at every tested r above the threshold, the r that
    `_simplified` certifies (at or below it the table is never asserted).
    Also verifies the threshold is not vacuous.

    The numeric norm is integral_numeric's value, p^(r-l) times one period
    of a ring sum; many (r, a, b) reduce to the same ring sum (l, A, B), so
    each ring sum is taken once per call.  One over the term cap is skipped
    on every check that reduces to it.  a and b are read once per pair, and
    each r shifts their valuations v(a), v(b).
    """
    p, tol = THRESHOLDS_PRIME, 1e-9
    checks = failures = skipped = 0
    ring_sums: dict[tuple[int, int, int], complex] = {}
    max_dev = 0.0
    mismatch_below_threshold = 0
    for a in threshold_grid_coefficients():
        for b in threshold_grid_coefficients():
            ra, rb = read_coefficient(a, p), read_coefficient(b, p)
            af, bf, va, vb = ra.value, rb.value, ra.valuation, rb.valuation
            t = _threshold(va, vb)
            r_values = set(range(-2, 4))
            if t != NEG_INF:
                r_values |= {int(t) + 1, int(t) + 2, int(t) + 3}
            for r in sorted(r_values):
                dx, dy = va - 2 * r, vb - r
                closed, _case = _table_norm(p, dx, dy, 2 * r)
                key, scale = _integral_reduction(p, r, af, bf, dx, dy)
                if key not in ring_sums:
                    try:
                        ring_sums[key] = ring_sum_numeric(p, key[0], *key, term_cap)  # k = l
                    except CapError:
                        skipped += 1
                        continue
                numeric = abs(scale * ring_sums[key])
                checks += 1
                dev = abs(numeric - closed.value)
                max_dev = max(max_dev, dev)
                if dev > tol:
                    failures += 1
                simplified, _sc, certified = _simplified(p, r, va, vb)
                # norms of one p are equal exactly when their normsq are
                if certified and simplified != closed:
                    failures += 1
                if not certified and simplified != closed:
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


def _random_coefficient(rng: np.random.Generator, p: int, vmin=-2, vmax=2) -> Fraction:
    unit = int(rng.integers(1, p)) + p * int(rng.integers(0, 2))
    return Fraction(unit) * Fraction(p) ** int(rng.integers(vmin, vmax + 1))


def _commutation_parts(grid, c: Fraction, d: Fraction):
    """{cd} from frac_part, op_X's shift index_of(c) and op_Z's phase row
    (idx, M) for d: what both commutation checks read, each built once."""
    row = _quad_phase_indices(grid, None, read_coefficient(d, grid.p))
    return frac_part(c * d, grid.p), grid.index_of(c), row


def _commutation_exact(p: int, cd: PFraction, shift: int, row) -> bool:
    """Z_d X_c = e(cd) X_c Z_d on every cell: op_Z's row {y*d} = idx/p^M, rolled
    by op_X's shift index_of(c), equals idx + {cd} mod p^M."""
    idx, m = row
    if cd.exp > m:
        return False
    shifted = (idx + cd.num * p ** (m - cd.exp)) % p**m
    return bool(np.array_equal(np.roll(idx, -shift), shifted))


def _commutation_deviation(state: StateVector, cd: PFraction, shift: int, row) -> float:
    """max |Z_d X_c psi - e(cd) X_c Z_d psi|, with op_X's shift and op_Z's row
    applied as op_X and op_Z apply them, so the floats are theirs bit for bit;
    op_Z's roots are evaluated once, for both sides."""
    idx, depth = row
    lhs, rhs = np.roll(state.amplitudes, shift), state.amplitudes
    if depth:  # at depth 0 op_Z copies psi and multiplies nothing
        roots = _roots(idx, state.grid.p**depth)
        lhs, rhs = lhs * roots, rhs * roots
    return float(np.abs(lhs - phase_to_complex(cd) * np.roll(rhs, shift)).max())


def _chirp_exact(grid, a: Fraction, d: Fraction, b: Fraction) -> bool:
    """P_d takes the (a, b) state to (a + d, b) on every cell: {ay^2 + by} + {dy^2}
    = {(a+d)y^2 + by} on the three index rows, lifted to their largest depth M."""
    rows = [_cell_phase_indices(x, y, grid) for x, y in ((a, b), (d, 0), (a + d, b))]
    m = max(depth for _, depth in rows)
    ab, dd, apd = (idx * grid.p ** (m - depth) for idx, depth in rows)
    return bool(np.array_equal((ab + dd) % grid.p**m, apd))


def sweep_operators(seed: int = 0) -> dict:
    """Randomized operator-algebra checks with a fixed seed, at p = 3: 50
    commutations and 25 eigenrelations, each within tol = 1e-9, and 10 chirps.

    Commutation: modulation-after-shift differs from shift-after-modulation
    by the exact global phase e(c*d), checked both exactly on integer
    phase-index rows, on every cell, and numerically on a random state.
    Eigenrelation: the shift and modulation composite fixes each quadratic
    state up to e(-bc-ac^2).  Chirp: relabels quadratic states, checked
    exactly on integer phase-index rows, on every cell.  A negative seed is
    refused (ValueError).
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    p, n_commutation, n_eigen, tol = 3, 50, 25, 1e-9
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for _ in range(n_commutation):
        c = _random_coefficient(rng, p)
        d = _random_coefficient(rng, p)
        vc, vd = int(read_coefficient(c, p).valuation), int(read_coefficient(d, p).valuation)
        r = max(1, -vc)
        k = max(1, -vd, 1 - r)
        grid = make_grid(p, r, k)
        parts = _commutation_parts(grid, c, d)
        failures += not _commutation_exact(p, *parts)
        dev = _commutation_deviation(_random_state(rng, grid), *parts)
        worst = max(worst, dev)
        if dev > tol:
            failures += 1
    eigen_worst = 0.0
    for _ in range(n_eigen):
        a = _random_coefficient(rng, p, -1, 1)
        b = _random_coefficient(rng, p, -1, 1)
        c = _random_coefficient(rng, p, -1, 1)
        rep = eigen_check(a, b, c, p=p, tol=tol)
        eigen_worst = max(eigen_worst, rep.residual)
        if not rep.passed:
            failures += 1
    for _ in range(10):
        a = _random_coefficient(rng, p, -1, 1)
        d = _random_coefficient(rng, p, -1, 1)
        b = _random_coefficient(rng, p, -1, 1)
        r = 1
        k = max(
            required_resolution(a, b, r, p),
            required_resolution(d, 0, r, p),
            required_resolution(a + d, b, r, p),
        )
        failures += not _chirp_exact(make_grid(p, r, k), a, d, b)
    return {
        "schema": 1,
        "suite": "operators",
        "seed": seed,
        "p": p,
        "n_commutation": n_commutation,
        "n_eigen": n_eigen,
        "failures": failures,
        "max_commutation_deviation": worst,
        "max_eigen_residual": eigen_worst,
        "tol": tol,
        "passed": failures == 0,
    }


def _random_state(rng: np.random.Generator, grid) -> StateVector:
    amps = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    return StateVector(grid, amps)


SUITES = {
    "gauss-grid": sweep_gauss_grid,
    "thresholds": sweep_thresholds,
    "operators": sweep_operators,
}
