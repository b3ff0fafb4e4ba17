"""Grid models of L^2(Q_p): states, Fourier transform, unitaries, Gram tables."""

import ast
import collections
import importlib.util
import itertools
import json
import math
import pathlib
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_mub import (
    Grid,
    ResolutionError,
    StateVector,
    UnitPhase,
    ball_fourier_closed,
    ball_state,
    canonical_family_params,
    cli,
    eigen_check,
    fourier,
    from_rational,
    gram_report,
    inner,
    inverse_fourier,
    make_grid,
    mub_padic,
    op_P,
    op_X,
    op_Z,
    parse_coefficient,
    phase_mul,
    phase_to_complex,
    quadratic_phase_profile,
    required_resolution,
    sweeps,
    vector_v,
    vector_v_inf,
)
from padic_mub.errors import CapError, OddPrimeError, PrecisionError
from padic_mub.gauss import (
    INT64_MAX,
    MAX_INT64_RESIDUE,
    NEG_INF,
    _table_norm,
    _threshold,
    roots_of_unity,
    threshold_t,
)
from padic_mub.padic import (
    INF,
    PadicNumber,
    PFraction,
    frac_part,
    read_coefficient,
)

from oracles import (
    GramEntry,
    as_fraction,
    frac_valuation,
    gram_entries,
    pfraction_of,
    rational_mod,
    report_dict,
    reported_resolution,
)

W3 = complex(-0.5, np.sqrt(3) / 2)  # e^(2*pi*i/3)


def _quad_phase_indices(grid, a, b, cells=None):
    """mub_padic._quad_phase_indices of the coefficients a and b, read."""
    a, b = (read_coefficient(x, grid.p) for x in (a, b))
    return mub_padic._quad_phase_indices(grid, a, b, cells)


def test_grid_cells_and_measure():
    g = make_grid(3, 0, 1)
    assert g.n == 3 and g.measure == Fraction(1, 3)
    assert [g.rep(i) for i in range(3)] == [0, 1, 2]
    g2 = make_grid(3, 1, 1)
    assert g2.n == 9 and g2.rep(1) == Fraction(1, 3)
    g3 = make_grid(3, 1, 0)
    assert g3.n == 3 and g3.measure == 1
    assert g3.n * g3.measure == 3  # total measure of the r=1 ball


def test_grid_validation_and_cap(monkeypatch):
    with pytest.raises(ValueError):
        Grid(3, 0, 0)
    with pytest.raises(ValueError):
        Grid(4, 1, 1)
    with pytest.raises(CapError, match="3\\^12 cells exceed the cap 100000"):
        make_grid(3, 6, 6)
    make_grid(3, 5, 5)
    monkeypatch.setattr(mub_padic, "DEFAULT_CELL_CAP", 10**4)
    with pytest.raises(CapError, match="3\\^10 cells exceed the cap 10000"):
        make_grid(3, 5, 5)


def test_index_of_roundtrip():
    g = make_grid(3, 1, 2)
    for i in range(g.n):
        assert g.index_of(g.rep(i)) == i
    # indexing is modulo the cell lattice
    assert g.index_of(g.rep(4) + 27) == 4
    with pytest.raises(ValueError):
        g.index_of(Fraction(1, 9))


def test_required_resolution_examples():
    # the unit chirp at r = 1 is cell-constant from k = 1 (the sizing asks 2)
    assert required_resolution(1, 0, 1, 3) == 1
    assert reported_resolution(1, 0, 1, 3) == 2
    assert required_resolution(0, 0, 5, 3) == 0
    assert required_resolution(0, 0, -2, 3) == 3  # the floor r + k >= 1
    assert required_resolution(Fraction(1, 9), 0, 1, 3) == 3
    assert reported_resolution(Fraction(1, 9), 0, 1, 3) == 4


def test_required_resolution_reads_the_shifted_valuations():
    """required_resolution is the cell rule from the Fractions (_cell_k);
    the sizing of the reported grids, reported_resolution with the floor
    r + k >= 1, reads the shifted valuations as the former
    required_resolution did, and is the cell rule max(r, 0) digits finer."""
    p = 3
    coeffs = [Fraction(0)] + [Fraction(2) ** (v % 2) * Fraction(p) ** v for v in range(-8, 9)]
    cases = 0
    for r in range(-6, 9):
        for a in coeffs:
            for b in coeffs:
                got = required_resolution(a, b, r, p)
                assert got == _cell_k([(a, b)], r, p), (r, a, b)
                va, vb = (read_coefficient(x, p).valuation for x in (a, b))
                sized = max(reported_resolution(a, b, r, p), 1 - r)
                shift = max(r, 0)
                assert sized == mub_padic._cell_resolution(va - shift, vb - shift, r, False)
                assert sized >= got
                assert type(got) is int and type(sized) is int
                cases += 1
    assert cases == 4860


def _cell_moves(p, r, k, a, b, center):
    """Whether e(a*x^2 + b*x), or with a center c the indicator of the ball
    c + p^r Z_p, differs between rep(i) and rep(i) + t*p^k, t = 1..3, at
    some cell i of Grid(p, r, k), in exact Fractions: e(y) = e(z) exactly
    when p does not divide the denominator of y - z."""
    n, unit = p ** (r + k), Fraction(p) ** -r
    xs = [i * unit for i in range(4 * n)]  # rep(i) + t*p^k = rep(i + t*n)
    phases = [(a * x + b) * x for x in xs]
    ball = [center is not None and ((x - center) * unit).denominator % p != 0 for x in xs]
    return any((phases[i + t * n] - phases[i]).denominator % p == 0
               or ball[i + t * n] != ball[i] for t in (1, 2, 3) for i in range(n))


def test_cell_resolution_is_the_least_cell_constant_grid():
    """At k = _cell_resolution every chirp of the valuations, and a delta's
    ball, is constant on each cell; at k - 1, where the grid's floor allows
    it, one of them is not.  Grids past 81 cells are left out of the cell
    loop; every case meets k_cell <= the reported grid's k."""
    checked = 0
    units = [(v, u) for v in range(-3, 4) for u in (1, 2)] + [(INF, 0)]
    for p, r, delta in itertools.product((3, 5, 7), range(-2, 4), (False, True)):
        for (va, ua), (vb, ub) in itertools.product(units, repeat=2):
            k = mub_padic._cell_resolution(va, vb, r, delta)
            floor = max(0, 1 - r, r if delta else 0)
            a, b = (0 if v == INF else u * Fraction(p) ** v for v, u in ((va, ua), (vb, ub)))
            assert type(k) is int and floor <= k <= max(floor, reported_resolution(a, b, r, p))
            if p ** (r + k) > 81:
                continue
            center = Fraction(p) ** -r if delta else None
            assert not _cell_moves(p, r, k, a, b, center), (p, r, va, vb, delta)
            assert k == floor or _cell_moves(p, r, k - 1, a, b, center), (p, r, va, vb, delta)
            checked += 1
    assert checked == 4991


def test_reported_grids_are_the_cell_rule_at_shifted_valuations():
    """The reported grids are the cell rule at valuations shifted by
    max(r, 0), the former sizing (reported_resolution with the floor
    r + k >= 1) exactly: gram_report's over v(a), v(b) in -9..9 or a zero,
    r in -6..7, with and without a delta state, and eigen_check's, whose
    linear coefficient is also 2ac and whose r = max(1, -v(c)) >= 1."""
    vals = [*range(-9, 10), INF]
    coeff = {(p, v): Fraction(0) if v == INF else Fraction(p) ** v
             for p in (3, 5) for v in vals}
    cases = 0
    for va, vb, r in itertools.product(vals, vals, range(-6, 8)):
        old = max(1 - r, reported_resolution(coeff[3, va], coeff[3, vb], r, 3))
        shift = max(r, 0)
        for delta in (False, True):
            new = mub_padic._cell_resolution(va - shift, vb - shift, r, delta)
            assert new == max(old, r if delta else 0), (va, vb, r, delta)
            cases += 1
    for p, va, vb, vc in itertools.product((3, 5), vals, vals, range(-9, 10)):
        a, b, c, r = coeff[p, va], coeff[p, vb], coeff[p, vc], max(1, -vc)
        old = max(reported_resolution(a, b, r, p), reported_resolution(0, 2 * a * c, r, p), 1 - r)
        vlin = min(vb, frac_valuation(2 * a * c, p))
        assert mub_padic._cell_resolution(va - r, vlin - r, r, False) == old, (p, va, vb, vc)
        cases += 1
    assert cases == 26400


def test_states_are_built_exactly_on_the_cell_constant_grids():
    """For p <= 7, r in -2..3 and v(a), v(b) in -3..3 or a zero, on every
    grid of at most 81 cells above the floor r + k >= 1: e(a*x^2 + b*x) is
    constant on each cell in exact Fractions (the phase at rep(i) and at
    rep(i) + t*p^k, t = 1..3, differ by a p-adic integer) exactly when
    k >= required_resolution.  There vector_v and quadratic_phase_profile
    succeed, the profile on the least such grid being the phase at each
    representative; below it both raise ResolutionError."""
    built = refused = 0
    valuations = [*range(-3, 4), INF]
    for p, r in itertools.product((3, 5, 7), range(-2, 4)):
        floor = max(0, 1 - r)
        # rep(i) = i*p^(-r) on every grid of radius r, and rep(i) + t*p^k = rep(i + t*n)
        top = max(p**e for e in range(5) if p**e <= 81)
        xs = [i * Fraction(p) ** -r for i in range(4 * top)]
        for va, vb in itertools.product(valuations, repeat=2):
            a, b = (0 if v == INF else u * Fraction(p) ** v for v, u in ((va, 1), (vb, 2)))
            phases = [(a * x + b) * x for x in xs]
            need = required_resolution(a, b, r, p)
            for k in itertools.takewhile(lambda k: p ** (r + k) <= 81, itertools.count(floor)):
                grid, n = make_grid(p, r, k), p ** (r + k)
                constant = all((phases[i + t * n] - phases[i]).denominator % p
                               for t in (1, 2, 3) for i in range(n))
                assert constant == (k >= need), (p, r, k, a, b)
                if not constant:
                    for build in (vector_v, quadratic_phase_profile):
                        with pytest.raises(ResolutionError, match=f"need k >= {need}$"):
                            build(a, b, grid)
                    refused += 1
                    continue
                vector_v(a, b, grid)
                if k == max(need, floor):
                    profile = quadratic_phase_profile(a, b, grid)
                    assert profile == tuple(frac_part(x, p) for x in phases[:n])
                built += 1
    assert (built, refused) == (1763, 733)


def _names_in(node):
    """The names a syntax tree reads: its Name ids, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_one_resolution_rule_checks_and_one_sizes():
    """_cell_resolution is the one resolution rule in src/: every other
    function named for a resolution (required_resolution, gram_report's
    nested `resolution`) reads it, and no other rule is named.  _state_stack
    checks no resolution: it names no rule and no _cell_phase_indices, as
    the grid it is given resolves every state.  It and _quad_phase_indices
    build their phase rows through _phase_rows, the one row kernel.  op_P
    checks its chirp through _cell_phase_indices, vector_v's check, and
    names no rule itself.  _ball_cells, the one formula for the cells of a
    ball, gives the ball indicators, the stack's delta rows and the support
    of the closed ball transform."""
    rules, names, defs = {}, set(), {}
    for path in pathlib.Path(mub_padic.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        names |= set(_names_in(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                defs[(path.name, node.name)] = set(_names_in(node))
                if "resolution" in node.name:
                    rules[(path.name, node.name)] = "_cell_resolution" in defs[path.name, node.name]
    assert rules == {("mub_padic.py", "required_resolution"): True,
                     ("mub_padic.py", "_cell_resolution"): False,
                     ("mub_padic.py", "resolution"): True}
    assert {n for n in names if "resolution" in n} == {
        "required_resolution", "_cell_resolution", "resolution"}
    stack, quad = defs["mub_padic.py", "_state_stack"], defs["mub_padic.py", "_quad_phase_indices"]
    assert not {"_cell_resolution", "required_resolution", "_cell_phase_indices",
                "ResolutionError"} & stack
    assert "_phase_rows" in stack & quad
    chirp = defs["mub_padic.py", "op_P"]
    assert "_cell_phase_indices" in chirp and "_cell_resolution" not in chirp
    for name in ("_ball_indicator", "_state_stack", "ball_fourier_closed"):
        assert "_ball_cells" in defs["mub_padic.py", name], name


def test_vector_v_constant_function():
    g = make_grid(3, 1, 1)
    v = vector_v(0, 0, g)
    assert np.allclose(v.amplitudes, 1.0)
    assert v.norm_sq() == pytest.approx(3.0, abs=1e-12)  # p^r


def test_character_triviality_on_integer_grid():
    # b = 1 pairs trivially with Z_p: integer points never see the character
    g = make_grid(3, 0, 1)
    assert np.allclose(vector_v(0, 1, g).amplitudes, 1.0)
    # depth-1 characters need b with valuation -1
    w = vector_v(0, Fraction(1, 3), g)
    assert np.allclose(w.amplitudes, [1, W3, W3**2])


def test_vector_v_norm_is_ball_measure():
    for a, b, r in ((1, 0, 1), (Fraction(1, 3), 2, 1), (2, Fraction(1, 9), 2)):
        k = required_resolution(a, b, r, 3)
        g = make_grid(3, r, k)
        assert vector_v(a, b, g).norm_sq() == pytest.approx(float(3**r), rel=1e-12)


def test_vector_v_resolution_enforced():
    # the unit chirp is cell-constant on Grid(3, 1, 1), not on Grid(3, 2, 1)
    unit = vector_v(1, 0, make_grid(3, 1, 1)).amplitudes
    assert np.allclose(unit, np.exp(2j * np.pi * np.arange(9) ** 2 / 9))  # e(rep(i)^2)
    with pytest.raises(ResolutionError, match="need k >= 2"):
        vector_v(1, 0, make_grid(3, 2, 1))
    with pytest.raises(ResolutionError, match="need k >= 2"):
        quadratic_phase_profile(Fraction(1, 3), 0, make_grid(3, 1, 1))


def test_vector_v_accepts_padic_coefficients():
    g = make_grid(3, 1, 2)
    a = from_rational(1, 1, 3, 6)
    v1 = vector_v(a, 0, g)
    v2 = vector_v(1, 0, g)
    assert np.array_equal(v1.amplitudes, v2.amplitudes)
    with pytest.raises(PrecisionError):
        vector_v(from_rational(1, 1, 3, 1), 0, g)  # known only mod 3


def test_representative_independence():
    # re-evaluating the amplitude phase at a second cell representative
    # gives the same exact fraction
    g = make_grid(3, 1, 3)
    a, b = Fraction(1, 3), 2
    assert g.k >= required_resolution(a, b, g.r, 3)
    profile = quadratic_phase_profile(a, b, g)
    for i in (0, 1, 5, 17, 26):
        for t in (1, 2):
            x2 = g.rep(i) + t * Fraction(3) ** g.k
            assert frac_part(a * x2 * x2 + b * x2, 3) == profile[i]


def test_vector_v_inf_support_and_norm():
    g = make_grid(3, 1, 1)
    v = vector_v_inf(0, g)
    assert v.amplitudes[0] == 3
    assert np.abs(v.amplitudes[1:]).max() == 0
    assert v.norm_sq() == pytest.approx(3.0)  # 9 * (1/3)


def test_vector_v_inf_orthogonality_threshold():
    # <v_inf(b')|v_inf(b)> = 0 exactly when v(b-b') < r
    g = make_grid(3, 1, 1)
    u = vector_v_inf(0, g)
    w = vector_v_inf(1, g)  # v(1-0) = 0 < r = 1
    assert abs(inner(u, w)) < 1e-12
    w2 = vector_v_inf(9, g)  # v(9) = 2 >= r: same cell as b=0
    assert abs(inner(u, w2) - 3) < 1e-12
    assert abs(inner(u, u) - 3) < 1e-12


def test_vector_v_inf_preconditions():
    with pytest.raises(ResolutionError):
        vector_v_inf(0, make_grid(3, 2, 1))
    with pytest.raises(ValueError):
        vector_v_inf(Fraction(1, 9), make_grid(3, 1, 1))


def test_inner_diag_and_cross_moduli():
    r, p = 1, 3
    params = [(0, 0), (0, 1), (1, 0), (2, 2)]
    k = max(required_resolution(a, b, r, p) for a, b in params)
    g = make_grid(p, r, k)
    states = {ab: vector_v(*ab, g) for ab in params}
    assert inner(states[(0, 0)], states[(0, 0)]).real == pytest.approx(3.0)
    assert abs(inner(states[(0, 1)], states[(0, 0)])) < 1e-12
    # a != a' with v(a - a') = 0: modulus p^0 = 1
    assert abs(inner(states[(1, 0)], states[(0, 0)])) == pytest.approx(1.0, abs=1e-12)
    assert abs(inner(states[(2, 2)], states[(1, 0)])) == pytest.approx(1.0, abs=1e-12)


def test_inner_rejects_grid_mismatch():
    u = vector_v(0, 0, make_grid(3, 1, 1))
    w = vector_v(0, 0, make_grid(3, 1, 2))
    with pytest.raises(ValueError):
        inner(u, w)


def test_inner_cross_modulus_p_to_half_valuation():
    # v(a - a') = 1 at sufficient truncation gives modulus p^(1/2)
    p, r = 3, 2
    a1, a2 = Fraction(3), Fraction(6)
    k = max(required_resolution(a1, 0, r, p), required_resolution(a2, 0, r, p))
    g = make_grid(p, r, k)
    got = abs(inner(vector_v(a2, 0, g), vector_v(a1, 0, g)))
    assert got == pytest.approx(np.sqrt(3), rel=1e-12)


def test_fourier_ball_example():
    # the transform of the scaled ball indicator is e(y z) p^(-r/2) on p^(-r)Z_p
    for scale, z in ((0, Fraction(0)), (1, Fraction(1)), (1, Fraction(1, 3)), (2, Fraction(1, 3))):
        r0 = max(0, -int(frac_valuation(z, 3)) if z else 0, -scale)
        g = make_grid(3, r0, max(scale + 1, 1 - r0))
        psi = ball_state(z, scale, g)
        assert psi.norm_sq() == pytest.approx(1.0, abs=1e-12)
        phat = fourier(psi)
        closed = ball_fourier_closed(z, scale, phat.grid)
        assert np.abs(phat.amplitudes - closed).max() < 1e-10


def test_fourier_self_dual_unit_ball():
    g = make_grid(3, 0, 1)
    psi = ball_state(0, 0, g)
    phat = fourier(psi)
    assert phat.grid == Grid(3, 1, 0)
    closed = ball_fourier_closed(0, 0, phat.grid)
    assert np.abs(phat.amplitudes - closed).max() < 1e-12


def test_fourier_of_character_is_delta():
    # at matching (r, k) the transform of the character state is the scaled
    # delta of the same label
    for b in (0, 1, 2):
        g = make_grid(3, 1, 1)
        fv = fourier(vector_v(0, b, g))
        vinf = vector_v_inf(b, Grid(3, 1, 1))
        assert np.abs(fv.amplitudes - vinf.amplitudes).max() < 1e-10


def test_fourier_of_fractional_character_is_delta_cell():
    # non-integer b needs a finer source grid; the image then concentrates on
    # the single dual cell holding -b, with amplitude p^r
    b = Fraction(1, 3)
    g = make_grid(3, 1, 2)
    fv = fourier(vector_v(0, b, g))
    dual = fv.grid
    expect = np.zeros(dual.n, dtype=complex)
    expect[dual.index_of(-b)] = 3.0
    assert np.abs(fv.amplitudes - expect).max() < 1e-10


def test_fourier_scales_past_the_double_range_name_the_scale():
    # p^r past the largest double: fourier raised a bare OverflowError
    psi = ball_state(0, -700, make_grid(3, 700, -699))
    with pytest.raises(ValueError,
                       match=r"^Fourier transform scale 3\^700 exceeds the double range$"):
        fourier(psi)
    # p^-k below the smallest normal double: inverse_fourier returned zeros
    phi = StateVector(Grid(3, -699, 700), np.ones(3))
    with pytest.raises(ValueError,
                       match=r"^inverse Fourier transform scale 3\^-700 exceeds the double range$"):
        inverse_fourier(phi)
    # within the range both transforms scale as before
    phi = StateVector(Grid(3, -600, 601), np.ones(3))
    assert np.array_equal(inverse_fourier(phi).amplitudes, 3.0**-601 * np.fft.fft(np.ones(3)))
    psi = ball_state(0, -600, make_grid(3, 600, -599))
    assert np.array_equal(fourier(psi).amplitudes, 3.0**600 * np.fft.ifft(psi.amplitudes))


def test_plancherel_random_states():
    rng = np.random.default_rng(11)
    for r, k in ((1, 2), (2, 2), (0, 4)):
        g = make_grid(3, r, k)
        for _ in range(5):
            psi = StateVector(g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
            assert fourier(psi).norm_sq() == pytest.approx(psi.norm_sq(), rel=1e-9)


def test_double_fourier_is_reflection():
    rng = np.random.default_rng(5)
    g = make_grid(3, 1, 2)
    amps = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    psi = StateVector(g, amps)
    twice = fourier(fourier(psi))
    assert np.abs(twice.amplitudes - amps[(-np.arange(g.n)) % g.n]).max() < 1e-9


def test_inverse_fourier_roundtrip():
    rng = np.random.default_rng(6)
    g = make_grid(3, 2, 1)
    psi = StateVector(g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
    back = inverse_fourier(fourier(psi))
    assert np.abs(back.amplitudes - psi.amplitudes).max() < 1e-9


def test_operators_preserve_norm():
    rng = np.random.default_rng(7)
    g = make_grid(3, 1, 2)
    psi = StateVector(g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
    for moved in (
        op_X(psi, Fraction(1, 3)),
        op_X(psi, 2),
        op_Z(psi, Fraction(1, 9)),
        op_P(psi, 1),
    ):
        assert moved.norm_sq() == pytest.approx(psi.norm_sq(), rel=1e-12)


def test_operator_preconditions():
    g = make_grid(3, 1, 1)
    psi = vector_v(0, 0, g)
    with pytest.raises(ValueError):
        op_X(psi, Fraction(1, 9))  # outside the domain
    with pytest.raises(ResolutionError):
        op_Z(psi, Fraction(1, 9))  # phase not cell-constant
    # the unit chirp is cell-constant at k = 1; a chirp of v(d) = -1 needs k >= 2
    assert np.allclose(op_P(psi, 1).amplitudes, vector_v(1, 0, g).amplitudes)
    with pytest.raises(ResolutionError, match="need k >= 2"):
        op_P(psi, Fraction(1, 3))


def test_commutation_checks_fail_on_a_shift_one_cell_off():
    """Z_d X_c = e(cd) X_c Z_d numerically through op_X and op_Z, whose floats
    the sweep's check repeats bit for bit; an index_of one cell off fails both
    the exact and the numeric check of the sweep."""
    g = make_grid(3, 1, 2)
    rng = np.random.default_rng(3)
    psi = StateVector(g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
    index_of = Grid.index_of
    for c, d in ((Fraction(1, 3), Fraction(1, 3)), (Fraction(2), Fraction(1, 9)),
                 (Fraction(2, 3), Fraction(1))):
        lhs = op_Z(op_X(psi, c), d)
        rhs = op_X(op_Z(psi, d), c)
        factor = phase_to_complex(frac_part(c * d, 3))
        dev = np.abs(lhs.amplitudes - factor * rhs.amplitudes).max()
        assert dev < 1e-12
        parts = sweeps._commutation_parts(g, c, d)
        assert sweeps._commutation_exact(3, *parts)
        assert sweeps._commutation_deviation(psi, *parts) == dev
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Grid, "index_of", lambda grid, x: (index_of(grid, x) + 1) % grid.n)
            parts = sweeps._commutation_parts(g, c, d)
            assert not sweeps._commutation_exact(3, *parts), (c, d)
            assert sweeps._commutation_deviation(psi, *parts) > 1e-9, (c, d)


def test_eigen_check_examples():
    # a = 0: a pure character shift picks up e(-bc) with zero residual
    rep = eigen_check(0, 1, Fraction(1, 3), p=3, tol=1e-12)
    assert rep.passed
    assert rep.expected_phase == str(frac_part(Fraction(-1, 3), 3))
    # integral c: the phase -bc - ac^2 is a p-adic integer, so trivial
    rep = eigen_check(1, 0, 1, p=3, tol=1e-12)
    assert rep.passed and rep.expected_phase == "0"
    # the derived 8/9 case
    rep = eigen_check(1, 0, Fraction(1, 3), p=3, tol=1e-9)
    assert rep.passed and rep.expected_phase == "8/3^2"
    assert abs(rep.measured_value - rep.expected_value) < 1e-12


class _Sized(Exception):
    pass


def test_eigen_check_sizes_its_grid_as_from_the_fractions(monkeypatch):
    def sized(p, r, k, *rest):
        raise _Sized(r, k)

    monkeypatch.setattr(mub_padic, "make_grid", sized)
    cases = 0
    for p in (2, 3, 5):
        digits = [parse_coefficient(t, p) for t in (f"1 1 *{p}^-3", f"1 0 1 *{p}^2", f"0 0 *{p}^1")]
        coeffs = [0, 1, Fraction(2, p), Fraction(p * p, 7), Fraction(-3, p**4), *digits]
        for a, b, c in itertools.product(coeffs, repeat=3):
            cases += 1
            if any(x is digits[2] for x in (a, b, c)):
                # a zero O(p^3) has no known valuation to size from
                with pytest.raises(PrecisionError, match="its valuation is unknown"):
                    eigen_check(a, b, c, p=p)
                continue
            # the sizing as it reads the coefficients' Fractions
            af, bf, cf = (as_fraction(x, p) for x in (a, b, c))
            vc = frac_valuation(cf, p)
            r = max(1, -int(vc) if vc != INF else 0)
            k = max(reported_resolution(af, bf, r, p), reported_resolution(0, 2 * af * cf, r, p),
                    1 - r)
            with pytest.raises(_Sized) as sized_as:
                eigen_check(a, b, c, p=p)
            assert sized_as.value.args == (r, k), (p, a, b, c)
    assert cases == 3 * 8**3
    with pytest.raises(ValueError, match="lives in Q_5"):
        eigen_check(1, parse_coefficient("1 *5^0", 5), 1, p=3)


def test_chirp_relabels_quadratic_states():
    p, r = 3, 1
    for a, d, b in ((1, 2, 1), (Fraction(1, 3), 1, 0), (2, Fraction(2, 3), Fraction(1, 3))):
        k = max(
            required_resolution(a, b, r, p),
            required_resolution(d, 0, r, p),
            required_resolution(a + d, b, r, p),
        )
        g = make_grid(p, r, k)
        moved = op_P(vector_v(a, b, g), d)
        target = vector_v(a + d, b, g)
        assert np.abs(moved.amplitudes - target.amplitudes).max() < 1e-12
        # exact phase-level equality
        combined = [
            phase_mul(UnitPhase(x), UnitPhase(y)).phase
            for x, y in zip(
                quadratic_phase_profile(a, b, g), quadratic_phase_profile(d, 0, g)
            )
        ]
        assert combined == list(quadratic_phase_profile(a + d, b, g))


def test_gram_report_p3_canonical():
    rep = gram_report(canonical_family_params(3), r=1, p=3)
    assert rep.passed and rep.r_used == 1
    assert rep.max_certified_deviation < 1e-9
    n = 3
    for e in gram_entries(rep):
        fam_i, fam_j = e.i // n, e.j // n
        if fam_i != fam_j:
            assert e.closed == 1.0
        elif e.i == e.j:
            assert e.closed == 3.0
        else:
            assert e.closed == 0.0
    assert set(rep.family_ranks.values()) == {3}


def test_gram_report_p5():
    rep = gram_report(canonical_family_params(5), r=1, p=5)
    assert rep.passed
    assert rep.max_certified_deviation < 1e-9


def test_grid_inner_products_equal_ball_integrals():
    # the discretized pairing and the finite-ring reduction of the integral
    # are independent computations of the same quantity
    from padic_mub import integral_numeric

    p, r = 3, 1
    params = [(0, 0), (1, 0), (2, 1), (Fraction(1, 3), 2), (0, Fraction(1, 3))]
    k = max(required_resolution(a, b, r, p) for a, b in params)
    g = make_grid(p, r, k)
    for a1, b1 in params:
        for a2, b2 in params:
            lhs = inner(vector_v(a2, b2, g), vector_v(a1, b1, g))
            rhs = integral_numeric(p, r, Fraction(a1) - Fraction(a2), Fraction(b1) - Fraction(b2))
            assert abs(lhs - rhs) < 1e-9


def test_gram_report_flags_cross_family_below_threshold():
    # v(a - a') = 2 puts the threshold at 1, so r = 1 is not certified
    rep = gram_report([(0, 0), (9, 0)], r=1, p=3, auto_raise=False)
    cross = [e for e in gram_entries(rep) if e.i != e.j]
    assert cross and all(not e.certified for e in cross)
    raised = gram_report([(0, 0), (9, 0)], r=1, p=3, auto_raise=True)
    assert raised.r_used == 2 and raised.passed


def test_gram_report_flags_uncertified_below_threshold():
    params = [(1, 0), (1, 9)]  # same family, v(b-b') = 2 needs r > 2
    rep = gram_report(params, r=1, p=3, auto_raise=False)
    off = [e for e in gram_entries(rep) if e.i != e.j]
    assert all(not e.certified for e in off)
    assert rep.uncertified_pairs == len(off)
    raised = gram_report(params, r=1, p=3, auto_raise=True)
    assert raised.r_used == 3
    assert raised.passed and raised.uncertified_pairs == 0


def test_gram_report_auto_raise_reports_original_r():
    rep = gram_report(canonical_family_params(3), r=0, p=3)
    assert rep.r_requested == 0 and rep.r_used == 1


def test_gram_report_auto_raise_holds_delta_centers():
    # the delta-delta threshold v(b - b') + 1 = -1 alone left the center
    # -1/9 outside p^(0)Z_p
    params = [(None, 0), (None, Fraction(1, 9))]
    rep = gram_report(params, r=0, p=3)
    assert rep.passed and rep.r_requested == 0 and rep.r_used == 2
    assert rep.uncertified_pairs == 0
    with pytest.raises(ValueError, match="lies outside"):
        gram_report(params, r=0, p=3, auto_raise=False)
    # against the constant state the pair threshold is -inf: only the
    # center asks for r = 2
    rep = gram_report([(0, 0), (None, Fraction(1, 9))], r=0, p=3)
    assert rep.passed and rep.r_used == 2


def test_gram_csv_and_json():
    rep = gram_report(canonical_family_params(3), r=1, p=3)
    header = rep.to_csv().splitlines()[0]
    assert header == "i,j,label_i,label_j,numeric,closed_exact,certified,deviation"
    d = report_dict(rep)
    assert d["schema"] == 1 and d["passed"] is True
    again = gram_report(canonical_family_params(3), r=1, p=3)
    assert json.dumps(d, sort_keys=True) == json.dumps(report_dict(again), sort_keys=True)


def test_statevector_json_schema():
    g = make_grid(3, 0, 1)
    v = vector_v(0, Fraction(1, 3), g)
    assert (v.grid.p, v.grid.r, v.grid.k) == (3, 0, 1)
    assert len(v.amplitudes) == 3
    assert [v.amplitudes[0].real, v.amplitudes[0].imag] == [1.0, 0.0]


# ---------------------------------------------------------------------------
# the old per-cell and per-ordered-pair paths, kept as oracles
# ---------------------------------------------------------------------------


def _ball_fourier_loop(z, scale, dual):
    """ball_fourier_closed as a per-cell Fraction loop."""
    p = dual.p
    out = np.zeros(dual.n, dtype=complex)
    amp = float(p) ** (-scale / 2.0)
    for j in range(dual.n):
        y = dual.rep(j)
        if frac_valuation(y, p) >= -scale:
            out[j] = amp * phase_to_complex(frac_part(y * Fraction(z), p))
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ball_fourier_closed_matches_the_cell_loop(p):
    zs = [0, 1, 2, Fraction(1, p), Fraction(7, p**2), Fraction(5, p**3)]
    grids = [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (0, 3), (3, 0)]
    if p == 3:
        grids += [(2, 3), (4, 1)]
    for r, k in grids:
        dual = Grid(p, r, k)
        for z in zs:
            for scale in range(-1, 3):
                got = ball_fourier_closed(z, scale, dual)
                assert np.array_equal(got, _ball_fourier_loop(z, scale, dual)), (r, k, z, scale)


def _ball_fourier_all_cells(z, scale, dual):
    """ball_fourier_closed as it was: exact phases at every cell of the dual
    grid, of which only the cells it keeps are read."""
    p = dual.p
    idx, depth = _quad_phase_indices(dual, 0, Fraction(z))
    keep = np.arange(0, dual.n, p ** min(max(dual.r - scale, 0), dual.r + dual.k))
    t = 2.0 * math.pi * (idx[keep] / p**depth)
    amp = float(p) ** (-scale / 2.0)
    out = np.zeros(dual.n, dtype=complex)
    out.real[keep] = amp * np.cos(t)
    out.imag[keep] = amp * np.sin(t)
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ball_fourier_closed_matches_the_all_cells_form(p):
    """Every grid (r0, k) of fourier-ball up to 3^10 cells, every ball exponent
    in [-r0, k]: the same bytes as the phases taken at every cell."""
    top = 10 if p == 3 else 6 if p == 5 else 5  # p^top <= 3^10
    for r0 in range(top + 2):
        for k in range(1 - r0, top + 1 - r0):
            dual = Grid(p, k, r0)  # fourier's grid for Grid(p, r0, k)
            for z in (0, Fraction(2, p**r0) + 1, Fraction(-7, p ** (r0 + 1))):
                for scale in range(-r0, k + 1):
                    got = ball_fourier_closed(z, scale, dual)
                    want = _ball_fourier_all_cells(z, scale, dual)
                    assert got.tobytes() == want.tobytes(), (r0, k, z, scale)


def test_quad_phase_indices_at_chosen_cells_are_the_all_cells_entries():
    grid = Grid(5, 2, 3)
    cells = np.array([3124, 0, 7, 7, 625], dtype=np.int64)
    for a, b in ((0, Fraction(3, 25)), (Fraction(2, 5), 0), (Fraction(1, 125), Fraction(4, 5))):
        every, depth = _quad_phase_indices(grid, a, b)
        got, got_depth = _quad_phase_indices(grid, a, b, cells)
        assert got_depth == depth and np.array_equal(got, every[cells])


def _phase_term_old(grid, coeff, degree):
    """mub_padic._phase_term as it was, in Fractions: the unit part
    coeff * p^(-v) as a residue mod p^M."""
    p = grid.p
    if coeff == 0:
        return 0, 0
    v = int(frac_valuation(coeff, p))
    depth = degree * grid.r - v
    if depth <= 0:
        return 0, 0
    return depth, rational_mod(coeff * Fraction(p) ** (-v), p**depth)


def test_integer_phase_terms_and_cells_match_the_fraction_forms():
    """_phase_term and Grid.index_of in integers, against the Fraction forms
    they replaced: the unit part's residue and rational_mod(x * p^r, n)."""
    checked = 0
    for p in (3, 5, 7):
        coeffs = {Fraction(0), *(Fraction(u, w) * Fraction(p) ** e
                                 for u in (1, -2, p + 1, 7 * p - 3)
                                 for w in (1, 2, 11) for e in range(-4, 5))}
        for r in range(-2, 4):
            for k in range(max(1 - r, 0), 5 - r):
                g = Grid(p, r, k)
                for x in coeffs:
                    v = frac_valuation(x, p)
                    for degree in (1, 2):
                        got = mub_padic._phase_term(p, r, read_coefficient(x, p), degree)
                        assert got == _phase_term_old(g, x, degree), (p, r, x, degree)
                    if v >= -r:
                        assert g.index_of(x) == rational_mod(x * Fraction(p) ** r, g.n), (g, x)
                        checked += 1
    assert checked > 2000


def _op_Z_old(psi, d):
    g = psi.grid
    depth, cu = _phase_term_old(g, Fraction(d), 1)
    if depth == 0:
        return psi.amplitudes.copy()
    i = np.arange(g.n, dtype=np.int64)
    idx = i % g.p**depth * cu % g.p**depth
    return psi.amplitudes * roots_of_unity(g.p**depth)[idx]


def _op_P_old(psi, d):
    g = psi.grid
    depth, cu = _phase_term_old(g, Fraction(d), 2)
    if depth == 0:
        return psi.amplitudes.copy()
    i = np.arange(g.n, dtype=np.int64)
    idx = (i % g.p**depth) ** 2 % g.p**depth * cu % g.p**depth
    return psi.amplitudes * roots_of_unity(g.p**depth)[idx]


def test_cell_roots_are_the_cached_table_entries():
    """vector_v and the phase operators evaluate exp(2*pi*i*m/p^M) at their
    cells only; each root is the table entry roots_of_unity(p^M)[m]."""
    rng = np.random.default_rng(5)
    for p, r, k, a, b in ((3, 1, 3, Fraction(1, 3), 2), (5, 1, 3, 2, Fraction(3, 5)),
                          (7, 0, 2, Fraction(3, 7), 1), (3, 2, 4, 1, 0)):
        g = make_grid(p, r, k)
        idx, depth = mub_padic._cell_phase_indices(a, b, g)
        want = roots_of_unity(p**depth)[idx]
        assert np.array_equal(vector_v(a, b, g).amplitudes.view(np.float64),
                              want.view(np.float64)), (p, r, k, a, b)
        psi = StateVector(g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
        got = mub_padic._times_phase(psi, idx, depth).amplitudes
        assert np.array_equal(got.view(np.float64), (psi.amplitudes * want).view(np.float64))


def test_op_Z_and_op_P_match_their_old_index_formulas():
    rng = np.random.default_rng(17)
    checked = 0
    for p, r, k in ((3, 1, 2), (3, 2, 3), (5, 1, 2), (7, 1, 2), (3, 0, 3), (5, -1, 3)):
        g = make_grid(p, r, k)
        psi = StateVector(g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
        for d in (0, 1, 2, p, p**2 + 1, Fraction(1, p), Fraction(4, p**2), Fraction(2, p**3)):
            if d == 0 or frac_valuation(d, p) >= -k:
                assert np.array_equal(op_Z(psi, d).amplitudes, _op_Z_old(psi, d)), (p, r, k, d)
                checked += 1
            if k >= required_resolution(d, 0, r, p):
                assert np.array_equal(op_P(psi, d).amplitudes, _op_P_old(psi, d)), (p, r, k, d)
                checked += 1
    assert checked > 60


def _gram_sizing_ordered(params, r, p, auto_raise):
    """r_used, k_used and the certified flags of the pairs i <= j, computed
    over all n^2 ordered pairs as gram_report once did."""
    ab = [
        (None if mub_padic._normalize_family(a) is None else as_fraction(a, p),
         as_fraction(b, p))
        for a, b in params
    ]
    min_r = {
        (i, j): _old_pair_min_r(p, ai, bi, aj, bj)
        for i, (ai, bi) in enumerate(ab)
        for j, (aj, bj) in enumerate(ab)
    }
    assert all(m == min_r[j, i] for (i, j), m in min_r.items())
    r_used = r
    if auto_raise:
        r_used = max(r, int(max((m for m in min_r.values() if m != NEG_INF), default=r)))
        # a delta state's center -b must lie in the domain p^(-r)Z_p
        r_used = max([r_used, *(-frac_valuation(bi, p) for ai, bi in ab if ai is None and bi)])
    k = 1 - r_used
    if any(ai is None for ai, _ in ab):
        k = max(k, r_used)
    for ai, bi in ab:
        if ai is not None:
            k = max(k, reported_resolution(ai, bi, r_used, p))
        for aj, bj in ab:
            if ai is not None and aj is not None:
                k = max(k, reported_resolution(ai - aj, bi - bj, r_used, p))
    n = len(ab)
    return r_used, k, [r_used >= min_r[i, j] for i in range(n) for j in range(i, n)]


def _mixed_param_sets():
    """(p, params, largest r whose grid fits the default cell cap): digit
    strings, repeated residue classes, both label spellings of the deltas."""
    digits = parse_coefficient("2 1 0 0 0 0 0 0 0 0 *3^0", 3)  # 5, known mod 3^10
    a_digits = parse_coefficient("1 2 0 0 0 0 0 0 0 *3^-1", 3)  # 7/3, known mod 3^8
    yield 3, canonical_family_params(3, [0, 1, 4, Fraction(1, 3), Fraction(10, 3), digits]), 2
    yield 3, [(0, 0), (9, 0), (None, 0), (None, 9), (1, Fraction(1, 3)),
              (a_digits, 2), (Fraction(1, 3), 0), ("inf", 3)], 2
    yield 3, [(1, 0), (1, 3), (10, 0), (None, 3), (None, 0)], 2
    yield 5, canonical_family_params(5, [0, 5, Fraction(2, 5)]), 2
    yield 7, [(a, b) for a in (0, 3, None) for b in (0, 1, 2)], 1


def test_gram_report_pairs_match_the_ordered_pair_sizing():
    cases = 0
    for p, params, max_r in _mixed_param_sets():
        for r in range(-1, max_r + 1):
            for auto_raise in (True, False):
                r_used, k, certified = _gram_sizing_ordered(params, r, p, auto_raise)
                if any(
                    mub_padic._normalize_family(a) is None
                    and frac_valuation(as_fraction(b, p), p) < -r_used
                    for a, b in params
                ):  # a delta center outside the grid's domain p^(-r)Z_p
                    with pytest.raises(ValueError, match="lies outside"):
                        gram_report(params, r=r, p=p, auto_raise=auto_raise)
                    continue
                rep = gram_report(params, r=r, p=p, auto_raise=auto_raise)
                assert (rep.r_used, rep.k_used) == (r_used, k)
                assert [e.certified for e in gram_entries(rep)] == certified
                assert rep.uncertified_pairs == certified.count(False)
                cases += 1
    assert cases >= 32


def test_gram_report_checks_the_cap_before_any_label_becomes_a_fraction(monkeypatch):
    """A delta centre of valuation -3*10^6 forces r >= 3*10^6 and k >= r:
    the cap is checked on that lower bound, from the digit string's
    valuation, with no Fraction of 3^-3000000 and no big-int valuation."""
    def refused(self):
        raise AssertionError("a label became a Fraction before the cap was checked")

    monkeypatch.setattr(PadicNumber, "to_fraction", refused)
    params = canonical_family_params(3, [parse_coefficient("1 *3^-3000000", 3)])
    with pytest.raises(CapError, match=r"^3\^9000000 cells exceed the cap 100000$"):
        gram_report(params, r=1, p=3)
    # without auto_raise r stays 1, and the lower bound is the exact size
    with pytest.raises(CapError, match=r"^3\^3000002 cells exceed the cap 100000$"):
        gram_report(params, r=1, p=3, auto_raise=False)
    # the centre alone: the delta state's k >= r doubles r + k
    params = [(0, 0), (None, parse_coefficient("1 *3^-3000000", 3))]
    with pytest.raises(CapError, match=r"^3\^6000000 cells exceed the cap 100000$"):
        gram_report(params, r=1, p=3)


def test_pair_differences_need_no_finer_grid_than_their_states():
    p = 3
    coeffs = [0, 1, 2, 3, 9, 10, Fraction(1, 3), Fraction(4, 3), Fraction(2, 9), Fraction(1, 27)]
    for r in range(-1, 3):
        for ai in coeffs:
            for aj in coeffs:
                for bi, bj in ((0, 1), (Fraction(1, 3), Fraction(7, 3)), (9, Fraction(1, 9))):
                    pair = required_resolution(ai - aj, bi - bj, r, p)
                    assert pair <= max(required_resolution(ai, bi, r, p),
                                       required_resolution(aj, bj, r, p))


def test_gram_report_sizes_each_unordered_pair_once(monkeypatch):
    """The pair pass takes its valuations from integer numerators over the
    distinct labels: one per unordered pair of them for the table, plus one
    per delta-chirp pair for its linear coefficient, within the
    |A|^2 + |B|^2 + mixed of the two tables the Fraction pass once built."""
    taken = []
    valuations = mub_padic._valuations

    def counted(num, p):
        taken.append(num.size)
        return valuations(num, p)

    monkeypatch.setattr(mub_padic, "_valuations", counted)
    for p, params in ((3, canonical_family_params(3)),
                      (5, canonical_family_params(5, [0, 1, Fraction(1, 5)]))):
        taken.clear()
        rep = gram_report(params, r=1, p=p)
        assert len(gram_entries(rep)) == len(params) * (len(params) + 1) // 2
        a_labels = {Fraction(0) if mub_padic._normalize_family(a) is None else Fraction(a)
                    for a, _ in params}
        b_labels = {Fraction(b) for _, b in params}
        labels = {mub_padic._normalize_family(a) for a, _ in params} | {b for _, b in params}
        deltas = sum(mub_padic._normalize_family(a) is None for a, _ in params)
        mixed = deltas * (len(params) - deltas)
        assert sum(taken) == len(labels) * (len(labels) - 1) // 2 + mixed, p
        assert sum(taken) <= len(a_labels) ** 2 + len(b_labels) ** 2 + mixed, p


def test_quadratic_phase_profile_checks_resolution():
    # a of valuation -20 has phases of depth 2r + 20 = 22: k = 9 does not
    # resolve it, and unchecked int64 residues wrapped on 78 of the 609 cells
    # sampled below
    a = Fraction(3**20 - 1, 3**20)
    for fn in (quadratic_phase_profile, vector_v):
        with pytest.raises(ResolutionError):
            fn(a, 0, Grid(3, 1, 9))
    # a grid that resolves it needs 3^22-th roots: refused before any cell exists
    with pytest.raises(CapError):
        quadratic_phase_profile(a, 0, Grid(3, 1, 22))
    # at depth 9 the profile is exact on every sampled cell
    g, a = Grid(3, 1, 9), Fraction(3**7 - 1, 3**7)
    profile = quadratic_phase_profile(a, 0, g)
    assert all(profile[i] == frac_part(a * g.rep(i) ** 2, 3) for i in range(0, g.n, 97))


def test_quad_phase_indices_refuses_moduli_past_int64_residues():
    g = Grid(3, 1, 1)
    assert 3**19 <= MAX_INT64_RESIDUE < 3**20
    a = Fraction(1, 3**17)  # depth 2r - v(a) = 19
    idx, depth = _quad_phase_indices(g, a, Fraction(0))
    assert depth == 19
    assert [Fraction(int(m), 3**19) for m in idx] == [
        frac_part(a * g.rep(i) ** 2, 3).value for i in range(g.n)
    ]
    for a, b in ((Fraction(1, 3**18), 0), (0, Fraction(1, 3**19))):  # depth 20
        with pytest.raises(CapError):
            _quad_phase_indices(g, Fraction(a), Fraction(b))


def test_cell_lookups_keep_the_index_of_checks():
    g = make_grid(3, 1, 2)
    psi = vector_v(0, 0, g)
    coarse = from_rational(1, 1, 3, 1)  # known only mod 3, the grid needs 3^2
    for call in (
        lambda: op_X(psi, coarse),
        lambda: vector_v_inf(coarse, g),
        lambda: ball_state(coarse, 1, g),
    ):
        with pytest.raises(PrecisionError):
            call()
    for call in (
        lambda: op_X(psi, Fraction(1, 9)),
        lambda: vector_v_inf(Fraction(1, 9), g),
        lambda: ball_state(Fraction(1, 9), 1, g),
    ):
        with pytest.raises(ValueError):
            call()
    # the delta state of b sits on the p^(k-r) cells of -b + p^r Z_p
    v = vector_v_inf(Fraction(1, 3), g).amplitudes
    hits = sorted(g.index_of(Fraction(-1, 3) + 3 * t) for t in range(3))
    assert np.flatnonzero(v).tolist() == hits and np.all(v[hits] == 3.0)
    # the ball z + Z_p holds the p^k cells of z + t, t = 0..p^k - 1
    ball = ball_state(Fraction(2, 3), 0, g).amplitudes
    hits = sorted(g.index_of(Fraction(2, 3) + t) for t in range(9))
    assert np.flatnonzero(ball).tolist() == hits and np.all(ball[hits] == 1.0)


def _old_pair_closed(p, r, ai, bi, aj, bj):
    if ai is None and aj is None:
        return float(p) ** r if bi == bj else 0.0
    if ai is None or aj is None:
        return 1.0
    if ai == aj:
        return float(p) ** r if bi == bj else 0.0
    v = frac_valuation(ai - aj, p)
    return float(p) ** (int(v) / 2.0)


def _old_pair_min_r(p, ai, bi, aj, bj):
    if ai is None and aj is None:
        if bi == bj:
            return NEG_INF
        return int(frac_valuation(bi - bj, p)) + 1
    if ai is None or aj is None:
        a, b, binf = (aj, bj, bi) if ai is None else (ai, bi, bj)
        bounds = []
        lin = 2 * a * (-binf) + b
        if lin != 0:
            bounds.append(-int(frac_valuation(lin, p)))
        if a != 0:
            bounds.append(math.ceil(Fraction(-int(frac_valuation(a, p)), 2)))
        return max(bounds) if bounds else NEG_INF
    t = threshold_t(p, ai - aj, bi - bj)
    return NEG_INF if t == NEG_INF else int(t) + 1


def _stub_states(mp):
    """Replace the states of gram_report by three-cell placeholders.  Its
    sizing, closed values and certified flags read only the labels, so with
    an unbounded cell cap they can be checked on grids too large to build."""
    def stub(reads, codes, grid, coarse):
        return np.ones((len(codes), 3), dtype=complex)

    mp.setattr(mub_padic, "_state_stack", stub)
    mp.setattr(mub_padic, "DEFAULT_CELL_CAP", math.inf)


def _pair_oracle_check(p, params, r, auto_raise):
    """gram_report with stubbed states against the ordered-pair sizing and
    the old pair forms; returns the number of entries checked."""
    r_used, k, certified = _gram_sizing_ordered(params, r, p, auto_raise)
    rep = gram_report(params, r=r, p=p, auto_raise=auto_raise)
    assert (rep.r_used, rep.k_used) == (r_used, k)
    assert [e.certified for e in gram_entries(rep)] == certified
    assert rep.uncertified_pairs == certified.count(False)
    ab = [
        (None if mub_padic._normalize_family(a) is None else as_fraction(a, p),
         as_fraction(b, p))
        for a, b in params
    ]
    # the k sizing as one reported_resolution call per state
    assert rep.k_used == max([1 - r_used, *(r_used if a is None else reported_resolution(
        a, b, r_used, p) for a, b in ab)])
    for e in gram_entries(rep):
        want = _old_pair_closed(p, r_used, *ab[e.i], *ab[e.j])
        assert e.closed == want, (p, r, ab[e.i], ab[e.j])  # bit for bit
    return len(gram_entries(rep))


def test_pair_closed_forms_match_the_old_ones():
    sets = [(p, params) for p, params, _ in _mixed_param_sets()]
    sets += [(p, canonical_family_params(p)) for p in (3, 5, 7)]
    entries = 0
    with pytest.MonkeyPatch.context() as mp:
        _stub_states(mp)
        for p, params in sets:
            for r in range(-2, 5):
                for auto_raise in (True, False):
                    entries += _pair_oracle_check(p, params, r, auto_raise)
    assert entries > 10000


def _pair_min_r(p, va, a, b, b_delta):
    """Smallest r certifying |<v_inf(b_delta)|v(a, b)>| = 1, from v(a) and
    the linear coefficient b - 2a*b_delta of the chirp seen from -b_delta."""
    half = NEG_INF if va == INF else -(va // 2)
    return max(half, -frac_valuation(b - 2 * a * b_delta, p))


def _gram_entries_loop(params, r, p, auto_raise, moduli):
    """gram_report's pair pass as one Python loop over the pairs i <= j, as
    it was before the pair columns: r_used and the GramEntry list, read off
    the given moduli."""
    ab = [
        (None if mub_padic._normalize_family(a) is None else as_fraction(a, p),
         as_fraction(b, p))
        for a, b in params
    ]
    keys = {}  # (i, j) -> (v(a_i - a_j), v(b_i - b_j)), None for a delta and a chirp
    min_r = {}
    for i, (ai, bi) in enumerate(ab):
        for j, (aj, bj) in enumerate(ab[i:], i):
            v = frac_valuation((0 if ai is None else ai) - (0 if aj is None else aj), p)
            if (ai is None) == (aj is None):
                keys[i, j] = (v, frac_valuation(bi - bj, p))
            else:
                a, b, b_delta = (aj, bj, bi) if ai is None else (ai, bi, bj)
                keys[i, j], min_r[i, j] = None, _pair_min_r(p, v, a, b, b_delta)
    thresholds = {key: _threshold(*key) for key in set(keys.values()) - {None}}
    min_r.update((ij, thresholds[key] + 1) for ij, key in keys.items() if key is not None)
    r_used = r
    if auto_raise:
        needed = [int(m) for m in min_r.values() if m != NEG_INF]
        centers = {b for a, b in ab if a is None and b}
        r_used = max([r, *needed, *(-frac_valuation(b, p) for b in centers)])
    closed_of = {None: 1.0}
    for (dva, dvb), t in thresholds.items():
        big_r = max(r_used, t + 1)
        closed_of[dva, dvb] = _table_norm(p, dva - 2 * big_r, dvb - big_r, 2 * big_r)[0].value
    entries = []
    for (i, j), key in keys.items():
        dev = float(abs(moduli[i, j] - closed_of[key]))
        entries.append(GramEntry(i, j, float(moduli[i, j]), closed_of[key],
                                 r_used >= min_r[i, j], dev))
    return r_used, entries


def _gram_sets():
    yield from ((p, canonical_family_params(p)) for p in (3, 5, 7, 11))
    yield from ((p, params) for p, params, _ in _mixed_param_sets())
    # linear phases deeper than the quadratic ones: v(b) < v(a) - r
    yield 3, [(3, Fraction(1, 3)), (1, Fraction(1, 9)), (Fraction(1, 3), Fraction(2, 27)), (None, 0)]
    yield 5, [(5, Fraction(1, 5)), (1, Fraction(2, 25)), (None, 1), (2, 1)]


def test_gram_columns_match_the_pair_loop():
    """certified, closed and deviation bit for bit (repr tells 0.0 from -0.0
    and a numpy bool from a Python one); grids past the cell cap are sized
    and flagged from the labels alone, with stubbed states."""
    checked = 0
    for p, params in _gram_sets():
        for r in (-1, 0, 1, 2):
            for auto_raise in (True, False):
                try:
                    rep = gram_report(params, r=r, p=p, auto_raise=auto_raise)
                except CapError:
                    with pytest.MonkeyPatch.context() as mp:
                        _stub_states(mp)
                        rep = gram_report(params, r=r, p=p, auto_raise=auto_raise)
                except ValueError as exc:  # a delta center outside p^(-r)Z_p
                    assert not auto_raise and "lies outside" in str(exc)
                    continue
                r_used, entries = _gram_entries_loop(params, r, p, auto_raise, rep.moduli)
                assert rep.r_used == r_used
                assert repr(gram_entries(rep)) == repr(entries), (p, r, auto_raise)
                certified = [e for e in entries if e.certified]
                assert rep.max_certified_deviation == max([0.0, *(e.deviation for e in certified)])
                assert rep.uncertified_pairs == len(entries) - len(certified)
                checked += 1
    assert checked >= 60


def _stack(states, grid, window=None):
    """mub_padic._state_stack of the states, their labels read as gram_report
    reads them, on grid, a delta's centre read to p^window (p^grid.k by
    default)."""
    labels, codes = mub_padic._index_labels(states)
    reads = [None if x is None else read_coefficient(x, grid.p) for x in labels]
    return mub_padic._state_stack(reads, codes, grid, grid.k if window is None else window)


def _cell_k(states, r, p):
    """The k of the coarse grid gram_report builds on, from the Fraction
    labels: k >= 0, r + k >= 1, k >= r for a delta state, and for each chirp
    (a, b) k >= r - v(a), ceil(-v(a)/2) and -v(b)."""
    ks = [0, 1 - r]
    for a, b in states:
        if a is None:
            ks.append(r)
            continue
        va, vb = (frac_valuation(as_fraction(x, p), p) for x in (a, b))
        ks += [] if va == INF else [r - va, math.ceil(Fraction(-va, 2))]
        ks += [] if vb == INF else [-vb]
    return max(ks)


def _state_stack_old(states, grid, coarse=None):
    """The per-label state stack gram_report used before the per-table one:
    one _quad_phase_indices call per label, each label's resolution bound
    from reported_resolution, the rows lifted to their depth by one % over
    the whole stack, and each delta row from its own vector_v_inf.  Every
    check is made on grid and the rows are built on coarse (grid by
    default), as _state_stack does."""
    coarse = grid if coarse is None else coarse
    p, r, quad, lin, deltas, chirps = grid.p, grid.r, {}, {}, {}, []
    for s, (a, b) in enumerate(states):
        if a is None:
            vector_v_inf(b, grid)  # the checks, on the reported grid
            deltas[s] = vector_v_inf(b, coarse).amplitudes
            continue
        for x, degree, seen in ((a, 2, quad), (b, 1, lin)):
            if x not in seen:  # (row, needed k, depth, coefficients) per label
                xf = as_fraction(x, p, need_abs_precision=degree * r)
                ab = (xf, 0) if degree == 2 else (0, xf)
                seen[x] = (len(seen), reported_resolution(*ab, r, p),
                           _phase_term_old(grid, xf, degree)[0], ab)
        (ia, ka, ma, _), (ib, kb, mb, _) = quad[a], lin[b]
        if grid.k < max(ka, kb) or p ** max(ma, mb) > MAX_INT64_RESIDUE:
            mub_padic._cell_phase_indices(a, b, grid)  # raises this state's own error
        chirps.append((s, ia, ib, ma, mb))
    stack = np.empty((len(states), coarse.n), dtype=complex)
    for s, row in deltas.items():
        stack[s] = row
    if chirps:
        s, ia, ib, ma, mb = np.array(chirps).T
        qa, lb = (np.array([_quad_phase_indices(coarse, *t[3])[0] for t in seen.values()])
                  for seen in (quad, lin))
        depth = np.maximum(ma, mb)
        mod = p ** depth[:, None]
        idx = (qa[ia] * (mod // p ** ma[:, None]) + lb[ib] * (mod // p ** mb[:, None])) % mod
        for m in np.unique(depth).tolist():
            at = depth == m
            stack[s[at]] = np.exp(2j * np.pi * np.arange(p**m) / p**m)[idx[at]]
    return stack


def test_state_stack_rows_are_the_state_vectors():
    """gram_report builds its stack on Grid(p, r_used, k_cell), a delta's
    centre read to p^k_used; on it and on the reported grid each row is bit
    for bit the state vector_v or vector_v_inf builds there, and the
    per-label path's row, checked on the reported grid.  Every stack grid
    has p^(r+k) <= DEFAULT_CELL_CAP <= MAX_INT64_RESIDUE, so the stack's one
    int64 check never fires on a Gram table."""
    checked = 0
    stacks = []
    state_stack = mub_padic._state_stack

    def spy(reads, codes, grid, window):
        stacks.append((grid, window))
        assert grid.p ** (grid.r + grid.k) <= mub_padic.DEFAULT_CELL_CAP <= MAX_INT64_RESIDUE
        return state_stack(reads, codes, grid, window)

    for p, params in _gram_sets():
        states = [(mub_padic._normalize_family(a), b) for a, b in params]
        for r in (-1, 0, 1, 2):
            for auto_raise in (True, False):
                stacks.clear()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(mub_padic, "_state_stack", spy)
                    try:
                        rep = gram_report(params, r=r, p=p, auto_raise=auto_raise)
                    except (CapError, ValueError):
                        continue
                grid = Grid(p, rep.r_used, rep.k_used)
                coarse = Grid(p, rep.r_used, _cell_k(states, rep.r_used, p))
                assert stacks == [(coarse, rep.k_used)]
                for on in (grid, coarse):
                    stack = _stack(states, on, grid.k)
                    assert stack.tobytes() == _state_stack_old(states, grid, on).tobytes()
                    for row, (a, b) in zip(stack, states):
                        want = vector_v_inf(b, on) if a is None else vector_v(a, b, on)
                        assert np.array_equal(row, want.amplitudes), (p, on, a, b)
                        assert row.tobytes() == want.amplitudes.tobytes()
                checked += 1
    assert checked >= 40


def test_gram_serializations_match_the_pair_loop():
    for p in (3, 5, 7):
        params = canonical_family_params(p)
        rep = gram_report(params, r=1, p=p)
        r_used, entries = _gram_entries_loop(params, 1, p, True, rep.moduli)
        assert gram_entries(rep) == entries
        max_dev = max([0.0, *(e.deviation for e in entries if e.certified)])
        uncert = sum(not e.certified for e in entries)
        old = {
            "schema": 1, "kind": "gram", "p": p, "r_requested": 1, "r_used": r_used,
            "k_used": rep.k_used, "labels": rep.labels, "family_ranks": rep.family_ranks,
            "tol": rep.tol, "max_certified_deviation": max_dev, "uncertified_pairs": uncert,
            "passed": max_dev <= rep.tol and uncert == 0,
            "entries": [vars(e).copy() for e in entries],
        }
        d = report_dict(rep)
        assert d == old and list(map(type, d.values())) == list(map(type, (old[k] for k in d)))
        assert json.dumps(d, sort_keys=True) == json.dumps(old, sort_keys=True)
        # the CLI writes the same JSON from the report's columns
        assert cli._json_text(rep, {}) == json.dumps(
            cli._round_floats({**old, "config": {}}), sort_keys=True, indent=2)
        lab = rep.labels
        lines = ["i,j,label_i,label_j,numeric,closed_exact,certified,deviation"]
        for e in entries:
            lines.append(
                f"{e.i},{e.j},{lab[e.i]},{lab[e.j]},"
                f"{e.numeric!r},{e.closed!r},{int(e.certified)},{e.deviation!r}"
            )
        assert rep.to_csv() == "\n".join(lines) + "\n"


def test_linear_valuations_match_the_fraction_valuation():
    """Small denominators keep the numerators within int64; many of them,
    and values of valuation 200 and 201, take int_valuation's squaring."""
    rng = np.random.default_rng(5)
    for p, huge in itertools.product((3, 5, 7), (False, True)):
        dens, vals = (rng.integers(1, 30, 40), rng.integers(-4, 5, 40)) if huge else (
            rng.choice([1, 2, 4], 40), rng.integers(-2, 3, 40))
        a = sorted({
            Fraction(int(u), int(w)) * Fraction(p) ** int(e)
            for u, w, e in zip(rng.integers(-60, 60, 40), dens, vals)
        } | {Fraction(0), Fraction(1, 2)}
          | ({Fraction(p**9 + 1, p), Fraction(2 * p**200), Fraction(p**201)} if huge else set()))
        n = len(a)
        # b = a, then 2*a*c for sampled a and c, so some coefficients are exactly 0
        xs, zs = rng.integers(0, n, 30), rng.integers(0, n, 30)
        b = a + [2 * a[x] * a[z] for x, z in zip(xs.tolist(), zs.tolist())]
        ia = np.concatenate([rng.integers(0, n, 400), xs])
        ib = np.concatenate([rng.integers(0, len(b), 400), n + np.arange(30)])
        ic = np.concatenate([rng.integers(0, len(b), 400), zs])
        num, d = mub_padic._numerators(a + b)
        got = mub_padic._linear_valuations(num, d, p, ia, n + ib, n + ic)
        want = [frac_valuation(b[y] - 2 * a[x] * b[z], p)
                for x, y, z in zip(ia.tolist(), ib.tolist(), ic.tolist())]
        assert got.tolist() == want and want.count(INF) >= 30
        lin = num[n + ib] * d - 2 * num[ia] * num[n + ic]
        assert (max(map(abs, lin.tolist())) >= 2**63) is huge
        table = mub_padic._difference_valuations(num, d, p)
        assert table.tolist() == [[frac_valuation(x - y, p) for y in a + b] for x in a + b]
    big = np.array([2 * 3**5000, 0, -7, -(3**40)], dtype=object)
    assert mub_padic._valuations(big, 3).tolist() == [5000, INF, 0, 40]
    for p in (3, 7, 97):  # int64 entries up to the largest power of p below 2^63
        top = max(e for e in range(64) if p**e <= INT64_MAX)
        edge = np.array([p**top, -(p**top), p**top - 1, 2 * p ** (top - 1), 0])
        assert mub_padic._valuations(edge, p).tolist() == [top, top, 0, top - 1, INF]


def _int64_bound(d):
    """The largest N with N*d + 2*N^2 <= 2^63 - 1: _numerators' int64 bound
    for numerators of size up to N over the common denominator d."""
    top = (math.isqrt(d * d + 8 * INT64_MAX) - d) // 4
    assert top * d + 2 * top * top <= INT64_MAX < (top + 1) * d + 2 * (top + 1) ** 2
    return top


@pytest.mark.parametrize("p", [3, 7])
@pytest.mark.parametrize("d", [1, 6])
def test_int64_numerators_hold_their_bound_from_both_sides(p, d):
    """Numerators of size N just below the bound stay int64, where
    y*d - 2*x*z reaches N*d + 2*N^2 at y = -N, x = z = N without wrapping;
    one past it they are Python ints.  Both give the Fraction valuations."""
    for top, dtype in ((_int64_bound(d), np.int64), (_int64_bound(d) + 1, object)):
        nums = [top, -top, top - p**5, top - top % p, p**7, 0, 1]
        values = [Fraction(x, d) for x in nums]
        num, den = mub_padic._numerators(values)
        assert (num.dtype, den, num.tolist()) == (dtype, d, nums)
        _, codes, want = _difference_valuations_old(values, p)
        got = mub_padic._difference_valuations(num, den, p)
        assert got.tolist() == want[np.ix_(codes, codes)].tolist()
        ia, ib, ic = np.array(list(itertools.product(range(len(nums)), repeat=3))).T
        got = mub_padic._linear_valuations(num, den, p, ia, ib, ic)
        assert got.tolist() == [frac_valuation(values[y] - 2 * values[x] * values[z], p)
                                for x, y, z in zip(ia.tolist(), ib.tolist(), ic.tolist())]


def _tool(name):
    """A script of tools/ as a module."""
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gram_report_enters_no_more_frames_for_repeated_states():
    """gram_report does its Python work once per distinct label object and
    valuation key, so listing the same states three times enters no more
    Python frames (tools/gram_frames.py) than listing them once."""
    gram_frames = _tool("gram_frames").gram_frames
    p = 7
    bs = [parse_coefficient(t, p) for t in "4,2,17,7,26,15,6".split(",")]
    params = canonical_family_params(p, bs)
    assert gram_frames(params * 3, 1, p) == gram_frames(params, 1, p)


def _old_stack_error(states, grid):
    """The error the per-state constructors raise first, in params order."""
    try:
        for a, b in states:
            vector_v_inf(b, grid) if a is None else vector_v(a, b, grid)
    except (ValueError, CapError) as exc:
        return type(exc), str(exc)
    return None


def test_state_stack_raises_the_first_failing_states_error():
    """The stack is built on Grid(3, 1, k_cell), which resolves every state,
    a delta's centre read to the window p^k of the reported
    Grid(3, 1, max(2, k_cell)); it raises what the per-state constructors
    raise first on the reported grid.  On a grid of more than
    MAX_INT64_RESIDUE cells it raises the int64 CapError before it reads
    any label."""
    coarse = from_rational(1, 1, 3, 1)  # known only mod 3
    fine_a = parse_coefficient("1 2 *3^0", 3)  # known mod 3^2, as 2r needs
    cases = [
        [(0, 0), (coarse, 0)],  # a known below 3^(2r)
        [(fine_a, 0), (1, coarse), (None, 0)],  # b passes at 3^1: r = 1
        [(1, 0), (Fraction(1, 27), 0), (coarse, 0)],  # a finer chirp first
        [(1, 0), (None, Fraction(1, 9)), (Fraction(1, 27), 0)],  # delta center first
        [(None, coarse), (0, 0)],  # the delta's b needs 3^2, k_cell being 1
        [(1, 1), (1, Fraction(1, 27)), (Fraction(1, 27), 0)],
        [(2, 1), (2, 2), (1, 1)],
    ]
    failing = 0
    for states in cases:
        k = _cell_k(states, 1, 3)
        reported = Grid(3, 1, max(2, k))
        old = _old_stack_error(states, reported)
        if old is None:
            _stack(states, Grid(3, 1, k), reported.k)
            continue
        with pytest.raises(old[0]) as exc:
            _stack(states, Grid(3, 1, k), reported.k)
        assert (type(exc.value), str(exc.value)) == old, states
        failing += 1
    assert failing == 4
    # a phase modulus past int64 residues on a grid that resolves it: the
    # checks run before any row of its 3^22 cells is allocated, and before
    # a later state's window
    huge, states = Grid(3, 1, 22), [(Fraction(1, 3**20), 0), (0, 0), (coarse, 0)]
    old = _old_stack_error(states, huge)
    assert old[0] is CapError and "3^22 exceeds" in old[1]
    with pytest.raises(CapError) as exc:
        _stack(states, Grid(3, 1, _cell_k(states, 1, 3)), huge.k)
    assert str(exc.value) == old[1]
    # the cap is met on the grid's 3^22 cells before any label is read: not
    # the first state's window, which the per-state constructors raise first
    states = [(coarse, 0), (Fraction(1, 3**20), 0)]
    assert _old_stack_error(states, huge)[0] is PrecisionError
    with pytest.raises(CapError) as exc:
        _stack(states, Grid(3, 1, 21))
    assert str(exc.value) == old[1]

    class Unread:
        def __getattr__(self, name):
            raise AssertionError(f"label read: .{name}")

    labels, codes = mub_padic._index_labels(states)
    with pytest.raises(CapError, match=r"^phase modulus 3\^22 exceeds"):
        mub_padic._state_stack([Unread()] * len(labels), codes, Grid(3, 1, 21), 21)


def _labels(p):
    """Family labels: deltas in both spellings, rationals of valuation -3..3
    and digit strings."""
    rational = st.builds(
        lambda u, v: Fraction(u) * Fraction(p) ** v,
        st.integers(-20, 20).filter(lambda u: u % p), st.integers(-3, 3),
    ) | st.just(Fraction(0))
    digits = st.builds(
        lambda ds, e: parse_coefficient(" ".join(map(str, ds)) + f" *{p}^{e}", p),
        st.lists(st.integers(0, p - 1), min_size=1, max_size=6), st.integers(-3, 3),
    )
    coeff = rational | digits
    return st.tuples(st.none() | st.just("inf") | coeff, coeff)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.sampled_from([3, 5, 7]), r=st.integers(-1, 2),
       auto_raise=st.booleans())
def test_gram_pairs_match_the_old_pair_forms(data, p, r, auto_raise):
    params = data.draw(st.lists(_labels(p), min_size=1, max_size=8))
    with pytest.MonkeyPatch.context() as mp:
        _stub_states(mp)
        _pair_oracle_check(p, params, r, auto_raise)


def _difference_valuations_old(values, p):
    """The distinct values, each value's index among them, and the float
    table of v(x - y) over them: one Fraction difference per pair."""
    index: dict = {}
    codes = np.array([index.setdefault(x, len(index)) for x in values], dtype=np.int64)
    distinct = list(index)
    table = np.full((len(distinct), len(distinct)), INF)
    for m, x in enumerate(distinct):
        for n in range(m):
            table[m, n] = table[n, m] = frac_valuation(x - distinct[n], p)
    return distinct, codes, table


def _family_ranks_old(gram, states):
    """One np.linalg.matrix_rank per family block."""
    fams, fam_of = np.unique(["inf" if a is None else str(a) for a, _ in states],
                             return_inverse=True)
    return {fam: int(np.linalg.matrix_rank(gram[np.ix_(fam_of == f, fam_of == f)]))
            for f, fam in enumerate(fams.tolist())}


def _gram_report_old(params, r, p, auto_raise, coarse=False):
    """gram_report as it was before the per-table pass: every label a
    Fraction up front, Fraction difference tables over the a and the b
    labels, one Fraction valuation per delta-chirp pair, k from one
    reported_resolution per distinct label, the per-label state stack and
    one rank per family.  With coarse, the states and the Gram product are
    built on Grid(p, r_used, _cell_k), the grid of k_used still being the
    one reported and checked."""
    raw = [(mub_padic._normalize_family(a), b) for a, b in params]
    ab = [(None if lab is None else as_fraction(lab, p), as_fraction(b, p)) for lab, b in raw]
    a_vals, a_of, va = _difference_valuations_old([0 if a is None else a for a, _ in ab], p)
    b_vals, b_of, vb = _difference_valuations_old([b for _, b in ab], p)
    i, j = np.triu_indices(len(ab))
    dva, dvb = va[a_of[i], a_of[j]], vb[b_of[i], b_of[j]]
    delta = np.array([a is None for a, _ in ab])
    mixed = delta[i] != delta[j]
    chirp, at = np.where(delta[i], j, i)[mixed], np.where(delta[i], i, j)[mixed]
    lin = np.array([frac_valuation(b_vals[b_of[c]] - 2 * a_vals[a_of[c]] * b_vals[b_of[d]], p)
                    for c, d in zip(chirp.tolist(), at.tolist())], dtype=float)
    min_r = np.empty(len(i))
    min_r[mixed] = np.maximum(np.ceil(-dva[mixed] / 2), -lin)
    (av, ac), (bv, bc) = (np.unique(v[~mixed], return_inverse=True) for v in (dva, dvb))
    codes, key_of = np.unique(ac * len(bv) + bc, return_inverse=True)
    keys = [tuple(v if v == INF else int(v) for v in key)
            for key in zip(av[codes // len(bv)].tolist(), bv[codes % len(bv)].tolist())]
    thresholds = [_threshold(*key) for key in keys]
    min_r[~mixed] = np.array(thresholds)[key_of] + 1
    r_used = r
    if auto_raise:
        centers = {b for a, b in ab if a is None and b}
        r_used = max([int(min_r.max(initial=r)), *(-frac_valuation(b, p) for b in centers)])
    chirp_a, chirp_b = {a for a, _ in ab if a is not None}, {b for a, b in ab if a is not None}
    k = max([1 - r_used, *(r_used for a, _ in ab if a is None),
             *(reported_resolution(a, 0, r_used, p) for a in chirp_a),
             *(reported_resolution(0, b, r_used, p) for b in chirp_b)])
    grid = make_grid(p, r_used, k)
    on = Grid(p, r_used, _cell_k(raw, r_used, p)) if coarse else grid
    stack = _state_stack_old(raw, grid, on)
    gram = stack.conj() @ stack.T * float(on.measure)
    moduli = np.abs(gram)
    big_r = [max(r_used, t + 1) for t in thresholds]
    closed_of = [_table_norm(p, x - 2*R, y - R, 2*R)[0].value for (x, y), R in zip(keys, big_r)]
    closed = np.ones(len(i))
    closed[~mixed] = np.array(closed_of)[key_of]
    certified = r_used >= min_r
    deviation = np.abs(moduli[i, j] - closed)
    max_dev = float(deviation[certified].max(initial=0.0))
    uncert = int(np.count_nonzero(~certified))
    return mub_padic.GramReport(
        p=p, r_requested=r, r_used=r_used, k_used=k,
        labels=[f"a={'inf' if a is None else a} b={b}" for a, b in ab], moduli=moduli,
        closed=closed, certified=certified, deviation=deviation,
        family_ranks=_family_ranks_old(gram, raw), tol=1e-9, max_certified_deviation=max_dev,
        uncertified_pairs=uncert, passed=max_dev <= 1e-9 and (uncert == 0 or not auto_raise),
    )


def _outcome(fn, *args, **kwargs):
    """fn's report, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, CapError) as exc:
        return type(exc), str(exc)


def _assert_same_report(new, old, skip=()):
    """Every GramReport field but those named in skip byte for byte: the
    arrays by dtype, shape and tobytes, everything else by type and repr
    (repr tells 0.0 from -0.0).  A grid past the cell cap may be refused
    from a lower bound of its size, before the exact r_used is known."""
    if isinstance(old, tuple):
        if old[0] is CapError and new[0] is CapError:
            size = re.compile(r"\^(\d+) cells exceed the cap")
            assert int(size.search(new[1])[1]) <= int(size.search(old[1])[1]), (new, old)
        else:
            assert new == old
        return
    assert isinstance(new, mub_padic.GramReport), new
    for name, want in vars(old).items():
        if name in skip:
            continue
        got = getattr(new, name)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), name
        else:
            assert (type(got), repr(got)) == (type(want), repr(want)), name


FLOAT_FIELDS = ("moduli", "deviation", "max_certified_deviation")


def _assert_near_report(new, old):
    """new against old built on a finer grid: every field but the floats
    of FLOAT_FIELDS as _assert_same_report checks it, and each modulus
    within 4*n*eps*max(1, closed) of old's, n = p^(r_used + k_used) the
    cells old summed over; a deviation and the largest certified one move
    by no more than their modulus."""
    _assert_same_report(new, old, skip=FLOAT_FIELDS)
    if isinstance(old, tuple):
        return
    i, j = np.triu_indices(len(old.labels))
    scale = np.maximum(1.0, old.closed)
    bound = 4 * float(old.p) ** (old.r_used + old.k_used) * np.finfo(float).eps * scale
    gap = np.abs(new.moduli[i, j] - old.moduli[i, j])
    assert np.all(gap <= bound) and np.all(np.abs(new.moduli[j, i] - old.moduli[j, i]) <= bound)
    assert np.all(np.abs(new.deviation - old.deviation) <= bound)
    assert abs(new.max_certified_deviation - old.max_certified_deviation) <= bound[
        old.certified].max(initial=0.0)


def _gram_params(p):
    """States of the p+1 families: a family sample crossed with a b sample
    (equal family sizes), or states drawn one by one (mostly unequal).
    Labels are ints, Fractions with denominators prime to p or divisible by
    p, and digit strings; deltas come in both spellings."""
    coeff = (
        st.integers(-3 * p, 3 * p)
        | st.builds(lambda u, w, e: Fraction(u, w) * Fraction(p) ** e, st.integers(-30, 30),
                    st.integers(1, 12).filter(lambda w: w % p), st.integers(-2, 2))
        | st.builds(lambda ds, e: parse_coefficient(" ".join(map(str, ds)) + f" *{p}^{e}", p),
                    st.lists(st.integers(0, p - 1), min_size=1, max_size=6), st.integers(-2, 2))
    )
    family = st.none() | st.just("inf") | coeff
    crossed = st.builds(lambda fams, bs: [(a, b) for a in fams for b in bs],
                        st.lists(family, min_size=1, max_size=4), st.lists(coeff, min_size=1,
                                                                           max_size=3))
    return crossed | st.lists(st.tuples(family, coeff), min_size=1, max_size=8)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), p=st.sampled_from([3, 5, 7, 11, 13]), r=st.integers(0, 2),
       auto_raise=st.booleans())
def test_gram_report_matches_the_per_label_path(data, p, r, auto_raise):
    """Bit for bit the per-label path built on the same coarse grid, and
    within rounding the per-label path on the reported grid."""
    params = data.draw(_gram_params(p))
    new = _outcome(gram_report, params, r=r, p=p, auto_raise=auto_raise)
    _assert_same_report(new, _outcome(_gram_report_old, params, r, p, auto_raise, coarse=True))
    _assert_near_report(new, _outcome(_gram_report_old, params, r, p, auto_raise))


def test_gram_report_matches_the_per_label_path_on_fixed_sets():
    """The canonical sets the benchmark and the CLI run, and the mixed sets,
    each through both paths, as test_gram_report_matches_the_per_label_path
    checks them; the canonical ones reach the stacked ranks."""
    sets = [(p, canonical_family_params(p)) for p in (3, 5, 7, 11)]
    sets += [(p, params) for p, params in _gram_sets()]
    # families of one size and unequal ranks: 2, 1 (a repeated state) and 1
    sets += [(3, [(0, 0), (0, 1), (1, 2), (1, 2), (None, 0), ("inf", 0)])]
    stacked = 0
    for p, params in sets:
        for r in (0, 1, 2):
            for auto_raise in (True, False):
                new = _outcome(gram_report, params, r=r, p=p, auto_raise=auto_raise)
                _assert_same_report(new, _outcome(_gram_report_old, params, r, p, auto_raise,
                                                  coarse=True))
                _assert_near_report(new, _outcome(_gram_report_old, params, r, p, auto_raise))
                sizes = collections.Counter(str(mub_padic._normalize_family(a)) for a, _ in params)
                stacked += not isinstance(new, tuple) and len(set(sizes.values())) == 1
    assert stacked >= 15


def test_gram_report_refuses_p2_before_it_reads_a_label(monkeypatch):
    """The odd-prime gate comes first: no label is read and no grid, state
    stack or Gram product is built for p = 2."""
    calls = []

    def spy(name):
        def refuse(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return refuse

    for name in ("read_coefficient", "make_grid", "_state_stack"):
        monkeypatch.setattr(mub_padic, name, spy(name))
    with pytest.raises(OddPrimeError, match="requires an odd prime"):
        gram_report(canonical_family_params(2), r=1, p=2)
    assert calls == []


def test_gram_report_refuses_a_composite_p_before_it_reads_a_label():
    """The prime check follows the odd-prime gate: p = 9 or 10^6 is refused
    as not prime before a label of Q_3, which any reading at p refuses, is
    read, and before the cell cap is met."""
    foreign = parse_coefficient("1 2 *3^0", 3)
    for p in (9, 10**6):
        for params in ([(0, 0), (1, 0)], [(0, foreign), (None, foreign)]):
            with pytest.raises(ValueError, match=f"^{p} is not prime$"):
                gram_report(params, r=1, p=p)


def _profile_loop(a, b, grid):
    """quadratic_phase_profile as one Fraction and one PFraction per cell."""
    idx, depth = mub_padic._cell_phase_indices(a, b, grid)
    den = grid.p**depth
    return tuple(pfraction_of(Fraction(int(m), den), grid.p) for m in idx)


def test_quadratic_phase_profile_matches_the_per_cell_loop():
    cases = [(Fraction(1, 3), 2, make_grid(3, 1, 3))]
    for a, d, b in ((1, 2, 1), (Fraction(1, 3), 1, 0), (2, Fraction(2, 3), Fraction(1, 3))):
        k = max(required_resolution(x, y, 1, 3) for x, y in ((a, b), (d, 0), (a + d, b)))
        g = make_grid(3, 1, k)
        cases += [(a, b, g), (d, 0, g), (a + d, b, g)]
    g = Grid(3, 1, 9)
    cases += [(0, 0, g), (Fraction(3**7 - 1, 3**7), 0, g), (Fraction(2, 9), 5, g)]
    cases += [(Fraction(1, 25), Fraction(3, 5), make_grid(5, 1, 4)), (0, 0, make_grid(7, -1, 3))]
    for a, b, grid in cases:
        assert quadratic_phase_profile(a, b, grid) == _profile_loop(a, b, grid), (a, b, grid)


def _commutation_cells_loop(grid, c, d):
    """The exact commutation check as one Fraction, PFraction and UnitPhase
    per cell: {y*d} + {cd} = {(y + c)*d} at every representative y."""
    p = grid.p
    cd = frac_part(c * d, p)
    return all(
        phase_mul(UnitPhase(frac_part(grid.rep(i) * d, p)), UnitPhase(cd)).phase
        == frac_part((grid.rep(i) + c) * d, p)
        for i in range(grid.n)
    )


def _commutation_exact(grid, c, d):
    """sweeps._commutation_exact on the parts that sweep_operators builds."""
    return sweeps._commutation_exact(grid.p, *sweeps._commutation_parts(grid, c, d))


def _chirp_cells_loop(grid, a, d, b):
    """The exact chirp check as one PFraction sum per cell."""
    combined = [
        phase_mul(UnitPhase(x), UnitPhase(y)).phase
        for x, y in zip(quadratic_phase_profile(a, b, grid), quadratic_phase_profile(d, 0, grid))
    ]
    return combined == list(quadratic_phase_profile(a + d, b, grid))


def _commutation_draws(p, n, seed):
    """(grid, c, d) drawn and sized as sweep_operators draws and sizes them."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        c, d = sweeps._random_coefficient(rng, p), sweeps._random_coefficient(rng, p)
        r = max(1, -int(frac_valuation(c, p)))
        yield make_grid(p, r, max(1, -int(frac_valuation(d, p)), 1 - r)), c, d


def _chirp_draws(p, n, seed):
    """(grid, a, d, b) drawn and sized as sweep_operators draws and sizes them."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        a, d, b = (sweeps._random_coefficient(rng, p, -1, 1) for _ in range(3))
        k = max(required_resolution(x, y, 1, p) for x, y in ((a, b), (d, 0), (a + d, b)))
        yield make_grid(p, 1, k), a, d, b


@pytest.mark.parametrize("p,n", [(3, 340), (5, 120), (7, 40)])  # 500 draws of each
def test_exact_operator_checks_match_the_cell_loops(p, n):
    for grid, c, d in _commutation_draws(p, n, seed=p):
        assert _commutation_exact(grid, c, d) is _commutation_cells_loop(grid, c, d) is True
    for grid, a, d, b in _chirp_draws(p, n, seed=p):
        assert sweeps._chirp_exact(grid, a, d, b) is _chirp_cells_loop(grid, a, d, b) is True


def _one_wrong_cell(bad_call, cell, cell_phase_indices=mub_padic._cell_phase_indices):
    """_cell_phase_indices whose calls number bad_call, bad_call + 3, ...
    (from 0), row bad_call of each chirp check, move one cell's phase by 1/p^M."""
    calls = itertools.count()

    def patched(x, y, grid):
        idx, depth = cell_phase_indices(x, y, grid)
        if next(calls) % 3 == bad_call:
            idx = idx.copy()
            idx[cell % grid.n] = (idx[cell % grid.n] + 1) % grid.p**depth
        return idx, depth

    return patched


def test_exact_operator_checks_fail_on_injected_faults():
    commutation = rolls = chirps = 0
    index_of = Grid.index_of
    for p in (3, 5, 7):
        for grid, c, d in _commutation_draws(p, 40, seed=10 + p):
            m = _quad_phase_indices(grid, 0, d)[1]
            off = Fraction(1, p ** max(m, 1))  # past the depth when op_Z is trivial
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sweeps, "frac_part", lambda q, p, off=off: frac_part(q + off, p))
                assert not _commutation_exact(grid, c, d), (grid, c, d)
            commutation += 1
            if m:  # a trivial op_Z commutes with any roll
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(Grid, "index_of", lambda g, x: index_of(g, x) + 1)
                    assert not _commutation_exact(grid, c, d), (grid, c, d)
                rolls += 1
        rng = np.random.default_rng(p)
        for grid, a, d, b in _chirp_draws(p, 15, seed=10 + p):
            for bad in range(3):
                cell = int(rng.integers(grid.n))
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(sweeps, "_cell_phase_indices", _one_wrong_cell(bad, cell))
                    mp.setattr(mub_padic, "_cell_phase_indices", _one_wrong_cell(bad, cell))
                    new, old = sweeps._chirp_exact(grid, a, d, b), _chirp_cells_loop(grid, a, d, b)
                depth = mub_padic._cell_phase_indices(*((a, b), (d, 0), (a + d, b))[bad], grid)[1]
                assert new is old is (depth == 0), (grid, a, d, b, bad, cell)
                chirps += depth > 0
    assert (commutation, rolls, chirps) == (120, 78, 133)
    # the whole sweep: {cd} moved by 1/27 fails each exact and each numeric check
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweeps, "frac_part", lambda q, p: frac_part(q + Fraction(1, 27), p))
        rep = sweeps.sweep_operators(seed=0)
    assert rep["failures"] == 100 and rep["passed"] is False
    # and one wrong cell in each (d, 0) row, of depth 2 - v(d) >= 1, fails each chirp check
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweeps, "_cell_phase_indices", _one_wrong_cell(1, 1))
        rep = sweeps.sweep_operators(seed=0)
    assert rep["failures"] == 10 and rep["passed"] is False
