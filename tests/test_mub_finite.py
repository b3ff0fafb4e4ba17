"""Construction and verification of the p^r + 1 bases of C^(p^r)."""

import json
import re
from itertools import combinations, islice

import numpy as np
import pytest

import padic_mub
from padic_mub import build_field, field_sum_numeric, finite_field, mub_finite, verify_mub
from padic_mub.errors import CapError
from padic_mub.finite_field import FieldCtx, irreducible_polynomials
from padic_mub.padic import is_prime
from padic_mub.gauss import roots_of_unity
from padic_mub.mub_finite import DEFAULT_DIM_CAP, FieldMubSet, MubReport

from oracles import BasisMatrix, build_mub_set, pair_stats, report_dict, verify_matrices
from test_finite_field import oracle_mul, oracle_trace

ORACLE_FIELDS = [
    (3, 1, None), (5, 1, None), (7, 1, None), (3, 2, None), (3, 2, (2, 1, 1)),
    (5, 2, None), (3, 3, None),
]
EPS = np.finfo(float).eps


def _pair_row(u, v, target):
    """(min, max, max |mod - target|) of the moduli of one direct product u* v."""
    mods = np.abs(u.conj().T @ v)
    return float(mods.min()), float(mods.max()), float(np.abs(mods - target).max())


def verify_all_pairs(bases, tol=1e-10, ortho_tol=1e-12):
    """The oracle: one dense product per pair, with a running max."""
    d = bases[0].matrix.shape[0]
    target, ortho, max_dev, rows = d**-0.5, 0.0, 0.0, []
    for b in bases:
        ortho = max(ortho, float(np.abs(b.matrix.conj().T @ b.matrix - np.eye(d)).max()))
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            rows.append(_pair_row(bases[i].matrix, bases[j].matrix, target))
            max_dev = max(max_dev, rows[-1][2])
    labels = [b.label for b in bases]
    return MubReport(d, len(bases), target, tol, ortho_tol, max_dev, ortho,
                     max_dev <= tol and ortho <= ortho_tol,
                     lambda: (labels, np.array(rows).reshape(-1, 3), np.arange(len(rows))))


def _summary(report):
    return {k: v for k, v in vars(report).items() if k != "pair_columns"}


def assert_pairs_leave_the_summary(make, n):
    """A report's summary fields are the same whether or not its pair rows
    are read, in any form; the JSON dict is that summary plus the rows."""
    unread, read = make(), make()
    rows = pair_stats(read)
    assert len(rows) == n * (n - 1) // 2 == len(read.to_csv().splitlines()) - 1
    assert read.json_columns()[0] == {"schema": 1, **_summary(unread)}
    assert report_dict(read) == {"schema": 1, **_summary(unread), "pairs": [vars(s) for s in rows]}
    assert _summary(read) == _summary(unread)
    return unread


def assert_same_report(bases):
    got, want = verify_matrices(bases), verify_all_pairs(bases)
    assert report_dict(got) == report_dict(want)
    return got


def _label_differences(p, r):
    """[i, j] = the label index of a_j - a_i, the digitwise difference mod p."""
    digits = np.arange(p**r)[:, None] // p ** np.arange(r) % p
    return (digits[None] - digits[:, None]) % p @ p ** np.arange(r)


def test_four_bases_for_p3_r1():
    bases = build_mub_set(build_field(3, 1))
    assert len(bases) == 4
    assert all(b.matrix.shape == (3, 3) for b in bases)
    rep = verify_matrices(bases)
    assert rep.passed
    assert rep.max_deviation < 1e-12
    assert abs(rep.target - 1 / np.sqrt(3)) < 1e-15


def test_ten_bases_for_p3_r2():
    bases = build_mub_set(build_field(3, 2))
    assert len(bases) == 10
    rep = verify_matrices(bases)
    assert rep.passed
    assert rep.target == pytest.approx(1 / 3)
    assert len(pair_stats(rep)) == 45  # exhaustive 10*9/2 pair check


def test_identical_bases_are_not_unbiased():
    bases = build_mub_set(build_field(3, 1))
    rep = verify_matrices([bases[0], bases[0]])
    assert not rep.passed
    # intra-pair moduli are 0/1, nowhere near 1/sqrt(d)
    assert pair_stats(rep)[0].min_mod == pytest.approx(0.0, abs=1e-12)
    assert pair_stats(rep)[0].max_mod == pytest.approx(1.0, abs=1e-12)


def test_p2_construction_emits_matrices_for_exploration():
    bases = build_mub_set(build_field(2, 1))
    assert len(bases) == 3
    assert all(b.matrix.shape == (2, 2) for b in bases)


def test_unitarity_of_every_basis():
    for p, r in ((3, 1), (5, 1), (3, 2), (7, 1)):
        bases = build_mub_set(build_field(p, r))
        d = p**r
        for b in bases:
            assert np.abs(b.matrix.conj().T @ b.matrix - np.eye(d)).max() < 1e-12


def test_flat_amplitudes_for_finite_labels():
    bases = build_mub_set(build_field(3, 2))
    for b in bases[:-1]:  # all but the computational basis
        assert np.abs(np.abs(b.matrix) - 1 / 3).max() < 1e-13


def test_modulus_independence():
    f2 = build_field(3, 2, modulus=(2, 1, 1))
    rep = verify_matrices(build_mub_set(f2))
    assert rep.passed


def test_inner_products_reduce_to_field_gauss_sums():
    f = build_field(3, 2)
    elems = list(f.elements())
    bases = build_mub_set(f)
    q = f.size
    for ia, a in [(0, elems[0]), (1, elems[1]), (4, elems[4])]:
        for ja, a2 in [(1, elems[1]), (2, elems[2])]:
            cross = bases[ia].matrix.conj().T @ bases[ja].matrix
            for ib, b in [(0, elems[0]), (3, elems[3])]:
                for jb, b2 in [(0, elems[0]), (5, elems[5])]:
                    want = field_sum_numeric(a2 - a, b2 - b) / q
                    assert abs(cross[ib, jb] - want) < 1e-12


def test_dimension_cap(monkeypatch):
    monkeypatch.setattr("padic_mub.finite_field.DEFAULT_FIELD_CAP", 1000)
    f = build_field(5, 4)
    with pytest.raises(CapError, match=f"dimension 625 exceeds cap {DEFAULT_DIM_CAP}"):
        build_mub_set(f)


def test_mixed_dimensions_rejected():
    b3 = build_mub_set(build_field(3, 1))
    b5 = build_mub_set(build_field(5, 1))
    with pytest.raises(ValueError, match=r"one square shape, got shapes \[\(3, 3\), \(5, 5\)\]"):
        verify_matrices([b3[0], b5[0]])


@pytest.mark.parametrize("shapes", [[], [(3, 2)], [(3, 3), (3, 2)], [(3,)], [(0, 0)]],
                         ids=["empty", "3x2", "square-and-3x2", "vector", "0x0"])
def test_bases_of_no_one_square_shape_are_rejected(shapes):
    bases = [BasisMatrix(f"b{n}", None, np.ones(shape, dtype=complex))
             for n, shape in enumerate(shapes)]
    message = f"one square shape, got shapes {sorted(shapes)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_matrices(bases)


def test_exports():
    assert {"FieldMubSet", "MubReport", "verify_mub"} <= set(padic_mub.__all__)
    assert not {"BasisMatrix", "build_mub_set"} & set(padic_mub.__all__)
    rep = verify_mub(FieldMubSet.from_field(build_field(3, 1)))
    assert rep.json_columns()[0]["schema"] == 1


def test_report_is_deterministic():
    for verify in (lambda: verify_matrices(build_mub_set(build_field(3, 2))),
                   lambda: verify_mub(FieldMubSet.from_field(build_field(3, 2)))):
        r1 = json.dumps(report_dict(verify()), sort_keys=True)
        r2 = json.dumps(report_dict(verify()), sort_keys=True)
        assert r1 == r2 and verify().to_csv() == verify().to_csv()


@pytest.mark.parametrize("p,r,modulus", ORACLE_FIELDS)
def test_difference_classes_agree_with_all_pairs(p, r, modulus):
    """Each pair (V_a, V_c) of the plain scan has the moduli of (V_0, V_(c - a)),
    up to rounding: the row of the Gauss-sum table the field path reads for it."""
    field = build_field(p, r, modulus=modulus)
    rep = verify_matrices(build_mub_set(field))
    assert rep.passed
    q, minus = field.size, _label_differences(p, r)
    first = {s.j: _pair_floats([s]) for s in pair_stats(rep) if s.i == 0}
    for s in pair_stats(rep):
        if s.j < q:  # both bases quadratic
            assert np.abs(_pair_floats([s]) - first[minus[s.i, s.j]]).max() <= 8 * EPS, s


@pytest.mark.parametrize("k", [0, 4, 8])
def test_perturbed_entry_breaks_the_certificate(k):
    q = 9
    rep = assert_same_report(_perturbed(k))
    assert not rep.passed and rep.max_deviation > rep.tol
    failing = {(s.i, s.j) for s in pair_stats(rep) if s.max_dev > rep.tol}
    assert failing == {tuple(sorted((k, j))) for j in range(q + 1) if j != k}


# ---------------------------------------------------------------------------
# The previous construction, kept as an oracle, and bases off the field's set
# ---------------------------------------------------------------------------


def _old_phase_matrix(phases, p):
    return ((1.0 / np.sqrt(phases.shape[0])) * roots_of_unity(p))[phases]


def _old_trace_gram(ctx):
    r = ctx.r
    basis = [ctx.element(tuple(1 if i == s else 0 for i in range(r))) for s in range(r)]
    return np.array(
        [[(basis[s] * basis[t]).trace() for t in range(r)] for s in range(r)], dtype=np.int64
    )


def build_by_elements(fieldctx):
    """The previous construction: FieldElem squarings and a FieldElem trace Gram."""
    p, q = fieldctx.p, fieldctx.size
    elems = list(fieldctx.elements())
    coeff = np.array([e.coeffs for e in elems], dtype=np.int64)
    sq_coeff = np.array([(e * e).coeffs for e in elems], dtype=np.int64)
    gram = _old_trace_gram(fieldctx)
    tr_bx = coeff @ gram @ coeff.T % p
    bases = []
    for a in elems:
        tr_ax2 = sq_coeff @ gram @ np.array(a.coeffs, dtype=np.int64) % p
        phases = (tr_ax2[:, None] + tr_bx) % p
        bases.append(BasisMatrix(label=f"a={a}", a=a, matrix=_old_phase_matrix(phases, p)))
    bases.append(BasisMatrix(label="inf", a=None, matrix=np.eye(q, dtype=complex)))
    return bases


@pytest.mark.parametrize("p,r,modulus", [*ORACLE_FIELDS, (7, 2, None), (3, 4, None)])
def test_report_matches_the_previous_verifier(p, r, modulus):
    assert assert_same_report(build_mub_set(build_field(p, r, modulus=modulus))).passed


def _swapped_rows():
    # every entry an exact root of unity over sqrt(q), but no diagonal phase
    # maps V_0 onto the result
    bases = build_mub_set(build_field(3, 2))
    fake = BasisMatrix("swapped", bases[0].a, bases[0].matrix[[0, 2, 1, *range(3, 9)]])
    return [bases[0], fake, fake, *bases[1:]]


def _other_prime():
    # fifth roots of unity laid out with V_1's row phases over V_0
    v0, v1, *rest = build_mub_set(build_field(3, 2))
    m0, m1 = (np.rint(np.angle(v.matrix) * 3 / (2 * np.pi)).astype(np.int64) % 3 for v in (v0, v1))
    fake = BasisMatrix("p=5", build_field(5, 1).element(1),
                       _old_phase_matrix((m0 + (m1 - m0)[:, :1] % 3) % 5, 5))
    return [v0, v1, fake, *rest]


def _other_modulus():
    other = build_mub_set(build_field(3, 2, modulus=(2, 1, 1)))[3]
    return [*build_mub_set(build_field(3, 2)), other]


def _repeated_basis():
    b0 = build_mub_set(build_field(3, 1))[0]
    return [b0, b0, b0]


def _perturbed(k):
    bases = build_mub_set(build_field(3, 2))
    bad = bases[k].matrix.copy()
    bad[1, 2] *= 1 + 1e-6
    bases[k] = BasisMatrix(bases[k].label, bases[k].a, bad)
    return bases


@pytest.mark.parametrize(
    "make",
    [_swapped_rows, _other_prime, *(lambda k=k: _perturbed(k) for k in (0, 4, 8)),
     _other_modulus, _repeated_basis],
    ids=["swapped-rows", "other-prime", "perturbed-0", "perturbed-4", "perturbed-8",
         "other-modulus", "repeated-basis"],
)
def test_report_matches_the_previous_verifier_off_the_field(make):
    assert not assert_same_report(make()).passed


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (5, 2), (7, 2)])
def test_identity_pairs_equal_the_dense_product(p, r):
    # conj(V)^T I = conj(V)^T exactly in IEEE arithmetic, every other term a
    # product with 0: each pair with the identity has the moduli of V's entries,
    # with the computational basis last or first
    bases = build_mub_set(build_field(p, r))
    for order in (bases, [bases[-1], *bases[:-1]]):
        unit = 0 if order[0] is bases[-1] else len(order) - 1
        rep = verify_matrices(order)
        assert rep.passed
        for s in pair_stats(rep):
            if unit in (s.i, s.j):
                mods = np.abs(order[s.i + s.j - unit].matrix)
                assert (s.min_mod, s.max_mod, s.max_dev) == (
                    mods.min(), mods.max(), np.abs(mods - rep.target).max())


def test_non_finite_basis_against_the_identity_is_multiplied_directly():
    # conj(V)^T I holds inf * 0 = nan where |V| holds inf
    eye = np.eye(3, dtype=complex)
    for bad in (np.inf, np.nan):
        v = build_mub_set(build_field(3, 1))[1].matrix.copy()
        v[0, 1] = bad
        bases = [BasisMatrix("inf", None, eye), BasisMatrix("bad", None, v)]
        with np.errstate(invalid="ignore"):
            got, want = verify_matrices(bases), verify_all_pairs(bases)
        # the running max of verify_all_pairs drops a nan, so compare the rows
        assert json.dumps(report_dict(got)["pairs"]) == json.dumps(report_dict(want)["pairs"])
        assert got.passed is False


def test_nan_entry_fails_the_report():
    # a running max from 0.0 never takes a nan, which once let this set PASS
    bases = build_mub_set(build_field(3, 2))
    bases[4].matrix[0, 1] = np.nan  # not in the first pair, so a running max would miss it
    with np.errstate(invalid="ignore"):
        rep = verify_matrices(bases)
    assert rep.passed is False
    assert np.isnan(rep.max_deviation) and np.isnan(rep.ortho_deviation)


@pytest.mark.parametrize("p,r,modulus", [
    (2, 1, None), (2, 3, None), (3, 1, None), (3, 2, None), (3, 2, (2, 1, 1)), (5, 2, None),
    (3, 3, None), (3, 3, (1, 2, 0, 1)), (7, 2, None), (3, 4, None), (2, 5, None),
])
def test_construction_matches_the_element_by_element_one(p, r, modulus):
    field = build_field(p, r, modulus=modulus)
    got, want = build_mub_set(field), build_by_elements(field)
    assert [(b.label, b.a) for b in got] == [(b.label, b.a) for b in want]
    assert all(g.matrix.tobytes() == w.matrix.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("p,r,modulus", [
    (2, 3, None), (3, 3, (1, 2, 0, 1)), (5, 2, None), (7, 1, None), (3, 4, None), (5, 3, None),
])
def test_structure_tensor_and_traces_match_field_arithmetic(p, r, modulus):
    # the oracle multiplies without the field's reduction rows, which the table reads
    field = build_field(p, r, modulus=modulus)
    mult = mub_finite._structure_tensor(field)
    x = [field.element(tuple(int(i == s) for i in range(r))) for s in range(r)]
    for s in range(r):
        for t in range(r):
            assert tuple(mult[s, t]) == oracle_mul(x[s], x[t])
    assert [int(v) for v in np.einsum("ktt->k", mult) % p] == [oracle_trace(e) for e in x]


def test_int64_guard_refuses_before_building(monkeypatch):
    def built(*args):
        raise AssertionError("an element or array was built or read")

    # _trace_rows both builds a field's arrays and reads them from its cache
    monkeypatch.setattr(mub_finite, "_trace_rows", built)
    monkeypatch.setattr(FieldCtx, "elements", built)
    monkeypatch.setattr("padic_mub.finite_field.DEFAULT_FIELD_CAP", 10**7)
    monkeypatch.setattr(mub_finite, "DEFAULT_DIM_CAP", 10**7)
    # (p - 1)^3 passes 2^63 - 1 between these two primes
    with pytest.raises(CapError, match="int64"):
        build_mub_set(build_field(2097169, 1))
    with pytest.raises(AssertionError, match="was built"):
        build_mub_set(build_field(2097143, 1))


def _trace_tables_old(ctx):
    """mub_finite._trace_tables as it was, every array built on each call."""
    p, r, q = ctx.p, ctx.r, ctx.size
    mult = mub_finite._structure_tensor(ctx)
    gram = np.einsum("stk,k->st", mult, np.einsum("ktt->k", mult) % p) % p
    coeff = np.arange(q)[:, None] // p ** np.arange(r) % p
    sq_coeff = np.einsum("xi,xj,ijk->xk", coeff, coeff, mult) % p
    tr_bx = (coeff @ gram % p) @ coeff.T % p
    tr_ax2 = (sq_coeff @ gram % p) @ coeff.T % p
    return tr_ax2, tr_bx


def _assert_old_tables(field):
    for got, want in zip(mub_finite._trace_tables(field), _trace_tables_old(field), strict=True):
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)


def test_int64_guard_refuses_a_field_whose_rows_are_cached(monkeypatch):
    field = build_field(3, 2)
    rows = mub_finite._trace_rows(field)
    # r^2 (p - 1)^3 is 32 on F_9: a bound of 32 passes it, 31 refuses it
    monkeypatch.setattr(mub_finite, "INT64_MAX", 32)
    _assert_old_tables(field)
    monkeypatch.setattr(mub_finite, "INT64_MAX", 31)
    with pytest.raises(CapError, match="int64"):
        mub_finite._trace_tables(field)
    assert mub_finite._trace_rows(field) is rows


def _odd_fields(max_q):
    """Every odd (p, r) with p^r <= max_q, under its default and its second modulus."""
    for p in range(3, max_q + 1, 2):
        if not is_prime(p):
            continue
        for r in range(1, max_q.bit_length()):
            if p**r <= max_q:
                for modulus in islice(irreducible_polynomials(p, r), 2):
                    yield pytest.param(p, r, modulus, id=f"{p}^{r}-{''.join(map(str, modulus))}")


def _pair_floats(rows):
    return np.array([(s.min_mod, s.max_mod, s.max_dev) for s in rows])


def _assert_trace_tables_additive(field):
    p, minus = field.p, _label_differences(field.p, field.r)
    for table in mub_finite._trace_tables(field):
        assert table.dtype == np.int64 and table.min() >= 0 and table.max() < p
        # table[x, a_j - a_i] = table[x, a_j] - table[x, a_i] mod p
        assert np.array_equal(table[:, minus], (table[:, None, :] - table[:, :, None]) % p)


@pytest.mark.parametrize("p,r,modulus", list(_odd_fields(125)))
def test_field_set_report_agrees_with_the_matrix_path(p, r, modulus):
    field = build_field(p, r, modulus=modulus)
    got = verify_mub(FieldMubSet.from_field(field))
    if r == 1 and field.modulus != build_field(p, 1).modulus:
        # F_p under x + c is F_p under x (test_every_linear_modulus_gives_one_prime_field)
        default = verify_mub(FieldMubSet.from_field(build_field(p, 1)))
        assert report_dict(got) == report_dict(default)
        return
    q, bases = field.size, build_mub_set(field)
    assert got.passed is True and (got.dim, got.target) == (q, q**-0.5)
    assert [(s.i, s.j, s.labels) for s in pair_stats(got)] == [
        (i, j, (bases[i].label, bases[j].label)) for i, j in combinations(range(q + 1), 2)]
    if q <= 81:
        want = verify_matrices(bases)
        picked, rows, ortho = pair_stats(got), _pair_floats(pair_stats(want)), want.ortho_deviation
    else:
        # the pairs (V_0, V_c) and (V_a, computational) read each row of the
        # table once; additivity of the trace tables carries them to the rest
        picked = [s for s in pair_stats(got) if s.i == 0 or s.j == q]
        rows = np.array([_pair_row(bases[s.i].matrix, bases[s.j].matrix, got.target)
                         for s in picked])
        ortho = max(np.abs(b.matrix.conj().T @ b.matrix - np.eye(q)).max() for b in bases)
        _assert_trace_tables_additive(field)
    assert np.abs(_pair_floats(picked) - rows).max() <= 8 * EPS
    assert abs(got.max_deviation - rows[:, 2].max()) <= 8 * EPS
    assert abs(got.ortho_deviation - ortho) <= 8 * EPS


@pytest.mark.parametrize("p", [3, 5, 53, 113])
def test_every_linear_modulus_gives_one_prime_field(p):
    """For r = 1 the modulus x + c leaves F_p, its tables and its labels as they are."""
    want = build_field(p, 1)
    tables, labels = mub_finite._trace_tables(want), [str(a) for a in want.elements()]
    moduli = list(irreducible_polynomials(p, 1))
    assert len(moduli) == p
    for modulus in moduli:
        field = build_field(p, 1, modulus=modulus)
        assert all(np.array_equal(g, w) for g, w in zip(mub_finite._trace_tables(field), tables))
        assert [str(a) for a in field.elements()] == labels


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (5, 3), (7, 3)])
def test_field_set_report_without_pairs_keeps_the_summary(p, r):
    bases = FieldMubSet.from_field(build_field(p, r))
    assert len(bases) == p**r + 1
    report = assert_pairs_leave_the_summary(
        lambda: verify_mub(bases, tol=1e-9, ortho_tol=1e-11), p**r + 1)
    assert (report.bases, report.tol, report.ortho_tol) == (p**r + 1, 1e-9, 1e-11)


def test_field_set_computational_pairs_are_the_root_moduli():
    field = build_field(3, 3)
    rep = verify_mub(FieldMubSet.from_field(field))
    bases = build_mub_set(field)
    eye = np.eye(field.size)
    for s in pair_stats(rep):
        if s.labels[1] == "inf":
            mods = np.abs(bases[s.i].matrix.conj().T @ eye)
            assert (s.min_mod, s.max_mod) == (mods.min(), mods.max())
            assert s.max_dev == np.abs(mods - rep.target).max()


@pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (7, 2)])
def test_trace_tables_are_additive(p, r):
    """The reduction of every pair to one row of Gauss sums rests on this alone."""
    _assert_trace_tables_additive(build_field(p, r))


@pytest.mark.parametrize("which", [0, 1], ids=["tr_ax2", "tr_bx"])
def test_a_wrong_trace_entry_fails_the_field_set_report(which):
    field = build_field(3, 2)
    tables = mub_finite._trace_tables(field)
    assert verify_mub(FieldMubSet(field, *tables)).passed
    for entry in np.ndindex(field.size, field.size):
        wrong = [t.copy() for t in tables]
        wrong[which][entry] = (wrong[which][entry] + 1) % field.p
        assert not verify_mub(FieldMubSet(field, *wrong)).passed, entry


def test_field_set_refuses_past_the_dimension_cap_before_building(monkeypatch):
    def built(*args):
        raise AssertionError("a table was built or read")

    field = build_field(19, 2)
    mub_finite._trace_rows(field)  # with the field's rows cached the cap still refuses
    monkeypatch.setattr(mub_finite, "_trace_rows", built)
    with pytest.raises(CapError, match="dimension 361 exceeds cap 343"):
        FieldMubSet.from_field(field)
    monkeypatch.setattr(mub_finite, "DEFAULT_DIM_CAP", 361)
    with pytest.raises(AssertionError, match="was built"):  # the patch is live
        mub_finite._trace_tables(field)


@pytest.mark.parametrize("p,r,modulus", list(_odd_fields(343)))
def test_trace_tables_are_the_old_tables(p, r, modulus):
    _assert_old_tables(build_field(p, r, modulus=modulus))


def test_trace_rows_are_shared_and_read_only_and_the_tables_are_not():
    field = build_field(5, 2)
    left, right = mub_finite._trace_rows(field)
    assert mub_finite._trace_rows(build_field(5, 2, modulus=field.modulus))[0] is left
    assert (left.shape, right.shape) == ((50, 2), (2, 25))
    for rows in (left, right):
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 1
    tables = mub_finite._trace_tables(field)
    for table in tables:
        table += 1
    _assert_old_tables(field)
    assert mub_finite._trace_rows.cache_info().maxsize == finite_field.FIELD_CACHE_SIZE


def test_verify_mub_without_pairs_keeps_the_matrix_summary():
    bases = build_mub_set(build_field(3, 2))
    assert assert_pairs_leave_the_summary(lambda: verify_matrices(bases), 10).bases == 10
