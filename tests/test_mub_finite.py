"""Construction and verification of the p^r + 1 bases of C^(p^r)."""

import json
from itertools import islice

import numpy as np
import pytest

from padic_mub import (
    build_field,
    build_mub_set,
    field_sum_numeric,
    mub_finite,
    verify_mub,
)
from padic_mub.errors import CapError
from padic_mub.finite_field import FieldCtx, irreducible_polynomials
from padic_mub.padic import is_prime
from padic_mub.gauss import roots_of_unity
from padic_mub.mub_finite import DEFAULT_DIM_CAP, BasisMatrix, FieldMubSet, MubReport, PairStat

ORACLE_FIELDS = [
    (3, 1, None), (5, 1, None), (7, 1, None), (3, 2, None), (3, 2, (2, 1, 1)),
    (5, 2, None), (3, 3, None),
]
EPS = np.finfo(float).eps


def verify_all_pairs(bases, tol=1e-10, ortho_tol=1e-12):
    """The oracle: one dense product per pair, with no difference classes."""
    d = bases[0].matrix.shape[0]
    report = MubReport(dim=d, target=d**-0.5, tol=tol, ortho_tol=ortho_tol)
    for b in bases:
        dev = np.abs(b.matrix.conj().T @ b.matrix - np.eye(d)).max()
        report.ortho_deviation = max(report.ortho_deviation, float(dev))
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            mods = np.abs(bases[i].matrix.conj().T @ bases[j].matrix)
            stat = PairStat(
                i=i,
                j=j,
                labels=(bases[i].label, bases[j].label),
                min_mod=float(mods.min()),
                max_mod=float(mods.max()),
                max_dev=float(np.abs(mods - report.target).max()),
            )
            report.pairs.append(stat)
            report.max_deviation = max(report.max_deviation, stat.max_dev)
    report.passed = report.max_deviation <= tol and report.ortho_deviation <= ortho_tol
    return report


def assert_agrees_with_all_pairs(bases):
    got, want = verify_mub(bases), verify_all_pairs(bases)
    assert [(s.i, s.j, s.labels) for s in got.pairs] == [(s.i, s.j, s.labels) for s in want.pairs]
    assert (got.passed, got.ortho_deviation) == (want.passed, want.ortho_deviation)
    for g, w in zip(got.pairs, want.pairs):
        for name in ("min_mod", "max_mod", "max_dev"):
            assert abs(getattr(g, name) - getattr(w, name)) <= 1e-15, (g, w)
    assert abs(got.max_deviation - want.max_deviation) <= 1e-15
    return got


@pytest.fixture
def products(monkeypatch):
    """The operand pairs of every direct pair product verify_mub forms."""
    calls = []
    real = mub_finite._abs_product

    def counting(u, v):
        calls.append((u, v))
        return real(u, v)

    monkeypatch.setattr(mub_finite, "_abs_product", counting)
    return calls


def test_four_bases_for_p3_r1():
    bases = build_mub_set(build_field(3, 1))
    assert len(bases) == 4
    assert all(b.matrix.shape == (3, 3) for b in bases)
    rep = verify_mub(bases)
    assert rep.passed
    assert rep.max_deviation < 1e-12
    assert abs(rep.target - 1 / np.sqrt(3)) < 1e-15


def test_ten_bases_for_p3_r2():
    bases = build_mub_set(build_field(3, 2))
    assert len(bases) == 10
    rep = verify_mub(bases)
    assert rep.passed
    assert rep.target == pytest.approx(1 / 3)
    assert len(rep.pairs) == 45  # exhaustive 10*9/2 pair check


def test_identical_bases_are_not_unbiased():
    bases = build_mub_set(build_field(3, 1))
    rep = verify_mub([bases[0], bases[0]])
    assert not rep.passed
    # intra-pair moduli are 0/1, nowhere near 1/sqrt(d)
    assert rep.pairs[0].min_mod == pytest.approx(0.0, abs=1e-12)
    assert rep.pairs[0].max_mod == pytest.approx(1.0, abs=1e-12)


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
    rep = verify_mub(build_mub_set(f2))
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


def test_dimension_cap():
    f = build_field(5, 4, size_cap=1000)
    with pytest.raises(CapError):
        build_mub_set(f, dim_cap=DEFAULT_DIM_CAP)


def test_mixed_dimensions_rejected():
    b3 = build_mub_set(build_field(3, 1))
    b5 = build_mub_set(build_field(5, 1))
    with pytest.raises(ValueError):
        verify_mub([b3[0], b5[0]])


def test_exports():
    bases = build_mub_set(build_field(3, 1))
    rep = verify_mub(bases)
    assert rep.to_json_dict()["schema"] == 1


def test_report_is_deterministic():
    r1 = json.dumps(verify_mub(build_mub_set(build_field(3, 2))).to_json_dict(), sort_keys=True)
    r2 = json.dumps(verify_mub(build_mub_set(build_field(3, 2))).to_json_dict(), sort_keys=True)
    assert r1 == r2


@pytest.mark.parametrize("p,r,modulus", ORACLE_FIELDS)
def test_difference_classes_agree_with_all_pairs(p, r, modulus):
    rep = assert_agrees_with_all_pairs(build_mub_set(build_field(p, r, modulus=modulus)))
    assert rep.passed


@pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)])
def test_field_set_forms_one_product_per_class_and_computational_pair(products, p, r):
    q = p**r
    rep = verify_mub(build_mub_set(build_field(p, r)))
    assert rep.passed and len(rep.pairs) == q * (q + 1) // 2
    assert len(products) == q - 1  # the q computational pairs form no product


@pytest.mark.parametrize("k", [0, 4, 8])
def test_perturbed_entry_breaks_the_certificate(products, k):
    q = 9
    bases = build_mub_set(build_field(3, 2))
    bad = bases[k].matrix.copy()
    bad[1, 2] *= 1 + 1e-6
    bases[k] = BasisMatrix(bases[k].label, bases[k].a, bad)
    rep = assert_agrees_with_all_pairs(bases)
    assert not rep.passed and rep.max_deviation > rep.tol
    # every pair of the perturbed basis is a direct product, none reused,
    # except its pair with the computational basis, read off entry by entry
    assert sum(u is bad or v is bad for u, v in products) == q - 1
    assert len(products) == (q - 1) + (q - 1)
    failing = {(s.i, s.j) for s in rep.pairs if s.max_dev > rep.tol}
    assert failing == {tuple(sorted((k, j))) for j in range(q + 1) if j != k}


def test_repeated_basis_keeps_its_verdict(products):
    b0 = build_mub_set(build_field(3, 1))[0]
    rep = assert_agrees_with_all_pairs([b0, b0])
    assert not rep.passed and len(products) == 1
    rep = assert_agrees_with_all_pairs([b0, b0, b0])
    assert len(products) == 1 + 1  # every pair of copies is the zero class
    assert not rep.passed and all(s.max_mod == pytest.approx(1.0) for s in rep.pairs)


def test_computational_basis_first_keeps_its_verdict(products):
    bases = build_mub_set(build_field(5, 1))
    rep = assert_agrees_with_all_pairs([bases[-1], *bases[:-1]])
    assert rep.passed and len(products) == 5 - 1


def test_bases_of_another_field_are_multiplied_directly(products):
    bases = build_mub_set(build_field(3, 2))
    other = build_mub_set(build_field(3, 2, modulus=(2, 1, 1)))[3]
    mixed = [*bases, other]
    assert_agrees_with_all_pairs(mixed)
    assert sum(v is other.matrix for _, v in products) == len(bases) - 1  # all but I


def test_exact_phases_off_the_reference_rows_are_multiplied_directly(products):
    # swapping two rows keeps every entry an exact root of unity over sqrt(q),
    # but no diagonal phase maps the reference basis onto the result
    bases = build_mub_set(build_field(3, 2))
    swapped = bases[0].matrix[[0, 2, 1, *range(3, 9)]]
    fake = BasisMatrix("swapped", bases[0].a, swapped)
    rep = assert_agrees_with_all_pairs([bases[0], fake, fake])
    assert not rep.passed
    assert len(products) == 3


def test_phases_of_another_prime_are_multiplied_directly(products):
    # fifth roots of unity laid out with V_1's row phases over V_0: the same
    # integer keys as (V_0, V_1), but not the same product
    v0, v1 = build_mub_set(build_field(3, 2))[:2]
    m0, m1 = (np.rint(np.angle(v.matrix) * 3 / (2 * np.pi)).astype(np.int64) % 3 for v in (v0, v1))
    t1 = (m1 - m0)[:, :1] % 3
    fake = BasisMatrix("p=5", build_field(5, 1).element(1),
                       mub_finite._phase_matrix((m0 + t1) % 5, 5))
    assert_agrees_with_all_pairs([v0, v1, fake])
    assert len(products) == 3


# ---------------------------------------------------------------------------
# The previous verifier and construction, kept as oracles
# ---------------------------------------------------------------------------


def _old_phase_matrix(phases, p):
    return ((1.0 / np.sqrt(phases.shape[0])) * roots_of_unity(p))[phases]


def _old_difference_keys(bases):
    """The full-matrix certificate: every entry's angle, then a row check."""
    ref_ctx, ref_phases = None, None
    keys = np.full((len(bases), bases[0].matrix.shape[0]), -1, dtype=np.int64)
    for key, b in zip(keys, bases):
        if b.a is not None and (ref_ctx is None or b.a.ctx == ref_ctx):
            p = b.a.ctx.p
            phases = np.rint(np.angle(b.matrix) * (p / (2 * np.pi))).astype(np.int64) % p
            if np.array_equal(b.matrix, _old_phase_matrix(phases, p)):
                if ref_phases is None:
                    ref_ctx, ref_phases = b.a.ctx, phases
                diff = (phases - ref_phases) % p
                if (diff == diff[:, :1]).all():
                    key[:] = diff[:, 0]
    return (0 if ref_ctx is None else ref_ctx.p), keys


def verify_by_classes(bases, tol=1e-10, ortho_tol=1e-12):
    """The previous verifier: difference classes, every other pair multiplied."""
    d = bases[0].matrix.shape[0]
    report = MubReport(dim=d, target=d**-0.5, tol=tol, ortho_tol=ortho_tol)
    eye = np.eye(d)
    for b in bases:
        dev = np.abs(b.matrix.conj().T @ b.matrix - eye).max()
        report.ortho_deviation = max(report.ortho_deviation, float(dev))
    p, keys = _old_difference_keys(bases)
    seen = {}
    certified = keys[:, 0] >= 0
    for i in range(len(bases)):
        diffs = (keys - keys[i]) % p if certified[i] else None
        for j in range(i + 1, len(bases)):
            key = diffs[j].tobytes() if diffs is not None and certified[j] else None
            stats = seen.get(key)
            if stats is None:
                mods = np.abs(bases[i].matrix.conj().T @ bases[j].matrix)
                stats = (
                    float(mods.min()),
                    float(mods.max()),
                    float(np.abs(mods - report.target).max()),
                )
                if key is not None:
                    seen[key] = stats
            stat = PairStat(i, j, (bases[i].label, bases[j].label), *stats)
            report.pairs.append(stat)
            report.max_deviation = max(report.max_deviation, stat.max_dev)
    report.passed = report.max_deviation <= tol and report.ortho_deviation <= ortho_tol
    return report


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


def assert_same_report(bases):
    got, want = verify_mub(bases), verify_by_classes(bases)
    assert got.to_json_dict() == want.to_json_dict()
    return got


@pytest.mark.parametrize("p,r,modulus", [*ORACLE_FIELDS, (7, 2, None), (3, 4, None)])
def test_report_matches_the_previous_verifier(p, r, modulus):
    assert assert_same_report(build_mub_set(build_field(p, r, modulus=modulus))).passed


def _swapped_rows():
    bases = build_mub_set(build_field(3, 2))
    fake = BasisMatrix("swapped", bases[0].a, bases[0].matrix[[0, 2, 1, *range(3, 9)]])
    return [bases[0], fake, fake, *bases[1:]]


def _other_prime():
    v0, v1, *rest = build_mub_set(build_field(3, 2))
    m0, m1 = (np.rint(np.angle(v.matrix) * 3 / (2 * np.pi)).astype(np.int64) % 3 for v in (v0, v1))
    fake = BasisMatrix("p=5", build_field(5, 1).element(1),
                       _old_phase_matrix((m0 + (m1 - m0)[:, :1] % 3) % 5, 5))
    return [v0, v1, fake, *rest]


def _perturbed(k):
    bases = build_mub_set(build_field(3, 2))
    bad = bases[k].matrix.copy()
    bad[1, 2] *= 1 + 1e-6
    bases[k] = BasisMatrix(bases[k].label, bases[k].a, bad)
    return bases


@pytest.mark.parametrize(
    "make", [_swapped_rows, _other_prime, *(lambda k=k: _perturbed(k) for k in (0, 4, 8))],
    ids=["swapped-rows", "other-prime", "perturbed-0", "perturbed-4", "perturbed-8"],
)
def test_report_matches_the_previous_verifier_off_the_field(make):
    assert not assert_same_report(make()).passed


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (5, 2), (7, 2)])
def test_identity_pairs_equal_the_dense_product(p, r):
    bases = build_mub_set(build_field(p, r))
    eye = bases[-1].matrix
    for v in (b.matrix for b in bases):
        assert np.array_equal(mub_finite._pair_moduli(v, eye, False, True),
                              np.abs(v.conj().T @ eye))
        assert np.array_equal(mub_finite._pair_moduli(eye, v, True, False),
                              np.abs(eye.conj().T @ v))
    # and in the report, with the identity last and first
    for order in (bases, [bases[-1], *bases[:-1]]):
        got, want = verify_mub(order), verify_all_pairs(order)
        unit = order.index(bases[-1])
        pick = [(s.min_mod, s.max_mod, s.max_dev) for s in got.pairs if unit in (s.i, s.j)]
        assert pick == [(s.min_mod, s.max_mod, s.max_dev) for s in want.pairs if unit in (s.i, s.j)]


def test_identity_nudged_by_one_ulp_is_multiplied_directly(products):
    q = 9
    bases = build_mub_set(build_field(3, 2))
    nudged = np.eye(q, dtype=complex)
    nudged[4, 4] = np.nextafter(1.0, 2.0)
    bases[-1] = BasisMatrix("inf", None, nudged)
    rep = assert_same_report(bases)
    assert sum(u is nudged or v is nudged for u, v in products) == q
    assert len(products) == (q - 1) + q
    assert rep.passed  # one ulp is far inside both tolerances


def test_non_finite_basis_against_the_identity_is_multiplied_directly(products):
    # conj(V)^T I holds inf * 0 = nan where |V| holds inf, so no shortcut
    eye = np.eye(3, dtype=complex)
    for bad in (np.inf, np.nan):
        v = build_mub_set(build_field(3, 1))[1].matrix.copy()
        v[0, 1] = bad
        bases = [BasisMatrix("inf", None, eye), BasisMatrix("bad", None, v)]
        products.clear()
        with np.errstate(invalid="ignore"):
            got, want = verify_mub(bases), verify_by_classes(bases)
        assert json.dumps(got.to_json_dict()["pairs"]) == json.dumps(want.to_json_dict()["pairs"])
        assert got.passed is False
        assert len(products) == 1


def test_nan_entry_fails_the_report():
    # a running max from 0.0 never takes a nan, which once let this set PASS
    bases = build_mub_set(build_field(3, 2))
    bases[1].matrix[0, 1] = np.nan
    with np.errstate(invalid="ignore"):
        rep = verify_mub(bases)
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
    field = build_field(p, r, modulus=modulus)
    mult = mub_finite._structure_tensor(field)
    x = [field.element(tuple(int(i == s) for i in range(r))) for s in range(r)]
    for s in range(r):
        for t in range(r):
            assert tuple(mult[s, t]) == (x[s] * x[t]).coeffs
    assert [int(v) for v in np.einsum("ktt->k", mult) % p] == [e.trace() for e in x]


def test_int64_guard_refuses_before_building(monkeypatch):
    def built(*args):
        raise AssertionError("an element or array was built")

    monkeypatch.setattr(mub_finite, "_structure_tensor", built)
    monkeypatch.setattr(FieldCtx, "elements", built)
    # (p - 1)^3 passes 2^63 - 1 between these two primes
    with pytest.raises(CapError, match="int64"):
        build_mub_set(build_field(2097169, 1, size_cap=10**7), dim_cap=10**7)
    with pytest.raises(AssertionError, match="was built"):
        build_mub_set(build_field(2097143, 1, size_cap=10**7), dim_cap=10**7)


def _odd_fields(max_q):
    """Every odd (p, r) with p^r <= max_q, under its default and its second modulus."""
    for p in range(3, max_q + 1, 2):
        if not is_prime(p):
            continue
        for r in range(1, max_q.bit_length()):
            if p**r <= max_q:
                for modulus in islice(irreducible_polynomials(p, r), 2):
                    yield pytest.param(p, r, modulus, id=f"{p}^{r}-{''.join(map(str, modulus))}")


def _pair_floats(report):
    return np.array([(s.min_mod, s.max_mod, s.max_dev) for s in report.pairs])


@pytest.mark.parametrize("p,r,modulus", list(_odd_fields(125)))
def test_field_set_report_agrees_with_the_matrix_path(p, r, modulus):
    field = build_field(p, r, modulus=modulus)
    got, want = verify_mub(FieldMubSet.from_field(field)), verify_mub(build_mub_set(field))
    assert got.passed is want.passed is True
    assert (got.dim, got.target, got.tol, got.ortho_tol) == (
        want.dim, want.target, want.tol, want.ortho_tol)
    assert [(s.i, s.j, s.labels) for s in got.pairs] == [(s.i, s.j, s.labels) for s in want.pairs]
    assert np.abs(_pair_floats(got) - _pair_floats(want)).max() <= 8 * EPS
    assert abs(got.max_deviation - want.max_deviation) <= 8 * EPS
    assert abs(got.ortho_deviation - want.ortho_deviation) <= 8 * EPS


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (5, 3), (7, 3)])
def test_field_set_report_without_pairs_keeps_the_summary(p, r):
    bases = FieldMubSet.from_field(build_field(p, r))
    assert len(bases) == p**r + 1
    full = verify_mub(bases, tol=1e-9, ortho_tol=1e-11)
    summary = verify_mub(bases, tol=1e-9, ortho_tol=1e-11, pairs=False)
    assert summary.pairs == [] and len(full.pairs) == (p**r + 1) * p**r // 2
    assert vars(summary) == {**vars(full), "pairs": []}
    assert (full.tol, full.ortho_tol) == (1e-9, 1e-11)


def test_field_set_computational_pairs_are_the_root_moduli():
    field = build_field(3, 3)
    rep = verify_mub(FieldMubSet.from_field(field))
    bases = build_mub_set(field)
    eye = np.eye(field.size)
    for s in rep.pairs:
        if s.labels[1] == "inf":
            mods = mub_finite._pair_moduli(bases[s.i].matrix, eye, False, True)
            assert (s.min_mod, s.max_mod) == (mods.min(), mods.max())
            assert s.max_dev == np.abs(mods - rep.target).max()


@pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (7, 2)])
def test_trace_tables_are_additive(p, r):
    """The reduction of every pair to one row of Gauss sums rests on this alone."""
    q = p**r
    digits = np.arange(q)[:, None] // p ** np.arange(r) % p
    minus = (digits[None] - digits[:, None]) % p @ p ** np.arange(r)  # label of a_j - a_i
    for table in mub_finite._trace_tables(build_field(p, r)):
        assert table.dtype == np.int64 and table.min() >= 0 and table.max() < p
        # table[x, a_j - a_i] = table[x, a_j] - table[x, a_i] mod p
        assert np.array_equal(table[:, minus], (table[:, None, :] - table[:, :, None]) % p)


@pytest.mark.parametrize("which", [0, 1], ids=["tr_ax2", "tr_bx"])
def test_a_wrong_trace_entry_fails_the_field_set_report(which):
    field = build_field(3, 2)
    tables = mub_finite._trace_tables(field)
    assert verify_mub(FieldMubSet(field, *tables)).passed
    for entry in np.ndindex(field.size, field.size):
        wrong = [t.copy() for t in tables]
        wrong[which][entry] = (wrong[which][entry] + 1) % field.p
        assert not verify_mub(FieldMubSet(field, *wrong), pairs=False).passed, entry


def test_field_set_refuses_past_the_dimension_cap_before_building(monkeypatch):
    def built(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(mub_finite, "_structure_tensor", built)
    with pytest.raises(CapError, match="dimension 361 exceeds cap 343"):
        FieldMubSet.from_field(build_field(19, 2))


def test_verify_mub_without_pairs_keeps_the_matrix_summary():
    bases = build_mub_set(build_field(3, 2))
    full, summary = verify_mub(bases), verify_mub(bases, pairs=False)
    assert summary.pairs == [] and len(full.pairs) == 45
    assert vars(summary) == {**vars(full), "pairs": []}
