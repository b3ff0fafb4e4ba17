"""Construction and verification of the p^r + 1 bases of C^(p^r)."""

import numpy as np
import pytest

from padic_mub import build_field, build_mub_set, field_sum_numeric, mub_finite, verify_mub
from padic_mub.errors import CapError
from padic_mub.mub_finite import DEFAULT_DIM_CAP, BasisMatrix, MubReport, PairStat

ORACLE_FIELDS = [
    (3, 1, None), (5, 1, None), (7, 1, None), (3, 2, None), (3, 2, (2, 1, 1)),
    (5, 2, None), (3, 3, None),
]


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
    csv = bases[0].to_csv()
    rows = csv.strip().split("\n")
    assert len(rows) == 3 and len(rows[0].split(",")) == 6  # re/im interleaved
    d = bases[0].to_json_dict()
    assert d["dim"] == 3 and len(d["columns"]) == 3
    rep = verify_mub(bases)
    assert rep.to_json_dict()["schema"] == 1


def test_report_is_deterministic():
    r1 = verify_mub(build_mub_set(build_field(3, 2))).to_json()
    r2 = verify_mub(build_mub_set(build_field(3, 2))).to_json()
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
    assert len(products) == (q - 1) + q


@pytest.mark.parametrize("k", [0, 4, 8])
def test_perturbed_entry_breaks_the_certificate(products, k):
    q = 9
    bases = build_mub_set(build_field(3, 2))
    bad = bases[k].matrix.copy()
    bad[1, 2] *= 1 + 1e-6
    bases[k] = BasisMatrix(bases[k].label, bases[k].a, bad)
    rep = assert_agrees_with_all_pairs(bases)
    assert not rep.passed and rep.max_deviation > rep.tol
    # every pair of the perturbed basis is a direct product, none reused
    assert sum(u is bad or v is bad for u, v in products) == q
    assert len(products) == (q - 1) + (q - 1) + q
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
    assert rep.passed and len(products) == 5 + (5 - 1)


def test_bases_of_another_field_are_multiplied_directly(products):
    bases = build_mub_set(build_field(3, 2))
    other = build_mub_set(build_field(3, 2, modulus=(2, 1, 1)))[3]
    mixed = [*bases, other]
    assert_agrees_with_all_pairs(mixed)
    assert sum(v is other.matrix for _, v in products) == len(bases)


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
