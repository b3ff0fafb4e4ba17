"""Code that left `src/` and is kept here as the reference the tests hold
the package to.

* The coefficient-reading helpers as they were before
  `padic.read_coefficient`, unchanged: `as_fraction`, `frac_valuation`,
  `coefficient_valuation` and its window check `_check_window` (from padic),
  `known_valuation` (gauss._known_valuation) and `shifted_valuations`
  (gauss._shifted_valuations).
* `rational_mod`, the Fraction residue that `padic._scaled_residue` replaced.
* `reported_resolution`, the former `required_resolution` from Fractions:
  with the floor r + k >= 1, the k by which `eigen_check` and `gram_report`
  size the grids they report.  `mub_padic` computes it as
  `_cell_resolution`, the least cell-constant k, at valuations shifted by
  max(r, 0); the former `_resolution_of_valuations` read it directly.
* `pfraction_of`, the former `PFraction.from_fraction` behind the former
  `UnitPhase.of`: a second route from a rational to a phase, now taken only
  by `padic.frac_part`.
* The basis-matrix path of `mub_finite`: `BasisMatrix`, `build_mub_set` and
  `verify_matrices`, one Gram per basis and one product |u* v| per pair.
* The per-pair row objects of the two row reports (`PairStat` from
  `pair_stats`, `GramEntry` from `gram_entries`) and `report_dict`, the JSON
  dict with one dict per row that the CLI's column writers must match byte
  for byte.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from padic_mub.errors import PrecisionError
from padic_mub.finite_field import FieldCtx, FieldElem
from padic_mub.gauss import roots_of_unity
from padic_mub.mub_finite import MubReport, _trace_tables
from padic_mub.mub_padic import GramReport
from padic_mub.padic import INF, MAX_VALUATION_BITS, PadicNumber, PFraction, int_valuation


def frac_valuation(q, p):
    if q == 0:
        return INF
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


def as_fraction(x, p, need_abs_precision=None):
    """Coerce a coefficient to an exact rational.

    Rationals pass through unchanged.  A truncated p-adic value is replaced by
    its canonical representative, but only if its retained window reaches
    `need_abs_precision`.  A nonzero digit string with
    |v| > MAX_VALUATION_BITS // p.bit_length() is refused.
    """
    if isinstance(x, PadicNumber):
        _check_window(x, p, need_abs_precision)
        limit = MAX_VALUATION_BITS // p.bit_length()
        if not x.is_zero and abs(x.valuation) > limit:
            raise ValueError(f"coefficient valuation {x.valuation} exceeds the limit "
                             f"|v| <= {limit} at p = {p}")
        return x.to_fraction()
    return x if isinstance(x, Fraction) else Fraction(x)


def coefficient_valuation(x, p, need_abs_precision=None):
    """v_p(as_fraction(x, p, need_abs_precision)), raising what that raises,
    but a digit string's valuation is read off it with no Fraction built:
    +inf for any zero, which as_fraction reads as 0."""
    if isinstance(x, PadicNumber):
        _check_window(x, p, need_abs_precision)
        return INF if x.is_zero else x.valuation
    return frac_valuation(as_fraction(x, p), p)


def _check_window(x, p, need_abs_precision):
    if x.prime != p:
        raise ValueError(f"coefficient lives in Q_{x.prime}, expected Q_{p}")
    if need_abs_precision is not None and x.abs_precision < need_abs_precision:
        raise PrecisionError(
            f"coefficient known only modulo {p}^{x.abs_precision}, "
            f"need {p}^{need_abs_precision}"
        )


def known_valuation(x, p):
    """v(x), refusing a zero O(p^N): its valuation is known only to be >= N."""
    if isinstance(x, PadicNumber) and x.is_zero and x.valuation != INF:
        raise PrecisionError(
            f"coefficient known only as 0 modulo {p}^{x.valuation}: its valuation is unknown"
        )
    return frac_valuation(as_fraction(x, p), p)


def shifted_valuations(p, r, a, b):
    """a and b as rationals known to p^(2r) and p^r, and their shifted
    valuations dx = v(a) - 2r, dy = v(b) - r over the ball p^(-r)Z_p."""
    af = as_fraction(a, p, need_abs_precision=2 * r)
    bf = as_fraction(b, p, need_abs_precision=r)
    return af, bf, frac_valuation(af, p) - 2 * r, frac_valuation(bf, p) - r


def reported_resolution(a, b, r, p):
    """k >= 2r - v(a), r - v(a), ceil(-v(a)/2), r - v(b) and -v(b), and 0, a
    zero coefficient's terms dropped, from the Fractions of a and b."""
    bounds = [0]
    va, vb = (frac_valuation(as_fraction(x, p), p) for x in (a, b))
    if va != INF:
        bounds += [2 * r - int(va), r - int(va), math.ceil(Fraction(-int(va), 2))]
    if vb != INF:
        bounds += [r - int(vb), -int(vb)]
    return max(bounds)


def rational_mod(q, modulus):
    """Residue of a rational whose reduced denominator is coprime to modulus."""
    if modulus == 1:
        return 0
    q = Fraction(q)
    if math.gcd(q.denominator, modulus) != 1:
        raise ValueError(f"{q} has no residue modulo {modulus}")
    return q.numerator * pow(q.denominator, -1, modulus) % modulus


def pfraction_of(q, p):
    """Reduce a rational with p-power denominator into [0, 1), stripping its
    denominator's factors of p one at a time; ValueError for any other
    denominator."""
    q = Fraction(q) % 1
    den, n = q.denominator, 0
    while den % p == 0:
        den //= p
        n += 1
    if den != 1:
        raise ValueError(f"denominator of {q} is not a power of {p}")
    return PFraction(p, q.numerator, n) if q else PFraction(p, 0, 0)


@dataclass
class BasisMatrix:
    """One orthonormal basis: columns are the basis vectors."""

    label: str
    a: FieldElem | None  # None labels the computational basis
    matrix: np.ndarray


def _phase_matrix(phases, p):
    """Entries zeta_p^phases / sqrt(d) for a d x d array of integer phases.

    The phases may run over [0, 2p): the table holds two periods of the
    scaled roots, so m and m + p give the same entry bit for bit.
    """
    roots = (1.0 / np.sqrt(phases.shape[0])) * roots_of_unity(p)
    return np.concatenate((roots, roots)).take(phases)


def build_mub_set(fieldctx: FieldCtx) -> list[BasisMatrix]:
    """All p^r bases V_a plus the computational basis, deterministically
    ordered, from the field's trace tables, refused past
    `mub_finite.DEFAULT_DIM_CAP` elements.  The construction is
    prime-agnostic: p = 2 builds too."""
    tr_ax2, tr_bx = _trace_tables(fieldctx)
    p, q = fieldctx.p, fieldctx.size
    bases = [
        BasisMatrix(label=f"a={a}", a=a, matrix=_phase_matrix(tr_ax2[:, [n]] + tr_bx, p))
        for n, a in enumerate(fieldctx.elements())
    ]
    bases.append(BasisMatrix(label="inf", a=None, matrix=np.eye(q, dtype=complex)))
    return bases


def verify_matrices(bases: list[BasisMatrix], tol=1e-10, ortho_tol=1e-12) -> MubReport:
    """The report of `mub_finite.verify_mub` for a list of basis matrices of
    one square shape: one Gram per basis and one product |u* v| per pair, in
    `combinations` order."""
    shapes = sorted({b.matrix.shape for b in bases})
    d = shapes[0][0] if shapes and shapes[0] else 0
    if d < 1 or shapes != [(d, d)]:
        raise ValueError(f"need one or more bases of one square shape, got shapes {shapes}")
    target, eye = d**-0.5, np.eye(d)
    # np.max keeps a nan, so a non-finite basis fails the report
    ortho = float(np.max([np.abs(b.matrix.conj().T @ b.matrix - eye).max() for b in bases]))
    n = len(bases)
    stats = np.zeros((n * (n - 1) // 2, 3))  # min_mod, max_mod, max_dev per pair
    for row, (i, j) in enumerate(combinations(range(n), 2)):
        mods = np.abs(bases[i].matrix.conj().T @ bases[j].matrix)
        stats[row] = mods.min(), mods.max(), np.abs(mods - target).max()
    labels = [b.label for b in bases]
    max_dev = float(np.max(stats[:, 2], initial=0.0))
    return MubReport(d, n, target, tol, ortho_tol, max_dev, ortho,
                     max_dev <= tol and ortho <= ortho_tol,
                     lambda: (labels, stats, np.arange(len(stats))))


@dataclass
class PairStat:
    i: int
    j: int
    labels: tuple[str, str]
    min_mod: float
    max_mod: float
    max_dev: float


def pair_stats(report: MubReport) -> list[PairStat]:
    """One object per pair of bases, read from the report's pair columns."""
    labels, stats, row_of = report.pair_columns()
    stats = stats.tolist()
    return [PairStat(i, j, (labels[i], labels[j]), *stats[k])
            for (i, j), k in zip(combinations(range(len(labels)), 2), row_of.tolist())]


@dataclass
class GramEntry:
    i: int
    j: int
    numeric: float
    closed: float
    certified: bool
    deviation: float


def gram_entries(report: GramReport) -> list[GramEntry]:
    """One object per pair i <= j of the Gram table, in np.triu_indices order."""
    i, j = np.triu_indices(len(report.labels))
    columns = (i, j, report.moduli[i, j], report.closed, report.certified, report.deviation)
    return [GramEntry(*row) for row in zip(*(c.tolist() for c in columns))]


def report_dict(report: MubReport | GramReport) -> dict:
    """The report's JSON dict before `config`: its summary and one dict per
    pair ("pairs") or Gram entry ("entries")."""
    if isinstance(report, MubReport):
        return {**report._summary(), "pairs": [vars(s) for s in pair_stats(report)]}
    return {**report._summary(), "entries": [vars(e) for e in gram_entries(report)]}
