"""The maximal set of p^r + 1 mutually unbiased bases of C^(p^r).

For each a in F_{p^r} the basis V_a has columns indexed by b with entries
exp(2*pi*i*trace(a*x^2 + b*x)/p) / sqrt(p^r); the computational basis joins
them as the (p^r+1)-st member.  Rows/columns follow the lexicographic field
element enumeration, so matrices are byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CapError
from .finite_field import FieldCtx, FieldElem
from .gauss import roots_of_unity

DEFAULT_DIM_CAP = 343


@dataclass
class BasisMatrix:
    """One orthonormal basis: columns are the basis vectors."""

    label: str
    a: FieldElem | None  # None labels the computational basis
    matrix: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "dim": self.matrix.shape[0],
            "columns": [
                [[z.real, z.imag] for z in col] for col in self.matrix.T
            ],
        }

    def to_csv(self) -> str:
        """Rows of re/im interleaved entries, one matrix row per line."""
        lines = []
        for row in self.matrix:
            cells: list[str] = []
            for z in row:
                cells += [repr(z.real), repr(z.imag)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _trace_gram(ctx: FieldCtx) -> np.ndarray:
    """G[s, t] = trace(x^s * x^t) over the power basis, so that
    trace(u*v) = (u_coeffs @ G @ v_coeffs) mod p."""
    r = ctx.r
    basis = [ctx.element(tuple(1 if i == s else 0 for i in range(r))) for s in range(r)]
    return np.array(
        [[(basis[s] * basis[t]).trace() for t in range(r)] for s in range(r)],
        dtype=np.int64,
    )


def _phase_matrix(phases: np.ndarray, p: int) -> np.ndarray:
    """Entries zeta_p^phases / sqrt(d) for a d x d array of integer phases."""
    return ((1.0 / np.sqrt(phases.shape[0])) * roots_of_unity(p))[phases]


def build_mub_set(fieldctx: FieldCtx, dim_cap: int = DEFAULT_DIM_CAP) -> list[BasisMatrix]:
    """All p^r bases V_a plus the computational basis, deterministically ordered.

    The construction itself is prime-agnostic; only the closed-form
    certification of unbiasedness is restricted to odd p elsewhere.
    """
    p, q = fieldctx.p, fieldctx.size
    if q > dim_cap:
        raise CapError(f"dimension {q} exceeds cap {dim_cap}")
    elems = list(fieldctx.elements())
    coeff = np.array([e.coeffs for e in elems], dtype=np.int64)  # (q, r)
    sq_coeff = np.array([(e * e).coeffs for e in elems], dtype=np.int64)
    gram = _trace_gram(fieldctx)
    # trace(b*x) for every (x, b) pair, and trace(a*x^2) per a below
    tr_bx = coeff @ gram @ coeff.T % p  # [x, b]
    bases = []
    for a in elems:
        tr_ax2 = sq_coeff @ gram @ np.array(a.coeffs, dtype=np.int64) % p  # [x]
        phases = (tr_ax2[:, None] + tr_bx) % p
        bases.append(BasisMatrix(label=f"a={a}", a=a, matrix=_phase_matrix(phases, p)))
    bases.append(BasisMatrix(label="inf", a=None, matrix=np.eye(q, dtype=complex)))
    return bases


@dataclass
class PairStat:
    i: int
    j: int
    labels: tuple[str, str]
    min_mod: float
    max_mod: float
    max_dev: float


@dataclass
class MubReport:
    """Pairwise unbiasedness and per-basis orthonormality, against p^(-r/2)."""

    dim: int
    target: float
    tol: float
    ortho_tol: float
    pairs: list[PairStat] = field(default_factory=list)
    max_deviation: float = 0.0
    ortho_deviation: float = 0.0
    passed: bool = False

    def to_json_dict(self) -> dict:
        return {"schema": 1, **vars(self), "pairs": [vars(s).copy() for s in self.pairs]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _abs_product(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Entrywise |u* v|: the one dense product behind every pair statistic."""
    return np.abs(u.conj().T @ v)


def _difference_keys(bases: list[BasisMatrix]) -> tuple[int, np.ndarray]:
    """Exact row phases of each quadratic-phase basis against a reference.

    A basis with `a` set certifies when its matrix is, bit for bit,
    zeta_p^m / sqrt(d) for integer phases m = rint(angle * p / 2pi) mod p, and
    m - m_ref mod p is constant along each row, m_ref being the phases of the
    first basis that certifies.  Its key is that column t, so the basis is
    exactly diag(zeta_p^t) W with W = zeta_p^m_ref / sqrt(d), and
    V_i* V_j = W* diag(zeta_p^(t_j - t_i)) W depends on t_j - t_i mod p alone.
    Returns (p of the reference, keys), one key per row of `keys`; bases of
    another field, the computational basis and any basis failing the check
    keep the row -1.
    """
    ref_ctx, ref_phases = None, None
    keys = np.full((len(bases), bases[0].matrix.shape[0]), -1, dtype=np.int64)
    for key, b in zip(keys, bases):
        if b.a is not None and (ref_ctx is None or b.a.ctx == ref_ctx):
            p = b.a.ctx.p
            phases = np.rint(np.angle(b.matrix) * (p / (2 * np.pi))).astype(np.int64) % p
            if np.array_equal(b.matrix, _phase_matrix(phases, p)):
                if ref_phases is None:
                    ref_ctx, ref_phases = b.a.ctx, phases
                diff = (phases - ref_phases) % p
                if (diff == diff[:, :1]).all():
                    key[:] = diff[:, 0]
    return (0 if ref_ctx is None else ref_ctx.p), keys


def verify_mub(
    bases: list[BasisMatrix], tol: float = 1e-10, ortho_tol: float = 1e-12
) -> MubReport:
    """Check every unordered pair of bases for unbiasedness at modulus d^(-1/2).

    Also checks each basis for orthonormality (Gram = identity).  Pairs are
    scanned in index order, so reports are deterministic.

    A pair of quadratic-phase bases whose exact phase certificate holds (see
    `_difference_keys`) reuses the statistics of the first pair with the same
    phase difference t_j - t_i mod p, whose product is equal entry for entry
    in exact arithmetic; the reused floats differ from a direct product only
    in rounding.  Every other pair, the first of each difference class
    included, is computed directly.  For the p^r + 1 bases of F_q that is
    (q - 1) + q pair products instead of q(q + 1)/2.
    """
    dims = {b.matrix.shape for b in bases}
    if len(dims) != 1:
        raise ValueError(f"bases of mixed dimensions: {sorted(dims)}")
    d = bases[0].matrix.shape[0]
    report = MubReport(dim=d, target=d**-0.5, tol=tol, ortho_tol=ortho_tol)
    eye = np.eye(d)
    for b in bases:
        dev = np.abs(b.matrix.conj().T @ b.matrix - eye).max()
        report.ortho_deviation = max(report.ortho_deviation, float(dev))
    p, keys = _difference_keys(bases)
    seen: dict[bytes, tuple[float, float, float]] = {}
    certified = keys[:, 0] >= 0
    for i in range(len(bases)):
        diffs = (keys - keys[i]) % p if certified[i] else None
        for j in range(i + 1, len(bases)):
            key = diffs[j].tobytes() if diffs is not None and certified[j] else None
            stats = seen.get(key)
            if stats is None:
                mods = _abs_product(bases[i].matrix, bases[j].matrix)
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
    report.passed = (
        report.max_deviation <= tol and report.ortho_deviation <= ortho_tol
    )
    return report
