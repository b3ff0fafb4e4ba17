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
    w = roots_of_unity(p)
    scale = 1.0 / np.sqrt(q)
    bases = []
    for a in elems:
        tr_ax2 = sq_coeff @ gram @ np.array(a.coeffs, dtype=np.int64) % p  # [x]
        phases = (tr_ax2[:, None] + tr_bx) % p
        bases.append(BasisMatrix(label=f"a={a}", a=a, matrix=scale * w[phases]))
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


def verify_mub(
    bases: list[BasisMatrix], tol: float = 1e-10, ortho_tol: float = 1e-12
) -> MubReport:
    """Check every unordered pair of bases for unbiasedness at modulus d^(-1/2).

    Also checks each basis for orthonormality (Gram = identity).  Pairs are
    scanned in index order, so reports are deterministic.
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
    report.passed = (
        report.max_deviation <= tol and report.ortho_deviation <= ortho_tol
    )
    return report
