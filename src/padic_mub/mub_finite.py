"""The maximal set of p^r + 1 mutually unbiased bases of C^(p^r).

For each a in F_{p^r} the basis V_a has columns indexed by b with entries
exp(2*pi*i*trace(a*x^2 + b*x)/p) / sqrt(p^r); the computational basis joins
them as the (p^r+1)-st member.  Bases, rows and columns follow the
lexicographic field element enumeration, so reports are byte-reproducible.

Every inner product of the set is a Gauss sum over the field:
(V_a* V_c)[b, b'] = G(c - a, b' - b) / q, with q = p^r and
G(alpha, beta) = sum_x zeta_p^trace(alpha*x^2 + beta*x).  So one q x q table
S = Z F, Z[alpha, x] = zeta_p^trace(alpha*x^2) / sqrt(q) and
F[x, beta] = zeta_p^trace(beta*x) / sqrt(q), holds every number the report
reads: row a_j - a_i for a pair of quadratic bases, row 0 for the
orthonormality of each V_a, and the moduli of the p scaled roots for a pair
with the computational basis.  `verify_mub` takes a field's set as its two
integer trace tables (`FieldMubSet`) and reads its report off that table,
one complex product in all, with no basis matrix; the tests hold the table
against the basis matrices, built and multiplied pair by pair.

What depends on the field alone is built once per field and shared:
`_trace_rows` holds the structure tensor's products as two read-only integer
arrays.  Each call checks its caps, then forms the two q x q trace tables as
one product of those rows, the table of Gauss sums and every report float
afresh.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import CapError
from .finite_field import FIELD_CACHE_SIZE, FieldCtx
from .gauss import INT64_MAX, roots_of_unity

DEFAULT_DIM_CAP = 343


def _structure_tensor(ctx: FieldCtx) -> np.ndarray:
    """T[s, t] = the coefficients of x^s * x^t mod the field modulus, so that
    u * v = sum_{s,t} u_s v_t T[s, t] over the power basis."""
    r = ctx.r
    powers = [tuple(int(k == n) for k in range(r)) for n in range(r)] + list(ctx.high_powers)
    return np.array([[powers[s + t] for t in range(r)] for s in range(r)], dtype=np.int64)


def _trace_tables(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """The int64 tables (trace(a*x^2), trace(b*x)) of the field's elements, in
    label order; every entry is a residue in [0, p).  Both are one product of
    the field's `_trace_rows`, made afresh for each call, for a field of at
    most DEFAULT_DIM_CAP elements."""
    p, r, q = ctx.p, ctx.r, ctx.size
    if q > DEFAULT_DIM_CAP:
        raise CapError(f"dimension {q} exceeds cap {DEFAULT_DIM_CAP}")
    # the widest int64 sum in _trace_rows is the squares': r^2 products of three residues
    if r * r * (p - 1) ** 3 > INT64_MAX:
        raise CapError(f"F_{p}^{r} products of three residues overflow int64")
    left, right = _trace_rows(ctx)
    tables = left @ right % p
    return tables[:q], tables[q:]


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _trace_rows(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """The field's rows behind `_trace_tables`, built once per field and
    shared, so read-only: the digit rows of x^2 and then of x, each times
    the trace form, shape (2q, r), and the digit rows transposed, (r, q)."""
    p, r, q = ctx.p, ctx.r, ctx.size
    mult = _structure_tensor(ctx)
    # trace(x^k) is the trace of multiplication by x^k; gram[s, t] = trace(x^s * x^t)
    gram = np.einsum("stk,k->st", mult, np.einsum("ktt->k", mult) % p) % p
    coeff = np.arange(q)[:, None] // p ** np.arange(r) % p  # [x, i], in label order
    sq_coeff = np.einsum("xi,xj,ijk->xk", coeff, coeff, mult) % p  # x^2
    left = np.vstack((sq_coeff, coeff)) @ gram % p
    right = coeff.T.copy()
    left.flags.writeable = right.flags.writeable = False
    return left, right


@dataclass
class MubReport:
    """Pairwise unbiasedness and per-basis orthonormality, against p^(-r/2).

    `pair_columns()` gives the basis labels, a table of (min_mod, max_mod,
    max_dev) rows and each pair's row of it, pairs in `combinations` order:
    a field's set has only q + 1 distinct rows.  `json_columns` and `to_csv`
    call it, so reading only the summary builds no pair row."""

    dim: int
    bases: int
    target: float
    tol: float
    ortho_tol: float
    max_deviation: float
    ortho_deviation: float
    passed: bool
    pair_columns: Callable[[], tuple[list[str], np.ndarray, np.ndarray]] = field(
        repr=False, compare=False)

    def _summary(self) -> dict:
        return {"schema": 1, **{k: v for k, v in vars(self).items() if k != "pair_columns"}}

    def json_columns(self) -> tuple[dict, str, dict]:
        """The JSON report as its summary, the key "pairs" and the pair rows
        as columns (see cli._json_rows), each stat column as a distinct row's
        value and each pair's row index."""
        labels, stats, row_of = self.pair_columns()
        i, j = (c.tolist() for c in np.triu_indices(len(labels), 1))  # combinations order
        index, row_of = list(range(len(labels))), row_of.tolist()
        min_mod, max_mod, max_dev = stats.T.tolist()
        return self._summary(), "pairs", {
            "i": (index, i), "j": (index, j), "labels": [(labels, i), (labels, j)],
            "min_mod": (min_mod, row_of), "max_mod": (max_mod, row_of),
            "max_dev": (max_dev, row_of),
        }

    def to_csv(self) -> str:
        """One line per pair: i, j, the labels, then its stat row's three
        floats as `repr`, each distinct row formatted once."""
        labels, stats, row_of = self.pair_columns()
        text = [f"{mn!r},{mx!r},{dev!r}" for mn, mx, dev in stats.tolist()]
        lines = ["i,j,label_i,label_j,min_mod,max_mod,max_dev"]
        lines += [f"{i},{j},{labels[i]},{labels[j]},{text[k]}"
                  for (i, j), k in zip(combinations(range(len(labels)), 2), row_of.tolist())]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class FieldMubSet:
    """The p^r + 1 bases of a field as its two trace tables, with no basis
    matrix: V_a for each a in label order, then the computational basis.
    `verify_mub` reads its report off one table of Gauss sums."""

    ctx: FieldCtx
    tr_ax2: np.ndarray  # trace(a*x^2) at [x, a]
    tr_bx: np.ndarray  # trace(b*x) at [x, b]

    @classmethod
    def from_field(cls, ctx: FieldCtx) -> FieldMubSet:
        """The set of the field; refuses a field past the default dimension
        cap, or one whose trace sums would overflow int64, before any table
        is built."""
        return cls(ctx, *_trace_tables(ctx))

    def __len__(self) -> int:
        return self.ctx.size + 1


def _row_stats(mods: np.ndarray, target: float) -> np.ndarray:
    """(min, max, max |mod - target|) of each row of a table of moduli."""
    return np.column_stack((mods.min(1), mods.max(1), np.abs(mods - target).max(1)))


def verify_mub(bases: FieldMubSet, tol: float = 1e-10, ortho_tol: float = 1e-12) -> MubReport:
    """Check every unordered pair of the field's bases for unbiasedness at
    modulus q^(-1/2), and each basis for orthonormality, from one table of
    Gauss sums.

    Row alpha of S = Z F is G(alpha, .) / q (see the module docstring), each
    factor gathered from the p scaled roots by the exact trace tables.  Since
    trace(a*x^2) and trace(b*x) are additive in a and b, the pair (V_a, V_c)
    has the moduli of row c - a, the digitwise difference mod p of the two
    labels; a pair with the computational basis has the moduli of the p
    scaled roots, bit for bit those of the basis entries; and V_a* V_a - I is
    row 0 minus a unit vector, while the identity basis contributes 0.  The
    floats differ from those of the basis matrices' products only in
    rounding.  The labels and each pair's row index are found only when the
    report's pair columns are read, pairs in index order; the q + 1 rows are
    never gathered per pair.
    """
    ctx = bases.ctx
    p, r, q = ctx.p, ctx.r, ctx.size
    target = q**-0.5
    roots = (1.0 / np.sqrt(q)) * roots_of_unity(p)
    table = roots.take(bases.tr_ax2.T) @ roots.take(bases.tr_bx)
    ortho = float(np.abs(table[0] - np.eye(1, q)).max())  # |S[0, b] - delta_b|
    # the q rows of S, then the computational basis as row q
    rows = np.vstack((_row_stats(np.abs(table), target), _row_stats(np.abs(roots)[None], target)))
    max_dev = float(np.max(rows[1:, 2]))

    def pair_columns():
        digits = np.arange(q)[:, None] // p ** np.arange(r) % p
        rows_of = np.full((q + 1, q + 1), q)
        rows_of[:q, :q] = (digits[None] - digits[:, None]) % p @ p ** np.arange(r)
        first, second = np.triu_indices(q + 1, 1)  # the order of combinations(range(q + 1), 2)
        return [f"a={a}" for a in ctx.elements()] + ["inf"], rows, rows_of[first, second]

    return MubReport(q, q + 1, target, tol, ortho_tol, max_dev, ortho,
                     max_dev <= tol and ortho <= ortho_tol, pair_columns)
