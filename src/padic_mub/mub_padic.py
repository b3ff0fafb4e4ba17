"""Finite models of L^2(Q_p) carrying the p+1 mutually unbiased families.

A Grid(p, r, k) models functions on the ball p^(-r)Z_p that are constant on
cosets of p^k Z_p: cell i has representative i*p^(-r) (digit-lexicographic
order) and Haar measure p^(-k).  Everything the continuum statements assert
"for large enough r" becomes a threshold-indexed family of exact finite
checks here: quadratic-character vectors, scaled ball indicators, the
Fourier transform (which swaps r and k), and the shift/modulation/chirp
unitaries, all with exact rational phase bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import phase_to_complex
from .errors import CapError, ResolutionError, check_power_cap
from .gauss import MAX_INT64_RESIDUE, NEG_INF, _table_norm, _threshold
from .padic import (
    INF,
    PadicNumber,
    PFraction,
    as_fraction,
    coefficient_valuation,
    frac_part,
    frac_valuation,
    int_valuation,
    is_prime,
    rational_mod,
)

DEFAULT_CELL_CAP = 100_000

Coefficient = PadicNumber | Fraction | int
FamilyLabel = Coefficient | None  # None labels the delta-function family


@dataclass(frozen=True)
class Grid:
    """Cosets of p^k Z_p inside p^(-r) Z_p, in digit-lexicographic order."""

    p: int
    r: int
    k: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.r + self.k < 1:
            raise ValueError("need r + k >= 1 for a nontrivial grid")

    @property
    def n(self) -> int:
        return self.p ** (self.r + self.k)

    @property
    def measure(self) -> Fraction:
        """Haar measure of one cell."""
        return Fraction(self.p) ** (-self.k)

    def rep(self, i: int) -> Fraction:
        """Canonical representative of cell i."""
        return Fraction(i) * Fraction(self.p) ** (-self.r)

    def index_of(self, x: Coefficient) -> int:
        """Cell index of a point of the domain (v_p(x) >= -r required)."""
        xf = as_fraction(x, self.p, need_abs_precision=self.k)
        if frac_valuation(xf, self.p) < -self.r:
            raise ValueError(f"{xf} lies outside p^({-self.r})Z_p")
        return rational_mod(xf * Fraction(self.p) ** self.r, self.n)


def make_grid(p: int, r: int, k: int, cell_cap: int = DEFAULT_CELL_CAP) -> Grid:
    grid = Grid(p, r, k)
    check_power_cap(p, r + k, cell_cap, "{size} cells exceed the cap {cap}")
    return grid


@dataclass
class StateVector:
    """One complex amplitude per grid cell (the value at the representative)."""

    grid: Grid
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.grid.n,):
            raise ValueError("amplitude count does not match the grid")

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real) * float(
            self.grid.measure
        )

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())


def inner(u: StateVector, w: StateVector) -> complex:
    """Haar-weighted pairing sum(conj(u) * w) * p^(-k)."""
    if u.grid != w.grid:
        raise ValueError("states live on different grids")
    return complex(np.vdot(u.amplitudes, w.amplitudes)) * float(u.grid.measure)


# ---------------------------------------------------------------------------
# exact phase profiles of e(a*x^2 + b*x) on a grid
# ---------------------------------------------------------------------------


def required_resolution(a: Coefficient, b: Coefficient, r: int, p: int) -> int:
    """Smallest k making e(a*x^2 + b*x) constant on every cell of Grid(p, r, k).

    It reads the shifted valuations dx = v(a) - 2r, dy = v(b) - r of the
    Gauss norm table: k >= 2r - v(a), r - v(a), ceil(-v(a)/2), r - v(b) and
    -v(b), where a zero coefficient's terms drop out.  The integrand
    recentred at c, on x + c, has linear coefficient 2ac + b: pass that as b.
    """
    return _resolution_of_valuations(coefficient_valuation(a, p), coefficient_valuation(b, p), r)


def _resolution_of_valuations(va: int | float, vb: int | float, r: int) -> int:
    """required_resolution of any a, b with v(a) = va and v(b) = vb."""
    dx, dy = va - 2 * r, vb - r
    low = min(r, 0)
    return max(0, -dx - low, -dy - low, NEG_INF if dx == INF else -r - dx // 2)


def _phase_term(grid: Grid, coeff: Fraction, degree: int) -> tuple[int, int]:
    """(M, c) with {coeff * rep(i)^degree} = ((i^degree mod p^M)*c mod p^M)/p^M."""
    p = grid.p
    if coeff == 0:
        return 0, 0
    v = int(frac_valuation(coeff, p))
    depth = degree * grid.r - v
    if depth <= 0:
        return 0, 0
    unit = coeff * Fraction(p) ** (-v)
    return depth, rational_mod(unit, p**depth)


def _quad_phase_indices(grid: Grid, a: Fraction, b: Fraction) -> tuple[np.ndarray, int]:
    """Exact phase numerators of e(a*x^2 + b*x) per cell, over denominator p^M.

    The one source of exact cell phases.  Raises CapError when p^M exceeds
    gauss.MAX_INT64_RESIDUE, where the int64 residue products would wrap.
    """
    p = grid.p
    ma, ca = _phase_term(grid, a, 2)
    mb, cb = _phase_term(grid, b, 1)
    depth = max(ma, mb)
    if p**depth > MAX_INT64_RESIDUE:
        raise CapError(f"phase modulus {p}^{depth} exceeds {MAX_INT64_RESIDUE}: int64 overflow")
    i = np.arange(grid.n, dtype=np.int64)
    idx = np.zeros(grid.n, dtype=np.int64)
    if ma:
        mod = p**ma
        idx += ((i % mod) ** 2 % mod) * ca % mod * p ** (depth - ma)
    if mb:
        mod = p**mb
        idx += (i % mod) * cb % mod * p ** (depth - mb)
    return (idx % p**depth if depth else idx), depth


def _cell_phase_indices(a: Coefficient, b: Coefficient, grid: Grid) -> tuple[np.ndarray, int]:
    """_quad_phase_indices once a and b are known well enough and the grid
    resolves e(a*x^2 + b*x) (k >= required_resolution)."""
    p = grid.p
    af = as_fraction(a, p, need_abs_precision=2 * grid.r)
    bf = as_fraction(b, p, need_abs_precision=grid.r)
    needed = required_resolution(af, bf, grid.r, p)
    if grid.k < needed:
        raise ResolutionError(
            f"e(a*x^2+b*x) is not cell-constant at k={grid.k}; need k >= {needed}"
        )
    return _quad_phase_indices(grid, af, bf)


def quadratic_phase_profile(
    a: Coefficient, b: Coefficient, grid: Grid
) -> tuple[PFraction, ...]:
    """The exact phase of e(a*x^2 + b*x) at every cell representative.

    Each distinct numerator m/p^depth loses its power of p in numpy once.
    """
    idx, depth = _cell_phase_indices(a, b, grid)
    p = grid.p
    nums, cell_num = np.unique(idx, return_inverse=True)
    exps = np.full(nums.shape, depth)
    for _ in range(depth):
        div = (nums != 0) & (nums % p == 0)
        nums[div] //= p
        exps[div] -= 1
    phases = [PFraction(p, m, e if m else 0) for m, e in zip(nums.tolist(), exps.tolist())]
    return tuple(map(phases.__getitem__, cell_num.tolist()))


# ---------------------------------------------------------------------------
# the basis families
# ---------------------------------------------------------------------------


def vector_v(a: Coefficient, b: Coefficient, grid: Grid) -> StateVector:
    """The quadratic-character state with amplitude e(a*x^2 + b*x) per cell."""
    idx, depth = _cell_phase_indices(a, b, grid)
    return StateVector(grid, np.exp(2j * np.pi * idx / grid.p**depth))


def _ball_indicator(grid: Grid, i0: int, e: int, value: float) -> StateVector:
    """value on the cells of the ball rep(i0) + p^e Z_p, 0 elsewhere."""
    amps = np.zeros(grid.n, dtype=complex)
    # the ball collects the cells with index = i0 mod p^(r+e)
    step = grid.p ** max(grid.r + e, 0)
    amps[(i0 + np.arange(0, grid.n, step, dtype=np.int64)) % grid.n] = value
    return StateVector(grid, amps)


def vector_v_inf(b: Coefficient, grid: Grid) -> StateVector:
    """The scaled near-delta state: amplitude p^r on the ball -b + p^r Z_p."""
    r = grid.r
    if grid.k < r:
        raise ResolutionError(f"need k >= r = {r} to resolve the ball p^{r}Z_p")
    return _ball_indicator(grid, -grid.index_of(b), r, float(grid.p) ** r)


def ball_state(z: Coefficient, scale: int, grid: Grid) -> StateVector:
    """Indicator of z + p^scale Z_p, scaled to unit norm."""
    if not -grid.r <= scale <= grid.k:
        raise ResolutionError(
            f"ball exponent {scale} must lie in [{-grid.r}, {grid.k}] for this grid"
        )
    return _ball_indicator(grid, grid.index_of(z), scale, float(grid.p) ** (scale / 2.0))


# ---------------------------------------------------------------------------
# Fourier transform: Grid(p, r, k) <-> Grid(p, k, r)
# ---------------------------------------------------------------------------


def fourier(psi: StateVector) -> StateVector:
    """psi_hat(y) = integral of psi(x) e(+x*y) dx, on the swapped grid.

    The pairing e(x*y) on cell representatives is exactly the DFT kernel of
    order n = p^(r+k), so the transform is the scaled inverse FFT; it is an
    exact isometry of the finite model up to double rounding.
    """
    g = psi.grid
    dual = Grid(g.p, g.k, g.r)
    return StateVector(dual, float(g.p) ** g.r * np.fft.ifft(psi.amplitudes))


def inverse_fourier(phi: StateVector) -> StateVector:
    """Inverse transform with the conjugate kernel e(-x*y)."""
    g = phi.grid
    dual = Grid(g.p, g.k, g.r)
    return StateVector(dual, float(g.p) ** (-g.k) * np.fft.fft(phi.amplitudes))


def ball_fourier_closed(z: Coefficient, scale: int, dual: Grid) -> np.ndarray:
    """Expected transform of the normalized ball indicator: e(y*z)*p^(-scale/2)
    on p^(-scale)Z_p and 0 outside, evaluated on the dual grid's cells.

    v(rep(j)) >= -scale exactly when p^max(dual.r - scale, 0) divides j; the
    phases m/p^M of those cells are evaluated as phase_to_complex does.
    """
    p = dual.p
    idx, depth = _quad_phase_indices(dual, 0, as_fraction(z, p))
    keep = np.arange(0, dual.n, p ** min(max(dual.r - scale, 0), dual.r + dual.k))
    t = 2.0 * math.pi * (idx[keep] / p**depth)
    amp = float(p) ** (-scale / 2.0)
    out = np.zeros(dual.n, dtype=complex)
    out.real[keep] = amp * np.cos(t)
    out.imag[keep] = amp * np.sin(t)
    return out


# ---------------------------------------------------------------------------
# the unitaries: shift X_c, modulation Z_d, chirp P_d
# ---------------------------------------------------------------------------


def op_X(psi: StateVector, c: Coefficient) -> StateVector:
    """Shift |y> -> |y+c>: an exact permutation of the cells (v(c) >= -r)."""
    return StateVector(psi.grid, np.roll(psi.amplitudes, psi.grid.index_of(c)))


def _times_phase(psi: StateVector, idx: np.ndarray, depth: int) -> StateVector:
    """psi times the roots of unity with exact phases idx / p^depth, each
    evaluated at its cell as `gauss._phase_sum` evaluates its roots."""
    if depth == 0:
        return StateVector(psi.grid, psi.amplitudes.copy())
    return StateVector(psi.grid, psi.amplitudes * np.exp(2j * np.pi * idx / psi.grid.p**depth))


def op_Z(psi: StateVector, d: Coefficient) -> StateVector:
    """Modulation |y> -> e(y*d)|y>; needs v(d) >= -k so the phase is cell-constant."""
    g = psi.grid
    df = as_fraction(d, g.p, need_abs_precision=g.r)
    if df != 0 and frac_valuation(df, g.p) < -g.k:
        raise ResolutionError(f"modulation e(y*d) with v(d) < {-g.k} is not cell-constant")
    return _times_phase(psi, *_quad_phase_indices(g, 0, df))


def op_P(psi: StateVector, d: Coefficient) -> StateVector:
    """Chirp |x> -> e(d*x^2)|x>; shifts the quadratic family label by d."""
    g = psi.grid
    df = as_fraction(d, g.p, need_abs_precision=2 * g.r)
    needed = required_resolution(df, 0, g.r, g.p)
    if g.k < needed:
        raise ResolutionError(f"chirp e(d*x^2) needs k >= {needed}, grid has {g.k}")
    return _times_phase(psi, *_quad_phase_indices(g, df, 0))


@dataclass
class EigenReport:
    """How exactly X_c Z_{2ac} fixes the state for quadratic label a."""

    p: int
    a: str
    b: str
    c: str
    grid: dict
    expected_phase: str
    expected_value: complex
    measured_value: complex
    residual: float
    tol: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "eigen",
            **vars(self),
            "expected_value": [self.expected_value.real, self.expected_value.imag],
            "measured_value": [self.measured_value.real, self.measured_value.imag],
        }


def eigen_check(
    a: Coefficient,
    b: Coefficient,
    c: Coefficient,
    *,
    p: int,
    tol: float = 1e-9,
) -> EigenReport:
    """Apply X_c Z_{2ac} to the (a, b) state and compare with e(-bc-ac^2) times it."""
    # the grid is sized, and its cap checked, from the valuations alone,
    # before any coefficient becomes a Fraction
    va, vb, vc = (coefficient_valuation(x, p) for x in (a, b, c))
    r = max(1, -int(vc) if vc != INF else 0)
    k_mod = _resolution_of_valuations(INF, int_valuation(2, p) + va + vc, r)  # b = 2ac
    k = max(_resolution_of_valuations(va, vb, r), k_mod, 1 - r)
    grid = make_grid(p, r, k)
    af, bf, cf = (as_fraction(x, p) for x in (a, b, c))
    state = vector_v(af, bf, grid)
    moved = op_X(op_Z(state, 2 * af * cf), cf)
    phase = frac_part(-(bf * cf + af * cf * cf), p)
    expected = phase_to_complex(phase)
    residual = float(
        np.linalg.norm(moved.amplitudes - expected * state.amplitudes)
        / np.linalg.norm(state.amplitudes)
    )
    pivot = int(np.argmax(np.abs(state.amplitudes)))
    measured = complex(moved.amplitudes[pivot] / state.amplitudes[pivot])
    return EigenReport(
        p=p,
        a=str(af),
        b=str(bf),
        c=str(cf),
        grid={"p": grid.p, "r": grid.r, "k": grid.k},
        expected_phase=str(phase),
        expected_value=expected,
        measured_value=measured,
        residual=residual,
        tol=tol,
        passed=residual <= tol,
    )


# ---------------------------------------------------------------------------
# Gram tables for finite samples of the p+1 families
# ---------------------------------------------------------------------------


def _normalize_family(a: FamilyLabel):
    if a is None or a == INF or (isinstance(a, str) and a.lower() in {"inf", "infinity"}):
        return None
    return a


def _difference_valuations(values: list[Fraction], p: int) -> tuple[list, np.ndarray, np.ndarray]:
    """The distinct values, each value's index among them, and the float
    table of v(x - y) over the distinct values x, y (inf on the diagonal)."""
    index: dict = {}
    codes = np.array([index.setdefault(x, len(index)) for x in values], dtype=np.int64)
    distinct = list(index)
    table = np.full((len(distinct), len(distinct)), INF)
    for m, x in enumerate(distinct):
        for n in range(m):
            table[m, n] = table[n, m] = frac_valuation(x - distinct[n], p)
    return distinct, codes, table


def _linear_valuations(p: int, a: list[Fraction], b: list[Fraction], ia, ib, ic) -> np.ndarray:
    """v(b[ib] - 2*a[ia]*b[ic]) elementwise and exactly: the numerators over
    the common denominator d^2 as Python ints in an object array."""
    d = math.lcm(*(x.denominator for x in (*a, *b)))
    an, bn = (np.array([int(x * d) for x in xs], dtype=object) for xs in (a, b))
    num = bn[ib] * d - 2 * an[ia] * bn[ic]
    v = np.where(num == 0, INF, -2.0 * frac_valuation(d, p))
    live = num != 0
    while (live := live & (num % p == 0)).any():  # once per power of p dividing one
        num[live] //= p
        v[live] += 1
    return v


def _state_stack(states: list[tuple[FamilyLabel, Coefficient]], grid: Grid) -> np.ndarray:
    """One row per state (a, b), equal to vector_v_inf(b, grid) for a = None
    and to vector_v(a, b, grid) otherwise, checked in the same order.

    required_resolution(a, b) and the phase depth of e(a*x^2 + b*x) are the
    larger of their a and their b parts, so a chirp's index row is the
    quadratic row of its a plus the linear row of its b, each built once
    per label and lifted to the state's own depth M.  Its entries are
    gathered from one np.exp over the p^M <= grid.n roots of each depth M in
    use, each root evaluated as vector_v evaluates it.
    """
    p, r, quad, lin, deltas, chirps = grid.p, grid.r, {}, {}, {}, []
    for s, (a, b) in enumerate(states):
        if a is None:
            deltas[s] = vector_v_inf(b, grid).amplitudes
            continue
        for x, degree, seen in ((a, 2, quad), (b, 1, lin)):
            if x not in seen:  # (row, needed k, depth, coefficients) per label
                xf = as_fraction(x, p, need_abs_precision=degree * r)
                ab = (xf, 0) if degree == 2 else (0, xf)
                seen[x] = (len(seen), required_resolution(*ab, r, p),
                           _phase_term(grid, xf, degree)[0], ab)
        (ia, ka, ma, _), (ib, kb, mb, _) = quad[a], lin[b]
        if grid.k < max(ka, kb) or p ** max(ma, mb) > MAX_INT64_RESIDUE:
            _cell_phase_indices(a, b, grid)  # raises this state's own error
        chirps.append((s, ia, ib, ma, mb))
    # allocated once every state has passed its checks
    stack = np.empty((len(states), grid.n), dtype=complex)
    for s, row in deltas.items():
        stack[s] = row
    if chirps:
        s, ia, ib, ma, mb = np.array(chirps).T
        qa, lb = (np.array([_quad_phase_indices(grid, *t[3])[0] for t in seen.values()])
                  for seen in (quad, lin))
        depth = np.maximum(ma, mb)
        mod = p ** depth[:, None]
        idx = (qa[ia] * (mod // p ** ma[:, None]) + lb[ib] * (mod // p ** mb[:, None])) % mod
        for m in np.unique(depth).tolist():
            at = depth == m
            stack[s[at]] = np.exp(2j * np.pi * np.arange(p**m) / p**m)[idx[at]]
    return stack


@dataclass
class GramEntry:
    i: int
    j: int
    numeric: float
    closed: float
    certified: bool
    deviation: float


@dataclass
class GramReport:
    """Cross table of |<v_i|v_j>| against the closed three-case values, with
    columns `closed`, `certified` and `deviation` over the pairs i <= j in
    np.triu_indices order."""

    p: int
    r_requested: int
    r_used: int
    k_used: int
    labels: list[str]
    moduli: np.ndarray
    closed: np.ndarray
    certified: np.ndarray
    deviation: np.ndarray
    family_ranks: dict[str, int]
    tol: float
    max_certified_deviation: float
    uncertified_pairs: int
    passed: bool

    def _rows(self):
        i, j = np.triu_indices(len(self.labels))
        cols = (i, j, self.moduli[i, j], self.closed, self.certified, self.deviation)
        return zip(*(c.tolist() for c in cols))

    @property
    def entries(self) -> list[GramEntry]:
        return [GramEntry(*row) for row in self._rows()]

    def to_json_dict(self) -> dict:
        d = {k: v for k, v in vars(self).items() if not isinstance(v, np.ndarray)}
        d.update(schema=1, kind="gram", entries=[vars(e) for e in self.entries])
        return d

    def to_csv(self) -> str:
        lines = ["i,j,label_i,label_j,numeric,closed_exact,certified,deviation"]
        lines += [f"{i},{j},{self.labels[i]},{self.labels[j]},{x!r},{c!r},{int(ok)},{dev!r}"
                  for i, j, x, c, ok, dev in self._rows()]
        return "\n".join(lines) + "\n"


def gram_report(
    params: list[tuple[FamilyLabel, Coefficient]],
    r: int,
    p: int,
    *,
    auto_raise: bool = True,
    tol: float = 1e-9,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> GramReport:
    """Verify the full cross table of a finite sample of the basis families.

    Family label None (or "inf") selects the delta family.  The grid is
    auto-sized; with auto_raise the truncation exponent is raised until every
    pair's closed value is certified, otherwise under-threshold pairs are
    computed but flagged uncertified and excluded from the pass criterion.
    """
    raw = [(_normalize_family(a), b) for a, b in params]
    # representatives are enough for thresholds and grid sizing (they only
    # need valuations); the state constructors re-check precision themselves
    ab = [(None if lab is None else as_fraction(lab, p), as_fraction(b, p)) for lab, b in raw]
    # the pair columns, i <= j: v(a_i - a_j) and v(b_i - b_j) read from
    # tables over the distinct labels, a delta's a read as 0
    a_vals, a_of, va = _difference_valuations([0 if a is None else a for a, _ in ab], p)
    b_vals, b_of, vb = _difference_valuations([b for _, b in ab], p)
    i, j = np.triu_indices(len(ab))
    dva, dvb = va[a_of[i], a_of[j]], vb[b_of[i], b_of[j]]
    delta = np.array([a is None for a, _ in ab])
    mixed = delta[i] != delta[j]
    # a delta and a chirp (a, b): r certifies modulus 1 from v(a) and the
    # linear coefficient b - 2a*b_delta of the chirp seen from -b_delta
    chirp, at = np.where(delta[i], j, i)[mixed], np.where(delta[i], i, j)[mixed]
    lin = _linear_valuations(p, a_vals, b_vals, a_of[chirp], b_of[chirp], b_of[at])
    min_r = np.empty(len(i))
    min_r[mixed] = np.maximum(np.ceil(-dva[mixed] / 2), -lin)
    # any other pair: each distinct key (v(Δa), v(Δb)) gets its threshold
    # once, then r_used, then its closed modulus once: the table read at
    # R = max(r_used, t + 1), as gauss.simplified_norm reads it
    (av, ac), (bv, bc) = (np.unique(v[~mixed], return_inverse=True) for v in (dva, dvb))
    codes, key_of = np.unique(ac * len(bv) + bc, return_inverse=True)
    keys = [tuple(v if v == INF else int(v) for v in key)
            for key in zip(av[codes // len(bv)].tolist(), bv[codes % len(bv)].tolist())]
    thresholds = [_threshold(*key) for key in keys]
    min_r[~mixed] = np.array(thresholds)[key_of] + 1
    r_used = r
    if auto_raise:
        # a delta state's center -b must lie in the domain p^(-r)Z_p
        centers = {b for a, b in ab if a is None and b}
        r_used = max([int(min_r.max(initial=r)), *(-frac_valuation(b, p) for b in centers)])
    # every bound of required_resolution falls as the valuation rises, and
    # v(x - y) >= min(v(x), v(y)), so no difference (ai - aj, bi - bj) needs
    # a finer grid than the states themselves; a delta state needs k >= r,
    # and a chirp's bound is the larger of its a part and its b part, so
    # each distinct label is sized once
    chirp_a, chirp_b = {a for a, _ in ab if a is not None}, {b for a, b in ab if a is not None}
    k = max([1 - r_used, *(r_used for a, _ in ab if a is None),
             *(required_resolution(a, 0, r_used, p) for a in chirp_a),
             *(required_resolution(0, b, r_used, p) for b in chirp_b)])
    grid = make_grid(p, r_used, k, cell_cap)
    stack = _state_stack(raw, grid)
    labels = [f"a={'inf' if a is None else a} b={b}" for a, b in ab]
    gram = stack.conj() @ stack.T * float(grid.measure)
    moduli = np.abs(gram)
    big_r = [max(r_used, t + 1) for t in thresholds]
    closed_of = [_table_norm(p, x - 2*R, y - R, 2*R)[0].value for (x, y), R in zip(keys, big_r)]
    closed = np.ones(len(i))  # a delta and a chirp overlap with modulus 1
    closed[~mixed] = np.array(closed_of)[key_of]
    certified = r_used >= min_r
    deviation = np.abs(moduli[i, j] - closed)
    max_dev = float(deviation[certified].max(initial=0.0))
    uncert = int(np.count_nonzero(~certified))
    # each family sample should stay linearly independent on its grid
    fams, fam_of = np.unique(["inf" if lab is None else str(lab) for lab, _ in raw],
                             return_inverse=True)
    family_ranks = {fam: int(np.linalg.matrix_rank(gram[np.ix_(fam_of == f, fam_of == f)]))
                    for f, fam in enumerate(fams.tolist())}
    return GramReport(
        p=p, r_requested=r, r_used=r_used, k_used=k, labels=labels, moduli=moduli,
        closed=closed, certified=certified, deviation=deviation,
        family_ranks=family_ranks, tol=tol, max_certified_deviation=max_dev,
        uncertified_pairs=uncert, passed=max_dev <= tol and (uncert == 0 or not auto_raise),
    )


def canonical_family_params(
    p: int, b_samples: list[Coefficient] | None = None
) -> list[tuple[FamilyLabel, Coefficient]]:
    """The p+1 family labels {0,...,p-1,inf} crossed with a b sample set."""
    if b_samples is None:
        b_samples = list(range(p))
    out: list[tuple[FamilyLabel, Coefficient]] = []
    for a in [*range(p), None]:
        for b in b_samples:
            out.append((a, b))
    return out
