"""Finite models of L^2(Q_p) carrying the p+1 mutually unbiased families.

A Grid(p, r, k) models functions on the ball p^(-r)Z_p that are constant on
cosets of p^k Z_p: cell i has representative i*p^(-r) (digit-lexicographic
order) and Haar measure p^(-k).  Everything the continuum statements assert
"for large enough r" becomes a threshold-indexed family of exact finite
checks here: quadratic-character vectors, scaled ball indicators, the
Fourier transform (which swaps r and k), and the shift/modulation/chirp
unitaries, all with exact rational phase bookkeeping.

Every function reads each coefficient once, by `padic.read_coefficient`,
and passes the reading on: valuations size the grid and meet its caps, each
window is checked against the digits the grid resolves, and only then is an
exact Fraction formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

import numpy as np

from .characters import phase_to_complex
from .errors import ResolutionError, check_odd_prime, check_power_cap
from .gauss import (
    INT64_MAX,
    _check_modulus,
    _float_power,
    _roots,
    _simplified,
    _threshold,
)
from .padic import (
    INF,
    Coefficient,
    PFraction,
    Reading,
    _check_prime,
    _scaled_residue,
    frac_part,
    int_valuation,
    read_coefficient,
)

DEFAULT_CELL_CAP = 100_000

FamilyLabel = Coefficient | None  # None labels the delta-function family


@dataclass(frozen=True)
class Grid:
    """Cosets of p^k Z_p inside p^(-r) Z_p, in digit-lexicographic order."""

    p: int
    r: int
    k: int

    def __post_init__(self):
        _check_prime(self.p)
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
        return self._index(read_coefficient(x, self.p))

    def _index(self, x: Reading) -> int:
        """index_of a coefficient already read."""
        xf, v = x.need(self.k).value, x.valuation
        if v < -self.r:
            raise ValueError(f"{xf} lies outside p^({-self.r})Z_p")
        return _scaled_residue(self.p, self.r + self.k, xf, v, v + self.r)  # x*p^r mod n


def make_grid(p: int, r: int, k: int) -> Grid:
    """Grid(p, r, k), refused past DEFAULT_CELL_CAP cells."""
    grid = Grid(p, r, k)
    check_power_cap(p, r + k, DEFAULT_CELL_CAP, "{size} cells exceed the cap {cap}")
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


def inner(u: StateVector, w: StateVector) -> complex:
    """Haar-weighted pairing sum(conj(u) * w) * p^(-k)."""
    if u.grid != w.grid:
        raise ValueError("states live on different grids")
    return complex(np.vdot(u.amplitudes, w.amplitudes)) * float(u.grid.measure)


# ---------------------------------------------------------------------------
# exact phase profiles of e(a*x^2 + b*x) on a grid
# ---------------------------------------------------------------------------


def required_resolution(a: Coefficient, b: Coefficient, r: int, p: int) -> int:
    """The least k of Grid(p, r, k) on which e(a*x^2 + b*x) is constant on
    every cell: the k that vector_v and quadratic_phase_profile check.

    It is `_cell_resolution` of v(a) and v(b): k >= r - v(a) and -v(b), a
    zero coefficient's terms dropping out, and the grid's floor r + k >= 1.
    The integrand recentred at c, on x + c, has linear coefficient 2ac + b:
    pass that as b.
    """
    return _cell_resolution(read_coefficient(a, p).valuation,
                            read_coefficient(b, p).valuation, r, False)


def _cell_resolution(va: int | float, vb: int | float, r: int, delta: bool) -> int:
    """The least k >= 0 with r + k >= 1 on which e(a*x^2 + b*x) is constant
    on every cell of Grid(p, r, k), for every a, b with v(a) >= va and
    v(b) >= vb, and, with delta, every ball -b + p^r Z_p is a union of cells.

    On x + h, h in p^k Z_p, the phase moves by 2axh + a*h^2 + b*h, which is
    in Z_p for every x in p^(-r)Z_p exactly when k >= r - v(a) and -v(b):
    with the floor these give 2k >= 1 - v(a), so a*h^2 is in Z_p too.  A
    delta state adds k >= r.
    """
    return max([0, 1 - r, *([r] if delta else []), r - va, -vb])


def _phase_term(p: int, r: int, x: Reading, degree: int) -> tuple[int, int]:
    """(M, c) with {x * rep(i)^degree} = ((i^degree mod p^M)*c mod p^M)/p^M on
    a grid of radius r: M = degree*r - v(x), and c the unit part of x mod
    p^M, taken in integers.  (0, 0) when M <= 0, x = 0 too, with no Fraction."""
    depth = degree * r - x.valuation
    if depth <= 0:
        return 0, 0
    return depth, _scaled_residue(p, depth, x.value, x.valuation, 0)


def _quad_phase_indices(
    grid: Grid, a: Reading | None, b: Reading | None, cells: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Exact phase numerators of e(a*x^2 + b*x) per cell, over denominator p^M:
    at every cell, or only at the int64 cell indices `cells`, in their order.
    a or b None is a term left out.

    The one source of exact cell phases; p^M must pass gauss._check_modulus.
    """
    p, r = grid.p, grid.r
    ma, ca = (0, 0) if a is None else _phase_term(p, r, a, 2)
    mb, cb = (0, 0) if b is None else _phase_term(p, r, b, 1)
    depth = max(ma, mb)
    _check_modulus(p, depth)
    i = np.arange(grid.n, dtype=np.int64) if cells is None else cells
    return _phase_rows(i, ca * p ** (depth - ma), cb * p ** (depth - mb), p**depth), depth


def _phase_rows(i: np.ndarray, ca, cb, mod: int) -> np.ndarray:
    """(ca*i^2 + cb*i) mod `mod` over the int64 cell indices i: the phase
    numerators of a chirp whose terms (M, c) are lifted to c*p^(M' - M) at
    the depth M' of mod = p^M'.  ca and cb are ints or int64 columns, one
    row per column entry; every product is of residues below mod, which
    gauss._check_modulus has passed, so none passes 2^63."""
    j = i % mod
    return (j * j % mod * ca % mod + j * cb % mod) % mod


def _cell_phase_indices(a: Coefficient, b: Coefficient, grid: Grid) -> tuple[np.ndarray, int]:
    """_quad_phase_indices once a and b, each read once, are known well
    enough and the grid resolves e(a*x^2 + b*x) (k >= required_resolution)."""
    p, r = grid.p, grid.r
    a, b = read_coefficient(a, p).need(2 * r), read_coefficient(b, p).need(r)
    needed = _cell_resolution(a.valuation, b.valuation, r, False)
    if grid.k < needed:
        raise ResolutionError(
            f"e(a*x^2+b*x) is not cell-constant at k={grid.k}; need k >= {needed}"
        )
    return _quad_phase_indices(grid, a, b)


def quadratic_phase_profile(
    a: Coefficient, b: Coefficient, grid: Grid
) -> tuple[PFraction, ...]:
    """The exact phase of e(a*x^2 + b*x) at every cell representative: each
    distinct numerator m over p^depth mapped once by frac_part."""
    idx, depth = _cell_phase_indices(a, b, grid)
    nums, cell_num = np.unique(idx, return_inverse=True)
    phases = [frac_part(Fraction(m, grid.p**depth), grid.p) for m in nums.tolist()]
    return tuple(map(phases.__getitem__, cell_num.tolist()))


# ---------------------------------------------------------------------------
# the basis families
# ---------------------------------------------------------------------------


def vector_v(a: Coefficient, b: Coefficient, grid: Grid) -> StateVector:
    """The quadratic-character state with amplitude e(a*x^2 + b*x) per cell."""
    idx, depth = _cell_phase_indices(a, b, grid)
    return StateVector(grid, _roots(idx, grid.p**depth))


def _ball_cells(grid: Grid, i0, e: int) -> np.ndarray:
    """The cells of the ball rep(i0) + p^e Z_p: the indices = i0 mod p^(r+e),
    with e clipped to [-r, k].  i0 is an int, or an int64 column for one row
    of cells per ball."""
    p, r, k, n = grid.p, grid.r, grid.k, grid.n
    return (i0 + np.arange(0, n, p ** min(max(r + e, 0), r + k))) % n


def _ball_indicator(grid: Grid, i0: int, e: int, value: float) -> StateVector:
    """value on the cells of the ball rep(i0) + p^e Z_p, 0 elsewhere."""
    amps = np.zeros(grid.n, dtype=complex)
    amps[_ball_cells(grid, i0, e)] = value
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
    scale = _float_power(g.p, g.r, "Fourier transform scale")
    return StateVector(dual, scale * np.fft.ifft(psi.amplitudes))


def inverse_fourier(phi: StateVector) -> StateVector:
    """Inverse transform with the conjugate kernel e(-x*y)."""
    g = phi.grid
    dual = Grid(g.p, g.k, g.r)
    scale = _float_power(g.p, -g.k, "inverse Fourier transform scale")
    return StateVector(dual, scale * np.fft.fft(phi.amplitudes))


def ball_fourier_closed(z: Coefficient, scale: int, dual: Grid) -> np.ndarray:
    """Expected transform of the normalized ball indicator: e(y*z)*p^(-scale/2)
    on p^(-scale)Z_p and 0 outside, evaluated on the dual grid's cells.

    v(rep(j)) >= -scale exactly when p^max(dual.r - scale, 0) divides j; the
    exact phases m/p^M are found only at those cells, and evaluated as
    phase_to_complex does.  z need only be known modulo p^scale, as the
    ball z + p^scale Z_p.
    """
    p = dual.p
    keep = _ball_cells(dual, 0, -scale)
    z = read_coefficient(z, p).need(scale)
    idx, depth = _quad_phase_indices(dual, None, z, keep)
    t = 2.0 * math.pi * (idx / p**depth)
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
    """psi times the roots of unity with exact phases idx / p^depth."""
    if depth == 0:
        return StateVector(psi.grid, psi.amplitudes.copy())
    return StateVector(psi.grid, psi.amplitudes * _roots(idx, psi.grid.p**depth))


def op_Z(psi: StateVector, d: Coefficient) -> StateVector:
    """Modulation |y> -> e(y*d)|y>; needs v(d) >= -k so the phase is cell-constant."""
    g = psi.grid
    d = read_coefficient(d, g.p).need(g.r)
    if d.valuation < -g.k:
        raise ResolutionError(f"modulation e(y*d) with v(d) < {-g.k} is not cell-constant")
    return _times_phase(psi, *_quad_phase_indices(g, None, d))


def op_P(psi: StateVector, d: Coefficient) -> StateVector:
    """Chirp |x> -> e(d*x^2)|x>; shifts the quadratic family label by d."""
    return _times_phase(psi, *_cell_phase_indices(d, 0, psi.grid))


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
    """Apply X_c Z_{2ac} to the (a, b) state and compare with e(-bc-ac^2) times it.

    The grid is sized, and its cap checked, from the valuations alone; a
    zero O(p^N), whose valuation is only known to be >= N, raises
    PrecisionError, as threshold_t does.  Then each coefficient must carry
    the digits that fix the phase {-(bc + ac^2)}: N_a >= -2v(c),
    N_b >= -v(c) and N_c >= max(-v(b), -v(a) - v(c)) for x known modulo
    p^(N_x), an exact zero's terms dropping out; else PrecisionError.  Only
    then does each become a Fraction.
    """
    a, b, c = (read_coefficient(x, p) for x in (a, b, c))
    va, vb, vc = a.known_valuation, b.known_valuation, c.known_valuation
    r = max(1, -vc)
    # the state's and the modulation's (b = 2ac) cell rule, r digits finer
    k = _cell_resolution(va - r, min(vb, int_valuation(2, p) + va + vc) - r, r, False)
    grid = make_grid(p, r, k)
    a.need(-2 * vc)
    b.need(-vc)
    c.need(max(-vb, -va - vc))
    af, bf, cf = a.value, b.value, c.value
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


def _numerators(values: list[Fraction]) -> tuple[np.ndarray, int]:
    """The values over their least common denominator d: their numerators
    and d.

    With N the largest |numerator|, the numerators are int64 when
    N*d + 2*N^2 <= 2^63 - 1.  That bounds |y*d - 2*x*z| of any three of
    them (_linear_valuations) and, for N >= 1, |x - y| of any two
    (_difference_valuations), so no product or difference of the pair
    tables wraps.  Above the bound they are Python ints in an object array."""
    d = math.lcm(*[x.denominator for x in values])
    num = [x.numerator * (d // x.denominator) for x in values]
    top = max(map(abs, num), default=0)
    return np.array(num, dtype=np.int64 if top * d + 2 * top * top <= INT64_MAX else object), d


_int_valuation = np.frompyfunc(int_valuation, 2, 1)


def _valuations(num: np.ndarray, p: int) -> np.ndarray:
    """v_p of each entry of an int64 or object array of ints, as floats, inf
    at 0.

    When every entry fits in int64, v_p(n) is the place of gcd(n, p^K)
    among the powers 1, p, ..., p^K, p^K the largest below 2^63: |n| < 2^63
    gives v_p(n) <= K.  Otherwise each entry takes int_valuation's repeated
    squaring, so a huge power of p costs O(log v) divisions, not one per
    power."""
    try:
        n = num.astype(np.int64, copy=False)
    except OverflowError:
        return _int_valuation(num, p).astype(float)
    powers = [1]
    while powers[-1] <= INT64_MAX // p:
        powers.append(powers[-1] * p)
    v = np.searchsorted(np.array(powers, dtype=np.int64), np.gcd(n, powers[-1])).astype(float)
    v[n == 0] = INF
    return v


@lru_cache(maxsize=2)
def _upper_pairs(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, k), read-only: the pairs i, j >= i + k in row
    order.  A Gram table's pair columns and its report's entry rows read the
    same pairs, so they are computed once."""
    pairs = np.triu_indices(n, k)
    for x in pairs:
        x.setflags(write=False)
    return pairs


def _difference_valuations(num: np.ndarray, d: int, p: int) -> np.ndarray:
    """The float table of v(x - y) over the values x = num/d (inf wherever
    x = y), from the numerators: each unordered pair's difference once."""
    m, n = _upper_pairs(len(num), 1)
    table = np.full((len(num), len(num)), INF)
    table[m, n] = table[n, m] = _valuations(num[m] - num[n], p) - int_valuation(d, p)
    return table


def _linear_valuations(num: np.ndarray, d: int, p: int, ia, ib, ic) -> np.ndarray:
    """v(y - 2*x*z) elementwise and exactly, for x, y, z the values num[ia]/d,
    num[ib]/d and num[ic]/d: the numerators over d^2, in integers."""
    return _valuations(num[ib] * d - 2 * num[ia] * num[ic], p) - 2 * int_valuation(d, p)


def _index_labels(states: list[tuple[FamilyLabel, Coefficient]]) -> tuple[list, np.ndarray]:
    """The distinct labels of the states, a delta's None among them, in the
    order the states use them, and each state's codes (a, b) into them.

    The states' label objects are matched by identity first, per column,
    then each distinct object is normalized (an a by _normalize_family) and
    looked up by value once: a list that repeats its label objects costs no
    more Python calls than one that names each once."""
    cols = tuple(zip(*states)) or ((), ())
    # identity first: per column, id -> the first slot that holds the
    # object, slot 2s for the a of state s and 2s + 1 for its b
    first: tuple[dict, dict] = ({}, {})
    slot = np.array([[*map(first[c].setdefault, map(id, col), range(c, 2 * len(col), 2))]
                     for c, col in enumerate(cols)], dtype=np.int64)
    # then by value, once per distinct object, in first-use order
    index: dict = {}
    code = np.zeros(slot.size, dtype=np.int64)
    for s in sorted([*first[0].values(), *first[1].values()]):
        x = cols[s & 1][s >> 1]
        code[s] = index.setdefault(x if s & 1 else _normalize_family(x), len(index))
    return list(index), code[slot.T]


def _state_stack(reads: list, codes: np.ndarray, grid: Grid, window: int) -> np.ndarray:
    """One row per state (a, b) of codes, on a grid that resolves every state
    (k at least _cell_resolution of its labels): the row vector_v_inf(b, grid)
    builds for a = None and vector_v(a, b, grid) for any other a.  A delta's
    b is read to p^window, the k of the grid gram_report reports, before its
    cell is taken.

    The grid's n = p^(r+k) meets the int64 residue guard,
    gauss._check_modulus, once, before any label is read: as the grid
    resolves every state, each chirp's depth M has p^M <= n, so that one
    check covers every row.  reads[c] is gram_report's reading of label c,
    None for the delta family's a.  Each distinct label
    is read once per role, in the order the states first use it, in
    integers, and a failing read raises there: a chirp's a or b gives its
    phase term (M, c), a delta's b its cell.  A chirp's depth is the larger
    of its a and b parts.  Its rows are vector_v's.  One _phase_rows gives
    each distinct term's row lifted to the deepest chirp's depth D,
    c*p^(D - M)*i^degree mod p^D, and a state's numerators are its two rows
    added mod p^D: p^(D - M) times its own at its depth M.  Its roots are
    gathered from `gauss._roots` of 0..p^M - 1 at n = p^M, spread at stride
    p^(D - M), so each is the double vector_v computes; p^D <= n keeps each
    depth's table within one row.  The delta rows come from one scatter.
    """
    p, r, n = grid.p, grid.r, grid.n
    _check_modulus(p, r + grid.k)
    chirp = np.array([x is not None for x in reads], dtype=bool)[codes[:, 0]]
    # each state's two slots, keyed label * 3 + role: a chirp's a (role 0)
    # and b (1), a delta's b (2); a delta's a is no slot, keyed -1
    slots = np.where(chirp[:, None], codes * 3 + [0, 1], codes * [0, 3] + [-1, 2]).ravel().tolist()
    distinct = list(dict.fromkeys(slots))  # in first-use order
    term_of = np.array([*map({key: t for t, key in enumerate(distinct)}.get, slots)],
                       dtype=np.int64).reshape(-1, 2)
    terms = [(0, 0)] * len(distinct)  # (M, c) of a phase term, (0, cell) of a ball
    for t, key in enumerate(distinct):
        if key < 0:
            continue
        code, role = divmod(key, 3)
        x = reads[code]
        if role == 2:  # the ball -b + p^r Z_p
            terms[t] = 0, -grid._index(x.need(window)) % n
        else:
            terms[t] = _phase_term(p, r, x.need((2 - role) * r), 2 - role)
    depth_of = np.array([m for m, _ in terms], dtype=np.int64)
    depth = depth_of[term_of].max(axis=1)
    c_of = np.array([c for _, c in terms], dtype=np.int64)
    stack = np.zeros((len(codes), n), dtype=complex)
    s = np.flatnonzero(~chirp)
    if s.size:
        stack[s[:, None], _ball_cells(grid, c_of[term_of[s, 1], None], r)] = float(p) ** r
    s = np.flatnonzero(chirp)
    if s.size:
        # one row per distinct term, c*i^2 of an a and c*i of a b, lifted to
        # the deepest chirp's depth D: c*p^(D - M) mod p^D
        depths = np.array(sorted(set(depth[s].tolist())))
        top, role = int(depths[-1]), np.array(distinct) % 3
        lift = p ** (top - depth_of)
        rows = _phase_rows(np.arange(n, dtype=np.int64), (c_of * (role == 0) * lift)[:, None],
                           (c_of * (role == 1) * lift)[:, None], p**top)
        idx = (rows[term_of[s, 0]] + rows[term_of[s, 1]]) % p**top
        # a state's numerator at D is p^(D - M) times its own at its depth M,
        # so its roots are read from M's, spread at that stride over 0..p^D-1
        table = _roots(np.arange(p**top) // p ** (top - depths[:, None]), p ** depths[:, None])
        stack[s] = table[np.searchsorted(depths, depth[s])[:, None], idx]
    return stack


@dataclass
class GramReport:
    """Cross table of |<v_i|v_j>| against the closed three-case values, with
    columns `closed`, `certified` and `deviation` over the pairs i <= j in
    np.triu_indices order (_upper_pairs)."""

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

    def _columns(self) -> dict:
        """The entry columns: i, j, numeric, closed, certified, deviation."""
        i, j = _upper_pairs(len(self.labels), 0)
        return {"i": i, "j": j, "numeric": self.moduli[i, j], "closed": self.closed,
                "certified": self.certified, "deviation": self.deviation}

    def _summary(self) -> dict:
        d = {k: v for k, v in vars(self).items() if not isinstance(v, np.ndarray)}
        d.update(schema=1, kind="gram")
        return d

    def json_columns(self) -> tuple[dict, str, dict]:
        """The JSON report as its summary, the key "entries" and the entry
        rows as columns (see cli._json_rows)."""
        return self._summary(), "entries", {
            name: (c.tolist(), None) for name, c in self._columns().items()}

    def to_csv(self) -> str:
        rows = zip(*(column.tolist() for column in self._columns().values()))
        lines = ["i,j,label_i,label_j,numeric,closed_exact,certified,deviation"]
        lines += [f"{i},{j},{self.labels[i]},{self.labels[j]},{x!r},{c!r},{int(ok)},{dev!r}"
                  for i, j, x, c, ok, dev in rows]
        return "\n".join(lines) + "\n"


def gram_report(
    params: list[tuple[FamilyLabel, Coefficient]],
    r: int,
    p: int,
    *,
    auto_raise: bool = True,
    tol: float = 1e-9,
) -> GramReport:
    """Verify the full cross table of a finite sample of the basis families.

    Family label None (or "inf") selects the delta family.  The grid is
    auto-sized; with auto_raise the truncation exponent is raised until every
    pair's closed value is certified, otherwise under-threshold pairs are
    computed but flagged uncertified and excluded from the pass criterion.
    p = 2 is refused (OddPrimeError), and any p not prime (ValueError),
    before any label is read.

    The table is built in one pass per table, not one call per state: the
    Python work is done once per distinct label object and once per
    distinct valuation key, and every step per state or per pair is a numpy
    gather over the states' label codes.  Each distinct label is read once
    (`read_coefficient`): its valuation first, with no Fraction built for a
    digit string, so that a grid past the cell cap is refused before any
    big-int work, then its exact value.  The pair valuations come from
    integer numerators over one common denominator, int64 below
    _numerators' overflow bound, and _state_stack checks each label's window
    on the same reading.  Its one int64 residue guard, gauss._check_modulus
    on the stack grid's p^(r+k), never fires here: that grid is no larger
    than the reported one, which make_grid caps at DEFAULT_CELL_CAP <=
    gauss.MAX_INT64_RESIDUE cells.

    Grid(p, r_used, k_used) is the grid that is reported and capped: the
    state grid resolved max(r_used, 0) digits finer, _cell_resolution at
    the valuations shifted by that much.  A delta's centre is read to its
    window p^k_used.  The states are checked and built, and the Gram
    product run, on Grid(p, r_used, k_cell), the least grid that resolves
    every state (k_cell from _cell_resolution, required_resolution's rule).
    On it every root and float expression is that of the per-state
    constructors, the roots gathered from a table of p^M <= n of them built
    inside each call, so the report's bytes do not depend on how the labels
    were read.
    """
    check_odd_prime(p)
    _check_prime(p)
    labels, codes = _index_labels(params)
    reads = [None if x is None else read_coefficient(x, p) for x in labels]
    vals = [INF if x is None else x.valuation for x in reads]
    delta = np.array([x is None for x in reads], dtype=bool)[codes[:, 0]]
    has_delta = bool(delta.any())
    va_min, vb_min = (min(map(vals.__getitem__, col), default=INF)
                      for col in codes[~delta].T.tolist())

    def resolution(r_grid: int) -> int:
        """k_used: _cell_resolution at the valuations shifted by max(r, 0).
        Every bound falls as the valuation rises, so the smallest chirp
        valuations size every chirp, and as v(x - y) >= min(v(x), v(y)), no
        pair difference needs a finer grid."""
        shift = max(r_grid, 0)
        return _cell_resolution(va_min - shift, vb_min - shift, r_grid, has_delta)

    # r_used is at least r, and with auto_raise at least -v(b) for a delta
    # centre b, which must lie in p^(-r)Z_p; r + k only grows with r (every
    # bound of resolution does), so the cap is checked at that least r, from
    # the valuations alone
    r_low = r
    if auto_raise:
        r_low = max([r, *(-vals[c] for c in set(codes[delta, 1].tolist()))])
    check_power_cap(p, r_low + resolution(r_low), DEFAULT_CELL_CAP,
                    "{size} cells exceed the cap {cap}")
    values = [Fraction(0) if x is None else x.value for x in reads]  # a delta's a read as 0
    num, d = _numerators(values)
    table = _difference_valuations(num, d, p)
    # the pair columns, i <= j
    i, j = _upper_pairs(len(codes), 0)
    a_of, b_of = codes.T
    delta_i = delta[i]
    mixed = delta_i != delta[j]
    same = ~mixed
    # a delta and a chirp (a, b): r certifies modulus 1 from v(a) and the
    # linear coefficient b - 2a*b_delta of the chirp seen from -b_delta,
    # whose numerator over d^2 is taken in integers
    chirp, at = np.where(delta_i, j, i)[mixed], np.where(delta_i, i, j)[mixed]
    lin = _linear_valuations(num, d, p, a_of[chirp], b_of[chirp], b_of[at])
    min_r = np.empty(len(i))
    min_r[mixed] = np.maximum(np.ceil(-table[a_of[chirp], a_of[at]] / 2), -lin)
    # any other pair: each distinct key (v(Δa), v(Δb)) gets its threshold
    # once, then r_used, then its closed modulus once: the table read at
    # R = max(r_used, t + 1), as gauss.simplified_norm reads it.  A key is
    # coded by the places of its two valuations among the table's distinct
    # ones, and the codes present are found by one scatter, not a sort
    vt = sorted(set(table.ravel().tolist()))  # the distinct v(x - y), inf last
    place = np.searchsorted(vt, table)
    code = (place[a_of[i], a_of[j]] * len(vt) + place[b_of[i], b_of[j]])[same]
    present = np.zeros(len(vt) ** 2, dtype=bool)
    present[code] = True
    key_of = (np.cumsum(present) - 1)[code]
    v_of = [v if v == INF else int(v) for v in vt]
    keys = [(v_of[c // len(vt)], v_of[c % len(vt)]) for c in np.flatnonzero(present).tolist()]
    thresholds = [_threshold(*key) for key in keys]
    min_r[same] = np.array(thresholds)[key_of] + 1
    r_used = max(int(min_r.max(initial=r)), r_low) if auto_raise else r
    k = resolution(r_used)
    make_grid(p, r_used, k)  # the reported grid, within the cap
    grid = Grid(p, r_used, _cell_resolution(va_min, vb_min, r_used, has_delta))
    stack = _state_stack(reads, codes, grid, k)
    text = ["inf" if x is None else str(xf) for x, xf in zip(reads, values)]
    gram = stack.conj() @ stack.T * float(grid.measure)
    moduli = np.abs(gram)
    closed_of = [_simplified(p, r_used, *key)[0].value for key in keys]
    closed = np.ones(len(i))  # a delta and a chirp overlap with modulus 1
    closed[same] = np.array(closed_of)[key_of]
    certified = r_used >= min_r
    deviation = np.abs(moduli[i, j] - closed)
    max_dev = float(deviation[certified].max(initial=0.0))
    uncert = int(np.count_nonzero(~certified))
    return GramReport(
        p=p, r_requested=r, r_used=r_used, k_used=k,
        labels=[f"a={text[a]} b={text[b]}" for a, b in codes.tolist()], moduli=moduli,
        closed=closed, certified=certified, deviation=deviation,
        family_ranks=_family_ranks(gram, labels, a_of), tol=tol, max_certified_deviation=max_dev,
        uncertified_pairs=uncert, passed=max_dev <= tol and (uncert == 0 or not auto_raise),
    )


def _family_ranks(gram: np.ndarray, labels: list, a_of: np.ndarray) -> dict:
    """The rank of each family's block of the Gram matrix: each family sample
    should stay linearly independent on its grid.  A state's family is its a
    label, labels[a_of[s]], named "inf" or str(a); only the distinct names
    are sorted.  Blocks of one size go through one stacked
    np.linalg.matrix_rank, which runs the SVD of each block as a lone call
    does."""
    used = sorted(set(a_of.tolist()))
    names = ["inf" if labels[c] is None else str(labels[c]) for c in used]
    fams = sorted(set(names))
    fam_code = np.zeros(len(labels), dtype=np.int64)
    fam_code[used] = [*map(fams.index, names)]
    fam_of = fam_code[a_of]
    sizes = np.bincount(fam_of, minlength=len(fams))
    if sizes.size and sizes.min() == sizes.max():
        rows = np.argsort(fam_of, kind="stable").reshape(len(fams), -1)
        ranks = np.linalg.matrix_rank(gram[rows[:, :, None], rows[:, None, :]]).tolist()
    else:
        ranks = [int(np.linalg.matrix_rank(gram[np.ix_(fam_of == f, fam_of == f)]))
                 for f in range(len(fams))]
    return dict(zip(fams, ranks))


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
