"""Arithmetic in F_{p^r} with the absolute trace map down to F_p.

Elements are polynomials over F_p reduced modulo a fixed monic irreducible
modulus of degree r.  The default modulus is the lexicographically smallest
irreducible (coefficients compared low degree first), so field construction
is reproducible with no external polynomial tables.

An element holds its context and its r coefficients, each in [0, p).  Costs:
a sum or a negation is r additions mod p; a product is the schoolbook
product of the two coefficient vectors (r^2 multiplications), reduced once
with the field's `high_powers` (x^r, ..., x^(2r-2) modulo the modulus,
computed once per `FieldCtx`; `mub_finite` reads the same rows for its
structure tensor); x**n is square and multiply on the coefficient tuples,
about 2 log2(n) products.  The operations build their results without
re-checking the coefficients they have just reduced.  The absolute trace
sums x, x^p, ..., x^(p^(r-1)) with r - 1 Frobenius powers, so a trace on F_p
multiplies nothing; it stays this direct sum because it is the independent
oracle for the linear trace tables of `mub_finite`.

A field is built once per (p, r) and process: `build_field` with the default
modulus hands every caller the same frozen `FieldCtx`, so the modulus search
and the irreducibility check run once per field, while the checks on p, r
and the size cap run on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

from .characters import UnitPhase
from .errors import check_power_cap
from .padic import PFraction, _check_prime, is_prime

DEFAULT_FIELD_CAP = 625
# room for one shared context per field under the default cap: the 136 prime
# powers p^r <= 625
FIELD_CACHE_SIZE = sum(
    1 for p in range(2, DEFAULT_FIELD_CAP + 1) if is_prime(p)
    for r in range(1, DEFAULT_FIELD_CAP.bit_length()) if p**r <= DEFAULT_FIELD_CAP
)


def _poly_trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mod(num: Sequence[int], den: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of num by den over F_p; den must be monic."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - c * dj) % p
    return _poly_trim(n % p for n in num[:dd])


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    if any(sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0 for x in range(p)):
        return False  # a root is a linear factor
    for d in range(2, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            if not _poly_mod(coeffs, (*tail, 1), p):
                return False
    return True


def irreducible_polynomials(p: int, r: int) -> Iterator[tuple[int, ...]]:
    """All monic irreducibles of degree r, ascending in low-to-high lex order."""
    for tail in product(range(p), repeat=r):
        cand = (*tail, 1)
        if r == 1 or _is_irreducible(cand, p):
            yield cand


def _high_powers(modulus: Sequence[int], p: int) -> tuple[tuple[int, ...], ...]:
    """The coefficients of x^r, ..., x^(2r-2) modulo a monic modulus of degree r."""
    r = len(modulus) - 1
    low = [-c % p for c in modulus[:r]]  # x^r = low[0] + ... + low[r-1] x^(r-1)
    powers = [tuple(int(k == n) for k in range(r)) for n in range(r)]
    for _ in range(r - 1):  # x^r .. x^(2r-2), each x times the last
        top = powers[-1]
        powers.append(tuple(((top[k - 1] if k else 0) + top[-1] * low[k]) % p
                            for k in range(r)))
    return tuple(powers[r:])


@dataclass(frozen=True)
class FieldCtx:
    """The field F_{p^r} presented as F_p[x] modulo a monic irreducible.

    `high_powers` holds x^r, ..., x^(2r-2) reduced modulo the modulus: a
    product of two elements is reduced by adding its top coefficients times
    these rows.
    """

    p: int
    r: int
    modulus: tuple[int, ...]
    high_powers: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_prime(self.p)
        if self.r < 1:
            raise ValueError("extension degree must be positive")
        if len(self.modulus) != self.r + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree r")
        if self.r > 1 and not _is_irreducible(self.modulus, self.p):
            raise ValueError(f"modulus {self.modulus} is reducible over F_{self.p}")
        object.__setattr__(self, "high_powers", _high_powers(self.modulus, self.p))

    @property
    def size(self) -> int:
        return self.p**self.r

    def element(self, value: int | Sequence[int]) -> "FieldElem":
        """Element from an integer label (base-p digits) or a coefficient list."""
        if isinstance(value, int):
            if not 0 <= value < self.size:
                raise ValueError(f"label {value} outside [0, {self.size})")
            coeffs, n = [], value
            for _ in range(self.r):
                n, d = divmod(n, self.p)
                coeffs.append(d)
            return FieldElem(self, tuple(coeffs))
        coeffs = tuple(c % self.p for c in value)
        if len(coeffs) != self.r:
            raise ValueError(f"need {self.r} coefficients, got {len(coeffs)}")
        return FieldElem(self, coeffs)

    @property
    def zero(self) -> "FieldElem":
        return self.element(0)

    @property
    def one(self) -> "FieldElem":
        return self.element(1)

    def elements(self) -> Iterator["FieldElem"]:
        """All elements, in lexicographic coefficient order."""
        for n in range(self.size):
            yield self.element(n)


def build_field(p: int, r: int, modulus: Sequence[int] | None = None) -> FieldCtx:
    """Construct F_{p^r}; the default modulus is the lex-smallest irreducible.

    The checks on p, r and the size cap DEFAULT_FIELD_CAP run on every
    call.  With the default modulus the context is then shared: one per
    (p, r) and process, so the modulus search and its irreducibility check
    run once per field.  An explicit modulus builds and validates a context
    of its own.
    """
    _check_prime(p)
    if r < 1:
        raise ValueError("extension degree must be positive")
    check_power_cap(p, r, DEFAULT_FIELD_CAP, "field size {size} exceeds cap {cap}")
    if modulus is None:
        return _default_field(p, r)
    return FieldCtx(p, r, tuple(int(c) % p for c in modulus))


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _default_field(p: int, r: int) -> FieldCtx:
    return FieldCtx(p, r, next(irreducible_polynomials(p, r)))


@dataclass(frozen=True)
class FieldElem:
    ctx: FieldCtx
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.ctx.r:
            raise ValueError("coefficient vector has wrong length")
        if min(self.coeffs) < 0 or max(self.coeffs) >= self.ctx.p:
            raise ValueError("coefficients must be reduced mod p")

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def label(self) -> int:
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.ctx.p + c
        return n

    def _same_field(self, other: "FieldElem") -> None:
        if not isinstance(other, FieldElem):
            raise TypeError(f"expected a field element, got {type(other).__name__}")
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ValueError("elements from different field contexts")

    def __add__(self, other: "FieldElem") -> "FieldElem":
        self._same_field(other)
        p = self.ctx.p
        return _elem(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElem":
        p = self.ctx.p
        return _elem(self.ctx, tuple(-c % p for c in self.coeffs))

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        return self + (-other)

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        self._same_field(other)
        return _elem(self.ctx, _mul(self.ctx, self.coeffs, other.coeffs))

    def __pow__(self, n: int) -> "FieldElem":
        """Square and multiply on the coefficient tuples, through `_mul`."""
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return self.ctx.one
        ctx, base, out = self.ctx, self.coeffs, None
        while True:
            if n & 1:
                out = base if out is None else _mul(ctx, out, base)
            n >>= 1
            if not n:
                return _elem(ctx, out)
            base = _mul(ctx, base, base)

    def inv(self) -> "FieldElem":
        if self.is_zero:
            raise ZeroDivisionError("zero has no inverse in a field")
        return self ** (self.ctx.size - 2)

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        return self * other.inv()

    def trace(self) -> int:
        """Absolute trace x + x^p + ... + x^(p^(r-1)), returned in {0,...,p-1}:
        r - 1 Frobenius powers, none for r = 1."""
        acc = frob = self
        for _ in range(self.ctx.r - 1):
            frob = frob**self.ctx.p
            acc = acc + frob
        if any(acc.coeffs[1:]):
            raise AssertionError("trace landed outside the prime subfield")
        return acc.coeffs[0]

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


def _mul(ctx: FieldCtx, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients of x * y: the schoolbook product, reduced once with
    the field's high_powers rows and then mod p."""
    r = ctx.r
    prod = [0] * (2 * r - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] += a * b
    low = prod[:r]
    for c, row in zip(prod[r:], ctx.high_powers):
        if c:
            for k, h in enumerate(row):
                low[k] += c * h
    p = ctx.p
    return tuple(c % p for c in low)


def _elem(ctx: FieldCtx, coeffs: tuple[int, ...]) -> FieldElem:
    """An element whose r coefficients an operation has already reduced mod p,
    built without __post_init__'s checks."""
    x = object.__new__(FieldElem)
    object.__setattr__(x, "ctx", ctx)
    object.__setattr__(x, "coeffs", coeffs)
    return x


def trace(x: FieldElem) -> int:
    return x.trace()


def ff_char(x: FieldElem) -> UnitPhase:
    """The additive character exp(2*pi*i*trace(x)/p) as an exact phase."""
    p = x.ctx.p
    t = x.trace()
    if t == 0:
        return UnitPhase(PFraction.zero(p))
    return UnitPhase(PFraction(p, t, 1))
