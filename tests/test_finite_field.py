"""F_{p^r} arithmetic, modulus selection, and the absolute trace."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_mub import CapError, build_field, ff_char, phase_to_complex, trace
from padic_mub.finite_field import (
    DEFAULT_FIELD_CAP,
    FIELD_CACHE_SIZE,
    FieldElem,
    _default_field,
    _poly_mod,
    irreducible_polynomials,
)
from padic_mub.padic import is_prime


def _poly_eval(coeffs, x, p):
    return sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p


def oracle_mul(x, y) -> tuple[int, ...]:
    """The coefficients of x * y by the schoolbook product and a generic
    polynomial division by the modulus (the product as it used to be)."""
    p, r = x.ctx.p, x.ctx.r
    prod = [0] * (2 * r - 1)
    for i, a in enumerate(x.coeffs):
        if a:
            for j, b in enumerate(y.coeffs):
                prod[i + j] = (prod[i + j] + a * b) % p
    rem = _poly_mod(prod, x.ctx.modulus, p)
    return rem + (0,) * (r - len(rem))


def oracle_trace(x) -> int:
    """x + x^p + ... + x^(p^(r-1)) from oracle_mul alone."""
    ctx = x.ctx
    acc, frob = [0] * ctx.r, x
    for _ in range(ctx.r):
        acc = [(s + c) % ctx.p for s, c in zip(acc, frob.coeffs)]
        power = ctx.one
        for _ in range(ctx.p):
            power = ctx.element(oracle_mul(power, frob))
        frob = power
    assert not any(acc[1:])
    return acc[0]


@pytest.mark.parametrize("p,r,modulus", [
    (3, 1, None), (7, 1, None), (3, 2, None), (5, 2, None), (3, 3, None), (3, 3, (1, 2, 0, 1)),
    (3, 4, None), (5, 3, None),
])
def test_product_matches_the_division_oracle_on_every_pair(p, r, modulus):
    f = build_field(p, r, modulus=modulus)
    elems = list(f.elements())
    for x in elems:
        for y in elems:
            assert (x * y).coeffs == oracle_mul(x, y)


@pytest.mark.parametrize("p,r,modulus", [(3, 2, None), (3, 3, (1, 2, 0, 1)), (5, 3, None)])
def test_trace_matches_the_oracle(p, r, modulus):
    f = build_field(p, r, modulus=modulus)
    for x in f.elements():
        assert x.trace() == oracle_trace(x)


@pytest.mark.parametrize("p,r", [(3, 1), (7, 1), (3, 2), (3, 3), (3, 4), (5, 3)])
def test_trace_takes_r_minus_one_frobenius_powers(p, r, monkeypatch):
    f = build_field(p, r)
    calls = {"mul": 0, "pow": 0}
    mul, power = FieldElem.__mul__, FieldElem.__pow__

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counted_pow(self, n):
        calls["pow"] += 1
        return power(self, n)

    monkeypatch.setattr(FieldElem, "__mul__", counted_mul)
    monkeypatch.setattr(FieldElem, "__pow__", counted_pow)
    for x in list(f.elements())[:10]:
        calls.update(mul=0, pow=0)
        trace(x)
        assert calls["pow"] == r - 1
        if r == 1:
            assert calls["mul"] == 0


def test_build_field_degree_one_modulus_is_x():
    f = build_field(3, 1)
    assert f.modulus == (0, 1)


def test_build_field_p3_r2_smallest_irreducible():
    # independent oracle: enumerate all 9 monic quadratics, root-test each
    found = None
    for c0 in range(3):
        for c1 in range(3):
            if all(_poly_eval((c0, c1, 1), x, 3) != 0 for x in range(3)):
                found = (c0, c1, 1)
                break
        if found:
            break
    f = build_field(3, 2)
    assert f.modulus == found == (1, 0, 1)


def test_build_field_rejects_non_prime():
    with pytest.raises(ValueError):
        build_field(4, 1)


def test_build_field_cap():
    with pytest.raises(CapError):
        build_field(5, 5)


def test_second_irreducible_matches_enumeration():
    gen = irreducible_polynomials(3, 2)
    assert next(gen) == (1, 0, 1)
    assert next(gen) == (2, 1, 1)


def test_inverse_and_negation_exhaustive_f9():
    f = build_field(3, 2)
    for x in f.elements():
        assert (x + (-x)).is_zero
        if not x.is_zero:
            assert x * x.inv() == f.one


def test_multiplicative_group_order_f9():
    f = build_field(3, 2)
    for g in f.elements():
        if not g.is_zero:
            assert g**8 == f.one


def test_zero_inverse_rejected():
    f = build_field(3, 2)
    with pytest.raises(ZeroDivisionError):
        f.zero.inv()


def test_trace_of_zero_and_prime_subfield():
    for p, r in ((3, 2), (5, 2), (3, 3)):
        f = build_field(p, r)
        assert trace(f.zero) == 0
        for c in range(p):
            elem = f.element((c,) + (0,) * (r - 1))
            assert trace(elem) == r * c % p


def test_trace_kernel_size_f9():
    f = build_field(3, 2)
    kernel = [x for x in f.elements() if trace(x) == 0]
    assert len(kernel) == 3


@pytest.mark.parametrize("p,r", [(2, 3), (3, 1), (3, 2), (3, 4), (5, 2), (5, 3), (7, 2)])
def test_trace_linear_frobenius_and_fibers(p, r):
    # exact, exhaustive for p^r <= 125 (plus the 3^4 case): F_p-linearity,
    # Frobenius invariance, and equidistribution of trace values
    f = build_field(p, r)
    elems = list(f.elements())
    counts = [0] * p
    for x in elems:
        counts[trace(x)] += 1
        assert trace(x**p) == trace(x)
    assert counts == [p ** (r - 1)] * p
    step = max(1, len(elems) // 25)
    for x in elems[::step]:
        for y in elems[::step]:
            assert trace(x + y) == (trace(x) + trace(y)) % p


def test_ff_char_values():
    f3 = build_field(3, 1)
    assert ff_char(f3.zero).is_trivial
    assert str(ff_char(f3.one)) == "1/3"


def test_ff_char_full_sum_vanishes_f9():
    f = build_field(3, 2)
    total = sum(phase_to_complex(ff_char(x)) for x in f.elements())
    assert abs(total) < 1e-12


def test_element_str_and_labels():
    f = build_field(3, 2)
    e = f.element(5)
    assert e.coeffs == (2, 1)
    assert str(e) == "(2,1)"
    assert e.label() == 5


def test_explicit_modulus_validation():
    default = build_field(3, 2)  # the shared context is built; an explicit modulus is not it
    with pytest.raises(ValueError):
        build_field(3, 2, modulus=(0, 0, 1))  # x^2 is reducible
    with pytest.raises(ValueError, match="reducible"):
        build_field(3, 2, modulus=(2, 0, 1))  # x^2 - 1
    f = build_field(3, 2, modulus=(2, 1, 1))
    assert f.modulus == (2, 1, 1)
    same = build_field(3, 2, modulus=default.modulus)
    assert same == default and same is not default


def test_default_field_is_one_context_per_p_and_r(monkeypatch):
    seen = {}
    for p, r in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (2, 4), (7, 2)]:
        f = build_field(p, r)
        assert (f.p, f.r) == (p, r) and build_field(p, r) is f
        seen[p, r] = f
    assert len({id(f) for f in seen.values()}) == len(seen)
    monkeypatch.setattr("padic_mub.finite_field.DEFAULT_FIELD_CAP", 9)
    assert build_field(3, 2) is seen[3, 2]


def test_every_field_under_the_default_cap_stays_shared():
    fields = [(p, r) for p in range(2, DEFAULT_FIELD_CAP + 1) if is_prime(p)
              for r in range(1, 10) if p**r <= DEFAULT_FIELD_CAP]
    assert len(fields) == FIELD_CACHE_SIZE == 136
    _default_field.cache_clear()
    first = [build_field(p, r) for p, r in fields]
    assert all(build_field(p, r) is f for (p, r), f in zip(fields, first))


def test_checks_run_before_the_shared_context_is_read(monkeypatch):
    build_field(5, 4)
    monkeypatch.setattr("padic_mub.finite_field.DEFAULT_FIELD_CAP", 624)
    with pytest.raises(CapError, match="field size 5\\^4 exceeds cap 624"):
        build_field(5, 4)
    build_field(2, 1)
    with pytest.raises(ValueError, match="extension degree"):
        build_field(2, 0)
    for p in (1, 4, 9):
        with pytest.raises(ValueError, match="not prime"):
            build_field(p, 1)


def test_mixed_context_rejected():
    f1 = build_field(3, 2)
    f2 = build_field(3, 2, modulus=(2, 1, 1))
    with pytest.raises(ValueError):
        f1.one + f2.one



def old_mul(self, other):
    """FieldElem.__mul__ as it was: results through the checking constructor."""
    self._same_field(other)
    ctx = self.ctx
    r = ctx.r
    prod = [0] * (2 * r - 1)  # schoolbook, reduced once at the end
    for i, a in enumerate(self.coeffs):
        if a:
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
    low = prod[:r]
    for c, row in zip(prod[r:], ctx.high_powers):
        if c:
            for k, h in enumerate(row):
                low[k] += c * h
    return FieldElem(ctx, tuple(c % ctx.p for c in low))


def old_pow(self, n):
    """FieldElem.__pow__ as it was, from ctx.one, each product by old_mul."""
    if n < 0:
        return old_pow(self.inv(), -n)
    out, base = self.ctx.one, self
    while n:
        if n & 1:
            out = old_mul(out, base)
        base = old_mul(base, base)
        n >>= 1
    return out


FIELDS = [(2, 1), (2, 3), (3, 1), (3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (11, 1)]


def _agree(new, old):
    """new() and old() give one element, reduced and checked, or one error."""
    try:
        want = old()
    except Exception as exc:
        with pytest.raises(Exception) as got:
            new()
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    got = new()
    assert got == want and FieldElem(got.ctx, got.coeffs) == got
    assert all(type(c) is int for c in got.coeffs)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_operations_match_the_old_multiply_and_power(data):
    f = build_field(*data.draw(st.sampled_from(FIELDS)))
    x, y = (f.element(data.draw(st.integers(0, f.size - 1))) for _ in range(2))
    n = data.draw(st.integers(-3, 3 * f.size))
    neg_y = FieldElem(f, tuple(-c % f.p for c in y.coeffs))
    _agree(lambda: x * y, lambda: old_mul(x, y))
    _agree(lambda: x**n, lambda: old_pow(x, n))
    _agree(lambda: x**f.p, lambda: old_pow(x, f.p))
    _agree(lambda: -y, lambda: neg_y)
    _agree(lambda: (x + y) * (-y), lambda: old_mul(
        FieldElem(f, tuple((a + b) % f.p for a, b in zip(x.coeffs, y.coeffs))), neg_y))
    _agree(lambda: x - y, lambda: FieldElem(
        f, tuple((a - b) % f.p for a, b in zip(x.coeffs, y.coeffs))))
    if x.is_zero:
        with pytest.raises(ZeroDivisionError, match="zero has no inverse in a field"):
            x.inv()
    else:
        _agree(x.inv, lambda: old_pow(x, f.size - 2))
    assert x.trace() == oracle_trace(x)


def test_power_makes_no_call_to_the_public_multiply(monkeypatch):
    f = build_field(5, 3)
    calls = []
    mul = FieldElem.__mul__
    monkeypatch.setattr(FieldElem, "__mul__", lambda self, other: calls.append(1) or mul(self, other))
    x = f.element(70)
    assert (x ** 124).coeffs == f.one.coeffs and (x ** 0).coeffs == f.one.coeffs
    assert calls == []
