"""A report holds for every value its digits admit (ROADMAP item 11).

A digit string 'd0 ... d(n-1) *p^v' fixes its value modulo p^N, N = v + n,
and admits every completion x + p^N*t with t p-integral.  Run in-process
with `--format json`, the digit run either exits 2 or agrees with each
completion on the exit code, the verdict, the JSON keys and every exact
field of its command.  The floats (numeric, deviations, measured values,
residuals) are computed from one value and may differ in their last bits;
they are not compared, nor are the coefficient texts a report echoes.

`mub-padic` is left out while it has an open defect: it reads two labels
that agree in all their digits as equal.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from padic_mub.cli import main

PRIMES = st.sampled_from([3, 5, 7])


def _run(argv: list[str]) -> tuple[int, dict | None]:
    """The exit code and the JSON report (None on exit 2) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", "json"])
    return code, json.loads(out.getvalue()) if code != 2 else None


def _keys(d: dict, prefix: str = "") -> set[str]:
    """Every key path of a nested JSON dict."""
    keys = set()
    for key, value in d.items():
        keys.add(prefix + key)
        if isinstance(value, dict):
            keys |= _keys(value, f"{prefix}{key}.")
    return keys


@st.composite
def _digits(draw, p: int, v: int | None = None, size: int | None = None):
    """(text, [text of each completion], is a zero O(p^N)): a digit string of
    1 to 4 digits and exponent -2 to 2, all-zero strings included, with its
    own value and two more completions x + p^N*t, t p-integral.  Given v and
    size, a string of size digits, the first nonzero, so of valuation v."""
    digit = st.integers(0, p - 1)
    if size is None:
        ds = draw(st.lists(digit, min_size=1, max_size=4) | st.lists(st.just(0), min_size=1, max_size=4))
        v = draw(st.integers(-2, 2))
    else:
        ds = [draw(st.integers(1, p - 1)), *draw(st.lists(digit, min_size=size - 1, max_size=size - 1))]
    x = sum(d * p**i for i, d in enumerate(ds)) * Fraction(p) ** v
    unit_den = st.integers(1, 12).filter(lambda d: d % p)
    ts = [0, *draw(st.lists(st.builds(Fraction, st.integers(-30, 30), unit_den),
                            min_size=2, max_size=2))]
    completions = [str(x + Fraction(p) ** (v + len(ds)) * t) for t in ts]
    return f"{' '.join(map(str, ds))} *{p}^{v}", completions, not any(ds)


def _agree(digit_run, completion_runs, fields):
    code, report = digit_run
    if code == 2:
        return
    for got_code, got in completion_runs:
        assert got_code == code, (digit_run, got_code, got)
        assert got["passed"] == report["passed"]
        assert _keys(got) == _keys(report)
        assert {f: got[f] for f in fields} == {f: report[f] for f in fields}, (report, got)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=PRIMES, r=st.integers(-1, 2))
def test_gauss_integral_holds_for_every_admitted_value(data, p, r):
    (a, a_values, a_zero), (b, b_values, b_zero) = data.draw(_digits(p)), data.draw(_digits(p))
    for oracle in ([], ["--oracle"]):
        head = ["gauss-integral", "-p", str(p), "-r", str(r), *oracle]
        fields = ["case", "closed_exact", *(["reduction_l"] if oracle else [])]
        code, report = digit_run = _run([*head, f"-a={a}", f"-b={b}"])
        if a_zero or b_zero:
            # a zero O(p^N) has only a lower bound on its valuation, so the
            # digit run reports no threshold and certifies nothing, where each
            # completion reports the threshold of its own exact valuation
            assert code == 2 or (report["threshold"], report["simplified_certified"]) == (None, False)
        else:
            fields += ["threshold", "simplified_certified"]
        _agree(digit_run, [_run([*head, f"-a={x}", f"-b={y}"]) for x, y in zip(a_values, b_values)],
               fields)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=PRIMES, r=st.integers(-2, 2))
def test_fourier_ball_holds_for_every_admitted_value(data, p, r):
    z, values, _ = data.draw(_digits(p))
    head = ["fourier-ball", "-p", str(p), "-r", str(r)]
    _agree(_run([*head, f"-z={z}"]), [_run([*head, f"-z={x}"]) for x in values],
           ["grid", "ball_exponent"])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=PRIMES)
def test_eigen_check_holds_for_every_admitted_value(data, p):
    # the grid and the expected phase are exact; the state is built from the
    # digits' own value, so the measured value, the residual and the echoed
    # a, b and c may differ.  A zero O(p^N) has no valuation to size from.
    # Two times in three the valuations are drawn first and each digit string
    # carries the digits they need, N_a >= -2v(c), N_b >= -v(c) and
    # N_c >= max(-v(b), -v(a) - v(c)), so that the run is checked; else the
    # strings are drawn freely, and many must be refused.  Each coefficient
    # is a digit string or, half the time, its exact value.
    draws = [_digits(p)] * 3
    if data.draw(st.sampled_from([True, True, False])):
        va, vb, vc = (data.draw(st.integers(-2, 2)) for _ in range(3))
        needs = (-2 * vc, -vc, max(-vb, -va - vc))
        draws = [_digits(p, v, max(1, need - v) + data.draw(st.integers(0, 1)))
                 for v, need in zip((va, vb, vc), needs)]
    texts, completions, zero = [], [], False
    for draw in draws:
        text, values, is_zero = data.draw(draw)
        if data.draw(st.booleans()):
            text, values, is_zero = values[0], values[:1] * len(values), False
        texts.append(text)
        completions.append(values)
        zero |= is_zero
    head = ["eigen-check", "-p", str(p)]
    digit_run = _run([*head, *(f"-{x}={t}" for x, t in zip("abc", texts))])
    if zero:
        assert digit_run[0] == 2, digit_run
    _agree(digit_run, [_run([*head, *(f"-{x}={t}" for x, t in zip("abc", ts))])
                       for ts in zip(*completions)],
           ["grid", "expected_phase"])
