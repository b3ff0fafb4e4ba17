"""Seeded job lists for the four workloads, with their expected exit codes.

A job is a JSON-ready dict: ``kind`` (a subcommand, or a property check from
checks.py), ``argv`` or ``args``, and ``expect`` (the exit code oracle.py
predicts; 0 also means a PASS verdict).

The three bulk workloads are stratified: each pass runs a fixed number of
jobs of each cost class, in a seeded order, with seeded parameters inside
the class.  Two classes are anchors of one fixed problem size placed where
the 50th and 90th percentile ranks fall, so that ``job_ms.p50`` and
``job_ms.p90`` read the same problem size under every seed, and ``wall_s``
sums the same amount of work.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from . import oracle
from .oracle import coeff_text

# Pass shape of the bulk workloads (100 jobs).  Ascending cost, so the
# sorted latencies of one pass put index 49.5 inside "p50" and 89.1 inside
# "p90".
STRATA = (("tiny", 38), ("p50", 24), ("mid", 22), ("p90", 10), ("top", 6))

ODD_PRIMES = [p for p in range(3, 600) if oracle.is_prime(p)]


# ---------------------------------------------------------------------------
# jobs: argv plus the exit code the oracle expects
# ---------------------------------------------------------------------------


def _cli(kind: str, argv: list[str], expect: int, fmt: str) -> dict:
    return {"kind": kind, "argv": [kind, *argv, "--format", fmt], "expect": expect}


def _opt(flag: str, text: str) -> list[str]:
    """A value that starts with '-' must be attached, or argparse reads a flag."""
    return [f"{flag}={text}"] if text.startswith("-") else [flag, text]


def _coeffs(p: int, **coeffs: list) -> list[str]:
    return [t for flag, c in coeffs.items() for t in _opt(f"-{flag}", coeff_text(c, p))]


def ring_job(p, k, l, a, b, fmt="table", oracle_flag=True) -> dict:
    argv = ["-p", str(p), "-k", str(k), "-l", str(l), "-a", str(a), "-b", str(b)]
    if oracle_flag:
        argv.append("--oracle")
    return _cli("gauss-ring", argv, oracle.expect_gauss_ring(p, k, l, a, b, oracle_flag), fmt)


def integral_job(p, r, a, b, fmt="table", oracle_flag=True) -> dict:
    argv = ["-p", str(p), "-r", str(r), *_coeffs(p, a=a, b=b)]
    if oracle_flag:
        argv.append("--oracle")
    return _cli("gauss-integral", argv, oracle.expect_gauss_integral(p, r, a, b, oracle_flag), fmt)


def mub_finite_job(p, r, fmt="table") -> dict:
    return _cli("mub-finite", ["-p", str(p), "-r", str(r)], oracle.expect_mub_finite(p, r), fmt)


def mub_padic_job(p, r, bs=None, fmt="table") -> dict:
    argv = ["-p", str(p), "-r", str(r)]
    if bs:
        argv += _opt("--bs", ",".join(coeff_text(b, p) for b in bs))
    return _cli("mub-padic", argv, oracle.expect_mub_padic(p, r, bs), fmt)


def fourier_job(p, r, z, k=None, fmt="table") -> dict:
    argv = ["-p", str(p), "-r", str(r), *_coeffs(p, z=z)]
    if k is not None:
        argv += ["-k", str(k)]
    return _cli("fourier-ball", argv, oracle.expect_fourier_ball(p, r, z, k), fmt)


def eigen_job(p, a, b, c, fmt="table") -> dict:
    argv = ["-p", str(p), *_coeffs(p, a=a, b=b, c=c)]
    return _cli("eigen-check", argv, oracle.expect_eigen_check(p, a, b, c), fmt)


def sweep_job(suite: str, seed: int | None = None) -> dict:
    argv = [suite] + ([] if seed is None else ["--seed", str(seed)])
    return _cli("sweep", argv, oracle.PASS, "json")


def check_job(kind: str, **args) -> dict:
    return {"kind": kind, "args": args, "expect": oracle.PASS}


# One small valid job per kind, run untimed during set-up.
WARMUP = {
    "gauss-ring": ring_job(3, 1, 1, 1, 0),
    "gauss-integral": integral_job(3, 1, ["rat", 1, 1], ["rat", 0, 1]),
    "mub-finite": mub_finite_job(3, 1),
    "mub-padic": mub_padic_job(3, 1),
    "fourier-ball": fourier_job(3, 1, ["rat", 1, 3]),
    "eigen-check": eigen_job(3, ["rat", 1, 1], ["rat", 0, 1], ["rat", 1, 3]),
    "sweep": sweep_job("operators", 0),
    "padic-arith": check_job("padic-arith", p=3, precision=8, pairs=[[1, 2, 2, 9]]),
    "char-hom": check_job("char-hom", p=3, precision=8, pairs=[[1, 3, 2, 9]]),
    "trace-props": check_job("trace-props", p=3, r=2, pairs=[[1, 2, 1]]),
}


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------


def _unit(rng: random.Random, p: int, bound: int = 50) -> int:
    while True:
        u = rng.randint(1, bound)
        if u % p:
            return u


def _rational(rng: random.Random, p: int, v: int | float) -> list:
    """A seeded rational of valuation v (zero when v is infinite)."""
    if v == oracle.INF:
        return ["rat", 0, 1]
    num, den = rng.choice((-1, 1)) * _unit(rng, p), _unit(rng, p, 12)
    if v >= 0:
        num *= p**v
    else:
        den *= p ** (-v)
    q = Fraction(num, den)
    return ["rat", q.numerator, q.denominator]


def _digits(rng: random.Random, p: int, n: int, exp: int) -> list:
    """A digit string with n uniformly drawn digits: all-zero at rate p^-n."""
    return ["digits", [rng.randrange(p) for _ in range(n)], exp]


def _power(p: int, v: int | float) -> Fraction:
    """p^v, or 0 for v infinite: the simplest number of valuation v."""
    return Fraction(0) if v == oracle.INF else Fraction(p) ** v


@lru_cache(maxsize=None)
def _integral_shapes(p: int, k: int) -> list[tuple[int, int | float, int | float]]:
    """Every (r, v(a), v(b)) in a small box whose reduction is a sum over Z/p^k
    with exponents mod p^k (so l = k, as in the ring sums drawn beside them)."""
    vals = [*range(-3, 7), oracle.INF]
    return [
        (r, va, vb)
        for r in range(-2, 10)
        for va in vals
        for vb in vals
        if oracle.integral_reduction(p, r, _power(p, va), _power(p, vb)) == (k, k)
    ]


def _sum_of_terms(rng: random.Random, p: int, k: int, fmt: str) -> dict:
    """A ring sum or a Gauss integral whose brute force sums p^k terms mod p^k.

    The cost of a brute-force sum follows its term count and modulus only,
    so every job drawn for one (p, k) costs the same.
    """
    if rng.random() < 0.5:
        return ring_job(p, k, k, rng.randrange(p**k), rng.randrange(p**k), fmt)
    r, va, vb = rng.choice(_integral_shapes(p, k))
    return integral_job(p, r, _rational(rng, p, va), _rational(rng, p, vb), fmt)


def _format(rng: random.Random, *choices: str) -> str:
    return rng.choice(choices or ("table", "json"))


def _cycle(values, n: int) -> list:
    """n values taken in turn, so every seed gets the same mix of sizes."""
    return [values[i % len(values)] for i in range(n)]


def _shuffled(rng: random.Random, strata: dict[str, list[dict]]) -> list[dict]:
    jobs = []
    for name, count in STRATA:
        batch = strata[name]
        if len(batch) != count:
            raise AssertionError(f"stratum {name} has {len(batch)} jobs, want {count}")
        jobs += batch
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def gauss_sweep(rng: random.Random, seed: int) -> list[dict]:
    """Closed-form tables and brute-force sums: the gauss and sweeps layers.

    Sizes come from short fixed lists, so the moduli of a pass (about 40,
    sweeps included) all stay in the 64-entry roots_of_unity cache: memory
    peaks at one size, and this workload is the cache's control.  Each
    class takes its sizes in turn, so every seed sums the same terms.
    """
    small = [(3, 5), (3, 6), (5, 4), (7, 3), (11, 3), (13, 2), (31, 2), (37, 2)]  # <= 1369 terms
    medium = [(3, 10), (5, 7), (13, 4), (17, 4), (41, 3), (43, 3)]  # 28561 to 83521 terms
    large = [(997, 2), (31, 4), (7, 7), (29, 4)]  # 0.7 to 1.0 million terms
    return _shuffled(rng, {
        "tiny": [_sum_of_terms(rng, p, k, _format(rng)) for p, k in _cycle(small, 38)],
        "p50": [_sum_of_terms(rng, 3, 9, _format(rng)) for _ in range(24)],
        "mid": [_sum_of_terms(rng, p, k, _format(rng)) for p, k in _cycle(medium, 22)],
        "p90": [_sum_of_terms(rng, 5, 8, _format(rng)) for _ in range(10)],
        "top": [sweep_job("gauss-grid"), sweep_job("thresholds")]
        + [_sum_of_terms(rng, p, k, _format(rng)) for p, k in large],
    })


LARGEST_FIELDS = [(5, 3), (3, 4), (89, 1), (83, 1), (79, 1), (73, 1)]  # q = 125 down to 73


def finite_mub(rng: random.Random, seed: int) -> list[dict]:
    """Build and verify p^r+1 bases: most time in all-pairs products, q >= 81.

    Every class takes its fields in turn, so every seed verifies the same
    fields in a seeded order.  The format stays the table: a JSON report
    lists every pair (254 KB at q = 49) and takes 1.6x as long.
    """
    def jobs(fields, n):
        return [mub_finite_job(p, r) for p, r in _cycle(fields, n)]

    return _shuffled(rng, {
        "tiny": jobs([(3, 2), (11, 1), (13, 1), (17, 1), (19, 1)], 38),
        "p50": jobs([(3, 3)], 24),
        "mid": jobs([(31, 1), (37, 1), (41, 1), (43, 1)], 22),
        "p90": jobs([(7, 2)], 10),
        "top": jobs(LARGEST_FIELDS, len(LARGEST_FIELDS)),
    })


def _distinct_residues(rng: random.Random, p: int, n: int) -> list[list]:
    """n b samples in Z_p, pairwise distinct mod p (so r_used stays 1)."""
    return [["rat", res + p * rng.randrange(4), 1] for res in rng.sample(range(p), n)]


def _fourier_cells(rng: random.Random, p: int, digits: int) -> dict:
    """fourier-ball of the ball z + p Z_p on a grid of exactly p^digits cells.

    The ball exponent is fixed, because it sets how many cells of the
    transform the closed form evaluates.
    """
    vz = rng.randint(-1, 1)
    r0 = max(0, -vz)
    return fourier_job(p, 1, _rational(rng, p, vz), k=digits - r0)


def _eigen_small(rng: random.Random, p: int) -> dict:
    a, b, c = (_rational(rng, p, rng.randint(-1, 1)) for _ in range(3))
    return eigen_job(p, a, b, c)


def padic_grid(rng: random.Random, seed: int) -> list[dict]:
    """The Q_p side: Gram tables, ball transforms and operator sweeps."""
    return _shuffled(rng, {
        "tiny": [_eigen_small(rng, rng.choice((3, 5))) for _ in range(19)]
        + [_fourier_cells(rng, 3, rng.randint(2, 5)) for _ in range(19)],
        "p50": [_fourier_cells(rng, 3, 7) for _ in range(24)],
        "mid": [mub_padic_job(5, 1, _distinct_residues(rng, 5, 5)) for _ in range(9)]
        + [_fourier_cells(rng, 3, 8) for _ in range(11)]
        + [sweep_job("operators", seed + i) for i in range(2)],
        "p90": [mub_padic_job(7, 1, _distinct_residues(rng, 7, 7)) for _ in range(10)],
        # one of each largest job, so a pass stays short and a run holds many
        "top": [_fourier_cells(rng, 3, 10), mub_padic_job(11, 1, _distinct_residues(rng, 11, 11))]
        + [_fourier_cells(rng, 3, 9) for _ in range(4)],
    })


REPRODUCER = integral_job(3, 5, ["digits", [0, 0], 0], ["rat", 1, 1])
"""Known below its needed precision, so it must exit 2 (ROADMAP precision defect)."""


def _oracle_if_small(rng: random.Random, terms: int) -> bool:
    """--oracle for small sums, or (at random) for sums over the cap, which must
    exit 2; never for larger valid sums, which belong to gauss-sweep."""
    return terms <= 10**4 or (terms > oracle.TERM_CAP and rng.random() < 0.5)


def _query_integral(rng: random.Random, fmt: str) -> dict:
    p = rng.choice(ODD_PRIMES[:4] + [2])
    r = rng.randint(-1, 3)
    coeffs = []
    for _ in range(2):
        if rng.random() < 0.5:
            coeffs.append(_digits(rng, p, rng.randint(1, 4), rng.randint(-2, 2)))
        else:
            coeffs.append(_rational(rng, p, rng.choice([*range(-3, 4), oracle.INF])))
    _, k = oracle.integral_reduction(p, r, *(oracle.coeff_value(c, p) for c in coeffs))
    flag = rng.random() < 0.8 and _oracle_if_small(rng, p**k)
    return integral_job(p, r, *coeffs, fmt=fmt, oracle_flag=flag)


def _query_ring(rng: random.Random, p: int, fmt: str) -> dict:
    """A brute-checked ring sum of at most 10^4 terms."""
    k = 3 if p < 20 else 2 if p < 100 else 1
    l = rng.randint(1, k)
    return ring_job(p, k, l, rng.randrange(p**l), rng.randrange(p**l), fmt)


def _query_mub_padic(rng: random.Random, p: int, fmt: str) -> dict:
    if p == 2:
        return mub_padic_job(2, 1, fmt=fmt)
    bs = []
    for res in rng.sample(range(p), rng.randint(1, p)):
        if rng.random() < 0.5:
            bs.append(["rat", res + p * rng.randrange(3), 1])
        else:
            bs.append(["digits", [res] + [rng.randrange(p) for _ in range(rng.randint(0, 4))], 0])
    if p == 3 and rng.random() < 0.3:  # a second sample of one residue class raises r_used
        bs.append(["rat", int(oracle.coeff_value(bs[0], p)) + p ** rng.choice((1, 3)), 1])
    return mub_padic_job(p, 1, bs, fmt)


def _ample_digits(rng: random.Random, p: int, v: int) -> list:
    """A digit string of valuation v carrying more digits than any grid here reads."""
    return ["digits", [_unit(rng, p) % p] + [rng.randrange(p) for _ in range(11)], v]


def _query_coeff(rng: random.Random, p: int, lo: int, hi: int) -> list:
    v = rng.randint(lo, hi)
    return _ample_digits(rng, p, v) if rng.random() < 0.4 else _rational(rng, p, v)


def _query_pairs(rng: random.Random, p: int, n: int) -> list[list[int]]:
    dens = [1, p, p * p, 2, 7, p * 5]
    return [[rng.randint(-60, 60), rng.choice(dens), rng.randint(-60, 60), rng.choice(dens)]
            for _ in range(n)]


def query_mix(rng: random.Random, seed: int) -> list[dict]:
    """Many small jobs of every kind, a fixed share of them invalid.

    The mix of kinds and sizes is the same for every seed; the seed draws
    the primes, coefficients, digit strings, formats and order.
    """
    fields = [(p, r) for p in (2, 3, 5, 7, 11) for r in (1, 2, 3) if p**r <= 125]
    any_format = ("table", "json", "csv")
    jobs = [REPRODUCER]
    # one job per prime, so the moduli outnumber the 64-entry roots_of_unity cache
    jobs += [_query_ring(rng, p, _format(rng)) for p in rng.sample(ODD_PRIMES, 100)]
    over_cap = rng.sample(ODD_PRIMES[30:], 4)  # p^3 > 10^6 terms
    jobs += [ring_job(p, 3, 1, 1, 1, _format(rng)) for p in over_cap]
    jobs += [ring_job(2, 2, 1, 1, 0, _format(rng)), ring_job(3, 1, 2, 1, 0, _format(rng))]
    jobs += [_query_integral(rng, _format(rng)) for _ in range(45)]
    fields_mub = [(3, 1), (5, 1), (3, 2), (7, 1), (2, 2), (19, 2), (7, 4)]  # the last 3 exit 2
    jobs += [mub_finite_job(p, r, _format(rng, *any_format)) for p, r in _cycle(fields_mub, 15)]
    jobs += [_query_mub_padic(rng, p, _format(rng, *any_format)) for p in _cycle((3, 5, 3, 2), 15)]
    for p, k in _cycle([(3, None), (5, None), (7, None), (3, 12)], 20):  # k = 12: over the cap
        z = _query_coeff(rng, p, -2, 2)
        jobs.append(fourier_job(p, rng.randint(-1, 2), z, k=k, fmt=_format(rng)))
    for p in _cycle((3, 5, 7), 20):
        coeffs = [_query_coeff(rng, p, -1, 1) for _ in range(3)]
        jobs.append(eigen_job(p, *coeffs, fmt=_format(rng)))
    jobs += [sweep_job("operators", seed)]
    for p in _cycle((3, 5, 7), 40):
        jobs.append(check_job("padic-arith", p=p, precision=rng.randint(4, 12),
                              pairs=_query_pairs(rng, p, 6)))
    for p in _cycle((3, 5, 7), 40):
        jobs.append(check_job("char-hom", p=p, precision=rng.randint(4, 12),
                              pairs=_query_pairs(rng, p, 6)))
    for p, r in _cycle(fields, 26):
        q = p**r
        jobs.append(check_job("trace-props", p=p, r=r,
                              pairs=[[rng.randrange(q), rng.randrange(q), rng.randrange(p)]
                                     for _ in range(6)]))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "gauss-sweep": gauss_sweep,
    "finite-mub": finite_mub,
    "padic-grid": padic_grid,
    "query-mix": query_mix,
}


def job_list(workload: str, seed: int) -> list[dict]:
    """The seeded jobs of one pass; the same (workload, seed) gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"), seed)


def warmup_jobs(jobs: list[dict]) -> list[dict]:
    """One small job of each kind the list uses, in first-use order."""
    return [WARMUP[kind] for kind in dict.fromkeys(job["kind"] for job in jobs)]
