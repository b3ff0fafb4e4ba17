"""Command-line surface: one subcommand per verification pipeline.

Every run emits a machine-readable report embedding the resolved
configuration; identical configurations (including seeds) produce
byte-identical JSON.  Exit codes: 0 = pass, 1 = a verification failed
numerically, 2 = invalid input.

Each handler returns its report and its table text without a verdict;
`_emit` writes the format asked for and, under a table, the last line,
PASS or FAIL, from the verdict (`_passed`) that also sets the exit code.
A sweep's summary (`_default_table`) has no such line.

A call whose first word is a command is parsed by that command's own parser
(`command_parser`), the full parser's subparser for it, so it prints the
same help and errors.  The full parser (`build_parser`) reads every other
call, and any call whose arguments the command's parser leaves over, so
"invalid choice" and "unrecognized arguments" print its usage line.  Both
come from one parser set, built once per process (`_parsers`) and shared by
later calls.  argparse reads the terminal width each time it formats text,
so help wraps at the width of the moment, and a parse that prints nothing
reads it not at all.

`--format json` writes what `json.dumps(d, sort_keys=True, indent=2)` writes
for the report's dict d with floats rounded to 12 significant digits
(`_round_floats`).  A report with per-pair rows gives them as columns
(`json_columns`), and `_json_text` writes each row from one template,
formatting each distinct value of a column once, where json's pure-Python
indenting encoder would walk one dict per pair.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import mub_finite, mub_padic, sweeps
from .errors import CapError, check_odd_prime
from .finite_field import build_field
from .gauss import DEFAULT_TERM_CAP, _float_power, check_ring_params, integral_report, ring_report
from .mub_padic import ball_fourier_closed, ball_state, fourier, make_grid
from .padic import parse_coefficient, read_coefficient

FLOAT_DIGITS = 12
REL_TOL_HELP = "oracle tolerance on |closed - numeric|, relative to max(closed norm, 1)"


def _round_floats(obj):
    """Normalize every float to 12 significant digits for stable output."""
    if isinstance(obj, float):
        return float(f"{obj:.{FLOAT_DIGITS}g}") if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _fmt(x: float) -> str:
    return f"{x:.{FLOAT_DIGITS}g}"


def _json_value(x) -> str:
    """A float, str, bool or int as json.dumps(_round_floats(x)) writes it."""
    if isinstance(x, float):
        return repr(float(_fmt(x))) if math.isfinite(x) else f'"{x}"'
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    return int.__repr__(x)


def _json_rows(columns: dict) -> str:
    """A list of rows, given as columns, as json.dumps(_round_floats(rows),
    sort_keys=True, indent=2) writes it at the top level of a dict.

    A column is (values, index): row n holds values[index[n]], or values[n]
    for index None, and each value is formatted once.  A list of columns
    gives each row a list of their entries."""
    parts, texts = [], []
    for name in sorted(columns):
        column = columns[name]
        nested = isinstance(column, list)
        for values, index in column if nested else [column]:
            formatted = [_json_value(x) for x in values]
            texts.append(formatted if index is None else [formatted[k] for k in index])
        value = ("[\n" + ",\n".join(["        %s"] * len(column)) + "\n      ]"
                 if nested else "%s")
        parts.append(f"      {encode_basestring_ascii(name)}: {value}")
    template = "    {\n" + ",\n".join(parts) + "\n    }"
    rows = [template % row for row in zip(*texts)]
    return "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"


def _json_text(report, config: dict) -> str:
    """json.dumps(_round_floats(d), sort_keys=True, indent=2) of the report's
    JSON dict d with `config` attached, byte for byte.  json.dumps writes all
    but the per-pair rows of a report with `json_columns`, which
    `_json_rows` writes from their columns."""
    if isinstance(report, dict) or not hasattr(report, "json_columns"):
        d = report if isinstance(report, dict) else report.to_json_dict()
        d["config"] = config
        return json.dumps(_round_floats(d), sort_keys=True, indent=2)
    d, key, columns = report.json_columns()
    d["config"], d[key] = config, None
    # a string holds no raw newline, and a nested key sits deeper: the
    # marker is the one top-level `key: null`
    marker = f"\n  {encode_basestring_ascii(key)}: "
    head, _, tail = json.dumps(_round_floats(d), sort_keys=True, indent=2).partition(
        marker + "null")
    return head + marker + _json_rows(columns) + tail


def _passed(report) -> bool:
    """The verdict of a JSON dict report or of a report object."""
    return report["passed"] if isinstance(report, dict) else report.passed


def _emit(report, args, table: str | None) -> None:
    """Print the one format asked for, with the resolved invocation in JSON
    and the verdict line, PASS or FAIL, under a command's table."""
    if args.format == "json":
        config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
        text = _json_text(report, config) + "\n"
    elif args.format == "csv":
        if not hasattr(report, "to_csv"):
            raise ValueError("this command has no CSV form; use json or table")
        text = report.to_csv()
    else:
        text = (_default_table(report) if table is None
                else f"{table}{'PASS' if _passed(report) else 'FAIL'}\n")
    if args.out:
        path = Path(args.out)
        if not path.is_absolute():
            path = Path(os.environ.get("PADIC_MUB_OUTDIR", ".")) / path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _default_table(report: dict) -> str:
    """A sweep's summary, one line per field; the gauss-grid combos are left out."""
    lines = []
    for key, value in report.items():
        if key == "combos":
            continue
        if isinstance(value, float):
            value = _fmt(value)
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns (report, table text without its verdict line,
# or None for a sweep), a report being a JSON dict or an object with
# `passed`, `to_json_dict` or `json_columns`, and maybe `to_csv`
# ---------------------------------------------------------------------------


def _norm_lines(title: str, report) -> str:
    """A norm report's table: the title with its parameters, then the closed
    norm and its case, with the numeric norm under --oracle."""
    params = " ".join(f"{k}={v}" for k, v in report.params.items())
    numeric = "" if report.numeric is None else f"  numeric {_fmt(report.numeric)}"
    return f"{title} {params}\nclosed {report.closed} ({report.case}){numeric}\n"


def cmd_gauss_ring(args):
    check_ring_params(args.p, args.k, args.l)  # these errors take precedence over p = 2
    check_odd_prime(args.p, "the ring Gauss-sum norm table")
    report = ring_report(args.p, args.k, args.l, args.a, args.b,
                         oracle=args.oracle, tol=args.tol, term_cap=args.term_cap)
    return report, _norm_lines("ring Gauss sum", report)


def cmd_gauss_integral(args):
    check_odd_prime(args.p, "the Gauss-integral norm table")
    a = parse_coefficient(args.a, args.p)
    b = parse_coefficient(args.b, args.p)
    report = integral_report(args.p, args.r, a, b,
                             oracle=args.oracle, tol=args.tol, term_cap=args.term_cap)
    return report, _norm_lines("Gauss integral", report)


def cmd_mub_finite(args):
    check_odd_prime(args.p, "certifying unbiasedness of the quadratic-phase bases")
    field = build_field(args.p, args.r)
    bases = mub_finite.FieldMubSet.from_field(field)
    report = mub_finite.verify_mub(bases, tol=args.tol, ortho_tol=args.ortho_tol)
    table = (
        f"{report.bases} bases in C^{field.size} (modulus {field.modulus})\n"
        f"target modulus {_fmt(report.target)}  max deviation {_fmt(report.max_deviation)}\n"
        f"orthonormality deviation {_fmt(report.ortho_deviation)}\n"
    )
    return report, table


def cmd_mub_padic(args):
    check_odd_prime(args.p, "the closed norm table behind the p+1 families")
    b_samples = (
        None if args.bs is None else [parse_coefficient(t, args.p) for t in args.bs.split(",")]
    )
    params = mub_padic.canonical_family_params(args.p, b_samples)
    report = mub_padic.gram_report(
        params, r=args.r, p=args.p, auto_raise=args.auto_raise, tol=args.tol
    )
    raised = f" (raised from {report.r_requested})" if report.r_used != report.r_requested else ""
    table = (
        f"{args.p + 1} families, {len(report.labels)} vectors, "
        f"r={report.r_used}{raised}, k={report.k_used}\n"
        f"max certified deviation {_fmt(report.max_certified_deviation)}  "
        f"uncertified pairs {report.uncertified_pairs}\n"
        f"family ranks {report.family_ranks}\n"
    )
    return report, table


def cmd_fourier_ball(args):
    # the ball z + p^r Z_p needs z known modulo p^r; the grid is sized from
    # v(z), and its cap and the transform's scale p^r0 (`fourier`) checked,
    # before z becomes a Fraction
    z = read_coefficient(parse_coefficient(args.z, args.p), args.p).need(args.r)
    r0 = max(0, -z.valuation, -args.r)
    k = max(args.r, 1 - r0) if args.k is None else args.k
    grid = make_grid(args.p, r0, k)
    _float_power(args.p, r0, "Fourier transform scale")
    zf = z.value
    psi = ball_state(zf, args.r, grid)
    phat = fourier(psi)
    closed = ball_fourier_closed(zf, args.r, phat.grid)
    deviation = float(np.abs(phat.amplitudes - closed).max())
    norm_dev = abs(phat.norm_sq() - psi.norm_sq())
    # relative to the closed transform's peak p^(-r/2), below p^r0
    peak = float(args.p) ** (-args.r / 2.0)
    passed = deviation <= args.tol * max(1.0, peak) and norm_dev <= args.tol
    d = {
        "schema": 1,
        "kind": "fourier-ball",
        "grid": {"p": args.p, "r": grid.r, "k": grid.k},
        "ball_exponent": args.r,
        "z": str(zf),
        "max_pointwise_deviation": deviation,
        "norm_deviation": norm_dev,
        "tol": args.tol,
        "passed": passed,
    }
    table = (
        f"ball z={zf} + p^{args.r}Z_p on grid (p={args.p}, r={grid.r}, k={grid.k})\n"
        f"max pointwise deviation {_fmt(deviation)}  norm deviation {_fmt(norm_dev)}\n"
    )
    return d, table


def cmd_eigen_check(args):
    a, b, c = (parse_coefficient(t, args.p) for t in (args.a, args.b, args.c))
    report = mub_padic.eigen_check(a, b, c, p=args.p, tol=args.tol)
    table = (
        f"shift/modulation composite on the (a={report.a}, b={report.b}) state, c={report.c}\n"
        f"expected phase {report.expected_phase}  residual {_fmt(report.residual)}\n"
    )
    return report, table


def cmd_sweep(args):
    """The suite run with each option it reads, as given or else at the
    suite's default (which the config then records); an option given to a
    suite that does not read it is refused."""
    # looked up on the module at call time, so that a wrapped sweep is the one run
    suite = getattr(sweeps, sweeps.SUITES[args.suite].__name__)
    params = inspect.signature(suite).parameters  # the options the suite reads
    for name in ("seed", "term_cap"):
        if name not in params and getattr(args, name) is not None:
            raise ValueError(f"sweep {args.suite} does not read --{name.replace('_', '-')}")
        if name in params and getattr(args, name) is None:
            setattr(args, name, params[name].default)
    return suite(**{name: getattr(args, name) for name in params}), None


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, *, oracle=False, term_cap=False) -> None:
    sub.add_argument("--format", choices=["table", "json", "csv"], default="table")
    sub.add_argument("--out", help="write the report here instead of stdout "
                     "(relative paths resolve under $PADIC_MUB_OUTDIR)")
    if term_cap:
        sub.add_argument("--term-cap", type=int, default=DEFAULT_TERM_CAP, dest="term_cap")
    if oracle:
        sub.add_argument("--oracle", action="store_true",
                         help="also run the brute-force oracles and compare")


def _gauss_ring_args(s):
    s.add_argument("-p", type=int, required=True)
    s.add_argument("-k", type=int, required=True)
    s.add_argument("-l", type=int, required=True)
    s.add_argument("-a", type=int, required=True)
    s.add_argument("-b", type=int, required=True)
    s.add_argument("--tol", type=float, default=1e-6, help=REL_TOL_HELP)
    _add_common(s, oracle=True, term_cap=True)
    return cmd_gauss_ring


def _gauss_integral_args(s):
    s.add_argument("-p", type=int, required=True)
    s.add_argument("-r", type=int, required=True)
    s.add_argument("-a", required=True)
    s.add_argument("-b", required=True)
    s.add_argument("--tol", type=float, default=1e-9,
                   help=REL_TOL_HELP + ", or to p^(r-l) if larger (l: the reported reduction_l)")
    _add_common(s, oracle=True, term_cap=True)
    return cmd_gauss_integral


def _mub_finite_args(s):
    s.add_argument("-p", type=int, required=True)
    s.add_argument("-r", type=int, required=True)
    s.add_argument("--tol", type=float, default=1e-10,
                   help="absolute bound on | |<u|v>| - p^(-r/2) | over all basis pairs")
    s.add_argument("--ortho-tol", type=float, default=1e-12, dest="ortho_tol",
                   help="absolute bound on the entries of V*V - I per basis")
    _add_common(s)
    return cmd_mub_finite


def _mub_padic_args(s):
    s.add_argument("-p", type=int, required=True)
    s.add_argument("-r", type=int, required=True)
    s.add_argument("--bs", help="comma-separated b sample (default 0..p-1)")
    s.add_argument("--auto-raise", action=argparse.BooleanOptionalAction,
                   default=True, dest="auto_raise",
                   help="raise r past every pairwise threshold (reported)")
    s.add_argument("--tol", type=float, default=1e-9,
                   help="absolute bound on each certified Gram deviation")
    _add_common(s)
    return cmd_mub_padic


def _fourier_ball_args(s):
    s.add_argument("-p", type=int, required=True)
    s.add_argument("-r", type=int, required=True, help="ball exponent: z + p^r Z_p")
    s.add_argument("-z", default="0")
    s.add_argument("-k", type=int, default=None, help="override the grid resolution")
    s.add_argument("--tol", type=float, default=1e-10,
                   help="bound on the pointwise deviation, relative to max(1, p^(-r/2)), "
                        "and on the absolute norm deviation")
    _add_common(s)
    return cmd_fourier_ball


def _eigen_check_args(s):
    s.add_argument("-p", type=int, required=True)
    s.add_argument("-a", required=True)
    s.add_argument("-b", required=True)
    s.add_argument("-c", required=True)
    s.add_argument("--tol", type=float, default=1e-9,
                   help="absolute bound on the residual |X Z v - e v| / |v|")
    _add_common(s)
    return cmd_eigen_check


def _sweep_args(s):
    s.add_argument("suite", choices=sorted(sweeps.SUITES))
    s.add_argument("--seed", type=int)
    _add_common(s, term_cap=True)
    s.set_defaults(term_cap=None)  # cmd_sweep fills in the suite's own default
    return cmd_sweep


# name: (help, the function that adds its arguments and returns its handler)
_SUBCOMMANDS = {
    "gauss-ring": ("norm of a quadratic Gauss sum over Z/p^k", _gauss_ring_args),
    "gauss-integral": ("norm of a Gauss integral over p^(-r)Z_p", _gauss_integral_args),
    "mub-finite": ("build and verify the p^r+1 bases of C^(p^r)", _mub_finite_args),
    "mub-padic": ("Gram table of the p+1 families on a grid", _mub_padic_args),
    "fourier-ball": ("transform of a ball indicator vs closed form", _fourier_ball_args),
    "eigen-check": ("eigenrelation of the shift/modulation composite", _eigen_check_args),
    "sweep": ("run a whole verification suite", _sweep_args),
}
COMMANDS = tuple(_SUBCOMMANDS)


# The parsers are built once per process and shared by every call: parsing
# leaves them unchanged, and argparse reads the terminal width when it
# formats help or usage, not when it parses.
@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and its subparser for each command by name."""
    parser = argparse.ArgumentParser(
        prog="padic-mub",
        description="Verification pipelines for quadratic Gauss sums and "
        "mutually unbiased bases over finite fields and Q_p.  Coefficients "
        "accept rationals 'num/den' or digit strings 'd0 d1 ... *p^v'.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse reads a word such as -5 or -0.5 as a value, but -284/25 as an
    # unknown option, so "-a -284/25" would miss its value.  Each command's
    # parser gets argparse's own rule for such words (its private
    # `_negative_number_matcher`), extended to fractions.
    negative_number = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        one = sub.add_parser(name, help=help_text)
        one.set_defaults(command=name, func=add_arguments(one))
        one._negative_number_matcher = negative_number
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser: every subcommand, their help and "invalid choice".
    Built once and shared: callers must not change it."""
    return _parsers()[0]


def command_parser(name: str) -> argparse.ArgumentParser:
    """One command's own parser: the full parser's subparser for it, with
    `command` as a default.  Built once and shared: callers must not change it."""
    return _parsers()[1][name]


def parse_args(argv: list[str]) -> argparse.Namespace:
    """A known command's own parser reads its arguments.  Anything that is
    not a command, and any argument that parser leaves over, goes to the
    full parser, whose "unrecognized arguments" usage lists every command."""
    if argv and argv[0] in _SUBCOMMANDS:
        args, extra = command_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        report, table = args.func(args)
        _emit(report, args, table)
    except (ValueError, CapError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if _passed(report) else 1


if __name__ == "__main__":
    sys.exit(main())
