"""Command-line contract: exit codes, report schemas, determinism."""

import ast
import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from padic_mub import sweeps
from padic_mub import (
    FieldMubSet,
    build_field,
    canonical_family_params,
    eigen_check,
    gram_report,
    integral_report,
    ring_report,
    verify_mub,
)
from padic_mub.finite_field import FieldCtx
from padic_mub.padic import PadicNumber
from padic_mub.cli import main

from oracles import gram_entries, report_dict


SRC = Path(__file__).resolve().parent.parent / "src" / "padic_mub"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gauss_ring_oracle_pass(capsys):
    code, out, _ = run(capsys, "gauss-ring", "-p", "3", "-k", "1", "-l", "1",
                       "-a", "1", "-b", "0", "--oracle")
    assert code == 0
    assert "3^{1/2}" in out and "PASS" in out
    assert "1.73205080757" in out


def test_gauss_ring_rejects_p2(capsys):
    code, _, err = run(capsys, "gauss-ring", "-p", "2", "-k", "1", "-l", "1",
                       "-a", "1", "-b", "0")
    assert code == 2
    assert "p = 2" in err or "p != 2" in err


ODD_PRIME_INTEGRAL = ("error: the Gauss-integral norm table requires an odd prime: the case "
                      "analysis relies on 2 being invertible, so p = 2 is outside its hypothesis\n")


@pytest.mark.parametrize("argv, err", [
    # the k/l check comes before the odd-prime rule
    (["gauss-ring", "-p", "2", "-k", "1", "-l", "2", "-a", "1", "-b", "0"],
     "error: need k >= l >= 1\n"),
    # the odd-prime rule comes before the coefficient is read
    (["gauss-integral", "-p", "2", "-r", "1", "-a", "5/0", "-b", "0"], ODD_PRIME_INTEGRAL),
    # each command names what needs the odd prime
    (["mub-finite", "-p", "2", "-r", "1"],
     "error: certifying unbiasedness of the quadratic-phase bases requires an odd prime: the "
     "case analysis relies on 2 being invertible, so p = 2 is outside its hypothesis\n"),
    (["mub-padic", "-p", "2", "-r", "1"],
     "error: the closed norm table behind the p+1 families requires an odd prime: the case "
     "analysis relies on 2 being invertible, so p = 2 is outside its hypothesis\n"),
], ids=["ring-k-l-first", "integral-before-coefficient", "mub-finite", "mub-padic"])
def test_p2_refusals_keep_their_order(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def _operand(x):
    """2 for the constant 2, "p" for a name or attribute p or prime."""
    if isinstance(x, ast.Constant) and x.value == 2:
        return 2
    return "p" if getattr(x, "id", getattr(x, "attr", None)) in ("p", "prime") else None


def _compares_p_with_two(node) -> bool:
    """node is p == 2 or p != 2, either way round."""
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left, *node.comparators]
    return any(isinstance(op, (ast.Eq, ast.NotEq)) and {_operand(x), _operand(y)} == {"p", 2}
               for op, x, y in zip(node.ops, sides, sides[1:]))


def test_only_errors_compares_p_with_two():
    """The odd-prime rule is written once, in errors.check_odd_prime."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [path.name for node in ast.walk(tree) if _compares_p_with_two(node)]
        if path.name == "errors.py":
            gate = next(fn for fn in tree.body if getattr(fn, "name", "") == "check_odd_prime")
            assert any(_compares_p_with_two(node) for node in ast.walk(gate))
    assert found == ["errors.py"]
    assert _compares_p_with_two(ast.parse("args.p == 2").body[0].value)
    assert _compares_p_with_two(ast.parse("2 != ctx.prime").body[0].value)
    assert not _compares_p_with_two(ast.parse("n % 2 == 0").body[0].value)


def test_gauss_ring_case2(capsys):
    code, out, _ = run(capsys, "gauss-ring", "-p", "3", "-k", "2", "-l", "2",
                       "-a", "3", "-b", "1")
    assert code == 0
    assert "closed 0 (case2)" in out


def test_gauss_integral_examples(capsys):
    code, out, _ = run(capsys, "gauss-integral", "-p", "3", "-r", "1",
                       "-a", "1", "-b", "0", "--oracle")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "gauss-integral", "-p", "3", "-r", "1",
                       "-a", "0", "-b", "1/3")
    assert code == 0 and "closed 0" in out
    code, out, _ = run(capsys, "gauss-integral", "-p", "3", "-r", "2",
                       "-a", "0", "-b", "0")
    assert code == 0 and "3^{2}" in out


def test_gauss_integral_accepts_digit_strings(capsys):
    code, out, _ = run(capsys, "gauss-integral", "-p", "3", "-r", "1",
                       "-a", "2 2 0 0 *3^-1", "-b", "0", "--oracle")
    assert code == 0
    assert "a=8/3" in out


@pytest.mark.parametrize("coeffs", [
    ["-p", "199", "-r", "7", "-a", "0", "-b", "0"],  # norm 199^7 ~ 1.2e16
    ["-p", "11", "-r", "9", "-a", "0", "-b=-7086244/3"],  # norm 0 on a ball of 11^9
])
def test_gauss_integral_large_ball_passes(capsys, coeffs):
    # an absolute 1e-9 is below the double rounding of these brute-force sums
    code, out, _ = run(capsys, "gauss-integral", *coeffs, "--oracle")
    assert code == 0 and "PASS" in out


@pytest.mark.parametrize("command, flag, value, rest", [
    ("gauss-integral", "-a", "-284/25", ["-p", "3", "-r", "1", "-b", "1", "--oracle"]),
    ("gauss-integral", "-b", "-7086244/3", ["-p", "11", "-r", "9", "-a", "0"]),
    ("eigen-check", "-c", "-1/3", ["-p", "3", "-a", "1", "-b", "0"]),
    ("fourier-ball", "-z", "-2/3", ["-p", "3", "-r", "1"]),
    ("mub-padic", "--bs", "-1/3", ["-p", "3", "-r", "1"]),
])
def test_a_negative_fraction_is_read_as_two_argv_words(capsys, command, flag, value, rest):
    # as argparse reads "-a -5", and as the attached form "-a=-284/25" reads
    attached = run(capsys, command, *rest, f"{flag}={value}", "--format", "json")
    assert attached[0] == 0
    assert run(capsys, command, *rest, flag, value, "--format", "json") == attached


def test_a_word_that_is_no_negative_number_stays_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gauss-integral", "-p", "3", "-r", "1", "-a", "-284/", "-b", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument -a: expected one argument\n")


def test_gauss_integral_reports_no_threshold_for_a_zero_big_o(capsys):
    # "0 *3^1" admits 9 and 18, whose threshold is 2: none is certified
    code, out, _ = run(capsys, "gauss-integral", "-p", "3", "-r", "1", "-a", "0 *3^1",
                       "-b", "1", "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["threshold"] is None and not report["simplified_certified"]


def test_gauss_integral_oracle_past_the_double_range_is_exit_2(capsys):
    argv = ["gauss-integral", "-p", "599", "-r", "200", "-a", "0", "-b", "0"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "PASS" in out  # the exact closed form needs no float
    code, out, err = run(capsys, *argv, "--oracle")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "norm" in err and "exceeds the double range" in err


def test_gauss_ring_oracle_past_int64_residues_is_exit_2(capsys):
    # 3^21 residues would need products past int64; the guard refuses before allocating
    code, out, err = run(capsys, "gauss-ring", "-p", "3", "-k", "21", "-l", "21",
                         "-a", "1", "-b", "1", "--oracle", "--term-cap", "100000000000")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "overflow int64" in err


def test_mub_finite_pass_and_reject(capsys):
    code, out, _ = run(capsys, "mub-finite", "-p", "3", "-r", "2")
    assert code == 0 and "10 bases" in out
    code, out, _ = run(capsys, "mub-finite", "-p", "7", "-r", "1")
    assert code == 0 and "8 bases" in out
    code, _, err = run(capsys, "mub-finite", "-p", "6", "-r", "1")
    assert code == 2 and "not prime" in err
    code, _, err = run(capsys, "mub-finite", "-p", "2", "-r", "1")
    assert code == 2


def test_mub_finite_over_its_caps_is_exit_2(capsys):
    code, out, err = run(capsys, "mub-finite", "-p", "19", "-r", "2")
    assert (code, out, err) == (2, "", "error: dimension 361 exceeds cap 343\n")
    code, out, err = run(capsys, "mub-finite", "-p", "7", "-r", "4")
    assert (code, out, err) == (2, "", "error: field size 7^4 exceeds cap 625\n")


@pytest.mark.parametrize("argv,err", [
    (["mub-padic", "-p", "3", "-r", "30000000"], "3^90000000 cells exceed the cap 100000"),
    # a delta centre of valuation -3*10^6 raises r_used to 3*10^6
    (["mub-padic", "-p", "3", "-r", "1", "--bs", "1 *3^-3000000"],
     "3^9000000 cells exceed the cap 100000"),
    (["mub-finite", "-p", "3", "-r", "30000000"], "field size 3^30000000 exceeds cap 625"),
    (["fourier-ball", "-p", "3", "-r", "30000000"], "3^30000000 cells exceed the cap 100000"),
    (["gauss-ring", "-p", "3", "-k", "30000000", "-l", "1", "-a", "1", "-b", "0", "--oracle"],
     "3^30000000 terms exceed the cap 1000000"),
    (["gauss-integral", "-p", "3", "-r", "30000000", "-a", "1", "-b", "0", "--oracle"],
     "3^60000000 terms exceed the cap 1000000"),
], ids=["mub-padic", "mub-padic-centre", "mub-finite", "fourier-ball", "gauss-ring",
        "gauss-integral"])
def test_a_size_far_over_its_cap_is_named_as_a_power(capsys, argv, err):
    # each size is refused before p^e is formed: forming it took seconds, and
    # printing it passed Python's limit on int-to-str digits
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


def test_a_coefficient_of_large_valuation_reaches_the_cap(capsys):
    # v(a) = -10^5 is read in O(log v) divisions; stripping one factor of p
    # per step took seconds before the cap was reached
    argv = ["eigen-check", "-p", "3", "-a", "1 *3^-100000", "-b", "0", "-c", "1"]
    assert run(capsys, *argv) == (2, "", "error: 3^100003 cells exceed the cap 100000\n")


@pytest.mark.parametrize("argv,size", [
    (["eigen-check", "-p", "3", "-a", "1 *3^-3000000", "-b", "0", "-c", "1"], "3^3000003"),
    (["eigen-check", "-p", "3", "-a", "1", "-b", "0", "-c", "1 *3^-3000000"], "3^9000000"),
    (["fourier-ball", "-p", "3", "-r", "-3000000", "-k", "5", "-z", "1 *3^-3000000"],
     "3^3000005"),
])
def test_a_coefficient_past_the_cap_is_never_a_fraction(capsys, monkeypatch, argv, size):
    # the grid is sized from the valuation the digit string carries; the
    # Fraction, with its 4.75 M-bit denominator, took 86 s to reach the cap
    def refused(self):
        raise AssertionError("a coefficient became a Fraction before the cap")

    monkeypatch.setattr(PadicNumber, "to_fraction", refused)
    assert run(capsys, *argv) == (2, "", f"error: {size} cells exceed the cap 100000\n")


@pytest.mark.parametrize("v", [4097, 30000, 3000000])
def test_a_coefficient_of_huge_positive_valuation_is_refused_on_every_command(
        capsys, monkeypatch, v):
    # no cap stops a large positive valuation: 3^30000 passed Python's limit
    # on int-to-str digits in the label text, and 3^3000000 took past 10 s
    def refused(self):
        raise AssertionError("a coefficient past the valuation limit became a Fraction")

    monkeypatch.setattr(PadicNumber, "to_fraction", refused)
    coeff = f"1 *3^{v}"
    err = f"error: coefficient valuation {v} exceeds the limit |v| <= 4096 at p = 3\n"
    for argv in (["mub-padic", "-p", "3", "-r", "1", "--bs", coeff],
                 ["gauss-integral", "-p", "3", "-r", "1", "-a", "1", "-b", coeff],
                 ["eigen-check", "-p", "3", "-a", "1", "-b", "0", "-c", coeff],
                 ["fourier-ball", "-p", "3", "-r", "1", "-z", coeff]):
        assert run(capsys, *argv) == (2, "", err)
    monkeypatch.undo()
    # at the limit the value is still read
    code, out, _ = run(capsys, "gauss-integral", "-p", "3", "-r", "1", "-a", "1", "-b",
                       "1 *3^4096")
    assert code == 0 and out.endswith("PASS\n")


def test_mub_finite_builds_no_basis_matrix(capsys, monkeypatch):
    import padic_mub.mub_finite as mub_finite

    verified = []
    real_verify = mub_finite.verify_mub

    def verify(bases, **kwargs):
        verified.append(bases)
        return real_verify(bases, **kwargs)

    monkeypatch.setattr(mub_finite, "verify_mub", verify)
    code, out, _ = run(capsys, "mub-finite", "-p", "3", "-r", "2")
    assert code == 0 and out.startswith("10 bases in C^9") and out.endswith("PASS\n")
    code, out, _ = run(capsys, "mub-finite", "-p", "3", "-r", "2", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["passed"] is True and len(payload["pairs"]) == 45
    code, out, _ = run(capsys, "mub-finite", "-p", "3", "-r", "2", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 1 + 45
    assert [(type(b), b.ctx) for b in verified] == [(mub_finite.FieldMubSet, build_field(3, 2))] * 3


def test_mub_padic_table_and_raise(capsys):
    code, out, _ = run(capsys, "mub-padic", "-p", "3", "-r", "1")
    assert code == 0
    assert "4 families" in out and "PASS" in out
    code, out, _ = run(capsys, "mub-padic", "-p", "3", "-r", "0")
    assert code == 0 and "raised from 0" in out


def test_mub_padic_p5(capsys):
    code, out, _ = run(capsys, "mub-padic", "-p", "5", "-r", "1")
    assert code == 0 and "6 families" in out


# one run of each table form; the norm tables fail only under --oracle
TABLE_FORMS = [
    (["gauss-ring", "-p", "3", "-k", "2", "-l", "2", "-a", "1", "-b", "0"], ["--oracle"]),
    (["gauss-integral", "-p", "3", "-r", "1", "-a", "1", "-b", "0"], ["--oracle"]),
    (["mub-finite", "-p", "3", "-r", "1"], []),
    (["mub-padic", "-p", "3", "-r", "1"], []),
    (["fourier-ball", "-p", "3", "-r", "1"], []),
    (["eigen-check", "-p", "3", "-a", "1", "-b", "0", "-c", "1"], []),
]


@pytest.mark.parametrize("argv, oracle", TABLE_FORMS, ids=[a[0] for a, _ in TABLE_FORMS])
def test_every_table_ends_in_one_verdict_line(capsys, argv, oracle):
    for extra, code, verdict in ((oracle, 0, "PASS"), ([*oracle, "--tol=-1"], 1, "FAIL")):
        got, out, _ = run(capsys, *argv, *extra)
        lines = out.splitlines()
        assert (got, lines[-1]) == (code, verdict)
        assert [line for line in lines if line in ("PASS", "FAIL")] == [verdict]


@pytest.mark.parametrize("argv, out", [
    (["gauss-ring", "-p", "3", "-k", "2", "-l", "2", "-a", "-1", "-b", "2"],
     "ring Gauss sum p=3 k=2 l=2 a=-1 b=2\nclosed 3^{1} (case1)\nPASS\n"),
    (["gauss-integral", "-p", "3", "-r", "1", "-a", "1/3", "-b", "0"],
     "Gauss integral p=3 r=1 a=1/3 b=0\nclosed 3^{-1/2} (case1)\nPASS\n"),
], ids=["gauss-ring", "gauss-integral"])
def test_a_norm_table_without_the_oracle_keeps_its_bytes(capsys, argv, out):
    assert run(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize("argv", [
    ["mub-padic", "-p", "5", "-r", "1"],
    ["mub-finite", "-p", "5", "-r", "2"],
], ids=["mub-padic", "mub-finite"])
def test_table_run_builds_no_rows(capsys, monkeypatch, argv):
    import padic_mub.mub_finite as mub_finite
    import padic_mub.mub_padic as mub_padic

    def refused(*args):
        raise AssertionError("a table run built or serialized the per-pair rows")

    for report in (mub_padic.GramReport, mub_finite.MubReport):
        for name in ("to_csv", "json_columns"):
            monkeypatch.setattr(report, name, refused)
    # a mub-finite report's pair columns: its source, and the labels it reads
    real_verify = mub_finite.verify_mub
    monkeypatch.setattr(mub_finite, "verify_mub", lambda *args, **kwargs: dataclasses.replace(
        real_verify(*args, **kwargs), pair_columns=refused))
    monkeypatch.setattr(FieldCtx, "elements", refused)
    code, out, _ = run(capsys, *argv, "--format", "table")
    assert code == 0 and out.endswith("PASS\n")


def test_fourier_ball_and_eigen(capsys):
    code, out, _ = run(capsys, "fourier-ball", "-p", "3", "-r", "1", "-z", "1/3")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "eigen-check", "-p", "3", "-a", "1", "-b", "0",
                       "-c", "1/3")
    assert code == 0 and "8/3^2" in out


@pytest.mark.parametrize("z", [
    "1 *3^-3",  # 3^-3 known modulo 3^-2
    "0 0 *3^-3",  # 0 known modulo 3^-1
])
def test_fourier_ball_refuses_z_known_below_the_ball(capsys, z):
    # the ball z + 3Z_3 needs z modulo 3^1
    code, out, err = run(capsys, "fourier-ball", "-p", "3", "-r", "1", "-z", z)
    assert code == 2 and out == ""
    assert err.startswith("error: coefficient known only modulo 3^") and err.endswith("need 3^1\n")
    code, out, _ = run(capsys, "fourier-ball", "-p", "3", "-r", "1", "-z", z.replace("*", "0 0 0 *"))
    assert code == 0 and out.endswith("PASS\n")


@pytest.mark.parametrize("r, z", [(-40, "0"), (-34, "1 *3^-34")])
def test_fourier_ball_of_a_large_ball_passes(capsys, r, z):
    # the amplitudes reach 3^(-r/2) ~ 3^20, whose double rounding alone is
    # ~1e-7: the pointwise bound is relative to that peak
    code, out, _ = run(capsys, "fourier-ball", "-p", "3", "-r", str(r), "-z", z,
                       "--format", "json")
    report = json.loads(out)
    assert code == 0 and report["passed"]
    assert 1e-10 < report["max_pointwise_deviation"] <= 1e-10 * 3 ** (-r / 2)


def test_fourier_ball_fails_a_transform_off_by_one_part_in_a_million(capsys, monkeypatch):
    import padic_mub.cli as cli

    closed = cli.ball_fourier_closed
    monkeypatch.setattr(cli, "ball_fourier_closed", lambda *args: closed(*args) * (1 + 1e-6))
    code, out, _ = run(capsys, "fourier-ball", "-p", "3", "-r", "-40", "-z", "0")
    assert code == 1 and out.endswith("FAIL\n")


@pytest.mark.parametrize("r", [-700, -3000000])
def test_fourier_ball_past_the_double_range_is_exit_2(capsys, monkeypatch, r):
    # the transform scales by 3^-r; z stays a digit string until that is checked
    def refused(self):
        raise AssertionError("z became a Fraction before the scale was checked")

    monkeypatch.setattr(PadicNumber, "to_fraction", refused)
    code, out, err = run(capsys, "fourier-ball", "-p", "3", "-r", str(r), "-z", f"1 *3^{r}")
    assert (code, out) == (2, "")
    assert err == f"error: Fourier transform scale 3^{-r} exceeds the double range\n"


def test_sweep_operators_and_unknown_suite(capsys):
    code, out, _ = run(capsys, "sweep", "operators", "--seed", "7")
    assert code == 0 and "passed: True" in out
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "not-a-suite"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["mub-padic", "-p", "3", "-r", "1"],
    ["mub-finite", "-p", "3", "-r", "1"],
    ["fourier-ball", "-p", "3", "-r", "1"],
    ["eigen-check", "-p", "3", "-a", "1", "-b", "0", "-c", "1/3"],
])
def test_term_cap_is_rejected_where_nothing_reads_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--term-cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --term-cap 5" in capsys.readouterr().err


@pytest.mark.parametrize("suite, option", [
    ("gauss-grid", "--seed"), ("thresholds", "--seed"), ("operators", "--term-cap"),
])
def test_sweep_refuses_an_option_its_suite_does_not_read(capsys, suite, option):
    argv = ["sweep", suite, option, "5"]
    assert run(capsys, *argv) == (2, "", f"error: sweep {suite} does not read {option}\n")


def test_sweep_operators_refuses_a_negative_seed(capsys):
    assert run(capsys, "sweep", "operators", "--seed", "-1") == (
        2, "", "error: seed must be a non-negative integer, got -1\n")


def test_sweep_passes_an_option_its_suite_reads_and_records_the_rest(capsys):
    code, out, err = run(capsys, "sweep", "gauss-grid", "--term-cap", "5")
    assert (code, out, err) == (2, "", "error: 3^2 terms exceed the cap 5\n")
    code, out, _ = run(capsys, "sweep", "operators", "--format", "json")
    config = json.loads(out)["config"]
    assert code == 0 and (config["seed"], config["term_cap"]) == (0, None)


def test_json_reports_are_deterministic(capsys):
    argv = ["mub-padic", "-p", "3", "-r", "1", "--format", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == 1
    assert payload["config"]["command"] == "mub-padic"
    assert payload["config"]["p"] == 3


def test_json_floats_are_rounded(capsys):
    _, out, _ = run(capsys, "gauss-ring", "-p", "3", "-k", "1", "-l", "1",
                    "-a", "1", "-b", "0", "--oracle", "--format", "json")
    payload = json.loads(out)
    assert payload["numeric"] == 1.73205080757  # 12 significant digits


def test_csv_output(capsys):
    _, out, _ = run(capsys, "mub-padic", "-p", "3", "-r", "1", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,label_i,label_j,numeric,closed_exact,certified,deviation"
    assert len(lines) == 1 + 12 * 13 // 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "mub-finite", "-p", "3", "-r", "1",
                       "--format", "json", "--out", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["passed"] is True


def test_outdir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PADIC_MUB_OUTDIR", str(tmp_path))
    code, _, _ = run(capsys, "eigen-check", "-p", "3", "-a", "0", "-b", "1",
                     "-c", "1", "--format", "json", "--out", "eig.json")
    assert code == 0
    assert (tmp_path / "eig.json").exists()


def test_invalid_coefficient_is_exit_2(capsys):
    code, _, err = run(capsys, "gauss-integral", "-p", "3", "-r", "1",
                       "-a", "1 *5^0", "-b", "0")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv,text", [
    (["fourier-ball", "-p", "3", "-r", "1", "-z", "1/0"], "1/0"),
    (["mub-padic", "-p", "3", "-r", "1", "--bs", ","], ""),
    (["eigen-check", "-p", "3", "-a", "1", "-b", "x", "-c", "1"], "x"),
    (["gauss-integral", "-p", "3", "-r", "1", "-a", "1 2 *3^", "-b", "1/"], "1/"),
    # an empty sample list is refused, not read as the default 0..p-1
    (["mub-padic", "-p", "3", "-r", "1", "--bs", ""], ""),
])
def test_an_unreadable_coefficient_is_named_in_one_message(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read the coefficient {text!r}: expected an integer, "
                   "num/den with den != 0, or digits 'd0 d1 ... *p^v'\n")


@pytest.mark.parametrize("argv", [
    # p = 1 looped forever in the valuation, p = 0 divided by zero
    ["eigen-check", "-p", "1", "-a", "1", "-b", "1", "-c", "1"],
    ["fourier-ball", "-p", "1", "-r", "1", "-z", "1"],
    ["mub-padic", "-p", "1", "-r", "1", "--bs", "1"],
    ["eigen-check", "-p", "0", "-a", "1", "-b", "1", "-c", "1"],
])
def test_p_below_2_is_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {argv[2]} is not prime\n"


def test_zero_digit_string_below_its_precision_is_exit_2(capsys):
    # "0 0 *3^0" is 0 modulo 3^2 only, and the ball p^(-5)Z_p reads a modulo 3^10
    code, out, err = run(capsys, "gauss-integral", "-p", "3", "-r", "5",
                         "-a", "0 0 *3^0", "-b", "1")
    assert code == 2 and out == ""
    assert "known only modulo 3^2, need 3^10" in err
    code, out, _ = run(capsys, "gauss-integral", "-p", "3", "-r", "1",
                       "-a", "0 0 *3^0", "-b", "1")
    assert code == 0 and "PASS" in out


def test_eigen_check_refuses_a_zero_big_o_coefficient(capsys):
    # "0 *7^0" is 0 modulo 7 only: it admits 7 and 14, whose grids have
    # k = 1, and 0, whose grid has k = 0, so no grid is sized from it
    argv = ["eigen-check", "-p", "7", "-b", "0", "-c", "1"]
    code, out, err = run(capsys, *argv, "-a", "0 *7^0")
    assert code == 2 and out == ""
    assert err == "error: coefficient known only as 0 modulo 7^1: its valuation is unknown\n"
    for a in ("7", "14"):
        code, out, _ = run(capsys, *argv, "-a", a, "--format", "json")
        assert code == 0 and json.loads(out)["grid"] == {"p": 7, "r": 1, "k": 1}


def _plain_json_types(obj) -> bool:
    """Only str-keyed dicts, lists, tuples and builtin scalars: what
    cli._round_floats passes through to json.dumps unchanged."""
    if isinstance(obj, dict):
        return all(type(k) is str and _plain_json_types(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return all(_plain_json_types(v) for v in obj)
    return obj is None or type(obj) in (str, int, float, bool)


@pytest.mark.parametrize("report", [
    pytest.param(lambda: ring_report(3, 1, 1, 1, 0, oracle=True).to_json_dict(), id="ring"),
    pytest.param(lambda: integral_report(3, 1, Fraction(1), Fraction(0),
                                         oracle=True).to_json_dict(), id="integral"),
    pytest.param(lambda: report_dict(verify_mub(FieldMubSet.from_field(build_field(3, 1)))),
                 id="mub"),
    pytest.param(lambda: report_dict(gram_report(canonical_family_params(3), r=1, p=3)),
                 id="gram"),
    pytest.param(lambda: eigen_check(1, 0, Fraction(1, 3), p=3).to_json_dict(), id="eigen"),
    *(pytest.param(lambda suite=suite: sweeps.SUITES[suite](),
                   id=f"sweep-{suite}") for suite in sorted(sweeps.SUITES)),
])
def test_report_json_dicts_serialize(report):
    d = report()
    assert d["schema"] == 1
    assert _plain_json_types(d)
    assert json.loads(json.dumps(d))["passed"] is True


def test_eigen_report_complex_values_are_pairs():
    d = eigen_check(1, 0, Fraction(1, 3), p=3).to_json_dict()
    for key in ("expected_value", "measured_value"):
        re, im = d[key]
        assert isinstance(re, float) and isinstance(im, float)
    assert d["kind"] == "eigen" and d["expected_phase"] == "8/3^2"


def test_gram_json_dict_omits_the_moduli_matrix():
    rep = gram_report(canonical_family_params(3), r=1, p=3)
    d, key, columns = rep.json_columns()
    assert "moduli" not in d and "config" not in d and "moduli" not in columns
    assert d["kind"] == "gram" and key == "entries"
    assert all(len(values) == 12 * 13 // 2 for values, _ in columns.values())
    columns["numeric"][0][0] = -1.0  # a copy: the report itself is untouched
    assert rep.json_columns()[2]["numeric"][0][0] == gram_entries(rep)[0].numeric != -1.0
