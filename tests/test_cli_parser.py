"""The argparse surface of the CLI: help texts, usage errors and exit codes.

`main` parses a known command with that command's own parser, the full
parser's subparser for it, and hands anything else, or any argument that
parser leaves over, to the full parser.  Both come from one parser set,
built once per process.  The corpus below pins what argparse prints, byte
for byte, as recorded from the full parser with COLUMNS=80.  Rewrite the
file only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_parser.py --write
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import platform
import shutil
import sys
from pathlib import Path

import pytest

from padic_mub import cli

RECORDED = Path(__file__).parent / "golden" / "argparse.json"
GOLDEN_CLI = Path(__file__).parent / "golden" / "cli.json"
NAMES = ("gauss-ring", "gauss-integral", "mub-finite", "mub-padic", "fourier-ball",
         "eigen-check", "sweep")

CORPUS = {
    "no-arguments": [],
    "help": ["-h"],
    "help-long": ["--help"],
    "unknown-command": ["bogus"],
    **{f"{name}-help": [name, "-h"] for name in NAMES},
    "sweep-unknown-suite": ["sweep", "not-a-suite"],
    "sweep-no-suite": ["sweep"],
    "missing-required-option": ["mub-finite", "-p", "3"],
    "bad-int-value": ["gauss-ring", "-p", "3", "-k", "one", "-l", "1", "-a", "1", "-b", "0"],
    "bad-float-value": ["mub-padic", "-p", "3", "-r", "1", "--tol", "tiny"],
    "bad-format-choice": ["fourier-ball", "-p", "3", "-r", "1", "--format", "xml"],
    "option-missing-its-value": ["sweep", "operators", "--seed"],
    "term-cap-where-absent": ["mub-finite", "-p", "3", "-r", "2", "--term-cap", "10"],
    "stray-positional": ["eigen-check", "-p", "3", "-a", "1", "-b", "0", "-c", "1", "extra"],
    # arguments a command's own parser leaves over go to the full parser
    "unknown-option-after-command": ["mub-finite", "-p", "3", "-r", "1", "--bogus"],
    "abbreviated-long-option": ["mub-finite", "-p", "3", "-r", "1", "--form", "json", "--bogus"],
    "double-dash-before-options": ["eigen-check", "--", "-p", "3"],
    "option-given-twice": ["mub-finite", "-p", "3", "-r", "1", "-r", "2", "3"],
}


def _capture(call, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _full_parse(argv: list[str]):
    return cli.build_parser().parse_args(argv)


def _load() -> dict:
    return json.loads(RECORDED.read_text())


@pytest.fixture
def columns_80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("name", list(CORPUS))
def test_main_prints_what_the_full_parser_prints(name, columns_80):
    argv = CORPUS[name]
    got = _capture(cli.main, argv)
    assert got == _capture(_full_parse, argv)
    assert got["exit"] in (0, 2) and (got["stdout"] or got["stderr"])


@pytest.mark.parametrize("name", list(CORPUS))
def test_argparse_output_matches_the_recording(name, columns_80):
    recorded = _load()
    if platform.python_version_tuple()[:2] != tuple(recorded["python"].split(".")[:2]):
        pytest.skip(f"argparse wording varies by Python; recorded on {recorded['python']}")
    assert _capture(cli.main, CORPUS[name]) == recorded["cases"][name]


def test_recording_covers_the_corpus():
    assert sorted(_load()["cases"]) == sorted(CORPUS)


def test_one_command_parser_reads_every_golden_argv_as_the_full_parser():
    argvs = [case["argv"] for case in json.loads(GOLDEN_CLI.read_text())["cases"].values()]
    assert {argv[0] for argv in argvs} == set(cli.COMMANDS)
    for argv in argvs:
        args, extra = cli.command_parser(argv[0]).parse_known_args(argv[1:])
        assert extra == []
        assert vars(args) == vars(_full_parse(argv))  # `command` and `func` included
        assert vars(cli.parse_args(argv)) == vars(args)


def _subcommands(parser) -> dict:
    (action,) = (a for a in parser._actions if a.dest == "command")
    return action.choices


def test_commands_are_the_full_parsers_subcommands():
    full = _subcommands(cli.build_parser())
    assert cli.COMMANDS == tuple(full) == NAMES
    for name in cli.COMMANDS:
        one = cli.command_parser(name)
        assert one is full[name]
        assert one.prog == f"padic-mub {name}"
        assert one.get_default("command") == name


def test_cli_builds_one_parser_and_leaves_the_width_to_argparse():
    """cli.py constructs one ArgumentParser, the full parser, whose
    subparsers are the commands' own, and names no formatter and no
    terminal size: argparse reads the width each time it prints."""
    tree = ast.parse(Path(cli.__file__).read_text())
    names = [node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    constructed = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute) and node.func.attr == "ArgumentParser"]
    assert len(constructed) == 1
    assert not {"HelpFormatter", "get_terminal_size", "shutil"} & set(names)


def test_main_builds_the_parser_of_its_first_word(monkeypatch, capsys):
    seen = []
    build_parser, command_parser = cli.build_parser, cli.command_parser

    def spy_full():
        seen.append("full")
        return build_parser()

    def spy_one(name):
        seen.append(name)
        return command_parser(name)

    monkeypatch.setattr(cli, "build_parser", spy_full)
    monkeypatch.setattr(cli, "command_parser", spy_one)
    assert cli.main(["mub-finite", "-p", "3", "-r", "1"]) == 0
    # with no argv list, main reads the process arguments
    monkeypatch.setattr(sys, "argv", ["padic-mub", "eigen-check", "-p", "3", "-a", "1",
                                      "-b", "0", "-c", "1/3"])
    assert cli.main() == 0
    assert capsys.readouterr().out.count("PASS") == 2
    assert seen == ["mub-finite", "eigen-check"]
    # the full parser reads only leftovers and what is not a command
    seen.clear()
    for argv in ([], ["-h"], ["bogus"], ["--format", "json"],
                 ["mub-finite", "-p", "3", "-r", "1", "--bogus"],
                 ["eigen-check", "-p", "3", "-a", "1", "-b", "0", "-c", "1", "--", "-p", "3"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    assert seen == ["full", "full", "full", "full", "mub-finite", "full", "eigen-check", "full"]
    # an error the command's own parser raises never reaches the full parser
    seen.clear()
    for argv in (["mub-finite", "-p", "3"], ["eigen-check", "--", "-p", "3"],
                 ["sweep", "operators", "--seed"], ["gauss-ring", "-h"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    assert seen == ["mub-finite", "eigen-check", "sweep", "gauss-ring"]


def test_a_command_reads_the_terminal_width_once(monkeypatch, capsys):
    """Once the parser set is built, a parse that prints nothing reads the
    terminal width not at all, and a usage error reads it once, when
    argparse prints the usage line."""
    cli.build_parser()
    reads = []
    get_terminal_size = shutil.get_terminal_size

    def counted(*args, **kwargs):
        reads.append(1)
        return get_terminal_size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    assert cli.main(["mub-finite", "-p", "3", "-r", "1"]) == 0
    assert cli.main(["eigen-check", "-p", "3", "-a", "1", "-b", "0", "-c", "1/3"]) == 0
    assert len(reads) == 0
    for argv in (["mub-finite", "-p", "3", "-r", "1", "--bogus"],  # the full parser prints
                 ["mub-finite", "-p", "3"]):  # the command's own parser prints
        reads.clear()
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert len(reads) == 1
    assert capsys.readouterr().err.count("usage: ") == 2


def _uncached(call, argv: list[str]):
    """call(argv) with every parser built afresh, past the cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parsers", cli._parsers.__wrapped__)
        return call(argv)


def _without_func(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def test_cached_parsers_read_every_golden_argv_as_fresh_parsers(columns_80):
    argvs = [case["argv"] for case in json.loads(GOLDEN_CLI.read_text())["cases"].values()]
    errors = [argv for name, argv in CORPUS.items() if "help" not in name]
    cli._parsers.cache_clear()
    for _ in range(2):  # every other argv, and a usage error, parsed in between
        for n, argv in enumerate(argvs):
            got = _without_func(cli.parse_args(argv))
            assert got == _without_func(_uncached(cli.parse_args, argv))
            with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
                cli.parse_args(errors[n % len(errors)])
    # the full parser and its subparsers, built once
    assert cli._parsers.cache_info().misses == 1


@pytest.mark.parametrize("argv", [["-h"], ["mub-padic", "-h"], ["mub-finite", "-p", "3"],
                                  ["mub-finite", "-p", "3", "-r", "1", "--bogus"]],
                         ids=["help", "command-help", "command-error", "full-parser-error"])
def test_cached_parsers_print_fresh_parsers_bytes_at_each_width(monkeypatch, argv):
    printed = {}
    for columns in (60, 100, 60):
        monkeypatch.setenv("COLUMNS", str(columns))
        got = _capture(cli.main, argv)
        assert got == _uncached(lambda argv: _capture(cli.main, argv), argv)
        assert printed.setdefault(columns, got) == got
    if argv[-1] == "-h":  # help text wraps at the width when it prints
        assert printed[60] != printed[100]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.environ["COLUMNS"] = "80"
    cases = {name: _capture(cli.main, argv) for name, argv in CORPUS.items()}
    RECORDED.write_text(json.dumps({"python": platform.python_version(), "cases": cases},
                                   indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {RECORDED}")
