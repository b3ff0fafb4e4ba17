"""Print the code, docstring, comment and blank lines of each src/ module,
its public surface and its settings.

    python3 tools/src_lines.py [DIR]

DIR (default: src/padic_mub of the repository) holds the modules.  Each
line falls in one kind, read from its tokens (`tokenize`): code if any
token on it is code; else docstring if a string that stands alone as a
statement covers it; else comment if a comment sits on it; else blank.  A
blank line inside a docstring is docstring, one inside any other string is
code.  The `public` column counts the module's public top-level functions
and classes and the public methods of those classes, read from its syntax
tree (`ast`); a name is public when it does not start with an underscore,
so dunders are not counted.  The `defaults` column counts the parameters
with a default value, positional or keyword-only, over every function and
method of the module, nested ones and lambdas included.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def count(text: str) -> dict[str, int]:
    """How many lines of the source text are of each kind."""
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    rows: dict[str, set[int]] = {kind: set() for kind in KINDS[:3]}
    at_start = True  # the next token begins a statement
    for n, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            at_start = at_start or tok.type == tokenize.NEWLINE
            continue
        span = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            rows["comment"].update(span)
            continue
        kind = "code"
        if tok.type == tokenize.STRING and at_start:
            rest = (t.type for t in tokens[n + 1:] if t.type not in (tokenize.NL, tokenize.COMMENT))
            if next(rest, tokenize.ENDMARKER) in (tokenize.NEWLINE, tokenize.ENDMARKER):
                kind = "docstring"
        rows[kind].update(span)
        at_start = False
    code = rows["code"]
    doc = rows["docstring"] - code
    comment = rows["comment"] - code - doc
    blank = len(text.splitlines()) - len(code | doc | comment)
    return {"code": len(code), "docstring": len(doc), "comment": len(comment), "blank": blank}


def public(text: str) -> int:
    """How many public top-level functions and classes, and public methods
    of those classes, the source text defines."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    n = 0
    for node in ast.parse(text).body:
        if isinstance(node, (*defs, ast.ClassDef)) and not node.name.startswith("_"):
            n += 1
            if isinstance(node, ast.ClassDef):
                n += sum(isinstance(m, defs) and not m.name.startswith("_") for m in node.body)
    return n


def defaults(text: str) -> int:
    """How many parameters with a default value the source text's functions,
    methods and lambdas declare."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(ast.parse(text)) if isinstance(node, funcs))


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "padic_mub"
    columns = (*KINDS, "lines", "public", "defaults")
    totals = [0] * len(columns)
    print(f"{'module':<16}" + "".join(f"{name:>11}" for name in columns))
    for path in sorted(directory.glob("*.py")):
        text = path.read_text()
        counts = count(text)
        cells = [*(counts[kind] for kind in KINDS), len(text.splitlines()), public(text),
                 defaults(text)]
        totals = [t + c for t, c in zip(totals, cells)]
        print(f"{path.name:<16}" + "".join(f"{c:>11}" for c in cells))
    print(f"{'total':<16}" + "".join(f"{c:>11}" for c in totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
