"""tools/src_lines.py: each src/ line falls in exactly one of four kinds."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring,

two lines apart."""

# a comment
x = 1  # code with a comment

def f():
    """One line."""
    return """a string
that is code"""
'''


PUBLIC_SAMPLE = """
class Shown:
    def method(self):
        def nested():
            pass

    @property
    def prop(self):
        pass

    def _private(self):
        pass

    def __mul__(self, other):
        pass


class _Hidden:
    def method(self):
        pass


def f():
    pass


async def g():
    pass


def _h():
    pass


lam = lambda: 0
if True:
    def conditional():
        pass
"""


DEFAULTS_SAMPLE = """
def f(a, b=1, *args, c, d=2, **kw):
    def inner(x=0):
        pass
    return lambda y=1, *, z=2: y


class C:
    def method(self, e=None, *, f):
        pass

    async def later(self, g=3):
        pass
"""


def test_each_kind_is_counted_once_per_line():
    assert src_lines.count(SAMPLE) == {"code": 4, "docstring": 4, "comment": 1, "blank": 2}


def test_public_counts_top_level_defs_and_their_public_methods():
    # Shown, Shown.method, Shown.prop, f and g
    assert src_lines.public(PUBLIC_SAMPLE) == 5
    assert src_lines.public(SAMPLE) == 1


def test_defaults_counts_every_parameter_with_a_default():
    # b, d, inner's x, the lambda's y and z, method's e and later's g
    assert src_lines.defaults(DEFAULTS_SAMPLE) == 7
    assert src_lines.defaults(SAMPLE) == src_lines.defaults(PUBLIC_SAMPLE) == 0


def test_the_four_counts_add_up_to_each_module():
    modules = sorted((ROOT / "src" / "padic_mub").glob("*.py"))
    assert modules
    for path in modules:
        text = path.read_text()
        counts = src_lines.count(text)
        assert sum(counts.values()) == len(text.splitlines()), path.name
        assert min(counts.values()) >= 0, path.name


def test_the_table_prints_a_total(capsys):
    assert src_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", *src_lines.KINDS, "lines", "public", "defaults"]
    rows = [line.split() for line in lines[1:]]
    total = rows.pop()
    assert total[0] == "total" and int(total[5]) == sum(map(int, total[1:5]))
    for column in (6, 7):
        assert int(total[column]) == sum(int(row[column]) for row in rows) > 0
