"""tools/code_lines.py counts the lines that are code, not docstrings, comments or blanks."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Counted: import, class, x = 1, def f, both lines of the string that is
# not f's first statement, return, async def, return, the module-level
# string after the first statement. Everything else is a docstring, a
# comment alone or blank.
SOURCE = '''"""Module docstring,
over two lines."""

import os  # code with a trailing comment

# a comment-only line
    # an indented comment-only line


class A:
    """Class docstring."""

    x = 1


def f():
    """Function docstring,

    with a blank line inside."""
    """A string that is not the body's first statement,
    over two lines."""
    return os.sep


async def g():
    """Async function docstring."""
    return 1


"a module-level string after the first statement"
'''


def test_docstrings_comments_and_blanks_are_not_counted(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert code_lines.code_lines(path) == 10


def test_report_lists_each_module_then_the_total(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "fedquad"
    package.mkdir(parents=True)
    (package / "a.py").write_text('"""Doc."""\n\nx = 1\n')
    (package / "b.py").write_text(SOURCE)
    monkeypatch.chdir(tmp_path)
    assert code_lines.main() == 0
    assert capsys.readouterr().out.splitlines() == [
        "    1 src/fedquad/a.py",
        "   10 src/fedquad/b.py",
        "   11 total",
    ]
