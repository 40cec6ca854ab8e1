"""``tools/count_lines.py``, the code and docstring line counter."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

COUNTER = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"

FIXTURE = '''"""Module docstring
over two lines."""

# a comment only

X = """a string
assigned to a name"""


class A:
    """Class docstring."""

    def f(self):
        """Function docstring
        over three lines.
        """

        # another comment
        return 1
'''


def _counter():
    spec = importlib.util.spec_from_file_location("count_lines", COUNTER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count():
    # code: both lines of X, "class A:", "def f(self):" and "return 1";
    # docstrings: 2 + 1 + 3 lines
    assert _counter().count(FIXTURE) == (5, 6)


def test_main_prints_one_line(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "soplan"
    package.mkdir(parents=True)
    (package / "a.py").write_text(FIXTURE)
    (package / "b.py").write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    _counter().main()
    assert capsys.readouterr().out == "src/soplan: 6 lines of code, 6 lines of docstrings\n"


def test_main_outside_a_checkout(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match="run from the root of a checkout"):
        _counter().main()
