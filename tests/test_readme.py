"""The README's CLI walkthrough, run line by line.

Each ``$ soplan ...`` line under "## CLI walkthrough" runs through
``cli.main`` in process, from a temporary directory, with ``data/``
paths read from the repository's ``data/``.  Its stdout and stderr,
together and in order, must equal the lines that follow it in the block,
where a ``  ...`` line stands for any run of lines.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import soplan.cli as cli

ROOT = Path(__file__).resolve().parent.parent
ELLIPSIS = "  ..."


def walkthrough() -> list:
    """``(argv, expected lines)`` for every command shown, in order."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## CLI walkthrough\n", 1)[1].split("\n## ", 1)[0]
    runs = []
    for block in re.findall(r"```text\n(.*?)```", section, re.S):
        for chunk in re.split(r"^\$ soplan ", block, flags=re.M)[1:]:
            command, *lines = chunk.rstrip("\n").split("\n")
            while lines and not lines[-1]:
                lines.pop()
            runs.append((shlex.split(command), lines))
    return runs


def matches(got: list, want: list) -> bool:
    """Whether ``got`` equals ``want``, an ``ELLIPSIS`` line in ``want``
    matching any run of lines, the empty run too."""
    if not want:
        return not got
    if want[0] == ELLIPSIS:
        return any(matches(got[k:], want[1:]) for k in range(len(got) + 1))
    return bool(got) and got[0] == want[0] and matches(got[1:], want[1:])


def test_matches():
    assert matches(["a", "b", "c"], ["a", ELLIPSIS, "c"])
    assert matches(["a", "c"], ["a", ELLIPSIS, "c"])
    assert not matches(["a", "b"], ["a", ELLIPSIS, "c"])
    assert not matches(["a", "b", "c"], ["a", "c"])


def test_walkthrough(tmp_path, monkeypatch):
    runs = walkthrough()
    commands = [argv[0] for argv, _ in runs]
    assert commands == ["minrate", "minrate", "compset", "enumerate", "plan", "simulate"]
    monkeypatch.chdir(tmp_path)
    for argv, want in runs:
        argv = [str(ROOT / arg) if arg.startswith("data/") else arg for arg in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        got = out.getvalue().splitlines()
        assert code == 0, (argv, got)
        assert matches(got, want), (argv, got, want)
