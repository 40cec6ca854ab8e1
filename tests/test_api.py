"""The public API: ``soplan.__all__`` and the README list that documents it."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import soplan

PUBLIC = [
    # errors
    "SoplanError",
    "DomainError",
    "FormatError",
    "CertificationError",
    # core
    "MAX_USERS",
    "GroundSet",
    "RateVector",
    "Partition",
    # sources
    "PacketSource",
    "TableSource",
    "load_source",
    "dump_source",
    "validate_polymatroid",
    # omniscience
    "ASYMPTOTIC",
    "NON_ASYMPTOTIC",
    "min_sum_rate",
    "check_sw_achievable",
    "is_complementary",
    "enumerate_complementary",
    # compsetso
    "comp_set_so",
    "complementary_by_lower_bound",
    # multistage and rlnc
    "StagePlan",
    "plan_multistage",
    "load_plan",
    "dump_plan",
    "execute_plan",
]

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_all_is_the_public_list():
    assert sorted(soplan.__all__) == sorted(PUBLIC)
    assert len(soplan.__all__) == len(set(soplan.__all__)) == 26


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(soplan, name) is not None, name


def test_readme_lists_exactly_the_public_names():
    text = README.read_text()
    section = text.split("## Public API", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`([A-Za-z_]+)`", section)
    assert sorted(set(listed)) == sorted(PUBLIC)


def _imports_gf(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "gf" or (node.module or "").endswith(".gf"):
                return True
            if node.module in (None, "soplan") and any(a.name == "gf" for a in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name == "soplan.gf" for a in node.names):
                return True
    return False


def test_only_the_simulator_imports_gf():
    # GF(q) stays behind the simulator: planning is entropy arithmetic
    importers = sorted(
        path.name
        for path in (ROOT / "src" / "soplan").glob("*.py")
        if _imports_gf(ast.parse(path.read_text()))
    )
    assert importers == ["rlnc.py"]


def test_cli_import_is_eager_and_free_of_dataclasses():
    # One fresh interpreter: importing the CLI loads every module of the
    # package up front, so no import lands in a job's time, and none of
    # them pulls in dataclasses or what it imports.
    modules = ["cli", "compsetso", "core", "gf", "multistage", "omniscience", "rlnc",
               "sources", "submodular"]
    assert sorted(path.stem for path in (ROOT / "src" / "soplan").glob("*.py")) == sorted(
        modules + ["__init__"])
    code = ("import soplan.cli, sys; "
            "print(' '.join(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))); "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('soplan.'))))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    unwanted, loaded = done.stdout.split("\n")[:2]
    assert unwanted == ""
    assert loaded.split() == [f"soplan.{name}" for name in modules]
