"""The benchmark's own tests: determinism, trace transparency, layer
separation, the output checks, and the refusal to run without sources.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def traced():
    """Traced results per workload, deep-packets twice; each covers one
    round, with the deep-packets catalogue cut to its first 8 structures
    to keep the tests short."""
    saved = workloads.DEEP_CATALOGUE_SIZE
    workloads.DEEP_CATALOGUE_SIZE = 8
    try:
        results = {name: run.benchmark(name, SEED, 0, trace=True) for name in workloads.WHY}
        results["again"] = run.benchmark(workloads.DEEP_PACKETS, SEED, 0, trace=True)
    finally:
        workloads.DEEP_CATALOGUE_SIZE = saved
    return results


def _counts(result: dict) -> dict:
    metrics = result["result"]["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


def test_same_seed_same_digest_and_counts(traced):
    first, second = traced[workloads.DEEP_PACKETS], traced["again"]
    assert first["digest"] == second["digest"]
    assert _counts(first) == _counts(second)
    assert first["result"]["attempted"] == second["result"]["attempted"]


def test_tracing_does_not_change_outputs(traced):
    for name in workloads.WHY:
        assert traced[name]["traced_digest_matches"], name
        assert traced[name]["result"]["correct"], name


def test_gf_runs_only_on_deep_packets(traced):
    gf_counts = ("gf.add.calls", "gf.contains.calls", "gf.random_combination.calls", "gf.clone.calls")
    for name in (workloads.WIDE_USERS, workloads.FRACTION_TABLES):
        counts = _counts(traced[name])
        assert all(counts[c] == 0 for c in gf_counts), name
    counts = _counts(traced[workloads.DEEP_PACKETS])
    assert counts["gf.add.calls"] > 0
    assert counts["gf.random_combination.calls"] > 0


def test_fraction_path_only_on_fraction_tables(traced):
    counts = _counts(traced[workloads.FRACTION_TABLES])
    assert counts["omniscience.min_sum_rate.fraction_calls"] > 0
    assert counts["submodular.dilworth_truncation.calls"] > 0
    for name in (workloads.WIDE_USERS, workloads.DEEP_PACKETS):
        assert _counts(traced[name])["omniscience.min_sum_rate.fraction_calls"] == 0, name


def test_generation_is_seeded():
    a = workloads.generate(workloads.WIDE_USERS, 3, 1)
    b = workloads.generate(workloads.WIDE_USERS, 3, 1)
    c = workloads.generate(workloads.WIDE_USERS, 4, 1)
    assert _docs(a) == _docs(b)
    assert _docs(a) != _docs(c)


def _docs(rounds: list) -> list:
    return [instance.doc for current in rounds for instance in current]


def test_minrate_check_rejects_wrong_outputs():
    # Two users with one packet each: R(V) = 2, rates (1, 1).
    instance = workloads._packet_instance(0, 2, [0b01, 0b10], ["a", "b"])
    good = (
        "users: {1,2}\nmodel: asymptotic\nmin sum-rate: 2\n"
        "maximizing partition: {1} | {2}\noptimal rates: (1:1, 2:1)\n"
    )
    assert workloads.check_minrate(instance, good) is None
    assert workloads.check_minrate(instance, good.replace("(1:1, 2:1)", "(1:2, 2:0)"))
    assert workloads.check_minrate(instance, good.replace("sum-rate: 2", "sum-rate: 3"))
    table = workloads._coverage(2, [0b01, 0b10], [Fraction(1, 2), Fraction(3, 2)])
    assert table == [0, Fraction(1, 2), Fraction(3, 2), 2]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-users", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
