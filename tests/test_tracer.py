"""The benchmark's tracer patches soplan functions and methods by name,
so a rename in ``src`` must fail here, not only in the benchmark."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

from soplan import (
    ASYMPTOTIC,
    compsetso,
    enumerate_complementary,
    min_sum_rate,
    multistage,
    plan_multistage,
    rlnc,
    sources,
)
from tests.conftest import make_five_user, random_packet_source, random_rational_table

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall():
    merge, entropy = multistage.merge_super_user, sources._SourceBase.__dict__["entropy"]
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        assert multistage.merge_super_user is not merge
        plan_multistage(make_five_user(), ASYMPTOTIC)
        assert tracer.stat("multistage.merge_super_user")[0] == 2
        assert tracer.stat("multistage.initial_system")[0] == 1
    finally:
        tracer.uninstall()
    assert multistage.merge_super_user is merge
    assert sources._SourceBase.__dict__["entropy"] is entropy


def test_prefix_trie_steps_are_counted():
    """enumerate's prefix-trie walk runs the same step as every sweep,
    so the tracer sees its (3^n - 1) / 2 candidates.  ``verify`` adds
    exactly one reference truncation, at V, which builds the table of
    partition minima that every other subset is read off, so the
    benchmark's fraction-tables workload sees the reference's cost in
    that call; and it adds no prefix step: the reference shares no code
    with the walk it checks."""
    steps = {}
    for verify, truncations in ((False, 0), (True, 1)):
        # a fresh source each time, so R(V) is computed, not cached
        source = random_rational_table(random.Random(6), 6, 8)
        tracer = _tracer_module().Tracer()
        tracer.install()
        try:
            enumerate_complementary(source, verify=verify)
        finally:
            tracer.uninstall()
        steps[verify] = tracer.stat("submodular.minimize_over_prefix")[0]
        assert steps[verify] >= 2 ** 6 - 1
        assert tracer.counts["submodular.minimize_over_prefix.candidates"] >= (3 ** 6 - 1) // 2
        assert tracer.stat("submodular.dilworth_truncation")[0] == truncations
    assert steps[True] == steps[False]


def test_sweeps_step_over_block_unions():
    """A completed sweep steps once per user over the unions of the
    finest tight blocks, so with a fundamental block of two users or
    more it examines fewer than the 2^n - 1 prefix sets; CompSetSO's
    early-exit sweep still examines every prefix subset up to its
    exit."""
    source = random_packet_source(random.Random(9), 9, 18)
    n = source.ground.size
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        result = min_sum_rate(source)
    finally:
        tracer.uninstall()
    assert max(block.bit_count() for block in result.maximizing_partition) > 1
    assert tracer.stat("submodular.run_rate_update")[0] == 1
    assert tracer.stat("submodular.minimize_over_prefix")[0] == n
    assert tracer.counts["submodular.minimize_over_prefix.candidates"] < 2 ** n - 1
    for mode in (compsetso.EXACT, compsetso.LOWER_BOUND):
        tracer = _tracer_module().Tracer()
        tracer.install()
        try:
            # through the module, where the tracer wraps it
            outcome = compsetso.comp_set_so(source, ASYMPTOTIC, mode)
        finally:
            tracer.uninstall()
        # 2^(k-1) sets at the k-th user, less the first user's one
        assert tracer.counts["compsetso.comp_set_so.candidates"] == 2 ** (outcome.exit_position or n) - 2


def test_simulator_rows_pass_through_the_traced_entry_points():
    """The benchmark's gf metrics count ``RowSpace.add``, ``contains``
    and ``clone`` and ``random_combination``; a simulator that routed
    rows around them would read zero there, so it fails here."""
    source = make_five_user()
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        plan = plan_multistage(source, ASYMPTOTIC)
        # through the module, where the tracer wraps it
        transcript = rlnc.execute_plan(source, plan)
    finally:
        tracer.uninstall()
    assert len(plan.stages) >= 2
    broadcasts = len(transcript.broadcasts)
    assert broadcasts > 0
    assert tracer.counts["rlnc.broadcasts"] == broadcasts
    assert tracer.stat("rlnc.execute_plan")[0] == 1
    # one combination and one membership check per row, and every row
    # heard by at least one other space
    assert tracer.stat("gf.random_combination")[0] >= broadcasts
    assert tracer.stat("gf.contains")[0] >= broadcasts
    assert tracer.stat("gf.add")[0] >= broadcasts
    assert tracer.counts["gf.add.grew"] > 0
    assert tracer.stat("gf.clone")[0] >= len(plan.stages)
