"""Acceptance gate: nine end-to-end checks over frozen worked examples
and randomized corpora.  Each test prints one explicit pass line; run
with ``pytest tests/test_acceptance.py -v -s`` to see them."""

from __future__ import annotations

import time
from fractions import Fraction

from soplan import (
    ASYMPTOTIC,
    NON_ASYMPTOTIC,
    RateVector,
    check_sw_achievable,
    comp_set_so,
    complementary_by_lower_bound,
    enumerate_complementary,
    execute_plan,
    is_complementary,
    min_sum_rate,
    plan_multistage,
)
from soplan.compsetso import EXACT, LOWER_BOUND, alpha_lower_bound
from soplan.multistage import build_plan
from soplan.omniscience import optimal_rate_vector
from soplan.submodular import dilworth_truncation, run_rate_update
from tests.conftest import (
    make_cyclic_triple,
    make_five_user,
    make_independent_triple,
    snapshots,
)

FIVE_USER_ASYMPTOTIC = Fraction(13, 2)
FIVE_USER_NON_ASYMPTOTIC = Fraction(7)

# Masks over user order (1,2,3,4,5).
ASYMPTOTIC_COMPLEMENTARY = (0b00011, 0b10001, 0b10011, 0b11101)
NON_ASYMPTOTIC_COMPLEMENTARY = (
    3, 9, 10, 11, 13, 14, 15, 17, 18, 19, 21, 22, 23, 25, 26, 27, 29, 30
)


def _passed(number: int, note: str) -> None:
    print(f"criterion {number}: PASS - {note}")


def _truncation_complementary(source, model: str) -> tuple:
    """The characterization through the truncation equality at
    alpha = R(V), evaluated from scratch for every testable subset."""
    ground = source.ground
    shift = min_sum_rate(source, None, model).value - source.entropy(ground.full_mask)
    found = []
    for mask in range(1, ground.full_mask):
        if mask.bit_count() < 2:
            continue
        if dilworth_truncation(source, shift, mask) == shift + source.entropy(mask):
            found.append(mask)
    return tuple(found)


def _inequality_complementary(source, model: str) -> tuple:
    ground = source.ground
    return tuple(
        mask
        for mask in range(1, ground.full_mask)
        if mask.bit_count() >= 2 and is_complementary(source, mask, model)
    )


def test_criterion_1_worked_example_min_sum_rates():
    source = make_five_user()
    start = time.monotonic()
    asym = min_sum_rate(source, None, ASYMPTOTIC)
    non_asym = min_sum_rate(source, None, NON_ASYMPTOTIC)
    elapsed = time.monotonic() - start
    assert asym.value == FIVE_USER_ASYMPTOTIC
    assert non_asym.value == FIVE_USER_NON_ASYMPTOTIC
    assert elapsed < 1.0
    _passed(1, f"13/2 and 7 recovered exactly in {elapsed:.3f}s")


def test_criterion_2_achievability_of_golden_vectors():
    source = make_five_user()
    ground = source.ground
    good_asym = RateVector.from_map(
        ground,
        {1: Fraction(9, 2), 2: 0, 3: Fraction(1, 2), 4: Fraction(1, 2), 5: 1},
    )
    good_non_asym = RateVector.from_map(ground, {1: 5, 2: 0, 3: 1, 4: 1, 5: 0})
    assert check_sw_achievable(source, ground.full_mask, good_asym).ok
    assert check_sw_achievable(source, ground.full_mask, good_non_asym).ok
    zero = RateVector.from_map(ground, {u: 0 for u in ground.labels})
    failed = check_sw_achievable(source, ground.full_mask, zero)
    assert not failed.ok
    assert failed.violating is not None and failed.deficit > 0
    _passed(
        2,
        "both golden vectors achievable; zero vector violates "
        f"{ground.format(failed.violating)} by {failed.deficit}",
    )


def test_criterion_3_complementary_enumeration_both_paths():
    source = make_five_user()
    for model, expected in (
        (ASYMPTOTIC, ASYMPTOTIC_COMPLEMENTARY),
        (NON_ASYMPTOTIC, NON_ASYMPTOTIC_COMPLEMENTARY),
    ):
        assert enumerate_complementary(source, model, verify=True) == expected
        assert _inequality_complementary(source, model) == expected
        # integral entropies, so the truncation path characterizes the
        # non-asymptotic list too
        assert _truncation_complementary(source, model) == expected
    _passed(3, "4 asymptotic and 18 non-asymptotic subsets, both paths agree")


def test_criterion_4_single_sweep_search_four_alphas():
    source = make_five_user()
    target = source.ground.mask([1, 2])
    cases = (
        (EXACT, ASYMPTOTIC, FIVE_USER_ASYMPTOTIC),
        (EXACT, NON_ASYMPTOTIC, FIVE_USER_NON_ASYMPTOTIC),
        (LOWER_BOUND, ASYMPTOTIC, Fraction(23, 4)),
        (LOWER_BOUND, NON_ASYMPTOTIC, Fraction(6)),
    )
    for mode, model, expected_value in cases:
        outcome = comp_set_so(source, model, mode)
        assert outcome.alpha == expected_value
        assert outcome.subset == target
        if mode == EXACT:
            assert outcome.exit_position == 2
    _passed(4, "{1,2} found under all four alpha settings, exact cases at i = 2")


def test_criterion_5_degenerate_triples():
    cyclic = make_cyclic_triple()
    assert min_sum_rate(cyclic, None, ASYMPTOTIC).value == Fraction(3, 2)
    outcome = comp_set_so(cyclic, ASYMPTOTIC, EXACT)
    assert outcome.subset is None
    half = Fraction(1, 2)
    assert outcome.rates.as_dict() == {1: half, 2: half, 3: half}
    assert enumerate_complementary(cyclic, ASYMPTOTIC) == ()

    independent = make_independent_triple()
    assert min_sum_rate(independent, None, ASYMPTOTIC).value == Fraction(3)
    assert alpha_lower_bound(independent, ASYMPTOTIC) == Fraction(3)
    expected = tuple(
        mask for mask in range(1, 7) if mask.bit_count() == 2
    )  # every non-singleton proper subset of a triple
    assert enumerate_complementary(independent, ASYMPTOTIC) == expected
    _passed(5, "cyclic triple forced to (1/2,1/2,1/2); independent triple all pairs")


def test_criterion_6_multistage_plan_goldens():
    source = make_five_user()
    builds = {model: build_plan(source, model) for model in (ASYMPTOTIC, NON_ASYMPTOTIC)}

    asym_plan = builds[ASYMPTOTIC].plan
    targets = [stage.target for stage in asym_plan.stages]
    ground = source.ground
    assert targets == [ground.mask([1, 2]), ground.mask([1, 2, 5]), ground.full_mask]
    assert asym_plan.total_rates.total == FIVE_USER_ASYMPTOTIC
    assert builds[NON_ASYMPTOTIC].plan.total_rates.total == FIVE_USER_NON_ASYMPTOTIC

    for build in builds.values():
        for record in build.builds:
            if not record.stage.total:
                continue
            assert check_sw_achievable(record.system.source, record.target, record.rates).ok
    _passed(6, "stage targets {1,2} -> {1,2,5} -> V, totals 13/2 and 7, local SW holds")


def test_criterion_7_simulation_batch():
    source = make_five_user()
    plans = [
        plan_multistage(source, ASYMPTOTIC),
        plan_multistage(source, NON_ASYMPTOTIC),
    ]
    start = time.monotonic()
    results = {}
    for plan in plans:
        outcomes = [execute_plan(source, plan, seed=seed) for seed in range(100)]
        successes = sum(1 for t in outcomes if t.ok)
        for transcript in outcomes:
            # a failed decode must surface in the transcript, per user
            assert transcript.ok == all(transcript.decoded.values())
            for user, rank in transcript.ranks.items():
                assert transcript.decoded[user] == (rank == transcript.required_rank)
        results[plan.model] = successes
        assert successes >= 99
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _passed(
        7,
        f"decode successes {results[ASYMPTOTIC]}/100 and "
        f"{results[NON_ASYMPTOTIC]}/100 in {elapsed:.2f}s",
    )


def test_criterion_8_randomized_oracle_equivalence(source_corpus):
    checked_subsets = 0
    for source in source_corpus:
        ground = source.ground
        r_asym = min_sum_rate(source, None, ASYMPTOTIC).value
        r_non = min_sum_rate(source, None, NON_ASYMPTOTIC).value
        assert r_non == -(-r_asym.numerator // r_asym.denominator)  # ceiling

        for model in (ASYMPTOTIC, NON_ASYMPTOTIC):
            # verify=True recomputes the list through the truncation
            # equality and fails loudly on any disagreement
            listed = set(enumerate_complementary(source, model, verify=True))
            for mask in range(1, ground.full_mask):
                if mask.bit_count() < 2:
                    continue
                checked_subsets += 1
                if complementary_by_lower_bound(source, mask, model):
                    assert mask in listed

            for mode in (EXACT, LOWER_BOUND):
                outcome = comp_set_so(source, model, mode)
                if outcome.subset is None:
                    oracle = min_sum_rate(source, None, model).value
                    assert outcome.alpha == oracle
                    assert check_sw_achievable(source, ground.full_mask, outcome.rates).ok
            vector = optimal_rate_vector(source, model)
            assert check_sw_achievable(source, ground.full_mask, vector).ok
            if model == NON_ASYMPTOTIC:
                assert all(v.denominator == 1 for v in vector.as_dict().values())
    _passed(
        8,
        f"{len(source_corpus)} sources, {checked_subsets} subset checks, "
        "all oracles agree",
    )


def test_criterion_9_rate_update_stays_in_polyhedron(source_corpus):
    instances = 0
    for source in source_corpus:
        ground = source.ground
        if ground.size > 5:
            continue
        instances += 1
        for model in (ASYMPTOTIC, NON_ASYMPTOTIC):
            for mode in (EXACT, LOWER_BOUND):
                alpha = (
                    min_sum_rate(source, None, model).value
                    if mode == EXACT
                    else alpha_lower_bound(source, model)
                )
                shift = alpha - source.entropy(ground.full_mask)
                run = run_rate_update(source, shift, early_exit=False)
                for snapshot in snapshots(run):
                    for mask in range(1, ground.full_mask + 1):
                        total = sum(
                            (snapshot[pos] for pos in range(ground.size) if mask >> pos & 1),
                            Fraction(0),
                        )
                        assert total <= shift + source.entropy(mask)
    _passed(9, f"r(X) <= f#_alpha(X) held through every update on {instances} sources")
