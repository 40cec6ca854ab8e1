"""GF(q) row spaces, field selection and the network-coding simulator."""

from __future__ import annotations

import json
import math
import random

import pytest

from soplan import (
    CertificationError,
    DomainError,
    FormatError,
    RateVector,
    StagePlan,
    execute_plan,
    plan_multistage,
)
from soplan.multistage import Stage
from tests.conftest import (
    dense_basis,
    make_five_user,
    reference_draw_stage,
    reference_execute,
    space_with,
)
from soplan.rlnc import _chunk_columns, check_field, choose_field, draw_stage
from soplan.sources import reorder
from soplan.gf import PRIME_TEST_LIMIT, RowSpace, is_prime, next_prime, random_combination


class TestPrimes:
    def test_is_prime_small_cases(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_is_prime_matches_trial_division(self):
        def by_trial(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
        for n in list(range(10**4)) + carmichael:
            assert is_prime(n) == by_trial(n), n

    def test_large_orders(self):
        # a strong pseudoprime to every prime base up to 37
        assert not is_prime(318665857834031151167461)
        assert is_prime(2**61 - 1)
        assert RowSpace(2**61 - 1, 3).rank == 0
        with pytest.raises(DomainError, match="beyond the exact primality test"):
            RowSpace(2**89 - 1, 3)

    def test_cached_verdicts_are_the_uncached_ones(self):
        # the cache is typed: an int's verdict is not a float's
        assert is_prime(1009)
        with pytest.raises(TypeError):
            is_prime(1009.0)
        # a refusal is not cached as a verdict
        for _ in range(2):
            with pytest.raises(DomainError, match="beyond the exact primality test"):
                is_prime(PRIME_TEST_LIMIT)

    def test_next_prime_is_strictly_greater(self):
        assert next_prime(0) == 2
        assert next_prime(7) == 11
        assert next_prime(50) == 53
        assert next_prime(100) == 101


class TestRowSpace:
    def test_rank_and_contains(self):
        space = RowSpace(5, 3)
        assert space.add((1, 2, 0))
        assert space.add((0, 1, 1))
        assert not space.add((2, 4, 0))  # scalar multiple of row 1
        assert space.rank == 2
        assert space.contains((1, 0, 3))  # row1 - 2*row2 mod 5
        assert not space.contains((0, 0, 1))

    def test_rows_reduced_mod_q(self):
        space = space_with(7, 2, [(8, 15)])
        assert space.contains((1, 1))

    def test_basis_is_normalized(self):
        space = space_with(5, 3, [(2, 2, 0), (0, 0, 3)])
        basis = dense_basis(space)
        for row in basis:
            pivot = next(v for v in row if v)
            assert pivot == 1
        assert space_with(5, 3, basis).rank == 2

    def test_covered_is_keyword_only(self):
        # a list of rows passed where rows were once taken is refused,
        # not read as a covered mask
        with pytest.raises(TypeError):
            RowSpace(5, 3, [(1, 0, 0)])
        assert RowSpace(5, 3, covered=0b001).rank == 1

    def test_zero_width_space(self):
        space = RowSpace(5, 0)
        assert space.rank == 0
        assert space.contains(())

    def test_random_combination_stays_in_span(self):
        rng = random.Random(1)
        space = space_with(11, 4, [(1, 0, 2, 0), (0, 1, 0, 3)])
        for _ in range(20):
            row = random_combination(space, rng)
            assert space.contains(row)

    def test_combination_needs_one_coefficient_per_row(self):
        space = space_with(5, 3, [(1, 0, 0), (0, 1, 0)])
        assert space.combination([2, 3]) == (2, 3, 0)
        for coefficients in ([1], [1, 2, 3, 4]):
            with pytest.raises(DomainError, match="coefficients for a basis of 2 rows"):
                space.combination(coefficients)

    def test_random_combination_of_nothing_is_zero(self):
        rng = random.Random(1)
        assert random_combination(RowSpace(7, 3), rng) == (0, 0, 0)


class TestChooseField:
    def test_worked_example_fields(self):
        assert choose_field(2, 10, 5) == 101
        assert choose_field(1, 10, 5) == 53
        assert choose_field(1, 3, 3) == 11

    def test_bound_is_strict(self):
        chosen = choose_field(1, 3, 2)
        assert chosen == 7
        assert chosen > 6

    def test_field_spec_validation(self):
        check_field(7, 1, 3, 2)
        with pytest.raises(DomainError):
            check_field(5, 1, 3, 2)  # 5 <= 3*2
        with pytest.raises(DomainError):
            check_field(9, 1, 2, 2)  # not prime


class TestExecutePlan:
    @pytest.mark.parametrize("model", ["asymptotic", "non_asymptotic"])
    def test_worked_example_decodes(self, five_user, model):
        plan = plan_multistage(five_user, model)
        transcript = execute_plan(five_user, plan)
        assert transcript.ok
        assert all(report.ok for report in transcript.stage_reports)
        expected_rows = int(plan.total_rates.total * plan.chunk_factor)
        assert len(transcript.broadcasts) == expected_rows
        assert transcript.required_rank == 10 * plan.chunk_factor

    def test_fresh_source_builds_no_entropy_table(self, five_user):
        # H(V) is the packet count; the 2^|V| table is never needed
        plan = plan_multistage(five_user)
        fresh = make_five_user()
        assert execute_plan(fresh, plan).ok
        assert "entropies" not in vars(fresh)

    def test_row_outside_the_sender_span_is_refused(self, monkeypatch):
        # an explicit check, so it holds under python -O as well
        def outside(space, coefficients):
            return (0, 1)

        monkeypatch.setattr(RowSpace, "combination", outside)
        spaces = {"a": RowSpace(7, 2, covered=0b01), "b": RowSpace(7, 2, covered=0b10)}
        with pytest.raises(CertificationError, match="stage 3: sender 'a' broadcast a row outside"):
            draw_stage(spaces, {"a": 1}, random.Random(0), 0b11, 3)

    def test_broadcast_rows_have_sender_support(self, five_user):
        plan = plan_multistage(five_user, "asymptotic")
        transcript = execute_plan(five_user, plan)
        # packet k of packet_order is chunk columns k*L .. k*L+L-1
        chunk, order = plan.chunk_factor, five_user.packet_order
        width = chunk * len(order)
        heard = {}
        for user in five_user.ground.labels:
            columns = [
                k * chunk + c
                for k, packet in enumerate(order)
                if packet in five_user.possession[user]
                for c in range(chunk)
            ]
            units = [tuple(int(j == column) for j in range(width)) for column in columns]
            heard[user] = space_with(plan.field_order, width, units)
        for broadcast in transcript.broadcasts:
            sender = broadcast.sender if broadcast.sender in heard else None
            assert sender is not None
            assert heard[sender].contains(broadcast.row)
            for user, space in heard.items():
                if user != sender:
                    space.add(broadcast.row)

    def test_transcript_jsonl_shape(self, five_user):
        plan = plan_multistage(five_user, "non_asymptotic")
        transcript = execute_plan(five_user, plan)
        lines = transcript.to_jsonl().strip().split("\n")
        assert len(lines) == len(transcript.broadcasts) + 1
        for line in lines[:-1]:
            record = json.loads(line)
            assert set(record) == {"stage", "sender", "coding_row", "field"}
            assert record["field"] == plan.field_order
        closing = json.loads(lines[-1])
        assert closing["ok"] is True
        assert set(closing["decoded"]) == {"1", "2", "3", "4", "5"}

    def test_same_seed_reproduces_everything(self, five_user):
        plan = plan_multistage(five_user, "asymptotic")
        a = execute_plan(five_user, plan, seed=5)
        b = execute_plan(five_user, plan, seed=5)
        assert a.to_jsonl() == b.to_jsonl()

    def test_seed_defaults_to_the_plan_seed(self, five_user):
        plan = plan_multistage(five_user, "asymptotic", seed=3)
        assert execute_plan(five_user, plan).to_jsonl() == execute_plan(
            five_user, plan, seed=3
        ).to_jsonl()

    def test_different_seeds_draw_different_rows(self, five_user):
        plan = plan_multistage(five_user, "asymptotic")
        a = execute_plan(five_user, plan, seed=0)
        b = execute_plan(five_user, plan, seed=1)
        assert a.broadcasts != b.broadcasts

    def test_empty_plan_trivially_decodes(self, identical_pair):
        plan = plan_multistage(identical_pair, "asymptotic")
        transcript = execute_plan(identical_pair, plan)
        assert transcript.ok
        assert transcript.broadcasts == ()

    def test_user_mismatch_rejected(self, five_user, cyclic_triple):
        plan = plan_multistage(cyclic_triple, "asymptotic")
        with pytest.raises(FormatError, match="users"):
            execute_plan(five_user, plan)

    def test_reordered_plan_runs_on_the_filed_source(self, five_user):
        reordered = reorder(five_user, (5, 4, 3, 2, 1))
        plan = plan_multistage(reordered, "asymptotic")
        transcript = execute_plan(five_user, plan)
        assert transcript.ok
        assert transcript.to_jsonl() == execute_plan(reordered, plan).to_jsonl()

    def test_inadequate_field_rejected(self, five_user):
        plan = plan_multistage(five_user, "non_asymptotic")
        data = plan.to_dict()
        data["field_order"] = 47  # prime but not above 10 * 5
        bad = StagePlan.from_dict(data)
        with pytest.raises(FormatError, match="too small"):
            execute_plan(five_user, bad)

    def test_non_prime_field_rejected(self, five_user):
        plan = plan_multistage(five_user, "non_asymptotic")
        data = plan.to_dict()
        data["field_order"] = 91  # 7 * 13
        bad = StagePlan.from_dict(data)
        with pytest.raises(FormatError, match="prime"):
            execute_plan(five_user, bad)

    def test_mersenne_prime_field_runs(self, five_user):
        data = plan_multistage(five_user, "non_asymptotic").to_dict()
        data["field_order"] = 2**61 - 1
        assert execute_plan(five_user, StagePlan.from_dict(data)).ok
        data["field_order"] = 2**89 - 1  # prime, but past the exact primality test
        with pytest.raises(FormatError, match="beyond"):
            execute_plan(five_user, StagePlan.from_dict(data))

    def test_fractional_chunk_counts_rejected(self, five_user):
        plan = plan_multistage(five_user, "asymptotic")
        data = plan.to_dict()
        data["chunk_factor"] = 1  # stage rates of 1/2 no longer fit
        with pytest.raises(FormatError, match="plan chunk factor 1 is not 2, .* whole number"):
            StagePlan.from_dict(data)

    def test_starved_plan_reports_failure(self, five_user):
        g = five_user.ground
        stage = Stage(g.full_mask, RateVector.from_map(g, {1: 1}))
        plan = StagePlan(g, "asymptotic", (stage,), 53, 0)
        transcript = execute_plan(five_user, plan)
        assert not transcript.ok
        assert not all(report.ok for report in transcript.stage_reports)
        closing = json.loads(transcript.to_jsonl().strip().split("\n")[-1])
        assert closing["ok"] is False


class TestChunkColumns:
    def test_chunk_counts_scale_entropies(self, five_user):
        width, coverage = _chunk_columns(five_user.packet_order, five_user.possession, 2)
        g = five_user.ground
        assert width == 2 * 10
        for mask in range(g.full_mask + 1):
            covered = 0
            for label in g.labels_of(mask):
                covered |= coverage[label]
            assert covered.bit_count() == 2 * five_user.entropy(mask)

    def test_chunk_columns_follow_packet_order(self, cyclic_triple):
        width, coverage = _chunk_columns(cyclic_triple.packet_order, cyclic_triple.possession, 3)
        assert width == 3 * 3
        # packet order is sorted; user 1 holds a and b -> chunks 0..5
        assert coverage[1] == 0b111111

    def test_user_covers_every_chunk_of_its_packets(self, five_user):
        _, coverage = _chunk_columns(five_user.packet_order, five_user.possession, 3)
        assert coverage[3].bit_count() == 3 * 4


class TestSharedSpaces:
    """Members that decode a stage share one space from then on, and
    later members' decode flags are read off ranks.  The per-user loop
    of ``tests.conftest.reference_execute`` is the oracle: rows, decode
    flags, attempts and ranks must all match it."""

    @staticmethod
    def assert_matches_reference(source, plan):
        transcript = execute_plan(source, plan)
        stages, ranks = reference_execute(source, plan)
        rows = tuple((b.sender, b.row) for b in transcript.broadcasts)
        assert rows == tuple(row for stage_rows, _, _ in stages for row in stage_rows)
        for report, (_, attempts, achieved) in zip(transcript.stage_reports, stages, strict=True):
            assert report.attempts == attempts
            assert dict(report.achieved) == achieved
        assert dict(transcript.ranks) == ranks

    def test_corpus_plans_with_later_stages(self, source_corpus):
        checked = 0
        for index, source in enumerate(source_corpus):
            for model in ("asymptotic", "non_asymptotic"):
                plan = plan_multistage(source, model, seed=index + 10)
                if len(plan.stages) < 2:
                    continue
                self.assert_matches_reference(source, plan)
                checked += 1
        assert checked > 300

    @pytest.mark.parametrize("q", [5, 7])
    def test_small_fields_redraw_and_fail_as_the_reference(self, q):
        """Over GF(5) and GF(7) draws come up short often, so members
        fail, the next member falls back to ``spans_units`` and stages
        redraw.  Stage targets are random and need not nest."""
        rng = random.Random(q)
        failed = redrawn = shared = 0
        for _ in range(60):
            n, width = rng.randint(3, 5), rng.randint(3, 9)
            users = list(range(n))
            coverage = {user: rng.getrandbits(width) for user in users}
            spaces = {user: RowSpace(q, width, covered=coverage[user]) for user in users}
            reference = dict(spaces)
            for stage in range(rng.randint(2, 4)):
                members = rng.sample(users, rng.randint(1, n))
                counts = {member: rng.choice((0, 0, 1, 1, 2, 3)) for member in members}
                needed = 0
                for member in members:
                    needed |= coverage[member]
                seed = rng.getrandbits(32)
                draw = draw_stage(spaces, counts, random.Random(seed), needed, stage)
                rows, reference, attempts, achieved = reference_draw_stage(
                    reference, counts, random.Random(seed), needed
                )
                assert draw.rows == rows
                assert draw.attempts == attempts
                assert draw.achieved == achieved
                spaces = draw.spaces
                for user in users:
                    assert dense_basis(spaces[user]) == dense_basis(reference[user])
                failed += not all(achieved.values())
                redrawn += attempts > 1
                shared += len(set(map(id, spaces.values()))) < n
        assert failed and redrawn and shared
