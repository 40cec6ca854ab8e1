"""Super-user merging and the staged planner."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from soplan import multistage
from soplan import (
    ASYMPTOTIC,
    NON_ASYMPTOTIC,
    DomainError,
    FormatError,
    GroundSet,
    LinearSource,
    PacketSource,
    RateVector,
    StagePlan,
    check_sw_achievable,
    dump_plan,
    execute_plan,
    load_plan,
    min_sum_rate,
    plan_multistage,
)
from soplan.multistage import Stage, build_plan, initial_system, merge_super_user
from soplan.sources import induced_table


def restricted_source(system, mask):
    members = system.ground.labels_of(mask)
    return LinearSource(
        GroundSet(members),
        system.source.field_order,
        system.source.width,
        {m: system.source.rows[m] for m in members},
    )


class TestStage:
    def test_rates_confined_to_target(self, five_user):
        g = five_user.ground
        stage = Stage(g.mask([1, 2]), RateVector.from_map(g, {1: 2}))
        assert stage.total == 2
        with pytest.raises(DomainError):
            Stage(g.mask([1, 2]), RateVector.from_map(g, {3: 1}))

    def test_negative_rates_rejected(self, five_user):
        g = five_user.ground
        with pytest.raises(DomainError):
            Stage(g.mask([1, 2]), RateVector.from_map(g, {1: -1}))

    def test_empty_target_rejected(self, five_user):
        g = five_user.ground
        with pytest.raises(DomainError):
            Stage(0, RateVector.zeros(g))


class TestMergedSystem:
    def test_initial_system_is_identity(self, five_user):
        system = initial_system(five_user, 1, 53)
        assert system.ground.labels == (1, 2, 3, 4, 5)
        assert system.label_map[3] == frozenset([3])
        assert system.source.entropy(system.ground.full_mask) == 10

    def test_merge_builds_super_user(self, five_user):
        system = initial_system(five_user, 1, 53)
        rows = ((0,) * 10,)  # one junk broadcast row, support irrelevant here
        merged = merge_super_user(system, [1, 2], rows)
        assert merged.ground.labels == ("1+2", 3, 4, 5)
        assert merged.label_map["1+2"] == frozenset([1, 2])
        assert merged.original_mask(["1+2", 5]) == five_user.ground.mask([1, 2, 5])
        # super user stacks member rows: rank is the joint entropy
        assert merged.source.entropy(["1+2"]) == 8
        # bystanders keep their rows plus the transmissions
        assert len(merged.source.rows[3]) == 4 + 1

    def test_merge_chains_keep_original_order(self, five_user):
        system = initial_system(five_user, 1, 53)
        merged = merge_super_user(system, [1, 2], ())
        again = merge_super_user(merged, ["1+2", 5], ())
        assert again.ground.labels == ("1+2+5", 3, 4)
        assert again.label_map["1+2+5"] == frozenset([1, 2, 5])

    def test_merge_refuses_bad_subsets(self, five_user):
        system = initial_system(five_user, 1, 53)
        with pytest.raises(DomainError):
            merge_super_user(system, [3], ())
        with pytest.raises(DomainError):
            merge_super_user(system, system.ground.full_mask, ())


class TestBuildPlanWorkedExample:
    def test_asymptotic_stages(self, five_user):
        g = five_user.ground
        build = build_plan(five_user, ASYMPTOTIC, seed=0)
        plan = build.plan
        assert plan.chunk_factor == 2
        assert plan.field_order == 101
        assert [stage.target for stage in plan.stages] == [
            g.mask([1, 2]),
            g.mask([1, 2, 5]),
            g.full_mask,
        ]
        assert [stage.total for stage in plan.stages] == [
            Fraction(2),
            Fraction(3),
            Fraction(3, 2),
        ]
        assert plan.stages[1].rates.values == (2, 0, 0, 0, 1)
        assert plan.stages[2].rates.values == (
            Fraction(1, 2),
            0,
            Fraction(1, 2),
            Fraction(1, 2),
            0,
        )
        assert plan.total_rates.total == Fraction(13, 2)

    def test_non_asymptotic_stages(self, five_user):
        g = five_user.ground
        build = build_plan(five_user, NON_ASYMPTOTIC, seed=0)
        plan = build.plan
        assert plan.chunk_factor == 1
        assert plan.field_order == 53
        assert [stage.target for stage in plan.stages] == [
            g.mask([1, 2]),
            g.mask([1, 2, 4]),
            g.mask([1, 2, 3, 4]),
        ]
        assert plan.total_rates.values == (5, 0, 1, 1, 0)
        assert plan.total_rates.total == 7

    @pytest.mark.parametrize("model", [ASYMPTOTIC, NON_ASYMPTOTIC])
    def test_totals_match_single_shot_minimum(self, five_user, model):
        plan = plan_multistage(five_user, model)
        assert plan.total_rates.total == min_sum_rate(five_user, None, model).value

    @pytest.mark.parametrize("model", [ASYMPTOTIC, NON_ASYMPTOTIC])
    def test_each_stage_reaches_local_omniscience(self, five_user, model):
        build = build_plan(five_user, model, seed=0)
        for record in build.builds:
            local = (
                record.system.source
                if record.target == record.system.ground.full_mask
                else restricted_source(record.system, record.target)
            )
            rates = RateVector.from_map(local.ground, record.chunk_rates)
            if local.ground.size >= 2 and rates.total > 0:
                assert check_sw_achievable(local, local.ground.full_mask, rates).ok

    def test_builds_cover_all_stages(self, five_user):
        build = build_plan(five_user, ASYMPTOTIC, seed=0)
        emitted = [record for record in build.builds if record.emitted]
        assert len(emitted) == len(build.plan.stages)
        assert build.builds[-1].target == build.builds[-1].system.ground.full_mask


class TestPlannerEdgeCases:
    def test_identical_pair_gives_empty_plan(self, identical_pair):
        plan = plan_multistage(identical_pair, ASYMPTOTIC)
        assert plan.stages == ()
        assert plan.total_rates.total == 0

    def test_cyclic_triple_single_stage(self, cyclic_triple):
        plan = plan_multistage(cyclic_triple, ASYMPTOTIC)
        assert len(plan.stages) == 1
        assert plan.stages[0].target == cyclic_triple.ground.full_mask
        assert plan.chunk_factor == 2  # half-packet rates need split packets
        assert plan.stages[0].rates.values == (Fraction(1, 2),) * 3

    def test_independent_triple_stages(self, independent_triple):
        plan = plan_multistage(independent_triple, ASYMPTOTIC)
        assert plan.total_rates.total == 3
        assert plan.chunk_factor == 1

    def test_table_sources_not_plannable(self, five_user):
        table = induced_table(five_user)
        with pytest.raises(DomainError):
            plan_multistage(table, ASYMPTOTIC)

    def test_unknown_alpha_mode_rejected(self, five_user):
        with pytest.raises(DomainError):
            build_plan(five_user, ASYMPTOTIC, alpha_mode="bisection")

    def test_exact_alpha_mode_agrees_on_example(self, five_user):
        cheap = plan_multistage(five_user, ASYMPTOTIC, alpha_mode="lower_bound")
        exact = plan_multistage(five_user, ASYMPTOTIC, alpha_mode="exact")
        assert cheap.to_dict() == exact.to_dict()

    def test_plans_are_deterministic(self, five_user):
        one = plan_multistage(five_user, ASYMPTOTIC, seed=7)
        two = plan_multistage(five_user, ASYMPTOTIC, seed=7)
        assert one.to_dict() == two.to_dict()

    def test_seed_only_changes_the_recorded_seed(self, five_user):
        # stage rates come from exact oracles; randomness only affects rows
        one = plan_multistage(five_user, ASYMPTOTIC, seed=0).to_dict()
        two = plan_multistage(five_user, ASYMPTOTIC, seed=99).to_dict()
        one.pop("seed"), two.pop("seed")
        assert one == two


# Six users, 33 packets: (packet id, holders).  Ids are kept as drawn
# because their sorted order lays out the lifted columns.  At plan seed
# 2071639918 one stage draw hands every member the group's span but
# leaves an outsider short, so the merged system's minimum sum-rate comes
# out one chunk above the current one less the stage total.
OUTSIDER_SHORTFALL_SEED = 2071639918
OUTSIDER_SHORTFALL_PACKETS = (
    ("k00e95af26a", "12356"), ("k0fc35bb88d", "123456"), ("k137345f4a6", "46"),
    ("k21ddb53746", "23456"), ("k2c1de78b2c", "135"), ("k3082366c41", "3456"),
    ("k326c0bffae", "13456"), ("k36d12e13da", "123456"), ("k375335378f", "14"),
    ("k382ab8a298", "13"), ("k42ebe39dee", "12356"), ("k5088d5b80e", "123456"),
    ("k554229f0c5", "12456"), ("k58439aa581", "123456"), ("k591de82d1c", "6"),
    ("k63c3621eab", "1234"), ("k6dca567886", "134"), ("k7c2052b380", "4"),
    ("k84dd22a06b", "6"), ("k860001e8f9", "126"), ("k8bf8663533", "125"),
    ("k8d02508cb2", "35"), ("k8ec25ae4b8", "5"), ("k9a139e8d30", "2346"),
    ("k9b837b6779", "35"), ("ka0347c5b79", "1236"), ("ka392e9739b", "12346"),
    ("kae5263a8cb", "123456"), ("kc60300ad25", "1"), ("kca9cc1ea02", "123456"),
    ("kef76798dfd", "23456"), ("kef98729054", "123456"), ("kfeb0ab2c37", "134"),
)


class TestStageRedraws:
    def test_outsider_shortfall_is_redrawn(self, monkeypatch):
        users = (1, 2, 3, 4, 5, 6)
        possession = {
            u: [packet for packet, holders in OUTSIDER_SHORTFALL_PACKETS if str(u) in holders]
            for u in users
        }
        source = PacketSource(GroundSet(users), possession)
        attempts = []

        def recording(*args, **kwargs):
            draw = multistage.draw_stage.__wrapped__(*args, **kwargs)
            attempts.append(draw.attempts)
            return draw

        recording.__wrapped__ = multistage.draw_stage
        monkeypatch.setattr(multistage, "draw_stage", recording)
        plan = plan_multistage(source, ASYMPTOTIC, seed=OUTSIDER_SHORTFALL_SEED)
        assert max(attempts) > 1
        assert plan.total_rates.total == min_sum_rate(source, None, ASYMPTOTIC).value
        assert execute_plan(source, plan).ok


class TestPlanSerialization:
    def test_round_trip(self, five_user, tmp_path):
        plan = plan_multistage(five_user, ASYMPTOTIC)
        path = tmp_path / "plan.json"
        dump_plan(plan, path)
        loaded = load_plan(path)
        assert loaded.to_dict() == plan.to_dict()

    def test_total_rates_cross_checked(self, five_user, tmp_path):
        plan = plan_multistage(five_user, ASYMPTOTIC)
        data = plan.to_dict()
        data["total_rates"]["1"] = "999"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError, match="does not match"):
            load_plan(path)

    def test_malformed_plans_rejected(self, five_user):
        good = plan_multistage(five_user, ASYMPTOTIC).to_dict()
        cases = []
        for key in ("model", "users", "chunk_factor", "field_order", "seed", "stages"):
            broken = dict(good)
            del broken[key]
            cases.append(broken)
        broken = dict(good)
        broken["model"] = "quantum"
        cases.append(broken)
        broken = dict(good)
        broken["chunk_factor"] = 0
        cases.append(broken)
        broken = dict(good)
        broken["stages"] = [{"target": [1, 2]}]
        cases.append(broken)
        broken = json.loads(json.dumps(good))
        broken["stages"][0]["rates"]["9"] = "1"
        cases.append(broken)
        broken = json.loads(json.dumps(good))
        broken["stages"][0]["rates"]["3"] = "1"  # outside the stage target
        cases.append(broken)
        for case in cases:
            with pytest.raises(FormatError):
                StagePlan.from_dict(case)

    def test_fraction_rates_survive_json(self, five_user):
        plan = plan_multistage(five_user, ASYMPTOTIC)
        data = json.loads(json.dumps(plan.to_dict()))
        loaded = StagePlan.from_dict(data)
        assert loaded.stages[2].rates.rate(1) == Fraction(1, 2)
