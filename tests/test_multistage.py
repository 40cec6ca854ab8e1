"""Super-user merging and the staged planner."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from soplan import multistage
from soplan import (
    ASYMPTOTIC,
    NON_ASYMPTOTIC,
    CertificationError,
    DomainError,
    FormatError,
    GroundSet,
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
from soplan.sources import reorder
from tests.conftest import (
    induced_table,
    random_packet_source,
    with_shared_packet,
    with_split_packets,
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
        system = initial_system(five_user)
        assert system.source is five_user
        assert system.ground.labels == (1, 2, 3, 4, 5)
        assert system.label_map[3] == frozenset([3])
        assert system.source.entropy(system.ground.full_mask) == 10

    def test_merge_builds_super_user(self, five_user):
        system = initial_system(five_user)
        one_row = RateVector.from_map(system.ground, {1: 1}, [1, 2])
        merged = merge_super_user(system, [1, 2], one_row)
        # the super user keeps its earliest member's label
        assert merged.ground.labels == (1, 3, 4, 5)
        assert merged.label_map[1] == frozenset([1, 2])
        assert merged.original_mask([1, 5]) == five_user.ground.mask([1, 2, 5])
        # the super user holds the joint observation
        assert merged.source.entropy([1]) == 8
        # user 3 (efhi) gains the row user 1 sends, at no cost to the cap
        assert merged.source.entropy([3]) == 4 + 1
        assert merged.source.entropy([1, 3]) == 10

    def test_fractional_rates_scale_the_table(self, five_user):
        system = initial_system(five_user)
        half_row = RateVector.from_map(system.ground, {1: Fraction(1, 2)}, [1, 2])
        merged = merge_super_user(system, [1, 2], half_row)
        assert merged.source.integral
        assert merged.source.entropy([1]) == 16
        assert merged.source.entropy([3]) == 2 * 4 + 1

    def test_merge_chains_keep_original_order(self, five_user):
        system = initial_system(five_user)
        merged = merge_super_user(system, [1, 2], RateVector.zeros(system.ground))
        again = merge_super_user(merged, [1, 5], RateVector.zeros(merged.ground))
        assert again.ground.labels == (1, 3, 4)
        assert again.label_map[1] == frozenset([1, 2, 5])

    def test_merge_refuses_bad_subsets(self, five_user):
        system = initial_system(five_user)
        zero = RateVector.zeros(system.ground)
        with pytest.raises(DomainError):
            merge_super_user(system, [3], zero)
        with pytest.raises(DomainError):
            merge_super_user(system, system.ground.full_mask, zero)

    def test_merge_refuses_rates_over_another_ground(self, cyclic_triple):
        system = initial_system(cyclic_triple)
        narrower = RateVector.from_map(GroundSet((1, 2)), {1: 1})
        reordered = RateVector.from_map(GroundSet((2, 1, 3)), {1: 1}, [1, 2])
        for rates in (narrower, reordered):
            with pytest.raises(DomainError, match="another ground set"):
                merge_super_user(system, [1, 2], rates)


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
            assert check_sw_achievable(record.system.source, record.target, record.rates).ok

    def test_builds_cover_all_stages(self, five_user):
        build = build_plan(five_user, ASYMPTOTIC, seed=0)
        emitted = [record for record in build.builds if record.stage.total]
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

    def test_merge_that_drops_the_stage_rows_fails_certification(self, five_user, monkeypatch):
        merge = multistage.merge_super_user

        def silent_stage(system, subset, rates):
            return merge(system, subset, RateVector.zeros(system.ground))

        monkeypatch.setattr(multistage, "merge_super_user", silent_stage)
        with pytest.raises(CertificationError, match="left a minimum sum-rate"):
            build_plan(five_user, ASYMPTOTIC)

    def test_seed_only_changes_the_recorded_seed(self, five_user):
        # planning draws nothing; the seed is only recorded for the simulator
        one = plan_multistage(five_user, ASYMPTOTIC, seed=0).to_dict()
        two = plan_multistage(five_user, ASYMPTOTIC, seed=99).to_dict()
        one.pop("seed"), two.pop("seed")
        assert one == two


# Six users, 33 packets: (packet id, holders).  Ids are kept as drawn
# because their sorted order lays out the chunk columns.  At plan seed
# 2071639918 a random draw of one stage's rows hands every member the
# group's span but leaves an outsider short, so a merged system built
# from those rows has a minimum sum-rate one chunk above the current one
# less the stage total.
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


class TestOutsiderShortfall:
    def test_plan_totals_the_minimum_and_decodes(self):
        users = (1, 2, 3, 4, 5, 6)
        possession = {
            u: [packet for packet, holders in OUTSIDER_SHORTFALL_PACKETS if str(u) in holders]
            for u in users
        }
        source = PacketSource(GroundSet(users), possession)
        plan = plan_multistage(source, ASYMPTOTIC, seed=OUTSIDER_SHORTFALL_SEED)
        assert plan.total_rates.total == min_sum_rate(source, None, ASYMPTOTIC).value
        assert execute_plan(source, plan).ok

    def test_bystander_keeps_its_generic_rank(self, source_corpus):
        # User 5 holds 8 packets and hears the one row user 4 sends in
        # stage {1,4}, which generic rows make its 9th; a draw over GF(59)
        # that left it at 8 steered the plan to {1,4} -> {2,5} -> {1,2,4,5,6}.
        source = source_corpus[43]
        ground = source.ground
        build = build_plan(source, ASYMPTOTIC, seed=53)
        assert build.builds[1].system.source.entropy([5]) == source.entropy([5]) + 1 == 9
        plan = build.plan
        assert [stage.target for stage in plan.stages] == [
            ground.mask([1, 4]),
            ground.mask([1, 4, 5]),
            ground.full_mask,
        ]
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

    def test_true_in_a_target_is_refused(self, tmp_path):
        # it was read as the user labelled "True"
        stage = {"target": [True, "b"], "rates": {"True": "1"}}
        data = {"model": ASYMPTOTIC, "users": ["True", "b"], "chunk_factor": 1,
                "field_order": 5, "seed": 0, "stages": [stage]}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError, match="stage 0 targets must be strings, numbers or null"):
            load_plan(path)
        stage["target"] = ["True", "b"]
        path.write_text(json.dumps(data))
        assert load_plan(path).stages[0].target == 0b11

    def test_colliding_labels_refused_both_ways(self, five_user, tmp_path):
        plan = StagePlan(GroundSet((1, "1")), ASYMPTOTIC, (), 2, 0)
        path = tmp_path / "plan.json"
        path.write_text("kept")
        with pytest.raises(FormatError, match="collide as '1'"):
            dump_plan(plan, path)
        assert path.read_text() == "kept"
        data = plan_multistage(five_user, ASYMPTOTIC).to_dict()
        data["users"] = [1, "1", 3, 4, 5]
        with pytest.raises(FormatError, match="collide as '1'"):
            StagePlan.from_dict(data)

    @pytest.mark.parametrize("label", [(1, 2), frozenset({1})])
    def test_labels_json_cannot_hold_refused(self, label, tmp_path):
        plan = StagePlan(GroundSet((label, 3)), ASYMPTOTIC, (), 2, 0)
        path = tmp_path / "plan.json"
        path.write_text("kept")
        with pytest.raises(FormatError, match="must be strings, numbers or null"):
            dump_plan(plan, path)
        assert path.read_text() == "kept"

    def test_fraction_rates_survive_json(self, five_user):
        plan = plan_multistage(five_user, ASYMPTOTIC)
        data = json.loads(json.dumps(plan.to_dict()))
        loaded = StagePlan.from_dict(data)
        assert loaded.stages[2].rates.rate(1) == Fraction(1, 2)


class TestPlanRelationsAtScale:
    """At 9 to 12 users, where no oracle reaches: a packet every user
    holds leaves every stage as it is, splitting every packet into k
    pieces keeps the targets and multiplies every rate and every merged
    table by k (asymptotic model), and relabelling the users keeps the
    plan total."""

    @staticmethod
    def stages(plan) -> list:
        """Each stage's target as a set of labels, with its rates by label."""
        labels = plan.ground.labels_of
        return [(frozenset(labels(stage.target)),
                 {label: stage.rates.rate(label) for label in labels(stage.target)})
                for stage in plan.stages]

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_relations(self, n):
        source = random_packet_source(random.Random(n), n, 2 * n)
        labels = list(source.ground.labels)
        random.Random(n).shuffle(labels)
        for model in (ASYMPTOTIC, NON_ASYMPTOTIC):
            plan = plan_multistage(source, model)
            want = self.stages(plan)
            assert self.stages(plan_multistage(with_shared_packet(source), model)) == want
            relabelled = plan_multistage(reorder(source, labels), model)
            assert relabelled.total_rates.total == plan.total_rates.total
        base = build_plan(source)
        for pieces in (2, 3):
            split = build_plan(with_split_packets(source, pieces))
            assert self.stages(split.plan) == [
                (target, {label: pieces * rate for label, rate in rates.items()})
                for target, rates in self.stages(base.plan)
            ]
            assert len(split.builds) == len(base.builds)
            for k, (one, many) in enumerate(zip(base.builds, split.builds)):
                assert many.system.label_map == one.system.label_map
                want = [pieces * h for h in self.in_packets(base, k)]
                assert self.in_packets(split, k) == want

    @staticmethod
    def in_packets(build, k: int) -> list:
        """Stage k's system's entropies in packets: its table counts
        chunks of the stages before it."""
        chunks = multistage.least_chunk_factor(record.stage for record in build.builds[:k])
        source = build.builds[k].system.source
        return [Fraction(h, source.denominator * chunks) for h in source.entropies]
