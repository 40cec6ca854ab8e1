"""Minimum sum-rates, achievability and complementary subsets, checked
against hand-computed values and an independent brute-force reference."""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soplan import (
    ASYMPTOTIC,
    NON_ASYMPTOTIC,
    CertificationError,
    DomainError,
    GroundSet,
    PacketSource,
    Partition,
    RateVector,
    TableSource,
    check_sw_achievable,
    dump_source,
    enumerate_complementary,
    is_complementary,
    min_sum_rate,
)
import soplan.cli as cli
from soplan.omniscience import MODELS, SwCheck, check_model, optimal_rate_vector
from soplan import omniscience, submodular
from soplan.sources import _SourceBase, reorder, source_from_dict
from tests.conftest import (
    enumerate_partitions,
    iter_submasks,
    make_five_user,
    models_of,
    random_packet_source,
    random_rational_table,
    reference_shortfall,
    scaled_table,
    walk_rates,
)


def ref_partitions(elements):
    """Reference set-partition generator, independent of the library."""
    if not elements:
        yield []
        return
    head, *rest = elements
    for partial in ref_partitions(rest):
        for k in range(len(partial)):
            yield partial[:k] + [partial[k] + [head]] + partial[k + 1:]
        yield [[head]] + partial


def ref_min_sum_rate(source, labels, model):
    """Direct evaluation of the partition bound from the definition."""
    ground = source.ground
    h_x = source.entropy(ground.mask(labels))
    best = None
    for partition in ref_partitions(list(labels)):
        if len(partition) < 2:
            continue
        deficit = sum(
            (h_x - source.entropy(ground.mask(block)) for block in partition),
            Fraction(0),
        )
        value = deficit / (len(partition) - 1)
        if best is None or value > best:
            best = value
    if model == NON_ASYMPTOTIC:
        best = Fraction(math.ceil(best))
    return best


def bound_of(source, blocks) -> Fraction:
    """The partition bound sum_C (H(X) - H(C)) / (|P| - 1), X the union."""
    blocks = tuple(blocks)
    union = 0
    for block in blocks:
        union |= block
    h_x = source.entropy(union)
    return sum((h_x - source.entropy(b) for b in blocks), Fraction(0)) / (len(blocks) - 1)


def bell_min_sum_rate(source, mask) -> Fraction:
    """R(X) by Bell-number enumeration of every partition of X."""
    return max(bound_of(source, p) for p in enumerate_partitions(mask) if len(p) >= 2)


def whole_packet_min_sum_rate(source) -> int:
    """The least sum of integer rates r with r(C) >= H(V) - H(V minus C)
    for every nonempty proper subset C of V, by brute force.  An integer
    r(C) meets that need exactly when it meets the need's ceiling, so
    the entropies need not be integers.

    No optimum gives a user i more than ceil(H({i})): lowering r_i to it
    keeps C = {i} met, as H(V) - H(V minus i) <= H({i}), and every larger
    C too, as r(C minus i) >= H(V) - H(V minus (C minus i)), which is at
    least H(V) - H(V minus C) - H({i}) by submodularity.  So each of the
    first n - 2 users ranges over [need({i}), ceil(H({i}))], and the last
    two, a and b, need r_a >= x, r_b >= y and r_a + r_b >= z, whose least
    sum is max(x + y, z)."""
    n, full = source.ground.size, source.ground.full_mask
    h = source.entropy
    need = [math.ceil(h(full) - h(full ^ c)) for c in range(full + 1)]
    a, b = 1 << (n - 2), 1 << (n - 1)
    best = None
    ranges = [range(need[1 << i], math.ceil(h(1 << i)) + 1) for i in range(n - 2)]
    for head in itertools.product(*ranges):
        sums = [0] * a  # r(c) for every c inside the first n - 2 users
        for c in range(1, a):
            low = c & -c
            sums[c] = sums[c ^ low] + head[low.bit_length() - 1]
        if any(sums[c] < need[c] for c in range(1, a)):
            continue
        x = max(need[c | a] - sums[c] for c in range(a))
        y = max(need[c | b] - sums[c] for c in range(a))
        z = max((need[c | a | b] - sums[c] for c in range(a - 1)), default=0)
        total = sums[a - 1] + max(x + y, z)
        best = total if best is None else min(best, total)
    return best


def ref_sw_check(source, mask, rates):
    """Achievability checked one subset at a time, the slow way."""
    h_x = source.entropy(mask)
    for c in iter_submasks(mask):
        if c in (0, mask):
            continue
        need = h_x - source.entropy(mask ^ c)
        have = rates.sum_over(c)
        if have < need:
            return SwCheck(False, c, need - have)
    return SwCheck(True, None, None)


def ref_complementary(source, labels, model):
    ground = source.ground
    h_v = source.entropy(ground.full_mask)
    h_x = source.entropy(ground.mask(labels))
    r_x = ref_min_sum_rate(source, labels, model)
    r_v = ref_min_sum_rate(source, list(ground.labels), model)
    return h_v - h_x + r_x <= r_v


class TestMinSumRate:
    def test_worked_example_both_models(self, five_user):
        asym = min_sum_rate(five_user, None, ASYMPTOTIC)
        assert asym.value == Fraction(13, 2)
        g = five_user.ground
        assert asym.maximizing_partition.blocks == (
            g.mask([1, 2, 5]),
            g.mask([3]),
            g.mask([4]),
        )
        non = min_sum_rate(five_user, None, NON_ASYMPTOTIC)
        assert non.value == 7
        assert non.maximizing_partition is None

    def test_maximizing_partition_attains_value(self, five_user):
        result = min_sum_rate(five_user)
        h_v = five_user.entropy(five_user.ground.full_mask)
        deficit = sum(
            (h_v - five_user.entropy(b) for b in result.maximizing_partition),
            Fraction(0),
        )
        assert deficit / (len(result.maximizing_partition) - 1) == result.value

    def test_proper_subset(self, five_user):
        assert min_sum_rate(five_user, [1, 2]).value == 2
        # best split of {1,2,5} is {1,2} | {5}: (9-8) + (9-5) = 5
        assert min_sum_rate(five_user, [1, 2, 5]).value == 5

    def test_cyclic_triple(self, cyclic_triple):
        assert min_sum_rate(cyclic_triple).value == Fraction(3, 2)
        assert min_sum_rate(cyclic_triple, None, NON_ASYMPTOTIC).value == 2

    def test_independent_triple(self, independent_triple):
        assert min_sum_rate(independent_triple).value == 3
        assert min_sum_rate(independent_triple, None, NON_ASYMPTOTIC).value == 3

    def test_identical_pair_needs_nothing(self, identical_pair):
        assert min_sum_rate(identical_pair).value == 0

    def test_small_subsets_rejected(self, five_user):
        with pytest.raises(DomainError):
            min_sum_rate(five_user, [1])
        with pytest.raises(DomainError):
            min_sum_rate(five_user, 0)

    def test_unknown_model_rejected(self, five_user):
        with pytest.raises(DomainError):
            min_sum_rate(five_user, None, "sideways")
        with pytest.raises(DomainError):
            check_model("asymptotic ")

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_reference_on_random_sources(self, rng):
        source = random_packet_source(rng, 4, rng.randint(4, 9))
        for model in (ASYMPTOTIC, NON_ASYMPTOTIC):
            assert min_sum_rate(source, None, model).value == ref_min_sum_rate(
                source, list(source.ground.labels), model
            )

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_ceiling_relation(self, rng):
        source = random_packet_source(rng, rng.randint(3, 5), rng.randint(3, 10))
        asym = min_sum_rate(source, None, ASYMPTOTIC).value
        non = min_sum_rate(source, None, NON_ASYMPTOTIC).value
        assert non == math.ceil(asym)


class TestWholePacketOracle:
    """The non-asymptotic minimum sum-rate of V against the brute force
    over integer rate vectors, which takes no ceiling of R and runs no
    sweep."""

    @staticmethod
    def sources(make, count):
        for seed in range(count):
            rng = random.Random(seed)
            n_users = rng.randint(2, 4)
            yield make(rng, n_users, rng.randint(n_users, 2 * n_users))

    def test_packet_sources(self):
        for source in self.sources(random_packet_source, 150):
            assert min_sum_rate(source, None, NON_ASYMPTOTIC).value == whole_packet_min_sum_rate(source)

    def test_scaled_tables(self):
        for table in self.sources(random_rational_table, 40):
            source = scaled_table(table)
            assert min_sum_rate(source, None, NON_ASYMPTOTIC).value == whole_packet_min_sum_rate(source)

    def test_fractional_tables_are_refused(self):
        """On fractional entropies the whole-packet minimum can exceed
        the ceiling of R, so the model refuses them: two independent
        users of entropy 5/4 each need 2 packets each, 4 in all, above
        the ceiling 3 of R = 5/2."""
        table = TableSource(GroundSet(("x", "y")), {0: 0, 1: "5/4", 2: "5/4", 3: "5/2"})
        assert (math.ceil(min_sum_rate(table).value), whole_packet_min_sum_rate(table)) == (3, 4)
        above = 0
        for source in self.sources(random_rational_table, 40):
            if not source.integral:
                with pytest.raises(DomainError, match="needs integer entropies"):
                    min_sum_rate(source, None, NON_ASYMPTOTIC)
                above += whole_packet_min_sum_rate(source) > math.ceil(min_sum_rate(source).value)
        assert above > 0


class TestSweepAgainstBellOracle:
    """The sweep-based minimum sum-rate against Bell-number enumeration."""

    @staticmethod
    def assert_matches_oracle(source, mask):
        want = bell_min_sum_rate(source, mask)
        asym = min_sum_rate(source, mask, ASYMPTOTIC)
        assert asym.value == want
        partition = asym.maximizing_partition
        assert partition.union == mask and len(partition) >= 2
        assert bound_of(source, partition) == want
        assert asym.rates.domain == mask and asym.rates.total == want
        assert check_sw_achievable(source, mask, asym.rates).ok
        if not source.integral:
            with pytest.raises(DomainError, match="needs integer entropies"):
                min_sum_rate(source, mask, NON_ASYMPTOTIC)
            return
        integer = min_sum_rate(source, mask, NON_ASYMPTOTIC)
        assert integer.value == math.ceil(want)
        assert integer.rates.domain == mask and integer.rates.total == integer.value
        assert check_sw_achievable(source, mask, integer.rates).ok
        assert all(v.denominator == 1 for v in integer.rates.values)

    def test_corpus_every_subset(self, source_corpus):
        for source in source_corpus:
            for mask in range(3, source.ground.full_mask + 1):
                if mask.bit_count() >= 2:
                    self.assert_matches_oracle(source, mask)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_rational_tables(self, rng):
        """A rational table, which the non-asymptotic model refuses, and
        the same table scaled by its D, which it takes."""
        table = random_rational_table(rng, rng.randint(2, 6), rng.randint(2, 10))
        for source in (table, scaled_table(table)):
            for mask in range(3, source.ground.full_mask + 1):
                if mask.bit_count() >= 2:
                    self.assert_matches_oracle(source, mask)

    def test_fourteen_users_certify(self):
        source = random_packet_source(random.Random(14), 14, 40)
        result = min_sum_rate(source)
        full = source.ground.full_mask
        assert result.rates.total == result.value
        assert check_sw_achievable(source, full, result.rates).ok
        assert result.maximizing_partition.union == full
        assert bound_of(source, result.maximizing_partition) == result.value

    def test_stalled_alpha_raises(self, five_user, monkeypatch):
        # A sweep that never reaches alpha but records no better partition.
        real = omniscience.run_rate_update

        def stalled(source, shift, early_exit=True, within=None):
            run = real(source, shift, early_exit, within)
            singletons = Partition(tuple(1 << pos for pos in range(5)))
            zero_rates = ((0,) * 5,)
            return type(run)(None, None, zero_rates, 1, 0, singletons)

        monkeypatch.setattr(omniscience, "run_rate_update", stalled)
        with pytest.raises(CertificationError, match="does not bound R above"):
            min_sum_rate(five_user)

    def test_broken_witness_raises(self, five_user, monkeypatch):
        monkeypatch.setattr(_SourceBase, "shortfall", lambda *args: (1, 1))
        with pytest.raises(CertificationError, match="exceed f"):
            min_sum_rate(five_user)

    def test_ceiling_without_witness_raises(self, cyclic_triple, monkeypatch):
        # R(V) = 3/2 when each of three users holds two of three packets,
        # and the sweep at the ceiling 2 must reach it to give the
        # non-asymptotic witness
        assert min_sum_rate(cyclic_triple).value == Fraction(3, 2)
        monkeypatch.setattr(omniscience, "_witnessed_verdict", lambda *args: False)
        with pytest.raises(CertificationError, match="ceiling 2 of R = 3/2 gives no witness"):
            min_sum_rate(cyclic_triple, None, NON_ASYMPTOTIC)


def bell_fundamental_partition(source, mask) -> tuple:
    """``(R(X), the finest partition whose bound is R(X))`` by one pass
    of Bell-number enumeration.  The maximizers form a lattice, so the
    finest is the one with the most blocks."""
    best = finest = None
    for partition in enumerate_partitions(mask):
        if len(partition) < 2:
            continue
        value = bound_of(source, partition)
        if best is None or value > best or value == best and len(partition) > len(finest):
            best, finest = value, partition
    return best, finest


class TestFundamentalPartition:
    """``maximizing_partition`` is the fundamental partition: the finest
    partition that attains R(X), which the accepting sweep reads off its
    minimal minimizers."""

    @staticmethod
    def assert_finest(source, mask):
        value, finest = bell_fundamental_partition(source, mask)
        result = min_sum_rate(source, mask)
        assert (result.value, result.maximizing_partition) == (value, finest)

    def test_corpus_v(self, source_corpus):
        for source in source_corpus:
            self.assert_finest(source, source.ground.full_mask)

    def test_corpus_subsets(self, source_corpus):
        for source in source_corpus[::5]:
            for mask in range(3, source.ground.full_mask + 1):
                if mask.bit_count() > 1:
                    self.assert_finest(source, mask)

    def test_rational_tables(self):
        rng = random.Random(8)
        for n in range(3, 8):
            for _ in range(4):
                source = random_rational_table(rng, n, rng.randint(n, 2 * n))
                self.assert_finest(source, source.ground.full_mask)


class TestSweepCount:
    """The sweep starts at the larger of the singleton and best-bipartition
    bounds and reads the fundamental partition off the accepting sweep,
    so no sweep runs below R(X) only to find that partition."""

    @staticmethod
    def sweeps(monkeypatch, source, model=ASYMPTOTIC) -> int:
        calls = []
        real = omniscience.run_rate_update

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(omniscience, "run_rate_update", counted)
        min_sum_rate(source, None, model)
        return len(calls)

    def test_five_user(self, monkeypatch):
        # the best split's bound 20 - 14 = 6 beats the singletons' 23/4
        # and falls short of R = 13/2; the non-asymptotic ceiling 7 adds
        # a sweep
        assert self.sweeps(monkeypatch, make_five_user()) == 2
        assert self.sweeps(monkeypatch, make_five_user(), NON_ASYMPTOTIC) == 3

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_one_sweep_at_the_best_split(self, n, monkeypatch):
        source = random_packet_source(random.Random(n), n, 2 * n)
        assert self.sweeps(monkeypatch, source) == 1


class TestAcceptingPartitionCertified:
    """The accepting sweep's finest tight partition is certified like
    any witness: one block, or a bound other than the value, raises
    :class:`CertificationError`, which the CLI maps to exit 3."""

    @staticmethod
    def replace_finest(monkeypatch, blocks_of):
        monkeypatch.setattr(
            submodular.UpdateRun, "finest_partition",
            property(lambda run: Partition(blocks_of(run))),
        )

    def test_one_block_raises(self, five_user, monkeypatch):
        self.replace_finest(monkeypatch, lambda run: [five_user.ground.full_mask])
        with pytest.raises(CertificationError, match="does not attain 13/2"):
            min_sum_rate(five_user)

    def test_other_bound_raises(self, five_user, monkeypatch):
        # the singletons bound 23/4, not R = 13/2
        self.replace_finest(monkeypatch, lambda run: [1 << pos for pos in range(5)])
        with pytest.raises(CertificationError, match="does not attain 13/2"):
            min_sum_rate(five_user)

    def test_exit_3(self, five_user, monkeypatch, tmp_path, capsys):
        path = tmp_path / "five.json"
        dump_source(five_user, path)
        self.replace_finest(monkeypatch, lambda run: [five_user.ground.full_mask])
        assert cli.main(["minrate", str(path)]) == 3
        assert "does not attain 13/2" in capsys.readouterr().err


class TestSwAchievability:
    def test_optimal_vector_passes(self, five_user):
        g = five_user.ground
        rates = RateVector.from_map(
            g,
            {1: Fraction(9, 2), 3: Fraction(1, 2), 4: Fraction(1, 2), 5: 1},
        )
        assert check_sw_achievable(five_user, g.full_mask, rates).ok

    def test_all_zero_vector_fails_at_first_singleton(self, five_user):
        g = five_user.ground
        zero = RateVector.zeros(g)
        check = check_sw_achievable(five_user, g.full_mask, zero)
        assert not check
        assert check.violating == g.mask([1])
        assert check.deficit == 1  # H(V) - H({2,3,4,5}) = 10 - 9

    def test_short_total_fails(self, five_user):
        g = five_user.ground
        rates = RateVector.from_map(g, {label: 1 for label in g.labels})
        # total 5 < 13/2, so some constraint must break
        assert not check_sw_achievable(five_user, g.full_mask, rates).ok

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_per_subset_reference(self, rng):
        source = random_packet_source(rng, 5, rng.randint(5, 10))
        mask = rng.choice([m for m in range(32) if m.bit_count() >= 2])
        values = {
            label: Fraction(rng.randint(-1, 8), 2)
            for pos, label in enumerate(source.ground.labels)
            if mask >> pos & 1
        }
        rates = RateVector.from_map(source.ground, values, domain=mask)
        assert check_sw_achievable(source, mask, rates) == ref_sw_check(source, mask, rates)

    def test_local_subset_check(self, five_user):
        g = five_user.ground
        rates = RateVector.from_map(g, {1: 2}, domain=[1, 2])
        assert check_sw_achievable(five_user, [1, 2], rates).ok
        with pytest.raises(DomainError):
            check_sw_achievable(five_user, [1], rates)
        with pytest.raises(DomainError):
            check_sw_achievable(five_user, [1, 3], rates)


class TestShortfallAtV:
    """At X = V, ``shortfall`` decides with one min over the rate sums
    and the table read in mirrored order, and names the failing subset
    from the same list; the subset-by-subset loop of
    ``tests/conftest.reference_shortfall`` is its oracle."""

    @staticmethod
    def rate_vectors(source, rng):
        """``(rates, weight)`` pairs on the scale weight*D: R(V)'s witness
        at weight 1 (rounded down when that scale cannot hold it), at the
        lcm L of its denominators and at 3L, each as it is and with one
        or two entries nudged down."""
        witness = min_sum_rate(source).rates.values
        lcm = math.lcm(*(value.denominator for value in witness))
        for weight in sorted({1, lcm, 3 * lcm}):
            rates = [math.floor(value * weight * source.denominator) for value in witness]
            yield rates, weight
            for count in (1, 2):
                nudged = list(rates)
                for pos in rng.sample(range(len(rates)), count):
                    nudged[pos] -= rng.randint(1, 3)
                yield nudged, weight

    def assert_like_the_loop(self, sources, rng) -> Counter:
        verdicts = Counter()
        for source in sources:
            full = source.ground.full_mask
            for rates, weight in self.rate_vectors(source, rng):
                short = source.shortfall(full, rates, weight)
                assert short == reference_shortfall(source, full, rates, weight)
                verdicts[short is None, weight > 1] += 1
        return verdicts

    def test_corpus(self, source_corpus):
        verdicts = self.assert_like_the_loop(source_corpus, random.Random(5))
        assert all(verdicts[ok, heavy] for ok in (True, False) for heavy in (True, False))

    def test_rational_tables(self):
        rng = random.Random(8)
        tables = [random_rational_table(rng, n, 2 * n) for n in (2, 3, 4, 5, 6, 7) for _ in range(4)]
        verdicts = self.assert_like_the_loop(tables, rng)
        assert verdicts[True, True] and verdicts[False, True]

    def test_v_walks_no_submasks(self, source_corpus, monkeypatch):
        # at V both the verdict and the first failing C are read off the
        # one list of mirrored sums, at every weight
        def no_walk(*args):
            raise AssertionError("the submask loop ran at V")

        rng = random.Random(6)
        cases = [
            (source, rates, weight, reference_shortfall(source, source.ground.full_mask, rates, weight))
            for source in source_corpus[::5]
            for rates, weight in self.rate_vectors(source, rng)
        ]
        monkeypatch.setattr("soplan.sources.submask_sums", no_walk)
        for source, rates, weight, want in cases:
            assert source.shortfall(source.ground.full_mask, rates, weight) == want
        assert {(want is None, weight > 1) for _, _, weight, want in cases} == {
            (True, True), (True, False), (False, True), (False, False)
        }


class TestComplementary:
    def test_directly_checked_subsets(self, five_user):
        assert is_complementary(five_user, [1, 2], ASYMPTOTIC)
        assert is_complementary(five_user, [1, 5], ASYMPTOTIC)
        assert not is_complementary(five_user, [3, 4], ASYMPTOTIC)
        assert is_complementary(five_user, [1, 2], NON_ASYMPTOTIC)

    def test_degenerate_subsets_rejected(self, five_user):
        with pytest.raises(DomainError):
            is_complementary(five_user, [2])
        with pytest.raises(DomainError):
            is_complementary(five_user, five_user.ground.full_mask)

    def test_enumeration_golden_asymptotic(self, five_user):
        g = five_user.ground
        subsets = enumerate_complementary(five_user, ASYMPTOTIC, verify=True)
        assert subsets == (
            g.mask([1, 2]),
            g.mask([1, 5]),
            g.mask([1, 2, 5]),
            g.mask([1, 3, 4, 5]),
        )

    def test_enumeration_non_asymptotic_against_reference(self, five_user):
        subsets = enumerate_complementary(five_user, NON_ASYMPTOTIC, verify=True)
        assert len(subsets) == 18
        g = five_user.ground
        expected = tuple(
            mask
            for mask in range(3, g.full_mask)
            if mask.bit_count() >= 2
            and ref_complementary(five_user, list(g.labels_of(mask)), NON_ASYMPTOTIC)
        )
        assert subsets == expected

    def test_cyclic_triple_has_none(self, cyclic_triple):
        assert enumerate_complementary(cyclic_triple, ASYMPTOTIC, verify=True) == ()

    def test_independent_triple_has_all_pairs(self, independent_triple):
        g = independent_triple.ground
        subsets = enumerate_complementary(independent_triple, ASYMPTOTIC, verify=True)
        assert subsets == (g.mask([1, 2]), g.mask([1, 3]), g.mask([2, 3]))

    @settings(max_examples=15, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_enumeration_matches_reference(self, rng):
        """Packet sources, rational tables and the same tables scaled by
        their D, verified or not, in every model that takes them: the
        non-asymptotic one needs integer entropies."""
        packet = random_packet_source(rng, 4, rng.randint(4, 8))
        table = random_rational_table(rng, 4, rng.randint(2, 8))
        for source in (packet, table, scaled_table(table)):
            g = source.ground
            for model in models_of(source):
                expected = tuple(
                    mask
                    for mask in range(3, g.full_mask)
                    if mask.bit_count() >= 2
                    and ref_complementary(source, list(g.labels_of(mask)), model)
                )
                for verify in (False, True):
                    assert enumerate_complementary(source, model, verify) == expected

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(min_value=4, max_value=7))
    def test_non_asymptotic_verify_on_scaled_tables(self, rng, n_users):
        """A rational table scaled by its D has integer entropies, so the
        shift s = ceil(R(V)) - H(V) and every gamma_X = s + H(X) are
        integers, and ``verify`` asks the reference at s alone; the list
        is the Bell oracle's.  The fractional table itself is refused."""
        table = random_rational_table(rng, n_users, 2 * n_users)
        if not table.integral:
            with pytest.raises(DomainError, match="needs integer entropies"):
                enumerate_complementary(table, NON_ASYMPTOTIC, verify=True)
        source = scaled_table(table)
        g = source.ground
        s = math.ceil(bell_min_sum_rate(source, g.full_mask)) - source.entropy(g.full_mask)
        assert s.denominator == 1
        testable = [m for m in range(3, g.full_mask) if m.bit_count() >= 2]
        expected = tuple(m for m in testable if bell_min_sum_rate(source, m) <= s + source.entropy(m))
        assert enumerate_complementary(source, NON_ASYMPTOTIC, verify=True) == expected


class TestEnumerationWitnesses:
    """Every verdict of the shared prefix-trie pass is checked against
    its witness, so a pass that lies fails loudly."""

    @staticmethod
    def tamper(monkeypatch, edit):
        """Replace the pass by one that hands the first proper subset of
        at least two users for which ``edit`` returns a top rate through
        with that rate.  The walk itself goes on with its own rate."""
        real = omniscience._prefix_trie_sweeps

        def tampered(source, shift):
            done = False
            for mask, stepper, rate, blocks in real(source, shift):
                if not done and mask.bit_count() >= 2 and mask != source.ground.full_mask:
                    changed = edit(source, Fraction(shift), mask, stepper.sums[-1], rate)
                    if changed is not None:
                        done, rate = True, changed
                yield mask, stepper, rate, blocks

        monkeypatch.setattr(omniscience, "_prefix_trie_sweeps", tampered)

    @staticmethod
    def own(source, shift, mask) -> int:
        """f(X) = shift + H(X) on the scale of the sweep's rates."""
        return shift.numerator * source.denominator + shift.denominator * source.entropies[mask]

    def test_listing_a_subset_without_a_witness_raises(self, five_user, monkeypatch):
        # Lift the top rate of a subset the sweep leaves out until the
        # rates reach f(X): the achievability check must reject them.
        def lift(source, shift, mask, parent_sum, rate):
            short = self.own(source, shift, mask) - parent_sum - rate
            return None if short == 0 else rate + short

        self.tamper(monkeypatch, lift)
        with pytest.raises(CertificationError, match="exceed f"):
            enumerate_complementary(five_user)

    def test_dropping_a_listed_subset_raises(self, five_user, monkeypatch):
        # Nudge the top rate of a listed subset down: its one-block
        # partition bounds nothing, so the omission has no witness.
        def nudge(source, shift, mask, parent_sum, rate):
            return rate - 1 if parent_sum + rate == self.own(source, shift, mask) else None

        self.tamper(monkeypatch, nudge)
        with pytest.raises(CertificationError, match="does not bound"):
            enumerate_complementary(five_user, NON_ASYMPTOTIC)

    @pytest.mark.parametrize("lifted_node,descendant", [([1], [1, 2]), ([1, 3, 4], [1, 3, 4, 5])])
    def test_an_unlisted_ancestor_is_checked(self, five_user, monkeypatch, lifted_node, descendant):
        # A walk whose step at X finishes X's top rate one unit high: X
        # stays unlisted, and its descendant Y stays listed with every
        # set that holds Y's top within f.  Y's rates break
        # r({t}) <= f({t}) for X's top t, which only the check at X sees.
        ground = five_user.ground
        x, y = ground.mask(lifted_node), ground.mask(descendant)
        top = 1 << (x.bit_length() - 1)
        assert x not in enumerate_complementary(five_user) and y in enumerate_complementary(five_user)
        shift = min_sum_rate(five_user).value - five_user.entropy(ground.full_mask)
        base = shift.numerator * five_user.denominator
        real = submodular.minimize_over_prefix

        def lifted(table, weight, step_top, submasks, rate_sums, whole):
            step = real(table, weight, step_top, submasks, rate_sums, whole)
            if whole == x and step_top == top:
                step.min_value += 1
            return step

        monkeypatch.setattr(submodular, "minimize_over_prefix", lifted)
        nodes = {mask: (stepper, rate) for mask, stepper, rate, _ in
                 omniscience._prefix_trie_sweeps(five_user, shift)}
        stepper, rate = nodes[x]
        assert stepper.sums[-1] + rate != self.own(five_user, shift, x)
        assert stepper.first_excess(top, rate, base) == top
        stepper, rate = nodes[y]
        assert stepper.sums[-1] + rate == self.own(five_user, shift, y)
        assert stepper.first_excess(1 << (y.bit_length() - 1), rate, base) is None
        message = f"sweep over {ground.format(x)} exceed f on {ground.format(top)}"
        with pytest.raises(CertificationError, match=re.escape(message)):
            enumerate_complementary(five_user)

    @staticmethod
    def skip_one_listed(monkeypatch, source):
        """Replace the pass by one that hides the smallest complementary
        subset of ``source``; returns that subset."""
        hidden = enumerate_complementary(source)[0]
        real = omniscience._prefix_trie_sweeps

        def skipping(source, shift):
            for swept in real(source, shift):
                if swept[0] != hidden:
                    yield swept

        monkeypatch.setattr(omniscience, "_prefix_trie_sweeps", skipping)
        return hidden

    def test_disagreeing_truncations_raise(self, five_user, monkeypatch):
        # The pass alone cannot see a subset it never sweeps; the
        # per-subset truncations of --verify list it and disagree.
        hidden = self.skip_one_listed(monkeypatch, five_user)
        assert hidden not in enumerate_complementary(five_user)
        with pytest.raises(CertificationError, match=r"subsets disagree: only the shared "
                           r"sweep: \[\]; only the per-subset truncation: \['\{1,2\}'\]"):
            enumerate_complementary(five_user, verify=True)

    def test_disagreeing_truncations_exit_3(self, five_user, monkeypatch, tmp_path, capsys):
        path = tmp_path / "five.json"
        dump_source(five_user, path)
        self.skip_one_listed(monkeypatch, five_user)
        assert cli.main(["enumerate", str(path), "--verify"]) == 3
        assert "subsets disagree" in capsys.readouterr().err

    @pytest.mark.parametrize("model", MODELS)
    def test_unlisted_fundamental_block_raises(self, five_user, monkeypatch, model):
        # {1,2,5}, the one block of R(V)'s fundamental partition with two
        # users or more, is complementary in both models on integer
        # entropies; a pass that never sweeps it has no verdict to
        # check, and the cross-check still sees it
        block = five_user.ground.mask([1, 2, 5])
        assert block in min_sum_rate(five_user).maximizing_partition
        real = omniscience._prefix_trie_sweeps

        def skipping(source, shift):
            return (swept for swept in real(source, shift) if swept[0] != block)

        monkeypatch.setattr(omniscience, "_prefix_trie_sweeps", skipping)
        with pytest.raises(CertificationError, match=r"block \{1,2,5\} of the fundamental"):
            enumerate_complementary(five_user, model)

    def test_scaled_table_lists_the_block(self):
        # {1,2} | {3} is the fundamental partition at R(V) = 39/20.  The
        # non-asymptotic model refuses the fractional table; scaled by
        # D = 20 its R(V) is 39, and the cross-check that {1,2} is listed
        # runs in whole packets too
        entropy = {"1": "3/4", "2": "5/4", "1,2": "5/4", "3": "17/10",
                   "1,3": "49/20", "2,3": "49/20", "1,2,3": "49/20"}
        table = source_from_dict({"model": "table", "users": [1, 2, 3], "entropy": entropy})
        assert not table.integral
        assert 3 in min_sum_rate(table).maximizing_partition
        assert enumerate_complementary(table) == (3, 6)
        with pytest.raises(DomainError, match="needs integer entropies"):
            enumerate_complementary(table, NON_ASYMPTOTIC, verify=True)
        scaled = scaled_table(table)
        assert min_sum_rate(scaled, None, NON_ASYMPTOTIC).value == 39
        assert enumerate_complementary(scaled, NON_ASYMPTOTIC, verify=True) == (3, 6)

    def test_shortfall_only_for_v_asymptotically(self, source_corpus, monkeypatch):
        # the walk checks its own yes-witnesses; in the asymptotic model
        # only the sweeps of R(V) ask ``shortfall``, always at V
        asked = []
        real = _SourceBase.shortfall

        def recorded(source, mask, rates, weight):
            asked.append(mask == source.ground.full_mask)
            return real(source, mask, rates, weight)

        monkeypatch.setattr(_SourceBase, "shortfall", recorded)
        listed = 0
        for source in source_corpus[::5]:
            for verify in (False, True):
                fresh = type(source)(source.ground, source.possession)  # nothing cached
                listed += len(enumerate_complementary(fresh, ASYMPTOTIC, verify))
        assert listed and asked and all(asked)

    def test_minimum_sum_rate_of_v_only(self, five_user, monkeypatch):
        calls = []
        real = omniscience.min_sum_rate

        def counted(source, subset=None, model=ASYMPTOTIC):
            calls.append(subset)
            return real(source, subset, model)

        monkeypatch.setattr(omniscience, "min_sum_rate", counted)
        for model in (ASYMPTOTIC, NON_ASYMPTOTIC):
            for verify in (False, True):
                enumerate_complementary(five_user, model, verify)
        assert calls == [None] * 4


def rational_five() -> TableSource:
    """A 5-user rational table with fractional entropies."""
    return random_rational_table(random.Random(0), 5, 10)


class TestIntVerdicts:
    """``enumerate`` decides and verifies every verdict on ints on the
    scale w*D; these pin that arithmetic to the Fraction definitions."""

    @staticmethod
    def fraction_bound_exceeds(source, mask, blocks, threshold) -> bool:
        """The "no" witness from the definitions: the blocks partition X
        into at least two blocks whose partition bound exceeds ``threshold``."""
        try:
            partition = Partition(blocks)
        except DomainError:
            return False
        if len(partition) < 2 or partition.union != mask:
            return False
        return omniscience.partition_bound(source, partition) > threshold

    @staticmethod
    def finished_sweeps(source, model):
        """``(shift, mask, rates, blocks)`` for the sweeps whose verdicts
        ``enumerate`` checks in ``model``: the walk at s over each
        non-singleton proper subset."""
        full = source.ground.full_mask
        shift = min_sum_rate(source, None, model).value - source.entropy(full)
        for mask, stepper, rate, blocks in omniscience._prefix_trie_sweeps(source, shift):
            if mask.bit_count() < 2 or mask == full:
                continue
            yield shift, mask, walk_rates(source, mask, stepper, rate), blocks

    @staticmethod
    def in_model(make, model):
        """``make``, or in the non-asymptotic model for a table with a
        fractional entropy, the same table scaled by its D."""
        if model == NON_ASYMPTOTIC and not make().integral:
            return lambda: scaled_table(make())
        return make

    @classmethod
    def assert_no_witnesses_agree(cls, source) -> int:
        """At every unlisted subset, in each model that takes the source,
        the int inequality agrees with the Fraction bound: at
        shift + H(X), at the bound itself and one unit below it on the
        scale w*D.  Returns the number of unlisted verdicts checked."""
        checked = 0
        for model in models_of(source):
            for shift, mask, rates, blocks in cls.finished_sweeps(source, model):
                own = shift + source.entropy(mask)
                if sum(rates) == own * shift.denominator * source.denominator:
                    continue
                assert omniscience._witnessed_verdict(source, mask, shift, rates, blocks) is False
                checked += 1
                bound = bound_of(source, blocks)
                unit = Fraction(1, shift.denominator * source.denominator)
                for threshold in (own, bound, bound - unit):
                    scaled = threshold * source.denominator
                    got = omniscience._bound_exceeds(
                        source, mask, blocks, scaled.denominator, scaled.numerator
                    )
                    assert got == cls.fraction_bound_exceeds(source, mask, blocks, threshold)
                    assert got == (threshold != bound)
        return checked

    def test_no_witness_agrees_with_fractions_on_corpus(self, source_corpus):
        assert sum(map(self.assert_no_witnesses_agree, source_corpus)) > 1000

    def test_no_witness_agrees_with_fractions_on_rational_tables(self):
        rng = random.Random(37)
        tables = [random_rational_table(rng, rng.randint(4, 6), rng.randint(4, 10)) for _ in range(12)]
        assert sum(map(self.assert_no_witnesses_agree, tables + list(map(scaled_table, tables)))) > 100

    def test_malformed_no_witnesses_fail(self, five_user):
        # every partition bound of X = {1,2,3} exceeds -H(V)
        far = -five_user.entropy_scaled(five_user.ground.full_mask)
        for blocks in ([0b111], [0b011, 0b110], [0b001, 0b010], [0b001, 0b010, 0b100, 0],
                       [0b001, 0b010, 0b100, 0b1000], [0b001, 0b1010]):
            assert not omniscience._bound_exceeds(five_user, 0b111, blocks, 1, far)
        assert omniscience._bound_exceeds(five_user, 0b111, [0b001, 0b110], 1, far)

    def test_no_witness_must_partition_the_subset(self):
        """Blocks that bound R above the target but cover more than X
        witness nothing about X."""
        source = random_packet_source(random.Random(3), 5, 8)
        mask = 0b00111
        shift = min_sum_rate(source, mask).value - Fraction(1, 2) - source.entropy(mask)
        run = submodular.run_rate_update(source, shift, early_exit=False, within=mask)
        assert omniscience._witnessed_verdict(source, mask, shift, run.scaled[-1], run.blocks) is False
        singletons = [1 << pos for pos in range(5)]
        with pytest.raises(CertificationError, match="does not bound R above"):
            omniscience._witnessed_verdict(source, mask, shift, run.scaled[-1], singletons)

    @pytest.mark.parametrize("model", [ASYMPTOTIC, NON_ASYMPTOTIC])
    @pytest.mark.parametrize("make", [make_five_user, rational_five])
    def test_verify_catches_one_unit(self, make, model, monkeypatch):
        """One unit on the w*D scale of the reference table at a listed
        subset makes ``verify`` disagree, in either direction.  The
        non-asymptotic model takes the rational table scaled by its D."""
        make = self.in_model(make, model)
        listed = enumerate_complementary(make(), model)
        assert listed
        original = submodular._partition_minima
        for mask in listed:
            for delta in (-1, 1):
                def perturbed(src, shift, mask=mask, delta=delta):
                    best = original(src, shift)
                    best[mask] += delta
                    return best

                monkeypatch.setattr(submodular, "_partition_minima", perturbed)
                fresh = make()
                with pytest.raises(CertificationError, match="subsets disagree"):
                    enumerate_complementary(fresh, model, verify=True)
        monkeypatch.setattr(submodular, "_partition_minima", original)
        assert enumerate_complementary(make(), model, verify=True) == listed

    @pytest.mark.parametrize("model", [ASYMPTOTIC, NON_ASYMPTOTIC])
    @pytest.mark.parametrize("make", [make_five_user, rational_five])
    def test_verify_catches_one_unit_at_v(self, make, model, monkeypatch):
        """One unit on the w*D scale of the reference table at V, which
        no listed subset reads, fails ``verify``'s check that the
        reference's truncation at V is R(V), in either direction."""
        make = self.in_model(make, model)
        original = submodular._partition_minima
        for delta in (-1, 1):
            def perturbed(src, shift, delta=delta):
                best = original(src, shift)
                best[-1] += delta
                return best

            monkeypatch.setattr(submodular, "_partition_minima", perturbed)
            with pytest.raises(CertificationError, match="reference truncation at V"):
                enumerate_complementary(make(), model, verify=True)
        monkeypatch.setattr(submodular, "_partition_minima", original)
        assert enumerate_complementary(make(), model, verify=True)

    @pytest.mark.parametrize("make", [make_five_user, rational_five])
    def test_no_partition_beyond_min_sum_rate(self, make, monkeypatch):
        """``enumerate`` builds no Partition and asks no partition bound
        beyond those of the R(V) it computes, in whole packets on the
        rational table scaled by its D."""
        calls = Counter()
        bound, init = omniscience.partition_bound, Partition.__init__

        def counted_bound(*args):
            calls["partition_bound"] += 1
            return bound(*args)

        def counted_init(self, *args):
            calls["Partition"] += 1
            init(self, *args)

        monkeypatch.setattr(omniscience, "partition_bound", counted_bound)
        monkeypatch.setattr(Partition, "__init__", counted_init)
        for model in (ASYMPTOTIC, NON_ASYMPTOTIC):
            build = self.in_model(make, model)
            calls.clear()
            min_sum_rate(build(), None, model)
            want = dict(calls)
            assert want["partition_bound"] > 0 and want["Partition"] > 0
            for verify in (False, True):
                calls.clear()
                enumerate_complementary(build(), model, verify)
                assert calls == want, (model, verify)


class TestRelationsAtScale:
    """Relations that ``enumerate --verify`` must satisfy at 9 to 12
    users, where no oracle reaches: the family follows a relabelling of
    the users, and neither a packet held by every user nor splitting
    every packet in two changes it; the first leaves R(V) as it is and
    the second doubles it (asymptotic model).  On a table, D added to
    every nonempty entry is the shared packet and every entry doubled
    is the split."""

    @staticmethod
    def sources() -> list:
        packets = [random_packet_source(random.Random(n), n, 2 * n) for n in (9, 10, 12)]
        tables = [scaled_table(random_rational_table(random.Random(n), n, 2 * n)) for n in (9, 11)]
        return packets + tables

    @staticmethod
    def shared(source):
        if isinstance(source, TableSource):
            d, h = source.denominator, source.entropies
            return TableSource._from_ints(source.ground, [0] + [e + d for e in h[1:]], d)
        held = {label: set(ids) | {"shared"} for label, ids in source.possession.items()}
        return PacketSource(source.ground, held)

    @staticmethod
    def split(source):
        if isinstance(source, TableSource):
            return TableSource._from_ints(
                source.ground, [2 * e for e in source.entropies], source.denominator
            )
        held = {label: {f"{p}{half}" for p in ids for half in "ab"}
                for label, ids in source.possession.items()}
        return PacketSource(source.ground, held)

    @staticmethod
    def family(source, model) -> set:
        """The listed subsets as sets of labels, and R(V)."""
        ground = source.ground
        listed = enumerate_complementary(source, model, verify=True)
        return {frozenset(ground.labels_of(m)) for m in listed}, min_sum_rate(source, None, model).value

    def test_relations(self):
        for n, source in enumerate(self.sources()):
            labels = list(source.ground.labels)
            random.Random(n).shuffle(labels)
            got = {}
            for model in MODELS:
                got[model] = want = self.family(source, model)
                assert want[0]
                assert self.family(reorder(source, labels), model) == want
                assert self.family(self.shared(source), model) == want
            family, r_v = got[ASYMPTOTIC]
            assert self.family(self.split(source), ASYMPTOTIC) == (family, 2 * r_v)


class TestOptimalRateVector:
    def test_worked_example_asymptotic(self, five_user):
        rates = optimal_rate_vector(five_user, ASYMPTOTIC)
        assert rates.values == (
            Fraction(9, 2),
            Fraction(0),
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1),
        )

    def test_worked_example_non_asymptotic(self, five_user):
        rates = optimal_rate_vector(five_user, NON_ASYMPTOTIC)
        assert rates.values == (5, 0, 1, 1, 0)
        assert all(v.denominator == 1 for v in rates.values)

    def test_cyclic_triple_forced_rates(self, cyclic_triple):
        rates = optimal_rate_vector(cyclic_triple, ASYMPTOTIC)
        assert rates.values == (Fraction(1, 2),) * 3

    def test_cyclic_triple_integer_rates(self, cyclic_triple):
        rates = optimal_rate_vector(cyclic_triple, NON_ASYMPTOTIC)
        assert rates.total == 2
        assert all(v.denominator == 1 for v in rates.values)
        assert check_sw_achievable(cyclic_triple, 0b111, rates).ok

    def test_identical_pair(self, identical_pair):
        rates = optimal_rate_vector(identical_pair)
        assert rates.values == (0, 0)

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_always_certified(self, rng):
        source = random_packet_source(rng, rng.randint(3, 5), rng.randint(3, 9))
        for model in (ASYMPTOTIC, NON_ASYMPTOTIC):
            rates = optimal_rate_vector(source, model)
            assert rates.total == min_sum_rate(source, None, model).value
            assert check_sw_achievable(source, source.ground.full_mask, rates).ok
            if model == NON_ASYMPTOTIC:
                assert all(v.denominator == 1 for v in rates.values)
