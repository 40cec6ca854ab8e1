"""The alpha-parametrized function, its partition truncation, and the
prefix minimization and rate update that power the subset search.

The sweep takes f(X) = shift + H(X); ``shift = alpha - H(V)`` makes it
f#_alpha.  The helpers below evaluate f and g from Fraction entropies,
independently of the sweep's integer arithmetic."""

from __future__ import annotations

import inspect
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soplan import (
    DomainError,
    GroundSet,
    PacketSource,
    Partition,
    TableSource,
    enumerate_complementary,
    min_sum_rate,
)
from soplan.compsetso import alpha_lower_bound, comp_set_so
from soplan.core import bit_positions, subset_sums
from soplan import submodular
from soplan.submodular import (
    _prefix_trie_sweeps,
    dilworth_truncation,
    minimize_over_prefix,
    run_rate_update,
)
from tests.conftest import (
    enumerate_partitions,
    iter_submasks,
    make_five_user,
    models_of,
    random_packet_source,
    random_rational_table,
    reference_rate_update,
    scaled_table,
    snapshots,
    walk_rates,
)


def shift_of(source, alpha) -> Fraction:
    """The shift that turns f into f#_alpha."""
    return Fraction(alpha) - source.entropy(source.ground.full_mask)


def f_value(source, shift, mask) -> Fraction:
    return Fraction(0) if mask == 0 else shift + source.entropy(mask)


def g_value(source, shift, rates, candidate):
    total = sum(
        (rates[pos] for pos in range(source.ground.size) if candidate >> pos & 1),
        Fraction(0),
    )
    return f_value(source, shift, candidate) - total


def prefix_lists(top, whole, scaled) -> tuple:
    """The step's input, built by brute force: every submask of the
    prefix below ``top`` inside ``whole``, ascending, with its rate sum."""
    submasks = [sub for sub in range(top) if not sub & ~whole]
    sums = [sum(v for pos, v in enumerate(scaled) if sub >> pos & 1) for sub in submasks]
    return submasks, sums


def sweep_partition(source, shift, mask) -> Partition:
    """The tight partition of the completed sweep over ``mask``."""
    return run_rate_update(source, shift, early_exit=False, within=mask).partition


def step(source, shift, rates, position, within=None) -> tuple:
    """minimize_over_prefix on Fraction rates, scaled to ints for it;
    returns its result and the minimum of g it implies."""
    weight = math.lcm(*(Fraction(r).denominator for r in rates))
    scale = weight * source.denominator
    scaled = [int(r * scale) for r in rates]
    top = 1 << (position - 1)
    whole = source.ground.full_mask if within is None else source.ground.mask(within)
    submasks, sums = prefix_lists(top, whole, scaled)
    result = minimize_over_prefix(source.entropies, weight, top, submasks, sums, whole)
    return result, shift + Fraction(result.min_value - scaled[position - 1], scale)


class TestAlphaFunction:
    """f#_alpha as the sweep evaluates it."""

    def test_values_on_worked_example(self, five_user):
        shift = shift_of(five_user, Fraction(13, 2))
        # f on one user is its own truncation; f(empty) = 0 keeps the
        # rates outside the sweep's domain at 0
        run = run_rate_update(five_user, shift, early_exit=False, within=[1])
        assert run.rates == (Fraction(9, 2), 0, 0, 0, 0)
        assert dilworth_truncation(five_user, shift, [2]) == Fraction(5, 2)
        # alpha = 13/2 is R(V), so f(V) is its own truncation
        assert dilworth_truncation(five_user, shift, five_user.ground.full_mask) == Fraction(13, 2)

    def test_alpha_range_enforced(self, five_user):
        # the sweep takes any alpha: the sweeps behind R(X) and the
        # non-asymptotic witness shift it past H(V)
        for value in (Fraction(-1), Fraction(21, 2)):
            assert dilworth_truncation(five_user, shift_of(five_user, value), [1]) == value - 2


class TestDilworthTruncation:
    def test_complementary_subset_keeps_one_block(self, five_user):
        shift = shift_of(five_user, Fraction(13, 2))
        value = dilworth_truncation(five_user, shift, [1, 2])
        partition = sweep_partition(five_user, shift, [1, 2])
        assert value == f_value(five_user, shift, 0b11) == Fraction(9, 2)
        assert partition.blocks == (five_user.ground.mask([1, 2]),)

    def test_loose_subset_splits(self, five_user):
        shift = shift_of(five_user, Fraction(13, 2))
        value = dilworth_truncation(five_user, shift, [3, 4])
        partition = sweep_partition(five_user, shift, [3, 4])
        assert value == 1  # two singleton blocks at 1/2 each
        assert len(partition) == 2

    def test_full_set_truncation_equals_min_sum_rate(self, five_user):
        target = min_sum_rate(five_user).value
        shift = shift_of(five_user, target)
        value = dilworth_truncation(five_user, shift, five_user.ground.full_mask)
        partition = sweep_partition(five_user, shift, five_user.ground.full_mask)
        assert value == target
        assert partition.union == five_user.ground.full_mask

    def test_empty_subset_rejected(self, five_user):
        with pytest.raises(DomainError):
            dilworth_truncation(five_user, shift_of(five_user, 1), 0)

    def test_minimum_over_explicit_partitions(self, five_user):
        shift = shift_of(five_user, 4)
        mask = five_user.ground.mask([1, 3, 4])
        value = dilworth_truncation(five_user, shift, mask)
        explicit = min(
            sum((f_value(five_user, shift, b) for b in p), Fraction(0))
            for p in enumerate_partitions(mask)
        )
        assert value == explicit

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(min_value=0, max_value=6))
    def test_scaling_entropies_scales_the_truncation(self, rng, numerator):
        source = random_packet_source(rng, 4, 7)
        h_total = source.entropy(source.ground.full_mask)
        alpha = h_total * Fraction(numerator, 6)
        assert source.integral
        full, shift = source.ground.full_mask, shift_of(source, alpha)
        fast_value = dilworth_truncation(source, shift, full)
        fast_partition = sweep_partition(source, shift, full)
        # the same source with every entropy divided by 3: non-integral
        scaled = TableSource(
            source.ground,
            {
                mask: source.entropy(mask) / 3
                for mask in range(source.ground.full_mask + 1)
            },
            validate=False,
        )
        assert not scaled.integral or h_total == 0
        shift = shift_of(scaled, alpha / 3)
        slow_value = dilworth_truncation(scaled, shift, full)
        slow_partition = sweep_partition(scaled, shift, full)
        assert fast_value == slow_value * 3
        assert fast_partition.blocks == slow_partition.blocks


def bell_truncation(source, shift, mask) -> tuple:
    """The minimum block sum of f over every partition of ``mask`` and
    the first minimizing partition in enumeration order."""
    best = None
    for partition in enumerate_partitions(mask):
        total = sum((f_value(source, shift, b) for b in partition), Fraction(0))
        if best is None or total < best[0]:
            best = (total, partition)
    return best


class TestTruncationAgainstBellOracle:
    """The reference truncation and the sweep's against Bell-number
    enumeration: same value, and the sweep's recorded partition is the
    first minimizer."""

    @staticmethod
    def assert_matches_oracle(source, shift, mask):
        value = dilworth_truncation(source, shift, mask)
        run = run_rate_update(source, shift, early_exit=False, within=mask)
        want_value, want_partition = bell_truncation(source, shift, mask)
        assert value == want_value
        assert value == Fraction(sum(run.scaled[-1]), run.scale)
        assert run.partition.blocks == want_partition.blocks

    @staticmethod
    def model_shifts(source) -> list:
        """The shift at R(V) in each model that takes the source, which
        decides complementarity."""
        return [shift_of(source, min_sum_rate(source, None, model).value)
                for model in models_of(source)]

    def test_corpus_every_subset(self, source_corpus):
        for k, source in enumerate(source_corpus):
            # alpha = R(V) decides complementarity; the lower bound sits below it
            alpha = min_sum_rate(source).value if k % 2 else alpha_lower_bound(source)
            shift = shift_of(source, alpha)
            for mask in range(1, source.ground.full_mask + 1):
                self.assert_matches_oracle(source, shift, mask)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(min_value=0, max_value=8))
    def test_rational_tables(self, rng, eighths):
        table = random_rational_table(rng, rng.randint(2, 6), rng.randint(2, 10))
        for source in (table, scaled_table(table)):
            shift = shift_of(source, source.entropy(source.ground.full_mask) * Fraction(eighths, 8))
            for shift in [shift] + self.model_shifts(source):
                for mask in range(1, source.ground.full_mask + 1):
                    self.assert_matches_oracle(source, shift, mask)

    def test_corpus_at_both_models_shifts_without_the_step(self, source_corpus, monkeypatch):
        """The reference shares no code with the sweep it checks: with
        the step, the sweep and the trie walk made to raise, it still
        matches the oracle and the sweep's value recorded before."""
        cases = []
        for source in source_corpus:
            for shift in self.model_shifts(source):
                for mask in range(1, source.ground.full_mask + 1):
                    run = run_rate_update(source, shift, early_exit=False, within=mask)
                    cases.append((source, shift, mask, run))

        def refuse(*args, **kwargs):
            raise AssertionError("the reference truncation called the prefix step")

        for name in ("minimize_over_prefix", "run_rate_update", "_join_blocks", "_prefix_trie_sweeps"):
            monkeypatch.setattr(submodular, name, refuse)
        for source, shift, mask, run in cases:
            value = dilworth_truncation(source, shift, mask)
            want_value, want_partition = bell_truncation(source, shift, mask)
            assert value == want_value
            assert value == Fraction(sum(run.scaled[-1]), run.scale)
            assert run.partition.blocks == want_partition.blocks


class TestPartitionMinimaCache:
    """The reference keeps one table of partition minima, for the latest
    shift of the source it was asked about: switching shifts or sources
    rebuilds it, and no value comes from a stale table."""

    @pytest.mark.parametrize("make", [random_packet_source, random_rational_table])
    def test_switching_shifts_and_sources(self, make):
        rng = random.Random(23)
        first, second = make(rng, 5, 8), make(rng, 5, 8)
        assert first.entropies != second.entropies
        full = first.ground.full_mask
        s = shift_of(first, min_sum_rate(first).value)
        for shift in (s, s - Fraction(2, 3), s):
            for mask in range(1, full + 1):
                want = bell_truncation(first, shift, mask)[0]
                assert dilworth_truncation(first, shift, mask) == want
        for mask in range(1, full + 1):
            assert dilworth_truncation(second, s, mask) == bell_truncation(second, s, mask)[0]


class TestPrefixTrie:
    """The shared depth-first walk finishes the same sweep over every
    subset as a sweep of its own, at the shift that decides
    complementarity in each model."""

    @staticmethod
    def assert_matches_own_sweeps(source):
        """r(X), the top rate and the parent's submasks and rate sums
        against the sweep over X, read once the walk has finished, so a
        walk that changed a stepper it had handed out fails too."""
        for model in models_of(source):
            shift = shift_of(source, min_sum_rate(source, None, model).value)
            scale = shift.denominator * source.denominator
            swept = list(_prefix_trie_sweeps(source, shift))
            for mask, stepper, rate, blocks in swept:
                run = run_rate_update(source, shift, early_exit=False, within=mask)
                rates = run.scaled[-1]
                top = mask.bit_length() - 1
                assert rate == rates[top]
                below = list(bit_positions(mask ^ 1 << top))
                assert stepper.submasks == subset_sums([1 << pos for pos in below])
                assert stepper.sums == subset_sums([rates[pos] for pos in below])
                assert stepper.sums[-1] + rate == sum(rates)
                assert walk_rates(source, mask, stepper, rate) == rates
                assert Partition(blocks) == run.partition
                assert Fraction(sum(rates), scale) == dilworth_truncation(source, shift, mask)
            assert sorted(mask for mask, *_ in swept) == list(range(1, source.ground.full_mask + 1))

    def test_corpus_every_subset(self, source_corpus):
        for source in source_corpus:
            self.assert_matches_own_sweeps(source)

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_rational_tables(self, rng):
        table = random_rational_table(rng, rng.randint(2, 6), rng.randint(2, 10))
        self.assert_matches_own_sweeps(table)
        self.assert_matches_own_sweeps(scaled_table(table))


class TestFirstExcess:
    """``PrefixStepper.first_excess`` against a scan of every S = T | top,
    T inside the absorbed prefix, in ascending order, with r(S) summed
    one user at a time and f(S) from Fraction entropies."""

    @staticmethod
    def scan(source, shift, rates, parent, top, rate):
        scale = shift.denominator * source.denominator
        for sub in iter_submasks(parent):
            have = sum(rates[pos] for pos in bit_positions(sub)) + rate
            if Fraction(have, scale) > f_value(source, shift, sub | top):
                return sub | top
        return None

    @classmethod
    def assert_like_the_scan(cls, sources, rng) -> Counter:
        """Random prefixes of each source, absorbed with their finished
        rates at three shifts, some nudged up; the top's finished rate
        is tried as it is and moved by -1, 1 and 2 units."""
        outcomes = Counter()
        for source in sources:
            n = source.ground.size
            exact = shift_of(source, min_sum_rate(source).value)
            for shift in (exact, Fraction(math.floor(exact)), exact + Fraction(1, 7)):
                weight = shift.denominator
                base = shift.numerator * source.denominator
                for _ in range(3):
                    top = rng.randrange(n)
                    parent = rng.getrandbits(top)
                    mask = parent | 1 << top
                    rates = list(run_rate_update(source, shift, early_exit=False, within=mask).scaled[-1])
                    for pos in bit_positions(parent):
                        if rng.random() < 0.2:
                            rates[pos] += rng.randint(1, 2)
                    stepper = source.stepper(weight)
                    for pos in bit_positions(parent):
                        stepper = stepper.child(1 << pos, rates[pos])
                    for delta in (0, -1, 1, 2):
                        rate = rates[top] + delta
                        got = stepper.first_excess(1 << top, rate, base)
                        assert got == cls.scan(source, shift, rates, parent, 1 << top, rate)
                        outcomes[got is None, weight > 1] += 1
        return outcomes

    def test_corpus(self, source_corpus):
        outcomes = self.assert_like_the_scan(source_corpus, random.Random(11))
        assert all(outcomes[ok, heavy] for ok in (True, False) for heavy in (True, False))

    def test_rational_tables(self):
        rng = random.Random(12)
        tables = [random_rational_table(rng, n, 2 * n) for n in (2, 3, 4, 5, 6, 7) for _ in range(4)]
        outcomes = self.assert_like_the_scan(tables, rng)
        assert all(outcomes[ok, heavy] for ok in (True, False) for heavy in (True, False))

    def test_finished_rates_never_exceed(self, source_corpus):
        # every rate the walk yields is a greedy minimum, so no set that
        # holds its top exceeds f
        for source in source_corpus[::4]:
            shift = shift_of(source, min_sum_rate(source).value)
            base = shift.numerator * source.denominator
            for mask, stepper, rate, _ in _prefix_trie_sweeps(source, shift):
                top = 1 << (mask.bit_length() - 1)
                assert stepper.first_excess(top, rate, base) is None
                assert stepper.first_excess(top, rate + 1, base) is not None


class TestMinimizeOverPrefix:
    """The prefix step against a brute-force oracle over its candidates,
    which evaluates g = f - r from Fraction entropies."""

    @staticmethod
    def assert_matches_brute_force(source, shift, rates, position, within):
        result, min_value = step(source, shift, rates, position, within)
        top = 1 << (position - 1)
        whole = source.ground.mask(within)
        candidates = [sub | top for sub in range(top) if not sub & ~whole]
        values = {m: g_value(source, shift, rates, m) for m in candidates}
        assert min_value == min(values.values())
        minimizers = [m for m in candidates if values[m] == min_value]
        # minimizers form a lattice: their union is the largest of them,
        # and their intersection the smallest
        union, meet = 0, whole
        for m in minimizers:
            union |= m
            meet &= m
        assert result.maximal_minimizer == union
        assert result.minimal_minimizer == meet
        assert values[union] == min_value and values[meet] == min_value
        eligible = [m for m in minimizers if m.bit_count() >= 2 and m != whole]
        want = min(eligible, key=lambda m: (m.bit_count(), m)) if eligible else None
        assert result.exit_subset == want
        assert result.candidates_examined == len(candidates)

    @staticmethod
    def draw(rng, source) -> tuple:
        """A random shift, position, domain holding it and rate vector.
        Half the rates are the entropy their user adds to a random set of
        others, which makes about a fifth of the draws tie."""
        n = source.ground.size
        position = rng.randint(1, n)
        within = rng.getrandbits(n) | 1 << (position - 1)
        rates = []
        for pos in range(n):
            if rng.random() < 0.5:
                rates.append(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))))
            else:
                others = rng.getrandbits(n) & ~(1 << pos)
                rates.append(source.entropy(others | 1 << pos) - source.entropy(others))
        return Fraction(rng.randint(-8, 8), 2), rates, position, within

    def test_candidate_count(self, five_user):
        shift = shift_of(five_user, Fraction(13, 2))
        rates = [Fraction(0)] * 5
        assert step(five_user, shift, rates, 4)[0].candidates_examined == 2 ** 3
        assert step(five_user, shift, rates, 4, [1, 3, 4])[0].candidates_examined == 2 ** 2

    def test_known_minimizer(self, five_user):
        # position 2 at the exact parameter: {1,2} beats the singleton
        shift = shift_of(five_user, Fraction(13, 2))
        rates = [f_value(five_user, shift, 0b1)] + [Fraction(13, 2) - 10] * 4
        result, min_value = step(five_user, shift, rates, 2)
        assert min_value == Fraction(7, 2)
        assert result.minimal_minimizer == 0b11 and result.maximal_minimizer == 0b11
        assert result.exit_subset == five_user.ground.mask([1, 2])

    def test_tie_break_puts_cardinality_before_mask(self):
        # at user 4 the minimizers are {4}, {3,4}, {1,2,4} and V: the exit
        # is {3,4}, although {1,2,4} has the smaller mask
        source = PacketSource(GroundSet((1, 2, 3, 4)), {1: "xy", 2: "xy", 3: "a", 4: "abc"})
        rates = [Fraction(1), Fraction(1), Fraction(0), Fraction(0)]
        result, _ = step(source, Fraction(0), rates, 4)
        assert result.minimal_minimizer == 0b1000
        assert result.exit_subset == 0b1100
        assert result.maximal_minimizer == 0b1111
        self.assert_matches_brute_force(source, Fraction(0), rates, 4, 0b1111)
        # inside {1,2,4}, that set is the whole domain and no exit
        result, _ = step(source, Fraction(0), rates, 4, 0b1011)
        assert result.exit_subset is None

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_lattice_closure_of_minimizers(self, rng):
        n = rng.randint(2, 9)
        source = random_packet_source(rng, n, rng.randint(n, 10))
        self.assert_matches_brute_force(source, *self.draw(rng, source))

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_rational_tables(self, rng):
        source = random_rational_table(rng, rng.randint(2, 9), rng.randint(2, 10))
        self.assert_matches_brute_force(source, *self.draw(rng, source))


class TestRunRateUpdate:
    def test_early_exit_on_worked_example(self, five_user):
        run = run_rate_update(five_user, shift_of(five_user, Fraction(13, 2)), early_exit=True)
        assert run.exit_subset == five_user.ground.mask([1, 2])
        assert run.exit_position == 2

    def test_completion_reaches_known_vector(self, five_user):
        run = run_rate_update(five_user, shift_of(five_user, Fraction(13, 2)), early_exit=False)
        assert run.exit_subset is None
        assert run.rates == (
            Fraction(9, 2),
            Fraction(0),
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1),
        )
        assert len(snapshots(run)) == 5  # init + one per later user

    def test_snapshots_start_at_initialization(self, five_user):
        run = run_rate_update(five_user, shift_of(five_user, Fraction(13, 2)), early_exit=False)
        shift = Fraction(13, 2) - 10
        assert snapshots(run)[0] == (Fraction(9, 2),) + (shift,) * 4

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(min_value=0, max_value=4))
    def test_running_rates_never_exceed_alpha_function(self, rng, quarter):
        """Loop invariant: r(X) <= f#_alpha(X) for every nonempty X,
        after initialization and after every completed update."""
        source = random_packet_source(rng, rng.randint(3, 5), rng.randint(3, 8))
        h_total = source.entropy(source.ground.full_mask)
        shift = shift_of(source, h_total * Fraction(quarter, 4))
        run = run_rate_update(source, shift, early_exit=False)
        full = source.ground.full_mask
        for snapshot in snapshots(run):
            for mask in range(1, full + 1):
                total = sum(
                    (snapshot[pos] for pos in range(source.ground.size) if mask >> pos & 1),
                    Fraction(0),
                )
                assert total <= f_value(source, shift, mask)


class TestBlockUnionSteps:
    """``run_rate_update`` steps over the unions of the finest tight
    blocks of the prefix, ``reference_rate_update`` over every prefix
    subset.  In both modes they agree on the rates, the tight blocks
    and the finest tight partition, and an early-exit sweep on the exit
    subset, its position and the candidates examined; a completed sweep
    examines no more."""

    @staticmethod
    def assert_matches_reference(source, shift, within=None):
        for early_exit in (True, False):
            run = run_rate_update(source, shift, early_exit, within)
            want = reference_rate_update(source, shift, early_exit, within)
            assert run.scaled == want.scaled
            assert run.partition == want.partition
            assert run.finest_partition == want.finest_partition
            assert (run.exit_subset, run.exit_position) == (want.exit_subset, want.exit_position)
            if early_exit:
                assert run.candidates_examined == want.candidates_examined
            else:
                assert run.candidates_examined <= want.candidates_examined

    def test_corpus(self, source_corpus):
        """At a random alpha, at the lower bound CompSetSO exits at, and
        at R(V) in each model, where the finest partition is the
        fundamental one; in V and in a random subset."""
        rng = random.Random(5)
        for source in source_corpus:
            full = source.ground.full_mask
            alphas = [source.entropy(full) * Fraction(rng.randint(0, 12), 8), alpha_lower_bound(source)]
            alphas += [min_sum_rate(source, None, model).value for model in models_of(source)]
            for alpha in alphas:
                self.assert_matches_reference(source, shift_of(source, alpha))
                self.assert_matches_reference(source, shift_of(source, alpha), rng.randint(1, full))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(min_value=0, max_value=16))
    def test_rational_tables(self, rng, eighths):
        table = random_rational_table(rng, rng.randint(2, 9), rng.randint(2, 12))
        full = table.ground.full_mask
        for alpha in (table.entropy(full) * Fraction(eighths, 8), min_sum_rate(table).value):
            self.assert_matches_reference(table, shift_of(table, alpha))
            self.assert_matches_reference(table, shift_of(table, alpha), rng.randint(1, full))


class TieBreakRead(Exception):
    pass


class TestTieBreakOnlyWhenRead:
    """Only the early-exit sweep asks the step for its (cardinality,
    mask) tie-break; completed sweeps and the prefix trie never pass the
    step a domain, so it never works the tie-break out for them."""

    @staticmethod
    def forbid(monkeypatch):
        real = submodular.minimize_over_prefix
        signature = inspect.signature(real)

        def refuse(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if bound.arguments["whole"] is not None:
                raise TieBreakRead
            return real(*args, **kwargs)

        monkeypatch.setattr(submodular, "minimize_over_prefix", refuse)

    def test_completed_sweeps_never_read_it(self, monkeypatch):
        self.forbid(monkeypatch)
        table = random_rational_table(random.Random(3), 5, 8)
        for source in (make_five_user(), table, scaled_table(table)):
            for model in models_of(source):
                min_sum_rate(source, None, model)
                enumerate_complementary(source, model, verify=True)
            dilworth_truncation(source, Fraction(-1), source.ground.full_mask)

    def test_early_exit_reads_it(self, five_user, monkeypatch):
        self.forbid(monkeypatch)
        with pytest.raises(TieBreakRead):
            comp_set_so(five_user)
