"""Ground sets, rate vectors, partitions and bitmask helpers."""

from __future__ import annotations

import copy
import pickle
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from operator import or_
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soplan import (
    DomainError,
    FormatError,
    GroundSet,
    MAX_USERS,
    PacketSource,
    Partition,
    RateVector,
)
from soplan.core import bit_positions, parse_fraction, subset_sums
from soplan.multistage import Stage, StagePlan
from tests.conftest import enumerate_partitions, iter_submasks

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


class TestParseFraction:
    def test_accepts_int_string_and_fraction(self):
        assert parse_fraction(3) == 3
        assert parse_fraction("13/2") == Fraction(13, 2)
        assert parse_fraction(Fraction(5, 7)) == Fraction(5, 7)

    def test_rejects_floats(self):
        with pytest.raises(FormatError):
            parse_fraction(0.5)

    def test_rejects_bools(self):
        with pytest.raises(FormatError):
            parse_fraction(True)

    def test_rejects_junk_strings(self):
        with pytest.raises(FormatError):
            parse_fraction("three halves")


class TestBitHelpers:
    def test_bit_positions(self):
        assert list(bit_positions(0b10110)) == [1, 2, 4]
        assert list(bit_positions(0)) == []

    def test_iter_submasks_complete_and_ascending(self):
        subs = list(iter_submasks(0b1101))
        assert subs[0] == 0 and subs[-1] == 0b1101
        assert subs == sorted(subs)
        assert len(subs) == 2 ** 3
        assert all(sub & ~0b1101 == 0 for sub in subs)

    @given(st.integers(min_value=0, max_value=2**10 - 1))
    def test_iter_submasks_counts(self, mask):
        subs = list(iter_submasks(mask))
        assert len(subs) == 2 ** mask.bit_count()
        assert len(set(subs)) == len(subs)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.integers(-50, 50) | st.fractions(max_denominator=12), max_size=8))
    def test_subset_sums_match_brute_force(self, values):
        sums = subset_sums(values)
        assert len(sums) == 2 ** len(values)
        for m, total in enumerate(sums):
            assert total == sum((values[k] for k in bit_positions(m)), 0)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.integers(0, 5), max_size=12))
    def test_subset_sums_of_disjoint_masks_are_unions(self, groups):
        # position pos joins group groups[pos]: disjoint masks, in any order
        masks = [sum(1 << pos for pos, g in enumerate(groups) if g == k) for k in range(6)]
        masks = [mask for mask in masks if mask]
        for m, union in enumerate(subset_sums(masks)):
            assert union == reduce(or_, (masks[k] for k in bit_positions(m)), 0)
        # the bits of a mask, lowest first, give its submasks in ascending order
        whole = reduce(or_, masks, 0)
        assert subset_sums([1 << pos for pos in bit_positions(whole)]) == list(iter_submasks(whole))


class TestGroundSet:
    def test_positions_and_masks(self):
        g = GroundSet(("a", "b", "c"))
        assert g.size == 3
        assert g.full_mask == 0b111
        assert g.bit("b") == 0b010
        assert g.mask(["a", "c"]) == 0b101
        assert g.labels_of(0b101) == ("a", "c")
        assert g.format(0b101) == "{a,c}"

    def test_int_subset_is_a_mask_not_a_label(self):
        g = GroundSet((1, 2, 3))
        # the int 3 is the mask {1,2}, never the user labelled 3
        assert g.labels_of(g.mask(3)) == (1, 2)
        assert g.mask([3]) == 0b100

    def test_rejects_duplicates_and_tiny_ground(self):
        with pytest.raises(DomainError):
            GroundSet((1, 1))
        with pytest.raises(DomainError):
            GroundSet((1,))

    def test_rejects_oversized_ground(self):
        with pytest.raises(DomainError):
            GroundSet(tuple(range(MAX_USERS + 1)))

    def test_unknown_label(self):
        g = GroundSet((1, 2))
        with pytest.raises(DomainError):
            g.bit(9)

    def test_out_of_range_mask(self):
        g = GroundSet((1, 2))
        with pytest.raises(DomainError):
            g.mask(0b100)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_is_no_mask(self, flag):
        g = GroundSet((1, 2))
        source = PacketSource(g, {1: ["a"], 2: ["b"]})
        with pytest.raises(DomainError, match="int masks"):
            g.mask(flag)
        with pytest.raises(DomainError, match="int masks"):
            source.entropy(flag)
        with pytest.raises(DomainError, match="int masks"):
            RateVector(g, (0, 0), flag)

    def test_subset_texts_are_built_once(self):
        g = GroundSet(("a", 2, "c"))
        texts = g.subset_texts()
        assert texts == ["", "a", "2", "a,2", "c", "a,c", "2,c", "a,2,c"]
        assert g.subset_texts() == texts and g.subset_texts() is not texts
        assert GroundSet(("a", 2, "c")) == g


class TestRateVector:
    def test_from_map_and_lookup(self):
        g = GroundSet((1, 2, 3))
        r = RateVector.from_map(g, {1: Fraction(1, 2), 3: 2})
        assert r.rate(1) == Fraction(1, 2)
        assert r.rate(2) == 0
        assert r.total == Fraction(5, 2)
        assert r.sum_over([1, 3]) == Fraction(5, 2)
        assert r.sum_over(0b011) == Fraction(1, 2)

    def test_domain_enforced(self):
        g = GroundSet((1, 2, 3))
        with pytest.raises(DomainError):
            RateVector.from_map(g, {3: 1}, domain=[1, 2])
        r = RateVector.from_map(g, {1: 1}, domain=[1, 2])
        with pytest.raises(DomainError):
            r.sum_over([3])

    def test_add_merges_domains(self):
        g = GroundSet((1, 2, 3))
        a = RateVector.from_map(g, {1: 1}, domain=[1])
        b = RateVector.from_map(g, {2: Fraction(1, 2)}, domain=[2])
        c = a + b
        assert c.rate(1) == 1 and c.rate(2) == Fraction(1, 2)
        assert c.domain == g.mask([1, 2])

    def test_add_requires_same_ground(self):
        a = RateVector.zeros(GroundSet((1, 2)))
        b = RateVector.zeros(GroundSet((1, 3)))
        with pytest.raises(DomainError):
            a + b

    def test_format(self):
        g = GroundSet((1, 2))
        r = RateVector.from_map(g, {1: Fraction(9, 2)})
        assert r.format() == "(1:9/2, 2:0)"

    def test_values_are_fractions(self):
        g = GroundSet((1, 2))
        r = RateVector(g, (1, 2), g.full_mask)
        assert all(isinstance(v, Fraction) for v in r.values)

    def test_rejects_floats_and_bools(self):
        g = GroundSet((1, 2))
        for bad in (0.5, True):
            with pytest.raises(FormatError, match="rate for 2"):
                RateVector(g, (1, bad), g.full_mask)
            with pytest.raises(FormatError, match="rate for 2"):
                RateVector.from_map(g, {2: bad})


class TestPartition:
    def test_blocks_sorted_by_lowest_member(self):
        p = Partition((0b100, 0b011))
        assert p.blocks == (0b011, 0b100)
        assert p.union == 0b111
        assert len(p) == 2

    @pytest.mark.parametrize("bad", [1.5, 2.0, "3", True, None, Fraction(2)])
    def test_rejects_blocks_that_are_not_int_masks(self, bad):
        # int() would read 1.5 as 1, "3" as 3 and True as 1
        with pytest.raises(DomainError, match="int masks"):
            Partition((bad, 0b1000))

    def test_rejects_overlap_and_empty(self):
        with pytest.raises(DomainError):
            Partition((0b011, 0b010))
        with pytest.raises(DomainError):
            Partition(())
        with pytest.raises(DomainError):
            Partition((0,))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_enumeration_counts_are_bell_numbers(self, n):
        mask = (1 << n) - 1
        parts = list(enumerate_partitions(mask))
        assert len(parts) == BELL[n]
        seen = {p.blocks for p in parts}
        assert len(seen) == len(parts)
        for p in parts:
            assert p.union == mask

    def test_enumeration_order_endpoints(self):
        parts = list(enumerate_partitions(0b111))
        assert parts[0].blocks == (0b111,)
        assert parts[-1].blocks == (0b001, 0b010, 0b100)

    def test_enumeration_on_sparse_mask(self):
        parts = list(enumerate_partitions(0b1010))
        assert {p.blocks for p in parts} == {(0b1010,), (0b0010, 0b1000)}

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            list(enumerate_partitions(0))

    @given(st.integers(min_value=1, max_value=2**6 - 1))
    def test_every_partition_covers_exactly(self, mask):
        for p in enumerate_partitions(mask):
            assert p.union == mask
            assert sum(b.bit_count() for b in p.blocks) == mask.bit_count()


def _ground():
    return GroundSet((1, "b", 3))


def _rates():
    return RateVector.from_map(_ground(), {1: Fraction(1, 2), "b": 2}, [1, "b"])


def _stage():
    return Stage(0b011, _rates())


_RATES_TEXT = ("RateVector(ground=GroundSet(labels=(1, 'b', 3)), "
               "values=(Fraction(1, 2), Fraction(2, 1), Fraction(0, 1)), domain=3)")
_STAGE_TEXT = f"Stage(target=3, rates={_RATES_TEXT})"

#: (build, its fields, its repr): the reprs are those of the dataclass
#: versions of these types, which the written-out classes keep
RECORDS = {
    "GroundSet": (_ground, ("labels",), "GroundSet(labels=(1, 'b', 3))"),
    "RateVector": (_rates, ("ground", "values", "domain"), _RATES_TEXT),
    "Partition": (lambda: Partition([0b100, 0b011]), ("blocks",), "Partition(blocks=(3, 4))"),
    "Stage": (_stage, ("target", "rates"), _STAGE_TEXT),
    "StagePlan": (
        lambda: StagePlan(_ground(), "asymptotic", (_stage(),), 7, 0),
        ("ground", "model", "stages", "field_order", "seed"),
        "StagePlan(ground=GroundSet(labels=(1, 'b', 3)), model='asymptotic', "
        f"stages=({_STAGE_TEXT},), field_order=7, seed=0)",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecordSemantics:
    """The public value types are immutable values: equal by type and
    fields, hashed alike, printed as ``Name(field=value, ...)``."""

    def test_fields_refuse_assignment(self, name):
        build, fields, _ = RECORDS[name]
        record = build()
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
            with pytest.raises(AttributeError):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_values_are_equal_and_hash_alike(self, name):
        build, fields, _ = RECORDS[name]
        first, second = build(), build()
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_another_type_with_the_same_values_is_unequal(self, name):
        build, fields, _ = RECORDS[name]
        record = build()
        values = tuple(getattr(record, field) for field in fields)
        twin = namedtuple(name, fields)(*values)
        for other in (twin, SimpleNamespace(**dict(zip(fields, values))), values):
            assert record != other and other != record
            assert not record == other

    def test_copies_and_pickles_as_equal_values(self, name):
        build, _, _ = RECORDS[name]
        record = build()
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and type(twin) is type(record)

    def test_repr(self, name):
        build, _, text = RECORDS[name]
        assert repr(build()) == text
