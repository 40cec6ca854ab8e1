"""Ground sets, rate vectors, partitions and bitmask helpers."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from soplan import (
    DomainError,
    FormatError,
    GroundSet,
    MAX_USERS,
    Partition,
    RateVector,
)
from soplan.core import bit_positions, parse_fraction
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
