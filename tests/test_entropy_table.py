"""The integer entropy table of both source models against references
that share no code with it, and the planner's merged tables against
the ranks of coding rows drawn over GF(q).

Each source stores ``denominator * H(mask)`` as an int for every mask;
``entropy(mask)`` must give back exactly the reference value as a
reduced Fraction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest

from soplan import (
    ASYMPTOTIC,
    NON_ASYMPTOTIC,
    GroundSet,
    PacketSource,
    TableSource,
    min_sum_rate,
    validate_polymatroid,
)
from soplan.multistage import build_plan, least_chunk_factor
from soplan.rlnc import _chunk_columns, draw_stage
from soplan.sources import reorder
from soplan.submodular import dilworth_truncation, run_rate_update
from tests.conftest import induced_table, random_packet_source, space_with
from tests.test_omniscience import bell_min_sum_rate
from tests.test_submodular import bell_truncation

LARGE_PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117)


def assert_entropies(source, want) -> None:
    """``entropy(mask)`` is the reduced Fraction ``want(mask)`` for every mask."""
    for mask in range(source.ground.full_mask + 1):
        value, expected = source.entropy(mask), Fraction(want(mask))
        assert isinstance(value, Fraction)
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


def weighted_coverage(rng, n_users, denominators) -> TableSource:
    """H(X) = total weight of the packets some member of X holds, with
    packet k weighing a random numerator over ``denominators[k]``."""
    source = random_packet_source(rng, n_users, len(denominators))
    weight = {f"p{k}": Fraction(rng.randint(1, 9), d) for k, d in enumerate(denominators)}
    ground = source.ground
    table = {}
    for mask in range(ground.full_mask + 1):
        held = set().union(*(source.possession[label] for label in ground.labels_of(mask)))
        table[mask] = sum((weight[p] for p in held), Fraction(0))
    return TableSource(ground, table)


def test_packet_sources_against_union_count():
    rng = random.Random(11)
    for n_users in (2, 3, 5, 7, 9):
        source = random_packet_source(rng, n_users, rng.randint(n_users, 3 * n_users))
        ground = source.ground

        def union_count(mask):
            return len(set().union(*(source.possession[label] for label in ground.labels_of(mask))))

        assert_entropies(source, union_count)


@pytest.mark.parametrize("n_packets", [0, 1, 255, 256, 65535, 65536])
def test_packet_counts_at_every_slot_width(n_packets):
    # the table is built in one int of 1-, 2- or 4-byte slots, chosen by
    # the packet count; each count here is the widest of a slot width or
    # one past it, and every packet is held, by user 1 or by user 2
    rng = random.Random(n_packets)
    first = {p for p in range(n_packets) if rng.random() < 0.5}
    third = {p for p in range(n_packets) if rng.random() < 0.5}
    possession = {1: first, 2: set(range(n_packets)) - first, 3: third}
    source = PacketSource(GroundSet((1, 2, 3)), possession)
    ground = source.ground

    def union_count(mask):
        return len(set().union(*(possession[label] for label in ground.labels_of(mask))))

    assert_entropies(source, union_count)
    assert source.entropies[ground.full_mask] == n_packets


def test_merged_tables_against_drawn_rows(source_corpus):
    """Every merged system the planner builds from the generic-rank
    formula has the entropies of rows drawn over GF(2^31 - 1): H(Y) * L
    is c times the rank of Y's rows, for chunk factor L and c that of
    the stages before the table (its units per packet), with the same
    stages replayed on the source's chunk columns, the super user
    stacking its members' observations and everyone else hearing the
    stage's rows.  A subset's rank is that of its members' drawn rows
    with their chunk columns covered."""
    q = 2**31 - 1
    rng = random.Random(13)
    merges = 0
    for source in source_corpus:
        build = build_plan(source, ASYMPTOTIC)
        chunk = build.plan.chunk_factor
        width, coverage = _chunk_columns(source.packet_order, source.possession, chunk)
        rows = {label: () for label in source.ground.labels}
        for k, (record, after) in enumerate(zip(build.builds, build.builds[1:])):
            system = record.system
            units = least_chunk_factor(earlier.stage for earlier in build.builds[:k + 1])
            counts = {}
            for member in system.ground.labels_of(record.target):
                count = record.stage.rates.rate(member) * chunk
                assert count.denominator == 1
                counts[member] = int(count)
            spaces = {
                label: space_with(q, width, rows[label], coverage[label])
                for label in system.ground.labels
            }
            sent = tuple(row for _, row in draw_stage(spaces, counts, rng, 0).rows)
            heard, covers = {}, {}
            for label, originals in after.system.label_map.items():
                if originals == system.label_map[label]:
                    heard[label], covers[label] = rows[label] + sent, coverage[label]
                else:  # the super user
                    heard[label] = tuple(row for member in counts for row in rows[member])
                    covers[label] = reduce(or_, (coverage[member] for member in counts), 0)
            rows, coverage = heard, covers
            table = after.system.source
            assert validate_polymatroid(table).ok
            for mask in range(table.ground.full_mask + 1):
                members = table.ground.labels_of(mask)
                stacked = dict.fromkeys(row for label in members for row in rows[label])
                covered = reduce(or_, (coverage[label] for label in members), 0)
                rank = space_with(q, width, stacked, covered).rank
                assert table.entropy(mask) * chunk == rank * units
            merges += 1
    assert merges > 100


def test_int_tables_stored_as_the_public_constructor_stores_them(source_corpus, monkeypatch):
    """Every table built from ints (the planner's merged systems,
    ``reorder`` and ``induced_table``) stores the entropies and
    denominator that ``TableSource`` stores for the same Fractions."""
    built = []
    from_ints = TableSource._from_ints.__func__

    def spy(cls, ground, entropies, denominator):
        values = [Fraction(e, denominator) for e in entropies]
        table = from_ints(cls, ground, list(entropies), denominator)
        built.append((table, values))
        return table

    monkeypatch.setattr(TableSource, "_from_ints", classmethod(spy))
    rng = random.Random(19)
    for source in source_corpus:
        for model in (ASYMPTOTIC, NON_ASYMPTOTIC):
            build_plan(source, model)
        reorder(induced_table(source), reversed(source.ground.labels))
    for _ in range(20):
        table = weighted_coverage(rng, rng.randint(2, 6), [rng.randint(1, 6) for _ in range(8)])
        reorder(induced_table(table), reversed(table.ground.labels))
    TableSource._from_ints(GroundSet(("a", "b")), [0, 2, 4, 6], 4)  # a common factor of 2
    assert len(built) > 3 * len(source_corpus)
    for table, values in built:
        public = TableSource(table.ground, dict(enumerate(values)), validate=False)
        assert (table.entropies, table.denominator) == (public.entropies, public.denominator)


def test_table_with_denominators_two_three_seven():
    ground = GroundSet(("a", "b", "c"))
    given = {
        0: 0,
        0b001: Fraction(1, 2),
        0b010: Fraction(2, 3),
        0b100: Fraction(3, 7),
        0b011: Fraction(7, 6),
        0b101: Fraction(13, 14),
        0b110: Fraction(23, 21),
        0b111: Fraction(67, 42),
    }
    source = TableSource(ground, given)
    assert source.denominator == 42
    assert not source.integral
    assert_entropies(source, given.__getitem__)


def test_large_prime_denominators_against_bell_oracle():
    source = weighted_coverage(random.Random(14), 5, LARGE_PRIMES)
    ground = source.ground
    for mask in range(3, ground.full_mask + 1):
        if mask.bit_count() >= 2:
            assert min_sum_rate(source, mask).value == bell_min_sum_rate(source, mask)
    shift = min_sum_rate(source).value - source.entropy(ground.full_mask)
    for mask in range(1, ground.full_mask + 1):
        value = dilworth_truncation(source, shift, mask)
        partition = run_rate_update(source, shift, early_exit=False, within=mask).partition
        want_value, want_partition = bell_truncation(source, shift, mask)
        assert value == want_value
        assert partition.blocks == want_partition.blocks
