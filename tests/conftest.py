"""Shared fixtures: the worked five-user example, small named sources,
a reproducible corpus of random packet sources, and the exhaustive
oracles the tests check the package against."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

import pytest

from soplan import DomainError, GroundSet, PacketSource, Partition, TableSource
from soplan.core import bit_positions, json_text, submask_sums
from soplan.gf import RowSpace, random_combination
from soplan.omniscience import ASYMPTOTIC, MODELS
from soplan.rlnc import STAGE_REDRAW_LIMIT, _chunk_columns
from soplan.sources import PolymatroidReport, Violation, _packet_id, _packet_key

CORPUS_SEED = 20260823
CORPUS_SIZE = 200


def make_five_user() -> PacketSource:
    """Five users sharing ten packets; the running example used for all
    hand-checked golden values."""
    ground = GroundSet((1, 2, 3, 4, 5))
    return PacketSource(
        ground,
        {
            1: "abcdfgij",
            2: "abcfij",
            3: "efhi",
            4: "bcej",
            5: "bcdhi",
        },
    )


def make_cyclic_triple() -> PacketSource:
    """Three users, packets shared pairwise in a cycle."""
    ground = GroundSet((1, 2, 3))
    return PacketSource(ground, {1: "ab", 2: "bc", 3: "ac"})


def make_independent_triple() -> PacketSource:
    """Three users with pairwise disjoint observations."""
    ground = GroundSet((1, 2, 3))
    return PacketSource(ground, {1: "a", 2: "b", 3: "c"})


def make_identical_pair() -> PacketSource:
    """Two users observing the same single packet; nothing to send."""
    ground = GroundSet((1, 2))
    return PacketSource(ground, {1: "p", 2: "p"})


@pytest.fixture
def five_user() -> PacketSource:
    return make_five_user()


@pytest.fixture
def cyclic_triple() -> PacketSource:
    return make_cyclic_triple()


@pytest.fixture
def independent_triple() -> PacketSource:
    return make_independent_triple()


@pytest.fixture
def identical_pair() -> PacketSource:
    return make_identical_pair()


def random_packet_source(rng: random.Random, n_users: int, n_packets: int) -> PacketSource:
    """A random possession pattern where every packet has at least one
    holder and every user holds at least one packet."""
    labels = tuple(range(1, n_users + 1))
    ground = GroundSet(labels)
    packets = [f"p{k}" for k in range(n_packets)]
    possession = {label: set() for label in labels}
    for packet in packets:
        for holder in rng.sample(labels, rng.randint(1, n_users)):
            possession[holder].add(packet)
    for label in labels:
        if not possession[label]:
            possession[label].add(rng.choice(packets))
    return PacketSource(ground, possession)


def random_rational_table(rng: random.Random, n_users: int, n_packets: int) -> TableSource:
    """Weighted packet coverage with rational weights: H(X) is the total
    weight of the packets some member of X holds.  A polymatroid by
    construction, with non-integral entropies."""
    source = random_packet_source(rng, n_users, n_packets)
    weight = {f"p{k}": Fraction(rng.randint(1, 6), rng.randint(2, 5)) for k in range(n_packets)}
    ground = source.ground
    table = {}
    for mask in range(ground.full_mask + 1):
        held = set().union(*(source.possession[label] for label in ground.labels_of(mask)))
        table[mask] = sum((weight[p] for p in held), Fraction(0))
    return TableSource(ground, table)


def scaled_table(source) -> TableSource:
    """``source``'s table times its denominator D: the same polymatroid
    with integer entropies, which the non-asymptotic model takes."""
    return TableSource._from_ints(source.ground, list(source.entropies), 1)


def models_of(source) -> tuple:
    """The rate models that take ``source``: the non-asymptotic one needs
    integer entropies."""
    return MODELS if source.integral else (ASYMPTOTIC,)


def induced_table(source) -> TableSource:
    """The explicit-table view of any source."""
    return TableSource._from_ints(source.ground, list(source.entropies), source.denominator)


@pytest.fixture(scope="session")
def source_corpus() -> tuple:
    """200 random packet sources with 3..6 users, frozen by seed."""
    rng = random.Random(CORPUS_SEED)
    sizes = (3, 4, 5, 6)
    corpus = []
    for k in range(CORPUS_SIZE):
        n_users = sizes[k % len(sizes)]
        n_packets = rng.randint(n_users, 12)
        corpus.append(random_packet_source(rng, n_users, n_packets))
    return tuple(corpus)


# ---------------------------------------------------------------- oracles


def iter_submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask`` in ascending numeric order,
    including 0 and ``mask`` itself."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def _iter_partition_masks(mask: int) -> Iterator[tuple]:
    """Yield the partitions of ``mask`` as tuples of block masks.

    Order follows the lexicographic restricted-growth strings over the
    elements in ascending bit order: the one-block partition comes
    first, the all-singletons partition last.
    """
    elements = [1 << pos for pos in bit_positions(mask)]
    n = len(elements)
    blocks: list = []

    def rec(pos: int) -> Iterator[tuple]:
        if pos == n:
            yield tuple(blocks)
            return
        bit = elements[pos]
        for k in range(len(blocks)):
            blocks[k] |= bit
            yield from rec(pos + 1)
            blocks[k] ^= bit
        blocks.append(bit)
        yield from rec(pos + 1)
        blocks.pop()

    return rec(0)


def enumerate_partitions(mask: int) -> Iterator[Partition]:
    """Enumerate all partitions of the nonempty subset ``mask``: the Bell
    oracle.

    Deterministic restricted-growth order; the number of partitions of
    an n-element subset is the n-th Bell number.
    """
    if mask == 0:
        raise DomainError("cannot partition the empty set")
    if mask < 0:
        raise DomainError("subset masks are nonnegative")
    for blocks in _iter_partition_masks(mask):
        yield Partition(blocks)


def snapshots(run) -> tuple:
    """The rates of a rate-update run after initialization and after
    every completed update, as Fractions, so invariants can be replayed."""
    return tuple(tuple(Fraction(v, run.scale) for v in rates) for rates in run.scaled)


def polymatroid_report(source) -> PolymatroidReport:
    """The per-mask polymatroid check: every (C, i) and (C, i, j) tested
    one at a time, in that order, with today's texts: the oracle for
    ``validate_polymatroid``'s whole-list passes."""
    ground = source.ground
    n = ground.size
    violations = []
    h = source.entropies

    def value(scaled: int) -> Fraction:
        return Fraction(scaled, source.denominator)

    if h[0] != 0:
        violations.append(Violation("normalization", f"H({{}}) = {value(h[0])}, expected 0"))
    for mask in range(ground.full_mask + 1):
        outside = [pos for pos in range(n) if not mask >> pos & 1]
        for ai, i in enumerate(outside):
            with_i = mask | 1 << i
            if h[mask] > h[with_i]:
                violations.append(
                    Violation(
                        "monotonicity",
                        f"H({ground.format(mask)}) = {value(h[mask])} > "
                        f"{value(h[with_i])} = H({ground.format(with_i)})",
                    )
                )
            for j in outside[ai + 1:]:
                with_j = mask | 1 << j
                both = with_i | 1 << j
                if h[with_i] + h[with_j] < h[both] + h[mask]:
                    violations.append(
                        Violation(
                            "submodularity",
                            f"H({ground.format(with_i)}) + H({ground.format(with_j)}) = "
                            f"{value(h[with_i] + h[with_j])} < {value(h[both] + h[mask])} = "
                            f"H({ground.format(both)}) + H({ground.format(mask)})",
                        )
                    )
    return PolymatroidReport(not violations, tuple(violations))


def reference_shortfall(source, mask: int, rates, weight: int) -> tuple | None:
    """The achievability loop over every proper subset C of X = ``mask``
    in ascending mask order, one subset at a time: the oracle for
    ``shortfall``, which reads the table in mirrored order at X = V."""
    table = source.entropies
    submasks, rate_sums = submask_sums(mask, rates)
    submasks.pop()  # C = X is no constraint
    for c, have in zip(submasks, rate_sums):
        need = weight * (table[mask] - table[mask ^ c])
        if have < need:
            return c, need - have
    return None


def walk_rates(source, mask: int, stepper, rate: int) -> tuple:
    """The finished rates of the prefix-trie walk's sweep over ``mask``
    by ground position, from what the walk yields there: each member of
    the parent read off its singleton's rate sum in the parent's
    ``stepper``, and the top user's ``rate``."""
    rates = [0] * source.ground.size
    *members, top = bit_positions(mask)
    for index, pos in enumerate(members):
        rates[pos] = stepper.sums[1 << index]
    rates[top] = rate
    return tuple(rates)


def reference_packet_load(data: dict) -> tuple:
    """A packet document read id by id: every id through ``_packet_id``
    in file order, the held packets sorted by ``_packet_key``, each
    user's bitmask and each subset's entropy counted one packet at a
    time.  Returns ``(packet_order, possession, entropies, dump text)``:
    the oracle for the whole-list passes of ``source_from_dict``."""
    labels = tuple(data["users"])
    lookup = {str(label): label for label in labels}
    possession = {label: frozenset() for label in labels}
    for key, ids in data["packets"].items():
        possession[lookup[key]] = frozenset(
            [_packet_id(packet, f"packet ids for user {key}") for packet in ids]
        )
    order = tuple(sorted(frozenset().union(*possession.values()), key=_packet_key))
    bits = [0] * len(labels)
    for k, packet in enumerate(order):
        for pos, label in enumerate(labels):
            if packet in possession[label]:
                bits[pos] |= 1 << k
    entropies = []
    for mask in range(1 << len(labels)):
        union = 0
        for pos in bit_positions(mask):
            union |= bits[pos]
        entropies.append(union.bit_count())
    packets = {str(label): sorted(possession[label], key=_packet_key) for label in labels}
    text = json_text({"model": "packet", "users": list(labels), "packets": packets})
    return order, possession, entropies, text


def reference_draw_stage(spaces, counts, rng, needed: int) -> tuple:
    """The stage loop with one space per user: every attempt copies each
    user's space, every listener hears every row another user sends, and
    every member is checked with ``spans_units``.  Returns the rows, the
    spaces, the attempts and the decode flags: the oracle for the shared
    spaces of ``rlnc.draw_stage``."""
    attempts = 0
    while True:
        attempts += 1
        trial = {user: space.clone() for user, space in spaces.items()}
        rows = []
        for sender, count in counts.items():
            space = trial[sender]
            for _ in range(count):
                row = random_combination(space, space.width, space.q, rng)
                assert space.contains(row)
                rows.append((sender, row))
                for user, listener in trial.items():
                    if user != sender:
                        listener.add(row)
        achieved = {member: trial[member].spans_units(needed) for member in counts}
        if all(achieved.values()) or not rows or attempts >= STAGE_REDRAW_LIMIT:
            return tuple(rows), trial, attempts, achieved


def reference_execute(source: PacketSource, plan, seed: int = None) -> tuple:
    """``execute_plan`` run stage by stage through
    :func:`reference_draw_stage`.  Returns, per stage, the rows, the
    attempts and the decode flags, and then every user's final rank."""
    ground = plan.ground
    chunk = plan.chunk_factor
    width, coverage = _chunk_columns(source.packet_order, source.possession, chunk)
    rng = random.Random(plan.seed if seed is None else seed)
    spaces = {user: RowSpace(plan.field_order, width, covered=coverage[user]) for user in ground.labels}
    stages = []
    for stage in plan.stages:
        members = ground.labels_of(stage.target)
        counts = {member: int(stage.rates.rate(member) * chunk) for member in members}
        needed = 0
        for member in members:
            needed |= coverage[member]
        rows, spaces, attempts, achieved = reference_draw_stage(spaces, counts, rng, needed)
        stages.append((rows, attempts, achieved))
    return tuple(stages), {user: spaces[user].rank for user in ground.labels}
