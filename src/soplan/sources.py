"""Entropy models for correlated sources.

Two interchangeable models expose ``entropy(subset) -> Fraction``:

* :class:`PacketSource` - each user holds a set of packets; the entropy
  of a subset is the number of distinct packets its members hold.
* :class:`TableSource` - an explicit entropy value for every subset,
  validated against the polymatroid axioms at load time.

Sources are immutable after construction.  Sweeps, verdicts, bounds
and merges ask a source four queries instead of indexing its table:
``entropy_scaled(mask)``, the int D * H(mask) for the common
``denominator`` D; ``stepper(weight)``, one sweep's prefix steps;
``shortfall``, the achievability check, which serves the yes-verdicts of
single sweeps and ``check_sw_achievable`` (the ``enumerate`` walk checks
its own off its steppers' rate sums); and ``split_minimum(mask)``,
the least D * (H(Y) + H(X minus Y)) behind the best-bipartition bound.
All four read one list of ints, ``entropies``, with D * H(mask) for
all 2^|V| masks, built on first use; at X = V, ``shortfall`` and
``split_minimum`` read it in mirrored order, without a copy.
``entropy`` reads ``entropy_scaled`` back as a reduced Fraction.

JSON file format (used by :func:`load_source` / :func:`dump_source`)::

    {"model": "packet", "users": [1, 2], "packets": {"1": ["a"], "2": []}}
    {"model": "table", "users": [1, 2],
     "entropy": {"": "0", "1": "1", "2": "1", "1,2": "3/2"}}

Packet dict keys and table subset keys use ``str(label)``; table keys
join the subset's labels with commas (so labels must not contain
commas).  Labels and packet ids are JSON strings, numbers or null; a
float packet id must be finite and not integral.  Packet ids are
written in order of their text, then of their type.  Rationals are
``"p/q"`` strings or integers, never floats.

A packet file loads in whole-list passes: each user's id list is
checked by one test of the types it holds, and its ids are checked one
by one, so that the first bad one is named, only when it holds a type
other than string, int or null; dumps share that check.  The held
packets are sorted only when ``packet_order`` is asked for (the
simulator's columns).  The entropy table counts the packets that each
set of users holds alone and sums those counts over the submasks in one
int of byte slots, one shift and add per user (:func:`_meeting_counts`).

A table loads in whole-list passes: the key text of every subset, its
labels in ground order as :func:`source_to_dict` writes them, is built
once and looked up in the entropy dict, so a key is split into labels
only when some key is not such a text (labels out of order, unknown or
repeated users); each distinct value is read once by :func:`_ratio`;
and :func:`validate_polymatroid` makes |V|(|V|+1)/2 subtractions of
ints of 2^|V| slots (README, "File formats", gives load times).
"""

from __future__ import annotations

import struct
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, islice, repeat
from math import gcd, isfinite, lcm
from operator import add, mul, sub
from typing import Iterable, Mapping, NamedTuple

from .core import (
    DomainError,
    FormatError,
    GroundSet,
    SubsetLike,
    bit_positions,
    brief,
    json_text,
    parse_fraction,
    read_json,
    submask_sums,
)
from .submodular import PrefixStepper

PACKET_MODEL = "packet"
TABLE_MODEL = "table"


class _SourceBase:
    """Shared plumbing: the integer entropy table, which a subclass
    builds in ``_entropy_table`` or on construction, the four queries
    answered from it, and the exact view ``entropy``."""

    ground: GroundSet
    denominator = 1

    @cached_property
    def entropies(self) -> list:
        return self._entropy_table()

    @property
    def integral(self) -> bool:
        """True when every subset entropy is an integer."""
        return self.denominator == 1

    def entropy(self, subset: SubsetLike) -> Fraction:
        return Fraction(self.entropy_scaled(self.ground.mask(subset)), self.denominator)

    def entropy_scaled(self, mask: int) -> int:
        """D * H(mask) for the common denominator D, ``denominator``."""
        return self.entropies[mask]

    def stepper(self, weight: int) -> PrefixStepper:
        """A fresh sweep's prefix steps, for rates on the scale weight*D."""
        return PrefixStepper(self.entropies, weight)

    def shortfall(self, mask: int, rates, weight: int) -> tuple | None:
        """``(C, shortfall)`` for the first proper subset C of X = ``mask``,
        in ascending mask order, with r(C) < weight * (H(X) - H(X minus C)),
        for ``rates`` on the scale weight*D by ground position; else None.

        At X = V the rate sums by mask and the table read backwards put
        C and V minus C at one index, as :meth:`split_minimum` pairs
        them, so one ``min`` over one ``map`` decides, and the first
        failing C is the first index of that list below weight * H(V).
        A smaller X walks its submasks one by one, which costs less than
        building the lists of their entropies."""
        table = self.entropies
        h_x = table[mask]
        if mask == self.ground.full_mask:
            sums = [0]
            for rate in rates:
                sums += [total + rate for total in sums]
            sums.pop()  # C = V is no constraint
            rest = reversed(table)  # H(V minus C) at C's index
            if weight != 1:
                rest = map(mul, rest, repeat(weight))
            slack = list(map(add, sums, rest))
            need = weight * h_x
            if min(slack) >= need:
                return None
            return next((c, need - have) for c, have in enumerate(slack) if have < need)
        submasks, rate_sums = submask_sums(mask, rates)
        submasks.pop()  # C = X is no constraint; C = {} asks for nothing
        for c, have in zip(submasks, rate_sums):
            need = weight * (h_x - table[mask ^ c])
            if have < need:
                return c, need - have
        return None

    def split_minimum(self, mask: int) -> int:
        """The least D * (H(Y) + H(X minus Y)) over the nonempty proper
        subsets Y of X = ``mask``, which needs two users or more.

        The entropies of X's submasks, in the order that doubling lists
        them, pair each Y with its complement at the mirrored index, so
        one ``min`` over one ``map`` covers each split once; at X = V
        that list is the table itself, read without a copy."""
        table = self.entropies
        if mask == self.ground.full_mask:
            h = table
        else:
            submasks = [0]
            for pos in bit_positions(mask):
                submasks += [y | 1 << pos for y in submasks]
            h = list(map(table.__getitem__, submasks))
        half = len(h) // 2
        return min(map(add, islice(h, 1, half), islice(reversed(h), 1, half)))


class PacketSource(_SourceBase):
    """Users holding packets; entropy counts distinct packets.

    ``possession`` maps each user label to an iterable of packet ids.
    Users absent from the mapping hold nothing.
    """

    def __init__(self, ground: GroundSet, possession: Mapping):
        self.ground = ground
        unknown = set(possession) - set(ground.labels)
        if unknown:
            raise DomainError(f"possession lists unknown users: {sorted(map(str, unknown))}")
        self.possession = {
            label: frozenset(possession.get(label, ())) for label in ground.labels
        }

    @cached_property
    def packet_order(self) -> tuple:
        """Held packets in a fixed order; the simulator's column layout."""
        return tuple(sorted(frozenset().union(*self.possession.values()), key=_packet_key))

    def _entropy_table(self) -> list:
        holders = {}  # each held packet's holders as a mask
        for pos, label in enumerate(self.ground.labels):
            bit = 1 << pos
            for packet in self.possession[label]:
                holders[packet] = holders.get(packet, 0) | bit
        return _meeting_counts(Counter(holders.values()), len(self.ground.labels))


class TableSource(_SourceBase):
    """An explicit entropy table covering every subset.

    ``table`` maps subset masks to rationals (ints, Fractions or
    ``"p/q"`` strings, never floats or bools) and must cover all 2^|V|
    subsets.  The values are stored scaled by the lcm of their
    denominators.  With ``validate=True`` (the default) the polymatroid
    axioms are checked up front so that a bad table fails loudly here
    instead of mysteriously inside an optimization loop.
    """

    def __init__(self, ground: GroundSet, table: Mapping, validate: bool = True):
        self.ground = ground
        values = table.values()
        try:
            by_mask = dict(zip(map(ground.mask, table), values))  # a later key replaces an earlier
            ratios = _read_values(values)
        except (DomainError, FormatError, TypeError):  # TypeError: an unhashable value
            for key, value in table.items():  # again in order, so the first bad entry raises
                mask = ground.mask(key)
                try:
                    parse_fraction(value)
                except FormatError:  # parse again, naming only the bad entry's subset
                    parse_fraction(value, where=f"entropy of {ground.format(mask)}")
            raise
        size = ground.full_mask + 1
        if len(by_mask) < size:
            missing = [mask for mask in range(size) if mask not in by_mask]
            first = ground.format(missing[0])
            raise DomainError(f"entropy table misses {len(missing)} subsets, first {first}")
        ordered = list(map(by_mask.__getitem__, range(size)))
        del by_mask  # the validation needs room for its own ints
        kept = {value: ratios[value] for value in set(ordered)}  # a replaced value sets no scale
        self._fill(ordered, kept, validate)

    @classmethod
    def _from_values(cls, ground: GroundSet, values: list, ratios: dict, validate: bool):
        """The table H(mask) = ``values[mask]``, with ``ratios`` from
        :func:`_read_values` holding the distinct values."""
        source = cls.__new__(cls)
        source.ground = ground
        source._fill(values, ratios, validate)
        return source

    def _fill(self, values: list, ratios: dict, validate: bool) -> None:
        """Store ``values`` on the scale of the lcm of the denominators in
        ``ratios``, which must hold exactly the distinct values."""
        self.denominator = lcm(*(den for _, den in ratios.values()))
        scaled = {value: num * (self.denominator // den) for value, (num, den) in ratios.items()}
        self.entropies = list(map(scaled.__getitem__, values))
        if validate:
            self._check_polymatroid()

    def _check_polymatroid(self) -> None:
        report = validate_polymatroid(self)
        if not report.ok:
            raise DomainError("entropy table is not a polymatroid:\n" + report.summary())

    @classmethod
    def _from_ints(cls, ground: GroundSet, entropies: list, denominator: int) -> "TableSource":
        """The unvalidated table H(mask) = entropies[mask] / denominator,
        reduced by the gcd as the public constructor would store it."""
        common = gcd(denominator, *entropies)
        source = cls.__new__(cls)
        source.ground = ground
        source.denominator = denominator // common
        source.entropies = [e // common for e in entropies] if common > 1 else entropies
        return source


Source = PacketSource | TableSource


def _read_values(values) -> dict:
    """Each distinct value in ``values`` as :func:`_ratio` reads it, told
    apart by type too: True, 1.0 and 1 are equal keys, and the values
    read without an error are equal as rationals."""
    return {value: _ratio(value) for _, value in set(zip(map(type, values), values))}


def _ratio(value) -> tuple:
    """An entropy value as a reduced ``(numerator, denominator)`` int pair.

    A JSON int and an ASCII ``"digits"`` or ``"digits/digits"`` string
    with a nonzero denominator are read by ``int`` alone; every other
    value, signs, spaces, ``_``, decimals and non-ASCII digits included,
    goes through :func:`parse_fraction` and its messages."""
    if type(value) is int:
        return value, 1
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        if num.isdigit() and (den.isdigit() or not slash):
            try:
                num, den = int(num), int(den or 1)
            except ValueError:  # beyond int()'s digit limit: parse_fraction refuses it too
                pass
            else:
                if den:
                    return num // gcd(num, den), den // gcd(num, den)
    value = parse_fraction(value)
    return value.numerator, value.denominator


class Violation(NamedTuple):
    kind: str  # "normalization" | "monotonicity" | "submodularity"
    detail: str


class PolymatroidReport(NamedTuple):
    ok: bool
    violations: tuple

    def summary(self) -> str:
        if self.ok:
            return "polymatroid axioms hold (normalized, monotone, submodular)"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  [{v.kind}] {v.detail}" for v in self.violations]
        return "\n".join(lines)


def validate_polymatroid(source: Source) -> PolymatroidReport:
    """Check normalization, monotonicity and submodularity exhaustively.

    Monotonicity is checked one element at a time and submodularity on
    all triples (C, i, j), the local characterization equivalent to the
    pairwise form: i's marginal H(C + i) - H(C) must be nonnegative and
    must not grow when j joins C.  Every violated case is reported,
    ordered by C, then i, then monotonicity before the pairs (i, j) by j.

    The checks are whole-int passes over the int entropy table packed by
    :func:`_pack`, a slot per mask, each slot's top bit G its guard bit
    and the bit below it its half.  Per user j, shifting the packed
    table P right by 2^j slots and adding (half - P) gives D_j, with
    j's marginal plus half in C's slot: never negative, so a shift of
    D_j drops whole slots.  One subtraction then compares
    every C at once: ``(G - 1 + half) - D_j`` for monotonicity and
    ``(G - 1 - D_j) + (D_j >> 2^i slots)`` for the pair (i, j) with
    i < j.  No slot carries into or borrows from the next, and its guard
    bit comes out set exactly where H(C) > H(C + j), or where
    H(C) + H(C + i + j) > H(C + i) + H(C + j).  The guard bits of the
    slots C without i, by which the results are masked, come from those
    without i + 1 by one shift and one xor.  That is |V|(|V|+1)/2
    subtractions over 2^|V| slots, none in an interpreted loop, and
    about a dozen such ints alive at once whatever |V| (README, "File
    formats", gives times).  Only the violated cases are formatted,
    with values as Fractions; a loaded table's values were read by
    :func:`_ratio`.
    """
    h = source.entropies
    size, n = len(h), source.ground.size
    packed, k = _pack(h)
    width = 8 * k  # the bits of a slot

    def spread(slot: bytes, count: int = size) -> int:
        """``count`` slots, lowest first, each holding ``slot``."""
        return int.from_bytes(slot * count, "little")

    def guard_slots(bits: int) -> Iterable:
        """The slots whose guard bit ``bits`` sets, ascending."""
        return compress(range(size), bits.to_bytes(size * k, "little")[k - 1 :: k])

    halves = spread(bytes(k - 1) + b"\x40")
    lifted = halves - packed
    below = spread(b"\xff" * (k - 1) + b"\x7f")  # G - 1 in every slot
    clear = spread(bytes(k - 1) + b"\x80", size >> 1)  # the guard bits of the sets without j
    found = []  # (C, i, j) with j = -1 for a monotonicity case
    for j in reversed(range(n)):
        marginal = (packed >> (width << j)) + lifted  # D_j
        upper = below - marginal
        violated = clear & (upper + halves)
        if violated:
            found += [(c, j, -1) for c in guard_slots(violated)]
        without = clear  # then the guard bits of the sets without i
        for i in reversed(range(j)):
            shift = width << i
            without ^= without << shift
            violated = clear & without & (upper + (marginal >> shift))
            if violated:
                found += [(c, i, j) for c in guard_slots(violated)]
        if j:
            clear ^= clear << (width << j - 1)

    def term(mask: int) -> str:
        return f"H({source.ground.format(mask)})"

    def value(scaled: int) -> Fraction:
        return Fraction(scaled, source.denominator)

    violations = []
    if h[0] != 0:
        violations.append(Violation("normalization", f"H({{}}) = {value(h[0])}, expected 0"))
    for c, i, j in sorted(found):
        ci = c | 1 << i
        if j < 0:
            detail = f"{term(c)} = {value(h[c])} > {value(h[ci])} = {term(ci)}"
            violations.append(Violation("monotonicity", detail))
        else:
            cj, cij = c | 1 << j, ci | 1 << j
            detail = (
                f"{term(ci)} + {term(cj)} = {value(h[ci] + h[cj])} < "
                f"{value(h[cij] + h[c])} = {term(cij)} + {term(c)}"
            )
            violations.append(Violation("submodularity", detail))
    return PolymatroidReport(not violations, tuple(violations))


def _pack(h: list) -> tuple:
    """``(P, k)``: the ints ``h`` less their minimum, packed into the
    int P lowest first, in k-byte slots.  k is the fewest of 1, 2, 4 or
    8 bytes, or beyond that of any number of bytes, whose top bit, the
    guard bit, lies above twice the largest shifted value: a slot then
    holds the guard bit less one plus or minus twice any value without
    a carry or borrow into the next slot."""
    low = min(h)
    if low:
        h = list(map(sub, h, repeat(low)))
    k = ((2 * max(h)).bit_length() + 8) // 8
    if k > 8:
        data = b"".join(map(int.to_bytes, h, repeat(k), repeat("little")))
    else:
        k = 1 << (k - 1).bit_length()
        data = struct.pack(f"<{len(h)}{'BHIQ'[k.bit_length() - 1]}", *h)
    return int.from_bytes(data, "little"), k


def _meeting_counts(counts: Mapping, n: int) -> list:
    """For each mask S of ``n`` users, how many packets have a holder
    in S, given ``counts``: how many packets the users of each mask hold
    alone.  The counts sit in one int in k-byte slots, slot T holding
    the packets held by exactly T; one shift and add per user adds to
    each slot its submasks' (a zeta transform), so slot T holds the
    packets held inside T, and the packets meeting S are all of them
    less slot V minus S: the slots read backwards.  k is the fewest of
    1, 2, 4 or 8 bytes that holds the packet count."""
    total = sum(counts.values())
    k = 1
    while total >> 8 * k:
        k *= 2
    code = "BHIQ"[k.bit_length() - 1]
    width, size = 8 * k, 1 << n
    slots = bytearray(size * k)
    cells = memoryview(slots).cast(code)
    for held_by, count in counts.items():
        cells[held_by] = count
    inside = int.from_bytes(slots, sys.byteorder)
    every = (1 << width * size) - 1
    without = every  # the slots of the sets without user n: all of them
    for pos in reversed(range(n)):
        shift = width << pos
        without ^= without << shift  # the slots without user pos, and bits above the table
        inside += (inside & without) << shift
    outside = total * (every // ((1 << width) - 1)) - inside  # H(V minus T) in slot T
    return memoryview(outside.to_bytes(size * k, sys.byteorder)).cast(code)[::-1].tolist()


def reorder(source: Source, labels: Iterable) -> Source:
    """The same source over a permuted user order.

    The order matters: subset masks, prefix sets and therefore the
    subset-search trajectory all follow it.
    """
    new_ground = GroundSet(tuple(labels))
    if set(new_ground.labels) != set(source.ground.labels):
        raise DomainError("reorder must use exactly the existing user labels")
    if isinstance(source, PacketSource):
        return PacketSource(new_ground, source.possession)
    # old_masks[m] is the old mask of the users in the new mask m
    old_masks = [0]
    for label in new_ground.labels:
        bit = source.ground.bit(label)
        old_masks += [old | bit for old in old_masks]
    table = source.entropies
    return TableSource._from_ints(new_ground, [table[old] for old in old_masks], source.denominator)


def _scalar(value, what: str):
    """``value``, if a file can hold it: a JSON string, number or null.
    A bool is refused: ``true`` would name the same packet or user as 1;
    so are NaN and the infinities, which are not JSON."""
    if isinstance(value, bool) or not (value is None or isinstance(value, (str, int, float))):
        raise FormatError(f"{what} must be strings, numbers or null, got {brief(value)}")
    if isinstance(value, float) and not isfinite(value):
        raise FormatError(f"{what} must be finite numbers, got {brief(value)}")
    return value


def _packet_id(value, what: str):
    """``value``, if a file can hold it as a packet id: a scalar, and no
    float that is integral (``1.0`` would name the same packet as ``1``)
    or not finite."""
    if isinstance(value, float) and (value.is_integer() or not isfinite(value)):
        raise FormatError(f"{what} must not be integral or non-finite floats, got {brief(value)}")
    return _scalar(value, what)


def _packet_key(packet) -> tuple:
    """Packet ids in order of their text, then of their type, so that
    ``1`` and ``"1"`` fall in the same order in every process."""
    return str(packet), type(packet).__name__


#: The types of the packet ids that need no check one by one.
_PLAIN_IDS = frozenset((str, int, type(None)))


def _checked_ids(ids, what: str):
    """``ids``, once each is a packet id a file can hold: a collection
    of strings, ints and nulls passes in one test of its types, any
    other goes through :func:`_packet_id` id by id, in order, so the
    first bad id is the one named."""
    if not _PLAIN_IDS.issuperset(map(type, ids)):
        for packet in ids:
            _packet_id(packet, what)
    return ids


def _label_lookup(ground: GroundSet) -> dict:
    """Each label by ``str(label)``, its name in files; refuses others and collisions."""
    lookup = {}
    for label in ground.labels:
        key = str(_scalar(label, "user labels"))
        if key in lookup:
            named = f"{brief(lookup[key])} and {brief(label)}"
            raise FormatError(f"user labels {named} collide as {brief(key)}")
        lookup[key] = label
    return lookup


def _check_table_labels(ground: GroundSet) -> None:
    """Table keys join labels with commas and name the empty set by ""."""
    for label in ground.labels:
        if not str(label) or "," in str(label):
            raise FormatError(f"table sources need nonempty comma-free labels, got {brief(label)}")


def source_from_dict(data, validate: bool = True) -> Source:
    """Build a source from the JSON structure documented in the module
    docstring.  Raises :class:`FormatError` on malformed input.
    ``validate=False`` skips the table polymatroid gate."""
    if not isinstance(data, dict):
        raise FormatError("source document must be a JSON object")
    model = data.get("model")
    if model not in (PACKET_MODEL, TABLE_MODEL):
        raise FormatError(f"unknown source model {brief(model)}; expected 'packet' or 'table'")
    users = data.get("users")
    if not isinstance(users, list) or not users:
        raise FormatError("'users' must be a nonempty list")
    try:
        ground = GroundSet(tuple(users))
    except DomainError as exc:
        raise FormatError(str(exc)) from None
    lookup = _label_lookup(ground)

    if model == PACKET_MODEL:
        packets = data.get("packets")
        if not isinstance(packets, dict):
            raise FormatError("'packets' must map users to packet-id lists")
        unknown = [key for key in packets if key not in lookup]
        if unknown:
            raise FormatError(f"'packets' lists unknown users: {brief(unknown)}")
        possession = {}
        for key, ids in packets.items():
            if not isinstance(ids, list):
                raise FormatError(f"packets for user {key} must be a list")
            possession[lookup[key]] = _checked_ids(ids, f"packet ids for user {key}")
        return PacketSource(ground, possession)

    _check_table_labels(ground)
    raw = data.get("entropy")
    if not isinstance(raw, dict):
        raise FormatError("'entropy' must map subset keys to rationals")
    try:
        return _table_from_dict(ground, lookup, raw, validate)
    except DomainError as exc:
        raise FormatError(str(exc)) from None


_ABSENT = object()  # a subset that an entropy dict does not name


def _table_from_dict(ground: GroundSet, lookup: dict, raw: dict, validate: bool) -> TableSource:
    """The table of the ``entropy`` dict ``raw``, read by each subset's
    key text from :meth:`GroundSet.subset_texts`, with "" defaulting to
    0.  Only when those texts do not account for every key, or a value
    cannot be read, does each key go through the parse below, whose
    refusals name the first bad key or value in file order."""
    values = list(map(raw.get, ground.subset_texts(), chain((0,), repeat(_ABSENT))))
    if len(raw) == len(values) - ("" not in raw) and _ABSENT not in values:
        try:
            ratios = _read_values(values)
        except (FormatError, TypeError):  # TypeError: an unhashable value
            pass
        else:
            return TableSource._from_values(ground, values, ratios, validate)
    del values
    bits = {text: ground.bit(label) for text, label in lookup.items()}
    table = {}
    for key, value in raw.items():
        if not isinstance(key, str):
            raise FormatError("entropy keys must be strings")
        parts = key.split(",") if key else ()
        try:  # distinct bits sum to their union
            mask = sum(map(bits.__getitem__, parts))
        except KeyError as exc:
            unknown = brief(exc.args[0])
            raise FormatError(f"entropy key {brief(key)} names unknown user {unknown}") from None
        if mask.bit_count() < len(parts):  # a carry: some bit was added twice
            twice = next(part for k, part in enumerate(parts) if part in parts[:k])
            raise FormatError(f"entropy key {brief(key)} names user {brief(twice)} twice")
        if mask in table:
            raise FormatError(f"entropy key {brief(key)} repeats a subset")
        table[mask] = value
    table.setdefault(0, 0)
    return TableSource(ground, table, validate=validate)


def source_to_dict(source: Source) -> dict:
    """The module docstring's JSON structure; refuses labels the loader refuses."""
    ground = source.ground
    _label_lookup(ground)
    if isinstance(source, PacketSource):
        return {
            "model": PACKET_MODEL,
            "users": list(ground.labels),
            "packets": {
                str(label): sorted(_checked_ids(source.possession[label], "packet ids"), key=_packet_key)
                for label in ground.labels
            },
        }
    _check_table_labels(ground)
    return {
        "model": TABLE_MODEL,
        "users": list(ground.labels),
        "entropy": {
            text: str(source.entropy(mask)) for mask, text in enumerate(ground.subset_texts())
        },
    }


def load_source(path, validate: bool = True) -> Source:
    """Read a source JSON file.  ``validate=False`` skips the table
    polymatroid gate so a defective table can still be inspected.  The
    gate runs once the parsed document is freed, so its ints and the
    ground's kept subset texts need no room beside the document."""
    source = source_from_dict(read_json(path), validate=False)
    if validate and isinstance(source, TableSource):
        try:
            source._check_polymatroid()
        except DomainError as exc:
            raise FormatError(str(exc)) from None
    return source


def dump_source(source: Source, path) -> None:
    text = json_text(source_to_dict(source))
    with open(path, "w") as fh:
        fh.write(text)
