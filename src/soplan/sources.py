"""Entropy models for correlated sources.

Two interchangeable models expose ``entropy(subset) -> Fraction``:

* :class:`PacketSource` - each user holds a set of packets; the entropy
  of a subset is the number of distinct packets its members hold.
* :class:`TableSource` - an explicit entropy value for every subset,
  validated against the polymatroid axioms at load time.

Sources are immutable after construction.  Sweeps, verdicts, bounds
and merges ask a source three queries instead of indexing its table:
``entropy_scaled(mask)``, the int D * H(mask) for the common
``denominator`` D; ``stepper(weight)``, one sweep's prefix steps; and
``shortfall``, the achievability loop.  All three read one list of ints,
``entropies``, with D * H(mask) for all 2^|V| masks, built on first
use; ``entropy`` reads ``entropy_scaled`` back as a reduced Fraction.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isfinite, lcm
from typing import Iterable, Mapping

from .core import (
    DomainError,
    FormatError,
    GroundSet,
    SubsetLike,
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
    builds in ``_entropy_table`` or on construction, the three queries
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
        for ``rates`` on the scale weight*D by ground position; else None."""
        table = self.entropies
        h_x = table[mask]
        submasks, rate_sums = submask_sums(mask, rates)
        submasks.pop()  # C = X is no constraint; C = {} asks for nothing
        for c, have in zip(submasks, rate_sums):
            need = weight * (h_x - table[mask ^ c])
            if have < need:
                return c, need - have
        return None


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
        held = frozenset().union(*self.possession.values())
        #: Held packets in a fixed order; the simulator's column layout.
        self.packet_order = tuple(sorted(held, key=_packet_key))
        packet_index = {packet: k for k, packet in enumerate(self.packet_order)}
        self._user_bits = tuple(
            sum(1 << packet_index[p] for p in self.possession[label])
            for label in ground.labels
        )

    def _entropy_table(self) -> list:
        # union[m | bit] = union[m] | that user's packets, one user at a time
        union = [0]
        for bits in self._user_bits:
            union += [held | bits for held in union]
        return [held.bit_count() for held in union]


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
        parsed = [None] * (ground.full_mask + 1)
        for mask, value in table.items():
            mask = ground.mask(mask)
            try:
                parsed[mask] = parse_fraction(value)
            except FormatError:  # parse again, naming the subset this time
                parse_fraction(value, where=f"entropy of {ground.format(mask)}")
        missing = [mask for mask, value in enumerate(parsed) if value is None]
        if missing:
            first = ground.format(missing[0])
            raise DomainError(f"entropy table misses {len(missing)} subsets, first {first}")
        self.denominator = lcm(*(value.denominator for value in parsed))
        self.entropies = [
            value.numerator * (self.denominator // value.denominator) for value in parsed
        ]
        if validate:
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


@dataclass(frozen=True)
class Violation:
    kind: str  # "normalization" | "monotonicity" | "submodularity"
    detail: str


@dataclass(frozen=True)
class PolymatroidReport:
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
    pairwise form.  Every violated case is reported.  Cost is
    O(2^|V| * |V|^2) int comparisons on the source's entropy table;
    values become Fractions only in the messages.
    """
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


def induced_table(source: Source) -> TableSource:
    """The explicit-table view of any source."""
    return TableSource._from_ints(source.ground, list(source.entropies), source.denominator)


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
        raise FormatError(f"{what} must be strings, numbers or null, got {value!r}")
    if isinstance(value, float) and not isfinite(value):
        raise FormatError(f"{what} must be finite numbers, got {value!r}")
    return value


def _packet_id(value, what: str):
    """``value``, if a file can hold it as a packet id: a scalar, and no
    float that is integral (``1.0`` would name the same packet as ``1``)
    or not finite."""
    if isinstance(value, float) and (value.is_integer() or not isfinite(value)):
        raise FormatError(f"{what} must not be integral or non-finite floats, got {value!r}")
    return _scalar(value, what)


def _packet_key(packet) -> tuple:
    """Packet ids in order of their text, then of their type, so that
    ``1`` and ``"1"`` fall in the same order in every process."""
    return str(packet), type(packet).__name__


def _label_lookup(ground: GroundSet) -> dict:
    """Each label by ``str(label)``, its name in files; refuses others and collisions."""
    lookup = {}
    for label in ground.labels:
        key = str(_scalar(label, "user labels"))
        if key in lookup:
            raise FormatError(f"user labels {lookup[key]!r} and {label!r} collide as {key!r}")
        lookup[key] = label
    return lookup


def _check_table_labels(ground: GroundSet) -> None:
    """Table keys join labels with commas and name the empty set by ""."""
    for label in ground.labels:
        if not str(label) or "," in str(label):
            raise FormatError(f"table sources need nonempty comma-free labels, got {label!r}")


def source_from_dict(data, validate: bool = True) -> Source:
    """Build a source from the JSON structure documented in the module
    docstring.  Raises :class:`FormatError` on malformed input.
    ``validate=False`` skips the table polymatroid gate."""
    if not isinstance(data, dict):
        raise FormatError("source document must be a JSON object")
    model = data.get("model")
    if model not in (PACKET_MODEL, TABLE_MODEL):
        raise FormatError(f"unknown source model {model!r}; expected 'packet' or 'table'")
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
            raise FormatError(f"'packets' lists unknown users: {unknown}")
        possession = {}
        for key, ids in packets.items():
            if not isinstance(ids, list):
                raise FormatError(f"packets for user {key} must be a list")
            possession[lookup[key]] = [_packet_id(p, f"packet ids for user {key}") for p in ids]
        return PacketSource(ground, possession)

    _check_table_labels(ground)
    raw = data.get("entropy")
    if not isinstance(raw, dict):
        raise FormatError("'entropy' must map subset keys to rationals")
    table = {}
    for key, value in raw.items():
        if not isinstance(key, str):
            raise FormatError("entropy keys must be strings")
        mask = 0
        if key:
            for part in key.split(","):
                if part not in lookup:
                    raise FormatError(f"entropy key {key!r} names unknown user {part!r}")
                mask |= ground.bit(lookup[part])
        if mask in table:
            raise FormatError(f"entropy key {key!r} repeats a subset")
        table[mask] = value
    table.setdefault(0, 0)
    try:
        return TableSource(ground, table, validate=validate)
    except DomainError as exc:
        raise FormatError(str(exc)) from None


def source_to_dict(source: Source) -> dict:
    """The module docstring's JSON structure; refuses labels the loader refuses."""
    ground = source.ground
    _label_lookup(ground)
    if isinstance(source, PacketSource):
        return {
            "model": PACKET_MODEL,
            "users": list(ground.labels),
            "packets": {
                str(label): sorted(
                    (_packet_id(p, "packet ids") for p in source.possession[label]),
                    key=_packet_key,
                )
                for label in ground.labels
            },
        }
    _check_table_labels(ground)
    return {
        "model": TABLE_MODEL,
        "users": list(ground.labels),
        "entropy": {
            ",".join(str(l) for l in ground.labels_of(mask)): str(source.entropy(mask))
            for mask in range(ground.full_mask + 1)
        },
    }


def load_source(path, validate: bool = True) -> Source:
    """Read a source JSON file.  ``validate=False`` skips the table
    polymatroid gate so a defective table can still be inspected."""
    return source_from_dict(read_json(path), validate)


def dump_source(source: Source, path) -> None:
    text = json_text(source_to_dict(source))
    with open(path, "w") as fh:
        fh.write(text)
