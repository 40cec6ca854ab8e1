"""Ground-set indexing, exact rationals, set partitions, and rate vectors.

Subsets of the ground set are plain ``int`` bitmasks over the fixed user
order: bit ``k`` stands for the user at position ``k``, so the prefix of
the first ``i`` users is ``(1 << i) - 1``.  Every numeric quantity that
crosses the package's interface is a :class:`fractions.Fraction`; inside,
entropies and sweep rates are ints on a common scale.  Nothing is rounded
and no comparison uses a tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

#: Hard cap on the number of users.  Every source keeps an entropy table
#: over all 2^|V| subsets and every prefix sweep and certificate visits
#: them all, so time and memory double with each user: a minimum sum-rate
#: of a packet source takes about 0.01 s at 14 users and 0.56-0.60 s at
#: 20, and the whole ``minrate`` command there peaks at 56 MiB.
#: ``enumerate`` makes 3^n / 2 candidate visits, 9 times more per 2 users:
#: about 11 s at 16 users, so roughly 15 min at 20 (extrapolated, not run;
#: README, Design notes).  Loading and validating a 20-user entropy table
#: (a 42 MB file) takes about 5 s and peaks at 356 MiB while the JSON is
#: parsed; a table whose values need 8-byte slots takes about 10 s and
#: 407 MiB (README, File formats).
MAX_USERS = 20


class SoplanError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SoplanError):
    """An argument lies outside an operation's domain."""


class FormatError(SoplanError):
    """An input file or serialized structure is malformed."""


class CertificationError(SoplanError):
    """A result failed its own a-posteriori certificate.

    This signals an implementation bug, not bad user input.
    """


SubsetLike = Union[int, Iterable]


def brief(value, limit: int = 80) -> str:
    """``repr(value)`` for an error message, cut to ``limit`` characters
    with a trailing "..." when longer, so a deeply nested or huge input
    cannot swamp the message that names it."""
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def parse_fraction(value, where: str = "value") -> Fraction:
    """Parse an exact rational from ``"p/q"`` / ``"n"`` strings or ints.

    Floats are rejected: they would silently break exactness.
    """
    if isinstance(value, bool):
        raise FormatError(f"{where}: expected a rational, got a bool")
    if isinstance(value, float):
        raise FormatError(f"{where}: floats are not accepted, use a 'p/q' string")
    if not isinstance(value, (str, int, Fraction)):
        raise FormatError(f"{where}: cannot read a rational from {type(value).__name__}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{where}: not a rational: {brief(value)}") from exc


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not a JSON value")


def read_json(path):
    """The JSON document in file ``path``, or :class:`FormatError`.

    Strict JSON only: Python's reader also takes ``NaN`` and
    ``Infinity``, which no file of this package may hold, and keeps the
    last of two equal names in one object, which would let a file give
    one subset two entropies or one user two packet lists unnoticed."""

    def unique_names(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            twice = next(name for name, _ in pairs if name in seen or seen.add(name))
            raise FormatError(f"{path} names {brief(twice)} twice in one object")
        return obj

    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_refuse_constant, object_pairs_hook=unique_names)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # bad syntax or text, a refused constant, an int too long to read
        raise FormatError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError(f"{path} nests too deeply to read") from None


def json_text(data) -> str:
    """``data`` as every JSON file of this package is written: strict
    JSON, so a file soplan writes is one it reads."""
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def bit_positions(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submask_sums(mask: int, values: Sequence) -> tuple:
    """Every submask of ``mask`` in ascending numeric order, with the sum
    of ``values`` (indexed by ground position) over it.

    Returns two lists of length 2^popcount(mask), ``(submasks, sums)``.
    Each element of ``mask``, lowest first, doubles both lists, so
    building them costs one addition per submask.
    """
    submasks, sums = [0], [0]
    for pos in bit_positions(mask):
        bit, value = 1 << pos, values[pos]
        submasks += [sub | bit for sub in submasks]
        sums += [total + value for total in sums]
    return submasks, sums


@dataclass(frozen=True)
class GroundSet:
    """The ordered set of users.

    The position of a label in ``labels`` fixes the bit used for that
    user in every subset mask, the prefix sets scanned by the rate
    update loop, and all tie-breaking.
    """

    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 2:
            raise DomainError("a ground set needs at least two users")
        if len(labels) > MAX_USERS:
            raise DomainError(
                f"at most {MAX_USERS} users are supported: every sweep visits "
                f"every subset"
            )
        index = {}
        for pos, label in enumerate(labels):
            try:
                hash(label)
            except TypeError:
                raise DomainError(f"user label {brief(label)} is not hashable") from None
            if label in index:
                raise DomainError(f"duplicate user label {brief(label)}")
            index[label] = pos
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "full_mask", (1 << len(labels)) - 1)

    @property
    def size(self) -> int:
        return len(self.labels)

    def position(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DomainError(f"unknown user {brief(label)}") from None

    def bit(self, label) -> int:
        return 1 << self.position(label)

    def mask(self, subset: SubsetLike) -> int:
        """Normalize a subset given as a bitmask or an iterable of labels.

        An ``int`` argument is always read as a bitmask, never as a
        single label; pass ``[label]`` for a singleton.
        """
        if isinstance(subset, int):
            if not 0 <= subset <= self.full_mask:
                raise DomainError(f"mask {subset:#x} is out of range for {self.size} users")
            return subset
        mask = 0
        for label in subset:
            mask |= self.bit(label)
        return mask

    def labels_of(self, mask: int) -> tuple:
        return tuple(self.labels[pos] for pos in bit_positions(self.mask(mask)))

    def format(self, mask: int) -> str:
        return "{%s}" % ",".join(str(label) for label in self.labels_of(mask))


@dataclass(frozen=True)
class RateVector:
    """Per-user transmission rates with an explicit domain.

    ``values`` holds one Fraction per ground position; positions outside
    ``domain`` are structurally zero.  Entries may be negative while an
    update loop is running; final results are certified separately.
    """

    ground: GroundSet
    values: tuple
    domain: int

    def __post_init__(self):
        labels = self.ground.labels
        if len(self.values) != len(labels):
            raise DomainError("rate vector length does not match the ground set")
        # a Fraction is kept as it is; anything else is parsed, or refused
        values = tuple(
            v if type(v) is Fraction else parse_fraction(v, where=f"rate for {label!r}")
            for label, v in zip(labels, self.values)
        )
        domain = self.ground.mask(self.domain)
        for pos, value in enumerate(values):
            if not domain >> pos & 1 and value != 0:
                raise DomainError(
                    f"nonzero rate for {self.ground.labels[pos]!r} outside the domain"
                )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "domain", domain)

    @classmethod
    def from_map(
        cls,
        ground: GroundSet,
        rates: Mapping,
        domain: SubsetLike | None = None,
    ) -> "RateVector":
        values = [0] * ground.size
        for label, value in rates.items():
            values[ground.position(label)] = value
        mask = ground.full_mask if domain is None else ground.mask(domain)
        return cls(ground, tuple(values), mask)

    @classmethod
    def zeros(cls, ground: GroundSet, domain: SubsetLike | None = None) -> "RateVector":
        return cls.from_map(ground, {}, domain)

    def rate(self, label) -> Fraction:
        return self.values[self.ground.position(label)]

    def sum_over(self, subset: SubsetLike) -> Fraction:
        """Sum of rates over ``subset``; the subset must lie inside the
        domain."""
        mask = self.ground.mask(subset)
        if mask & ~self.domain:
            raise DomainError(
                f"subset {self.ground.format(mask)} is not inside the rate "
                f"vector's domain {self.ground.format(self.domain)}"
            )
        return sum((self.values[pos] for pos in bit_positions(mask)), Fraction(0))

    @property
    def total(self) -> Fraction:
        return self.sum_over(self.domain)

    def __add__(self, other: "RateVector") -> "RateVector":
        if not isinstance(other, RateVector):
            return NotImplemented
        if other.ground is not self.ground and other.ground != self.ground:
            raise DomainError("cannot add rate vectors over different ground sets")
        values = tuple(a + b for a, b in zip(self.values, other.values))
        return RateVector(self.ground, values, self.domain | other.domain)

    def as_dict(self) -> dict:
        """Each user of the domain mapped to its rate."""
        labels = self.ground.labels
        return {labels[pos]: self.values[pos] for pos in bit_positions(self.domain)}

    def format(self) -> str:
        parts = [
            f"{label}:{self.values[pos]}"
            for pos, label in enumerate(self.ground.labels)
            if self.domain >> pos & 1
        ]
        return "(" + ", ".join(parts) + ")"


@dataclass(frozen=True)
class Partition:
    """A set partition stored as disjoint block bitmasks.

    Blocks are kept in canonical order, sorted by their lowest member,
    which is exactly the order the restricted-growth enumeration emits.
    """

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(sorted((int(b) for b in self.blocks), key=lambda b: b & -b))
        if not blocks:
            raise DomainError("a partition needs at least one block")
        union = 0
        total_bits = 0
        for block in blocks:
            if block <= 0:
                raise DomainError("partition blocks must be nonempty masks")
            union |= block
            total_bits += block.bit_count()
        if total_bits != union.bit_count():
            raise DomainError("partition blocks overlap")
        object.__setattr__(self, "blocks", blocks)

    @property
    def union(self) -> int:
        result = 0
        for block in self.blocks:
            result |= block
        return result

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

