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
from fractions import Fraction
from itertools import islice, repeat
from operator import add
from typing import Iterable, Iterator, Mapping, Union

#: Hard cap on the number of users.  Every source keeps an entropy table
#: over all 2^|V| subsets and every prefix sweep and certificate visits
#: them all, so time and memory double with each user: a minimum sum-rate
#: of a packet source takes about 0.01 s at 14 users and 0.56-0.60 s at
#: 20, and the whole ``minrate`` command there peaks at 56 MiB.
#: ``enumerate`` makes 3^n / 2 candidate visits, 9 times more per 2 users:
#: about 8 s at 16 users, so roughly 11 min at 20 (extrapolated, not run;
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


def subset_sums(values: Iterable) -> list:
    """The sum of ``values[k]`` over the bits k of m, for every m below
    2^len(values), built by doubling: each value, first to last, doubles
    the list, so building it costs one addition per entry.

    Bits or disjoint masks sum to their union, so the bits of X's users,
    lowest first, give X's submasks, entry m placing m's bits on X's
    users: in ascending mask order, a layout that
    :meth:`~soplan.sources._SourceBase.shortfall` (the first failing
    subset) and ``split_minimum`` (each subset's complement at the
    mirrored index) rely on.  X's users' rates, in the same order, give
    each of those submasks' rate sum at the same index.
    """
    sums = [0]
    for value in values:
        sums += [total + value for total in sums]
    return sums


class Record:
    """The shared behaviour of the public value types (:class:`GroundSet`,
    :class:`RateVector`, :class:`Partition`, the plan's ``Stage`` and
    :class:`~soplan.multistage.StagePlan`).

    A subclass lists its attributes in ``__slots__``, names the ones
    that make up its value, in constructor order, in ``_fields``, and
    sets them once in ``__init__`` through :meth:`_init`.  Its
    objects then compare equal to objects of the same type holding
    equal fields and hash alike, print as ``Name(field=value, ...)``,
    copy and pickle by calling the constructor again, and refuse
    assignment with :class:`AttributeError`.

    Two choices are deliberate.  Record types are written out instead of
    generated by :mod:`dataclasses`: importing it pulls in ``inspect``
    and ``ast``, and it builds each class's methods by ``exec``, which
    together made up about a third of a fresh ``import soplan.cli``.  The
    internal records are :class:`typing.NamedTuple` classes, and
    ``submodular.SfmResult``, the ints that every sweep step returns, a
    plain slotted class.  Imports
    are eager: importing :mod:`soplan.cli` imports every module of the
    package, because the benchmark times jobs in process, and a module
    imported late would be charged to the first job that needs it.
    """

    __slots__ = ()
    _fields: tuple = ()

    def _init(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GroundSet(Record):
    """The ordered set of users.

    The position of a label in ``labels`` fixes the bit used for that
    user in every subset mask, the prefix sets scanned by the rate
    update loop, and all tie-breaking.
    """

    __slots__ = ("labels", "_index", "full_mask")
    _fields = ("labels",)

    def __init__(self, labels: tuple):
        labels = tuple(labels)
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
        self._init(labels=labels, _index=index, full_mask=(1 << len(labels)) - 1)

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
        single label; pass ``[label]`` for a singleton.  A bool is
        refused: ``True`` would read as the first user's mask.
        """
        if isinstance(subset, bool):
            raise DomainError(f"subsets must be int masks or iterables of labels, not {subset!r}")
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
        labels = self.labels
        return "{%s}" % ",".join([str(labels[pos]) for pos in bit_positions(self.mask(mask))])

    def subset_texts(self) -> list:
        """Each subset's labels' texts in ground order joined with commas,
        by mask, "" for the empty set, built by doubling: the inside of
        :meth:`format` for every mask at once, and an entropy table's
        key for each subset.  Each call builds a new list, so no ground
        holds 2^|V| texts beyond its caller's use of them."""
        texts = [""]
        for label in self.labels:
            text = str(label)
            texts.append(text)
            texts += map(add, islice(texts, 1, len(texts) - 1), repeat("," + text))
        return texts


class RateVector(Record):
    """Per-user transmission rates with an explicit domain.

    ``values`` holds one Fraction per ground position; positions outside
    ``domain`` are structurally zero.  Entries may be negative while an
    update loop is running; final results are certified separately.
    """

    __slots__ = _fields = ("ground", "values", "domain")

    def __init__(self, ground: GroundSet, values: tuple, domain: int):
        labels = ground.labels
        if len(values) != len(labels):
            raise DomainError("rate vector length does not match the ground set")
        # a Fraction is kept as it is; anything else is parsed, or refused
        values = tuple(
            v if type(v) is Fraction else parse_fraction(v, where=f"rate for {label!r}")
            for label, v in zip(labels, values)
        )
        domain = ground.mask(domain)
        for pos, value in enumerate(values):
            if not domain >> pos & 1 and value != 0:
                raise DomainError(f"nonzero rate for {labels[pos]!r} outside the domain")
        self._init(ground=ground, values=values, domain=domain)

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


class Partition(Record):
    """A set partition stored as disjoint block bitmasks.

    Blocks are kept in canonical order, sorted by their lowest member,
    which is exactly the order the restricted-growth enumeration emits.
    """

    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks: tuple):
        blocks = tuple(blocks)
        for block in blocks:
            if not isinstance(block, int) or isinstance(block, bool):
                raise DomainError(f"partition blocks must be int masks, not {brief(block)}")
        blocks = tuple(sorted(blocks, key=lambda b: b & -b))
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
        self._init(blocks=blocks)

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

