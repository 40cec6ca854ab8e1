"""Row-space arithmetic over prime fields GF(q).

Rows handed out are tuples of ints in ``[0, q)``; rows handed in may
hold any ints, taken mod q as they are reduced.  :class:`RowSpace` keeps
a reduced row-echelon basis incrementally, which is all the rank and
span-membership machinery the simulator needs.  Most rows in play are
unit rows (a user's own packet chunks), so a space takes a set of
covered columns whose unit rows it contains without storing them, and
keeps the other basis rows on the uncovered columns only: rank is the
number of covered columns plus one small residual elimination.  Unit
rows a space comes to hold can be turned into covered columns later
(:meth:`RowSpace.cover`).

Those other rows are stored in systematic form, [I | A]: a basis row is
1 at its own pivot and 0 at every other pivot, so only its entries on
the open columns, the uncovered columns that are no row's pivot, are
kept.  An r-row basis on f uncovered columns stores f - r entries per
row, not f.  Because the basis is fully reduced, a vector is reduced by
reading its entries at the pivot columns, with no elimination order to
follow, and whether the space holds a unit row is read off the basis
itself.  :meth:`RowSpace.combination` is the one way a basis is read
out or combined: :func:`random_combination` hands it coefficients drawn
by :func:`draw_coefficients`, value for value as ``rng.randrange(q)``
draws them.  Pure Python keeps everything exact."""

from __future__ import annotations

from bisect import bisect, bisect_left
from functools import lru_cache
from itertools import repeat
from operator import itemgetter, mul
from struct import Struct
from typing import Callable, Iterable, Sequence

from .core import DomainError, bit_positions


# Miller-Rabin with the primes up to 41 as bases decides primality
# exactly below this bound, the least strong pseudoprime to all of them
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=256, typed=True)
def is_prime(n: int) -> bool:
    """Exact primality for ``n`` below ``PRIME_TEST_LIMIT``; larger
    ``n`` raise :class:`DomainError`.  Verdicts are cached: every
    :class:`RowSpace` checks its field order."""
    if n >= PRIME_TEST_LIMIT:
        raise DomainError(
            f"field order {n} is beyond the exact primality test (orders must be "
            f"below {PRIME_TEST_LIMIT})"
        )
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than ``n``."""
    candidate = max(2, n + 1)
    while not is_prime(candidate):
        candidate += 1
    return candidate


def _getter(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``seq -> tuple(seq[i] for i in indices)``, run by ``itemgetter``
    (which returns a bare item, not a tuple, for one index)."""
    if len(indices) == 1:
        index = indices[0]
        return lambda seq: (seq[index],)
    if not indices:
        return lambda seq: ()
    return itemgetter(*indices)


_STRUCTS: dict = {}


def _slots_struct(count: int) -> Struct:
    """The struct of ``count`` little-endian 8-byte slots, one per count."""
    packer = _STRUCTS.get(count)
    if packer is None:
        packer = _STRUCTS[count] = Struct(f"<{count}Q")
    return packer


class RowSpace:
    """A subspace of GF(q)^width, maintained as a reduced echelon basis.

    The unit row of every column in the bitmask ``covered`` belongs to
    the space; these coordinate rows are implicit.  Every other basis
    row has leading entry 1 at its pivot column and is zero at covered
    columns and at every other pivot, so it is stored in systematic
    form: only its entries on the open columns, the uncovered columns
    that are no row's pivot, are kept; its 1 and its zeros are implicit.
    Stored rows are sorted by pivot (``pivots`` lists their columns).
    Reducing a vector subtracts one multiple of each stored row: the
    vector's own entry at that row's pivot.  With ``covered == 0`` this
    is a plain reduced echelon basis.

    A stored row is one int holding an entry per open column in a fixed
    number of bits, so a row operation is a single big-int multiply-add
    over the open columns only.  The open columns are kept in
    descending order, slot 0 (the low bits) holding the highest one.  A
    new pivot is the lowest nonzero column of a reduced vector, usually
    the lowest open column, so its slot is usually the top one:
    dropping it from the stored rows is a mask, and reading their
    entries there a shift with a small result.

    Entries are only meaningful mod q.  They are normalized in three
    places only: as a vector's entries are gathered to be reduced, once
    as a new row is scaled by the inverse of its pivot entry, and as a
    row is read out.  The slots of a reduced vector are read raw: its
    pivot is the highest slot that is nonzero mod q, and a slot above it
    may hold a nonzero multiple of q.  A row operation adds less than
    q*q to an entry, and at most one is applied per later pivot, so
    entries stay below (n + 1) * q^2 for n uncovered columns; a reduced
    vector or a combination adds at most n products of a multiplier
    below q with such an entry, so the slots are sized to hold
    (n + 1)^2 * q^3 and no sequence of operations can carry into the
    next slot.
    Dropping identity columns changes none of this: the open entries are
    the ones the full rows held.  A space made by :meth:`cover` has
    fewer uncovered columns but no more open ones, hence no more later
    pivots, so it keeps the slots and the bound of the space it came
    from, unless its own n allows narrower slots; then its rows are
    packed again, normalized.
    """

    __slots__ = (
        "q", "width", "covered", "rows", "pivots",
        "_open", "_bits", "_covered_columns", "_layout",
    )

    def __init__(self, q: int, width: int, *, covered: int = 0):
        if not is_prime(q):
            raise DomainError(f"field order {q} is not prime")
        if width < 0:
            raise DomainError("row width must be nonnegative")
        if covered < 0 or covered >> width:
            raise DomainError(f"covered columns must lie inside width {width}")
        self.q = q
        self.width = width
        self.covered = covered
        self._covered_columns = tuple(bit_positions(covered))
        self._open = [j for j in range(width - 1, -1, -1) if not covered >> j & 1]
        # slots of 8 bytes are packed by struct, wider ones byte by byte
        self._bits = 8 * max(-(-((len(self._open) + 1) ** 2 * q**3).bit_length() // 8), 8)
        self.rows: list = []  # packed, in pivot order
        self.pivots: list = []  # the stored rows' pivot columns
        self._layout = None  # see combination; reset when the basis grows

    def _pack(self, values: list) -> int:
        """The entries ``values``, slot 0 first, as one int."""
        if self._bits > 64:
            size = self._bits // 8
            return int.from_bytes(b"".join(value.to_bytes(size, "little") for value in values), "little")
        # a list, not an iterator, is unpacked into the call: an iterator
        # is collected into a tuple grown by repeated resizing, which
        # left the simulator's peak RSS about 1 MiB higher
        return int.from_bytes(_slots_struct(len(values)).pack(*values), "little")

    def _slots(self, packed: int) -> Sequence[int]:
        """The raw entries of a packed row over the open columns, slot 0
        first: congruent to the row's entries mod q, not normalized."""
        count = len(self._open)
        if self._bits > 64:
            size = self._bits // 8
            data = packed.to_bytes(size * count, "little")
            return [int.from_bytes(data[k:k + size], "little") for k in range(0, len(data), size)]
        return _slots_struct(count).unpack(packed.to_bytes(8 * count, "little"))

    def _unpack(self, packed: int) -> list:
        """The entries of a packed row over the open columns, slot 0
        first, normalized mod q."""
        q = self.q
        return [value % q for value in self._slots(packed)]

    def _reduce(self, row: Sequence[int]) -> int:
        """``row`` minus its multiple of each stored row, packed over the
        open columns; its entries at the pivots are zero."""
        if len(row) != self.width:
            raise DomainError(f"row width {len(row)} != {self.width}")
        if not self._open:
            return 0  # the space is everything: every row reduces to zero
        q = self.q
        packed = self._pack([row[column] % q for column in self._open])
        # every other stored row is zero at a row's pivot, so the
        # multiple of that row to subtract is the vector's entry there
        multipliers = [-row[column] % q for column in self.pivots]
        return sum(map(mul, multipliers, self.rows), packed)

    def add(self, row: Sequence[int]) -> bool:
        """Insert ``row``; return True iff it enlarged the space."""
        q = self.q
        reduced = self._slots(self._reduce(row))
        # the pivot is the lowest nonzero column, in the highest slot
        # that is nonzero mod q; the new row is zero in the slots above it
        for slot in range(len(reduced) - 1, -1, -1):
            if reduced[slot] % q:
                break
        else:
            return False
        inv = pow(reduced[slot], -1, q)
        new = self._pack([inv * value % q for value in reduced[:slot]])
        # Clear the new pivot column from the existing basis rows, to keep
        # the basis fully reduced, and drop its slot from them.
        bits = self._bits
        shift = slot * bits
        low = (1 << shift) - 1
        if slot == len(self._open) - 1:  # the top slot: nothing above it
            self.rows = [(stored & low) + (-(stored >> shift) % q) * new for stored in self.rows]
        else:
            mask = (1 << bits) - 1
            self.rows = [
                (stored & low | stored >> shift + bits << shift) + (-(stored >> shift & mask) % q) * new
                for stored in self.rows
            ]
        column = self._open.pop(slot)
        at = bisect(self.pivots, column)
        self.rows.insert(at, new)
        self.pivots.insert(at, column)
        self._layout = None
        return True

    def contains(self, row: Sequence[int]) -> bool:
        return not any(self._unpack(self._reduce(row)))

    def spans_units(self, columns: int) -> bool:
        """Does the space contain the unit row of every column in the
        bitmask ``columns``?  A covered column's unit row is implicit;
        an uncovered column's is in the space exactly when the column is
        a pivot whose stored row is zero on every open column, because
        the reduced echelon basis is canonical."""
        if columns < 0 or columns >> self.width:
            raise DomainError(f"columns must lie inside width {self.width}")
        rest = columns & ~self.covered
        if not rest or not self._open:
            return True
        pivots = self.pivots
        for column in bit_positions(rest):
            k = bisect_left(pivots, column)
            if k == len(pivots) or pivots[k] != column or any(self._unpack(self.rows[k])):
                return False
        return True

    def cover(self, columns: int) -> "RowSpace":
        """The same space with the columns in the bitmask ``columns``
        among its covered ones; refuses columns whose unit rows the space
        does not hold.  Those unit rows are stored rows of the canonical
        basis whose pivots the other stored rows are zero at, so the
        result drops them and keeps the open columns and every other
        stored row as they are: the basis is unchanged, as is
        :meth:`combination` on the same coefficients.  The rows are
        packed again only if the result's slots are narrower."""
        if not self.spans_units(columns):
            raise DomainError("cannot cover columns whose unit rows the space does not hold")
        other = RowSpace(self.q, self.width, covered=self.covered | columns)
        other._open = list(self._open)
        other.pivots = [pivot for pivot in self.pivots if not columns >> pivot & 1]
        rows = [row for pivot, row in zip(self.pivots, self.rows) if not columns >> pivot & 1]
        # fewer uncovered columns never need wider slots
        if other._bits < self._bits:
            rows = [other._pack(self._unpack(row)) for row in rows]
        other.rows = rows
        return other

    @property
    def rank(self) -> int:
        return len(self._covered_columns) + len(self.rows)

    def combination(self, coefficients: Iterable[int]) -> tuple:
        """The full-width sum of the reduced echelon basis rows in pivot
        order, a covered column's unit row among them, each times the
        next of ``coefficients``, which must give one coefficient per
        basis row.  Every basis row is 1 at its own pivot and 0 at all
        the others, so the sum's entry at each pivot column is that
        row's coefficient; the stored rows are combined packed over the
        open columns.  The k-th unit vector of coefficients reads out
        the k-th basis row."""
        q = self.q
        coefficients = [value % q for value in coefficients]
        if len(coefficients) != self.rank:
            raise DomainError(
                f"{len(coefficients)} coefficients for a basis of {self.rank} rows"
            )
        if self._layout is None:
            # which coefficient goes to each stored row, and where each
            # open entry and each coefficient lands in the full-width
            # row; kept until the basis grows
            count = len(self._open)
            order = {column: k for k, column in enumerate(sorted(self._covered_columns + tuple(self.pivots)))}
            place = [0] * self.width
            for k, column in enumerate(self._open):
                place[column] = k
            for column, k in order.items():
                place[column] = count + k
            self._layout = (_getter([order[column] for column in self.pivots]), _getter(place))
        stored, place = self._layout
        packed = sum(map(mul, stored(coefficients), self.rows))
        return place(self._unpack(packed) + coefficients)

    def clone(self) -> "RowSpace":
        other = RowSpace.__new__(RowSpace)
        for name in RowSpace.__slots__:
            setattr(other, name, getattr(self, name))
        other.rows = list(self.rows)
        other.pivots = list(self.pivots)
        other._open = list(self._open)
        return other


def draw_coefficients(q: int, count: int, rng) -> list:
    """``count`` values in ``[0, q)``: exactly those ``count`` calls of
    ``rng.randrange(q)`` return, leaving ``rng`` in the same state.
    Like randrange, each value is ``rng.getrandbits(q.bit_length())``
    redrawn until it is below ``q``; the draws are batched, without
    randrange's per-call overhead."""
    bits = q.bit_length()
    getrandbits = rng.getrandbits
    draws = [value for value in map(getrandbits, repeat(bits, count)) if value < q]
    while len(draws) < count:
        draws += [value for value in map(getrandbits, repeat(bits, count - len(draws))) if value < q]
    return draws


def random_combination(space: RowSpace, rng) -> tuple:
    """A uniformly random GF(q)-combination of ``space``'s basis rows:
    :meth:`RowSpace.combination` of one :func:`draw_coefficients` value
    per row, in pivot order.  With an empty basis this is the zero row:
    a sender that knows nothing can only broadcast nothing."""
    return space.combination(draw_coefficients(space.q, space.rank, rng))
