"""Row-space arithmetic over prime fields GF(q).

Rows are tuples of ints in ``[0, q)``.  :class:`RowSpace` keeps a
reduced row-echelon basis incrementally, which is all the rank and
span-membership machinery the simulator needs.  Most rows in play are
unit rows (a user's own packet chunks), so a space takes a set of
covered columns whose unit rows it contains without storing them, and
keeps the other basis rows on the uncovered columns only: rank is the
number of covered columns plus one small residual elimination.  Unit
rows a space comes to hold can be turned into covered columns later
(:meth:`RowSpace.cover`).

Because the basis is fully reduced, a vector is reduced by reading its
entries at the pivot columns, with no elimination order to follow, and
whether the space holds a unit row is read off the basis itself.
Coefficients are drawn by :func:`draw_coefficients`, value for value as
``rng.randrange(q)`` draws them.  Pure Python keeps everything exact.
"""

from __future__ import annotations

from bisect import bisect, bisect_left
from itertools import repeat
from operator import itemgetter, mul
from struct import pack, unpack
from typing import Callable, Iterable, Sequence

from .core import DomainError, bit_positions


# Miller-Rabin with the primes up to 41 as bases decides primality
# exactly below this bound, the least strong pseudoprime to all of them
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for ``n`` below ``PRIME_TEST_LIMIT``; larger
    ``n`` raise :class:`DomainError`."""
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


class RowSpace:
    """A subspace of GF(q)^width, maintained as a reduced echelon basis.

    The unit row of every column in the bitmask ``covered`` belongs to
    the space; these coordinate rows are implicit.  The other basis rows
    vanish on covered columns, so they are stored on the uncovered
    columns (``free``, ascending) only.  Their leading entry is 1, they
    are sorted by pivot, and every pivot column is zero in all other
    rows.  So reducing a vector subtracts one multiple of each stored
    row: the vector's own entry at that row's pivot.  With
    ``covered == 0`` this is a plain reduced echelon basis.

    A stored row is one int holding an entry per free column in a fixed
    number of bits, so a row operation is a single big-int multiply-add.
    Entries are only meaningful mod q and are normalized when a row is
    read out; a row operation adds less than q*q to an entry, and the
    slots are wide enough that no sequence of them can carry into the
    next slot.
    """

    __slots__ = (
        "q", "width", "covered", "free", "rows", "pivots",
        "_bits", "_bytes", "_format", "_project", "_covered_columns", "_place", "_layout",
    )

    def __init__(self, q: int, width: int, rows: Iterable[Sequence[int]] = (), covered: int = 0):
        if not is_prime(q):
            raise DomainError(f"field order {q} is not prime")
        if width < 0:
            raise DomainError("row width must be nonnegative")
        if covered < 0 or covered >> width:
            raise DomainError(f"covered columns must lie inside width {width}")
        self.q = q
        self.width = width
        self.covered = covered
        self.free = tuple(j for j in range(width) if not covered >> j & 1)
        # A stored entry takes at most one row operation per later basis
        # row, and a reduced vector or a combination one per basis row:
        # entries stay below (n + 1)^2 * q^3 for n free columns.
        size = -(-((len(self.free) + 1) ** 2 * q**3).bit_length() // 8)
        self._bytes = max(size, 8)
        self._bits = 8 * self._bytes
        self._format = f"<{len(self.free)}Q" if self._bytes == 8 else None
        # a full-width row's entries on the free columns
        self._project = _getter(self.free)
        self._covered_columns = list(bit_positions(covered))
        # full-width row from its free entries followed by its covered ones
        slot = {column: k for k, column in enumerate(self.free + tuple(self._covered_columns))}
        self._place = _getter([slot[j] for j in range(width)])
        self.rows: list = []  # packed
        self.pivots: list = []  # positions in ``free``
        self._layout = None  # see combination; reset when the basis grows
        for row in rows:
            self.add(row)

    def _pack(self, values: Sequence[int]) -> int:
        if self._format:
            return int.from_bytes(pack(self._format, *values), "little")
        size = self._bytes
        return int.from_bytes(b"".join(value.to_bytes(size, "little") for value in values), "little")

    def _unpack(self, packed: int) -> list:
        """The entries of a packed row, normalized mod q."""
        q, size = self.q, self._bytes
        data = packed.to_bytes(size * len(self.free), "little")
        if self._format:
            return list(map(q.__rmod__, unpack(self._format, data)))
        return [int.from_bytes(data[k:k + size], "little") % q for k in range(0, len(data), size)]

    def _reduce(self, row: Sequence[int]) -> int:
        if len(row) != self.width:
            raise DomainError(f"row width {len(row)} != {self.width}")
        if len(self.rows) == len(self.free):
            return 0  # the space is everything: every row reduces to zero
        q = self.q
        values = list(map(q.__rmod__, self._project(row)))
        # every other stored row is zero at a row's pivot, so the
        # multiple of that row to subtract is the vector's entry there
        multipliers = [-values[pivot] % q for pivot in self.pivots]
        return self._pack(values) + sum(map(mul, multipliers, self.rows))

    def add(self, row: Sequence[int]) -> bool:
        """Insert ``row``; return True iff it enlarged the space."""
        q = self.q
        reduced = self._unpack(self._reduce(row))
        lead = next(filter(None, reduced), 0)
        if not lead:
            return False
        pivot = reduced.index(lead)
        inv = pow(lead, -1, q)
        new = self._pack([value * inv % q for value in reduced])
        # Clear the new pivot column from the existing basis rows to keep
        # the basis fully reduced.
        shift, mask = pivot * self._bits, (1 << self._bits) - 1
        self.rows = [
            stored + (q - coeff) * new if (coeff := (stored >> shift & mask) % q) else stored
            for stored in self.rows
        ]
        at = bisect(self.pivots, pivot)
        self.rows.insert(at, new)
        self.pivots.insert(at, pivot)
        self._layout = None
        return True

    def contains(self, row: Sequence[int]) -> bool:
        return not any(self._unpack(self._reduce(row)))

    def spans_units(self, columns: int) -> bool:
        """Does the space contain the unit row of every column in the
        bitmask ``columns``?  A covered column's unit row is implicit;
        an uncovered column's is in the space exactly when the column is
        a pivot whose stored row is that unit row, because the reduced
        echelon basis is canonical."""
        if columns < 0 or columns >> self.width:
            raise DomainError(f"columns must lie inside width {self.width}")
        rest = columns & ~self.covered
        if not rest or self.rank == self.width:
            return True
        free, pivots = self.free, self.pivots
        for column in bit_positions(rest):
            position = bisect_left(free, column)
            k = bisect_left(pivots, position)
            if k == len(pivots) or pivots[k] != position:
                return False
            # the pivot entry is 1; a unit row is zero everywhere else
            if self._unpack(self.rows[k]).count(0) != len(free) - 1:
                return False
        return True

    def cover(self, columns: int) -> "RowSpace":
        """The same space with the columns in the bitmask ``columns``
        among its covered ones; refuses columns whose unit rows the space
        does not hold.  Those unit rows are stored rows of the canonical
        basis, and every other stored row is zero on them, so the result
        drops them and keeps the rest of each stored row: the basis is
        unchanged, as is :meth:`combination` on the same coefficients."""
        if not self.spans_units(columns):
            raise DomainError("cannot cover columns whose unit rows the space does not hold")
        other = RowSpace(self.q, self.width, covered=self.covered | columns)
        position = {column: k for k, column in enumerate(other.free)}
        keep = _getter([k for k, column in enumerate(self.free) if column in position])
        for pivot, row in zip(self.pivots, self.rows):
            column = self.free[pivot]
            if column in position:
                other.rows.append(other._pack(keep(self._unpack(row))))
                other.pivots.append(position[column])
        return other

    @property
    def rank(self) -> int:
        return len(self._covered_columns) + len(self.rows)

    def basis(self) -> tuple:
        """The reduced echelon basis in pivot order.  A coordinate row
        is given as its column index; every other row as a full-width
        tuple."""
        free = self.free
        entries = [(j, j) for j in self._covered_columns]
        for pivot, row in zip(self.pivots, self.rows):
            full = [0] * self.width
            for j, value in zip(free, self._unpack(row)):
                full[j] = value
            entries.append((free[pivot], tuple(full)))
        entries.sort(key=lambda entry: entry[0])
        return tuple(entry for _, entry in entries)

    def combination(self, coefficients: Iterable[int]) -> tuple:
        """The full-width sum of the basis rows, in the order
        :meth:`basis` lists them, each times the next of
        ``coefficients``, which must give one coefficient per basis
        row.  Every basis row is 1 at its own pivot and 0 at all the
        others, so the sum's entry at each pivot column is that row's
        coefficient; the stored rows are combined packed."""
        q = self.q
        coefficients = list(map(q.__rmod__, coefficients))
        if len(coefficients) != self.rank:
            raise DomainError(
                f"{len(coefficients)} coefficients for a basis of {self.rank} rows"
            )
        if self._layout is None:
            # which coefficient goes to each stored row and to each
            # covered column, kept until the basis grows
            pivot_columns = list(map(self.free.__getitem__, self.pivots))
            order = {column: k for k, column in enumerate(sorted(self._covered_columns + pivot_columns))}
            self._layout = (
                _getter(list(map(order.__getitem__, pivot_columns))),
                _getter(list(map(order.__getitem__, self._covered_columns))),
            )
        stored, covered = self._layout
        packed = sum(map(mul, stored(coefficients), self.rows))
        return self._place(self._unpack(packed) + list(covered(coefficients)))

    def clone(self) -> "RowSpace":
        other = RowSpace.__new__(RowSpace)
        for name in RowSpace.__slots__:
            setattr(other, name, getattr(self, name))
        other.rows = list(self.rows)
        other.pivots = list(self.pivots)
        return other


def draw_coefficients(q: int, count: int, rng) -> list:
    """``count`` values in ``[0, q)``: exactly those ``count`` calls of
    ``rng.randrange(q)`` return, leaving ``rng`` in the same state.
    Like randrange, each value is ``rng.getrandbits(q.bit_length())``
    redrawn until it is below ``q``; the draws are batched, without
    randrange's per-call overhead."""
    bits = q.bit_length()
    getrandbits = rng.getrandbits
    draws = list(filter(q.__gt__, map(getrandbits, repeat(bits, count))))
    while len(draws) < count:
        draws += filter(q.__gt__, map(getrandbits, repeat(bits, count - len(draws))))
    return draws


def random_combination(basis, width: int, q: int, rng) -> tuple:
    """A uniformly random GF(q)-combination of ``basis`` rows, drawing
    one coefficient per row in order.  A basis entry is a full-width row
    or, as :meth:`RowSpace.basis` gives coordinate rows, a column index
    standing for that column's unit row.  ``basis`` may also be a
    :class:`RowSpace`, whose basis is then combined without expanding
    it to full-width rows; the draws and the result are the same.

    With an empty basis this is the zero row: a sender that knows
    nothing can only broadcast nothing.
    """
    if isinstance(basis, RowSpace):
        return basis.combination(draw_coefficients(q, basis.rank, rng))
    out = [0] * width
    for row, coeff in zip(basis, draw_coefficients(q, len(basis), rng)):
        if not coeff:
            continue
        if isinstance(row, int):
            out[row] = (out[row] + coeff) % q
            continue
        for j, value in enumerate(row):
            if value:
                out[j] = (out[j] + coeff * value) % q
    return tuple(out)
