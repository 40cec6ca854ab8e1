"""Coordinate coverage plus residual elimination against plain dense
elimination.

Row spaces keep unit rows as a column bitmask and eliminate only the
other rows, packed into big ints, on the uncovered columns.  Every
check here compares that against a dense Gauss-Jordan reference over
full-width rows that shares no code with ``soplan.gf``; a space's basis
is read out for it through ``combination`` (``tests.conftest.dense_basis``),
and a dense combination draws its coefficients with ``draw_coefficients``,
which ``TestDrawCoefficients`` checks against ``rng.randrange``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soplan.core import DomainError
from soplan.gf import RowSpace, draw_coefficients, random_combination
from soplan.rlnc import choose_field
from tests.conftest import dense_basis, dense_combination, space_with


def dense_rref(rows, q: int, width: int) -> list:
    """The reduced row echelon basis of ``rows`` over GF(q), by
    Gauss-Jordan elimination on full-width rows."""
    matrix = [[value % q for value in row] for row in rows]
    basis = []
    lead = 0
    for column in range(width):
        pick = next((r for r in range(lead, len(matrix)) if matrix[r][column]), None)
        if pick is None:
            continue
        matrix[lead], matrix[pick] = matrix[pick], matrix[lead]
        inv = pow(matrix[lead][column], -1, q)
        matrix[lead] = [value * inv % q for value in matrix[lead]]
        for r in range(len(matrix)):
            if r != lead and matrix[r][column]:
                factor = matrix[r][column]
                matrix[r] = [(a - factor * b) % q for a, b in zip(matrix[r], matrix[lead])]
        lead += 1
    for row in matrix[:lead]:
        basis.append(tuple(row))
    return basis


def unit(width: int, column: int, scale: int = 1) -> tuple:
    row = [0] * width
    row[column] = scale
    return tuple(row)


@st.composite
def mixed_rows(draw, q: int, width: int, max_rows: int = 5) -> list:
    """Rows of width ``width``: scaled unit rows, dense random rows and
    the occasional zero row."""
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(("unit", "dense", "dense", "zero")))
        if kind == "unit" and width:
            rows.append(unit(width, draw(st.integers(0, width - 1)), draw(st.integers(1, q - 1))))
        elif kind == "dense":
            rows.append(tuple(draw(st.lists(st.integers(0, 3 * q), min_size=width, max_size=width))))
        else:
            rows.append((0,) * width)
    return rows


# 2^31 - 1 is prime and large enough that a packed entry needs more
# than 64 bits.
FIELDS = (2, 3, 5, 7, 11, 2**31 - 1)


@st.composite
def spaces(draw):
    q = draw(st.sampled_from(FIELDS))
    width = draw(st.integers(0, 8))
    covered = draw(st.integers(0, (1 << width) - 1))
    rows = draw(mixed_rows(q, width, 6))
    probes = draw(st.lists(mixed_rows(q, width, 1), max_size=4))
    return q, width, covered, rows, [row for probe in probes for row in probe]


def _full(q: int, width: int, covered: int, rows) -> list:
    units = [unit(width, j) for j in range(width) if covered >> j & 1]
    return dense_rref(units + list(rows), q, width)


class TestRowSpaceAgainstDense:
    @settings(max_examples=300, deadline=None)
    @given(spaces())
    def test_rank_basis_and_contains(self, case):
        q, width, covered, rows, probes = case
        space = space_with(q, width, rows, covered)
        reference = _full(q, width, covered, rows)
        assert space.rank == len(reference)
        # the basis is the canonical reduced echelon form, in pivot order
        assert dense_basis(space) == reference
        for probe in probes:
            grows = len(_full(q, width, covered, list(rows) + [probe])) > len(reference)
            assert space.contains(probe) is not grows

    @settings(max_examples=200, deadline=None)
    @given(spaces(), st.integers(0, 2**32))
    def test_combination_matches_dense_basis(self, case, seed):
        q, width, covered, rows, _ = case
        space = space_with(q, width, rows, covered)
        dense = _full(q, width, covered, rows)
        structured = random_combination(space, random.Random(seed))
        assert structured == dense_combination(dense, width, q, random.Random(seed))
        assert space.contains(structured)

    @settings(max_examples=200, deadline=None)
    @given(spaces())
    def test_add_and_clone_keep_the_span(self, case):
        q, width, covered, rows, probes = case
        space = space_with(q, width, rows, covered)
        copy = space.clone()
        for probe in probes:
            spanned = copy.contains(probe)
            assert copy.add(probe) is not spanned
        assert space.rank == len(_full(q, width, covered, rows))
        assert copy.rank == len(_full(q, width, covered, list(rows) + probes))


@st.composite
def full_rank_rows(draw, q: int, width: int) -> list:
    """``width`` dense rows, row i nonzero at column i and zero past it:
    a triangular matrix, so they span everything."""
    rows = []
    for i in range(width):
        head = draw(st.lists(st.integers(0, q - 1), min_size=i, max_size=i))
        rows.append(tuple(head) + (draw(st.integers(1, q - 1)),) + (0,) * (width - i - 1))
    return draw(st.permutations(rows))


class TestUnitSpan:
    """``spans_units`` reads the unit rows off the basis; the oracle
    reduces each unit row with ``contains``."""

    @staticmethod
    def oracle(space: RowSpace, columns: int) -> bool:
        width = space.width
        return all(space.contains(unit(width, j)) for j in range(width) if columns >> j & 1)

    @settings(max_examples=300, deadline=None)
    @given(spaces(), st.booleans(), st.data())
    def test_agrees_with_contains(self, case, full, data):
        q, width, covered, rows, _ = case
        if full:
            rows = rows + data.draw(full_rank_rows(q, width))
        space = space_with(q, width, rows, covered)
        if full:
            assert space.rank == width
        columns = data.draw(st.integers(0, (1 << width) - 1))
        assert space.spans_units(columns) is self.oracle(space, columns)

    def test_pivot_row_that_is_not_a_unit_row(self):
        space = space_with(5, 4, [(0, 1, 3, 0)], 0b0001)
        assert space.spans_units(0b0001)
        assert not space.spans_units(0b0010)  # pivot column, row (0, 1, 3, 0)
        assert not space.spans_units(0b0100)  # free, not a pivot
        space.add((0, 0, 2, 0))
        assert space.spans_units(0b0111)
        assert not space.spans_units(0b1000)

    def test_full_rank_and_bounds(self):
        space = space_with(7, 3, [(1, 2, 3), (0, 1, 4), (0, 0, 5)])
        assert space.spans_units(0b111)
        assert RowSpace(7, 3).spans_units(0)
        with pytest.raises(DomainError):
            space.spans_units(0b1000)


class TestDrawCoefficients:
    @pytest.mark.parametrize("q", [2, 3, 251, 1511, 2**61 - 1])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    def test_matches_randrange(self, q, seed):
        rng, reference = random.Random(seed), random.Random(seed)
        for count in (0, 1, 5, 64):
            expected = [reference.randrange(q) for _ in range(count)]
            assert draw_coefficients(q, count, rng) == expected
        # the generator is left where randrange leaves it
        assert rng.getstate() == reference.getstate()


class TestStoredRowsStayReduced:
    """After any sequence of adds, every stored row is packed in
    systematic form, read straight off the packed ints: one slot per
    open column (an uncovered column that is no stored row's pivot),
    highest column first, and no more; expanded with the implicit 1 at
    its own pivot and 0 at every other pivot, it is the canonical
    reduced echelon row of that pivot."""

    @staticmethod
    def expand(space: RowSpace, packed: int, pivot: int) -> tuple:
        bits = space._bits
        full = [0] * space.width
        full[pivot] = 1
        for k, column in enumerate(space._open):
            full[column] = (packed >> k * bits & ((1 << bits) - 1)) % space.q
        return tuple(full)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((5, 2**31 - 1)), st.integers(1, 8), st.data())
    def test_rows_hold_only_open_columns(self, q, width, data):
        covered = data.draw(st.integers(0, (1 << width) - 1))
        space = RowSpace(q, width, covered=covered)
        # 2^31 - 1 needs slots wider than 8 bytes
        assert (space._bits > 64) is (q > 5)
        uncovered = [j for j in range(width) if not covered >> j & 1]
        added = []
        for row in data.draw(mixed_rows(q, width, 8)):
            space.add(row)
            added.append(row)
            assert sorted(space._open + space.pivots) == uncovered
            assert space._open == sorted(space._open, reverse=True)
            reference = {
                next(j for j, value in enumerate(entry) if value): entry
                for entry in _full(q, width, covered, added)
            }
            for pivot, packed in zip(space.pivots, space.rows):
                assert 0 <= packed < 1 << len(space._open) * space._bits
                assert self.expand(space, packed, pivot) == reference[pivot]


class TestPivotScan:
    """``add`` finds its pivot in the highest slot of the packed
    reduction that is nonzero mod q.  A slot can hold a nonzero multiple
    of q: the vector's entry plus (q - c) times a stored entry c is a
    multiple of q whenever the two are equal mod q.  2^31 - 1 needs
    slots wider than 8 bytes, 5 does not."""

    @pytest.mark.parametrize("q", [5, 2**31 - 1])
    def test_row_with_every_slot_a_multiple_of_q_is_spanned(self, q):
        space = space_with(q, 3, [(1, 3, 0), (0, 2, 1)])
        assert (space._bits > 64) is (q > 5)
        before = (list(space.rows), list(space.pivots), space.rank, dense_basis(space))
        for row in ((1, 3, 0), (1, 5, 1), (q + 2, 8, 1)):
            # the reduction is a nonzero int, every slot a multiple of q
            assert space._reduce(row) != 0
            assert not space.add(row)
            assert (list(space.rows), list(space.pivots), space.rank, dense_basis(space)) == before

    @pytest.mark.parametrize("q", [5, 2**31 - 1])
    def test_top_slot_that_is_a_multiple_of_q_is_no_pivot(self, q):
        space = space_with(q, 3, [(1, 3, 0)])
        row = (1, 3, 1)
        # slot 0 holds column 2's entry, 1; slot 1 holds column 1's,
        # 3 + (q - 1) * 3 = 3q
        packed = space._reduce(row)
        assert packed >> space._bits == 3 * q and packed & (1 << space._bits) - 1 == 1
        assert space.add(row)
        assert space.pivots == [0, 2]
        assert dense_basis(space) == dense_rref([(1, 3, 0), row], q, 3)


def _spanned_columns(space: RowSpace) -> list:
    return [j for j in range(space.width) if space.spans_units(1 << j)]


class TestCover:
    """``cover`` turns spanned unit rows into covered columns; the
    result must be the space built from scratch with those columns
    covered."""

    @settings(max_examples=150, deadline=None)
    @given(spaces(), st.booleans(), st.data())
    def test_matches_a_space_built_with_the_columns_covered(self, case, full, data):
        q, width, covered, rows, probes = case
        if full:
            rows = rows + data.draw(full_rank_rows(q, width))
        space = space_with(q, width, rows, covered)
        spanned = _spanned_columns(space)
        chosen = data.draw(st.lists(st.sampled_from(spanned), unique=True)) if spanned else []
        columns = sum(1 << j for j in chosen)
        result = space.cover(columns)
        rebuilt = space_with(q, width, rows, covered | columns)
        assert result.covered == covered | columns
        assert result.rank == rebuilt.rank == space.rank
        assert dense_basis(result) == dense_basis(rebuilt) == dense_basis(space)
        for mask in data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=4)):
            assert result.spans_units(mask) is rebuilt.spans_units(mask) is space.spans_units(mask)
        coefficients = data.draw(st.lists(st.integers(0, 2 * q), min_size=space.rank, max_size=space.rank))
        assert result.combination(coefficients) == rebuilt.combination(coefficients)
        assert result.combination(coefficients) == space.combination(coefficients)
        # the result grows as the rebuilt space does, and leaves the
        # space it came from as it was
        before = dense_basis(space)
        for probe in probes:
            assert result.add(probe) is rebuilt.add(probe)
        assert dense_basis(result) == dense_basis(rebuilt)
        assert dense_basis(space) == before

    @settings(max_examples=100, deadline=None)
    @given(spaces(), st.data())
    def test_refuses_columns_the_space_does_not_span(self, case, data):
        q, width, covered, rows, _ = case
        space = space_with(q, width, rows, covered)
        missing = [j for j in range(width) if j not in _spanned_columns(space)]
        if not missing:
            return
        column = data.draw(st.sampled_from(missing))
        with pytest.raises(DomainError, match="does not hold"):
            space.cover(1 << column | covered)

    def test_out_of_width_columns_are_refused(self):
        with pytest.raises(DomainError):
            RowSpace(5, 3, covered=0b111).cover(0b1000)


class TestWideSpacesAgainstDense:
    """Seeded runs at the widths the simulator works at, 40 to 200
    uncovered columns, where stored rows hold far fewer slots than
    there are free columns.  Adds of dense rows, of sparse rows shaped
    like a sender's and of unit rows are interleaved with ``clone``,
    ``cover`` (once narrowing the slots), ``spans_units`` and
    ``combination``, and each result is checked against ``dense_rref``
    of every row the space has taken."""

    @staticmethod
    def row(rng: random.Random, q: int, width: int, taken: list) -> tuple:
        kind = rng.random()
        if kind < 0.35:
            return tuple(rng.randrange(q) for _ in range(width))
        if kind < 0.7:
            # a sender's row: random on the columns the sender knows
            known = rng.sample(range(width), rng.randint(1, width // 2))
            row = [0] * width
            for j in known:
                row[j] = rng.randrange(q)
            return tuple(row)
        if kind < 0.9 or not taken:
            return unit(width, rng.randrange(width), rng.randrange(1, q))
        # a row the space already spans
        out = [0] * width
        for row in rng.sample(taken, min(3, len(taken))):
            coeff = rng.randrange(q)
            out = [(a + coeff * b) % q for a, b in zip(out, row)]
        return tuple(out)

    @staticmethod
    def check(space: RowSpace, reference: list, rng: random.Random) -> list:
        """Compare ``space`` with its dense basis ``reference``; return
        the columns whose unit rows it spans."""
        q, width = space.q, space.width
        assert space.rank == len(reference)
        assert dense_basis(space) == reference
        # a unit row is in the span iff it is a row of the canonical basis
        units = [j for j in range(width) if unit(width, j) in reference]
        assert space.spans_units(sum(1 << j for j in units))
        for _ in range(4):
            extra = rng.randrange(width)
            mask = sum(1 << j for j in rng.sample(units, len(units) // 2)) | 1 << extra
            assert space.spans_units(mask) is (extra in units)
        coefficients = [rng.randrange(q) for _ in reference]
        expected = [0] * width
        for coeff, row in zip(coefficients, reference):
            expected = [(a + coeff * b) % q for a, b in zip(expected, row)]
        combined = space.combination(coefficients)
        assert combined == tuple(expected)
        assert space.contains(combined)
        return units

    @pytest.mark.parametrize(
        "q, free, unit_rows, seed",
        [
            (choose_field(4, 40, 6), 40, 10, 1),
            (choose_field(4, 40, 6), 200, 30, 2),
            (2**31 - 1, 40, 10, 3),
            # covering 80 of 120 columns narrows the slots from 14 bytes to 13
            (2**31 - 1, 120, 80, 4),
        ],
    )
    def test_interleaved_operations(self, q, free, unit_rows, seed):
        rng = random.Random(seed)
        width = free + free // 4
        covered = sum(1 << j for j in rng.sample(range(width), width - free))
        space = RowSpace(q, width, covered=covered)
        taken = []

        def grow(space: RowSpace, taken: list, count: int) -> None:
            rank = space.rank
            grew = 0
            for _ in range(count):
                row = self.row(rng, q, width, taken)
                grew += space.add(row)
                taken.append(row)
            assert space.rank == rank + grew

        grow(space, taken, free // 4)
        self.check(space, _full(q, width, covered, taken), rng)
        before = dense_basis(space)

        copy, copy_taken = space.clone(), list(taken)
        grow(copy, copy_taken, free // 8)
        for j in rng.sample([j for j in range(width) if not covered >> j & 1], unit_rows):
            copy.add(unit(width, j, rng.randrange(1, q)))
            copy_taken.append(unit(width, j))
        reference = _full(q, width, covered, copy_taken)
        units = self.check(copy, reference, rng)
        assert dense_basis(space) == before

        columns = sum(1 << j for j in units)
        result = copy.cover(columns)
        assert result.covered == covered | columns
        assert (result._bits < copy._bits) is (unit_rows == 80)
        self.check(result, reference, rng)
        grow(result, copy_taken, free // 8)
        self.check(result, _full(q, width, covered | columns, copy_taken), rng)
        assert copy.rank == len(reference)


class TestCombinationLayout:
    @settings(max_examples=150, deadline=None)
    @given(spaces(), st.integers(0, 2**32))
    def test_combinations_between_adds_match_a_fresh_space(self, case, seed):
        """``combination`` keeps its pivot layout until the basis grows;
        each combination between adds must equal a fresh space's."""
        q, width, covered, rows, probes = case
        rng = random.Random(seed)
        space = space_with(q, width, rows, covered)
        added = list(rows)
        for probe in [None] + probes:
            if probe is not None:
                space.add(probe)
                added.append(probe)
            fresh = space_with(q, width, added, covered)
            for _ in range(2):
                coefficients = [rng.randrange(q) for _ in range(space.rank)]
                assert space.combination(coefficients) == fresh.combination(coefficients)
            assert space.clone().combination(coefficients) == fresh.combination(coefficients)
