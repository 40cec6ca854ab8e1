"""Every entropy reader outside soplan.sources asks the source's four
queries, ``entropy_scaled``, ``stepper``, ``shortfall`` and
``split_minimum``, and never indexes its table: a source that answers
only those queries, and whose table cannot be read, gives the same
results as the source it wraps."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from soplan import (
    RateVector,
    check_sw_achievable,
    comp_set_so,
    enumerate_complementary,
    min_sum_rate,
)
from soplan.compsetso import EXACT, LOWER_BOUND
from soplan.multistage import initial_system, merge_super_user
from soplan.sources import _SourceBase
from tests.conftest import make_five_user, models_of, random_rational_table, scaled_table


class SeamOnly(_SourceBase):
    """``inner`` seen only through its ground set, its denominator and
    the four queries."""

    def __init__(self, inner):
        self.ground = inner.ground
        self.denominator = inner.denominator
        self._inner = inner

    @property
    def entropies(self):
        raise AssertionError("the entropy table was read past the source's queries")

    def entropy_scaled(self, mask: int) -> int:
        return self._inner.entropy_scaled(mask)

    def stepper(self, weight: int):
        return self._inner.stepper(weight)

    def shortfall(self, mask: int, rates, weight: int):
        return self._inner.shortfall(mask, rates, weight)

    def split_minimum(self, mask: int) -> int:
        return self._inner.split_minimum(mask)


def test_seam_only_overrides_every_query():
    """``SeamOnly`` overrides every public member of the base class but
    the exact view ``entropy`` and the ``integral`` flag, the table
    itself included, to refuse it; so a query added to the source later
    must be forwarded here, and the tests below reach it only through
    the wrapper."""
    public = {name for name in vars(_SourceBase) if not name.startswith("_")}
    public -= {"denominator"}  # a class attribute, which SeamOnly sets per instance
    overridden = {name for name in vars(SeamOnly) if not name.startswith("_")}
    assert public - {"entropy", "integral"} == overridden


@pytest.fixture(scope="module")
def sources(source_corpus) -> list:
    """Every fifth corpus packet source, the five-user example, rational
    tables of 3 to 6 users and the first of each size scaled by its D."""
    rng = random.Random(17)
    tables = [random_rational_table(rng, n, 2 * n) for n in (3, 4, 5, 6) for _ in range(3)]
    return [make_five_user(), *source_corpus[::5], *tables, *map(scaled_table, tables[::3])]


def _subsets(source) -> list:
    """The non-singleton masks of ``source``, V included."""
    return [m for m in range(3, source.ground.full_mask + 1) if m.bit_count() > 1]


def test_min_sum_rate(sources):
    for source in sources:
        seam = SeamOnly(source)
        for model in models_of(source):
            for mask in _subsets(source):
                assert min_sum_rate(seam, mask, model) == min_sum_rate(source, mask, model)


def test_comp_set_so(sources):
    for source in sources:
        seam = SeamOnly(source)
        for model in models_of(source):
            for mode in (EXACT, LOWER_BOUND):
                got, want = comp_set_so(seam, model, mode), comp_set_so(source, model, mode)
                assert str(got.certificate) == str(want.certificate)
                assert got == want


def test_enumerate_complementary(sources):
    for source in sources:
        for model in models_of(source):
            got = enumerate_complementary(SeamOnly(source), model)
            assert got == enumerate_complementary(source, model)


def test_check_sw_achievable(sources):
    """Optimal rates pass, and taking half a unit from one user fails
    on the same subset by the same deficit."""
    for source in sources:
        seam = SeamOnly(source)
        for mask in _subsets(source):
            rates = min_sum_rate(source, mask).rates
            short = list(rates.values)
            short[mask.bit_length() - 1] -= Fraction(1, 2)
            for vector in (rates, RateVector(source.ground, tuple(short), mask)):
                got = check_sw_achievable(seam, mask, vector)
                assert got == check_sw_achievable(source, mask, vector)
            assert got.ok is False


def test_merge_super_user_table(sources):
    for source in sources:
        full = source.ground.full_mask
        for mask in _subsets(source):
            if mask == full:
                continue
            rates = min_sum_rate(source, mask).rates
            got = merge_super_user(initial_system(SeamOnly(source)), mask, rates)
            want = merge_super_user(initial_system(source), mask, rates)
            assert got.source.entropies == want.source.entropies
            assert got.source.denominator == want.source.denominator
            assert got.label_map == want.label_map
