"""Source models: packets, entropy tables, JSON round trips and the
polymatroid gate."""

from __future__ import annotations

import copy
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soplan import (
    DomainError,
    FormatError,
    GroundSet,
    PacketSource,
    TableSource,
    dump_plan,
    dump_source,
    load_source,
    plan_multistage,
    validate_polymatroid,
)
from soplan.core import json_text, parse_fraction
from soplan.sources import reorder, source_from_dict, source_to_dict
from tests.conftest import (
    induced_table,
    polymatroid_report,
    random_packet_source,
    random_rational_table,
    reference_packet_load,
)

#: The largest span of a table that packs into 1-, 2-, 4- and 8-byte
#: slots, and the next one up for 1 and 8 bytes.
_SLOT_EDGES = (2**6 - 1, 2**6, 2**14 - 1, 2**30 - 1, 2**62 - 1, 2**62)


class TestPacketSource:
    def test_entropy_counts_distinct_packets(self, five_user):
        g = five_user.ground
        assert five_user.entropy(g.full_mask) == 10
        assert five_user.entropy([1]) == 8
        assert five_user.entropy([2]) == 6
        assert five_user.entropy([1, 2]) == 8  # user 2's packets nest in user 1's
        assert five_user.entropy(0) == 0

    def test_integral_flag(self, five_user):
        assert five_user.integral

    def test_unknown_user_rejected(self):
        g = GroundSet((1, 2))
        with pytest.raises(DomainError):
            PacketSource(g, {1: "a", 2: "b", 3: "c"})

    def test_polymatroid_always(self, five_user):
        assert validate_polymatroid(five_user).ok

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_sources_are_polymatroids(self, rng):
        source = random_packet_source(rng, 4, 8)
        assert validate_polymatroid(source).ok


class TestTableSource:
    def test_explicit_table(self):
        g = GroundSet((1, 2))
        table = {0: 0, 1: 1, 2: 1, 3: Fraction(3, 2)}
        src = TableSource(g, table)
        assert src.entropy([1, 2]) == Fraction(3, 2)
        assert not src.integral

    def test_missing_subset_rejected(self):
        g = GroundSet((1, 2))
        with pytest.raises(DomainError):
            TableSource(g, {0: 0, 1: 1, 3: 2})

    def test_floats_and_bools_rejected(self):
        g = GroundSet((1, 2))
        with pytest.raises(FormatError, match="floats are not accepted"):
            TableSource(g, {0: 0, 1: 0.1, 2: 0.1, 3: 0.2})
        with pytest.raises(FormatError, match="bool"):
            TableSource(g, {0: 0, 1: True, 2: 1, 3: 2})
        assert TableSource(g, {0: 0, 1: "1/10", 2: 1, 3: "11/10"}).entropy([1]) == Fraction(1, 10)

    def test_subset_named_only_for_a_bad_value(self, monkeypatch):
        formatted = []
        real = GroundSet.format
        monkeypatch.setattr(GroundSet, "format", lambda g, mask: formatted.append(mask) or real(g, mask))
        g = GroundSet((1, 2))
        TableSource(g, {0: 0, 1: 1, 2: 1, 3: "3/2"})
        assert formatted == []
        with pytest.raises(FormatError, match=r"entropy of \{1,2\}: floats are not accepted"):
            TableSource(g, {0: 0, 1: 1, 2: 1, 3: 1.5})
        assert formatted == [3]

    def test_invalid_table_rejected_by_default(self):
        g = GroundSet((1, 2))
        bad = {0: 0, 1: 2, 2: 2, 3: 1}  # violates monotonicity
        with pytest.raises(DomainError):
            TableSource(g, bad)
        src = TableSource(g, bad, validate=False)
        report = validate_polymatroid(src)
        assert not report.ok
        assert any(v.kind == "monotonicity" for v in report.violations)

    def test_submodularity_violation_reported(self):
        g = GroundSet((1, 2))
        bad = {0: 0, 1: 1, 2: 1, 3: 3}
        report = validate_polymatroid(TableSource(g, bad, validate=False))
        assert any(v.kind == "submodularity" for v in report.violations)

    def test_normalization_violation_reported(self):
        g = GroundSet((1, 2))
        bad = {0: 1, 1: 1, 2: 1, 3: 1}
        report = validate_polymatroid(TableSource(g, bad, validate=False))
        assert any(v.kind == "normalization" for v in report.violations)

    def test_induced_table_matches(self, cyclic_triple):
        table = induced_table(cyclic_triple)
        for mask in range(cyclic_triple.ground.full_mask + 1):
            assert table.entropy(mask) == cyclic_triple.entropy(mask)


class TestTableLoading:
    """The loader's whole-list passes against one-at-a-time references:
    ``parse_fraction`` for each value and the per-mask oracle in
    ``tests/conftest.py`` for the polymatroid report."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.integers(min_value=2, max_value=6),
        st.lists(st.sampled_from(("normalization", "monotonicity", "submodularity")), max_size=4),
    )
    def test_planted_violations_match_the_oracle(self, rng, n, kinds):
        table = random_rational_table(rng, n, rng.randint(1, 2 * n))
        h, d = list(table.entropies), table.denominator
        for kind in kinds:
            mask = rng.randrange(table.ground.full_mask)
            outside = [pos for pos in range(n) if not mask >> pos & 1]
            if kind == "normalization":
                h[0] += rng.randint(1, 2 * d)
            elif kind == "monotonicity":
                with_i = mask | 1 << rng.choice(outside)
                h[mask] = h[with_i] + rng.randint(1, 2 * d)
            elif len(outside) >= 2:
                i, j = rng.sample(outside, 2)
                gap = h[mask | 1 << i] + h[mask | 1 << j] - h[mask] - h[mask | 1 << i | 1 << j]
                h[mask | 1 << i | 1 << j] += gap + rng.randint(1, 2 * d)
        source = TableSource._from_ints(table.ground, h, d)
        report = validate_polymatroid(source)
        assert report == polymatroid_report(source)
        assert report.summary() == polymatroid_report(source).summary()

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda rng: _shifted(random_rational_table(rng, 5, 8), -40), id="negative"),
            pytest.param(lambda rng: _garbage(rng, 4, -60, 60), id="negative-garbage"),
            pytest.param(
                lambda rng: _blurred(random_rational_table(rng, 5, 8), 2**70), id="past-64-bit-slots"
            ),
            pytest.param(
                lambda rng: _shifted(random_rational_table(rng, 4, 6), 2**71), id="shifted-past-2^70"
            ),
            pytest.param(lambda rng: _garbage(rng, 4, -(2**72), 2**72), id="wide-garbage"),
            pytest.param(lambda rng: _garbage(rng, 1, 0, 3, _one_user_ground()), id="one-user"),
            pytest.param(lambda rng: _garbage(rng, 5, 0, 20), id="dense-garbage-5"),
            pytest.param(lambda rng: _garbage(rng, 6, 0, 40), id="dense-garbage-6"),
            *(
                pytest.param(lambda rng, span=span: _extremes(rng, 5, span), id=f"edge-{span:#x}")
                for span in _SLOT_EDGES
            ),
            *(
                pytest.param(lambda rng, span=span: _by_one(span), id=f"by-one-{span:#x}")
                for span in _SLOT_EDGES
            ),
        ],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_packed_slots_match_the_oracle(self, make, seed):
        # the packed check shifts by the minimum and widens its slots for
        # large spans; every report, its order and its texts stay the oracle's
        source = make(random.Random(seed))
        report = validate_polymatroid(source)
        assert report == polymatroid_report(source)
        assert report.summary() == polymatroid_report(source).summary()

    def test_dense_garbage_reports_hundreds(self):
        report = validate_polymatroid(_garbage(random.Random(0), 6, 0, 40))
        assert len(report.violations) > 200

    def test_oracle_agrees_on_the_clean_corpus(self, source_corpus):
        for source in source_corpus[:40]:
            assert validate_polymatroid(source) == polymatroid_report(source)

    @pytest.mark.parametrize(
        "value",
        [
            "0", "007", "0/5", "6/4", " 1 ", "+1", "-1/2", "1_0/10", "2.0", "1e2", "\u0661",
            pytest.param("1" * 5000, id="5000-digits"),
            pytest.param("1" * 5000 + "/3", id="5000-digits/3"),
            pytest.param("9" * 4000 + "/7", id="4000-digits/7"),
            12, -3, Fraction(6, 4),
            "3/0", "x", "1/", "/2", "", " ", "1/2/3", "0x10", 1.5, True, None, [1],
        ],
    )
    def test_values_read_as_parse_fraction_reads_them(self, value):
        g = GroundSet((1, 2))
        table = {0: 0, 1: value, 2: "1/3", 3: 1}
        try:
            want = parse_fraction(value, where="entropy of {1}")
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                TableSource(g, table, validate=False)
            assert str(got.value) == str(exc)
            return
        source = TableSource(g, table, validate=False)
        assert source.entropy([1]) == want
        assert source.denominator == math.lcm(want.denominator, 3)

    @pytest.mark.parametrize(
        "value, message",
        [
            ("3/0", "entropy of {1}: not a rational: '3/0'"),
            ("x", "entropy of {1}: not a rational: 'x'"),
            (1.5, "entropy of {1}: floats are not accepted, use a 'p/q' string"),
            (True, "entropy of {1}: expected a rational, got a bool"),
            ([1], "entropy of {1}: cannot read a rational from list"),
        ],
    )
    def test_bad_value_messages(self, value, message):
        with pytest.raises(FormatError) as got:
            TableSource(GroundSet((1, 2)), {0: 0, 1: value, 2: 1, 3: 1})
        assert str(got.value) == message

    def test_equal_values_of_other_types_are_read_apart(self):
        # 1, True and 1.0 are equal dict keys; only the int is a rational
        g = GroundSet((1, 2))
        with pytest.raises(FormatError, match=r"entropy of \{2\}: expected a rational, got a bool"):
            TableSource(g, {0: 0, 1: 1, 2: True, 3: 1.0})
        with pytest.raises(FormatError, match=r"entropy of \{1,2\}: floats are not accepted"):
            TableSource(g, {0: 0, 1: Fraction(1, 2), 2: "1/2", 3: 0.5})

    def test_first_bad_entry_in_order_raises(self):
        g = GroundSet((1, 2))
        with pytest.raises(FormatError, match="not a rational: 'x'"):
            TableSource(g, {0: 0, 1: "x", 7: 1})
        with pytest.raises(DomainError, match="out of range"):
            TableSource(g, {0: 0, 7: 1, 1: "x"})

    def test_a_later_key_replaces_an_earlier_one(self):
        # both keys name {1}; the replaced 1/3 leaves no trace in the scale
        source = TableSource(GroundSet((1, 2)), {0: 0, 1: "1/3", (1,): 1, 2: 1, 3: 2})
        assert source.entropy([1]) == 1
        assert source.denominator == 1

    def test_key_order_and_the_empty_key_do_not_matter(self):
        source = random_rational_table(random.Random(3), 4, 7)
        canonical = source_to_dict(source)
        entropy = canonical["entropy"]
        rng = random.Random(4)
        permuted = {",".join(rng.sample(key.split(","), key.count(",") + 1)) if key else key: value
                    for key, value in entropy.items()}
        shuffled = dict(rng.sample(list(entropy.items()), len(entropy)))
        no_empty = {key: value for key, value in entropy.items() if key}
        for variant in (entropy, permuted, shuffled, no_empty):
            loaded = source_from_dict({**canonical, "entropy": variant})
            assert loaded.entropies == source.entropies
            assert loaded.denominator == source.denominator

    @pytest.mark.parametrize("first, later", [("1,2", "2,1"), ("2,1", "1,2")])
    def test_the_later_key_for_a_subset_is_named(self, first, later):
        entropy = {"": "0", "1": "1", "2": "1", first: "2", later: "2"}
        with pytest.raises(FormatError) as got:
            source_from_dict({"model": "table", "users": [1, 2], "entropy": entropy})
        assert str(got.value) == f"entropy key {later!r} repeats a subset"

    def test_the_first_bad_value_in_file_order_is_named(self):
        # canonical keys, two bad values: the file names {2} before {1}
        entropy = {"": "0", "2": "y", "1": "x", "1,2": "2"}
        with pytest.raises(FormatError) as got:
            source_from_dict({"model": "table", "users": [1, 2], "entropy": entropy})
        assert str(got.value) == "entropy of {2}: not a rational: 'y'"

    def test_dump_keys_are_the_labels_in_ground_order(self):
        source = reorder(random_rational_table(random.Random(5), 4, 6), [3, 1, 4, 2])
        entropy = source_to_dict(source)["entropy"]
        ground = source.ground
        assert entropy == {
            ",".join(map(str, ground.labels_of(mask))): str(source.entropy(mask))
            for mask in range(ground.full_mask + 1)
        }

    @pytest.mark.parametrize(
        "key, message",
        [
            ("1,9", "entropy key '1,9' names unknown user '9'"),
            ("1,", "entropy key '1,' names unknown user ''"),
            ("2,1", "entropy key '2,1' repeats a subset"),
            ("1,1", "entropy key '1,1' names user '1' twice"),  # it loaded as {1} before
            ("1,2,1", "entropy key '1,2,1' names user '1' twice"),
        ],
    )
    def test_key_messages(self, key, message):
        entropy = {"": "0", "1": "1", "2": "1", "1,2": "2", key: "2"}
        with pytest.raises(FormatError) as got:
            source_from_dict({"model": "table", "users": [1, 2], "entropy": entropy})
        assert str(got.value) == message


def _shifted(table: TableSource, offset: int) -> TableSource:
    """``table`` with every D * H raised by ``offset``: only normalization changes."""
    return TableSource._from_ints(table.ground, [e + offset for e in table.entropies], 1)


def _blurred(table: TableSource, scale: int) -> TableSource:
    """``table`` times ``scale``, each entry moved by less than a quarter
    of ``scale``: the ties of ``table`` break either way."""
    rng = random.Random(len(table.entropies))
    blur = scale // 4 - 1
    entropies = [e * scale + rng.randint(-blur, blur) for e in table.entropies]
    return TableSource._from_ints(table.ground, entropies, 1)


def _garbage(rng, n: int, low: int, high: int, ground=None) -> TableSource:
    """A table of 2^n uniform ints in [low, high], denominator 1."""
    ground = ground or GroundSet(tuple(range(1, n + 1)))
    return TableSource._from_ints(ground, [rng.randint(low, high) for _ in range(1 << n)], 1)


def _extremes(rng, n: int, span: int) -> TableSource:
    """A table of 2^n ints, each 0 or ``span``: marginals and pair
    differences reach the widest that a slot of the packed check holds."""
    ground = GroundSet(tuple(range(1, n + 1)))
    return TableSource._from_ints(ground, [rng.choice((0, span)) for _ in range(1 << n)], 1)


def _by_one(span: int) -> TableSource:
    """The two-user table (span, span, 0, 1): every marginal of user 2 is
    -span, and the sets {} and {1, 2} outweigh {1} and {2} by just 1."""
    return TableSource._from_ints(GroundSet((1, 2)), [span, span, 0, 1], 1)


def _one_user_ground() -> GroundSet:
    """A ground set of one user, which ``GroundSet`` refuses: the packed
    check has no such floor, so its two-slot case is built from a copy of
    a two-user ground with every field that ``GroundSet`` sets replaced.
    Should ``GroundSet`` gain, lose or rename a field, the helper fails
    here instead of handing out a half-replaced ground."""
    two = GroundSet(("a", "b"))
    fields = {"labels": ("a",), "_index": {"a": 0}, "full_mask": 1, "_texts": None}
    assert GroundSet.__slots__ == tuple(fields), GroundSet.__slots__
    ground = copy.copy(two)
    for name, value in fields.items():
        object.__setattr__(ground, name, value)
    assert ground.size == 1 and ground.format(1) == two.format(1)
    return ground


#: Packet ids of every type a file may hold, with texts that tie
#: across types ("1" and 1, "-3" and -3, "2.5" and 2.5, "None" and null).
_MIXED_IDS = (
    "a", "b", "1", "-3", "2.5", "None", "", "é",
    1, -3, 0, 10**29 + 7, -(10**29) - 7, None, 2.5, -0.125, 1e-300,
)


class TestPacketLoading:
    """Packet files load in whole-list passes; the per-id path of
    ``tests/conftest.reference_packet_load`` is the oracle."""

    @staticmethod
    def assert_loads_as_reference(data: dict):
        order, possession, entropies, text = reference_packet_load(data)
        source = source_from_dict(copy.deepcopy(data))
        assert source.packet_order == order
        assert source.possession == possession
        assert source.entropies == entropies
        assert json_text(source_to_dict(source)) == text

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from(_MIXED_IDS), max_size=8), min_size=n, max_size=n
            )
        ),
        st.booleans(),
    )
    @example([list(_MIXED_IDS), list(_MIXED_IDS[::3])], False)
    @example([list(reversed(_MIXED_IDS)), ["b", "a", "b"]], True)
    def test_mixed_ids_load_as_the_per_id_path(self, lists, strings_only):
        # drawn from a small pool, so ids repeat within and across users
        if strings_only:
            lists = [[p for p in ids if type(p) is str] for ids in lists]
        users = [f"u{k}" for k in range(len(lists))]
        packets = {user: ids for user, ids in zip(users, lists) if ids or len(user) % 2}
        self.assert_loads_as_reference({"model": "packet", "users": users, "packets": packets})

    @pytest.mark.parametrize(
        "packets,message",
        [
            ({"a": ["x", 2.5, True, [1], 1.0]},
             "packet ids for user a must be strings, numbers or null, got True"),
            ({"a": ["x", 1.0, True]},
             "packet ids for user a must not be integral or non-finite floats, got 1.0"),
            ({"a": [float("nan"), 1.0]},
             "packet ids for user a must not be integral or non-finite floats, got nan"),
            ({"a": [None, [1], True]},
             "packet ids for user a must be strings, numbers or null, got [1]"),
            ({"a": ["x"], "b": "xy"}, "packets for user b must be a list"),
            ({"a": ["x", 3], "b": ["y", True], "c": 7},
             "packet ids for user b must be strings, numbers or null, got True"),
            ({"a": ["x"], "b": ["y"], "c": [{"p": 1}]},
             "packet ids for user c must be strings, numbers or null, got {'p': 1}"),
        ],
        ids=["true", "integral-float", "nan", "nested-list", "not-a-list",
             "clean-then-true-then-not-a-list", "object"],
    )
    def test_first_bad_entry_in_file_order_is_named(self, packets, message):
        data = {"model": "packet", "users": ["a", "b", "c"], "packets": packets}
        with pytest.raises(FormatError) as caught:
            source_from_dict(data)
        assert str(caught.value) == message


class TestSplitMinimum:
    """``split_minimum`` against the least H(Y) + H(X minus Y) taken one
    split at a time, on every subset of two users or more."""

    @staticmethod
    def assert_every_subset(source):
        h = source.entropies
        for mask in range(3, source.ground.full_mask + 1):
            if mask.bit_count() > 1:
                splits = [h[y] + h[mask ^ y] for y in range(1, mask) if y & mask == y]
                assert source.split_minimum(mask) == min(splits), mask

    def test_corpus(self, source_corpus):
        for source in source_corpus[::4]:
            self.assert_every_subset(source)

    def test_rational_tables(self):
        rng = random.Random(6)
        for n in (2, 3, 5, 7):
            self.assert_every_subset(random_rational_table(rng, n, 2 * n))

    def test_five_user(self, five_user):
        # {3} | {1,2,4,5}: 4 + 10, and {4} | {1,2,3,5} ties
        assert five_user.split_minimum(five_user.ground.full_mask) == 14


class TestReorder:
    def test_packet_reorder_preserves_entropy(self, five_user):
        swapped = reorder(five_user, (5, 4, 3, 2, 1))
        g = swapped.ground
        assert g.labels == (5, 4, 3, 2, 1)
        assert swapped.entropy([1, 2]) == 8
        assert swapped.entropy(g.full_mask) == 10

    def test_table_reorder_remaps_masks(self, cyclic_triple):
        table = induced_table(cyclic_triple)
        swapped = reorder(table, (3, 1, 2))
        for subset in ([1], [2], [3], [1, 2], [2, 3], [1, 3], [1, 2, 3]):
            assert swapped.entropy(subset) == table.entropy(subset)

    def test_reorder_requires_permutation(self, cyclic_triple):
        with pytest.raises(DomainError):
            reorder(cyclic_triple, (1, 2, 4))


class TestJsonRoundTrip:
    def test_packet_round_trip(self, five_user, tmp_path):
        path = tmp_path / "src.json"
        dump_source(five_user, path)
        loaded = load_source(path)
        assert isinstance(loaded, PacketSource)
        assert loaded.ground.labels == five_user.ground.labels
        for mask in range(five_user.ground.full_mask + 1):
            assert loaded.entropy(mask) == five_user.entropy(mask)

    def test_table_round_trip(self, cyclic_triple, tmp_path):
        table = induced_table(cyclic_triple)
        path = tmp_path / "table.json"
        dump_source(table, path)
        loaded = load_source(path)
        assert isinstance(loaded, TableSource)
        assert loaded.entropy([1, 3]) == 3
        # the key texts the loader read the file by stay on the ground,
        # for `enumerate` to format its list from
        assert loaded.ground._texts == ["", "1", "2", "1,2", "3", "1,3", "2,3", "1,2,3"]
        assert loaded.ground.subset_texts() is loaded.ground._texts

    def test_fraction_strings_survive(self):
        data = {
            "model": "table",
            "users": [1, 2],
            "entropy": {"1": "1/2", "2": "1/2", "1,2": "3/4"},
        }
        src = source_from_dict(data)
        assert src.entropy([1, 2]) == Fraction(3, 4)
        back = source_to_dict(src)
        assert back["entropy"]["1,2"] == "3/4"

    def test_empty_subset_defaults_to_zero(self):
        data = {
            "model": "table",
            "users": [1, 2],
            "entropy": {"1": "1", "2": "1", "1,2": "2"},
        }
        assert source_from_dict(data).entropy(0) == 0

    def test_float_entropy_rejected(self):
        data = {
            "model": "table",
            "users": [1, 2],
            "entropy": {"1": 0.5, "2": "1/2", "1,2": "1"},
        }
        with pytest.raises(FormatError):
            source_from_dict(data)

    def test_malformed_documents_rejected(self):
        for data in (
            [],
            {"model": "nope", "users": [1, 2]},
            {"model": "packet", "users": []},
            {"model": "packet", "users": [1, 2]},
            {"model": "packet", "users": [1, 2], "packets": {"1": ["a"], "9": ["b"]}},
            {"model": "table", "users": [1, 2], "entropy": {"1": "1"}},
            {"model": "table", "users": [1, 2], "entropy": {"1,9": "1"}},
        ):
            with pytest.raises(FormatError):
                source_from_dict(data)

    def test_invalid_table_loads_only_ungated(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "model": "table",
                    "users": [1, 2],
                    "entropy": {"1": "2", "2": "2", "1,2": "1"},
                }
            )
        )
        with pytest.raises(FormatError, match="not a polymatroid"):
            load_source(path)
        src = load_source(path, validate=False)
        assert not validate_polymatroid(src).ok

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_source(tmp_path / "absent.json")

    def test_garbage_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_source(path)

    def test_colliding_string_labels(self):
        data = {
            "model": "packet",
            "users": [1, "1"],
            "packets": {"1": ["a"]},
        }
        with pytest.raises(FormatError):
            source_from_dict(data)


class TestDumpRefusesWhatLoadRefuses:
    """A dump either writes a file that loads back, or raises before it
    opens the file."""

    def test_colliding_labels(self, tmp_path):
        # both users would be written as "1", losing user 1's packet
        source = PacketSource(GroundSet((1, "1")), {1: "x", "1": "y"})
        path = tmp_path / "src.json"
        with pytest.raises(FormatError, match="collide as '1'"):
            dump_source(source, path)
        assert not path.exists()

    @pytest.mark.parametrize("label", ["", "a,b"])
    def test_table_labels_that_keys_cannot_name(self, label, tmp_path):
        table = induced_table(PacketSource(GroundSet((label, "c")), {label: "p", "c": "pq"}))
        path = tmp_path / "table.json"
        path.write_text("kept")
        with pytest.raises(FormatError, match="nonempty comma-free"):
            dump_source(table, path)
        assert path.read_text() == "kept"
        data = {"model": "table", "users": [label, "c"], "entropy": {"": "0", "c": "2"}}
        with pytest.raises(FormatError, match="nonempty comma-free"):
            source_from_dict(data)

    @pytest.mark.parametrize(
        "labels,packet",
        [(((1, 2), 3), "p"), ((frozenset({1}), 3), "p"), ((1, 3), ("a", 1)), ((1, 3), object())],
    )
    def test_values_json_cannot_hold(self, labels, packet, tmp_path):
        # a tuple would be written as a list the loader refuses, a
        # frozenset or an object() would stop json.dump midway
        source = PacketSource(GroundSet(labels), {labels[0]: [packet], labels[1]: "q"})
        path = tmp_path / "src.json"
        path.write_text("kept")
        with pytest.raises(FormatError, match="must be strings, numbers or null"):
            dump_source(source, path)
        assert path.read_text() == "kept"

    @pytest.mark.parametrize(
        "users,packets",
        [(["a", "b"], {"a": [1], "b": [True]}), (["a", True], {"a": [1], "True": [2]})],
        ids=["packet-id", "label"],
    )
    def test_true_is_refused(self, users, packets, tmp_path):
        # true == 1 in Python: as a packet id it would be the same packet
        # as 1, giving {"a": [1], "b": [true]} a minimum sum-rate of 0
        path = tmp_path / "src.json"
        path.write_text(json.dumps({"model": "packet", "users": users, "packets": packets}))
        with pytest.raises(FormatError, match="must be strings, numbers or null, got True"):
            load_source(path)
        ground = GroundSet(tuple(users))
        source = PacketSource(ground, dict(zip(ground.labels, packets.values())))
        path.write_text("kept")
        with pytest.raises(FormatError, match="must be strings, numbers or null, got True"):
            dump_source(source, path)
        assert path.read_text() == "kept"

    @pytest.mark.parametrize("packet", [1.0, -0.0, float("nan"), float("inf")])
    def test_integral_and_non_finite_float_ids(self, packet, tmp_path):
        # 1.0 == 1 in Python: {"a": [1], "b": [1.0]} would get a minimum
        # sum-rate of 0; NaN and the infinities are not JSON, so a file
        # that holds them is refused as it is read
        data = {"model": "packet", "users": ["a", "b"], "packets": {"a": [1], "b": [packet]}}
        with pytest.raises(FormatError, match="must not be integral or non-finite floats"):
            source_from_dict(data)
        path = tmp_path / "src.json"
        path.write_text(json.dumps(data))
        refused = "must not be integral" if math.isfinite(packet) else "is not a JSON value"
        with pytest.raises(FormatError, match=refused):
            load_source(path)
        source = PacketSource(GroundSet(("a", "b")), {"a": [2], "b": [packet]})
        path.write_text("kept")
        with pytest.raises(FormatError, match="must not be integral or non-finite floats"):
            dump_source(source, path)
        assert path.read_text() == "kept"

    @pytest.mark.parametrize("label", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_labels(self, label, tmp_path):
        # dumped, they were written as the non-JSON tokens NaN and Infinity
        source = PacketSource(GroundSet((label, "b")), {label: [1, 2], "b": [2]})
        plan = plan_multistage(source)
        path = tmp_path / "out.json"
        path.write_text("kept")
        for dump, value in ((dump_source, source), (dump_plan, plan)):
            with pytest.raises(FormatError, match="user labels must be finite numbers"):
                dump(value, path)
            assert path.read_text() == "kept"
        with pytest.raises(FormatError, match="user labels must be finite numbers"):
            source_from_dict({"model": "packet", "users": [label, "b"], "packets": {"b": [2]}})

    def test_fractional_float_id_round_trips(self, tmp_path):
        source = PacketSource(GroundSet(("a", "b")), {"a": [1, 1.5], "b": ["1.5"]})
        path = tmp_path / "src.json"
        dump_source(source, path)
        loaded = load_source(path)
        assert loaded.possession == source.possession
        assert loaded.entropy(loaded.ground.full_mask) == 3

    def test_unusual_labels_round_trip(self, tmp_path):
        source = PacketSource(GroundSet(("", "a,b", 3)), {"": "x", "a,b": "xy", 3: "z"})
        path = tmp_path / "src.json"
        dump_source(source, path)
        assert load_source(path).possession == source.possession
