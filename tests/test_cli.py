"""The command line interface, run in process through main(argv)."""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import itertools
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soplan.cli as cli
from soplan import omniscience
from soplan import (
    CertificationError,
    RateVector,
    check_sw_achievable,
    dump_source,
    load_plan,
    load_source,
    plan_multistage,
)
from soplan.gf import RowSpace, next_prime
from tests.conftest import induced_table, make_five_user, make_cyclic_triple


@pytest.fixture
def five_user_file(tmp_path):
    path = tmp_path / "five.json"
    dump_source(make_five_user(), path)
    return str(path)


@pytest.fixture
def cyclic_file(tmp_path):
    path = tmp_path / "cyclic.json"
    dump_source(make_cyclic_triple(), path)
    return str(path)


class TestMinrate:
    def test_asymptotic(self, five_user_file, capsys):
        assert cli.main(["minrate", five_user_file]) == 0
        out = capsys.readouterr().out
        assert "min sum-rate: 13/2" in out
        assert "maximizing partition: {1,2,5} | {3} | {4}" in out
        assert "optimal rates: (1:9/2, 2:0, 3:1/2, 4:1/2, 5:1)" in out

    def test_non_asymptotic(self, five_user_file, capsys):
        assert cli.main(["minrate", five_user_file, "--model", "non-asymptotic"]) == 0
        out = capsys.readouterr().out
        assert "min sum-rate: 7" in out
        assert "maximizing partition" not in out

    def test_order_flag_changes_sweep_not_value(self, five_user_file, capsys):
        assert cli.main(["minrate", five_user_file, "--order", "5,4,3,2,1"]) == 0
        out = capsys.readouterr().out
        assert "users: {5,4,3,2,1}" in out
        assert "min sum-rate: 13/2" in out

    def test_unknown_order_label(self, five_user_file, capsys):
        assert cli.main(["minrate", five_user_file, "--order", "5,4,3,2,9"]) == 2
        assert "unknown user" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["", " "])
    def test_empty_order_refused(self, five_user_file, order, capsys):
        assert cli.main(["minrate", five_user_file, "--order", order]) == 2
        assert "--order names unknown user ''" in capsys.readouterr().err

    def test_order_parts_may_carry_spaces(self, five_user_file, capsys):
        assert cli.main(["minrate", five_user_file, "--order", "5, 4, 3, 2, 1"]) == 0
        assert "users: {5,4,3,2,1}" in capsys.readouterr().out

    @pytest.mark.parametrize("order, users", [(" a,b", "{ a,b}"), ("b, a", "{b, a}")])
    def test_order_names_a_label_with_a_space(self, tmp_path, order, users, capsys):
        path = tmp_path / "spaced.json"
        path.write_text(json.dumps({"model": "packet", "users": [" a", "b"],
                                    "packets": {" a": ["p", "q"], "b": ["q"]}}))
        assert cli.main(["minrate", str(path), "--order", order]) == 0
        assert f"users: {users}" in capsys.readouterr().out


class TestCompset:
    def test_exact_default(self, five_user_file, capsys):
        assert cli.main(["compset", five_user_file]) == 0
        out = capsys.readouterr().out
        assert "alpha: 13/2 (exact)" in out
        assert "complementary subset: {1,2}" in out
        assert "found at position: 2" in out
        assert "certified complementary" in out

    def test_lower_bound(self, five_user_file, capsys):
        assert cli.main(["compset", five_user_file, "--alpha", "lower-bound"]) == 0
        out = capsys.readouterr().out
        assert "alpha: 23/4 (lower_bound)" in out
        assert "complementary subset: {1,2}" in out

    def test_completion_reports_rates(self, cyclic_file, capsys):
        assert cli.main(["compset", cyclic_file]) == 0
        out = capsys.readouterr().out
        assert "no complementary subset found" in out
        assert "rates: (1:1/2, 2:1/2, 3:1/2)" in out


class TestEnumerate:
    def test_lists_subsets(self, five_user_file, capsys):
        assert cli.main(["enumerate", five_user_file, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "complementary subsets: 4" in out
        for rendered in ("{1,2}", "{1,5}", "{1,2,5}", "{1,3,4,5}"):
            assert rendered in out

    def test_non_asymptotic_count(self, five_user_file, capsys):
        assert (
            cli.main(["enumerate", five_user_file, "--model", "non-asymptotic"]) == 0
        )
        assert "complementary subsets: 18" in capsys.readouterr().out

    def test_failed_witness_exits_3(self, five_user_file, monkeypatch, capsys):
        # A pass that hands out the last user's rates one unit above the
        # sweep's lists nothing it can certify.
        real = omniscience._prefix_trie_sweeps

        def inflated(source, shift):
            last = source.ground.size - 1
            for mask, stepper, rate, blocks in real(source, shift):
                yield mask, stepper, rate + (mask >> last), blocks

        monkeypatch.setattr(omniscience, "_prefix_trie_sweeps", inflated)
        assert cli.main(["enumerate", five_user_file]) == 3
        assert "exceed f" in capsys.readouterr().err


def _independent_table(tmp_path, users, value=lambda size: str(Fraction(5, 4) * size)) -> str:
    """Independent users: H(X) is the text ``value(|X|)``, by default
    5/4 per user, so that H(V) is fractional."""
    entropy = {}
    for size in range(1, len(users) + 1):
        for subset in itertools.combinations(users, size):
            entropy[",".join(subset)] = value(size)
    path = tmp_path / f"independent-{len(users)}-{value(1).replace('/', '-')}.json"
    path.write_text(json.dumps({"model": "table", "users": users, "entropy": entropy}))
    return str(path)


class TestNonAsymptoticPastEntropy:
    """Two independent users of entropy 5/4 each: the ceiling of
    R(V) = 5/2 is 3, past H(V), yet each user alone must send 5/4, so
    whole packets need 4.  The non-asymptotic model refuses a table with
    a fractional entropy (exit 2); the same table scaled by D = 4 has
    integer entropies and a certified whole-packet answer."""

    def test_minrate_gives_certified_witness(self, tmp_path, capsys):
        fractional = _independent_table(tmp_path, ["x", "y"])
        assert cli.main(["minrate", fractional, "--model", "non-asymptotic"]) == 2
        assert "needs integer entropies" in capsys.readouterr().err
        path = _independent_table(tmp_path, ["x", "y"], lambda size: str(5 * size))
        assert cli.main(["minrate", path, "--model", "non-asymptotic"]) == 0
        out = capsys.readouterr().out
        assert "min sum-rate: 10" in out
        printed = out.split("optimal rates: (")[1].split(")")[0]
        source = load_source(path)
        rates = RateVector.from_map(
            source.ground, dict(part.split(":") for part in printed.split(", "))
        )
        assert rates.total == 10 and all(v.denominator == 1 for v in rates.values)
        assert check_sw_achievable(source, source.ground.full_mask, rates).ok

    def test_enumerate_verify(self, tmp_path, capsys):
        fractional = _independent_table(tmp_path, ["x", "y", "z"])
        assert cli.main(["enumerate", fractional, "--model", "non-asymptotic", "--verify"]) == 2
        assert "needs integer entropies" in capsys.readouterr().err
        path = _independent_table(tmp_path, ["x", "y", "z"], lambda size: str(5 * size))
        assert cli.main(["enumerate", path, "--model", "non-asymptotic", "--verify"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "complementary subsets: 3", "{x,y}", "{x,z}", "{y,z}"
        ]

    def test_compset_refuses_alpha_past_entropy(self, tmp_path, capsys):
        path = _independent_table(tmp_path, ["x", "y"])
        assert cli.main(["compset", path, "--model", "non-asymptotic"]) == 2
        assert "needs integer entropies" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "minrate", "enumerate", "enumerate --verify", "compset --alpha exact",
        "compset --alpha lower-bound",
    ])
    def test_every_command_refuses_the_table(self, command, tmp_path, capsys):
        path = _independent_table(tmp_path, ["x", "y"])
        name, *flags = command.split()
        assert cli.main([name, path, *flags, "--model", "non-asymptotic"]) == 2
        captured = capsys.readouterr()
        assert "needs integer entropies" in captured.err and captured.out == ""
        assert cli.main([name, path, *flags]) == 0

    def test_integer_entropies_written_as_fractions(self, tmp_path, capsys):
        # "4/2" is read as 2, so the table is integral
        path = _independent_table(tmp_path, ["x", "y"], lambda size: f"{4 * size}/2")
        assert cli.main(["minrate", path, "--model", "non-asymptotic"]) == 0
        assert "min sum-rate: 4\n" in capsys.readouterr().out


class TestNonAsymptoticFractionalTable:
    """The integer-rate subset search needs integer entropies.  On this
    table both alphas lie inside [0, H(V)] and the sweep would exit at
    {1,2}, which is not complementary once R({1,2}) is ceiled to 1."""

    ENTROPY = {
        "1": "26/15", "2": "12/5", "3": "44/15",
        "1,2": "12/5", "1,3": "44/15", "2,3": "18/5", "1,2,3": "18/5",
    }

    @pytest.mark.parametrize("alpha", ["exact", "lower-bound"])
    def test_compset_refuses_the_table(self, alpha, tmp_path, capsys):
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps({"model": "table", "users": [1, 2, 3], "entropy": self.ENTROPY}))
        argv = ["compset", str(path), "--model", "non-asymptotic", "--alpha", alpha]
        assert cli.main(argv) == 2
        assert "needs integer entropies" in capsys.readouterr().err
        assert cli.main(argv[:2] + ["--alpha", alpha]) == 0


def test_integral_float_packet_id_exits_2(tmp_path, capsys):
    # 1.0 would be the same packet as 1 and give a minimum sum-rate of 0
    path = tmp_path / "float.json"
    path.write_text('{"model": "packet", "users": ["a", "b"], "packets": {"a": [1], "b": [1.0]}}')
    assert cli.main(["minrate", str(path)]) == 2
    assert "must not be integral or non-finite floats, got 1.0" in capsys.readouterr().err


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_json_constants_exit_2(constant, tmp_path, capsys):
    # Python's reader takes these; a plan for the NaN label was written
    # back holding the non-JSON token NaN
    path = tmp_path / "src.json"
    key = json.dumps(str(float(constant)))
    path.write_text(f'{{"model": "packet", "users": [{constant}, "b"], '
                    f'"packets": {{{key}: [1, 2], "b": [2]}}}}')
    out = tmp_path / "plan.json"
    for argv in (["minrate", str(path)], ["plan", str(path), "--out", str(out)]):
        assert cli.main(argv) == 2
        assert f"is not valid JSON: {constant} is not a JSON value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    b'{"model": "packet", "users": ["a", "b"], "packets": {"a": [1' + b"0" * 5000 + b'], "b": [2]}}',
    b'{"model": "packet", "users": ["\xff", "b"], "packets": {"b": [2]}}',
], ids=["int-past-the-digit-limit", "not-utf8"])
def test_unreadable_json_exits_2(text, tmp_path, capsys):
    # both were tracebacks with exit 1
    path = tmp_path / "src.json"
    path.write_bytes(text)
    assert cli.main(["minrate", str(path)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("text, name", [
    ('{"model": "table", "users": [1, 2], "entropy": '
     '{"": "0", "1": "1", "2": "1", "1,2": "2", "1": "2"}}', "'1'"),
    ('{"model": "packet", "users": ["a", "b"], "packets": {"a": [1], "b": [2], "a": [2]}}', "'a'"),
    ('{"model": "packet", "model": "packet", "users": ["a", "b"], "packets": {}}', "'model'"),
], ids=["entropy-key", "packet-user", "top-level"])
def test_repeated_json_names_exit_2(text, name, tmp_path, capsys):
    # the reader kept the last: H({1}) = 2 was validated and exit was 0
    path = tmp_path / "src.json"
    path.write_text(text)
    assert cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path} names {name} twice in one object\n"


def test_repeated_json_name_in_a_plan_exits_2(five_user_file, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert cli.main(["plan", five_user_file, "--out", str(plan_path)]) == 0
    plan_path.write_text('{"model": "asymptotic",' + plan_path.read_text().lstrip()[1:])
    capsys.readouterr()
    assert cli.main(["simulate", five_user_file, str(plan_path)]) == 2
    assert f"{plan_path} names 'model' twice in one object" in capsys.readouterr().err


class TestPlan:
    def test_plan_artifact_and_summary(self, five_user_file, tmp_path, capsys):
        out_path = tmp_path / "plan.json"
        assert cli.main(["plan", five_user_file, "--out", str(out_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # artifact went to the file
        assert "total sum-rate: 13/2" in captured.err
        plan = load_plan(out_path)
        assert plan.total_rates.total.numerator == 13

    def test_plan_to_stdout_is_json(self, five_user_file, capsys):
        assert cli.main(["plan", five_user_file, "--model", "non-asymptotic"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["model"] == "non_asymptotic"
        assert data["total_rates"]["1"] == "5"

    def test_byte_identical_reruns(self, five_user_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["plan", five_user_file, "--out", str(a)]) == 0
        assert cli.main(["plan", five_user_file, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_super_user_label_cannot_collide(self, five_user_file, tmp_path, capsys):
        # a real user named like a joined group: super users keep their
        # earliest member's label, so no merged system repeats a label
        doc = json.loads(Path(five_user_file).read_text())
        doc["users"] = [1, 2, "1+2", 4, 5]
        doc["packets"]["1+2"] = doc["packets"].pop("3")
        path = tmp_path / "renamed.json"
        path.write_text(json.dumps(doc))
        plan_path = tmp_path / "plan.json"
        assert cli.main(["plan", str(path), "--out", str(plan_path)]) == 0
        assert "total sum-rate: 13/2" in capsys.readouterr().err
        assert cli.main(["simulate", str(path), str(plan_path)]) == 0
        assert "all users decoded" in capsys.readouterr().err

    def test_planning_error_maps_to_exit_3(self, five_user_file, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise CertificationError("synthetic failure")

        monkeypatch.setattr(cli, "plan_multistage", boom)
        assert cli.main(["plan", five_user_file]) == 3
        assert "synthetic failure" in capsys.readouterr().err


class TestSimulate:
    def test_end_to_end(self, five_user_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert cli.main(["plan", five_user_file, "--out", str(plan_path)]) == 0
        capsys.readouterr()
        out_path = tmp_path / "transcript.jsonl"
        code = cli.main(["simulate", five_user_file, str(plan_path), "--out", str(out_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "all users decoded" in captured.err
        lines = out_path.read_text().strip().split("\n")
        assert json.loads(lines[-1])["ok"] is True

    def test_decode_failure_exits_4(self, five_user_file, tmp_path, capsys):
        plan_path = tmp_path / "starved.json"
        plan_path.write_text(
            json.dumps(
                {
                    "model": "asymptotic",
                    "users": [1, 2, 3, 4, 5],
                    "chunk_factor": 1,
                    "field_order": 53,
                    "seed": 0,
                    "stages": [
                        {"target": [1, 2, 3, 4, 5], "rates": {"1": "1"}},
                    ],
                }
            )
        )
        assert cli.main(["simulate", five_user_file, str(plan_path)]) == 4
        assert "decode failed" in capsys.readouterr().err

    def test_absurd_stage_rate_exits_2(self, five_user_file, tmp_path, capsys):
        # a stage rate above H(V) cannot add a dimension; without the
        # declared totals the plan loads, and simulate must refuse it
        plan = copy.deepcopy(_five_user_plan())
        del plan["total_rates"]
        stage = plan["stages"][0]
        stage["rates"][next(iter(stage["rates"]))] = "1e6"
        path = tmp_path / "absurd.json"
        path.write_text(json.dumps(plan))
        assert cli.main(["simulate", five_user_file, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "exceeds the source entropy" in err

    @pytest.mark.parametrize("chunk", [4, 2000])
    def test_edited_chunk_factor_exits_2(self, five_user_file, tmp_path, capsys, chunk):
        # the planner writes chunk factor 2, the lcm of the stage rates'
        # denominators; a larger one, with a field order to match, only
        # multiplies the rows to draw, and at 2000 still ran after a minute
        plan = copy.deepcopy(_five_user_plan())
        assert plan["chunk_factor"] == 2
        plan["chunk_factor"] = chunk
        plan["field_order"] = next_prime(chunk * 10 * 5)
        path = tmp_path / "chunks.json"
        path.write_text(json.dumps(plan))
        assert cli.main(["simulate", five_user_file, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: plan chunk factor {chunk} is not 2,")
        assert "whole number of chunks" in err

    def test_row_outside_sender_span_exits_3(self, five_user_file, tmp_path, monkeypatch, capsys):
        plan_path = tmp_path / "plan.json"
        assert cli.main(["plan", five_user_file, "--out", str(plan_path)]) == 0
        capsys.readouterr()

        def outside(space, coefficients):
            # no user holds every packet, so no stage-0 sender spans this
            return (1,) * space.width

        monkeypatch.setattr(RowSpace, "combination", outside)
        assert cli.main(["simulate", five_user_file, str(plan_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: stage 0: sender ")
        assert "outside its own span" in err

    def test_source_plan_mismatch_exits_2(self, cyclic_file, five_user_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert cli.main(["plan", five_user_file, "--out", str(plan_path)]) == 0
        capsys.readouterr()
        assert cli.main(["simulate", cyclic_file, str(plan_path)]) == 2

    def test_reordered_plan_simulates(self, five_user_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        argv = ["plan", five_user_file, "--order", "5,4,3,2,1", "--out", str(plan_path)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert cli.main(["simulate", five_user_file, str(plan_path)]) == 0
        assert "all users decoded" in capsys.readouterr().err
        # the same users in any order match; a different user does not
        data = json.loads(plan_path.read_text())
        data["users"][data["users"].index(3)] = 6
        for stage in data["stages"]:
            stage["target"] = [6 if user == 3 else user for user in stage["target"]]
            if "3" in stage["rates"]:
                stage["rates"]["6"] = stage["rates"].pop("3")
        data["total_rates"]["6"] = data["total_rates"].pop("3")
        plan_path.write_text(json.dumps(data))
        assert cli.main(["simulate", five_user_file, str(plan_path)]) == 2
        assert "plan users do not match source users" in capsys.readouterr().err


class TestValidate:
    def test_good_table(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        dump_source(induced_table(make_cyclic_triple()), path)
        assert cli.main(["validate", str(path)]) == 0
        assert "axioms hold" in capsys.readouterr().out

    def test_packet_source_is_trivially_fine(self, five_user_file, capsys):
        assert cli.main(["validate", five_user_file]) == 0

    def test_bad_table(self, tmp_path, capsys):
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
        assert cli.main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert "monotonicity" in captured.out
        assert captured.err.startswith("error:")

    def test_defective_rational_table_output_is_pinned(self, tmp_path, capsys):
        # mixed denominators and all three violation kinds; the expected
        # text was recorded when the validator still compared Fractions
        path = tmp_path / "defective.json"
        entropy = {
            "": "1/3", "1": "3/2", "2": "2/7", "3": "5/3",
            "1,2": "1", "1,3": "11/5", "2,3": "9/4", "1,2,3": "23/6",
        }
        path.write_text(json.dumps({"model": "table", "users": [1, 2, 3], "entropy": entropy}))
        assert cli.main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == (
            "7 violation(s):\n"
            "  [normalization] H({}) = 1/3, expected 0\n"
            "  [monotonicity] H({}) = 1/3 > 2/7 = H({2})\n"
            "  [submodularity] H({2}) + H({3}) = 41/21 < 31/12 = H({2,3}) + H({})\n"
            "  [monotonicity] H({1}) = 3/2 > 1 = H({1,2})\n"
            "  [submodularity] H({1,2}) + H({1,3}) = 16/5 < 16/3 = H({1,2,3}) + H({1})\n"
            "  [submodularity] H({1,2}) + H({2,3}) = 13/4 < 173/42 = H({1,2,3}) + H({2})\n"
            "  [submodularity] H({1,3}) + H({2,3}) = 89/20 < 11/2 = H({1,2,3}) + H({3})\n"
        )
        assert captured.err == "error: the entropy table is not a polymatroid\n"


class TestErrorPaths:
    def test_missing_source(self, capsys):
        assert cli.main(["minrate", "/nonexistent/source.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_source(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        assert cli.main(["minrate", str(path)]) == 2

    def test_malformed_plan(self, five_user_file, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text("[]")
        assert cli.main(["simulate", five_user_file, str(path)]) == 2

    def test_parser_survives_a_rejected_call(self, five_user_file, capsys):
        # the parser is built once per process and shared by every call
        with pytest.raises(SystemExit) as rejected:
            cli.main(["minrate", "--model", "bogus", five_user_file])
        assert rejected.value.code == 2
        capsys.readouterr()
        assert cli.main(["minrate", five_user_file, "--model", "non-asymptotic"]) == 0
        assert "min sum-rate: 7" in capsys.readouterr().out
        assert cli.main(["minrate", five_user_file]) == 0
        assert "min sum-rate: 13/2" in capsys.readouterr().out


# Small JSON values for the fuzz test.  Strings avoid digits so that no
# mutation can turn a rate into something huge like "9e9".
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=3)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.text(alphabet="ab,/ ", max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(alphabet="12ab", max_size=2), children, max_size=3),
    max_leaves=6,
)

_PACKET_DOC = {"model": "packet", "users": [1, 2, 3], "packets": {"1": ["a", "b"], "2": ["b"], "3": ["c"]}}
_TABLE_DOC = {
    "model": "table",
    "users": ["x", "y"],
    "entropy": {"": "0", "x": "1", "y": "1/2", "x,y": "3/2"},
}


def _mutate(doc, data):
    """A copy of ``doc`` with one value somewhere inside it replaced,
    deleted, or joined by a new key."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        action = data.draw(st.sampled_from(("replace", "delete", "insert")))
        if action == "replace":
            node[key] = data.draw(_JSON_VALUES)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[data.draw(st.text(alphabet="123ab", max_size=2))] = data.draw(_JSON_VALUES)
        else:
            node.append(data.draw(_JSON_VALUES))
        return doc


def _run_quietly(argv) -> tuple:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


class TestMalformedInput:
    """Bad documents exit 2 with a one-line error, never a traceback."""

    @pytest.mark.parametrize(
        "doc",
        [
            {"model": "packet", "users": [[1], [2]], "packets": {}},
            {"model": "packet", "users": [1, 2], "packets": {"1": [{"a": 1}], "2": ["b"]}},
            {"model": "packet", "users": [1, 2], "packets": {"1": [["a"]], "2": ["b"]}},
            {"model": "table", "users": [{"a": 1}, 2], "entropy": {}},
        ],
    )
    def test_unhashable_source_fields(self, doc, tmp_path, capsys):
        path = tmp_path / "source.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["minrate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change",
        [
            {"users": [[1], [2], [3], [4], [5]]},
            {"stages": [{"target": 1, "rates": {}}]},
            {"stages": [{"target": [1, 2], "rates": ["1"]}]},
            {"stages": [{"target": [[1]], "rates": {}}]},
            {"total_rates": ["1"]},
        ],
    )
    def test_malformed_plans(self, change, five_user_file, tmp_path, capsys):
        plan = dict(_five_user_plan(), **change)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert cli.main(["simulate", five_user_file, str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["minrate", "validate"])
    def test_deeply_nested_source(self, command, tmp_path, capsys):
        # the reader's RecursionError was a traceback with exit 1
        path = tmp_path / "source.json"
        path.write_text("[" * 1000 + "]" * 1000)
        assert cli.main([command, str(path)]) == 2
        assert "nests too deeply to read" in capsys.readouterr().err

    def test_deeply_nested_plan(self, five_user_file, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text("[" * 1000 + "]" * 1000)
        assert cli.main(["simulate", five_user_file, str(path)]) == 2
        assert "nests too deeply to read" in capsys.readouterr().err

    def test_key_naming_a_user_twice(self, tmp_path, capsys):
        # it loaded as the subset {1} before
        path = tmp_path / "source.json"
        entropy = {"": "0", "1,1": "1", "2": "1", "1,2": "2"}
        path.write_text(json.dumps({"model": "table", "users": [1, 2], "entropy": entropy}))
        assert cli.main(["minrate", str(path)]) == 2
        assert capsys.readouterr().err == "error: entropy key '1,1' names user '1' twice\n"

    def test_true_in_a_target_is_refused(self, tmp_path, capsys):
        # it named the user labelled "True", and simulated
        source = tmp_path / "source.json"
        source.write_text(json.dumps(
            {"model": "packet", "users": ["True", "b"], "packets": {"True": ["x"], "b": ["y"]}}
        ))
        stage = {"target": [True, "b"], "rates": {"True": "1", "b": "1"}}
        plan = {"model": "asymptotic", "users": ["True", "b"], "chunk_factor": 1,
                "field_order": 5, "seed": 0, "stages": [stage]}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert cli.main(["simulate", str(source), str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: stage 0 targets must be strings, numbers or null, got True\n"
        )
        stage["target"] = ["True", "b"]
        path.write_text(json.dumps(plan))
        assert cli.main(["simulate", str(source), str(path)]) == 0

    @pytest.mark.parametrize("again", [1, "1"], ids=["int", "text"])
    def test_target_naming_a_user_twice(self, again, five_user_file, tmp_path, capsys):
        # it loaded as the plan that names the user once, and simulated
        plan = copy.deepcopy(_five_user_plan())
        plan["stages"][1]["target"] = [1, 2, 5, again]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert cli.main(["simulate", five_user_file, str(path)]) == 2
        assert capsys.readouterr().err == "error: stage 1 target names user '1' twice\n"

    _NESTED = json.loads("[" * 900 + "]" * 900)

    @pytest.mark.parametrize(
        "doc",
        [
            {"model": "packet", "users": [_NESTED, 2], "packets": {}},
            {"model": "packet", "users": [1, 2], "packets": {"1": [_NESTED], "2": ["b"]}},
        ],
        ids=["label", "packet-id"],
    )
    def test_nested_source_value_is_cut_short(self, doc, tmp_path, capsys):
        path = tmp_path / "source.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["minrate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.encode()) < 300

    def test_nested_plan_target_is_cut_short(self, five_user_file, tmp_path, capsys):
        plan = copy.deepcopy(_five_user_plan())
        plan["stages"][0]["target"] = [self._NESTED]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert cli.main(["simulate", five_user_file, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stage 0 targets must be strings, numbers or null, got [[[")
        assert len(err.encode()) < 300

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fuzzed_sources(self, data):
        doc = _mutate(data.draw(st.sampled_from((_PACKET_DOC, _TABLE_DOC))), data)
        command, *flags = data.draw(
            st.sampled_from(
                ("minrate", "validate", "plan", "compset", "compset --model non-asymptotic")
            )
        ).split()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "source.json"
            path.write_text(json.dumps(doc))
            code, err = _run_quietly([command, str(path), *flags])
        assert code in (0, 2), err
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error:")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fuzzed_plans(self, data):
        plan = _mutate(_five_user_plan(), data)
        with tempfile.TemporaryDirectory() as tmp:
            source_path = Path(tmp) / "five.json"
            dump_source(make_five_user(), source_path)
            plan_path = Path(tmp) / "plan.json"
            plan_path.write_text(json.dumps(plan))
            code, err = _run_quietly(["simulate", str(source_path), str(plan_path)])
        # A mutation can leave a well-formed plan that simply under-sends.
        assert code in (0, 2, 4), err
        assert "Traceback" not in err


@functools.cache
def _five_user_plan() -> dict:
    """Shared and never modified: callers copy before changing it."""
    return plan_multistage(make_five_user()).to_dict()
