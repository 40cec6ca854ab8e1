"""Outputs that must not depend on PYTHONHASHSEED.

Packet ids are kept in frozensets, whose order follows the string hash,
so any order that a sort leaves to ties leaks the hash seed into the
simulator's column layout and every transcript.  Each test runs soplan
in fresh interpreters under two hash seeds that ordered the ids ``1``
and ``"1"`` differently when packet ids were sorted by text alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
HASH_SEEDS = ("1", "12")

# 1 and "1" print alike, as do "1" in user b and 1 in user c
TIED_IDS = {
    "model": "packet",
    "users": ["a", "b", "c"],
    "packets": {"a": [1, "1", "x"], "b": ["1", "y"], "c": [1, "y", "z"]},
}

ORDER_SCRIPT = """
import json, sys
from soplan.sources import source_from_dict, source_to_dict
source = source_from_dict(json.loads(sys.argv[1]))
print(json.dumps([source.packet_order, source_to_dict(source)["packets"]]))
"""

# plan and simulate every source named on the command line, in one process
CLI_SCRIPT = """
import contextlib, io, sys
from pathlib import Path
import soplan.cli as cli
work = Path(sys.argv[1])
plan, transcript = work / "plan.json", work / "transcript.jsonl"
for source in sys.argv[2:]:
    plan.unlink(missing_ok=True)
    transcript.unlink(missing_ok=True)
    streams = io.StringIO()
    with contextlib.redirect_stdout(streams), contextlib.redirect_stderr(streams):
        codes = (
            cli.main(["plan", source, "--out", str(plan)]),
            cli.main(["simulate", source, str(plan), "--out", str(transcript)]),
        )
    print(Path(source).name, codes, streams.getvalue())
    for artifact in (plan, transcript):
        print(artifact.read_text() if artifact.exists() else "(none)")
"""


def _run(script: str, hash_seed: str, *args) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, check=True, timeout=120
    )
    return done.stdout


def test_tied_packet_ids_sort_by_text_then_type():
    for hash_seed in HASH_SEEDS:
        order, packets = json.loads(_run(ORDER_SCRIPT, hash_seed, json.dumps(TIED_IDS)))
        assert order == [1, "1", "x", "y", "z"], hash_seed
        assert packets == {"a": [1, "1", "x"], "b": ["1", "y"], "c": [1, "y", "z"]}, hash_seed


def test_plans_and_transcripts_ignore_the_hash_seed(tmp_path):
    tied = tmp_path / "tied_ids.json"
    tied.write_text(json.dumps(TIED_IDS))
    sources = [str(path) for path in sorted(DATA.glob("*.json"))] + [str(tied)]
    # one work directory for both runs: error messages name its files
    outputs = [_run(CLI_SCRIPT, hash_seed, str(tmp_path), *sources) for hash_seed in HASH_SEEDS]
    assert b"tied_ids.json (0, 0)" in outputs[0]
    assert outputs[0] == outputs[1]
