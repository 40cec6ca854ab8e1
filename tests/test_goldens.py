"""Byte stability of the planner and simulator artifacts.

SHA-256 digests of the plan JSON (as ``dump_plan`` writes it) and the
transcript JSONL for fixed sources and seeds in both models.  Any
change to how rows are drawn, reduced or ordered shows up here.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

import soplan.cli as cli
from soplan import ASYMPTOTIC, NON_ASYMPTOTIC, dump_plan, execute_plan, load_source, plan_multistage
from tests.conftest import random_packet_source

DEMO = Path(__file__).resolve().parent.parent / "data" / "demo_source.json"
FIXTURES = Path(__file__).resolve().parent / "data"

# (source, plan seed, model) -> (plan sha256, transcript sha256).
# "demo" is data/demo_source.json; an int is an index into the corpus.
GOLDENS = {
    ("demo", 0, ASYMPTOTIC): (
        "642b456a4d403332fa5661c8c0a54e28e9b40e99552224903c20fc6d393b412e",
        "59ff33a7ab8c0e2cb6c981a7d65c9e0f4514b689c572b546a7aa994a00eee822",
    ),
    ("demo", 0, NON_ASYMPTOTIC): (
        "2e7fc8ae20e005eb47900fe05da5c1be340006484f5fe812c811eac5dcc102dd",
        "0b84cbf0a590fe617c443ebfa14da3b1cf4d030f67ccc078025887e5c59c1815",
    ),
    ("demo", 5, ASYMPTOTIC): (
        "1b4fcd80e5cc061d2b09ae9aa0d51dcea538078d461e9a0441bd4c3101d1edc0",
        "d44429d41333c6f63190cb0de7b3f50f3d7296fae4e18a6a37e2c20f9cf3d0b0",
    ),
    ("demo", 5, NON_ASYMPTOTIC): (
        "c3b59e55b87725a00ef9369d7fd48ee55555c41ad1ecb2b5f0b2b2f8760e4c3d",
        "353060f272ea11d5405f4616f580ebfa62fb103bdfc0b9a1b5566256ec8b9b86",
    ),
    (3, 13, ASYMPTOTIC): (
        "319d41f1c347dbc89c7500f17a5d8eb9dbeb22634c2f8aa3b0226648b3190298",
        "3541ff631e7fe9727241868ad39345dedb2863f933f984ffdc276180f152b567",
    ),
    (3, 13, NON_ASYMPTOTIC): (
        "a54c549576be61e98ee546c7ed3a573970e4de494ac3b3f10a61a516a4ef5862",
        "ddce86ca6b48b2c2c1755c3f9dfbe459a4cc82aba9809d40bc3c67a6f5592a28",
    ),
    (7, 17, ASYMPTOTIC): (
        "660534753f8fe4750ed8b58d0325f5c94051d57749f2bb0ceb3d87ad87f05ad9",
        "086ae4e135efe070e95907371aba79a01a095b6771a60abdc99b5aa01f838779",
    ),
    (7, 17, NON_ASYMPTOTIC): (
        "7170f5781aa51a6f0b066aa0d2504f956452ff08cf8205919154a2d25b6e06ae",
        "6ba7902fc626c5717a8f343d2754908d6aa154b3146b4cecb0f48be4ec8eb70e",
    ),
    (42, 52, ASYMPTOTIC): (
        "951bcd7e121ffbd390d4404c47675d3c2d8b6a793e2cdf85d95fa44565cfea18",
        "d143ffc7ab65fa98a2ff77621e320aec590ce8139c3a44b47c618c699e1470fe",
    ),
    (42, 52, NON_ASYMPTOTIC): (
        "229ecc82dd5fbe22f85b9b77a3ece9829f0a9c981db060ab606ec961920f6d95",
        "38eefe0ad599816a4a4a3225078e23c73b2bed86bd73bba80dc159e5d10c3b29",
    ),
    (150, 160, ASYMPTOTIC): (
        "7cfb132c57c542de7a0aeae84128519ffb080d8a0dd63307849f2537e62b8b80",
        "2a142ca12ac2e90a5931c8c704cfc7ef68cb043fa9a6dc6e830af97648589af6",
    ),
    (150, 160, NON_ASYMPTOTIC): (
        "0de23aa5c31f38295abe356b5c68f28e37b5c5fc547658aa39dc506428797790",
        "2a142ca12ac2e90a5931c8c704cfc7ef68cb043fa9a6dc6e830af97648589af6",
    ),
    (198, 208, ASYMPTOTIC): (
        "9c9216e6745dfd6b2071d779182edbaad96cab4c1e4786e88f272f28790af3de",
        "39e777a373cef9a07443d268204a70d60649df920784e845128ecd807f650c92",
    ),
    (198, 208, NON_ASYMPTOTIC): (
        "bca83f2a88b24179f68fd98028b710c2b6497b2cbb37e429a8671e39d33bb9c8",
        "5940391ee9578d4d3f6f30641e9a1f45747afa116fe4985b5c69252c87454b39",
    ),
    # two or three stages at chunk factor 2 or 3: later stages run on
    # the spaces of groups that decoded earlier
    (23, 33, ASYMPTOTIC): (
        "19d5a2dc644e5008f025062e273384e38dcfb8744e69edb5a9fb191e52386a14",
        "47abf479f0aaefb31aa562f195001f95d430954a1df34c4a833869154567d54e",
    ),
    (59, 69, ASYMPTOTIC): (
        "fce2c216a8211861c4889897b0637d2b78d361f95694f4b9772316a864c6ca83",
        "f246fc88ce43a258abed2c7f27f260e2de18e42746d4bcb61c55a2ba078c1290",
    ),
    (126, 136, ASYMPTOTIC): (
        "607edd4b935488a3d7844448c63f4d778a77562ab26f74de68d0b36368a546d4",
        "fee8c1a28f9e66622c0c565c93050e24971e9eb512d50b07133485b7148c11f3",
    ),
    # stage_attempts [1, 25, 25, 25]: three stages stay short and the run
    # does not decode
    (59, 69, NON_ASYMPTOTIC): (
        "ced4413259dfd15cd55a644621b14e7a3b79eaadaea45536dfd9618f8aeafa9e",
        "7537f2a7b30ea0dda2ee9674b703f15c8d354e386034073a9aeca2be41e43a11",
    ),
    # stage_attempts [1, 25, 25, 1]: the last stage decodes after two
    # short ones
    (130, 140, ASYMPTOTIC): (
        "26cf0936a3d7872e4cf995619ae809cda5bb7b78e14c094553c19edb833b6cb9",
        "4267382fec577b1dba171c031a0eb596f7f869a5fc5a285d4dda7baafc078e62",
    ),
}


@pytest.mark.parametrize("which, seed, model", sorted(GOLDENS, key=str))
def test_plan_and_transcript_bytes(which, seed, model, source_corpus, tmp_path):
    source = load_source(DEMO) if which == "demo" else source_corpus[which]
    plan = plan_multistage(source, model, seed=seed)
    path = tmp_path / "plan.json"
    dump_plan(plan, path)
    transcript = execute_plan(source, plan).to_jsonl().encode()
    digests = (
        hashlib.sha256(path.read_bytes()).hexdigest(),
        hashlib.sha256(transcript).hexdigest(),
    )
    assert digests == GOLDENS[(which, seed, model)]


# (rng seed, users, packets, plan seed) -> (plan sha256, transcript
# sha256) for ``random_packet_source(random.Random(rng seed), users,
# packets)``.  Both plans have one stage at chunk factor 4 or more, so
# every listener eliminates a few hundred rows of a wide space.
WIDE_GOLDENS = {
    # chunk factor 5, field 3001, 500 chunk columns
    (6, 6, 100, 6): (
        "a8527054e8d5a00bcc11d92aad8663e543518d81fae99f67461de2a8b895eecf",
        "006b4384c982e44bc641736a210b2b18a50da441e68532471928ebb1ce0fd90b",
    ),
    # chunk factor 4, field 809, 160 chunk columns
    (4, 5, 40, 4): (
        "1f2af34d49ffe2c198f08cfee75360aa0df850391415f275e463afbf3725ee38",
        "8a62dc6dbe5d6b682eef32b5242e76f007faeca6ed2afd7a019e585015a6df80",
    ),
}


@pytest.mark.parametrize("rng_seed, users, packets, seed", sorted(WIDE_GOLDENS))
def test_wide_one_stage_bytes(rng_seed, users, packets, seed, tmp_path):
    source = random_packet_source(random.Random(rng_seed), users, packets)
    plan = plan_multistage(source, ASYMPTOTIC, seed=seed)
    assert len(plan.stages) == 1 and plan.chunk_factor >= 4
    path = tmp_path / "plan.json"
    dump_plan(plan, path)
    transcript = execute_plan(source, plan).to_jsonl().encode()
    digests = (
        hashlib.sha256(path.read_bytes()).hexdigest(),
        hashlib.sha256(transcript).hexdigest(),
    )
    assert digests == WIDE_GOLDENS[(rng_seed, users, packets, seed)]


def test_known_bystander_failure_is_unchanged(tmp_path):
    """Instance 24 of perfbench's deep-packets workload at seed 3, as
    the CLI writes it.  User 1 is in neither stage's target, and the
    accepted draws leave it one row short, so ``simulate`` ends with
    exit 4 (user 1 at rank 44 of 45).  This pins the failure as it stands; the fix that checks
    bystanders' generic ranks (ROADMAP item 2) must change this test
    deliberately."""
    out = tmp_path / "transcript.jsonl"
    code = cli.main([
        "simulate",
        str(FIXTURES / "deep_packets_seed3_i24_source.json"),
        str(FIXTURES / "deep_packets_seed3_i24_plan.json"),
        "--out", str(out),
    ])
    assert code == cli.EXIT_DECODE
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "eaabe3fd4d3d7fdcbb942811563eb9541c297282572870e54e0ed305922a76d0"
    )
