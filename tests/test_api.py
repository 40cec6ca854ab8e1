"""The public API: ``soplan.__all__`` and the README list that documents it."""

from __future__ import annotations

import re
from pathlib import Path

import soplan

PUBLIC = [
    # errors
    "SoplanError",
    "DomainError",
    "FormatError",
    "CertificationError",
    # core
    "MAX_USERS",
    "GroundSet",
    "RateVector",
    "Partition",
    # sources
    "PacketSource",
    "LinearSource",
    "TableSource",
    "load_source",
    "dump_source",
    "validate_polymatroid",
    # omniscience
    "ASYMPTOTIC",
    "NON_ASYMPTOTIC",
    "min_sum_rate",
    "check_sw_achievable",
    "is_complementary",
    "enumerate_complementary",
    # compsetso
    "comp_set_so",
    "complementary_by_lower_bound",
    # multistage and rlnc
    "StagePlan",
    "plan_multistage",
    "load_plan",
    "dump_plan",
    "execute_plan",
]

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_the_public_list():
    assert sorted(soplan.__all__) == sorted(PUBLIC)
    assert len(soplan.__all__) == len(set(soplan.__all__)) == 27


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(soplan, name) is not None, name


def test_readme_lists_exactly_the_public_names():
    text = README.read_text()
    section = text.split("## Public API", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`([A-Za-z_]+)`", section)
    assert sorted(set(listed)) == sorted(PUBLIC)
