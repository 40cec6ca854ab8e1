"""Minimum sum-rates and staged plans for communication for omniscience.

A group of users each observes part of a discrete correlated source and
wants everyone to learn everything, by broadcasting as little as
possible.  This package computes the exact minimum total broadcast rate
(in both the asymptotic fractional-rate model and the non-asymptotic
integer-rate model), searches for complementary subsets that can reach
local omniscience early without hurting the total, chains such subsets
into multi-stage plans, and simulates the plans with random linear
network coding over a prime field.

All rate arithmetic uses exact rationals; every headline result is
re-certified against the definitions before it is returned.

The names below are the public API (README, "Public API"); everything
else is reached through its module, e.g. ``soplan.submodular``.
"""

from .core import (
    MAX_USERS,
    CertificationError,
    DomainError,
    FormatError,
    GroundSet,
    Partition,
    RateVector,
    SoplanError,
)
from .sources import (
    PacketSource,
    TableSource,
    dump_source,
    load_source,
    validate_polymatroid,
)
from .omniscience import (
    ASYMPTOTIC,
    NON_ASYMPTOTIC,
    check_sw_achievable,
    enumerate_complementary,
    is_complementary,
    min_sum_rate,
)
from .compsetso import comp_set_so, complementary_by_lower_bound
from .multistage import StagePlan, dump_plan, load_plan, plan_multistage
from .rlnc import execute_plan

__version__ = "0.1.0"

__all__ = [
    "SoplanError",
    "DomainError",
    "FormatError",
    "CertificationError",
    "MAX_USERS",
    "GroundSet",
    "RateVector",
    "Partition",
    "PacketSource",
    "TableSource",
    "load_source",
    "dump_source",
    "validate_polymatroid",
    "ASYMPTOTIC",
    "NON_ASYMPTOTIC",
    "min_sum_rate",
    "check_sw_achievable",
    "is_complementary",
    "enumerate_complementary",
    "comp_set_so",
    "complementary_by_lower_bound",
    "StagePlan",
    "plan_multistage",
    "load_plan",
    "dump_plan",
    "execute_plan",
]
