"""Multi-stage omniscience planning by super-user merging.

One stage of a plan picks a complementary subset, attains local
omniscience inside it, and merges its members into a single super user
that observes everything they observed.  Everyone else keeps their own
observation plus every coding row broadcast so far.  The process
repeats on the shrunken system until no complementary subset remains;
a residual stage covering everybody then finishes the plan.  Every
stage's rates are the certified witness of
:func:`~soplan.omniscience.min_sum_rate` on its target.
Stage rates always add up to the single-shot minimum sum-rate, so the
staging is free in total cost while letting small groups finish early.

Mechanics worth knowing:

* Planning works on a linear lift of the packet source.  Each packet is
  split into ``chunk_factor`` chunks so that every stage broadcast is a
  whole number of chunk rows.  The chunk factor is discovered by
  restarting planning whenever a stage rate shows a new denominator and
  is fixed for the whole plan (it stays 1 in the non-asymptotic model).
* A system never stores lifted unit rows.  Each user is its coverage
  (the chunk columns it observes directly, ORed over a super user's
  members) plus the broadcasts it heard, kept as indices into one
  shared row table, so every rank is a popcount plus one small residual
  elimination (see :class:`~soplan.sources.LinearSource`).
* Post-merge entropies come from the ranks of actually synthesized
  coding rows, not from a generic-rank formula.  Rows are drawn from a
  seeded RNG (:func:`~soplan.rlnc.draw_stage`, the simulator's loop).  A
  draw is kept once every member spans the group's observation and the
  merged system's minimum sum-rate is the current one less the stage
  total; a rare unlucky draw over the large field chosen is redrawn.
* A super user's transmissions are charged to its earliest original
  member, who can produce them because local omniscience handed the
  whole group's observation to every member.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping

from .core import (
    CertificationError,
    DomainError,
    FormatError,
    GroundSet,
    PlanningError,
    RateVector,
    SubsetLike,
    bit_positions,
    parse_fraction,
)
from .omniscience import ASYMPTOTIC, NON_ASYMPTOTIC, check_model, min_sum_rate
from .compsetso import LOWER_BOUND, comp_set_so
from .rlnc import choose_field, draw_stage
from .sources import LinearSource, PacketSource

MAX_RESTARTS = 8
SUPER_JOIN = "+"


@dataclass(frozen=True)
class Stage:
    """One plan step: a target subset of the original users and the
    per-user rates (packet units) spent on it.  Rates live on the full
    original ground set and are zero outside the target."""

    target: int
    rates: RateVector

    def __post_init__(self):
        ground = self.rates.ground
        target = ground.mask(self.target)
        if target == 0:
            raise DomainError("a stage needs a nonempty target")
        object.__setattr__(self, "target", target)
        for pos, value in enumerate(self.rates.values):
            if value < 0:
                raise DomainError("stage rates must be nonnegative")
            if value != 0 and not target >> pos & 1:
                raise DomainError(
                    f"stage rate for {ground.labels[pos]!r} outside the stage target"
                )

    @property
    def total(self) -> Fraction:
        return self.rates.total


@dataclass(frozen=True)
class StagePlan:
    """An ordered list of stages plus everything the simulator needs:
    the chunk factor, the field order and the planning seed."""

    ground: GroundSet
    model: str
    stages: tuple
    chunk_factor: int
    field_order: int
    seed: int

    def __post_init__(self):
        check_model(self.model)
        if self.chunk_factor < 1:
            raise DomainError("chunk factor must be a positive integer")
        for stage in self.stages:
            if stage.rates.ground != self.ground:
                raise DomainError("stage rates must live on the plan's ground set")

    @property
    def total_rates(self) -> RateVector:
        total = RateVector.zeros(self.ground)
        for stage in self.stages:
            total = total + stage.rates
        return total

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "users": list(self.ground.labels),
            "chunk_factor": self.chunk_factor,
            "field_order": self.field_order,
            "seed": self.seed,
            "stages": [
                {
                    "target": list(self.ground.labels_of(stage.target)),
                    "rates": {
                        str(label): str(stage.rates.rate(label))
                        for label in self.ground.labels_of(stage.target)
                    },
                }
                for stage in self.stages
            ],
            "total_rates": {
                str(label): str(self.total_rates.rate(label))
                for label in self.ground.labels
            },
        }

    @classmethod
    def from_dict(cls, data) -> "StagePlan":
        if not isinstance(data, dict):
            raise FormatError("plan document must be a JSON object")
        for key in ("model", "users", "chunk_factor", "field_order", "seed", "stages"):
            if key not in data:
                raise FormatError(f"plan misses required key {key!r}")
        users = data["users"]
        if not isinstance(users, list) or not users:
            raise FormatError("'users' must be a nonempty list")
        try:
            ground = GroundSet(tuple(users))
        except DomainError as exc:
            raise FormatError(str(exc)) from None
        lookup = {str(label): label for label in ground.labels}
        if len(lookup) != ground.size:
            raise FormatError("user labels collide when stringified")
        model = data["model"]
        if model not in (ASYMPTOTIC, NON_ASYMPTOTIC):
            raise FormatError(f"unknown model {model!r}")
        chunk = data["chunk_factor"]
        seed = data["seed"]
        field = data["field_order"]
        if not isinstance(chunk, int) or isinstance(chunk, bool) or chunk < 1:
            raise FormatError("'chunk_factor' must be a positive integer")
        if not isinstance(field, int) or isinstance(field, bool) or field < 2:
            raise FormatError("'field_order' must be an integer >= 2")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise FormatError("'seed' must be an integer")
        stages = []
        if not isinstance(data["stages"], list):
            raise FormatError("'stages' must be a list")
        for k, raw in enumerate(data["stages"]):
            if not isinstance(raw, dict) or "target" not in raw or "rates" not in raw:
                raise FormatError(f"stage {k} must have 'target' and 'rates'")
            if not isinstance(raw["target"], list) or not isinstance(raw["rates"], dict):
                raise FormatError(f"stage {k} needs a 'target' list and a 'rates' object")
            target_mask = 0
            for item in raw["target"]:
                key = str(item)
                if key not in lookup:
                    raise FormatError(f"stage {k} targets unknown user {item!r}")
                target_mask |= ground.bit(lookup[key])
            rates = {}
            for key, value in raw["rates"].items():
                if key not in lookup:
                    raise FormatError(f"stage {k} rates name unknown user {key!r}")
                rates[lookup[key]] = parse_fraction(value, where=f"stage {k} rate for {key}")
            try:
                stage = Stage(target_mask, RateVector.from_map(ground, rates))
            except DomainError as exc:
                raise FormatError(f"stage {k}: {exc}") from None
            stages.append(stage)
        plan = cls(ground, model, tuple(stages), chunk, field, seed)
        declared = data.get("total_rates")
        if declared is not None:
            if not isinstance(declared, dict):
                raise FormatError("'total_rates' must map users to rationals")
            actual = plan.total_rates
            for key, value in declared.items():
                if key not in lookup:
                    raise FormatError(f"'total_rates' names unknown user {key!r}")
                if parse_fraction(value, where=f"total rate for {key}") != actual.rate(lookup[key]):
                    raise FormatError(f"declared total rate for {key} does not match the stages")
        return plan


def dump_plan(plan: StagePlan, path) -> None:
    with open(path, "w") as fh:
        json.dump(plan.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_plan(path) -> StagePlan:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from None
    return StagePlan.from_dict(data)


@dataclass(frozen=True)
class MergedSystem:
    """A linear system over the current (possibly merged) users.

    ``label_map`` sends every current user to the set of original users
    it stands for; the sets partition the original ground set.
    """

    ground: GroundSet
    source: LinearSource
    label_map: Mapping
    original: GroundSet

    def original_mask(self, subset: SubsetLike) -> int:
        mask = self.ground.mask(subset)
        out = 0
        for pos in bit_positions(mask):
            for member in self.label_map[self.ground.labels[pos]]:
                out |= self.original.bit(member)
        return out


def initial_system(source: PacketSource, chunk_factor: int, field_order: int) -> MergedSystem:
    """Lift a packet source to chunk rows; every user stands for itself."""
    linear = source.lift(chunk_factor, field_order)
    label_map = {label: frozenset([label]) for label in source.ground.labels}
    return MergedSystem(source.ground, linear, label_map, source.ground)


def merge_super_user(system: MergedSystem, subset: SubsetLike, transmissions) -> MergedSystem:
    """Merge the members of ``subset`` into one super user.

    The super user observes everything its members observe (their
    coverage ORed, their table rows united) and takes the position of
    the earliest member.  The stage's ``transmissions`` join the shared
    row table once, and every remaining user hears them on top of its
    own observation.  Any non-singleton proper subset merges; the
    planner passes only subsets that :func:`~soplan.compsetso.comp_set_so`
    certified complementary.
    """
    ground = system.ground
    mask = ground.mask(subset)
    if mask.bit_count() < 2:
        raise DomainError("refusing to merge a singleton; a super user needs two members")
    if mask == ground.full_mask:
        raise DomainError("refusing to merge the entire system")
    members = ground.labels_of(mask)
    source = system.source
    q, width = source.field_order, source.width
    sent = []
    for row in transmissions:
        if len(row) != width:
            raise DomainError(f"transmission of width {len(row)}, expected {width}")
        sent.append(tuple(value % q for value in row))
    row_table = source.row_table + tuple(sent)
    heard = ((1 << len(sent)) - 1) << len(source.row_table)

    super_orig = frozenset().union(*(system.label_map[m] for m in members))
    ordered = sorted(super_orig, key=system.original.position)
    super_label = SUPER_JOIN.join(str(member) for member in ordered)

    anchor = mask & -mask
    new_labels = []
    coverage = {}
    row_sets = {}
    new_map = {}
    for pos, label in enumerate(ground.labels):
        bit = 1 << pos
        if bit & mask:
            if bit != anchor:
                continue
            new_labels.append(super_label)
            coverage[super_label] = row_sets[super_label] = 0
            for member in members:
                coverage[super_label] |= source.coverage[member]
                row_sets[super_label] |= source.row_sets[member]
            new_map[super_label] = super_orig
        else:
            new_labels.append(label)
            coverage[label] = source.coverage[label]
            row_sets[label] = source.row_sets[label] | heard
            new_map[label] = system.label_map[label]
    new_ground = GroundSet(tuple(new_labels))
    linear = LinearSource.from_parts(new_ground, q, width, coverage, row_table, row_sets)
    return MergedSystem(new_ground, linear, new_map, system.original)


@dataclass(frozen=True)
class StageBuild:
    """Planner-internal record of one stage: the system it was planned
    on, the target in that system's labels and the local rates in chunk
    units.  ``emitted`` is False for zero-rate stages, which are merged
    through but dropped from the plan."""

    system: MergedSystem
    target: int
    chunk_rates: Mapping
    stage: Stage
    emitted: bool


@dataclass(frozen=True)
class PlanBuild:
    plan: StagePlan
    builds: tuple


class _ChunkRestart(Exception):
    def __init__(self, multiplier: int):
        self.multiplier = multiplier


def _integral_chunk_counts(chunk_rates: Mapping) -> None:
    denominators = [Fraction(v).denominator for v in chunk_rates.values()]
    bad = [d for d in denominators if d != 1]
    if bad:
        raise _ChunkRestart(lcm(*bad))


def _stage_from_local(system: MergedSystem, mask: int, chunk_rates: Mapping, chunk_factor: int) -> Stage:
    """Map current-system chunk rates down to original users and packet
    units.  A super user's rate lands on its earliest original member."""
    per_original: dict = {}
    for label, rate in chunk_rates.items():
        if rate == 0:
            continue
        representative = min(system.label_map[label], key=system.original.position)
        per_original[representative] = (
            per_original.get(representative, Fraction(0)) + Fraction(rate) / chunk_factor
        )
    rates = RateVector.from_map(system.original, per_original)
    return Stage(system.original_mask(mask), rates)


def _synthesize_stage(
    system: MergedSystem, mask: int, chunk_rates: Mapping, model: str, rng
) -> MergedSystem:
    """Draw the stage's coding rows and return the system merged
    through them.

    A draw is kept once every member spans the whole group's
    observation and the merged system's minimum sum-rate is the current
    one less the stage total.  Random rows reach the generic ranks only
    with high probability over the field, and a draw that hands the
    members everything can still leave an outsider short, so the second
    check is needed as well.  Rejected draws are redrawn within
    ``STAGE_REDRAW_LIMIT`` attempts.
    """
    source = system.source
    members = system.ground.labels_of(mask)
    target_rank = source.entropy(mask)
    expected = min_sum_rate(source, None, model).value - sum(chunk_rates[m] for m in members)
    spaces = {member: source.row_space([member]) for member in members}
    merged = []

    def accept(trial, rows) -> bool:
        if any(trial[m].rank != target_rank for m in members):
            return False
        merged.append(merge_super_user(system, mask, [row for _, row in rows]))
        return min_sum_rate(merged[-1].source, None, model).value == expected

    counts = {m: int(chunk_rates[m]) for m in members}
    draw = draw_stage(spaces, counts, rng, accept)
    if not draw.accepted:
        raise PlanningError(
            f"no draw of stage rows for {system.ground.format(mask)} reached the generic "
            f"ranks in {draw.attempts} attempts; try another seed"
        )
    return merged[-1]


def _plan_pass(source: PacketSource, model: str, seed: int, chunk_factor: int, alpha_mode: str) -> PlanBuild:
    ground = source.ground
    h_total = source.entropy(ground.full_mask)
    if model == NON_ASYMPTOTIC and chunk_factor != 1:
        raise CertificationError(
            "non-asymptotic stage rates are integers; the chunk factor must stay 1"
        )
    field = choose_field(chunk_factor, h_total, ground.size)
    system = initial_system(source, chunk_factor, field.order)
    rng = random.Random(f"{seed}/{chunk_factor}")
    builds = []
    stages = []
    while True:
        outcome = comp_set_so(system.source, model, alpha_mode)
        # a completed sweep leaves the whole system as the final target
        final = outcome.subset is None
        mask = system.ground.full_mask if final else outcome.subset
        chunk_rates = min_sum_rate(system.source, mask, model).rates.as_dict()
        _integral_chunk_counts(chunk_rates)
        stage = _stage_from_local(system, mask, chunk_rates, chunk_factor)
        emitted = stage.total > 0
        builds.append(StageBuild(system, mask, chunk_rates, stage, emitted))
        if emitted:
            stages.append(stage)
        if final:
            break
        system = _synthesize_stage(system, mask, chunk_rates, model, rng)

    plan = StagePlan(ground, model, tuple(stages), chunk_factor, field.order, seed)
    want = min_sum_rate(source, None, model).value
    have = plan.total_rates.total
    if have != want:
        raise CertificationError(
            f"stage rates total {have} but the single-shot minimum sum-rate is {want}"
        )
    return PlanBuild(plan, tuple(builds))


def build_plan(
    source: PacketSource,
    model: str = ASYMPTOTIC,
    seed: int = 0,
    alpha_mode: str = LOWER_BOUND,
) -> PlanBuild:
    """Plan with full internal records (per-stage systems and rates)."""
    check_model(model)
    if not isinstance(source, PacketSource):
        raise DomainError("staged planning synthesizes coding rows and needs a packet source")
    chunk_factor = 1
    for _ in range(MAX_RESTARTS):
        try:
            return _plan_pass(source, model, seed, chunk_factor, alpha_mode)
        except _ChunkRestart as restart:
            chunk_factor *= restart.multiplier
    raise PlanningError("the chunk factor did not stabilize; this should be impossible")


def plan_multistage(
    source: PacketSource,
    model: str = ASYMPTOTIC,
    seed: int = 0,
    alpha_mode: str = LOWER_BOUND,
) -> StagePlan:
    """Build a certified multi-stage plan for ``source``.

    Stage totals always sum to the single-shot minimum sum-rate for
    ``model``; zero-rate residual stages are omitted (users that merged
    through every stage already hear everything they need).
    """
    return build_plan(source, model, seed, alpha_mode).plan
