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

* Planning is entropy-table arithmetic; no coding row is drawn.  The
  first system is the packet source itself, and each merged system is a
  :class:`~soplan.sources.TableSource` built from the previous table and
  the stage rates by the generic-rank formula of
  :func:`merge_super_user`: the rank generic coding rows give every
  listener (Ho et al., "A random linear network coding approach to
  multicast", IEEE Trans. IT 2006).
* A merged table is scaled by the denominator of its stage's rates, so
  every table stays integral.  ``MergedSystem.scale`` counts a system's
  entropy units per packet, and stage rates are divided by it.
* The chunk factor, the number of chunks each packet is split into so
  that every stage broadcast is a whole number of chunk rows, is the lcm
  of the stage rates' denominators in packet units (1 in the
  non-asymptotic model).  The field is chosen from it once, at the end.
* A super user keeps the label of its earliest original member, who is
  charged its transmissions and can produce them because local
  omniscience handed the whole group's observation to every member.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple

from .core import (
    CertificationError,
    DomainError,
    FormatError,
    GroundSet,
    RateVector,
    Record,
    SubsetLike,
    bit_positions,
    brief,
    json_text,
    parse_fraction,
    read_json,
    submask_sums,
)
from .omniscience import ASYMPTOTIC, NON_ASYMPTOTIC, check_model, min_sum_rate
from .compsetso import LOWER_BOUND, comp_set_so
from .rlnc import choose_field
from .sources import PacketSource, TableSource, _label_lookup


class Stage(Record):
    """One plan step: a target subset of the original users and the
    per-user rates (packet units) spent on it.  Rates live on the full
    original ground set and are zero outside the target."""

    __slots__ = _fields = ("target", "rates")

    def __init__(self, target: int, rates: RateVector):
        ground = rates.ground
        target = ground.mask(target)
        if target == 0:
            raise DomainError("a stage needs a nonempty target")
        for pos, value in enumerate(rates.values):
            if value < 0:
                raise DomainError("stage rates must be nonnegative")
            if value != 0 and not target >> pos & 1:
                raise DomainError(
                    f"stage rate for {ground.labels[pos]!r} outside the stage target"
                )
        self._init(target=target, rates=rates)

    @property
    def total(self) -> Fraction:
        return self.rates.total


class StagePlan(Record):
    """An ordered list of stages plus everything the simulator needs:
    the chunk factor, the field order and its default seed.
    ``total_rates`` is each user's rate summed over the stages."""

    _fields = ("ground", "model", "stages", "chunk_factor", "field_order", "seed")
    __slots__ = _fields + ("total_rates",)

    def __init__(self, ground: GroundSet, model: str, stages: tuple, chunk_factor: int,
                 field_order: int, seed: int):
        check_model(model)
        if chunk_factor < 1:
            raise DomainError("chunk factor must be a positive integer")
        for stage in stages:
            if stage.rates.ground != ground:
                raise DomainError("stage rates must live on the plan's ground set")
        total = sum((stage.rates for stage in stages), RateVector.zeros(ground))
        self._init(ground=ground, model=model, stages=stages, chunk_factor=chunk_factor,
                   field_order=field_order, seed=seed, total_rates=total)

    def to_dict(self) -> dict:
        """The structure :meth:`from_dict` reads; refuses labels it refuses."""
        _label_lookup(self.ground)
        totals = self.total_rates
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
                str(label): str(totals.rate(label)) for label in self.ground.labels
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
        lookup = _label_lookup(ground)
        model = data["model"]
        if model not in (ASYMPTOTIC, NON_ASYMPTOTIC):
            raise FormatError(f"unknown model {brief(model)}")
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
                    raise FormatError(f"stage {k} targets unknown user {brief(item)}")
                target_mask |= ground.bit(lookup[key])
            rates = {}
            for key, value in raw["rates"].items():
                if key not in lookup:
                    raise FormatError(f"stage {k} rates name unknown user {brief(key)}")
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
                    raise FormatError(f"'total_rates' names unknown user {brief(key)}")
                if parse_fraction(value, where=f"total rate for {key}") != actual.rate(lookup[key]):
                    raise FormatError(f"declared total rate for {key} does not match the stages")
        return plan


def dump_plan(plan: StagePlan, path) -> None:
    text = json_text(plan.to_dict())
    with open(path, "w") as fh:
        fh.write(text)


def load_plan(path) -> StagePlan:
    return StagePlan.from_dict(read_json(path))


class MergedSystem(NamedTuple):
    """The system a stage is planned on.

    ``source`` is the packet source for the first stage and an integral
    entropy table afterwards; ``scale`` is its number of entropy units
    per packet.  ``label_map`` sends every current user to the set of
    original users it stands for; the sets partition the original
    ground set.
    """

    source: PacketSource | TableSource
    label_map: Mapping
    original: GroundSet
    scale: int

    @property
    def ground(self) -> GroundSet:
        return self.source.ground

    def original_mask(self, subset: SubsetLike) -> int:
        mask = self.ground.mask(subset)
        out = 0
        for pos in bit_positions(mask):
            for member in self.label_map[self.ground.labels[pos]]:
                out |= self.original.bit(member)
        return out


def initial_system(source: PacketSource) -> MergedSystem:
    """The packet source as a system; every user stands for itself."""
    label_map = {label: frozenset([label]) for label in source.ground.labels}
    return MergedSystem(source, label_map, source.ground, 1)


def merge_super_user(system: MergedSystem, subset: SubsetLike, rates: RateVector) -> MergedSystem:
    """Merge the members of ``subset`` = X into one super user after a
    stage in which they broadcast generic coding rows at ``rates`` (a
    rate vector on the system's users, zero outside X).

    The super user observes everything its members observe and takes
    the position and the label of the earliest member.  Every other
    user hears the stage's rows, and a listener set Y disjoint from X
    reaches the rank generic rows give it: the minimum over sender sets
    T ⊆ X of what Y and the senders outside T observe, plus the rows T
    sends::

        H'(Y) = H(Y ∪ X)                                 if Y meets X
        H'(Y) = min over T ⊆ X of H(Y ∪ (X∖T)) + r(T)    if Y is nonempty
        H'(∅) = 0

    The new table is scaled by the lcm d of the rates' denominators, so
    it stays integral, and the returned system's ``scale`` is d times
    the current one.  Any non-singleton proper subset merges; the planner
    passes only subsets that :func:`~soplan.compsetso.comp_set_so`
    certified complementary.
    """
    ground = system.ground
    mask = ground.mask(subset)
    if mask.bit_count() < 2:
        raise DomainError("refusing to merge a singleton; a super user needs two members")
    if mask == ground.full_mask:
        raise DomainError("refusing to merge the entire system")
    source = system.source
    d = lcm(*(rates.values[pos].denominator for pos in bit_positions(mask)))
    h, denominator = source.entropy_scaled, source.denominator
    # r(T) for every T in X, on the scale d * denominator of the new table
    senders, sent = submask_sums(mask, [int(v * d) * denominator for v in rates.values])

    anchor = mask & -mask
    new_map = {}
    # old_masks[m] is the current-system subset that the new subset m
    # stands for; the super user's position stands for all of X
    old_masks = [0]
    for pos, label in enumerate(ground.labels):
        bit = 1 << pos
        if bit == anchor:
            bit = mask
        elif bit & mask:
            continue
        new_map[label] = frozenset().union(*(system.label_map[m] for m in ground.labels_of(bit)))
        old_masks += [old | bit for old in old_masks]

    merged = []
    for old in old_masks:
        if old & mask:
            value = d * h(old | mask)
        elif old:
            value = min(d * h(old | (mask ^ t)) + r for t, r in zip(senders, sent))
        else:
            value = 0
        merged.append(value)
    table_source = TableSource._from_ints(GroundSet(tuple(new_map)), merged, denominator)
    return MergedSystem(table_source, new_map, system.original, system.scale * d)


class StageBuild(NamedTuple):
    """Planner-internal record of one stage: the system it was planned
    on, the target in that system's labels and the local rates in that
    system's units.  ``emitted`` is False for zero-rate stages, which are
    merged through but dropped from the plan."""

    system: MergedSystem
    target: int
    rates: RateVector
    stage: Stage
    emitted: bool


class PlanBuild(NamedTuple):
    plan: StagePlan
    builds: tuple


def _stage_from_local(system: MergedSystem, mask: int, rates: RateVector) -> Stage:
    """Map current-system rates down to original users and packet
    units.  A super user's label is its earliest original member, who
    takes its rate."""
    per_original = {label: rate / system.scale for label, rate in rates.as_dict().items() if rate}
    return Stage(system.original_mask(mask), RateVector.from_map(system.original, per_original))


def build_plan(
    source: PacketSource,
    model: str = ASYMPTOTIC,
    seed: int = 0,
    alpha_mode: str = LOWER_BOUND,
) -> PlanBuild:
    """Plan with full internal records (per-stage systems and rates).

    Each merge is certified: the merged system's minimum sum-rate is the
    current one less the stage total, at the new scale.  So is the plan:
    its total is the single-shot minimum sum-rate.  ``seed`` is only
    recorded in the plan, for the simulator.
    """
    check_model(model)
    if not isinstance(source, PacketSource):
        raise DomainError("staged planning splits packets into chunks and needs a packet source")
    system = initial_system(source)
    builds = []
    while True:
        outcome = comp_set_so(system.source, model, alpha_mode)
        # a completed sweep leaves the whole system as the final target
        final = outcome.subset is None
        mask = system.ground.full_mask if final else outcome.subset
        rates = min_sum_rate(system.source, mask, model).rates
        stage = _stage_from_local(system, mask, rates)
        builds.append(StageBuild(system, mask, rates, stage, stage.total > 0))
        if final:
            break
        merged = merge_super_user(system, mask, rates)
        want = (min_sum_rate(system.source, None, model).value - rates.total) * (
            merged.scale // system.scale
        )
        have = min_sum_rate(merged.source, None, model).value
        if have != want:
            raise CertificationError(
                f"merging {system.ground.format(mask)} left a minimum sum-rate of {have}, "
                f"not {want}"
            )
        system = merged

    stages = tuple(record.stage for record in builds if record.emitted)
    chunk_factor = lcm(*(rate.denominator for stage in stages for rate in stage.rates.values))
    if model == NON_ASYMPTOTIC and chunk_factor != 1:
        raise CertificationError(
            "non-asymptotic stage rates are integers; the chunk factor must stay 1"
        )
    field = choose_field(chunk_factor, source.entropy(source.ground.full_mask), source.ground.size)
    plan = StagePlan(source.ground, model, stages, chunk_factor, field.order, seed)
    want = min_sum_rate(source, None, model).value
    have = plan.total_rates.total
    if have != want:
        raise CertificationError(
            f"stage rates total {have} but the single-shot minimum sum-rate is {want}"
        )
    return PlanBuild(plan, tuple(builds))


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
