"""Random linear network coding simulation of a stage plan.

Packets are split into chunks, chunks become symbols of GF(q), and
every broadcast is a fresh random linear combination of whatever the
sender can currently span, its own chunks plus all earlier broadcasts,
by :func:`~soplan.gf.random_combination` on the sender's space.
A user decodes once its received span covers every chunk of every
packet in play.

The field order is chosen so large that a random stage essentially
never loses rank (:func:`choose_field`), and a plan's order is checked
by the one test :func:`check_field`.  A plan's chunk factor is derived
from its stages (:func:`~soplan.multistage.least_chunk_factor`).  When
a stage does come up short, its rows are redrawn from fresh randomness
(the rate budget is unchanged; the failed draw is discarded) and the
attempt count is recorded in the stage report, so no failure passes
silently.  A stage that stays short after ``STAGE_REDRAW_LIMIT``
attempts keeps its last draw and the honest decode flags propagate to
the final report.  Only the stage members are checked: a draw can still
leave a bystander below the rank generic rows give it (the rank the
planner's merged tables hold, see
:func:`~soplan.multistage.merge_super_user`), and a later stage may
then fail to decode.

Every user's space starts from its chunk columns as covered
coordinates (see :class:`~soplan.gf.RowSpace`), so only broadcasts are
ever eliminated, and the basis rows they leave are stored without
their identity columns: with r such rows on f uncovered columns, an
elimination works on f - r entries per row.  Whether a member decodes
a stage is read off its reduced basis
(:meth:`~soplan.gf.RowSpace.spans_units`), with no elimination, for
the first member that decodes; the other members are read off their
rank (see :func:`draw_stage`).  The members that decode
a stage hold one space from then on, as the planner's super user does:
they share one :class:`~soplan.gf.RowSpace` with the stage's columns
covered, which hears each later row once.  The one membership test per
broadcast checks that the sender spans its own row, and a row outside
it raises :class:`~soplan.core.CertificationError`.
"""

from __future__ import annotations

import json
import random
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .core import CertificationError, DomainError, FormatError
from .gf import RowSpace, is_prime, next_prime, random_combination
from .sources import PacketSource

if TYPE_CHECKING:
    from .multistage import StagePlan

STAGE_REDRAW_LIMIT = 25

# what json.dumps(..., sort_keys=True, allow_nan=False) writes, without a
# new encoder per record
_JSONL = json.JSONEncoder(sort_keys=True, allow_nan=False)


def check_field(order: int, chunk_factor: int, packets: int, n_users: int) -> None:
    """Refuse a field order that is not a prime exceeding ``n_users``
    users times ``packets`` packets split into ``chunk_factor`` chunks,
    with :class:`DomainError`."""
    if not is_prime(order):
        raise DomainError(f"field order {order} is not prime")
    if order <= chunk_factor * packets * n_users:
        raise DomainError(
            f"field order {order} is too small: it must exceed "
            f"{chunk_factor} * {packets} * {n_users}"
        )


def choose_field(chunk_factor: int, packets: int, n_users: int) -> int:
    """The smallest prime that :func:`check_field` accepts: the least
    exceeding chunk_factor * packets * users."""
    return next_prime(chunk_factor * packets * n_users)


class Broadcast(NamedTuple):
    stage: int
    sender: object
    row: tuple


class StageReport(NamedTuple):
    """Decode flags for one stage: did each target member end the stage
    spanning every chunk the target group holds?  ``attempts`` counts
    the draws the stage took; anything above 1 means an earlier draw
    lost rank and was redrawn."""

    stage: int
    target: int
    achieved: Mapping
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return all(self.achieved.values())


class Transcript(NamedTuple):
    """Everything a simulation produced, replayable from the seed."""

    seed: int
    field_order: int
    chunk_factor: int
    broadcasts: tuple
    stage_reports: tuple
    decoded: Mapping
    ranks: Mapping
    required_rank: int

    @property
    def ok(self) -> bool:
        return all(self.decoded.values())

    def to_jsonl(self) -> str:
        """One JSON record per broadcast, then a closing summary record."""
        encode = _JSONL.encode
        lines = [
            encode(
                {
                    "stage": broadcast.stage,
                    "sender": str(broadcast.sender),
                    "coding_row": broadcast.row,
                    "field": self.field_order,
                }
            )
            for broadcast in self.broadcasts
        ]
        lines.append(
            encode(
                {
                    "ok": self.ok,
                    "decoded": {str(u): flag for u, flag in self.decoded.items()},
                    "ranks": {str(u): rank for u, rank in self.ranks.items()},
                    "required_rank": self.required_rank,
                    "stage_attempts": [r.attempts for r in self.stage_reports],
                }
            )
        )
        return "\n".join(lines) + "\n"


class StageDraw(NamedTuple):
    """One stage's coding rows as ``(sender, row)`` pairs in broadcast
    order, every listener's space after hearing them (the members that
    decoded with the same covered columns share one, with the needed
    columns covered), the number of attempts taken, and whether each
    sender spans the needed columns after the last attempt."""

    rows: tuple
    spaces: Mapping
    attempts: int
    achieved: Mapping


def draw_stage(spaces: Mapping, counts: Mapping, rng, needed: int, stage: int = 0) -> StageDraw:
    """Draw one stage's random coding rows, redrawing short draws.

    ``spaces`` maps every listener to its current row space and stays
    untouched; listeners may share one space.  Every space must hold
    its covered columns' unit rows and the rows broadcast so far, and
    nothing else, as :func:`execute_plan` keeps them.  ``counts`` maps
    each sender, in sending order, to its number of rows.  A sender
    combines what it spans at its turn (its observation plus the rows
    sent before it in the same draw), and every other space hears each
    row.  A draw is kept once every sender spans the unit rows of the
    columns in ``needed``.  Drawing stops there, after one draw without
    rows (fresh randomness cannot change it), or after
    ``STAGE_REDRAW_LIMIT`` attempts; the last draw is returned.  A row
    outside its sender's span, which no correct combination produces,
    raises :class:`CertificationError` naming ``stage`` and the sender.
    """
    attempts = 0
    while True:
        attempts += 1
        # one copy of each distinct space, shared as the spaces are
        copies = {}
        trial = {}
        for user, space in spaces.items():
            if id(space) not in copies:
                copies[id(space)] = space.clone()
            trial[user] = copies[id(space)]
        listeners = list(copies.values())
        rows = []
        for sender, count in counts.items():
            space = trial[sender]
            for _ in range(count):
                row = random_combination(space, rng)
                # a sender can only combine what it already spans
                if not space.contains(row):
                    raise CertificationError(
                        f"stage {stage}: sender {sender!r} broadcast a row outside its own span"
                    )
                rows.append((sender, row))
                for listener in listeners:
                    if listener is not space:
                        listener.add(row)
        # A member with covered columns C holds at most the unit rows of
        # C | needed and the rows sent so far, and it decodes exactly when
        # it holds all of them.  So once one member with the same C |
        # needed is seen to decode, another decodes iff its rank is the
        # same.
        achieved = {}
        decoded = {}  # C | needed -> the space of the first member that decodes
        for member in counts:
            space = trial[member]
            key = space.covered | needed
            if key in decoded:
                achieved[member] = space.rank == decoded[key].rank
            elif space.spans_units(needed):
                achieved[member] = True
                decoded[key] = space
            else:
                achieved[member] = False
        if all(achieved.values()) or not rows or attempts >= STAGE_REDRAW_LIMIT:
            break
    # the members that decoded with the same C | needed hold one space
    # and share it from here on, with the needed columns covered
    shared = {key: space.cover(needed) for key, space in decoded.items()}
    for member, ok in achieved.items():
        if ok:
            trial[member] = shared[trial[member].covered | needed]
    return StageDraw(tuple(rows), trial, attempts, achieved)


def _chunk_columns(packet_order, possession: Mapping, chunk_factor: int) -> tuple:
    """Packet k of ``packet_order`` becomes the chunk columns k*L ...
    k*L+L-1 for chunk factor L.  Returns the row width and each user's
    covered columns as a bitmask."""
    chunks = (1 << chunk_factor) - 1
    columns = {packet: chunks << k * chunk_factor for k, packet in enumerate(packet_order)}
    coverage = {label: sum(columns[p] for p in held) for label, held in possession.items()}
    return chunk_factor * len(packet_order), coverage


def execute_plan(source: PacketSource, plan: "StagePlan", seed: int = None) -> Transcript:
    """Run a stage plan and report per-user decode results.

    Broadcasts reach every user, not only the stage's target; later
    stages count on bystanders having heard earlier stages.  ``seed``
    defaults to the seed recorded in the plan.  Only the stage members'
    decoding is checked before a draw is kept; bystanders are not.
    The plan's user order is used throughout, so a plan made on a
    reordered source runs on the source as filed.  A plan whose field
    order fails :func:`check_field` is refused with :class:`FormatError`.
    """
    if not isinstance(source, PacketSource):
        raise DomainError("the simulator needs a packet source")
    ground = plan.ground
    if set(ground.labels) != set(source.ground.labels):
        raise FormatError("plan users do not match source users")
    q = plan.field_order
    chunk = plan.chunk_factor
    # H(V) of a packet source is its number of held packets; reading it
    # off the entropy table would build all 2^|V| entries
    h_total = len(source.packet_order)
    try:
        check_field(q, chunk, h_total, ground.size)
    except DomainError as exc:
        raise FormatError(f"plan {exc}") from None
    stage_counts = []
    for stage_index, stage in enumerate(plan.stages):
        counts = {}
        for member in ground.labels_of(stage.target):
            rate = stage.rates.rate(member)
            if rate > h_total:
                # beyond H(V) a sender's rows cannot add a dimension
                raise FormatError(
                    f"stage {stage_index} rate {rate} for {member!r} exceeds "
                    f"the source entropy {h_total}"
                )
            counts[member] = int(rate * chunk)
        stage_counts.append(counts)
    width, coverage = _chunk_columns(source.packet_order, source.possession, chunk)
    if seed is None:
        seed = plan.seed
    rng = random.Random(seed)

    spaces = {user: RowSpace(q, width, covered=coverage[user]) for user in ground.labels}
    broadcasts = []
    reports = []
    for stage_index, (stage, counts) in enumerate(zip(plan.stages, stage_counts)):
        needed = 0
        for member in counts:
            needed |= coverage[member]
        draw = draw_stage(spaces, counts, rng, needed, stage_index)
        spaces = draw.spaces
        broadcasts.extend(Broadcast(stage_index, sender, row) for sender, row in draw.rows)
        reports.append(StageReport(stage_index, stage.target, draw.achieved, draw.attempts))

    decoded = {user: spaces[user].rank == width for user in ground.labels}
    ranks = {user: spaces[user].rank for user in ground.labels}
    return Transcript(
        seed=seed,
        field_order=q,
        chunk_factor=chunk,
        broadcasts=tuple(broadcasts),
        stage_reports=tuple(reports),
        decoded=decoded,
        ranks=ranks,
        required_rank=width,
    )
