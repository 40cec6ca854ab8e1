"""The parametrized set function f, its partition truncation, and the
prefix-lattice minimization that drives the subset search.

For a source with ground set V and a rational ``shift``::

    f(X) = 0                 if X is empty
           shift + H(X)      otherwise

With ``shift = alpha - H(V)`` this is the paper's f#_alpha.  The
truncation minimizes the block sum of f over all partitions of a
subset; equality of f#_alpha(X) with its truncation at the right alpha
characterizes the subsets worth splitting off early.

One step serves every sweep: :func:`minimize_over_prefix` minimizes
g(S) = f(S | t) - r(S) over candidate sets S of the finished prefix,
for the newest user t.  The step's minimizers are closed under union
and intersection, f minus the rates being submodular, and it returns
that lattice as ints: the minimum, the union (the maximal minimizer)
and the intersection (the minimal minimizer); only for the early-exit
sweep does it also work out the (cardinality, mask) tie-break among
them.  The truncation is the sum of the finished rates.

A sweep does not offer the step every prefix subset, but the unions of
the finest partition of the prefix into tight blocks (r(B) = f(B)).
Let B be such a block and S meet B.  Submodularity on S | t and B,
which meet, gives g(S | B) - g(S) <= r(S & B) - f(S & B) <= 0, so
joining the blocks a set meets never raises g: the minimum is a block
union's, the maximal minimizer is a block union, and the least block
union that minimizes is t with the blocks that meet the minimal
minimizer.  The sweep joins t with those blocks, which keeps the
partition the finest tight one.  Before an early exit every step's
minimal minimizer is {t}, so the blocks are the singletons and the
early-exit sweep sees every prefix subset, ascending.  The sweep also
records the blocks of a coarser tight partition, joined at each step's
maximal minimizer, which become a :class:`~soplan.core.Partition`
only when a caller reads one.
Partitions are never enumerated outside the tests, where
``tests/conftest.enumerate_partitions`` serves as the oracle.

:func:`dilworth_truncation` is the one exception, on purpose: it is the
reference that ``enumerate --verify`` re-derives every verdict with, so
it shares no code with the step, the sweep or the trie walk it checks,
and not even their method.  It reads the truncation off a table of
partition minima, built for every subset at once by the recurrence over
the block that holds a subset's lowest user, and cached on the source
for the latest shift (:func:`partition_minima`), where ``enumerate
--verify`` reads every other subset's entry as an int after one call
at V.

The step has two callers.  :func:`run_rate_update` walks one path of the
prefix trie: the sweep over V, or over one subset.  The sweep over a
subset X at user j sees only the members of X below j, so the sweep over
X is the sweep over X minus its highest user plus one more step.
:func:`_prefix_trie_sweeps` uses that to finish the sweep over every
nonempty subset at one shift in a single depth-first walk, one step per
subset and 3^n / 2 candidates in all, where a sweep per subset pays
the per-step overhead n * 2^(n-1) times.  For each subset it yields the
new user's rate with the stepper of the subset minus that user, whose
rate sums give r(X) and whose :meth:`PrefixStepper.first_excess`
checks r(S) <= f(S) for every S that holds the new user, as the walk's
caller does at every node.  That check needs every subset's rate sum,
so the walk's steps take every prefix subset, not the block unions: a
:class:`PrefixStepper` keeps them all.

The sweeps reach H only through the source's stepper, on the scale of
its ``entropy_scaled(X)`` = D*H(X).  For shift = p/q a sweep keeps every
rate as an int on the scale q*D, where f(X) is ``p*D + q*D*H(X)``;
Fractions appear only in the shift it takes and in what it returns.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import DomainError, Partition, SubsetLike, bit_positions, subset_sums


def dilworth_truncation(source, shift, subset: SubsetLike) -> Fraction:
    """Minimize the block sum of f(X) = shift + H(X) over all partitions
    of ``subset``: the Dilworth truncation of f at ``subset``.

    This is the reference that ``enumerate --verify`` checks the prefix
    trie against, so it is kept apart from the step on purpose: it
    calls neither :func:`minimize_over_prefix` nor :func:`run_rate_update`
    and runs no greedy sweep.  It reads the value off
    :func:`partition_minima`'s table for ``shift``: the first call at a
    shift costs 3^|V| / 2 visits, and every later call at that shift is
    a lookup.
    """
    mask = source.ground.mask(subset)
    if mask == 0:
        raise DomainError("truncation of the empty set is not defined")
    if not isinstance(shift, Fraction):
        shift = Fraction(shift)
    return Fraction(partition_minima(source, shift)[mask], shift.denominator * source.denominator)


def partition_minima(source, shift: Fraction) -> list:
    """:func:`_partition_minima`'s table for ``shift``, which the source
    keeps for the latest shift only; :func:`dilworth_truncation` reads
    its values, and ``enumerate --verify`` compares them as ints."""
    cached = source.__dict__.get("_partition_minima")
    if cached is None or cached[0] is not shift and cached[0] != shift:
        cached = source.__dict__["_partition_minima"] = (shift, _partition_minima(source, shift))
    return cached[1]


def _partition_minima(source, shift: Fraction) -> list:
    """``best[X]``, the least block sum of f(Y) = shift + H(Y) over the
    partitions of X, for every mask X, as ints on the scale weight*D
    (weight = shift.denominator).

    The block B of a partition of X that holds X's lowest user leaves a
    partition of X minus B, so best[X] = min over those B of
    f(B) + best[X minus B], with best[{}] = 0.  Every such X minus B lies
    above X's lowest user, so the table is filled one lowest user at a
    time, from the highest down.  For each, a depth-first walk adds the
    users above it in ascending order and doubles the list of candidate
    blocks with each: 2^(|X| - 1) candidates for X, 3^n / 2 in all.
    """
    weight, size = shift.denominator, source.ground.size
    f = [shift.numerator * source.denominator + weight * h for h in source.entropies]
    best = [0] * len(f)  # f[0] is never read: every block is nonempty

    def grow(mask: int, blocks: list, start: int) -> None:
        for pos in range(start, size):
            top = 1 << pos
            child = mask | top
            child_blocks = blocks + [block | top for block in blocks]
            best[child] = min([f[block] + best[child ^ block] for block in child_blocks])
            if pos + 1 < size:
                grow(child, child_blocks, pos + 1)

    for pos in reversed(range(size)):
        low = 1 << pos
        best[low] = f[low]
        grow(low, [low], pos + 1)
    return best


class SfmResult:
    """One prefix step, as ints: the minimum key, the union and the
    intersection of the minimizers (both minimizers themselves, since f
    minus the rates is submodular), the early exit and the number of
    candidates.  The early exit, the smallest (cardinality, bitmask)
    minimizer other than ``{top}`` and the step's domain, is worked out
    only for a step that is given the domain; else it is None.  Every
    sweep step builds one, so it is a plain slotted class: built and
    read faster than a :class:`~typing.NamedTuple`."""

    __slots__ = ("min_value", "maximal_minimizer", "minimal_minimizer", "exit_subset",
                 "candidates_examined")

    def __init__(self, min_value: int, maximal_minimizer: int, minimal_minimizer: int,
                 exit_subset: int | None, candidates_examined: int):
        self.min_value = min_value
        self.maximal_minimizer = maximal_minimizer
        self.minimal_minimizer = minimal_minimizer
        self.exit_subset = exit_subset
        self.candidates_examined = candidates_examined


def minimize_over_prefix(table, weight: int, top: int, submasks, rate_sums,
                         whole: int | None = None) -> SfmResult:
    """Minimize the key ``weight * table[sub | top] - total`` over the
    candidate sets ``sub`` of the finished prefix, each with its rate
    sum ``total`` from ``rate_sums``.  The candidates must hold the
    intersection and the union of any two minimizers, and list every
    candidate after its subsets: the prefix's submasks in ascending
    order, or the unions of its tight blocks as
    :func:`~soplan.core.subset_sums` lists them.

    On the rates' scale weight*D the key is f(X) - r(X) for X = sub | top,
    less f's constant and plus the rate of ``top``, so both have the
    same minimizers, and that rate is finished at f's constant plus
    ``min_value``.  Given the sweep's domain ``whole``, the step also
    works out the early exit.  Every minimizer holds the intersection,
    so that is the exit when it has two users or more and is not the
    domain, and there is none when it is the domain; when it is
    ``{top}``, the exit is the smallest of the other minimizers."""
    keys = [weight * table[sub | top] - total for sub, total in zip(submasks, rate_sums)]
    best = min(keys)
    minimizers = [sub for sub, key in zip(submasks, keys) if key == best]
    # the intersection and the union are minimizers, and every set comes
    # after its subsets: they come first and last
    meet, union = minimizers[0], minimizers[-1]
    exit_subset = None
    if whole is not None and meet | top != whole:
        # sub | top orders as sub does: top is in no sub
        eligible = [meet] if meet else [sub for sub in minimizers if sub and sub | top != whole]
        if eligible:
            exit_subset = min(eligible, key=lambda sub: (sub.bit_count(), sub)) | top
    return SfmResult(best, union | top, meet | top, exit_subset, len(submasks))


class PrefixStepper:
    """The steps of the prefix-trie walk on an int entropy table at one
    ``weight``: the finished prefix's submasks, ascending, and their rate
    sums.  Each finished user grows a new stepper (``child``) and leaves
    this one's lists as they were, to the siblings of the walk, which
    branches.  :func:`run_rate_update` reads only a fresh stepper's
    ``table``."""

    __slots__ = ("table", "weight", "submasks", "sums")

    def __init__(self, table, weight: int, submasks: list, sums: list):
        self.table, self.weight, self.submasks, self.sums = table, weight, submasks, sums

    def step(self, top: int, whole: int | None = None) -> SfmResult:
        return minimize_over_prefix(self.table, self.weight, top, self.submasks, self.sums, whole)

    def child(self, top: int, rate: int) -> "PrefixStepper":
        """A new stepper with ``top`` absorbed at ``rate``: this one's
        lists followed by their doubled half, built once."""
        submasks, sums = self.submasks, self.sums
        return PrefixStepper(self.table, self.weight, submasks + [sub | top for sub in submasks],
                             sums + [total + rate for total in sums])

    def first_excess(self, top: int, rate: int, base: int) -> int | None:
        """The first set S = sub | top, over the absorbed submasks ``sub``
        in ascending order, whose rate sum with ``rate`` as top's rate
        exceeds f(S) = ``base`` + weight * table[S]; else None.

        This reads the rate sums but none of the step's choices.  A rate
        that :meth:`step` finished is the least f(S) - r(sub) over these
        sets, so no set exceeds f with it."""
        table, weight, slack = self.table, self.weight, base - rate
        over = [sub for sub, total in zip(self.submasks, self.sums)
                if total > slack + weight * table[sub | top]]
        return over[0] | top if over else None


class UpdateRun(NamedTuple):
    """Trace of the rate update loop.

    ``scaled`` holds the rates, as ints on the scale ``scale``, after
    initialization and after every completed update, so invariants can
    be replayed; ``rates`` gives the last as Fractions: the finished
    rates, or on an early exit the state when the subset surfaced.
    ``blocks`` are the tight blocks of a completed sweep's domain (None
    after an early exit): their f values add up to the sum of the
    finished rates.  ``partition`` builds their :class:`Partition` when
    read.  ``finest`` holds the blocks of the finest tight partition,
    which ``finest_partition`` builds when read.
    """

    exit_subset: int | None
    exit_position: int | None
    scaled: tuple
    scale: int
    candidates_examined: int
    blocks: list | None
    finest: list | None = None

    @property
    def partition(self) -> Partition | None:
        return None if self.blocks is None else Partition(self.blocks)

    @property
    def finest_partition(self) -> Partition | None:
        """The finest partition of a completed sweep's domain into tight
        blocks: each step joined its user with every block that meets the
        step's minimal minimizer, the intersection of its minimizers.

        Every block of the finest tight partition of the prefix lies in
        one block of any tight partition of the prefix with the newest
        user, since the pieces cut from it would be tight, and the
        newest user's block holds the minimal minimizer; so the join is
        the finest.  At alpha = R(X) the tight partitions with two or
        more blocks are those whose bound is R(X), so this is the
        finest of them, the fundamental partition; above R(X) it is
        {X}."""
        return None if self.finest is None else Partition(self.finest)

    @property
    def rates(self) -> tuple:
        return tuple(Fraction(value, self.scale) for value in self.scaled[-1])


def _join_blocks(blocks: list, top: int, minimizer: int) -> list:
    """The tight blocks after the step of ``top``: ``top`` joined with
    every block that meets ``minimizer``, one of the step's minimizers."""
    joined, rest = top, []
    for block in blocks:
        if block & minimizer:
            joined |= block
        else:
            rest.append(block)
    return rest + [joined]


def run_rate_update(source, shift, early_exit: bool = True, within: SubsetLike = None) -> UpdateRun:
    """The prefix-sweep rate update of f(X) = shift + H(X) over
    ``within`` (default: V).

    Start from r = shift on the users of ``within``, and 0 elsewhere;
    for each user in turn, minimize f - r over the prefix sets
    containing that user, which for the first is that user alone, by
    one :func:`minimize_over_prefix` step on the source's table, read
    through a fresh stepper.  With ``early_exit`` the sweep
    stops as soon as a minimizer is a non-singleton proper subset
    of ``within`` and reports it; otherwise the minimum is absorbed into
    that user's rate and the sweep continues to completion.

    The finished rates are the greedy maximum of r(within) subject to
    r(X) <= f(X) for every nonempty X inside ``within``, which is the
    Dilworth truncation of f at ``within``.  Along the way the sweep
    keeps two partitions of the prefix whose blocks are tight
    (r(B) = f(B)): each step joins the newest user with every block that
    meets that step's maximal minimizer in one, and its minimal
    minimizer in the other.  Tight sets that meet have a tight union, so
    the blocks stay tight.  The second, ``fine``, is the finest tight
    partition, kept with each block's rate sum; each step's candidates
    are the unions of its blocks, with their rate sums (see the module
    docstring), and an early-exit sweep's are every prefix subset.
    """
    ground = source.ground
    whole = ground.full_mask if within is None else ground.mask(within)
    if whole == 0:
        raise DomainError("the rate update needs at least one user")
    shift = Fraction(shift)
    weight = shift.denominator
    base = shift.numerator * source.denominator  # f's constant on the scale weight*D
    rates = [base if whole >> pos & 1 else 0 for pos in range(ground.size)]
    table, scale = source.stepper(weight).table, weight * source.denominator
    scaled, blocks, fine = [], [], {}  # fine: each finest block's rate sum
    candidates = -1  # the first user's one candidate, itself, is no choice
    for pos in bit_positions(whole):
        top = 1 << pos
        step = minimize_over_prefix(table, weight, top, subset_sums(fine),
                                    subset_sums(fine.values()), whole if early_exit else None)
        candidates += step.candidates_examined
        if step.exit_subset is not None:
            return UpdateRun(step.exit_subset, pos + 1, tuple(scaled), scale, candidates, None)
        rates[pos] = rate = base + step.min_value
        scaled.append(tuple(rates))
        blocks = _join_blocks(blocks, top, step.maximal_minimizer)
        joined = [block for block in fine if block & step.minimal_minimizer]
        # disjoint masks sum to their union
        fine[sum(joined, top)] = sum(map(fine.pop, joined), rate)
    return UpdateRun(None, None, tuple(scaled), scale, candidates, blocks, list(fine))


def _prefix_trie_sweeps(source, shift):
    """Yield ``(mask, stepper, rate, blocks)`` for every nonempty mask X:
    the completed sweep of f(Y) = shift + H(Y) over X.

    ``stepper`` is the stepper of the sweep over X's parent P, the mask
    minus its highest user ``top``, before ``top`` is absorbed: it holds P's
    submasks in ascending order with their rate sums on the scale
    ``shift.denominator * D``, so r(X) is its last sum plus ``rate``,
    ``top``'s finished rate, and :meth:`PrefixStepper.first_excess`
    checks every set that holds ``top``.  The rates equal
    ``run_rate_update(source, shift, early_exit=False, within=mask)``'s
    finished rates, and ``blocks`` are its tight blocks.  The walk goes
    depth first through the prefix trie, in which the parent of a mask
    is the mask minus its highest user, and yields X before its
    children.  A child does the one step of its new highest user on its
    parent's stepper, and its own children step on
    :meth:`PrefixStepper.child` of that stepper, built once from the
    parent's lists and the new user's rate.  The stepper is shared with
    X's siblings and must not be changed.
    """
    shift = Fraction(shift)
    base = shift.numerator * source.denominator
    size = source.ground.size

    def grow(parent: int, stepper, blocks: list):
        for pos in range(parent.bit_length(), size):
            top = 1 << pos
            child = parent | top
            step = stepper.step(top)
            rate = base + step.min_value
            child_blocks = _join_blocks(blocks, top, step.maximal_minimizer)
            yield child, stepper, rate, child_blocks
            if pos + 1 < size:
                yield from grow(child, stepper.child(top, rate), child_blocks)

    yield from grow(0, source.stepper(shift.denominator), [])
