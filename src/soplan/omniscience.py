"""Minimum sum-rates for omniscience and the complementarity oracle.

Two rate models are supported everywhere:

* ``asymptotic`` - rates are arbitrary rationals; the minimum sum-rate
  is the partition bound
  ``max over P of sum_{C in P} (H(X) - H(C)) / (|P| - 1)``
  taken over all partitions of X into at least two blocks.
* ``non_asymptotic`` - rates are integers (packets); the minimum
  sum-rate is the ceiling of the asymptotic one.  That holds for integer
  entropies, so this model refuses a source with a fractional one
  (:func:`check_source_model`).

A rate vector r achieves omniscience of X iff every proper subset C of
X satisfies ``r(C) >= H(X) - H(X minus C)``, i.e. the members of C can
jointly make up everything the rest cannot already infer.

A non-singleton proper subset X of V is *complementary* when local
omniscience inside X followed by global omniscience costs no more than
going directly: ``H(V) - H(X) + R(X) <= R(V)`` with R per model.  Such
subsets are exactly what the staged planner peels off first.

Every "is R(X) <= t?" is decided by one completed sweep over X, on ints
on the sweep's scale w*D for a shift p/w, and checked against its
witness: a no by the partition bound of the sweep's blocks multiplied
out (:func:`_bound_exceeds`), a yes by r(X) = f(X) and r(S) <= f(S) for
every nonempty S inside X.  A single sweep (:func:`_reaches`) checks its
yes with the source's ``shortfall``; :func:`min_sum_rate` asks it, and
so does :func:`_complementary_at`, the one test of
R(X) <= alpha - H(V) + H(X) behind both complementarity tests.
:func:`enumerate_complementary` decides every subset in one shared walk
and checks each set S once, at the walk's node whose highest user is
S's, off the rate sums that node's stepper already holds
(:meth:`~soplan.submodular.PrefixStepper.first_excess`).
:func:`partition_bound` and :class:`~soplan.core.Partition` serve only
the iteration and the certificate of :func:`min_sum_rate`, whose
partition is the fundamental partition; :func:`enumerate_complementary`
checks its list against that partition's blocks, and with ``verify``
against the reference truncation of :mod:`soplan.submodular`: one call
at V, which must give R(V), then every other subset's int entry of the
same table of partition minima.  Verdicts, partition bounds and the
achievability check ask the source's ``entropy_scaled``, ``stepper``
and ``shortfall`` and never index its table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .core import (
    CertificationError,
    DomainError,
    GroundSet,
    Partition,
    RateVector,
    SubsetLike,
    bit_positions,
)
from .submodular import _prefix_trie_sweeps, dilworth_truncation, partition_minima, run_rate_update

ASYMPTOTIC = "asymptotic"
NON_ASYMPTOTIC = "non_asymptotic"
MODELS = (ASYMPTOTIC, NON_ASYMPTOTIC)


def check_model(model: str) -> str:
    if model not in MODELS:
        raise DomainError(f"unknown model {model!r}; expected one of {MODELS}")
    return model


def check_source_model(source, model: str) -> str:
    """``model`` once it is known and, in the non-asymptotic model, the
    source has integer entropies, else :class:`DomainError`.  The
    whole-packet minimum is ceil(R) on integer entropies and can exceed
    it on fractional ones; on integer ones every non-asymptotic target
    is an integer."""
    check_model(model)
    if model == NON_ASYMPTOTIC and not source.integral:
        raise DomainError(
            "the non-asymptotic model needs integer entropies; this source has a fractional one"
        )
    return model


class MinSumRateResult(NamedTuple):
    """Value of the minimum sum-rate with its primal-dual witness: an
    achievable rate vector that sums to the value (so R <= value), in
    both models, and in the asymptotic model a partition whose bound
    equals the value (so R >= value), the finest such partition."""

    model: str
    value: Fraction
    maximizing_partition: Partition | None
    rates: RateVector


def _deficit(source, mask: int, blocks) -> tuple:
    """``(k*h(X) - sum of h(B), k - 1)`` for the k ``blocks`` and
    X = ``mask``, with h the entropies on the scale D: when the blocks
    partition X, their partition bound is the first over D times the
    second."""
    h = source.entropy_scaled
    return len(blocks) * h(mask) - sum(map(h, blocks)), len(blocks) - 1


def partition_bound(source, partition: Partition) -> Fraction:
    """``sum_{C in P} (H(X) - H(C)) / (|P| - 1)`` for a partition P of X
    into at least two blocks: a lower bound on R(X)."""
    if len(partition) < 2:
        raise DomainError("the partition bound needs at least two blocks")
    deficit, parts = _deficit(source, partition.union, partition)
    return Fraction(deficit, source.denominator * parts)


def _starting_bound(source, mask: int) -> Fraction:
    """The larger of two partition bounds on R(X) for X = ``mask``: the
    singletons', (|X|*H(X) - sum of H({i})) / (|X| - 1), and the best
    bipartition's, 2*H(X) - min over Y of [H(Y) + H(X minus Y)]."""
    singletons, parts = _deficit(source, mask, [1 << pos for pos in bit_positions(mask)])
    split = 2 * source.entropy_scaled(mask) - source.split_minimum(mask)
    return max(Fraction(singletons, source.denominator * parts),
               Fraction(split, source.denominator))


def _min_sum_rate_asymptotic(source, mask: int) -> MinSumRateResult:
    """R(X) by the decomposition scheme of Ding, Chan, Zhou, Kennedy and
    Sadeghi ("Determining optimal rates for communication for
    omniscience", IEEE Trans. IT 2018).

    Starting from :func:`_starting_bound`, each alpha is put to
    :func:`_reaches`.  A no records a partition with a strictly larger
    bound, which becomes the next alpha.  A yes comes at alpha = R(X),
    since every alpha is a partition bound; its rates are the witness,
    and its finest tight partition is the fundamental partition, the
    finest partition whose bound is R(X) (Chan, Al-Bashabsheh, Zhou,
    Kaced and Liu, "Successive omniscience", IEEE Trans. IT 2016).  That
    partition must have two blocks or more and attain alpha, else
    :class:`CertificationError`; the verdict checked the rates.
    """
    alpha = _starting_bound(source, mask)
    while True:
        reached, run = _reaches(source, mask, alpha)
        if reached:
            break
        alpha = partition_bound(source, run.partition)
    rates = RateVector(source.ground, run.rates, mask)
    partition = run.finest_partition
    if (len(partition) < 2 or partition.union != mask
            or partition_bound(source, partition) != alpha):
        raise CertificationError(
            f"witness partition of {source.ground.format(mask)} does not attain {alpha}"
        )
    return MinSumRateResult(ASYMPTOTIC, alpha, partition, rates)


def min_sum_rate(source, subset: SubsetLike = None, model: str = ASYMPTOTIC) -> MinSumRateResult:
    """Minimum total rate for omniscience of ``subset`` (default: V).

    Computed by iterated prefix sweeps and certified by a primal-dual
    witness before it is returned; a failed certificate raises
    :class:`CertificationError`.  The asymptotic witness rates are the
    final sweep's, at alpha = R(X), checked by its verdict.  The
    asymptotic ``maximizing_partition`` is the fundamental partition of
    X, the finest of the partitions whose bound is R(X): the maximizer
    with the most blocks, since the maximizers form a lattice.  The
    non-asymptotic value is the ceiling of R(X), and its witness is the
    sweep at that ceiling, which must reach it: the asymptotic one when
    R(X) is an integer, and integer-valued, since the non-asymptotic
    model takes integer entropies only (:func:`check_source_model`).
    Needs at least two users in the subset.
    """
    check_source_model(source, model)
    ground = source.ground
    mask = ground.full_mask if subset is None else ground.mask(subset)
    if mask.bit_count() < 2:
        raise DomainError("minimum sum-rate needs a subset of at least two users")
    cache = source.__dict__.setdefault("_minrate_cache", {})
    result = cache.get((mask, model))
    if result is not None:
        return result
    if model == ASYMPTOTIC:
        result = _min_sum_rate_asymptotic(source, mask)
    else:
        asym = min_sum_rate(source, mask, ASYMPTOTIC)
        value = Fraction(math.ceil(asym.value))
        rates = asym.rates
        if value != asym.value:
            reached, run = _reaches(source, mask, value)
            if not reached:
                raise CertificationError(
                    f"the sweep over {ground.format(mask)} at the ceiling {value} of "
                    f"R = {asym.value} gives no witness"
                )
            rates = RateVector(ground, run.rates, mask)
        result = MinSumRateResult(NON_ASYMPTOTIC, value, None, rates)
    cache[(mask, model)] = result
    return result


class SwCheck(NamedTuple):
    """Result of the achievability check; ``violating`` is the first
    offending subset in ascending mask order, with its rate deficit."""

    ok: bool
    violating: int | None
    deficit: Fraction | None

    def __bool__(self) -> bool:
        return self.ok


def check_sw_achievable(source, subset: SubsetLike, rates: RateVector) -> SwCheck:
    """Does ``rates`` let every user in ``subset`` reach omniscience of
    the subset?  Checks ``r(C) >= H(X) - H(X minus C)`` for every proper
    subset C of X, with the rate sums built once over all of X.  Both
    sides are ints, scaled by the lcm L of the rates' denominators times
    the entropy table's D."""
    ground = source.ground
    mask = ground.mask(subset)
    if mask.bit_count() < 2:
        raise DomainError("achievability concerns subsets of at least two users")
    if rates.ground != ground:
        raise DomainError("rate vector is over another ground set than the source")
    if mask & ~rates.domain:
        raise DomainError("rate vector domain does not cover the subset")
    denominator = source.denominator
    scale = math.lcm(*(value.denominator for value in rates.values))
    scaled = [int(value * scale) * denominator for value in rates.values]
    short = source.shortfall(mask, scaled, scale)
    if short is None:
        return SwCheck(True, None, None)
    return SwCheck(False, short[0], Fraction(short[1], scale * denominator))


def is_complementary(source, subset: SubsetLike, model: str = ASYMPTOTIC) -> bool:
    """Whether splitting local omniscience of ``subset`` off first costs
    nothing extra: H(V) - H(X) + R(X) <= R(V).  Decided by one witnessed
    sweep over X at alpha = R(V) (:func:`_complementary_at`); R(X) is not
    computed.  Defined only for non-singleton proper subsets."""
    check_source_model(source, model)
    ground = source.ground
    mask = ground.mask(subset)
    _require_testable(ground, mask)
    return _complementary_at(source, mask, min_sum_rate(source, None, model).value)


def _complementary_at(source, mask: int, alpha: Fraction) -> bool:
    """Whether R(X) <= alpha - H(V) + H(X) for X = ``mask``, by one
    witnessed sweep (:func:`_reaches`): complementarity at alpha = R(V),
    a sufficient condition at a lower bound on R(V).  In the
    non-asymptotic model alpha and the entropies are integers, so the
    target bounds ceil(R(X)) exactly when it bounds R(X)."""
    target = alpha - source.entropy(source.ground.full_mask) + source.entropy(mask)
    return _reaches(source, mask, target)[0]


def _require_testable(ground: GroundSet, mask: int) -> None:
    if mask == ground.full_mask:
        raise DomainError("complementarity is about proper subsets, not V itself")
    if mask.bit_count() < 2:
        raise DomainError("complementarity is not defined for singletons")


def _witnessed_verdict(source, mask: int, shift: Fraction, rates, blocks) -> bool:
    """Whether the completed sweep over X = ``mask`` of
    f(Y) = shift + H(Y), with finished ``rates`` (ints on the scale
    w*D, w = shift.denominator) and tight ``blocks``, reaches f(X), after
    checking the witness of that verdict.

    Yes: the rates sum to f(X) and satisfy r(S) <= f(S) for every
    nonempty S inside X, so they achieve omniscience of X with total
    f(X) and R(X) <= f(X).  No: the blocks partition X into at least two
    blocks whose bound exceeds f(X), so R(X) > f(X); that is checked on
    ints by :func:`_bound_exceeds`.  A witness that fails raises
    :class:`CertificationError`.
    """
    ground = source.ground
    weight = shift.denominator
    own = shift.numerator * source.denominator + weight * source.entropy_scaled(mask)
    if sum(rates) == own:
        # with r(X) = f(X), r(S) <= f(S) for S inside X is
        # r(X minus S) >= weight * (H(X) - H(S)) on the rates' scale
        short = source.shortfall(mask, rates, weight)
        if short is not None:
            raise CertificationError(
                f"rates listing {ground.format(mask)} exceed f on "
                f"{ground.format(mask ^ short[0])}"
            )
        return True
    _require_bound(source, mask, blocks, weight, own)
    return False


def _require_bound(source, mask: int, blocks, weight: int, own: int) -> None:
    """Raise :class:`CertificationError` unless ``blocks`` witness a no
    for X = ``mask``: R(X) > own / (weight * D), by
    :func:`_bound_exceeds`."""
    if not _bound_exceeds(source, mask, blocks, weight, own):
        raise CertificationError(
            f"partition leaving out {source.ground.format(mask)} does not bound R above "
            f"{Fraction(own, weight * source.denominator)}"
        )


def _bound_exceeds(source, mask: int, blocks, weight: int, own: int) -> bool:
    """Whether ``blocks`` are k >= 2 nonempty, pairwise disjoint masks
    whose union is X = ``mask`` and whose partition bound exceeds
    t = own / (weight * D).  The bound, deficit / (D*parts) by
    :func:`_deficit`, exceeds t exactly when deficit * weight >
    own * parts, which is decided on ints; no :class:`Partition` and no
    Fraction is built."""
    union = members = 0
    for block in blocks:
        union |= block
        members += block.bit_count()
    if len(blocks) < 2 or union != mask or members != mask.bit_count() or min(blocks) <= 0:
        return False
    deficit, parts = _deficit(source, mask, blocks)
    return deficit * weight > own * parts


def _reaches(source, mask: int, target: Fraction) -> tuple:
    """``(R(X) <= target, run)`` for X = ``mask``.

    ``run`` is the completed sweep over X of f(Y) = target - H(X) + H(Y),
    whose finished rates sum to the Dilworth truncation of f at X; that
    reaches f(X) = target exactly when R(X) <= target.  The verdict is
    checked against its witness by :func:`_witnessed_verdict`."""
    shift = target - source.entropy(mask)
    run = run_rate_update(source, shift, early_exit=False, within=mask)
    return _witnessed_verdict(source, mask, shift, run.scaled[-1], run.blocks), run


def enumerate_complementary(source, model: str = ASYMPTOTIC, verify: bool = False) -> tuple:
    """All complementary subsets, as masks in ascending order.

    X is complementary exactly when R(X) <= gamma_X, where
    gamma_X = s + H(X) with s = R(V) - H(V).  In the non-asymptotic model
    R is ceiled and the entropies are integers, so s and every gamma_X
    are integers, and an integer bounds the ceiling exactly when it
    bounds R(X).  R(X) <= gamma_X holds exactly when the Dilworth
    truncation of f(Y) = s + H(Y) at X equals f(X) = gamma_X.  One walk of the prefix
    trie finishes the sweep at shift s over every subset, with one step
    per subset.  R(V) is the only minimum sum-rate computed.

    Every verdict is checked against its witness.  A no needs the
    sweep's blocks to bound R(X) above f(X) (:func:`_bound_exceeds`).  A
    yes needs r(X) = f(X), read as the last rate sum of the stepper of
    X's parent P plus the rate of X's top user t, and r(S) <= f(S) for
    every nonempty S inside X.  The walk checks the second at every
    node it yields, before that node's children: at X, for every S = T
    plus t with T inside P
    (:meth:`~soplan.submodular.PrefixStepper.first_excess`); a
    failure raises :class:`CertificationError`.  A set S inside X whose
    highest user u is not t lies inside the ancestor A of X on X's trie
    path whose top is u, A = the members of X up to u, and was checked
    there; A's rates are X's on A, since a child only adds its own top's
    rate.  So the checks along X's path cover every nonempty S inside X
    exactly once, and a listed X's yes-witness costs nothing more.  The
    check reads the walk's rate sums, which are arithmetic on its rates,
    and none of its choices.

    Every block of R(V)'s asymptotic fundamental partition
    (:func:`min_sum_rate`) with two users or more is complementary, so
    each must be listed; that cross-check reuses the R(V) computed
    above and costs no sweep.  It holds in the asymptotic model, and in
    the non-asymptotic model, whose entropies are integers, since
    R(B) + H(V) - H(B) <= R(V) gives
    ceil(R(B)) + H(V) - H(B) <= ceil(R(V)).  For s = p/w every gamma_X
    is an int on the scale w*D of the sweep's rates, p*D + w*D*H(X), so
    no verdict builds a Fraction, a :class:`Partition` or a partition
    bound.

    With ``verify=True`` every verdict is recomputed from the Dilworth
    truncation of f at that subset, and the two lists must agree.  That
    reference is kept apart from the prefix step on purpose: it shares
    no code with the trie walk, so a fault in the step cannot corrupt
    both sides alike.  One call of :func:`dilworth_truncation` at V
    builds its table of partition minima at s, and must return R(V),
    which f(V) reaches in either model; the other subsets read that
    table (:func:`~soplan.submodular.partition_minima`) on its own
    scale w*D, where X is listed exactly when its entry is the int
    gamma_X = p*D + w*h(X), so no Fraction is built.
    """
    check_source_model(source, model)
    ground = source.ground
    full = ground.full_mask
    r_v = min_sum_rate(source, None, model)
    shift = r_v.value - source.entropy(full)
    weight = shift.denominator
    base = shift.numerator * source.denominator
    h = source.entropy_scaled

    found = []
    for mask, stepper, rate, blocks in _prefix_trie_sweeps(source, shift):
        top = 1 << (mask.bit_length() - 1)
        excess = stepper.first_excess(top, rate, base)
        if excess is not None:
            raise CertificationError(
                f"rates of the sweep over {ground.format(mask)} exceed f on "
                f"{ground.format(excess)}"
            )
        if mask == full or mask == top:
            continue
        own = base + weight * h(mask)
        if stepper.sums[-1] + rate != own:
            _require_bound(source, mask, blocks, weight, own)
            continue
        found.append(mask)
    found.sort()
    complementary = set(found)
    for block in min_sum_rate(source, None, ASYMPTOTIC).maximizing_partition:
        if block.bit_count() > 1 and block not in complementary:
            raise CertificationError(
                f"block {ground.format(block)} of the fundamental partition "
                "is not listed as complementary"
            )
    if verify:
        # f(V) = R(V), or ceil R(V), reaches the truncation at V; this call
        # also builds the reference's table at s, which the rest reads
        value = dilworth_truncation(source, shift, full)
        if value != r_v.value:
            raise CertificationError(
                f"the reference truncation at V is {value}, not R(V) = {r_v.value}"
            )
        best = partition_minima(source, shift)
        by_truncation = [mask for mask in range(3, full)
                         if mask.bit_count() > 1 and best[mask] == base + weight * h(mask)]
        if by_truncation != found:
            only_trie = [ground.format(m) for m in found if m not in by_truncation]
            only_own = [ground.format(m) for m in by_truncation if m not in found]
            raise CertificationError(
                "complementary subsets disagree: "
                f"only the shared sweep: {only_trie}; only the per-subset truncation: {only_own}"
            )
    return tuple(found)


def optimal_rate_vector(source, model: str = ASYMPTOTIC) -> RateVector:
    """An optimal omniscience rate vector for V: the certified witness
    of :func:`min_sum_rate`.  In the non-asymptotic model every entry
    is an integer."""
    return min_sum_rate(source, None, model).rates
