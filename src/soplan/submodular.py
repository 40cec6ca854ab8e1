"""The parametrized set function f#_alpha, its partition truncation, and
the prefix-lattice minimization that drives the subset search.

For a source with ground set V and a rational parameter alpha::

    f#_alpha(X) = 0                          if X is empty
                  alpha - H(V) + H(X)        otherwise

The truncation minimizes the block sum of f#_alpha over all partitions
of a subset; equality of f#_alpha(X) with its truncation at the right
alpha characterizes the subsets worth splitting off early.

One loop computes everything here: the prefix sweep of
:func:`run_rate_update`, optionally restricted to a subset.  Each step
minimizes over the 2^(i-1) prefix sets that hold the newest user, so a
completed sweep over k users visits 2^k - 1 sets.  The truncation is the
sum of the finished rates, and the sweep records a partition attaining
it.  Partitions are never enumerated outside the tests, where
:func:`soplan.core.enumerate_partitions` serves as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DomainError,
    GroundSet,
    Partition,
    SubsetLike,
    bit_positions,
    submask_sums,
)


@dataclass(frozen=True)
class AlphaFunction:
    """f#_alpha for a fixed source and alpha.

    Any rational alpha is accepted: the sweeps behind a minimum sum-rate
    of a subset, or behind a non-asymptotic witness, shift it past H(V).
    Callers that take alpha from outside check its range themselves.
    """

    source: object
    alpha: Fraction

    def __post_init__(self):
        alpha = Fraction(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "_shift", alpha - self.source.entropy(self.ground.full_mask))

    @property
    def ground(self) -> GroundSet:
        return self.source.ground

    def value(self, subset: SubsetLike) -> Fraction:
        mask = self.ground.mask(subset)
        if mask == 0:
            return Fraction(0)
        return self._shift + self.source.entropy(mask)


def dilworth_truncation(af: AlphaFunction, subset: SubsetLike) -> tuple:
    """Minimize the block sum of f#_alpha over all partitions of
    ``subset``.

    Returns ``(min_value, partition)``.  One completed prefix sweep over
    the subset gives both: the finished rates sum to the minimum
    (Fujishige's greedy construction of the Dilworth truncation), and the
    tight partition the sweep records attains it.  That partition is the
    coarsest minimizer, so it is the one-block partition exactly when no
    finer partition beats f#_alpha(subset).
    """
    mask = af.ground.mask(subset)
    if mask == 0:
        raise DomainError("truncation of the empty set is not defined")
    run = run_rate_update(af, early_exit=False, within=mask)
    return sum(run.rates, Fraction(0)), run.partition


@dataclass(frozen=True)
class SfmResult:
    """Outcome of minimizing f#_alpha(X) - r(X) over the sets X that
    contain the newest user inside the current prefix.

    The minimizers of such a function are closed under union and
    intersection, so ``minimal_minimizer`` / ``maximal_minimizer`` are
    themselves minimizers.  ``nonsingleton_proper_minimizer`` applies
    the early-exit tie-break: smallest cardinality first, then smallest
    bitmask; it is None when every minimizer is a singleton or the full
    ground set.
    """

    min_value: Fraction
    minimizers: tuple
    minimal_minimizer: int
    maximal_minimizer: int
    nonsingleton_proper_minimizer: int | None
    candidates_examined: int


def minimize_over_prefix(af: AlphaFunction, rates, position: int, within: SubsetLike = None) -> SfmResult:
    """Exhaustively minimize g(X) = f#_alpha(X) - r(X) over
    ``{X : position's user in X, X inside the first `position` users}``,
    and inside ``within`` when given (default: the whole ground set).

    ``rates`` holds one rational per ground position.  ``position`` is
    1-based in ground order; candidates are enumerated by ascending mask
    value, which fixes the order of ``minimizers``.
    "Proper" in ``nonsingleton_proper_minimizer`` means other than
    ``within`` itself.
    """
    ground = af.ground
    whole = ground.full_mask if within is None else ground.mask(within)
    if not 1 <= position <= ground.size:
        raise DomainError(f"position {position} out of range")
    top = 1 << (position - 1)
    if not whole & top:
        raise DomainError(f"position {position} lies outside {ground.format(whole)}")
    if len(rates) != ground.size:
        raise DomainError("rate sequence length does not match the ground set")

    # For X = sub + top, g(X) = (shift - r(top)) + H(X) - r(sub); the part
    # in brackets is the same for every candidate, so only the rest is
    # compared.
    submasks, rate_sums = submask_sums(whole & (top - 1), rates)
    entropy = af.source.entropy
    best = None
    minimizers: list = []
    for sub, rate_sum in zip(submasks, rate_sums):
        candidate = sub | top
        key = entropy(candidate) - rate_sum
        if best is None or key < best:
            best = key
            minimizers = [candidate]
        elif key == best:
            minimizers.append(candidate)

    minimal = minimizers[0]
    maximal = 0
    for m in minimizers:
        minimal &= m
        maximal |= m
    eligible = [m for m in minimizers if m.bit_count() >= 2 and m != whole]
    chosen = min(eligible, key=lambda m: (m.bit_count(), m)) if eligible else None
    return SfmResult(
        min_value=af._shift - rates[position - 1] + best,
        minimizers=tuple(minimizers),
        minimal_minimizer=minimal,
        maximal_minimizer=maximal,
        nonsingleton_proper_minimizer=chosen,
        candidates_examined=len(submasks),
    )


@dataclass(frozen=True)
class UpdateRun:
    """Trace of the rate update loop.

    ``snapshots`` holds the rate tuple after initialization and after
    every completed update, so invariants over the running vector can be
    replayed.  On an early exit ``rates`` is the state at the moment the
    subset surfaced.  ``partition`` is the tight partition of a completed
    sweep's domain (None after an early exit): its blocks' f#_alpha
    values add up to the sum of the finished rates.
    """

    exit_subset: int | None
    exit_position: int | None
    rates: tuple
    snapshots: tuple
    candidates_examined: int
    partition: Partition | None


def run_rate_update(af: AlphaFunction, early_exit: bool = True, within: SubsetLike = None) -> UpdateRun:
    """The prefix-sweep rate update over ``within`` (default: V).

    Start from r = (f#_alpha({first user}), alpha - H(V), ...) on the
    users of ``within``, and 0 elsewhere; for each later user, minimize
    f#_alpha - r over the prefix sets containing that user.  With
    ``early_exit`` the sweep stops as soon as a minimizer is a
    non-singleton proper subset of ``within`` and reports it; otherwise
    the minimum is absorbed into that user's rate and the sweep continues
    to completion.

    The finished rates are the greedy maximum of r(within) subject to
    r(X) <= f#_alpha(X) for every nonempty X inside ``within``, which is
    the Dilworth truncation of f#_alpha at ``within``.  Along the way the
    sweep keeps a partition of the prefix whose blocks are tight
    (r(B) = f#_alpha(B)): each step joins the newest user with every
    block that meets that step's maximal minimizer.  Tight sets that
    meet have a tight union, so the blocks stay tight.
    """
    ground = af.ground
    whole = ground.full_mask if within is None else ground.mask(within)
    if whole == 0:
        raise DomainError("the rate update needs at least one user")
    positions = list(bit_positions(whole))
    rates = [Fraction(0)] * ground.size
    for pos in positions:
        rates[pos] = af._shift
    rates[positions[0]] = af.value(1 << positions[0])
    snapshots = [tuple(rates)]
    blocks = [1 << positions[0]]
    candidates = 0
    for pos in positions[1:]:
        result = minimize_over_prefix(af, rates, pos + 1, whole)
        candidates += result.candidates_examined
        if early_exit and result.nonsingleton_proper_minimizer is not None:
            return UpdateRun(
                exit_subset=result.nonsingleton_proper_minimizer,
                exit_position=pos + 1,
                rates=tuple(rates),
                snapshots=tuple(snapshots),
                candidates_examined=candidates,
                partition=None,
            )
        rates[pos] += result.min_value
        snapshots.append(tuple(rates))
        joined = 1 << pos
        rest = []
        for block in blocks:
            if block & result.maximal_minimizer:
                joined |= block
            else:
                rest.append(block)
        blocks = rest + [joined]
    return UpdateRun(
        exit_subset=None,
        exit_position=None,
        rates=tuple(rates),
        snapshots=tuple(snapshots),
        candidates_examined=candidates,
        partition=Partition(blocks),
    )
