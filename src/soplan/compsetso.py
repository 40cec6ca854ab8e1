"""Single-sweep search for a complementary subset.

The search runs the prefix rate update of :mod:`soplan.submodular` with
a parameter alpha and stops at the first non-singleton proper minimizer.
Alpha is chosen in one of two modes:

* ``alpha = R(V)`` (mode ``exact``): an early exit returns a
  complementary subset, and completion proves none exists; either way
  one pays for computing R(V) up front, a few full sweeps.
* ``alpha = sum_i (H(V) - H({i})) / (|V| - 1)`` (mode ``lower_bound``,
  ceiled in the non-asymptotic model): a cheap lower bound on R(V).  An
  early exit still returns a complementary subset, and completion
  additionally proves that alpha was R(V) all along, so the finished
  rates are an optimal omniscience rate vector.  R(V) is never computed.

:func:`comp_set_so` computes alpha itself, so it always lies in
[0, H(V)].  The non-asymptotic model takes integer entropies only
(:func:`soplan.omniscience.check_source_model`), and the guarantee that
an early exit is complementary there needs them.

:func:`comp_set_so` certifies every outcome before returning it by one
rule, H(V) - H(X) + R(X) <= alpha <= R(V), where the mode only decides
why alpha is at most R(V); a failed check is a bug and raises
:class:`CertificationError`.  :func:`complementary_by_lower_bound`
checks the witness of its verdict the same way
:func:`soplan.omniscience.enumerate_complementary` does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import CertificationError, DomainError, RateVector, SubsetLike
from .omniscience import (
    ASYMPTOTIC,
    NON_ASYMPTOTIC,
    _reaches,
    _require_testable,
    check_source_model,
    check_sw_achievable,
    min_sum_rate,
)
from .submodular import run_rate_update

import math

EXACT = "exact"
LOWER_BOUND = "lower_bound"


def _singleton_bound(source, mask: int, model: str) -> Fraction:
    """``sum_{i in V} (H(X) - H({i})) / (|V| - 1)`` for X = ``mask``,
    ceiled in the non-asymptotic model."""
    h, n = source.entropy_scaled, source.ground.size
    deficit = n * h(mask) - sum(h(1 << pos) for pos in range(n))
    bound = Fraction(deficit, source.denominator * (n - 1))
    return Fraction(math.ceil(bound)) if model == NON_ASYMPTOTIC else bound


def alpha_lower_bound(source, model: str = ASYMPTOTIC) -> Fraction:
    """The singleton-partition lower bound on the minimum sum-rate,
    ceiled in the non-asymptotic model."""
    check_source_model(source, model)
    return _singleton_bound(source, source.ground.full_mask, model)


def _alpha(source, model: str, mode: str) -> Fraction:
    """The alpha that ``mode`` names; either way it is at most R(V)."""
    if mode == EXACT:
        return min_sum_rate(source, None, model).value
    if mode == LOWER_BOUND:
        return alpha_lower_bound(source, model)
    raise DomainError(f"unknown alpha mode {mode!r}")


class Certificate(NamedTuple):
    """Human-checkable evidence for an outcome."""

    summary: str
    lines: tuple

    def __str__(self) -> str:
        return "\n".join((self.summary,) + self.lines)


class CompSetOutcome(NamedTuple):
    """One search: how alpha was chosen and its value, then either a
    complementary subset (mask) or, if the sweep completed, the finished
    rate vector.  ``exit_position`` is the 1-based user position whose
    prefix surfaced the subset.  :func:`comp_set_so` returns outcomes
    with their ``certificate``."""

    mode: str
    model: str
    alpha: Fraction
    subset: int | None
    rates: RateVector | None
    exit_position: int | None
    candidates_examined: int
    certificate: Certificate | None = None


def comp_set_so(source, model: str = ASYMPTOTIC, mode: str = EXACT) -> CompSetOutcome:
    """Run the single-sweep search at the alpha that ``mode`` names and
    return the certified outcome.  The non-asymptotic model needs
    integer entropies."""
    check_source_model(source, model)
    alpha = _alpha(source, model, mode)
    ground = source.ground
    run = run_rate_update(source, alpha - source.entropy(ground.full_mask), early_exit=True)
    rates = None if run.exit_subset is not None else RateVector(ground, run.rates, ground.full_mask)
    outcome = CompSetOutcome(
        mode, model, alpha, run.exit_subset, rates, run.exit_position, run.candidates_examined
    )
    return outcome._replace(certificate=certify_outcome(source, outcome))


def complementary_by_lower_bound(source, subset: SubsetLike, model: str = ASYMPTOTIC) -> bool:
    """A sufficient (not necessary) complementarity test that never
    computes R(V).

    Takes the subset-specific bound
    ``alpha = sum_{i in V} (H(X) - H({i})) / (|V| - 1)`` (ceiled in the
    non-asymptotic model) and asks whether R(X) <= gamma for
    ``gamma = alpha - H(V) + H(X)``, by one sweep whose verdict is
    checked against its witness; a failed witness raises
    :class:`CertificationError`.  The non-asymptotic model takes integer
    entropies, so gamma is an integer there and bounds the ceiling of
    R(X) exactly when it bounds R(X).  When alpha falls outside
    [0, H(V)] the test simply does not apply and False is returned.
    """
    check_source_model(source, model)
    ground = source.ground
    mask = ground.mask(subset)
    _require_testable(ground, mask)
    alpha = _singleton_bound(source, mask, model)
    h_v = source.entropy(ground.full_mask)
    if not 0 <= alpha <= h_v:
        return False
    return _reaches(source, mask, alpha - h_v + source.entropy(mask))[0]


def certify_outcome(source, outcome: CompSetOutcome) -> Certificate:
    """Check an outcome against H(V) - H(X) + R(X) <= alpha <= R(V).

    alpha <= R(V) holds by the choice of alpha, recomputed for the
    outcome's mode.  A subset X must meet the left inequality with R(X)
    certified.  Finished rates must sum to alpha and be achievable on V
    (integers in the non-asymptotic model), so alpha = R(V) and they are
    optimal.  Only mode exact computes R(V), to choose alpha.  A failed
    check raises :class:`CertificationError` naming it.
    """
    ground = source.ground
    model, mode, alpha = outcome.model, outcome.mode, outcome.alpha
    chosen = _alpha(source, model, mode)
    if alpha != chosen:
        raise CertificationError(f"alpha differs from the {mode} alpha {chosen}: alpha = {alpha}")
    lines = [f"alpha = {alpha} (mode {mode}, model {model})"]
    if mode == EXACT:
        lines.append(f"alpha equals the certified minimum sum-rate {alpha}")

    if outcome.subset is not None:
        mask = outcome.subset
        h_v = source.entropy(ground.full_mask)
        h_x = source.entropy(mask)
        r_x = min_sum_rate(source, mask, model).value
        lhs = h_v - h_x + r_x
        holds = lhs <= alpha
        inequality = (
            f"subset {ground.format(mask)}: H(V) - H(X) + R(X) = "
            f"{h_v} - {h_x} + {r_x} = {lhs} {'<=' if holds else '>'} {alpha} = "
            + ("R(V)" if mode == EXACT else "alpha <= R(V)")
        )
        if not holds:
            raise CertificationError(
                f"{ground.format(mask)} FAILED the complementarity check ({model}): {inequality}"
            )
        lines.append(inequality)
        if outcome.exit_position is not None:
            lines.append(f"surfaced at user position {outcome.exit_position}")
        if mode == LOWER_BOUND:
            lines.append(
                "note: only the returned subset is certified; other complementary "
                "subsets may exist"
            )
        summary = f"{ground.format(mask)} certified complementary ({model})"
    else:
        rates = outcome.rates
        if rates.total != alpha:
            raise CertificationError(f"finished rates sum to {rates.total}, not alpha = {alpha}")
        lines.append(f"finished rates {rates.format()} sum to alpha = {alpha}")
        check = check_sw_achievable(source, ground.full_mask, rates)
        if not check.ok:
            raise CertificationError(
                f"rates violate the constraint for {ground.format(check.violating)} "
                f"by {check.deficit}"
            )
        lines.append("rates satisfy every omniscience constraint on V")
        if model == NON_ASYMPTOTIC:
            if any(v.denominator != 1 for v in rates.values):
                raise CertificationError("non-integer entry in a non-asymptotic rate vector")
            lines.append("all entries are integers, as the non-asymptotic model requires")
        if mode == LOWER_BOUND:
            lines.append(
                f"alpha = R(V) = {alpha}: no complementary subset exists and the "
                "finished rates are an optimal omniscience rate vector"
            )
        else:
            lines.append(
                "sweep completed at the exact minimum sum-rate: no complementary "
                "subset exists and the finished rates are optimal"
            )
        summary = f"finished rates certified optimal ({model})"
    return Certificate(summary, tuple(lines))
