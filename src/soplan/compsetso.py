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
  rates are an optimal omniscience rate vector.

:func:`comp_set_so` refuses an alpha outside [0, H(V)].  In the
non-asymptotic model it also refuses a source with a fractional entropy:
the guarantee that an early exit is complementary there assumes integer
entropies, and with a fractional one the ceiling on R(X) can break it.

Every outcome is certified against the minimum sum-rates of
:mod:`soplan.omniscience`, each of which carries its own primal-dual
witness; a failed certificate is a bug and raises
:class:`CertificationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import CertificationError, DomainError, Partition, RateVector, SubsetLike
from .omniscience import (
    ASYMPTOTIC,
    NON_ASYMPTOTIC,
    check_model,
    check_sw_achievable,
    min_sum_rate,
    partition_bound,
)
from .submodular import AlphaFunction, dilworth_truncation, run_rate_update

import math

EXACT = "exact"
LOWER_BOUND = "lower_bound"


def alpha_lower_bound(source, model: str = ASYMPTOTIC) -> Fraction:
    """The singleton-partition lower bound on the minimum sum-rate,
    ceiled in the non-asymptotic model."""
    check_model(model)
    singletons = Partition(tuple(1 << pos for pos in range(source.ground.size)))
    bound = partition_bound(source, singletons)
    if model == NON_ASYMPTOTIC:
        bound = Fraction(math.ceil(bound))
    return bound


@dataclass(frozen=True)
class AlphaChoice:
    """A parameter value together with how it was chosen, which decides
    what the certificate may claim."""

    mode: str
    model: str
    value: Fraction

    def __post_init__(self):
        if self.mode not in (EXACT, LOWER_BOUND):
            raise DomainError(f"unknown alpha mode {self.mode!r}")
        check_model(self.model)
        object.__setattr__(self, "value", Fraction(self.value))

    @classmethod
    def exact(cls, source, model: str = ASYMPTOTIC) -> "AlphaChoice":
        return cls(EXACT, model, min_sum_rate(source, None, model).value)

    @classmethod
    def lower_bound(cls, source, model: str = ASYMPTOTIC) -> "AlphaChoice":
        return cls(LOWER_BOUND, model, alpha_lower_bound(source, model))


@dataclass(frozen=True)
class CompSetOutcome:
    """Either a complementary subset (mask) or, if the sweep completed,
    the finished rate vector.  ``exit_position`` is the 1-based user
    position whose prefix surfaced the subset."""

    subset: int | None
    rates: RateVector | None
    exit_position: int | None
    candidates_examined: int


def comp_set_so(source, alpha: AlphaChoice) -> CompSetOutcome:
    """Run the single-sweep search with the given alpha choice, which
    must lie in [0, H(V)]; the non-asymptotic model also needs integer
    entropies."""
    h_total = source.entropy(source.ground.full_mask)
    if not 0 <= alpha.value <= h_total:
        raise DomainError(f"alpha = {alpha.value} outside [0, H(V)] = [0, {h_total}]")
    if alpha.model == NON_ASYMPTOTIC and not source.integral:
        raise DomainError(
            "the non-asymptotic subset search needs integer entropies; "
            "this source has a fractional one"
        )
    af = AlphaFunction(source, alpha.value)
    run = run_rate_update(af, early_exit=True)
    if run.exit_subset is not None:
        return CompSetOutcome(
            subset=run.exit_subset,
            rates=None,
            exit_position=run.exit_position,
            candidates_examined=run.candidates_examined,
        )
    rates = RateVector(source.ground, run.rates, source.ground.full_mask)
    return CompSetOutcome(
        subset=None,
        rates=rates,
        exit_position=None,
        candidates_examined=run.candidates_examined,
    )


def complementary_by_lower_bound(source, subset: SubsetLike, model: str = ASYMPTOTIC) -> bool:
    """A sufficient (not necessary) complementarity test that never
    computes R(V).

    Evaluates the truncation equality at the subset-specific bound
    ``alpha = sum_{i in V} (H(X) - H({i})) / (|V| - 1)`` (ceiled in the
    non-asymptotic model).  When that alpha falls outside [0, H(V)] the
    test simply does not apply and False is returned.
    """
    check_model(model)
    ground = source.ground
    mask = ground.mask(subset)
    if mask == ground.full_mask or mask.bit_count() < 2:
        raise DomainError("the test concerns non-singleton proper subsets")
    h_x = source.entropy(mask)
    total = sum((h_x - source.entropy(1 << pos) for pos in range(ground.size)), Fraction(0))
    alpha = total / (ground.size - 1)
    if model == NON_ASYMPTOTIC:
        alpha = Fraction(math.ceil(alpha))
    if not 0 <= alpha <= source.entropy(ground.full_mask):
        return False
    af = AlphaFunction(source, alpha)
    value, _ = dilworth_truncation(af, mask)
    return value == af.value(mask)


@dataclass(frozen=True)
class Certificate:
    """Human-checkable evidence for an outcome."""

    ok: bool
    summary: str
    lines: tuple

    def __str__(self) -> str:
        return "\n".join((self.summary,) + self.lines)


def certify_outcome(source, alpha: AlphaChoice, outcome: CompSetOutcome) -> Certificate:
    """Check an outcome against the certified minimum sum-rates.

    Subset outcomes are certified complementary via the direct
    inequality; finished rates are certified achievable with total
    alpha, and in ``lower_bound`` mode alpha itself is certified equal
    to the minimum sum-rate.  A failure raises
    :class:`CertificationError`.
    """
    ground = source.ground
    model = alpha.model
    lines = [f"alpha = {alpha.value} (mode {alpha.mode}, model {model})"]
    ok = True

    if alpha.mode == EXACT:
        oracle = min_sum_rate(source, None, model).value
        if alpha.value == oracle:
            lines.append(f"alpha equals the certified minimum sum-rate {oracle}")
        else:
            ok = False
            lines.append(f"alpha differs from the certified minimum sum-rate {oracle}")

    if outcome.subset is not None:
        mask = outcome.subset
        h_v = source.entropy(ground.full_mask)
        h_x = source.entropy(mask)
        r_x = min_sum_rate(source, mask, model).value
        r_v = min_sum_rate(source, None, model).value
        lhs = h_v - h_x + r_x
        holds = lhs <= r_v
        ok = ok and holds
        rel = "<=" if holds else ">"
        lines.append(
            f"subset {ground.format(mask)}: H(V) - H(X) + R(X) = "
            f"{h_v} - {h_x} + {r_x} = {lhs} {rel} {r_v} = R(V)"
        )
        if outcome.exit_position is not None:
            lines.append(f"surfaced at user position {outcome.exit_position}")
        if alpha.mode == LOWER_BOUND:
            lines.append(
                "note: only the returned subset is certified; other complementary "
                "subsets may exist"
            )
        summary = (
            f"{ground.format(mask)} certified complementary ({model})"
            if holds
            else f"{ground.format(mask)} FAILED the complementarity check ({model})"
        )
    else:
        rates = outcome.rates
        total = rates.total
        if total == alpha.value:
            lines.append(f"finished rates {rates.format()} sum to alpha = {total}")
        else:
            ok = False
            lines.append(f"finished rates sum to {total}, not alpha = {alpha.value}")
        check = check_sw_achievable(source, ground.full_mask, rates)
        if check.ok:
            lines.append("rates satisfy every omniscience constraint on V")
        else:
            ok = False
            lines.append(
                f"rates violate the constraint for {ground.format(check.violating)} "
                f"by {check.deficit}"
            )
        if model == NON_ASYMPTOTIC:
            if all(v.denominator == 1 for v in rates.values):
                lines.append("all entries are integers, as the non-asymptotic model requires")
            else:
                ok = False
                lines.append("non-integer entry in a non-asymptotic rate vector")
        if alpha.mode == LOWER_BOUND:
            oracle = min_sum_rate(source, None, model).value
            if alpha.value == oracle:
                lines.append(
                    f"alpha = R(V) = {oracle}: no complementary subset exists and the "
                    "finished rates are an optimal omniscience rate vector"
                )
            else:
                ok = False
                lines.append(f"alpha differs from the certified minimum sum-rate {oracle}")
        else:
            lines.append(
                "sweep completed at the exact minimum sum-rate: no complementary "
                "subset exists and the finished rates are optimal"
            )
        summary = (
            f"finished rates certified optimal ({model})"
            if ok
            else f"finished rates FAILED certification ({model})"
        )

    certificate = Certificate(ok, summary, tuple(lines))
    if not ok:
        raise CertificationError(str(certificate))
    return certificate
