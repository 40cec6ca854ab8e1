"""The single-sweep complementary-subset search, its alpha choices and
its certificates."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soplan import (
    ASYMPTOTIC,
    NON_ASYMPTOTIC,
    CertificationError,
    DomainError,
    GroundSet,
    PacketSource,
    RateVector,
    TableSource,
    comp_set_so,
    complementary_by_lower_bound,
    enumerate_complementary,
    is_complementary,
    min_sum_rate,
)
from soplan.compsetso import (
    EXACT,
    LOWER_BOUND,
    CompSetOutcome,
    alpha_lower_bound,
    certify_outcome,
)
from soplan.sources import _SourceBase
from tests.conftest import (
    make_cyclic_triple,
    make_five_user,
    random_packet_source,
    random_rational_table,
    reference_comp_set_so,
    scaled_table,
)


class TestAlphaLowerBound:
    def test_worked_example(self, five_user):
        assert alpha_lower_bound(five_user, ASYMPTOTIC) == Fraction(23, 4)
        assert alpha_lower_bound(five_user, NON_ASYMPTOTIC) == 6

    def test_tight_on_independent_users(self, independent_triple):
        assert alpha_lower_bound(independent_triple, ASYMPTOTIC) == 3
        assert min_sum_rate(independent_triple).value == 3

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_never_exceeds_the_minimum(self, rng):
        source = random_packet_source(rng, rng.randint(3, 5), rng.randint(3, 9))
        for model in (ASYMPTOTIC, NON_ASYMPTOTIC):
            assert alpha_lower_bound(source, model) <= min_sum_rate(source, None, model).value


class TestAlphaChoice:
    def test_exact_values(self, five_user):
        assert comp_set_so(five_user, ASYMPTOTIC, EXACT).alpha == Fraction(13, 2)
        assert comp_set_so(five_user, NON_ASYMPTOTIC, EXACT).alpha == 7

    def test_lower_bound_values(self, five_user):
        assert comp_set_so(five_user, ASYMPTOTIC, LOWER_BOUND).alpha == Fraction(23, 4)
        assert comp_set_so(five_user, NON_ASYMPTOTIC, LOWER_BOUND).alpha == 6

    def test_bad_mode_rejected(self, five_user):
        with pytest.raises(DomainError):
            comp_set_so(five_user, ASYMPTOTIC, "guesswork")


class TestCompSetSo:
    @pytest.mark.parametrize(
        "mode,model,expected_alpha",
        [
            (EXACT, ASYMPTOTIC, Fraction(13, 2)),
            (EXACT, NON_ASYMPTOTIC, Fraction(7)),
            (LOWER_BOUND, ASYMPTOTIC, Fraction(23, 4)),
            (LOWER_BOUND, NON_ASYMPTOTIC, Fraction(6)),
        ],
    )
    def test_worked_example_all_alphas(self, five_user, mode, model, expected_alpha):
        outcome = comp_set_so(five_user, model, mode)
        assert (outcome.mode, outcome.model, outcome.alpha) == (mode, model, expected_alpha)
        assert outcome.subset == five_user.ground.mask([1, 2])
        assert outcome.exit_position == 2
        assert outcome.certificate.summary == f"{{1,2}} certified complementary ({model})"

    def test_independent_triple_exits_at_two(self, independent_triple):
        outcome = comp_set_so(independent_triple, ASYMPTOTIC, EXACT)
        assert outcome.alpha == 3
        assert outcome.subset == independent_triple.ground.mask([1, 2])
        assert outcome.exit_position == 2

    def test_cyclic_triple_finishes_with_rates(self, cyclic_triple):
        outcome = comp_set_so(cyclic_triple, ASYMPTOTIC, LOWER_BOUND)
        assert outcome.alpha == Fraction(3, 2)
        assert outcome.subset is None
        assert outcome.rates.values == (Fraction(1, 2),) * 3
        assert any("optimal" in line for line in outcome.certificate.lines)

    def test_exit_subset_is_always_complementary(self, five_user):
        outcome = comp_set_so(five_user)
        assert is_complementary(five_user, outcome.subset, ASYMPTOTIC)

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_sources_certify_in_both_modes(self, rng):
        source = random_packet_source(rng, rng.randint(3, 5), rng.randint(3, 9))
        for model in (ASYMPTOTIC, NON_ASYMPTOTIC):
            listed = enumerate_complementary(source, model)
            for mode in (EXACT, LOWER_BOUND):
                outcome = comp_set_so(source, model, mode)
                # the certificate a fresh check builds is the one returned
                assert certify_outcome(source, outcome._replace(certificate=None)) == outcome.certificate
                if outcome.subset is not None:
                    assert outcome.subset in listed
                    assert is_complementary(source, outcome.subset, model)

    def test_corpus_lower_bound_subsets_are_listed(self, source_corpus):
        for source in source_corpus:
            for model in (ASYMPTOTIC, NON_ASYMPTOTIC):
                outcome = comp_set_so(source, model, LOWER_BOUND)
                if outcome.subset is not None:
                    assert outcome.subset in enumerate_complementary(source, model)

    @pytest.mark.parametrize("model", [ASYMPTOTIC, NON_ASYMPTOTIC])
    @pytest.mark.parametrize("make", [make_five_user, make_cyclic_triple])
    def test_lower_bound_never_computes_the_minimum_on_v(self, make, model):
        # five_user exits early in both models; cyclic_triple completes
        # its asymptotic sweep
        source = make()
        comp_set_so(source, model, LOWER_BOUND)
        cache = source.__dict__.get("_minrate_cache", {})
        assert all(mask != source.ground.full_mask for mask, _ in cache)


class TestExitAgainstReference:
    """The subset and position of every early exit, and every completion,
    match a brute-force CompSetSO over Fraction g-values at 3 to 9
    users, in both alpha modes."""

    @staticmethod
    def assert_like_the_reference(source, model):
        for mode in (EXACT, LOWER_BOUND):
            outcome = comp_set_so(source, model, mode)
            want = reference_comp_set_so(source, outcome.alpha)
            assert (outcome.subset, outcome.exit_position) == want, (model, mode)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_packet_sources(self, rng):
        n = rng.randint(3, 9)
        source = random_packet_source(rng, n, rng.randint(n, 2 * n))
        for model in (ASYMPTOTIC, NON_ASYMPTOTIC):
            self.assert_like_the_reference(source, model)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_rational_tables(self, rng):
        n = rng.randint(3, 9)
        source = random_rational_table(rng, n, rng.randint(n, 2 * n))
        self.assert_like_the_reference(source, ASYMPTOTIC)


class TestCertificates:
    def test_subset_certificate_spells_out_the_inequality(self, five_user):
        text = str(comp_set_so(five_user, ASYMPTOTIC, EXACT).certificate)
        assert "H(V) - H(X) + R(X) = 10 - 8 + 2 = 4 <= 13/2 = R(V)" in text
        assert "position 2" in text

    def test_lower_bound_subset_certificate_carries_caveat(self, five_user):
        certificate = comp_set_so(five_user, ASYMPTOTIC, LOWER_BOUND).certificate
        assert any("may exist" in line for line in certificate.lines)

    def test_lower_bound_completion_claims_optimality(self, cyclic_triple):
        certificate = comp_set_so(cyclic_triple, ASYMPTOTIC, LOWER_BOUND).certificate
        assert any("alpha = R(V)" in line for line in certificate.lines)

    # Forged outcomes reach each failed check of certify_outcome, which
    # no outcome of comp_set_so can.

    @staticmethod
    def completed(five_user, mode, model, alpha, extra):
        """A completed outcome whose rates are the optimal witness plus
        ``extra`` on user 1; raising a rate keeps the vector achievable."""
        rates = min_sum_rate(five_user).rates.as_dict()
        rates[1] += extra
        vector = RateVector.from_map(five_user.ground, rates)
        return CompSetOutcome(mode, model, Fraction(alpha), None, vector, None, 0)

    def test_non_complementary_subset(self, five_user):
        outcome = comp_set_so(five_user)._replace(subset=five_user.ground.mask([3, 4]), certificate=None)
        with pytest.raises(CertificationError, match="FAILED the complementarity check"):
            certify_outcome(five_user, outcome)

    def test_rates_off_alpha(self, five_user):
        outcome = self.completed(five_user, LOWER_BOUND, ASYMPTOTIC, Fraction(23, 4), 0)
        with pytest.raises(CertificationError, match="finished rates sum to 13/2, not alpha = 23/4"):
            certify_outcome(five_user, outcome)

    def test_rates_not_achievable(self, five_user):
        rates = RateVector.from_map(five_user.ground, {1: Fraction(13, 2)})
        outcome = CompSetOutcome(EXACT, ASYMPTOTIC, Fraction(13, 2), None, rates, None, 0)
        with pytest.raises(CertificationError, match="rates violate the constraint"):
            certify_outcome(five_user, outcome)

    def test_fractional_non_asymptotic_rates(self, five_user):
        # 7 is the non-asymptotic R(V), so only the integrality check fails
        outcome = self.completed(five_user, EXACT, NON_ASYMPTOTIC, 7, Fraction(1, 2))
        with pytest.raises(CertificationError, match="non-integer entry"):
            certify_outcome(five_user, outcome)

    def test_lower_bound_completion_above_the_minimum(self, five_user):
        # achievable rates summing to 7 > R(V) = 13/2 would pass every rate
        # check; alpha <= R(V) rests on alpha being the singleton bound
        outcome = self.completed(five_user, LOWER_BOUND, ASYMPTOTIC, 7, Fraction(1, 2))
        with pytest.raises(CertificationError, match="lower_bound alpha 23/4: alpha = 7"):
            certify_outcome(five_user, outcome)

    def test_exact_mode_at_a_wrong_alpha_raises(self, five_user):
        # an "exact" outcome whose alpha is not R(V) fails its certificate
        outcome = comp_set_so(five_user)._replace(alpha=Fraction(0), certificate=None)
        with pytest.raises(CertificationError, match="exact alpha 13/2: alpha = 0"):
            certify_outcome(five_user, outcome)

    def test_lower_bound_subset_at_another_alpha_raises(self, five_user):
        # {1,2} meets H(V) - H(X) + R(X) <= 13/2 = R(V), yet a lower-bound
        # outcome must carry the singleton bound as its alpha
        outcome = comp_set_so(five_user, ASYMPTOTIC, LOWER_BOUND)
        outcome = outcome._replace(alpha=Fraction(13, 2), certificate=None)
        with pytest.raises(CertificationError, match="lower_bound alpha 23/4: alpha = 13/2"):
            certify_outcome(five_user, outcome)


class TestSufficientCondition:
    def test_fires_on_heavily_overlapping_pair(self):
        ground = GroundSet((1, 2, 3))
        source = PacketSource(ground, {1: "abcd", 2: "abcd", 3: "a"})
        assert complementary_by_lower_bound(source, [1, 2], ASYMPTOTIC)
        assert is_complementary(source, [1, 2], ASYMPTOTIC)

    def test_not_necessary(self, five_user):
        # {1,2} is complementary, yet the cheap test stays silent
        assert is_complementary(five_user, [1, 2], ASYMPTOTIC)
        assert not complementary_by_lower_bound(five_user, [1, 2], ASYMPTOTIC)

    def test_rejects_non_complementary(self, five_user):
        assert not complementary_by_lower_bound(five_user, [3, 4], ASYMPTOTIC)

    def test_out_of_range_alpha_means_no(self):
        ground = GroundSet((1, 2, 3))
        source = PacketSource(ground, {1: "a", 2: "b", 3: "cdefgh"})
        # the subset-specific alpha is negative, the test does not apply
        assert not complementary_by_lower_bound(source, [1, 2], ASYMPTOTIC)

    def test_fractional_table_is_refused(self):
        # whole packets need integer entropies: the non-asymptotic model
        # refuses this table in every test, and the asymptotic one answers
        ground = GroundSet((1, 2, 3))
        h = {1: "31/6", 2: "133/30", 4: "23/6", 3: "173/30", 5: "31/6", 6: "133/30", 7: "173/30"}
        source = TableSource(ground, {0: 0, **{m: Fraction(v) for m, v in h.items()}})
        for check in (complementary_by_lower_bound, is_complementary):
            with pytest.raises(DomainError, match="needs integer entropies"):
                check(source, [1, 3], NON_ASYMPTOTIC)
        with pytest.raises(DomainError, match="needs integer entropies"):
            alpha_lower_bound(source, NON_ASYMPTOTIC)
        assert not complementary_by_lower_bound(source, [1, 3], ASYMPTOTIC)
        assert is_complementary(source, [1, 3], ASYMPTOTIC)
        assert enumerate_complementary(source) == (3, 5, 6)

    def test_broken_witness_raises(self, monkeypatch):
        # the pair's verdict is yes, so its rates must pass the shortfall check
        ground = GroundSet((1, 2, 3))
        source = PacketSource(ground, {1: "abcd", 2: "abcd", 3: "a"})
        monkeypatch.setattr(_SourceBase, "shortfall", lambda *args: (1, 1))
        with pytest.raises(CertificationError, match="exceed f"):
            complementary_by_lower_bound(source, [1, 2], ASYMPTOTIC)

    def test_degenerate_subsets_rejected(self, five_user):
        with pytest.raises(DomainError):
            complementary_by_lower_bound(five_user, [1])
        with pytest.raises(DomainError):
            complementary_by_lower_bound(five_user, five_user.ground.full_mask)

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_implies_complementary(self, rng):
        source = random_packet_source(rng, rng.randint(3, 5), rng.randint(3, 9))
        full = source.ground.full_mask
        for model in (ASYMPTOTIC, NON_ASYMPTOTIC):
            for mask in range(3, full):
                if mask.bit_count() < 2:
                    continue
                if complementary_by_lower_bound(source, mask, model):
                    assert is_complementary(source, mask, model)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_implies_listed_on_rational_tables(self, rng):
        """Asymptotically on the table, and in whole packets on the same
        table scaled by its D."""
        table = random_rational_table(rng, rng.randint(3, 5), rng.randint(2, 9))
        full = table.ground.full_mask
        for source, model in ((table, ASYMPTOTIC), (scaled_table(table), NON_ASYMPTOTIC)):
            listed = enumerate_complementary(source, model)
            for mask in range(3, full):
                if mask.bit_count() >= 2 and complementary_by_lower_bound(source, mask, model):
                    assert mask in listed
