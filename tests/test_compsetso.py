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
    AlphaChoice,
    CertificationError,
    DomainError,
    GroundSet,
    PacketSource,
    certify_outcome,
    comp_set_so,
    complementary_by_lower_bound,
    is_complementary,
    min_sum_rate,
)
from soplan.compsetso import alpha_lower_bound
from tests.conftest import random_packet_source


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
        assert AlphaChoice.exact(five_user, ASYMPTOTIC).value == Fraction(13, 2)
        assert AlphaChoice.exact(five_user, NON_ASYMPTOTIC).value == 7

    def test_lower_bound_values(self, five_user):
        assert AlphaChoice.lower_bound(five_user, ASYMPTOTIC).value == Fraction(23, 4)
        assert AlphaChoice.lower_bound(five_user, NON_ASYMPTOTIC).value == 6

    def test_bad_mode_rejected(self):
        with pytest.raises(DomainError):
            AlphaChoice("guesswork", ASYMPTOTIC, Fraction(1))


class TestCompSetSo:
    @pytest.mark.parametrize(
        "maker,model,expected_alpha",
        [
            (AlphaChoice.exact, ASYMPTOTIC, Fraction(13, 2)),
            (AlphaChoice.exact, NON_ASYMPTOTIC, Fraction(7)),
            (AlphaChoice.lower_bound, ASYMPTOTIC, Fraction(23, 4)),
            (AlphaChoice.lower_bound, NON_ASYMPTOTIC, Fraction(6)),
        ],
    )
    def test_worked_example_all_alphas(self, five_user, maker, model, expected_alpha):
        alpha = maker(five_user, model)
        assert alpha.value == expected_alpha
        outcome = comp_set_so(five_user, alpha)
        assert outcome.subset == five_user.ground.mask([1, 2])
        assert outcome.exit_position == 2
        certificate = certify_outcome(five_user, alpha, outcome)
        assert certificate.ok

    def test_independent_triple_exits_at_two(self, independent_triple):
        alpha = AlphaChoice.exact(independent_triple, ASYMPTOTIC)
        assert alpha.value == 3
        outcome = comp_set_so(independent_triple, alpha)
        assert outcome.subset == independent_triple.ground.mask([1, 2])
        assert outcome.exit_position == 2

    def test_cyclic_triple_finishes_with_rates(self, cyclic_triple):
        alpha = AlphaChoice.lower_bound(cyclic_triple, ASYMPTOTIC)
        assert alpha.value == Fraction(3, 2)
        outcome = comp_set_so(cyclic_triple, alpha)
        assert outcome.subset is None
        assert outcome.rates.values == (Fraction(1, 2),) * 3
        certificate = certify_outcome(cyclic_triple, alpha, outcome)
        assert certificate.ok
        assert any("optimal" in line for line in certificate.lines)

    def test_exit_subset_is_always_complementary(self, five_user):
        outcome = comp_set_so(five_user, AlphaChoice.exact(five_user))
        assert is_complementary(five_user, outcome.subset, ASYMPTOTIC)

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_sources_certify_in_both_modes(self, rng):
        source = random_packet_source(rng, rng.randint(3, 5), rng.randint(3, 9))
        for model in (ASYMPTOTIC, NON_ASYMPTOTIC):
            for maker in (AlphaChoice.exact, AlphaChoice.lower_bound):
                alpha = maker(source, model)
                outcome = comp_set_so(source, alpha)
                certificate = certify_outcome(source, alpha, outcome)
                assert certificate.ok
                if outcome.subset is not None and maker is AlphaChoice.exact:
                    assert is_complementary(source, outcome.subset, model)


class TestCertificates:
    def test_subset_certificate_spells_out_the_inequality(self, five_user):
        alpha = AlphaChoice.exact(five_user, ASYMPTOTIC)
        outcome = comp_set_so(five_user, alpha)
        certificate = certify_outcome(five_user, alpha, outcome)
        text = str(certificate)
        assert "H(V) - H(X) + R(X) = 10 - 8 + 2 = 4 <= 13/2 = R(V)" in text
        assert "position 2" in text

    def test_lower_bound_subset_certificate_carries_caveat(self, five_user):
        alpha = AlphaChoice.lower_bound(five_user, ASYMPTOTIC)
        outcome = comp_set_so(five_user, alpha)
        certificate = certify_outcome(five_user, alpha, outcome)
        assert any("may exist" in line for line in certificate.lines)

    def test_lower_bound_completion_claims_optimality(self, cyclic_triple):
        alpha = AlphaChoice.lower_bound(cyclic_triple, ASYMPTOTIC)
        outcome = comp_set_so(cyclic_triple, alpha)
        certificate = certify_outcome(cyclic_triple, alpha, outcome)
        assert any("alpha = R(V)" in line for line in certificate.lines)

    def test_exact_mode_at_a_wrong_alpha_raises(self, five_user):
        # an "exact" alpha that is not R(V) fails its own certificate
        alpha = AlphaChoice("exact", ASYMPTOTIC, 0)
        outcome = comp_set_so(five_user, alpha)
        with pytest.raises(CertificationError, match="differs from the certified"):
            certify_outcome(five_user, alpha, outcome)


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
