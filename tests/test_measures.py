"""Measure machinery: density weights, mode-comparison statistic, lattice sums."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import block_values, constant_field, field_from_modes
from torusnlw.energy import quartic_correction, truncated_energy
from torusnlw.measures import (
    MARGINALS,
    _variance_pair,
    comparison_statistic,
    kakutani_terms,
)
from torusnlw.montecarlo import collect_values
from torusnlw.sampling import EnsembleSpec, _weights, sample
from torusnlw.spectral import PhaseState, _sq_modulus, zero_field

COS = field_from_modes(1, {(1, 0): 0.5})


def density_weight(p: PhaseState, radius: float, variant: str = "mu_s") -> float:
    """The registry's density_weight of state p, at s = 2 and the cutoff
    N = p's window, evaluated on a block of one state."""
    K = p.max_mode
    (weight,) = block_values(EnsembleSpec(variant, 2.0, K, K, 0), p,
                             [("density_weight", {"radius": radius})])
    return weight


class TestDensityWeight:
    def test_constant_state_closed_form(self):
        # quartic correction of the unit constant at N = 1 is -3
        p = PhaseState(constant_field(1.0, 1), zero_field(1))
        assert density_weight(p, radius=10.0) == pytest.approx(math.e**3, rel=1e-12)

    def test_tight_radius_rejects(self):
        # truncated energy of the constant state is 1/2 + 1/4
        p = PhaseState(constant_field(1.0, 1), zero_field(1))
        assert density_weight(p, radius=0.5) == 0.0

    def test_single_cosine_neutral_weight(self):
        p = PhaseState(COS, zero_field(1))
        assert density_weight(p, radius=10.0) == pytest.approx(1.0, rel=1e-12)

    def test_wave_variant_carries_plain_quartic(self):
        # |n|^s smoothing kills the constant, so F-tilde = -(3/2) sigma-t
        # = -2 and log weight = -(F-tilde + (1/4) int u_N^4) = 2 - 1/4
        p = PhaseState(constant_field(1.0, 1), zero_field(1))
        got = density_weight(p, radius=10.0, variant="mu_tilde_s")
        assert got == pytest.approx(math.exp(1.75), rel=1e-12)

    def test_wave_indicator_uses_wave_energy(self):
        # massless truncated energy 1/4 sits below 0.3; the Klein-Gordon
        # one (3/4) would not
        p = PhaseState(constant_field(1.0, 1), zero_field(1))
        assert density_weight(p, radius=0.3, variant="mu_tilde_s") > 0.0
        assert density_weight(p, radius=0.3) == 0.0

    def test_radius_validation(self):
        with pytest.raises(ValueError, match="radius"):
            density_weight(PhaseState(COS, zero_field(1)), radius=0.0)

    @given(st.integers(0, 200), st.sampled_from([0.5, 2.0, math.inf]))
    def test_weight_is_the_cutoff_indicator_times_exp_minus_correction(self, index, radius):
        spec = EnsembleSpec(variant="mu_s", s=2.0, sample_max_mode=3,
                            truncation_N=3, master_seed=5)
        p = sample(spec, index)
        weight = density_weight(p, radius)
        if truncated_energy(p, 3) <= radius:
            assert weight == pytest.approx(math.exp(-quartic_correction(p.u, 2.0, 3)),
                                           rel=1e-12)
        else:
            assert weight == 0.0

    def test_infinite_radius_always_accepts(self):
        spec = EnsembleSpec(variant="mu_s", s=2.0, sample_max_mode=3,
                            truncation_N=3, master_seed=5)
        values, _ = collect_values(spec, [("density_weight", {"radius": math.inf})], 20)
        assert (values > 0).all()


class TestComparisonStatistic:
    def test_unit_mode_position_rational(self):
        # lam = 1/8, lam-tilde = 1/3 -> ((3-8)/(3+8))^2
        expect = Fraction(25, 121)
        assert comparison_statistic(1.0, 2.0) == pytest.approx(float(expect), rel=1e-14)

    def test_unit_mode_velocity_rational(self):
        # lam = 1/4, lam-tilde = 1/2 -> (1/3)^2
        assert comparison_statistic(1.0, 2.0, marginal="velocity") == pytest.approx(
            1 / 9, rel=1e-14
        )

    def test_zero_mode_vanishes(self):
        assert comparison_statistic(0.0, 2.0) == 0.0
        assert comparison_statistic(0.0, 2.0, marginal="velocity") == 0.0

    def test_vectorized_and_bounded(self):
        q = np.arange(0, 50, dtype=float)
        s = comparison_statistic(q, 2.0)
        assert s.shape == q.shape
        assert np.all((s >= 0.0) & (s < 1.0))

    def test_large_modes_saturate(self):
        # lam/lam-tilde -> 1 from opposite sides as |n| grows, S -> 0
        assert comparison_statistic(1e6, 2.0) < 1e-10

    def test_marginal_validation(self):
        with pytest.raises(ValueError, match="marginal"):
            comparison_statistic(1.0, 2.0, marginal="momentum")

    @pytest.mark.parametrize("marginal", MARGINALS)
    @pytest.mark.parametrize("s", [0.4, 2.0])
    def test_common_factor_cancels(self, s, marginal):
        # on the squared-modulus classes that kakutani_terms sums over
        classes = np.asarray(kakutani_terms(s, 512, marginal).class_sq_modulus, float)
        common = (1.0 + classes) ** 1.7
        lam, lam_t = (common * lam for lam in _variance_pair(classes, s, marginal))
        np.testing.assert_allclose(((lam - lam_t) / (lam + lam_t)) ** 2,
                                   comparison_statistic(classes, s, marginal),
                                   rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("marginal, component", [("position", 0), ("velocity", 1)])
    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_variances_are_the_samplers(self, s, marginal, component):
        # the two Gaussians compared are mu_s and mu_tilde_s, on u and on v
        K = 6
        lam, lam_t = _variance_pair(_sq_modulus(K)[:, K:], s, marginal)  # the weights' half
        for got, variant in ((lam, "mu_s"), (lam_t, "mu_tilde_s")):
            weight = _weights(variant, s, 0.0, K)[component]
            np.testing.assert_allclose(got, 1.0 / weight**2, rtol=1e-14)


class TestKakutaniTerms:
    def test_unit_ball_summary(self):
        summary = kakutani_terms(2.0, 1)
        np.testing.assert_array_equal(summary.class_sq_modulus, [0, 1])
        np.testing.assert_array_equal(summary.class_multiplicity, [1, 4])
        assert summary.partial_sum == pytest.approx(4 * 25 / 121, rel=1e-14)

    def test_multiplicities_cover_ball(self):
        summary = kakutani_terms(2.0, 10)
        ball = sum(
            1
            for a in range(-10, 11)
            for b in range(-10, 11)
            if a * a + b * b <= 100
        )
        assert sum(summary.class_multiplicity) == ball

    def test_partial_sum_is_weighted_total(self):
        summary = kakutani_terms(2.0, 7, marginal="velocity")
        expect = float(
            np.sum(
                np.asarray(summary.class_multiplicity)
                * np.asarray(summary.class_statistic)
            )
        )
        assert summary.partial_sum == pytest.approx(expect, rel=1e-14)

    def test_rows_accumulate(self):
        summary = kakutani_terms(2.0, 3)
        rows = list(summary.rows())
        running = 0.0
        for q, mult, stat, weighted, cumulative in rows:
            running += weighted
            assert cumulative == pytest.approx(running, rel=1e-13)
            assert weighted == pytest.approx(mult * stat, rel=1e-13)
        assert rows[-1][4] == pytest.approx(summary.partial_sum, rel=1e-13)

    def test_smooth_case_partial_sums_stabilize(self):
        # s = 2: successive dyadic gaps measured at 1.30e-3 and 3.2e-4,
        # decreasing (the tail sum converges)
        sums = [kakutani_terms(2.0, N).partial_sum for N in (64, 128, 256)]
        gaps = [sums[1] - sums[0], sums[2] - sums[1]]
        assert all(0 < g < 1.5e-3 for g in gaps)
        assert gaps[1] < gaps[0]

    def test_rough_case_partial_sums_diverge(self):
        # s = 0.4: dyadic ratio stays > 1.3 (logarithmic divergence)
        sums = [kakutani_terms(0.4, N).partial_sum for N in (64, 128, 256)]
        assert sums[1] / sums[0] > 1.3
        assert sums[2] / sums[1] > 1.3

    def test_velocity_marginal_differs(self):
        pos = kakutani_terms(2.0, 8).partial_sum
        vel = kakutani_terms(2.0, 8, marginal="velocity").partial_sum
        assert pos != pytest.approx(vel)
