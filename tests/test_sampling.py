"""Gaussian ensembles: determinism, spectral variances, counterterms."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from torusnlw.dynamics import _dispersion
from torusnlw.energy import _Factors
from torusnlw.sampling import (
    EQUATION_FOR_VARIANT,
    VARIANTS,
    EnsembleSpec,
    _assemble,
    _drawer,
    _weights,
    counterterm,
    sample,
    wave_counterterm,
)
from torusnlw.spectral import _half_lattice, integrate


def make_spec(variant="mu_s", s=2.0, K=4, N=None, seed=0, **kw):
    return EnsembleSpec(
        variant=variant,
        s=s,
        sample_max_mode=K,
        truncation_N=K if N is None else N,
        master_seed=seed,
        **kw,
    )


class TestSpecValidation:
    def test_variant_checked(self):
        with pytest.raises(ValueError, match="variant"):
            make_spec(variant="mu_q")

    def test_s_must_exceed_one(self):
        with pytest.raises(ValueError, match="s must be"):
            make_spec(s=1.0)

    def test_beta_checked_for_beta_variant(self):
        with pytest.raises(ValueError, match="beta"):
            make_spec(variant="mu_s_beta", beta=1.0)
        make_spec(variant="mu_s_beta", beta=2.0)  # fine

    def test_window_must_cover_cutoff(self):
        with pytest.raises(ValueError, match="cover the cutoff"):
            make_spec(K=4, N=8)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_is_one_key_word(self, seed):
        # 2^64 + 5 used to draw seed 5's stream
        with pytest.raises(ValueError, match=r"master_seed must lie in \[0, 2\^64\)"):
            make_spec(seed=seed)
        make_spec(seed=2**64 - 1)  # fine

    def test_radius_positive(self):
        with pytest.raises(ValueError, match="positive"):
            make_spec(energy_cutoff_r=0.0)

    def test_equation_pairing(self):
        assert make_spec(variant="mu_s").equation == "nlkg"
        assert make_spec(variant="mu_tilde_s").equation == "nlw"
        assert make_spec(variant="mu_s_beta", beta=2.0).equation == "nlkg_beta"


class TestDeterminism:
    def test_same_key_same_draw(self):
        spec = make_spec()
        a, b = sample(spec, 7), sample(spec, 7)
        np.testing.assert_array_equal(a.u.coeffs, b.u.coeffs)
        np.testing.assert_array_equal(a.v.coeffs, b.v.coeffs)

    def test_different_index_different_draw(self):
        spec = make_spec()
        a, b = sample(spec, 0), sample(spec, 1)
        assert not np.array_equal(a.u.coeffs, b.u.coeffs)

    def test_different_seed_different_draw(self):
        a = sample(make_spec(seed=0), 0)
        b = sample(make_spec(seed=1), 0)
        assert not np.array_equal(a.u.coeffs, b.u.coeffs)

    def test_draws_do_not_depend_on_order(self):
        spec = make_spec()
        forward = [sample(spec, i).u.coeffs for i in range(5)]
        backward = [sample(spec, i).u.coeffs for i in reversed(range(5))]
        for got, ref in zip(forward, reversed(backward)):
            np.testing.assert_array_equal(got, ref)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="index"):
            sample(make_spec(), -1)

    def test_index_beyond_a_key_word_rejected(self):
        # sample(spec, 2^64) used to return index 0's state
        message = f"sample index must lie in [0, 2^64), got [{2**64}, {2**64 + 1})"
        with pytest.raises(ValueError, match=re.escape(message)):
            sample(make_spec(), 2**64)
        with pytest.raises(ValueError, match=r"index must lie in \[0, 2\^64\)"):
            _drawer(make_spec(), False)(2**64 - 2, 2**64 + 1)
        u, _ = _drawer(make_spec(), False)(2**64 - 2, 2**64)
        assert len(u) == 2

    @given(st.sampled_from(VARIANTS), st.integers(0, 50))
    def test_structure_invariants(self, variant, index):
        spec = make_spec(variant=variant, beta=2.0 if variant == "mu_s_beta" else 0.0)
        p = sample(spec, index)
        K = spec.sample_max_mode
        # mean mode real, Hermitian mirror holds exactly by construction
        assert p.u.coeffs[K, K].imag == 0.0
        np.testing.assert_array_equal(p.u.coeffs, np.conj(p.u.coeffs[::-1, ::-1]))
        np.testing.assert_array_equal(p.v.coeffs, np.conj(p.v.coeffs[::-1, ::-1]))


def new_philox(seed: int, index: int) -> np.random.Generator:
    # the key words as uint64: a tuple holding 2^63 + 1 goes through float
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], np.uint64)))


def scattered(raw: np.ndarray, weight: np.ndarray, K: int) -> np.ndarray:
    """One state's (n_half, 2) normals scattered onto the conjugate mirror
    of the stored half-lattice, then onto the half itself, so that n = 0,
    its own mirror, holds the real g_0: the reference for _assemble's
    layout."""
    flat, mirror = _half_lattice(K)
    g = (raw[:, 0] + 1j * raw[:, 1]) * np.sqrt(0.5)
    g[K**2] = raw[K**2, 0]
    box = np.zeros((2 * K + 1) ** 2, np.complex128)
    box[mirror] = np.conj(g)
    box[flat] = g
    return box.reshape(2 * K + 1, 2 * K + 1) / weight


class TestDrawByComponent:
    @pytest.mark.parametrize("n_half", [145, 2113, 8321])  # windows 8, 32, 64
    def test_normals_split_by_component(self, n_half):
        # (n, 2) normals twice from one stream are the (2, n, 2) block
        whole = new_philox(11, 5).standard_normal((2, n_half, 2))
        rng = new_philox(11, 5)
        np.testing.assert_array_equal(whole[0], rng.standard_normal((n_half, 2)))
        np.testing.assert_array_equal(whole[1], rng.standard_normal((n_half, 2)))

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("with_v", [False, True])
    def test_block_draw_is_a_new_philox_per_index(self, variant, with_v):
        # each row of a block re-keys the drawer's one Philox, across
        # blocks too; its normals are those of a new Philox keyed
        # (seed, index): u's first, then v's
        spec = make_spec(variant=variant, K=5, seed=3,
                         beta=2.0 if variant == "mu_s_beta" else 0.0)
        w_u, w_v = _weights(variant, spec.s, spec.beta, 5)
        draw = _drawer(spec, with_v)
        for start in (0, 9, 2**63 + 1):
            u, v = draw(start, start + 3)
            assert u.shape == (3, 11, 11)
            assert (v is None) != with_v
            for row, index in enumerate(range(start, start + 3)):
                raw = new_philox(3, index).standard_normal((2, 61, 2))
                # bytes, so that the signs of zero imaginary parts count too
                assert u[row].tobytes() == scattered(raw[0], w_u, 5).tobytes()
                full = sample(spec, index)
                np.testing.assert_array_equal(u[row], full.u.coeffs)
                if with_v:
                    assert v[row].tobytes() == scattered(raw[1], w_v, 5).tobytes()
                    np.testing.assert_array_equal(v[row], full.v.coeffs)

    @pytest.mark.parametrize("K", [8, 64])
    def test_sample_is_its_row_of_a_block(self, K):
        # one drawer serves blocks of any size in any order, and each of
        # their rows is bit for bit the single draw of its index
        spec = make_spec(K=K, seed=2026)
        draw = _drawer(spec, with_v=True)
        for start, stop in ((0, 3), (7, 8), (1, 2), (40, 42)):
            u, v = draw(start, stop)
            for row, index in enumerate(range(start, stop)):
                full = sample(spec, index)
                assert u[row].tobytes() == full.u.coeffs.tobytes()
                assert v[row].tobytes() == full.v.coeffs.tobytes()

    @pytest.mark.parametrize("K", [0, 1, 2, 8])
    def test_assemble_is_the_half_lattice_scatter(self, K):
        n_half = (2 * K + 1) ** 2 // 2 + 1
        raw = new_philox(5, K).standard_normal((4, n_half, 2))
        weight = _weights("mu_s", 2.0, 0.0, K)[1]
        block = _assemble(raw, weight, K)
        for row in range(4):
            assert block[row].tobytes() == scattered(raw[row], weight, K).tobytes()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_zero_mode_imaginary_part_is_positive_zero(self, variant):
        # whatever the sign of Re g_0, so a state file does not depend on it
        spec = make_spec(variant=variant, K=3, seed=601,
                         beta=2.0 if variant == "mu_s_beta" else 0.0)
        u, v = _drawer(spec, with_v=True)(0, 40)
        for zero in (u[:, 3, 3], v[:, 3, 3]):
            assert (zero.real < 0).any() and (zero.real > 0).any()
            assert not np.signbit(zero.imag).any()


def empirical_mode_power(spec, mode, n_samples=4000, which="u"):
    K = spec.sample_max_mode
    i, j = mode[0] + K, mode[1] + K
    acc = 0.0
    for idx in range(n_samples):
        p = sample(spec, idx)
        c = p.u.coeffs if which == "u" else p.v.coeffs
        acc += abs(c[i, j]) ** 2
    return acc / n_samples


def unit_modes(K: int):
    """The real states with coefficient 1 at n and at -n, one per mode n of
    the window, as a coefficient stack; and how many coefficients each
    holds (2, or 1 at n = 0), as a window block."""
    side = 2 * K + 1
    rows = np.arange(side * side)
    stack = np.zeros((side * side, side, side), np.complex128)
    stack[rows, rows // side, rows % side] = 1.0
    stack[rows, side - 1 - rows // side, side - 1 - rows % side] = 1.0
    return stack, np.count_nonzero(stack, axis=(1, 2)).reshape(side, side)


class TestEnsembleIsTheEnergysGaussian:
    """w^2 of each ensemble is, mode by mode, the coefficient of |u_n|^2 or
    |v_n|^2 in twice the renormalized energy less its quartic part, and
    the conserved energy's coefficients are the squared dispersion and 1."""

    @pytest.mark.parametrize("variant, beta",
                             [("mu_s", 0.0), ("mu_tilde_s", 0.0), ("mu_s_beta", 1.5)])
    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_weights_are_the_quadratic_forms(self, variant, beta, s):
        K, cutoff, equation = 4, 2, EQUATION_FOR_VARIANT[variant]
        probe, count = unit_modes(K)
        zero = np.zeros_like(probe)
        w_u, w_v = _weights(variant, s, beta, K)
        cases = ((probe, zero, w_u, _dispersion(equation, beta, K) ** 2),
                 (zero, probe, w_v, 1.0))
        for u, v, weight, conserved in cases:
            f = _Factors(u, v, s, cutoff, equation, beta)
            quartic = f.quartic_correction
            if equation == "nlw":  # the plain energy's quartic rides along
                quartic = quartic + 0.25 * f.low_quartic
            renormalized = 2 * (f.renormalized_energy - quartic)
            np.testing.assert_allclose(renormalized.reshape(count.shape) / count, weight**2,
                                       rtol=1e-14)
            energy = 2 * (f.truncated_energy - 0.25 * f.low_quartic)
            np.testing.assert_allclose(energy.reshape(count.shape) / count, conserved,
                                       rtol=1e-14)


class TestSpectralVariances:
    # 4000 draws put the standard error of E|c_n|^2 near 1.6% of the mean,
    # so a 10% tolerance is a > 6 sigma guard band.

    def test_mu_s_position_weight(self):
        # E|u_n|^2 = <n>^-(2s+2) = 1/8 at n = (1,0), s = 2
        spec = make_spec(variant="mu_s", s=2.0, K=2)
        assert empirical_mode_power(spec, (1, 0)) == pytest.approx(1 / 8, rel=0.10)

    def test_mu_s_velocity_weight(self):
        # E|v_n|^2 = <n>^-2s = 1/4 at n = (1,0), s = 2
        spec = make_spec(variant="mu_s", s=2.0, K=2)
        assert empirical_mode_power(spec, (1, 0), which="v") == pytest.approx(
            1 / 4, rel=0.10
        )

    def test_mu_tilde_position_weight(self):
        # E|u_n|^2 = 1/(1 + |n|^2 + |n|^(2s+2)) = 1/3 at n = (1,0), s = 2
        spec = make_spec(variant="mu_tilde_s", s=2.0, K=2)
        assert empirical_mode_power(spec, (1, 0)) == pytest.approx(1 / 3, rel=0.10)

    def test_mu_beta_position_weight(self):
        # E|u_n|^2 = <n>^-(2s+2beta) = 2^-5 at n = (1,0), s = 2, beta = 3
        spec = make_spec(variant="mu_s_beta", s=2.0, beta=3.0, K=2)
        assert empirical_mode_power(spec, (1, 0)) == pytest.approx(2**-5, rel=0.10)

    def test_zero_mode_unit_variance(self):
        spec = make_spec(variant="mu_s", s=2.0, K=2)
        assert empirical_mode_power(spec, (0, 0)) == pytest.approx(1.0, rel=0.10)

    def test_mean_is_centred(self):
        spec = make_spec(variant="mu_s", s=2.0, K=2)
        acc = sum(integrate(sample(spec, i).u) for i in range(4000)) / 4000
        assert abs(acc) < 0.08  # standard error 1/sqrt(4000) ~ 0.016


class TestCounterterms:
    def test_counterterm_n1_exact(self):
        # |n| <= 1: center 1, four neighbours 1/2 each -> 3
        assert counterterm(1) == pytest.approx(3.0, abs=1e-14)

    def test_counterterm_n2_exact(self):
        # 1 + 4/2 + 4/3 + 4/5 = 77/15 over the |n| <= 2 ball
        expect = Fraction(1) + 4 * Fraction(1, 2) + 4 * Fraction(1, 3) + 4 * Fraction(1, 5)
        assert expect == Fraction(77, 15)
        assert counterterm(2) == pytest.approx(float(expect), abs=1e-14)

    def test_counterterm_rational_oracle(self):
        # independent exact summation over the ball
        for N in (3, 5, 8):
            acc = Fraction(0)
            for n1 in range(-N, N + 1):
                for n2 in range(-N, N + 1):
                    if n1 * n1 + n2 * n2 <= N * N:
                        acc += Fraction(1, 1 + n1 * n1 + n2 * n2)
            assert counterterm(N) == pytest.approx(float(acc), rel=1e-14)

    def test_wave_counterterm_n1_exact(self):
        # n = 0 contributes 0; four unit modes contribute 1/3 each
        assert wave_counterterm(1, 2.0) == pytest.approx(4 / 3, abs=1e-14)

    def test_wave_counterterm_rational_oracle(self):
        for N in (2, 4):
            acc = Fraction(0)
            for n1 in range(-N, N + 1):
                for n2 in range(-N, N + 1):
                    q = n1 * n1 + n2 * n2
                    if 0 < q <= N * N:
                        acc += Fraction(q**2, 1 + q + q**3)
            assert wave_counterterm(N, 2.0) == pytest.approx(float(acc), rel=1e-14)

    def test_counterterm_grows_like_log(self):
        # dyadic increments approach 2 pi log 2
        gaps = [counterterm(2 * N) - counterterm(N) for N in (64, 128, 256)]
        for g in gaps:
            assert g == pytest.approx(2 * math.pi * math.log(2), rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            counterterm(-1)
        with pytest.raises(ValueError):
            wave_counterterm(2, 0.0)
