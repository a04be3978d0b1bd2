"""Spectral layer: exact products, quadrature, multipliers, serialization.

The FFT product path is checked against direct coefficient convolution,
integrals against grid averages, and the named trigonometric identities
against hand-expanded coefficients.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.fft import irfft2, next_fast_len, rfft2

from conftest import constant_field, field_from_modes, random_field, random_state
from torusnlw import spectral
from torusnlw.spectral import (
    PhaseState,
    SpectralError,
    SpectralField,
    _cube_half,
    _fast_len,
    _from_grid,
    _from_half,
    _mirror,
    _mode_axis,
    apply_multiplier,
    bessel_power,
    derivative,
    dyadic_block,
    field_from_dict,
    field_to_dict,
    grid_stack,
    grid_sup_norm,
    grid_values,
    inner_product,
    integrate,
    pointwise_product,
    project_ball,
    quadrature_grid,
    riesz_power,
    sobolev_norm,
    state_from_dict,
    state_to_dict,
    zero_field,
)


def grid_average(f: SpectralField, power: int = 1, points: int = 64) -> float:
    """Quadrature oracle: average f(x)^power over an equispaced lattice.

    Evaluates the Fourier sum directly (no FFT), so it shares no code with
    the implementation under test.  points must exceed power * max_mode * 2
    for the average to be exact.
    """
    K = f.max_mode
    x = 2.0 * np.pi * np.arange(points) / points
    n = np.arange(-K, K + 1)
    phase = np.exp(1j * np.outer(n, x))  # phase[a, j] = e^{i n_a x_j}
    vals = np.einsum("ab,aj,bk->jk", f.coeffs, phase, phase).real
    return float(np.mean(vals**power))


class TestFieldValidation:
    def test_rejects_non_hermitian_block(self):
        c = np.zeros((3, 3), np.complex128)
        c[2, 1] = 1.0  # mirror at [0, 1] left at zero
        with pytest.raises(SpectralError, match="Hermitian"):
            SpectralField(1, c)

    def test_rejects_wrong_shape(self):
        with pytest.raises(SpectralError, match="shape"):
            SpectralField(2, np.zeros((3, 3), np.complex128))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
    def test_rejects_non_finite_coefficients(self, bad):
        c = np.zeros((3, 3), np.complex128)
        c[2, 1] = bad
        c[0, 1] = np.conj(bad)
        with pytest.raises(SpectralError, match="finite"):
            SpectralField(1, c)

    def test_rejects_negative_window(self):
        with pytest.raises(SpectralError, match="max_mode"):
            SpectralField(-1, np.zeros((1, 1), np.complex128))

    def test_coefficients_are_frozen(self, rng):
        f = random_field(rng, 2)
        with pytest.raises(ValueError):
            f.coeffs[0, 0] = 5.0

    def test_state_requires_matching_windows(self, rng):
        with pytest.raises(SpectralError):
            PhaseState(u=random_field(rng, 2), v=random_field(rng, 3))


class TestProducts:
    def test_fft_matches_direct_convolution(self, rng):
        f = random_field(rng, 5)
        g = random_field(rng, 3)
        fast = pointwise_product(f, g, method="fft")
        slow = pointwise_product(f, g, method="direct")
        assert fast.max_mode == slow.max_mode == 8
        np.testing.assert_allclose(fast.coeffs, slow.coeffs, atol=1e-12)

    def test_self_product_matches_two_argument_path(self, rng):
        f = random_field(rng, 4)
        g = SpectralField(4, np.array(f.coeffs))
        np.testing.assert_array_equal(
            pointwise_product(f, f).coeffs, pointwise_product(f, g).coeffs
        )

    def test_cosine_cube_identity(self):
        # cos^3(x1) = (3/4) cos(x1) + (1/4) cos(3 x1)
        c = field_from_modes(1, {(1, 0): 0.5})
        cube = pointwise_product(pointwise_product(c, c), c)
        expect = field_from_modes(3, {(1, 0): 3 / 8, (3, 0): 1 / 8})
        np.testing.assert_allclose(cube.coeffs, expect.coeffs, atol=1e-14)

    def test_quartic_cosine_integral(self):
        # integral of cos^4 over the unit torus is 3/8
        c = field_from_modes(1, {(1, 0): 0.5})
        sq = pointwise_product(c, c)
        assert integrate(pointwise_product(sq, sq)) == pytest.approx(3 / 8, abs=1e-14)

    def test_unknown_method_rejected(self, rng):
        f = random_field(rng, 1)
        with pytest.raises(SpectralError, match="method"):
            pointwise_product(f, f, method="karatsuba")

    @given(st.integers(0, 2**31), st.integers(1, 4), st.integers(1, 4))
    def test_product_commutes_and_matches_direct(self, seed, kf, kg):
        r = np.random.default_rng(seed)
        f, g = random_field(r, kf), random_field(r, kg)
        fg = pointwise_product(f, g)
        gf = pointwise_product(g, f)
        ref = pointwise_product(f, g, method="direct")
        np.testing.assert_allclose(fg.coeffs, gf.coeffs, atol=1e-12)
        np.testing.assert_allclose(fg.coeffs, ref.coeffs, atol=1e-12)


class TestGridTransport:
    @pytest.mark.parametrize("grid", [7, 8, 13])
    def test_grid_values_match_fourier_sum(self, rng, grid):
        # odd and even grids; the sum is evaluated term by term, no FFT
        f = random_field(rng, 3)
        vals = grid_values(f, grid)
        assert vals.shape == (grid, grid)
        n = np.arange(-3, 4)
        for j1, j2 in [(0, 0), (1, grid - 1), (grid // 2, 3), (grid - 1, 2)]:
            x1, x2 = 2 * np.pi * j1 / grid, 2 * np.pi * j2 / grid
            direct = sum(f.coeffs[a, b] * np.exp(1j * (n[a] * x1 + n[b] * x2))
                         for a in range(7) for b in range(7))
            assert vals[j1, j2] == pytest.approx(direct.real, abs=1e-12)

    def test_grid_values_reject_a_grid_too_small(self, rng):
        with pytest.raises(SpectralError, match="grid"):
            grid_values(random_field(rng, 3), 6)

    @pytest.mark.parametrize("K", [1, 8, 16, 32, 64])
    def test_grid_stack_is_irfft2_of_the_half_block(self, rng, K):
        # the pruned transform against irfft2 of the zero-filled n2 >= 0
        # half, bit for bit, on the quadrature grid and grid_sup_norm's grid,
        # for blocks and for stacks of them (a block of states per factor)
        fields = [random_field(rng, K) for _ in range(6)]
        for grid in (quadrature_grid(K), 4 * (2 * K + 1)):
            stack = grid_stack([f.coeffs[:, K:] for f in fields], grid)
            assert stack.shape == (6, grid, grid)
            pairs = np.stack([f.coeffs[:, K:] for f in fields]).reshape(3, 2, 2 * K + 1, K + 1)
            blocks = grid_stack(list(pairs), grid)
            assert blocks.shape == (3, 2, grid, grid)
            for f, vals, in_block in zip(fields, stack, blocks.reshape(6, grid, grid)):
                spec = np.zeros((grid, grid // 2 + 1), np.complex128)
                spec[np.arange(-K, K + 1) % grid, :K + 1] = f.coeffs[:, K:]
                np.testing.assert_array_equal(
                    vals, irfft2(spec, s=(grid, grid), norm="forward"))
                np.testing.assert_array_equal(vals, grid_values(f, grid))
                np.testing.assert_array_equal(in_block, vals)

    def test_grid_stack_rejects_small_grids_and_mixed_windows(self, rng):
        with pytest.raises(SpectralError, match="grid 6 cannot hold window 3"):
            grid_stack([random_field(rng, 3).coeffs[:, 3:], random_field(rng, 3).coeffs[:, 3:]],
                       6)
        with pytest.raises(SpectralError, match="one shape"):
            grid_stack([random_field(rng, 3).coeffs[:, 3:], random_field(rng, 2).coeffs[:, 2:]],
                       15)

    def test_products_are_exactly_hermitian(self, rng):
        c = pointwise_product(random_field(rng, 3), random_field(rng, 2)).coeffs
        np.testing.assert_array_equal(c, np.conj(c[::-1, ::-1]))
        # the cube's half block: its n2 = 0 column mirrors itself
        col = _cube_half(random_field(rng, 4).coeffs[:, 4:], 3, 4)[:, 0]
        np.testing.assert_array_equal(col, np.conj(col[::-1]))

    def test_quadrature_grid_sizes(self):
        assert [quadrature_grid(K) for K in (0, 3, 8, 16, 64)] == [1, 15, 36, 72, 270]
        assert all(quadrature_grid(K) >= 4 * K + 1 for K in range(80))

    def test_quartic_mean_needs_4k_plus_1_points(self, rng):
        # cos^4(K x1) has the mode 4K; on 4K points it aliases onto the
        # zero mode and the mean reads 1/2, on 4K + 1 points it is 3/8
        K = 3
        c = field_from_modes(K, {(K, 0): 0.5})
        assert float(np.mean(grid_values(c, 4 * K) ** 4)) == pytest.approx(0.5, abs=1e-14)
        assert float(np.mean(grid_values(c, 4 * K + 1) ** 4)) == pytest.approx(
            3 / 8, abs=1e-14)
        # and for a generic field the (4K + 1)-point mean is the exact quartic
        f = random_field(rng, K)
        sq = pointwise_product(f, f, method="direct")
        exact = inner_product(sq, sq)
        assert float(np.mean(grid_values(f, 4 * K + 1) ** 4)) == pytest.approx(
            exact, rel=1e-13)
        assert float(np.mean(grid_values(f, 4 * K) ** 4)) != pytest.approx(exact, rel=1e-6)

    def test_direct_oracle_not_imported_with_the_cli(self):
        import torusnlw
        src = str(Path(torusnlw.__file__).parents[1])
        code = "import sys, torusnlw.cli; print('scipy.signal' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_cli_imports_no_scipy(self):
        # every transform is numpy.fft's; only the direct oracle reads scipy
        import torusnlw
        src = str(Path(torusnlw.__file__).parents[1])
        code = ("import sys, torusnlw.cli; "
                "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    def test_fast_len_is_scipys_real_next_fast_len(self):
        sizes = range(1, 10_001)
        assert [_fast_len(n) for n in sizes] == [next_fast_len(n, real=True) for n in sizes]

    def test_from_grid_is_the_forward_rfft2(self, rng):
        # the row rfft scaled by 1 / grid^2, then an fft down the kept
        # columns, against scipy's rfft2 bit for bit
        for grid in range(9, 271):
            values = rng.standard_normal((grid, grid))
            for K in ((grid - 1) // 2, (grid - 1) // 4):
                spec = rfft2(values, norm="forward")
                expected = _from_half(spec[_mode_axis(K) % grid, :K + 1])
                assert _from_grid(values, K).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("K", [0, 1, 3, 8])
    def test_mirror_of_a_stack_is_from_half_of_each_block(self, rng, K):
        # halves that are not Hermitian in column n2 = 0, with a complex
        # zero mode, under n2 < 0 columns of garbage
        side = 2 * K + 1
        stack = rng.standard_normal((5, side, side, 2)).view(np.complex128)[..., 0]
        halves = stack[:, :, K:].copy()
        assert _mirror(stack) is stack
        for block, half in zip(stack, halves):
            assert block.tobytes() == _from_half(half).tobytes()
            np.testing.assert_array_equal(block, np.conj(block[::-1, ::-1]))
            assert not np.signbit(block[K, K].imag)

    @pytest.mark.parametrize("K", [0, 1, 3, 8])
    def test_mirror_of_a_half_block_fixes_only_column_zero(self, rng, K):
        # the rule the truncated cube applies to the half it steps
        half = rng.standard_normal((2 * K + 1, K + 1, 2)).view(np.complex128)[..., 0]
        assert _mirror(half.copy()).tobytes() == _from_half(half)[:, K:].tobytes()

    @pytest.mark.parametrize("cutoff", [1, 4, 8, 16])
    def test_cube_half_is_the_rfft2_formulation(self, rng, monkeypatch, cutoff):
        # windows below, at and above the cutoff, against the cube's
        # coefficients read off a full forward rfft2 of the grid cube
        for K in (max(cutoff // 2, 1), cutoff, cutoff + 3):
            half = random_field(rng, K).coeffs[:, K:]
            window = max(K, cutoff)
            fast = _cube_half(half, cutoff, window)
            with monkeypatch.context() as m:
                m.setattr(spectral, "_grid_half", lambda values, K_out: rfft2(
                    values, norm="forward")[_mode_axis(K_out) % len(values), :K_out + 1])
                assert fast.tobytes() == _cube_half(half, cutoff, window).tobytes()


def full_weight(K: int, base: str, sigma: float) -> np.ndarray:
    """|symbol of base^sigma|^2 on the full window block, from |n|^2 alone:
    (1 + |n|^2)^sigma, or |n|^(2 sigma) with 0^0 = 1."""
    n = np.arange(-K, K + 1, dtype=float)
    sq = n[:, None] ** 2 + n[None, :] ** 2
    return (1.0 + sq) ** sigma if base == "bessel" else sq**sigma


class TestHalfBlockSums:
    """A lattice sum read off the n2 >= 0 halves equals the plain sum over
    the mirrored full block: column n2 = 0 holds n and -n, every other
    column stands for its mirror too, and n = 0 counts once."""

    @pytest.mark.parametrize("K", [0, 1, 2, 7, 16])
    def test_pairing_and_weighted_masses(self, rng, K):
        a = np.stack([random_field(rng, K).coeffs for _ in range(3)])
        b = np.stack([random_field(rng, K).coeffs for _ in range(3)])
        got = spectral._pairing(a[..., K:], b[..., K:])
        plain = (a * np.conj(b)).real.sum(axis=(1, 2))
        np.testing.assert_allclose(got, plain, rtol=1e-13, atol=0)
        for base in ("bessel", "riesz"):
            for sigma in (0.0, 1.0, 2.5):
                got = spectral._weighted_mass(a[..., K:], base, sigma)
                plain = (full_weight(K, base, sigma) * np.abs(a) ** 2).sum(axis=(1, 2))
                np.testing.assert_allclose(got, plain, rtol=1e-13, atol=0)

    def test_window_zero_counts_the_zero_mode_once(self):
        c = constant_field(3.0).coeffs[None, :, 0:]
        assert spectral._pairing(c, c).tolist() == [9.0]
        assert spectral._weighted_mass(c, "bessel", 1.0).tolist() == [9.0]
        assert spectral._weighted_mass(c, "riesz", 1.0).tolist() == [0.0]


class TestQuadrature:
    def test_integrate_is_grid_average(self, rng):
        f = random_field(rng, 3)
        assert integrate(f) == pytest.approx(grid_average(f), abs=1e-12)

    def test_inner_product_is_grid_average_of_product(self, rng):
        f, g = random_field(rng, 3), random_field(rng, 2)
        oracle = integrate(pointwise_product(f, g, method="direct"))
        assert inner_product(f, g) == pytest.approx(oracle, abs=1e-12)

    def test_inner_product_crops_exactly(self, rng):
        # modes of the wider factor beyond the narrow window pair with zeros
        f = random_field(rng, 4)
        g = random_field(rng, 2)
        wide = inner_product(SpectralField(4, np.pad(g.coeffs, 2)), f)
        assert inner_product(f, g) == pytest.approx(wide, abs=1e-13)

    def test_inner_product_matches_vdot_pairing(self, rng):
        # unequal windows take the crop path
        f, g = random_field(rng, 6), random_field(rng, 4)
        for a, b in ((f, g), (g, f), (f, f)):
            K = min(a.max_mode, b.max_mode)
            ca = a.coeffs[a.max_mode - K:a.max_mode + K + 1, a.max_mode - K:a.max_mode + K + 1]
            cb = b.coeffs[b.max_mode - K:b.max_mode + K + 1, b.max_mode - K:b.max_mode + K + 1]
            expect = float(np.vdot(cb, ca).real)
            assert inner_product(a, b) == pytest.approx(expect, rel=1e-13)

    def test_parseval(self, rng):
        f = random_field(rng, 3)
        assert inner_product(f, f) == pytest.approx(
            float(np.sum(np.abs(f.coeffs) ** 2)), abs=1e-12
        )

    def test_square_average_oracle(self, rng):
        f = random_field(rng, 3)
        assert inner_product(f, f) == pytest.approx(grid_average(f, power=2), abs=1e-12)

    def test_sobolev_norm_weights(self):
        p = PhaseState(
            u=field_from_modes(2, {(1, 0): 0.5}),  # cos(x1)
            v=field_from_modes(2, {(2, 0): 0.5j}),
        )
        # |u|_{H^s}^2 = 2 * (1/4) * 2^s, |v|_{H^(s-1)}^2 = 2 * (1/4) * 5^(s-1)
        got = sobolev_norm(p, 2.0)
        assert got == pytest.approx(math.sqrt(0.5 * 4 + 0.5 * 5), rel=1e-14)

    def test_sup_norm_of_shifted_cosine(self):
        f = field_from_modes(1, {(1, 0): 1.0, (0, 0): 1.0})  # 2 cos(x1) + 1
        assert grid_sup_norm(f) == pytest.approx(3.0, rel=1e-12)


class TestMultipliers:
    def test_bessel_power_symbol(self):
        f = field_from_modes(2, {(1, 2): 1.0 + 0.5j})
        g = apply_multiplier(f, bessel_power(3.0))
        K = 2
        assert g.coeffs[1 + K, 2 + K] == pytest.approx((1 + 5) ** 1.5 * (1 + 0.5j))

    def test_bessel_powers_compose(self, rng):
        f = random_field(rng, 3)
        once = apply_multiplier(f, bessel_power(1.0))
        twice = apply_multiplier(once, bessel_power(2.0))
        direct = apply_multiplier(f, bessel_power(3.0))
        np.testing.assert_allclose(twice.coeffs, direct.coeffs, rtol=1e-14)

    def test_riesz_power_zeroes_mean(self):
        f = field_from_modes(1, {(0, 0): 2.0, (1, 0): 1.0})
        g = apply_multiplier(f, riesz_power(2.0))
        assert integrate(g) == 0.0
        assert g.coeffs[2, 1] == pytest.approx(1.0)

    def test_riesz_negative_power_needs_mean_zero(self):
        f = constant_field(1.0, max_mode=1)
        with pytest.raises(SpectralError, match="mean-zero"):
            apply_multiplier(f, riesz_power(-1.0))
        g = field_from_modes(1, {(1, 0): 2.0})
        back = apply_multiplier(apply_multiplier(g, riesz_power(-1.0)), riesz_power(1.0))
        np.testing.assert_allclose(back.coeffs, g.coeffs, atol=1e-14)

    def test_derivative_symbol_and_sign(self):
        f = field_from_modes(1, {(1, 0): 0.5})  # cos(x1)
        df = apply_multiplier(f, derivative(1, 0))  # -sin(x1)
        expect = field_from_modes(1, {(1, 0): 0.5j})
        np.testing.assert_allclose(df.coeffs, expect.coeffs, atol=1e-15)

    def test_second_derivative_is_negative_laplacian_piece(self, rng):
        f = random_field(rng, 2)
        dxx = apply_multiplier(f, derivative(2, 0))
        n1 = np.arange(-2, 3).reshape(-1, 1)
        np.testing.assert_allclose(dxx.coeffs, -(n1**2) * f.coeffs, atol=1e-14)

    def test_dyadic_blocks_partition_ball(self, rng):
        f = random_field(rng, 7)
        total = np.zeros_like(f.coeffs)
        for M in (1, 2, 4, 8):
            total = total + apply_multiplier(f, dyadic_block(M)).coeffs
        np.testing.assert_allclose(total, f.coeffs, atol=0)

    def test_dyadic_block_shell_membership(self):
        # <n> = sqrt(1 + |n|^2): mode (1,0) has <n> = sqrt(2), in block 1
        f = field_from_modes(3, {(1, 0): 1.0, (2, 2): 1.0, (0, 0): 1.0})
        b1 = apply_multiplier(f, dyadic_block(1))
        b2 = apply_multiplier(f, dyadic_block(2))
        assert integrate(b1) == 1.0  # <0> = 1 lands in [1, 2)
        assert b1.coeffs[3 + 1, 3] == 1.0
        assert b2.coeffs[3 + 2, 3 + 2] == 1.0  # <(2,2)> = 3 in [2, 4)
        assert b1.coeffs[3 + 2, 3 + 2] == 0.0

    def test_project_ball_masks_corners(self, rng):
        f = random_field(rng, 4)
        g = project_ball(f, 4)
        assert g.max_mode == 4
        assert g.coeffs[0, 0] == 0.0  # |(-4, -4)| > 4
        assert g.coeffs[8, 4] == f.coeffs[8, 4]  # |(4, 0)| = 4 kept
        np.testing.assert_array_equal(g.coeffs, f.coeffs * _ball_mask(4))

    def test_project_ball_shrinks_window(self, rng):
        f = random_field(rng, 6)
        g = project_ball(f, 2)
        assert g.max_mode == 2
        np.testing.assert_allclose(g.coeffs, f.coeffs[4:9, 4:9] * (_ball_mask(2)), atol=0)

    def test_ball_is_the_boolean_mask_product_bit_for_bit(self, rng):
        # the cached complex mask multiplies a half block as the boolean
        # one does, signed zeros and non-finite entries included
        for K in range(7):
            side = 2 * K + 1
            c = rng.standard_normal((3, side, K + 1, 2)).view(np.complex128)[..., 0]
            c[0] = -0.0
            c[1, :, 0] = complex(-0.0, 0.0)
            c[2, 0, 0] = complex(math.inf, math.nan)
            for cutoff in range(2 * K + 1):
                K_new = min(K, cutoff)
                crop = c[:, K - K_new:K + K_new + 1, :K_new + 1]
                n = _mode_axis(K_new)
                boolean = n[:, None] ** 2 + n[None, K_new:] ** 2 <= cutoff**2
                assert spectral._ball(c, cutoff).tobytes() == (crop * boolean).tobytes()

    def test_invalid_multiplier_parameters(self):
        with pytest.raises(SpectralError):
            dyadic_block(-2)
        with pytest.raises(SpectralError):
            derivative(-1, 0)
        with pytest.raises(SpectralError):
            bessel_power(math.inf)


def _ball_mask(K: int) -> np.ndarray:
    n = np.arange(-K, K + 1)
    return (n[:, None] ** 2 + n[None, :] ** 2) <= K**2


class TestTruncatedCube:
    def test_matches_projected_triple_product(self, rng):
        # the flow's cube of a window-6 half block, padded back to window 6,
        # against two direct convolutions
        for cutoff in (2, 3, 5, 6):
            f = random_field(rng, 6)
            w = project_ball(f, cutoff)
            ref = project_ball(
                pointwise_product(pointwise_product(w, w, method="direct"), w,
                                  method="direct"),
                cutoff,
            )
            got = _from_half(_cube_half(f.coeffs[:, 6:], cutoff, 6))
            np.testing.assert_allclose(got, np.pad(ref.coeffs, 6 - ref.max_mode), atol=1e-11)

    def test_constant_cube(self):
        got = _cube_half(constant_field(2.0).coeffs, 3, 0)
        assert got[0, 0] == pytest.approx(8.0)


class TestWindowsAndSerialization:
    def test_zero_field(self):
        z = zero_field(2)
        assert z.max_mode == 2 and not z.coeffs.any()

    def test_field_dict_round_trip(self, rng):
        f = random_field(rng, 3)
        g = field_from_dict(field_to_dict(f))
        assert g.max_mode == f.max_mode
        np.testing.assert_array_equal(g.coeffs, f.coeffs)

    def test_state_dict_round_trip(self, rng):
        p = random_state(rng, 2)
        q = state_from_dict(state_to_dict(p))
        np.testing.assert_array_equal(q.u.coeffs, p.u.coeffs)
        np.testing.assert_array_equal(q.v.coeffs, p.v.coeffs)

    def test_dict_round_trip_survives_json(self, rng):
        import json

        p = random_state(rng, 2)
        q = state_from_dict(json.loads(json.dumps(state_to_dict(p))))
        np.testing.assert_array_equal(q.u.coeffs, p.u.coeffs)

