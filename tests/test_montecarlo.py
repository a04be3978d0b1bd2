"""Monte Carlo estimators: oracles, determinism, weighting, study plumbing."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import block_values, field_from_modes
import torusnlw.energy as energy
import torusnlw.montecarlo as montecarlo
import torusnlw.sampling as sampling
from torusnlw.energy import (
    UnsupportedParameterError,
    _one,
    chaos_components,
    energy_rate_terms,
    quartic_correction,
    truncated_energy,
    wick_renormalized_mass,
)
from torusnlw.montecarlo import (
    DegenerateEnsembleError,
    FUNCTIONALS,
    _estimate_from_values,
    _tag64,
    chaos_growth_check,
    collect_values,
    convergence_rate_study,
    estimate_lp,
    fit_rate,
    lp_growth_experiment,
    resolve_radius,
    sup_norm_moment_study,
    tail_estimate_study,
)
from torusnlw.sampling import EnsembleSpec, sample
from torusnlw.spectral import PhaseState

COS = field_from_modes(1, {(1, 0): 0.5})


def make_ens(K=4, N=None, s=2.0, seed=0, variant="mu_s", **kw):
    return EnsembleSpec(variant=variant, s=s, sample_max_mode=K,
                        truncation_N=K if N is None else N,
                        master_seed=seed, **kw)


class TestEstimateLp:
    def test_point_mass_rate_mass_term(self):
        # the worked state carries rate_mass = -3/2, so a point mass there
        # has L^p norm 3/2 for every p
        ens = make_ens(K=1, s=2.0)
        (mass,) = block_values(ens, PhaseState(COS, COS), [("energy_rate_mass", {})])
        assert mass == pytest.approx(-1.5, rel=1e-12)
        for p in (2.0, 4.0, 7.5):
            est = _estimate_from_values(np.full(100, mass), np.ones(100), p, ens,
                                        "energy_rate_mass:[]")
            assert est.value == pytest.approx(1.5, rel=1e-12)
            assert est.ci_low == est.ci_high == pytest.approx(est.value)
            assert est.effective_samples == est.samples == 100

    def test_wick_mass_second_moment_oracle(self):
        # Var of the renormalized mass is 2 sum <n>^-4 over the ball
        # (each conjugate pair contributes 4/<n>^4, the real mean mode 2);
        # 3000 draws give ~2.5% CI half-width
        N = 8
        n = np.arange(-N, N + 1)
        sq = n[:, None] ** 2 + n[None, :] ** 2
        oracle = math.sqrt(2.0 * float(np.sum((sq <= N * N) / (1.0 + sq) ** 2)))
        ens = make_ens(K=N, s=2.0, seed=77)
        est = estimate_lp("wick_mass", ens, 2.0, 3000)
        assert est.ci_low <= oracle <= est.ci_high
        assert est.value == pytest.approx(oracle, rel=0.1)

    def test_scalar_gaussian_fourth_moment(self):
        # ||g||_4 = 3^(1/4) for a standard scalar Gaussian
        ens = make_ens(K=2, s=2.0, seed=5)
        est = estimate_lp("scalar_gaussian", ens, 4.0, 20000)
        assert est.value == pytest.approx(3.0**0.25, rel=0.02)

    def test_infinite_radius_weights_are_trivial(self):
        ens = make_ens(K=3, seed=3)
        est = estimate_lp("quartic_correction", ens, 2.0, 200)
        assert est.effective_samples == 200

    def test_radius_cutoff_reduces_effective_samples(self):
        ens = make_ens(K=3, seed=3, energy_cutoff_r=2.0)
        est = estimate_lp("quartic_correction", ens, 2.0, 200)
        assert 0 < est.effective_samples < 200

    def test_degenerate_cutoff_raises(self):
        ens = make_ens(K=3, seed=3, energy_cutoff_r=1e-12)
        with pytest.raises(DegenerateEnsembleError):
            estimate_lp("quartic_correction", ens, 2.0, 100)

    def test_block_beyond_window_gives_zero(self):
        ens = make_ens(K=2, seed=1)
        est = estimate_lp("block_sup_norm", ens, 2.0, 100,
                          params={"block": 64, "order": (0, 0), "field": "u"})
        assert est.value == 0.0

    def test_parameter_validation(self):
        ens = make_ens()
        with pytest.raises(ValueError, match="p"):
            estimate_lp("wick_mass", ens, 0.5, 100)
        with pytest.raises(ValueError, match="p"):
            estimate_lp("wick_mass", ens, 40.0, 100)
        with pytest.raises(ValueError, match="samples"):
            estimate_lp("wick_mass", ens, 2.0, 50)
        with pytest.raises(UnsupportedParameterError, match="functional"):
            estimate_lp("no_such_functional", ens, 2.0, 100)

    def test_ci_brackets_value(self):
        ens = make_ens(K=3, seed=9)
        est = estimate_lp("energy_rate_total", ens, 4.0, 300)
        assert est.ci_low <= est.value <= est.ci_high
        assert est.ci_low < est.ci_high

    def test_estimates_are_reproducible(self):
        ens = make_ens(K=3, seed=4)
        a = estimate_lp("wick_mass", ens, 2.0, 200)
        b = estimate_lp("wick_mass", ens, 2.0, 200)
        assert a == b


class TestNonFiniteValues:
    """A non-finite draw is an error that names the column, raised before
    the bootstrap (the CLI reports it as a runtime error, exit 2)."""

    def test_one_nan_among_100_draws(self):
        values = np.linspace(1.0, 2.0, 100)
        values[37] = math.nan
        with pytest.raises(FloatingPointError, match="gap:M=4: 1 of 100 draws"):
            _estimate_from_values(values, np.ones(100), 2.0, make_ens(), "gap:M=4")

    def test_inf_in_a_rejected_draw(self):
        values, weights = np.linspace(1.0, 2.0, 100), np.ones(100)
        values[3], weights[3] = math.inf, 0.0
        with pytest.raises(FloatingPointError, match="col: 1 of 100 draws"):
            _estimate_from_values(values, weights, 4.0, make_ens(), "col")


class TestSharedFactors:
    """One state's factors go to the quadrature grid once per cutoff, in
    one grid_stack call per cutoff, and the values evaluated from them
    equal the public functions' exactly."""

    @staticmethod
    def transforms(monkeypatch, ens, funcs) -> tuple:
        """(fields transformed, grid_stack calls) for one state."""
        stacks = []
        real = energy.grid_stack
        monkeypatch.setattr(energy, "grid_stack",
                            lambda fields, grid: stacks.append(len(fields))
                            or real(fields, grid))
        collect_values(ens, funcs, 1)
        return sum(stacks), len(stacks)

    def test_gap_decay_columns(self, monkeypatch):
        # u_N and J^s u_N at each of the cutoffs 64, 4, 8, 16, 32, one call each
        names = ("quartic_correction_gap", "chaos_double_pair_renorm_gap",
                 "chaos_single_pair_gap", "chaos_no_pair_gap")
        funcs = [(name, {"lower_cutoff": m}) for name in names for m in (4, 8, 16, 32)]
        assert self.transforms(monkeypatch, make_ens(K=64, seed=901), funcs) == (10, 5)

    def test_rate_with_finite_radius(self, monkeypatch):
        # u_N (also the energy's quartic), v_N, J^s u_N, J^s v_N and J^2s v_N
        ens = make_ens(K=16, seed=901, energy_cutoff_r=1e6)
        assert self.transforms(monkeypatch, ens, [("energy_rate_total", {})]) == (5, 1)

    def test_rate_at_s4(self, monkeypatch):
        # the same five factors: the count does not grow with s
        ens = make_ens(K=16, seed=901, energy_cutoff_r=1e6, s=4.0)
        assert self.transforms(monkeypatch, ens, [("energy_rate_total", {})]) == (5, 1)

    def test_density_weight(self, monkeypatch):
        ens = make_ens(K=16, seed=901)
        assert self.transforms(monkeypatch, ens,
                               [("density_weight", {"radius": 1e6})]) == (2, 1)

    @pytest.mark.parametrize("variant,beta", [("mu_s", 0.0), ("mu_tilde_s", 0.0),
                                              ("mu_s_beta", 1.5)])
    def test_values_equal_public_functions(self, variant, beta):
        N, M, n = 8, 4, 6
        ens = make_ens(K=N, seed=31, variant=variant, beta=beta)
        s, eq = ens.s, ens.equation
        states = [sample(ens, i) for i in range(n)]
        radius = float(np.median([truncated_energy(p, N, eq, beta) for p in states]))
        gaps = ("chaos_double_pair_renorm_gap", "chaos_single_pair_gap",
                "chaos_no_pair_gap")
        funcs = [("quartic_correction", {}), ("quartic_correction_gap", {"lower_cutoff": M}),
                 *[(name, {"lower_cutoff": M}) for name in gaps],
                 ("energy_rate_highlow", {}), ("energy_rate_mass", {}),
                 ("energy_rate_leibniz", {}), ("energy_rate_total", {}),
                 ("density_weight", {"radius": radius}),
                 ("density_weight", {"radius": radius, "cutoff": M}),
                 ("truncated_energy", {}), ("truncated_energy", {"cutoff": M})]
        values, weights = collect_values(
            EnsembleSpec(variant=variant, s=s, sample_max_mode=N, truncation_N=N,
                         master_seed=31, beta=beta, energy_cutoff_r=radius), funcs, n)
        def density(p, c):
            # the cutoff indicator times exp(-correction), and for nlw
            # exp(-1/4 int u_N^4) as well
            log_weight = -quartic_correction(p.u, s, c, eq)
            if eq == "nlw":
                log_weight -= 0.25 * _one(p.u, None, None, c, eq).low_quartic[0]
            return float(np.exp(log_weight)) if truncated_energy(p, c, eq, beta) <= radius else 0.0

        for p, row, weight in zip(states, values, weights):
            q, q_lo = (quartic_correction(p.u, s, c, eq) for c in (N, M))
            hi, lo = (chaos_components(p.u, s, c, eq) for c in (N, M))
            rate = energy_rate_terms(p, s, N, eq, beta)
            expect = [q, q - q_lo,
                      *[getattr(hi, c) - getattr(lo, c)
                        for c in ("double_pair_renorm", "single_pair", "no_pair")],
                      rate.highlow, rate.mass, rate.leibniz, rate.total,
                      *[density(p, c) for c in (N, M)],
                      *[truncated_energy(p, c, eq, beta) for c in (N, M)]]
            assert row.tolist() == expect
            assert weight == float(truncated_energy(p, N, eq, beta) <= radius)
        assert 0 < weights.sum() < n


class TestBootstrapRedraws:
    def test_redraws_are_capped(self, monkeypatch):
        # a generator that only ever resamples the rejected draw 1
        class Rejected:
            def integers(self, low, high, size):
                return np.ones(size, dtype=np.int64)

        monkeypatch.setattr(montecarlo, "_tagged_rng", lambda seed, tag: Rejected())
        weights = np.zeros(100)
        weights[0] = 1.0
        with pytest.raises(DegenerateEnsembleError, match=r"gap:M=4, p=2\.0: 1000"):
            _estimate_from_values(np.ones(100), weights, 2.0, make_ens(), "gap:M=4")

    def test_one_accepted_draw_in_100_is_estimated(self):
        # a resample misses the accepted draw with probability 0.99^100 ~ 37%
        values = np.arange(1.0, 101.0)
        weights = np.zeros(100)
        weights[37] = 1.0
        est = _estimate_from_values(values, weights, 2.0, make_ens(seed=4), "one")
        assert est.value == 38.0
        assert est.ci_low == est.ci_high == 38.0
        assert est.effective_samples == 1


class TestLazyVelocity:
    """The evaluator draws v only when a functional or the cutoff reads it."""

    @staticmethod
    def assembled(monkeypatch, ens, funcs) -> int:
        """Fields assembled from normals for three states."""
        rows = []
        real = sampling._assemble
        monkeypatch.setattr(sampling, "_assemble",
                            lambda raw, *args: rows.append(len(raw)) or real(raw, *args))
        collect_values(ens, funcs, 3)
        return sum(rows)

    def test_gap_study_draws_only_u(self, monkeypatch):
        funcs = [("quartic_correction_gap", {"lower_cutoff": 2}),
                 ("chaos_no_pair_gap", {"lower_cutoff": 2})]
        assert self.assembled(monkeypatch, make_ens(K=4, seed=8), funcs) == 3

    def test_energy_cutoff_draws_v(self, monkeypatch):
        ens = make_ens(K=4, seed=8, energy_cutoff_r=1e6)
        assert self.assembled(monkeypatch, ens,
                              [("quartic_correction", {})]) == 6

    def test_values_equal_full_draws(self):
        # a block's rows are sample()'s states bit for bit, a u-only draw's
        # u is the full draw's, and v read first (its block sup norm) still
        # takes u's normals off the stream before its own
        ens = make_ens(K=4, seed=8, energy_cutoff_r=50.0)
        u, v = sampling._drawer(ens, True)(0, 5)
        u_only, no_v = sampling._drawer(ens, False)(0, 5)
        assert no_v is None
        np.testing.assert_array_equal(u_only, u)
        funcs = [("block_sup_norm", {"block": 2, "field": "v"}), ("wick_mass", {}),
                 ("energy_rate_total", {})]
        values, weights = collect_values(ens, funcs, 5)
        for i in range(5):
            p = sample(ens, i)
            np.testing.assert_array_equal(u[i], p.u.coeffs)
            np.testing.assert_array_equal(v[i], p.v.coeffs)
            assert values[i].tolist() == block_values(ens, p, funcs)
            assert weights[i] == float(truncated_energy(p, 4) <= 50.0)


def every_functional(radius: float) -> list:
    """A (name, params) column of every registry entry, some twice."""
    return [("energy_rate_total", {}), ("energy_rate_highlow", {}),
            ("energy_rate_mass", {}), ("energy_rate_leibniz", {}),
            ("quartic_correction", {}), ("quartic_correction", {"cutoff": 2}),
            ("quartic_correction_gap", {"lower_cutoff": 2}),
            ("chaos_double_pair_renorm_gap", {"lower_cutoff": 1}),
            ("chaos_single_pair_gap", {"lower_cutoff": 2}),
            ("chaos_no_pair_gap", {"lower_cutoff": 2}), ("wick_mass", {}),
            ("block_sup_norm", {"block": 2}),
            ("block_sup_norm", {"block": 1, "field": "v", "order": (1, 0)}),
            ("density_weight", {"radius": radius}), ("truncated_energy", {}),
            ("scalar_gaussian", {})]


class TestBlockSize:
    """Values do not depend on how many states a block holds."""

    @staticmethod
    def at_block_size(monkeypatch, ens, size, **kwargs):
        grid = montecarlo.quadrature_grid(ens.sample_max_mode)
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", size * 5 * grid**2 * 8)
        assert montecarlo._block_size(ens.sample_max_mode) == size
        return collect_values(ens, every_functional(12.0), 70, **kwargs)

    def test_every_functional_covered(self):
        assert {name for name, _ in every_functional(1.0)} == set(FUNCTIONALS)

    @pytest.mark.parametrize("variant,beta", [("mu_s", 0.0), ("mu_tilde_s", 0.0),
                                              ("mu_s_beta", 1.5)])
    def test_bitwise_equal_across_block_sizes_and_workers(self, monkeypatch, variant, beta):
        ens = make_ens(K=4, seed=77, variant=variant, beta=beta, energy_cutoff_r=12.0)
        ref_values, ref_weights = self.at_block_size(monkeypatch, ens, 1)
        assert 0 < ref_weights.sum() < 70
        for size in (1, 7, 64):
            for workers in (1, 2):
                values, weights = self.at_block_size(monkeypatch, ens, size, workers=workers)
                np.testing.assert_array_equal(values, ref_values)
                np.testing.assert_array_equal(weights, ref_weights)

    def test_block_sizes_follow_the_window(self):
        assert [montecarlo._block_size(K) for K in (1, 8, 16, 32, 64)] == [1048, 20, 5, 1, 1]


class TestWorkerDeterminism:
    def test_collect_values_bitwise_equal_across_workers(self):
        ens = make_ens(K=3, seed=12, energy_cutoff_r=8.0)
        funcs = [("energy_rate_total", {}), ("wick_mass", {})]
        v1, w1 = collect_values(ens, funcs, 64, workers=1)
        v3, w3 = collect_values(ens, funcs, 64, workers=3)
        np.testing.assert_array_equal(v1, v3)
        np.testing.assert_array_equal(w1, w3)

    def test_estimate_identical_across_workers(self):
        ens = make_ens(K=3, seed=12)
        a = estimate_lp("energy_rate_total", ens, 4.0, 120, workers=1)
        b = estimate_lp("energy_rate_total", ens, 4.0, 120, workers=4)
        assert a == b


class TestFitRate:
    def test_exact_power_law(self):
        x = np.array([2.0, 4.0, 8.0, 16.0])
        fit = fit_rate(x, 3.0 * x**-2.0)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_under_two_points_rejected(self):
        with pytest.raises(ValueError, match="two"):
            fit_rate([2.0], [1.0])

    def test_nonpositive_ordinates_rejected(self):
        # log-log fits have no room for zeros; the caller must filter
        with pytest.raises(ValueError, match="positive"):
            fit_rate([1.0, 2.0, 4.0, 8.0], [1.0, 0.0, 0.25, 1 / 16])


class TestResolveRadius:
    def test_numbers_pass_through(self):
        ens = make_ens()
        assert resolve_radius(7.5, ens) == 7.5
        assert resolve_radius(math.inf, ens) == math.inf

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            resolve_radius(0.0, make_ens())

    def test_auto_is_deterministic_and_plausible(self):
        ens = make_ens(K=4, seed=21)
        r1 = resolve_radius("auto", ens)
        r2 = resolve_radius("auto", ens)
        assert r1 == r2
        assert 0.0 < r1 < 100.0

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_auto_equals_a_serial_pilot_loop(self, workers):
        # the oracle: the pilot's draws one by one through the public functions
        ens = make_ens(K=6, N=4, seed=601)
        pilot = replace(ens, master_seed=_tag64(f"pilot-radius:{ens.master_seed}"))
        energies = [truncated_energy(sample(pilot, i), 4, ens.equation, ens.beta)
                    for i in range(1000)]
        radius = resolve_radius("auto", ens, workers=workers)
        assert radius == float(np.quantile(energies, 0.9))

    def test_auto_accepts_most_samples_at_default_quantile(self):
        ens = make_ens(K=4, seed=21)
        r = resolve_radius("auto", ens)
        est = estimate_lp(
            "quartic_correction",
            EnsembleSpec(variant=ens.variant, s=ens.s,
                         sample_max_mode=ens.sample_max_mode,
                         truncation_N=ens.truncation_N,
                         master_seed=ens.master_seed, energy_cutoff_r=r),
            2.0,
            400,
        )
        # the pilot targets the 0.9 quantile
        assert 0.8 < est.effective_samples / est.samples < 0.97


class TestChaosGrowthCheck:
    def test_wick_mass_ratios_against_gaussian_bound(self):
        ens = make_ens(K=4, seed=31)
        result = chaos_growth_check("wick_mass", ens, [4.0, 8.0], 800)
        assert result.degree == 2
        assert result.base_norm > 0
        for row, p in zip(result.rows, [4.0, 8.0]):
            assert row.p == p
            assert row.bound == (p - 1.0) ** (result.degree / 2.0)
            assert row.ratio == pytest.approx(row.norm / result.base_norm, rel=1e-12)
            assert row.within_bound

    def test_degreeless_functional_rejected(self):
        with pytest.raises(UnsupportedParameterError, match="degree"):
            chaos_growth_check("block_sup_norm", make_ens(), [4.0], 100)

    def test_quartic_degree_bound_exponent(self):
        ens = make_ens(K=3, seed=8)
        result = chaos_growth_check("quartic_correction", ens, [4.0], 400)
        assert result.degree == 4
        assert result.rows[0].bound == (4.0 - 1.0) ** 2


class TestGrowthExperiment:
    def test_structure_and_slopes_smoke(self):
        result = lp_growth_experiment(make_ens(K=0, seed=17), [2, 4], [2.0, 4.0],
                                      math.inf, 150)
        assert {row.cutoff for row in result.rows} == {2, 4}
        assert {row.p for row in result.rows} == {2.0, 4.0}
        assert dict(result.radii) == {2: math.inf, 4: math.inf}
        # one p-growth fit per cutoff, one spread per p
        assert [cutoff for cutoff, _ in result.p_fits] == [2, 4]
        assert [p for p, _ in result.spread_by_p] == [2.0, 4.0]
        for _, spread in result.spread_by_p:
            assert spread >= 1.0

    def test_auto_radius_is_recorded(self):
        result = lp_growth_experiment(make_ens(K=0, seed=17), [2], [2.0, 4.0], "auto", 120)
        assert 0.0 < dict(result.radii)[2] < math.inf


class TestConvergenceStudy:
    def test_gap_shrinks_with_lower_cutoff(self):
        result = convergence_rate_study(make_ens(K=0, seed=23), [2, 4, 8], 2.0, 400,
                                        reference_cutoff=16)
        assert result.reference_cutoff == 16
        values = [row.estimate.value for row in result.rows]
        assert values[0] > values[-1] > 0.0
        assert result.fit.slope < 0.0

    def test_component_fits_requested(self):
        result = convergence_rate_study(make_ens(K=0, seed=23), [2, 4], 2.0, 200,
                                        reference_cutoff=8, components=True)
        names = [name for name, _ in result.component_fits]
        assert names == [
            "chaos_double_pair_renorm_gap",
            "chaos_single_pair_gap",
            "chaos_no_pair_gap",
        ]

    def test_default_reference_doubles_largest(self):
        result = convergence_rate_study(make_ens(K=0, seed=2), [2, 4], 2.0, 150)
        assert result.reference_cutoff == 8


class TestSupNormStudy:
    def test_moment_grows_with_block(self):
        result = sup_norm_moment_study(make_ens(K=0, seed=41), (0, 0), [1, 2, 4], 8,
                                       4.0, 200)
        norms = [row.estimate.value for row in result.rows]
        assert all(v > 0 for v in norms)
        assert result.fit.slope == pytest.approx(
            np.polyfit(np.log([1, 2, 4]), np.log(norms), 1)[0], abs=1e-10
        )

    def test_derivative_order_capped_by_regularity(self):
        with pytest.raises(ValueError, match="order"):
            sup_norm_moment_study(make_ens(K=0), (3, 0), [1, 2], 8, 4.0, 200)
        with pytest.raises(ValueError, match="order"):
            sup_norm_moment_study(make_ens(K=0), (2, 0), [1, 2], 8, 4.0, 200, field="v")

    def test_velocity_field_accepted_within_cap(self):
        result = sup_norm_moment_study(make_ens(K=0, seed=41), (1, 0), [1, 2], 8, 2.0,
                                       150, field="v")
        assert result.field == "v"
        assert len(result.rows) == 2


class TestTailStudy:
    def test_zero_threshold_probability_one(self):
        result = tail_estimate_study(make_ens(K=0, seed=51), 8, [2, 4], [0.0, 1.0], 200)
        zero_rows = [r for r in result.rows if r.threshold == 0.0]
        assert all(r.probability == 1.0 for r in zero_rows)
        assert all(not r.is_upper_bound for r in zero_rows)

    def test_probability_decays_in_threshold(self):
        result = tail_estimate_study(make_ens(K=0, seed=51), 8, [4], [0.0, 0.05, 0.2],
                                     300)
        probs = [r.probability for r in result.rows]
        assert probs == sorted(probs, reverse=True)
        assert result.threshold_monotone

    def test_no_exceedance_flags_upper_bound(self):
        result = tail_estimate_study(make_ens(K=0, seed=51), 8, [4], [1e9], 150)
        row = result.rows[0]
        assert row.exceedances == 0
        assert row.is_upper_bound
        assert row.probability == pytest.approx(1 / 150)


def at_window(variant: str, beta: float, n: int, **kw) -> EnsembleSpec:
    """The explicit EnsembleSpec(variant, s, n, n, seed, beta) of a study's draws."""
    return EnsembleSpec(variant, 2.0, n, n, 5, beta, **kw)


def assert_raw_is_drawn_from(raw, ens: EnsembleSpec, funcs, samples: int) -> None:
    values, weights = collect_values(ens, funcs, samples)
    assert len(raw) == len(funcs)
    for col, (_, got, got_weights) in enumerate(raw):
        assert np.array_equal(got, values[:, col])
        assert np.array_equal(got_weights, weights)


def refuse_to_draw(*args, **kwargs):
    raise AssertionError("collect_values was called")


def refuse_a_drawer(*args, **kwargs):
    raise AssertionError("a drawer was built")


# each study, on inputs it accepts from a base ensemble with no energy cutoff
STUDIES = {
    "lp_growth": lambda ens: lp_growth_experiment(ens, [2, 3], [2.0, 4.0], "auto", 100),
    "convergence": lambda ens: convergence_rate_study(ens, [2, 3], 2.0, 100),
    "sup_norm": lambda ens: sup_norm_moment_study(ens, (0, 0), [1, 2], 4, 2.0, 100),
    "tail": lambda ens: tail_estimate_study(ens, 6, [2, 3], [0.0], 100),
}
# each study whose rate fit would get one distinct point
ONE_POINT = {
    "lp_growth": lambda ens: lp_growth_experiment(ens, [2, 3], [4.0, 4.0], "auto", 100),
    "convergence": lambda ens: convergence_rate_study(ens, [2], 2.0, 100),
    "sup_norm": lambda ens: sup_norm_moment_study(ens, (0, 0), [2], 4, 2.0, 100),
}


class TestStudiesDrawFromTheBaseEnsemble:
    """A study takes the base ensemble and sets the window of each cutoff:
    its raw series are collect_values on the explicit ensemble, bit for bit."""

    VARIANTS = [("mu_s", 0.0), ("mu_tilde_s", 0.0), ("mu_s_beta", 2.0)]

    @pytest.mark.parametrize("variant, beta", VARIANTS)
    def test_growth_draws_each_cutoff_at_its_window(self, variant, beta):
        result = lp_growth_experiment(at_window(variant, beta, 0), [2, 3], [2.0, 4.0],
                                      30.0, 100)
        for n, series in zip([2, 3], result.raw):
            assert_raw_is_drawn_from((series,), at_window(variant, beta, n,
                                                          energy_cutoff_r=30.0),
                                     [("energy_rate_total", {})], 100)

    @pytest.mark.parametrize("variant, beta", VARIANTS)
    def test_convergence_draws_at_the_reference_window(self, variant, beta):
        result = convergence_rate_study(at_window(variant, beta, 0), [3, 2], 2.0, 100,
                                        reference_cutoff=6)
        assert_raw_is_drawn_from(result.raw, at_window(variant, beta, 6),
                                 [("quartic_correction_gap", {"lower_cutoff": m})
                                  for m in (2, 3)], 100)

    @pytest.mark.parametrize("variant, beta", VARIANTS)
    def test_sup_norm_draws_at_the_cutoff_window(self, variant, beta):
        result = sup_norm_moment_study(at_window(variant, beta, 0), (1, 0), [1, 2], 4,
                                       2.0, 100)
        assert_raw_is_drawn_from(result.raw, at_window(variant, beta, 4),
                                 [("block_sup_norm",
                                   {"order": (1, 0), "block": m, "field": "u"})
                                  for m in (1, 2)], 100)

    @pytest.mark.parametrize("variant, beta", VARIANTS)
    def test_tail_draws_at_the_reference_window(self, variant, beta):
        result = tail_estimate_study(at_window(variant, beta, 0), 6, [2, 3], [0.0, 0.1],
                                     100)
        assert_raw_is_drawn_from(result.raw, at_window(variant, beta, 6),
                                 [("quartic_correction_gap", {"lower_cutoff": m})
                                  for m in (2, 3)], 100)

    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_finite_energy_cutoff_refused_before_drawing(self, monkeypatch, study):
        monkeypatch.setattr(montecarlo, "collect_values", refuse_to_draw)
        with pytest.raises(ValueError, match="energy_cutoff_r 10.0"):
            STUDIES[study](at_window("mu_s", 0.0, 0, energy_cutoff_r=10.0))

    @pytest.mark.parametrize("study", sorted(ONE_POINT))
    def test_fit_through_one_point_refused_before_drawing(self, monkeypatch, study):
        monkeypatch.setattr(montecarlo, "collect_values", refuse_to_draw)
        with pytest.raises(ValueError, match="at least two distinct"):
            ONE_POINT[study](at_window("mu_s", 0.0, 0))


class TestFunctionalTable:
    def test_known_degrees(self):
        assert FUNCTIONALS["wick_mass"].degree == 2
        assert FUNCTIONALS["energy_rate_total"].degree == 4
        assert FUNCTIONALS["scalar_gaussian"].degree == 1
        assert FUNCTIONALS["block_sup_norm"].degree is None
        assert FUNCTIONALS["density_weight"].degree is None
        assert FUNCTIONALS["density_weight"].requires == ("radius",)
        assert FUNCTIONALS["quartic_correction_gap"].requires == ("lower_cutoff",)
        assert FUNCTIONALS["block_sup_norm"].requires == ("block",)

    def test_missing_parameter_rejected_before_drawing(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_drawer", refuse_a_drawer)
        with pytest.raises(UnsupportedParameterError,
                           match="quartic_correction_gap.*lower_cutoff"):
            collect_values(make_ens(K=2), [("quartic_correction_gap", {})], 100)

    @pytest.mark.parametrize("column", [("wick_mass", {"cutof": 4}),
                                        ("block_sup_norm", {"block": 1, "orders": (1, 0)}),
                                        ("scalar_gaussian", {"cutoff": 2})])
    def test_unread_parameter_rejected_before_drawing(self, monkeypatch, column):
        # a misspelled key used to fall back to the default silently
        monkeypatch.setattr(montecarlo, "_drawer", refuse_a_drawer)
        with pytest.raises(UnsupportedParameterError, match=f"{column[0]}' takes the"):
            collect_values(make_ens(K=8), [column], 100)

    @pytest.mark.parametrize("s", [3.0, 2.5, 1.5])
    def test_rate_at_an_odd_or_fractional_s_rejected_before_drawing(self, monkeypatch, s):
        monkeypatch.setattr(montecarlo, "_drawer", refuse_a_drawer)
        ens = make_ens(K=0, s=s)
        for call in (lambda: collect_values(ens, [("energy_rate_mass", {})], 100),
                     lambda: estimate_lp("energy_rate_total", ens, 2.0, 100),
                     lambda: chaos_growth_check("energy_rate_leibniz", ens, [4.0], 100),
                     lambda: lp_growth_experiment(ens, [2], [2.0, 4.0], "auto", 100)):
            with pytest.raises(UnsupportedParameterError,
                               match=f"even integer s >= 2, got {s}"):
                call()

    def test_entries_read_their_cutoff(self):
        # each rate entry used to evaluate at truncation_N whatever its cutoff
        ens = make_ens(K=8, seed=3)
        terms = ("highlow", "mass", "leibniz", "total")
        funcs = [(f"energy_rate_{t}", {"cutoff": 4}) for t in terms] + [
            ("wick_mass", {"cutoff": 4}), ("wick_mass", {})]
        values, _ = collect_values(ens, funcs, 1)
        p = sample(ens, 0)
        rate = energy_rate_terms(p, 2.0, 4)
        assert values[0].tolist() == [getattr(rate, t) for t in terms] + [
            wick_renormalized_mass(p.u, 2.0, c) for c in (4, 8)]
