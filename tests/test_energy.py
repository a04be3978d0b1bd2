"""Energy functionals: closed forms, flow-derivative identity, chaos split.

Worked single-mode states give exact rational values for every functional;
the time-derivative identity is checked against central differences along
the actual flow, and the chaos decomposition against a pure-Python sum
over frequency quadruples.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import (block_values, constant_field, field_from_modes, random_field,
                      random_state)
from torusnlw.dynamics import IntegratorSpec, ModelSpec, evolve
from torusnlw.energy import (
    EQUATIONS,
    ChaosComponents,
    UnsupportedParameterError,
    chaos_components,
    energy_rate_terms,
    energy_report,
    hamiltonian,
    quartic_correction,
    renormalized_energy,
    truncated_energy,
    wick_renormalized_mass,
    _one,
    _power,
)
from torusnlw.sampling import FAMILIES, EnsembleSpec, counterterm, sample, wave_counterterm
from torusnlw.spectral import (
    PhaseState,
    SpectralField,
    _sq_modulus,
    apply_multiplier,
    derivative,
    inner_product,
    integrate,
    pointwise_product,
    project_ball,
    sobolev_norm,
    zero_field,
)

COS = field_from_modes(1, {(1, 0): 0.5})  # cos(x1)


def gaussian_state(index=0, K=4, variant="mu_s", seed=9, **kw):
    spec = EnsembleSpec(variant=variant, s=2.0, sample_max_mode=K,
                        truncation_N=K, master_seed=seed, **kw)
    return sample(spec, index)


class TestHamiltonian:
    # for u = v = cos(x1): each quadratic integral is 1/2, int u^4 = 3/8

    def test_nlkg_closed_form(self):
        assert hamiltonian(PhaseState(COS, COS)) == pytest.approx(
            0.5 * 1.5 + 0.25 * 3 / 8, abs=1e-14
        )

    def test_nlw_drops_mass(self):
        assert hamiltonian(PhaseState(COS, COS), equation="nlw") == pytest.approx(
            0.5 * 1.0 + 0.25 * 3 / 8, abs=1e-14
        )

    def test_beta_quadratic_form(self):
        # int ((1 - Lap)^(beta/2) u)^2 = 2^2 * 1/2 = 2 at beta = 2
        got = hamiltonian(PhaseState(COS, zero_field(1)),
                          equation="nlkg_beta", beta=2.0)
        assert got == pytest.approx(0.5 * 2.0 + 0.25 * 3 / 8, abs=1e-14)

    @pytest.mark.parametrize("equation,variant,beta", [
        ("nlkg", "mu_s", 0.0), ("nlw", "mu_tilde_s", 0.0), ("nlkg_beta", "mu_s_beta", 2.0)])
    def test_is_the_truncated_energy_of_a_ball_holding_the_window(self, equation,
                                                                   variant, beta):
        # every cutoff >= sqrt(2) K keeps the whole window, so each gives
        # the same value, bit for bit
        K = 4
        p = gaussian_state(K=K, variant=variant, beta=beta)
        energy = hamiltonian(p, equation, beta)
        assert energy == truncated_energy(p, 2 * K, equation, beta)
        for cutoff in (math.ceil(math.sqrt(2) * K), 5 * K):
            assert truncated_energy(p, cutoff, equation, beta) == energy
        assert truncated_energy(p, K, equation, beta) != energy

    def test_unknown_equation(self):
        with pytest.raises(UnsupportedParameterError):
            hamiltonian(PhaseState(COS, COS), equation="kdv")

    def test_beta_must_exceed_one(self):
        with pytest.raises(UnsupportedParameterError):
            hamiltonian(PhaseState(COS, COS), equation="nlkg_beta", beta=1.0)


class TestTruncatedEnergy:
    def test_matches_hamiltonian_inside_ball(self):
        assert truncated_energy(PhaseState(COS, COS), 1) == pytest.approx(
            hamiltonian(PhaseState(COS, COS)), abs=1e-14
        )

    def test_high_modes_enter_only_quadratically(self, rng):
        # truncated energy = H(low part) + quadratic norm of the high part
        p = random_state(rng, 5, scale=0.3)
        N = 2
        lo = PhaseState(project_ball(p.u, N), project_ball(p.v, N))
        outside = _sq_modulus(5) > N**2
        hi = PhaseState(SpectralField(5, p.u.coeffs * outside),
                        SpectralField(5, p.v.coeffs * outside))
        expect = hamiltonian(lo) + 0.5 * sobolev_norm(hi, 1.0) ** 2
        assert truncated_energy(p, N) == pytest.approx(expect, rel=1e-12)

    def test_conserved_along_truncated_flow(self):
        p = gaussian_state()
        e0 = truncated_energy(p, 4)
        q = evolve(p, 0.3, ModelSpec("nlkg", 4), IntegratorSpec(scheme="rk4", dt=1e-3))
        assert truncated_energy(q, 4) == pytest.approx(e0, rel=1e-10)


class TestQuarticCorrection:
    def test_constant_field_closed_form(self):
        # 3/2 (1 - sigma_1) with sigma_1 = 3
        assert quartic_correction(constant_field(1.0, 1), 2.0, 1) == pytest.approx(-3.0)

    def test_mean_zero_single_mode_vanishes(self):
        # smoothing weight <n>^2 = 2 on both modes of cos(x1):
        # 3/2 [(2)(1/2)(1/2)... ] with the cross terms cancelling sigma
        assert quartic_correction(COS, 2.0, 1) == pytest.approx(0.0, abs=1e-14)

    def test_field_outside_ball_gives_zero(self):
        c2 = field_from_modes(2, {(2, 0): 0.5})
        assert quartic_correction(c2, 2.0, 1) == 0.0

    def test_wave_variant_uses_riesz_weights(self):
        # |n|^(2s) weight and sigma-tilde counterterm
        got = quartic_correction(constant_field(1.0, 1), 2.0, 1, equation="nlw")
        assert got == pytest.approx(-1.5 * wave_counterterm(1, 2.0), abs=1e-14)

    def test_beta_variant_has_no_counterterm(self):
        got = quartic_correction(constant_field(1.0, 1), 2.0, 1, equation="nlkg_beta")
        assert got == pytest.approx(1.5, abs=1e-14)


class TestRenormalizedEnergy:
    def test_constant_state_closed_form(self):
        p = PhaseState(constant_field(1.0, 1), zero_field(1))
        # quadratic 1/2 + correction -3
        assert renormalized_energy(p, 2.0, 1) == pytest.approx(-2.5, abs=1e-14)

    def test_quadratic_part_weights(self, rng):
        # with the quartic term removed by hand the functional is the
        # weighted mass pair; check against direct lattice sums
        p = random_state(rng, 3, scale=0.2)
        s, N = 2.0, 3
        got = renormalized_energy(p, s, N) - quartic_correction(p.u, s, N)
        n = np.arange(-3, 4)
        br = 1.0 + n[:, None] ** 2 + n[None, :] ** 2
        expect = 0.5 * float(
            np.sum(br ** (s + 1) * np.abs(p.u.coeffs) ** 2)
            + np.sum(br**s * np.abs(p.v.coeffs) ** 2)
        )
        assert got == pytest.approx(expect, rel=1e-12)

    def test_wave_variant_includes_base_energy(self, rng):
        # |n|-weighted quadratic pair plus the plain truncated energy
        p = random_state(rng, 2, scale=0.2)
        s, N = 2.0, 2
        got = renormalized_energy(p, s, N, equation="nlw")
        sq = np.arange(-2, 3)[:, None] ** 2 + np.arange(-2, 3)[None, :] ** 2
        quad = 0.5 * float(
            np.sum(sq ** (s + 1) * np.abs(p.u.coeffs) ** 2)
            + np.sum(sq**s * np.abs(p.v.coeffs) ** 2)
        )
        expect = (
            quad
            + quartic_correction(p.u, s, N, equation="nlw")
            + truncated_energy(p, N, equation="nlkg")
        )
        assert got == pytest.approx(expect, rel=1e-12)

    def test_beta_variant_closed_form(self):
        p = PhaseState(constant_field(1.0, 1), zero_field(1))
        got = renormalized_energy(p, 2.0, 1, equation="nlkg_beta", beta=2.0)
        assert got == pytest.approx(0.5 + 1.5, abs=1e-14)


class TestWickMass:
    def test_single_cosine_closed_form(self):
        # sum <n>^(2s) |u_n|^2 = 2 * 4 * 1/4 = 2, sigma_1 = 3
        assert wick_renormalized_mass(COS, 2.0, 1) == pytest.approx(-1.0, abs=1e-14)

    def test_zero_field_gives_minus_counterterm(self):
        assert wick_renormalized_mass(zero_field(2), 2.0, 2) == pytest.approx(
            -counterterm(2), abs=1e-14
        )

    def test_centred_under_ensemble(self):
        # E wick = 0 by construction; 500 draws, se ~ 2 sqrt(sum <n>^-4)/sqrt(500)
        spec = EnsembleSpec(variant="mu_s", s=2.0, sample_max_mode=4,
                            truncation_N=4, master_seed=11)
        acc = sum(
            wick_renormalized_mass(sample(spec, i).u, 2.0, 4) for i in range(500)
        )
        assert abs(acc / 500) < 0.5


class TestRateTerms:
    def test_worked_single_mode_values(self):
        terms = energy_rate_terms(PhaseState(COS, COS), 2.0, 1)
        assert terms.highlow == pytest.approx(1.5, abs=1e-13)
        assert terms.mass == pytest.approx(-1.5, abs=1e-13)
        assert terms.leibniz == pytest.approx(3.0, abs=1e-13)
        assert terms.total == pytest.approx(3.0, abs=1e-13)

    def test_odd_order_rejected(self):
        p = PhaseState(COS, COS)
        with pytest.raises(UnsupportedParameterError, match="even"):
            energy_rate_terms(p, 3.0, 1)
        with pytest.raises(UnsupportedParameterError):
            energy_rate_terms(p, 2.5, 1)

    @pytest.mark.parametrize("equation,kw,s", [
        pytest.param(eq, kw, s, id=f"{eq}-kw{i}" + ("-s4" if s == 4 else ""))
        for s in (2.0, 4.0)
        for i, (eq, kw) in enumerate([("nlkg", {}), ("nlw", {}), ("nlkg_beta", {"beta": 2.0})])
    ])
    def test_matches_flow_derivative(self, equation, kw, s):
        # time derivative of the renormalized energy along the flow at
        # t = 0 via central differences, h = 1e-4.
        # The identity lives on the flow's phase space, fields supported in
        # the ball |n| <= N: corner modes would shear the plain mass term
        # of the nlw variant.
        variant = {"nlkg": "mu_s", "nlw": "mu_tilde_s", "nlkg_beta": "mu_s_beta"}
        raw = gaussian_state(variant=variant[equation], **kw)
        p = PhaseState(project_ball(raw.u, 4), project_ball(raw.v, 4))
        model = ModelSpec(equation, 4, **kw)
        integ = IntegratorSpec(scheme="rk4", dt=2e-5)
        h = 1e-4
        plus = renormalized_energy(evolve(p, h, model, integ), s, 4, equation, **kw)
        minus = renormalized_energy(evolve(p, -h, model, integ), s, 4, equation, **kw)
        fd = (plus - minus) / (2 * h)
        total = energy_rate_terms(p, s, 4, equation, **kw).total
        assert fd == pytest.approx(total, rel=1e-5)

    def test_rate_vanishes_in_ball_complement_direction(self):
        # a state supported outside the ball does not move the low modes
        hi = field_from_modes(3, {(3, 0): 0.2})
        terms = energy_rate_terms(PhaseState(hi, hi), 2.0, 1)
        assert terms.total == pytest.approx(0.0, abs=1e-14)


def _direct(f, g):
    return pointwise_product(f, g, method="direct")


ORACLE_CASES = [(K, equation) for K in (3, 8) for equation in ("nlkg", "nlw")]


class TestQuarticGridMeansAgainstDirectProducts:
    """Each quartic integral taken as a grid mean against the same integral
    built from direct coefficient convolutions and a lattice pairing."""

    @staticmethod
    def case(K, equation):
        p = gaussian_state(K=K, index=K)
        s = 2.0
        uN, vN = project_ball(p.u, K), project_ball(p.v, K)
        base = FAMILIES[equation].base
        su = apply_multiplier(uN, _power(base, s))
        sv = apply_multiplier(vN, _power(base, s))
        return p, s, uN, vN, su, sv

    @pytest.mark.parametrize("K", [3, 8])
    def test_quartic_integral(self, K):
        p, *_ = self.case(K, "nlkg")
        for cutoff in (K, 2 * K):  # the ball, and one holding the whole window
            f = project_ball(p.u, cutoff)
            sq = _direct(f, f)
            got = _one(p.u, None, None, cutoff, "nlkg").low_quartic[0]
            assert got == pytest.approx(inner_product(sq, sq), rel=1e-12)

    @pytest.mark.parametrize("K,equation", ORACLE_CASES)
    def test_quartic_correction_and_chaos_total(self, K, equation):
        p, s, uN, _, su, _ = self.case(K, equation)
        plain = _direct(uN, uN)
        quart = 1.5 * inner_product(_direct(su, su), plain)
        expect = quart - 1.5 * FAMILIES[equation].counterterm(K, s) * integrate(plain)
        assert quartic_correction(p.u, s, K, equation) == pytest.approx(expect, rel=1e-12)
        chaos = chaos_components(p.u, s, K, equation)
        assert chaos.total == pytest.approx(quart, rel=1e-12)

    @pytest.mark.parametrize("K,equation", ORACLE_CASES)
    def test_rate_highlow(self, K, equation):
        p, s, uN, vN, su, _ = self.case(K, equation)
        smooth_sq, cross = _direct(su, su), _direct(vN, uN)
        expect = 3.0 * (inner_product(smooth_sq, cross)
                        - integrate(smooth_sq) * integrate(cross))
        got = energy_rate_terms(p, s, K, equation).highlow
        assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("K,equation", ORACLE_CASES)
    @pytest.mark.parametrize("s", [2, 4])
    def test_leibniz_sum(self, K, equation, s):
        p, _, uN, vN, _, _ = self.case(K, equation)
        base = FAMILIES[equation].base
        sv = apply_multiplier(vN, _power(base, s))
        if s == 2:
            # (1 - Lap)(u^3) - 3 u^2 (1 - Lap) u = -2 u^3 - 6 u |grad u|^2;
            # (-Lap) drops the u^3 term.  Written out, not from the identity.
            d1, d2 = (apply_multiplier(uN, derivative(*o)) for o in ((1, 0), (0, 1)))
            uu = _direct(sv, uN)
            expect = 6.0 * (inner_product(uu, _direct(d1, d1))
                            + inner_product(uu, _direct(d2, d2)))
            if base == "bessel":
                expect += 2.0 * inner_product(uu, _direct(uN, uN))
        else:
            su = apply_multiplier(uN, _power(base, s))
            s2v = apply_multiplier(vN, _power(base, 2 * s))
            sq = _direct(uN, uN)
            expect = (3.0 * inner_product(_direct(sv, su), sq)
                      - inner_product(_direct(s2v, uN), sq))
        assert energy_rate_terms(p, s, K, equation).leibniz == pytest.approx(
            expect, rel=1e-12)

    @pytest.mark.parametrize("K", [3, 8])
    def test_wave_density_log_weight(self, K):
        p, s, uN, *_ = self.case(K, "nlw")
        sq = _direct(uN, uN)
        expect = -quartic_correction(p.u, s, K, "nlw") - 0.25 * inner_product(sq, sq)
        ens = EnsembleSpec("mu_tilde_s", s, K, K, 0)  # the nlw ensemble
        (weight,) = block_values(ens, p, [("density_weight", {"radius": math.inf})])
        assert math.log(weight) == pytest.approx(expect, rel=1e-12)


def brute_force_chaos(u, s: float, cutoff: int) -> ChaosComponents:
    """Classify every frequency quadruple of the smoothed quartic by hand.

    Pure-Python loop over n1, n2, n3 in the ball (n4 is forced by the
    momentum-zero constraint), weight <n1>^s <n2>^s, prefactor 3/2.
    """
    w = project_ball(u, cutoff)
    K = w.max_mode
    ball = [
        (a, b)
        for a in range(-K, K + 1)
        for b in range(-K, K + 1)
        if a * a + b * b <= cutoff**2
    ]
    coef = {m: w.coeffs[m[0] + K, m[1] + K] for m in ball}
    smooth = {m: (1.0 + m[0] ** 2 + m[1] ** 2) ** (s / 2.0) for m in ball}
    buckets = [0.0, 0.0, 0.0]
    for n1 in ball:
        for n2 in ball:
            for n3 in ball:
                n4 = (-(n1[0] + n2[0] + n3[0]), -(n1[1] + n2[1] + n3[1]))
                if n4 not in coef:
                    continue
                term = smooth[n1] * smooth[n2] * (
                    coef[n1] * coef[n2] * coef[n3] * coef[n4]
                )
                if n1[0] == -n2[0] and n1[1] == -n2[1]:
                    k = 0
                elif (n1[0] == -n3[0] and n1[1] == -n3[1]) or (
                    n1[0] == -n4[0] and n1[1] == -n4[1]
                ):
                    k = 1
                else:
                    k = 2
                buckets[k] += 1.5 * term.real
    sigma = counterterm(cutoff)
    mass = sum(abs(c) ** 2 for c in coef.values())
    return ChaosComponents(
        double_pair=buckets[0],
        single_pair=buckets[1],
        no_pair=buckets[2],
        double_pair_renorm=buckets[0] - 1.5 * sigma * mass,
    )


class TestChaosComponents:
    def test_constant_field_lands_in_double_pair(self):
        got = chaos_components(constant_field(2.0, 1), 2.0, 1)
        assert got.double_pair == pytest.approx(1.5 * 16.0)
        assert got.single_pair == pytest.approx(0.0, abs=1e-13)
        assert got.no_pair == pytest.approx(0.0, abs=1e-13)
        assert got.double_pair_renorm == pytest.approx(24.0 - 1.5 * 3.0 * 4.0)

    def test_zero_field(self):
        got = chaos_components(zero_field(2), 2.0, 2)
        assert (got.double_pair, got.single_pair, got.no_pair) == (0.0, 0.0, 0.0)

    def test_total_is_full_smoothed_quartic(self, rng):
        u = random_field(rng, 3)
        got = chaos_components(u, 2.0, 3)
        uN = project_ball(u, 3)
        from torusnlw.spectral import bessel_power, inner_product

        smooth_sq = pointwise_product(
            apply_multiplier(uN, bessel_power(2.0)), apply_multiplier(uN, bessel_power(2.0))
        )
        plain_sq = pointwise_product(uN, uN)
        assert got.total == pytest.approx(
            1.5 * inner_product(smooth_sq, plain_sq), rel=1e-12
        )

    def test_renorm_shift_is_counterterm_mass(self, rng):
        u = random_field(rng, 3)
        got = chaos_components(u, 2.0, 3)
        uN = project_ball(u, 3)
        mass = integrate(pointwise_product(uN, uN))
        assert got.double_pair - got.double_pair_renorm == pytest.approx(
            1.5 * counterterm(3) * mass, rel=1e-12
        )

    def test_components_sum_to_quartic_correction(self, rng):
        u = random_field(rng, 3)
        got = chaos_components(u, 2.0, 3)
        assert got.double_pair_renorm + got.single_pair + got.no_pair == pytest.approx(
            quartic_correction(u, 2.0, 3), rel=1e-12
        )

    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_each_bucket_matches_brute_force(self, rng, cutoff):
        u = random_field(rng, cutoff, scale=0.7)
        got = chaos_components(u, 2.0, cutoff)
        ref = brute_force_chaos(u, 2.0, cutoff)
        assert got.double_pair == pytest.approx(ref.double_pair, rel=1e-11)
        assert got.single_pair == pytest.approx(ref.single_pair, rel=1e-11, abs=1e-11)
        assert got.no_pair == pytest.approx(ref.no_pair, rel=1e-11, abs=1e-11)
        assert got.double_pair_renorm == pytest.approx(ref.double_pair_renorm, rel=1e-11)

    def test_wave_variant_brute_force_weights(self, rng):
        # same classification with |n|^s smoothing and sigma-tilde
        u = random_field(rng, 2, scale=0.7)
        got = chaos_components(u, 2.0, 2, equation="nlw")
        w = project_ball(u, 2)
        ball = [
            (a, b) for a in range(-2, 3) for b in range(-2, 3) if a * a + b * b <= 4
        ]
        coef = {m: w.coeffs[m[0] + 2, m[1] + 2] for m in ball}
        smooth = {m: float(m[0] ** 2 + m[1] ** 2) for m in ball}  # |n|^s, s = 2
        total = 0.0
        for n1 in ball:
            for n2 in ball:
                for n3 in ball:
                    n4 = (-(n1[0] + n2[0] + n3[0]), -(n1[1] + n2[1] + n3[1]))
                    if n4 in coef:
                        total += (
                            1.5
                            * smooth[n1]
                            * smooth[n2]
                            * (coef[n1] * coef[n2] * coef[n3] * coef[n4]).real
                        )
        assert got.total == pytest.approx(total, rel=1e-11)


class TestEnergyReport:
    def test_report_collects_everything(self):
        p = gaussian_state()
        rep = energy_report(p, 2.0, 4)
        assert rep.equation == "nlkg" and rep.s == 2.0 and rep.cutoff == 4
        assert rep.energy == pytest.approx(hamiltonian(p))
        assert rep.truncated == pytest.approx(truncated_energy(p, 4))
        assert rep.renormalized == pytest.approx(renormalized_energy(p, 2.0, 4))
        assert rep.quartic_corr == pytest.approx(quartic_correction(p.u, 2.0, 4))
        terms = energy_rate_terms(p, 2.0, 4)
        assert rep.rate_highlow == pytest.approx(terms.highlow)
        assert rep.rate_total == pytest.approx(terms.total)
        ch = chaos_components(p.u, 2.0, 4)
        assert rep.chaos_no_pair == pytest.approx(ch.no_pair)

    def test_rate_fields_none_when_order_unsupported(self):
        rep = energy_report(gaussian_state(), 2.5, 4)
        assert rep.rate_highlow is None
        assert rep.rate_mass is None
        assert rep.rate_leibniz is None
        assert rep.rate_total is None
        assert rep.renormalized is not None

    def test_to_dict_round_trips_through_json(self):
        import json

        rep = energy_report(gaussian_state(), 2.0, 4)
        blob = json.loads(json.dumps(rep.to_dict()))
        assert blob["equation"] == "nlkg"
        assert blob["truncated"] == pytest.approx(rep.truncated)

    def test_every_equation_produces_a_report(self):
        for equation in EQUATIONS:
            beta = 2.0 if equation == "nlkg_beta" else 0.0
            variant = {"nlkg": "mu_s", "nlw": "mu_tilde_s", "nlkg_beta": "mu_s_beta"}
            p = gaussian_state(variant=variant[equation], beta=beta)
            rep = energy_report(p, 2.0, 4, equation, beta=beta)
            assert math.isfinite(rep.renormalized)
            assert math.isfinite(rep.rate_total)
