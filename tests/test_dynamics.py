"""Flow integrators: closed-form oracles, convergence orders, conservation.

The constant-mode reduction of the cubic Klein-Gordon flow is an ODE
(c'' + c + c^3 = 0) integrated independently with scipy as the reference.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.integrate import solve_ivp

from conftest import (constant_field, cube_half, even_symbol, field_from_modes, random_state,
                      state_distance)
from torusnlw.dynamics import (
    IntegrationError,
    IntegratorSpec,
    ModelSpec,
    _dispersion,
    _half,
    _rhs,
    _rotate,
    _state,
    _steps,
    evolve,
    trajectory,
)
from torusnlw.sampling import EnsembleSpec, sample
from torusnlw.spectral import (
    PhaseState,
    SpectralField,
    _cube_buffers,
    _from_grid,
    _from_half,
    _hermitian_defect,
    _sq_modulus,
    grid_values,
    integrate,
    project_ball,
    zero_field,
)
from torusnlw.energy import truncated_energy

NLKG4 = ModelSpec(equation="nlkg", truncation_N=4)


def gaussian_state(index=1, K=4, seed=3, variant="mu_s", beta=0.0) -> PhaseState:
    spec = EnsembleSpec(variant=variant, s=2.0, sample_max_mode=K,
                        truncation_N=K, master_seed=seed, beta=beta)
    return sample(spec, index)


def linear_flow(p: PhaseState, t: float, model: ModelSpec) -> PhaseState:
    """The exact linear flow for time t, as the steps rotate half blocks."""
    return _state(*_rotate(_half(p.u), _half(p.v), t, model))


def _buffers(p: PhaseState, model: ModelSpec) -> tuple:
    return _cube_buffers(model.truncation_N, p.max_mode)


def vector_field(p: PhaseState, model: ModelSpec) -> PhaseState:
    """(v, L u - Pi_N((Pi_N u)^3)), as RK4 evaluates it on half blocks."""
    return _state(*_rhs(_half(p.u), _half(p.v), model, _buffers(p, model)))


class TestSpecValidation:
    def test_equation_checked(self):
        with pytest.raises(ValueError, match="equation"):
            ModelSpec(equation="heat", truncation_N=4)

    def test_beta_required_above_one(self):
        with pytest.raises(ValueError, match="beta"):
            ModelSpec(equation="nlkg_beta", truncation_N=4, beta=0.5)

    @pytest.mark.parametrize("cutoff", [2.5, True, -1])
    def test_cutoff_is_a_count(self, cutoff):
        with pytest.raises(ValueError,
                           match=f"truncation_N: must be an integer >= 0, got {cutoff}"):
            ModelSpec(equation="nlkg", truncation_N=cutoff)

    def test_scheme_checked(self):
        with pytest.raises(ValueError, match="scheme"):
            IntegratorSpec(scheme="euler")

    def test_dt_positive(self):
        with pytest.raises(ValueError, match="dt"):
            IntegratorSpec(dt=0.0)

    def test_window_must_cover_truncation(self):
        p = gaussian_state(K=2)
        with pytest.raises(ValueError, match="window"):
            evolve(p, 0.1, ModelSpec(equation="nlkg", truncation_N=3),
                   IntegratorSpec())


class TestVectorField:
    def test_closed_form_single_cosine(self):
        # u = v = cos(x1), N = 1: du/dt = v and
        # dv/dt = (Lap - 1)u - Pi_1(cos^3 x1) = -2 cos - (3/4) cos
        c = field_from_modes(1, {(1, 0): 0.5})
        rhs = vector_field(PhaseState(c, c), ModelSpec("nlkg", 1))
        np.testing.assert_allclose(rhs.u.coeffs, c.coeffs, atol=0)
        np.testing.assert_allclose(rhs.v.coeffs, -2.75 * c.coeffs, atol=1e-14)

    def test_nlw_drops_mass_term(self):
        c = field_from_modes(1, {(1, 0): 0.5})
        rhs = vector_field(PhaseState(c, c), ModelSpec("nlw", 1))
        np.testing.assert_allclose(rhs.v.coeffs, -1.75 * c.coeffs, atol=1e-14)

    def test_beta_dispersion(self):
        # nlkg_beta, beta = 2: L = -(1 - Lap)^2, symbol -4 at |n| = 1
        c = field_from_modes(1, {(1, 0): 0.5})
        zero_u = PhaseState(c, zero_field(1))
        rhs = vector_field(zero_u, ModelSpec("nlkg_beta", 1, beta=2.0))
        np.testing.assert_allclose(
            rhs.v.coeffs, (-4.0 - 0.75) * c.coeffs, atol=1e-14
        )

    def test_cube_is_truncated_before_and_after(self):
        # with N = 1 the (3, 0) mode of cos^3 never appears, even on a
        # window wide enough to hold it
        c = field_from_modes(4, {(1, 0): 0.5})
        rhs = vector_field(PhaseState(c, zero_field(4)), ModelSpec("nlkg", 1))
        assert rhs.v.coeffs[4 + 3, 4] == 0.0


class TestLinearFlow:
    def test_mode_rotation_closed_form(self):
        # mode (1, 0) of nlkg rotates at frequency sqrt(2)
        u0 = field_from_modes(1, {(1, 0): 0.5})
        p = linear_flow(PhaseState(u0, zero_field(1)), 0.7, ModelSpec("nlkg", 1))
        w = math.sqrt(2.0)
        assert p.u.coeffs[2, 1] == pytest.approx(0.5 * math.cos(0.7 * w), abs=1e-15)
        assert p.v.coeffs[2, 1] == pytest.approx(-0.5 * w * math.sin(0.7 * w), abs=1e-15)

    def test_velocity_seeds_sine_response(self):
        v0 = field_from_modes(1, {(1, 0): 0.5})
        p = linear_flow(PhaseState(zero_field(1), v0), 0.7, ModelSpec("nlkg", 1))
        w = math.sqrt(2.0)
        assert p.u.coeffs[2, 1] == pytest.approx(0.5 * math.sin(0.7 * w) / w, abs=1e-15)

    def test_nlw_zero_mode_shears(self):
        p0 = PhaseState(constant_field(2.0), constant_field(-1.0))
        p = linear_flow(p0, 3.0, ModelSpec("nlw", 0))
        assert integrate(p.u) == pytest.approx(2.0 - 3.0, abs=1e-15)
        assert integrate(p.v) == pytest.approx(-1.0, abs=1e-15)

    def test_group_property(self, rng):
        p = random_state(rng, 3)
        one = linear_flow(p, 0.9, NLKG4)
        two = linear_flow(linear_flow(p, 0.4, NLKG4), 0.5, NLKG4)
        assert state_distance(one, two) < 1e-13

    def test_inverse(self, rng):
        p = random_state(rng, 3)
        back = linear_flow(linear_flow(p, 1.3, NLKG4), -1.3, NLKG4)
        assert state_distance(back, p) < 1e-13


def duffing_reference(c0: float, cdot0: float, t: float) -> tuple:
    """Constant-mode oracle: c'' + c + c^3 = 0 via a scipy integrator."""
    sol = solve_ivp(
        lambda _, y: [y[1], -y[0] - y[0] ** 3],
        (0.0, t),
        [c0, cdot0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
    )
    return sol.y[0][-1], sol.y[1][-1]


class TestAgainstDuffingOracle:
    @pytest.mark.parametrize("scheme,dt,tol", [
        ("strang_splitting", 5e-4, 2e-6),
        ("rk4", 1e-3, 1e-9),
    ])
    def test_constant_mode_reduction(self, scheme, dt, tol):
        p0 = PhaseState(constant_field(0.8, 1), constant_field(0.3, 1))
        model = ModelSpec("nlkg", 1)
        got = evolve(p0, 2.0, model, IntegratorSpec(scheme=scheme, dt=dt))
        c_ref, cdot_ref = duffing_reference(0.8, 0.3, 2.0)
        assert integrate(got.u) == pytest.approx(c_ref, abs=tol)
        assert integrate(got.v) == pytest.approx(cdot_ref, abs=tol)


class TestConvergenceOrders:
    @classmethod
    def setup_class(cls):
        cls.p = gaussian_state()
        cls.ref = evolve(cls.p, 0.4, NLKG4, IntegratorSpec(scheme="rk4", dt=2e-4))

    def endpoint_error(self, scheme, dt):
        got = evolve(self.p, 0.4, NLKG4, IntegratorSpec(scheme=scheme, dt=dt))
        return state_distance(got, self.ref)

    def test_strang_is_second_order(self):
        ratio = self.endpoint_error("strang_splitting", 2e-3) / self.endpoint_error(
            "strang_splitting", 1e-3
        )
        assert ratio == pytest.approx(4.0, rel=0.15)

    def test_rk4_is_fourth_order(self):
        ratio = self.endpoint_error("rk4", 2e-2) / self.endpoint_error("rk4", 1e-2)
        assert ratio == pytest.approx(16.0, rel=0.25)


class TestConservationAndReversibility:
    @pytest.mark.parametrize("equation,variant,beta", [
        ("nlkg", "mu_s", 0.0), ("nlw", "mu_tilde_s", 0.0), ("nlkg_beta", "mu_s_beta", 2.0)])
    def test_strang_energy_drift_small_step(self, equation, variant, beta):
        # symplectic scheme: relative drift of the truncated energy stays
        # below 1e-8 once dt = 1e-4 (measured on these states: 6.5e-10 nlkg,
        # 1.6e-9 nlw, 6.0e-10 nlkg_beta)
        p = gaussian_state(variant=variant, beta=beta)
        e0 = truncated_energy(p, 4, equation, beta)
        q = evolve(p, 0.2, ModelSpec(equation, 4, beta), IntegratorSpec(dt=1e-4))
        assert abs(truncated_energy(q, 4, equation, beta) - e0) / abs(e0) < 1e-8

    def test_strang_drift_scales_quadratically(self):
        p = gaussian_state()
        e0 = truncated_energy(p, 4)

        def drift(dt):
            q = evolve(p, 0.2, NLKG4, IntegratorSpec(dt=dt))
            return abs(truncated_energy(q, 4) - e0) / abs(e0)

        assert drift(2e-3) / drift(1e-3) == pytest.approx(4.0, rel=0.2)

    def test_strang_reverses_to_machine_precision(self):
        p = gaussian_state()
        there = evolve(p, 0.5, NLKG4, IntegratorSpec(dt=1e-2))
        back = evolve(there, -0.5, NLKG4, IntegratorSpec(dt=1e-2))
        assert state_distance(back, p) < 1e-12

    def test_rk4_reverses_to_scheme_accuracy(self):
        p = gaussian_state()
        there = evolve(p, 0.5, NLKG4, IntegratorSpec(scheme="rk4", dt=1e-2))
        back = evolve(there, -0.5, NLKG4, IntegratorSpec(scheme="rk4", dt=1e-2))
        assert state_distance(back, p) < 1e-7


class TestTrajectory:
    def test_stride_and_endpoint(self):
        p = gaussian_state()
        ts = [t for t, _ in trajectory(p, 1.0, NLKG4, IntegratorSpec(dt=0.1), stride=3)]
        np.testing.assert_allclose(ts, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)

    def test_remainder_step_hits_final_time(self):
        p = gaussian_state()
        ts = [t for t, _ in trajectory(p, 0.25, NLKG4, IntegratorSpec(dt=0.1))]
        np.testing.assert_allclose(ts, [0.0, 0.1, 0.2, 0.25], atol=1e-12)

    def test_zero_time_yields_initial_state(self):
        p = gaussian_state()
        pts = list(trajectory(p, 0.0, NLKG4, IntegratorSpec(dt=0.1)))
        assert len(pts) == 1 and pts[0][0] == 0.0
        assert state_distance(pts[0][1], p) == 0.0

    def test_trajectory_endpoint_matches_evolve(self):
        p = gaussian_state()
        integ = IntegratorSpec(dt=0.05)
        *_, (t_last, last) = trajectory(p, 0.42, NLKG4, integ, stride=4)
        assert t_last == 0.42
        assert state_distance(last, evolve(p, 0.42, NLKG4, integ)) == 0.0

    def test_stride_validation(self):
        with pytest.raises(ValueError, match="stride"):
            list(trajectory(gaussian_state(), 1.0, NLKG4, IntegratorSpec(), stride=0))

    def test_last_full_step_yields_final_time_exactly(self):
        # 3 * 0.1 is 0.30000000000000004 in floating point; the endpoint
        # must still be reported as t_final, in both directions
        p = gaussian_state()
        integ = IntegratorSpec("strang_splitting", 0.1)
        ts = [t for t, _ in trajectory(p, 0.3, NLKG4, integ, stride=2)]
        assert ts == [0.0, 0.2, 0.3]
        ts = [t for t, _ in trajectory(p, -0.3, NLKG4, integ, stride=2)]
        assert ts == [0.0, -0.2, -0.3]

    def test_overflowing_step_count_is_a_value_error(self):
        # 1e300 / 1e-10 is inf: the step count names t_final and dt
        with pytest.raises(ValueError, match=r"t_final = 1e\+300, dt = 1e-10"):
            next(trajectory(gaussian_state(), 1e300, NLKG4, IntegratorSpec(dt=1e-10)))

    def test_negative_time_runs_backwards(self):
        p = gaussian_state()
        ts = [t for t, _ in trajectory(p, -0.2, NLKG4, IntegratorSpec(dt=0.1))]
        np.testing.assert_allclose(ts, [0.0, -0.1, -0.2], atol=1e-12)


class TestBlowUp:
    def test_huge_amplitude_raises_integration_error(self):
        p = gaussian_state()
        big = PhaseState(
            SpectralField(p.u.max_mode, np.asarray(p.u.coeffs) * 1e8), p.v
        )
        with pytest.raises(IntegrationError, match="non-finite"):
            evolve(big, 1.0, NLKG4, IntegratorSpec(dt=1e-2))


# -- the full-block flow, as it was before the half-block stepping ----------
# The flow now advances the n2 >= 0 half blocks of u and v.  These copies of
# the full-block steps pin it: on exactly Hermitian states every state it
# yields must equal theirs bit for bit (np.array_equal, so up to the sign
# of zeros).


def full_block_cube(u: np.ndarray, cutoff: int) -> np.ndarray:
    """The truncated cube on the full block: project_ball, the cube on the
    grid, rfft2 back through _from_grid, then the ball mask."""
    w = project_ball(SpectralField(u.shape[0] // 2, u), cutoff)
    Kw = w.max_mode
    K_out = min(cutoff, 3 * Kw)
    grid = next_fast_len(max(4 * cutoff + 2, 3 * Kw + K_out + 2), real=True)
    vals = grid_values(w, grid)
    return _from_grid(vals * vals * vals, K_out) * (_sq_modulus(K_out) <= cutoff**2)


def full_block_kick_term(u: np.ndarray, cutoff: int) -> np.ndarray:
    c = full_block_cube(u, cutoff)
    return np.pad(c, (u.shape[0] - c.shape[0]) // 2)


def full_block_rotation(model: ModelSpec, K: int, t: float) -> tuple:
    w = even_symbol(_dispersion(model.equation, model.beta, K))
    tw = t * w
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(w > 0, np.sin(tw) / np.where(w > 0, w, 1.0), t)
    return np.cos(tw), sinc, -w * np.sin(tw)


def full_block_rotate(u, v, t, model) -> tuple:
    cos, sinc, msin = full_block_rotation(model, u.shape[0] // 2, float(t))
    return cos * u + sinc * v, msin * u + cos * v


def full_block_rhs(u, v, model) -> tuple:
    symbol = -even_symbol(_dispersion(model.equation, model.beta, u.shape[0] // 2)) ** 2
    return v, symbol * u - full_block_kick_term(u, model.truncation_N)


def full_block_strang(u, v, dt, model) -> tuple:
    u, v = full_block_rotate(u, v, 0.5 * dt, model)
    v = v - dt * full_block_kick_term(u, model.truncation_N)
    return full_block_rotate(u, v, 0.5 * dt, model)


def full_block_rk4(u, v, dt, model) -> tuple:
    k1 = full_block_rhs(u, v, model)
    k2 = full_block_rhs(u + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1], model)
    k3 = full_block_rhs(u + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1], model)
    k4 = full_block_rhs(u + dt * k3[0], v + dt * k3[1], model)
    du = (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    dv = (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return u + du, v + dv


def full_block_flow(p: PhaseState, t_final: float, model: ModelSpec,
                    integ: IntegratorSpec) -> list:
    """(u, v) blocks at t = 0 and after every step."""
    step = full_block_strang if integ.scheme == "strang_splitting" else full_block_rk4
    sign, n_full, remainder = _steps(t_final, integ.dt)
    states = [(p.u.coeffs, p.v.coeffs)]
    for dt in [sign * integ.dt] * n_full + ([sign * remainder] if remainder else []):
        states.append(step(*states[-1], dt, model))
    return states


FLOW_CASES = [  # equation, beta, N, window, t_final, dt
    ("nlkg", 0.0, 4, 4, 0.05, 0.01),
    ("nlw", 0.0, 4, 4, 0.05, 0.01),
    ("nlkg_beta", 2.0, 4, 4, 0.05, 0.01),
    ("nlkg", 0.0, 4, 6, 0.05, 0.01),          # window wider than the cutoff
    ("nlw", 0.0, 4, 6, -0.035, 0.01),          # backwards, with a remainder step
    ("nlkg_beta", 3.0, 2, 6, 0.027, 0.01),     # remainder step, cube window 2 < 6
]


class TestHalfBlockFlowMatchesFullBlock:
    @pytest.mark.parametrize("scheme", ["strang_splitting", "rk4"])
    @pytest.mark.parametrize("equation, beta, N, K, t_final, dt", FLOW_CASES)
    def test_every_yielded_state_is_bitwise_the_full_block_one(
            self, scheme, equation, beta, N, K, t_final, dt):
        p = gaussian_state(index=2, K=K)
        model, integ = ModelSpec(equation, N, beta), IntegratorSpec(scheme, dt)
        expected = full_block_flow(p, t_final, model, integ)
        got = list(trajectory(p, t_final, model, integ))
        assert len(got) == len(expected)
        for (_, state), (u, v) in zip(got, expected):
            assert np.array_equal(state.u.coeffs, u)
            assert np.array_equal(state.v.coeffs, v)
        end = evolve(p, t_final, model, integ)
        assert np.array_equal(end.u.coeffs, expected[-1][0])
        assert np.array_equal(end.v.coeffs, expected[-1][1])

    @pytest.mark.parametrize("equation, beta, N, K, t_final, dt", FLOW_CASES)
    def test_half_block_routines_match_the_full_block_formulas(
            self, rng, equation, beta, N, K, t_final, dt):
        p = random_state(rng, K)
        model = ModelSpec(equation, N, beta)
        moved = linear_flow(p, t_final, model)
        u, v = full_block_rotate(p.u.coeffs, p.v.coeffs, t_final, model)
        assert np.array_equal(moved.u.coeffs, u) and np.array_equal(moved.v.coeffs, v)
        du, dv = _rhs(_half(p.u), _half(p.v), model, _buffers(p, model))
        assert np.array_equal(du, _half(p.v))
        assert np.array_equal(_from_half(dv),
                              full_block_rhs(p.u.coeffs, p.v.coeffs, model)[1])
        for cutoff in (0, 1, N, K, 2 * K + 3):
            # the cube on its own window, which exceeds K when cutoff > K
            window = min(cutoff, 3 * min(K, cutoff))
            assert np.array_equal(_from_half(cube_half(_half(p.u), cutoff, window)),
                                  full_block_cube(p.u.coeffs, cutoff))

    def test_first_state_is_the_start_state(self):
        p = gaussian_state()
        (_, first), *_ = trajectory(p, 0.02, NLKG4, IntegratorSpec(dt=0.01))
        assert first is p
        assert evolve(p, 0.0, NLKG4, IntegratorSpec(dt=0.01)) is p

    def test_states_within_the_hermitian_tolerance_come_out_exact(self):
        p = gaussian_state()
        u = np.array(p.u.coeffs)
        u[4 + 1, 4 - 2] += 1e-14  # the mirror of (-1, 2), on the n2 < 0 side
        q = PhaseState(SpectralField(4, u), p.v)
        assert _hermitian_defect(q.u.coeffs) > 0
        end = evolve(q, 0.01, NLKG4, IntegratorSpec(dt=0.01))
        assert _hermitian_defect(end.u.coeffs) == 0.0
        assert _hermitian_defect(end.v.coeffs) == 0.0


# one fresh interpreter runs the flow through the library: 1000 Strang steps
# and 8 RK4 steps at window 32, each trajectory after its first step
_FLOW_FAULTS = """
import resource
from torusnlw.dynamics import IntegratorSpec, ModelSpec, trajectory
from torusnlw.sampling import EnsembleSpec, sample
p = sample(EnsembleSpec("mu_s", 2.0, 32, 32, 7), 0)
faults = steps = 0
for scheme, n in (("strang_splitting", 1000), ("rk4", 8)):
    run = trajectory(p, (n + 1) * 1e-3, ModelSpec("nlkg", 32), IntegratorSpec(scheme, 1e-3))
    next(run), next(run)  # the start and one warm-up step
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    steps += sum(1 for _ in run)
    faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults, steps)
"""


class TestCubeBuffers:
    def test_steps_take_no_page_faults(self):
        # a fresh interpreter, so no allocator state comes from other tests
        import torusnlw
        src = str(Path(torusnlw.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", _FLOW_FAULTS], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        faults, steps = map(int, out.stdout.split())
        assert steps >= 1008
        assert faults < 0.5 * steps

    def test_trajectories_stepped_in_turn_share_no_buffers(self):
        runs = [(gaussian_state(index=2, K=6), 0.1, ModelSpec("nlw", 4),
                 IntegratorSpec("strang_splitting", 0.01)),
                (gaussian_state(index=3, K=5, beta=2.0), -0.1,
                 ModelSpec("nlkg_beta", 5, 2.0), IntegratorSpec("rk4", 0.01)),
                (gaussian_state(index=4, K=4), 0.05, NLKG4, IntegratorSpec("rk4", 0.005))]
        alone = [list(trajectory(*run)) for run in runs]
        in_turn = list(zip(*(trajectory(*run) for run in runs)))
        assert [len(in_turn)] * len(runs) == list(map(len, alone)) == [11] * len(runs)
        for k, states in enumerate(in_turn):
            for (t, state), (t_alone, state_alone) in zip(states, (a[k] for a in alone)):
                assert t == t_alone
                assert state.u.coeffs.tobytes() == state_alone.u.coeffs.tobytes()
                assert state.v.coeffs.tobytes() == state_alone.v.coeffs.tobytes()
