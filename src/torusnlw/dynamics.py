"""Truncated Hamiltonian flows for the cubic wave family on the torus.

Three equations share the structure du/dt = v, dv/dt = L u - Pi_N((Pi_N u)^3):

    nlkg       L = Laplacian - 1      (dispersion <n>)
    nlw        L = Laplacian          (dispersion |n|; zero mode shears)
    nlkg_beta  L = -(1 - Laplacian)^beta   (dispersion <n>^beta)

The linear part is advanced exactly mode by mode; the cubic term is always
the alias-free truncated cube.  strang_splitting alternates exact linear
half-steps with momentum kicks v -> v - dt * Pi_N((Pi_N u)^3) and is
symplectic; rk4 is the classical fourth-order scheme on the full vector
field.  Both accept negative integration times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .spectral import (
    PhaseState,
    SpectralField,
    _frozen,
    _sq_bracket,
    _sq_modulus,
    embed_window,
    sobolev_norm,
    truncated_cube,
)

EQUATIONS = ("nlkg", "nlw", "nlkg_beta")
SCHEMES = ("strang_splitting", "rk4")


class IntegrationError(RuntimeError):
    """The flow produced a non-finite value (numerical blow-up)."""


@dataclass(frozen=True)
class ModelSpec:
    equation: str
    truncation_N: int
    beta: float = 0.0

    def __post_init__(self) -> None:
        if self.equation not in EQUATIONS:
            raise ValueError(f"equation must be one of {EQUATIONS}, got {self.equation!r}")
        if self.truncation_N < 0:
            raise ValueError("truncation_N must be >= 0")
        if self.equation == "nlkg_beta" and not self.beta > 1:
            raise ValueError(f"nlkg_beta needs beta > 1, got {self.beta}")


@dataclass(frozen=True)
class IntegratorSpec:
    scheme: str = "strang_splitting"
    dt: float = 1e-3

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be a positive finite step, got {self.dt}")


@lru_cache(maxsize=128)
def _dispersion(equation: str, beta: float, max_mode: int) -> np.ndarray:
    if equation == "nlkg":
        w = np.sqrt(_sq_bracket(max_mode))
    elif equation == "nlw":
        w = np.sqrt(_sq_modulus(max_mode))
    else:
        w = _sq_bracket(max_mode) ** (beta / 2.0)
    return _frozen(w)


@lru_cache(maxsize=256)
def _rotation(equation: str, beta: float, max_mode: int, t: float):
    """cos(t w), sin(t w)/w, -w sin(t w) on the block; the w = 0 entry of
    the middle factor is its limit t (the nlw zero mode shears linearly)."""
    w = _dispersion(equation, beta, max_mode)
    tw = t * w
    cos = np.cos(tw)
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(w > 0, np.sin(tw) / np.where(w > 0, w, 1.0), t)
    return _frozen(cos), _frozen(sinc), _frozen(-w * np.sin(tw))


def linear_propagator(p: PhaseState, t: float, model: ModelSpec) -> PhaseState:
    """Exact flow of the linearized equation for time t (any sign)."""
    cos, sinc, msin = _rotation(model.equation, model.beta, p.max_mode, float(t))
    u, v = p.u.coeffs, p.v.coeffs
    return PhaseState(
        SpectralField(p.max_mode, cos * u + sinc * v, _trusted=True),
        SpectralField(p.max_mode, msin * u + cos * v, _trusted=True),
    )


@lru_cache(maxsize=128)
def _linear_symbol(equation: str, beta: float, max_mode: int) -> np.ndarray:
    # symbol of L: the negated squared dispersion
    return _frozen(-_dispersion(equation, beta, max_mode) ** 2)


def _check_window(p: PhaseState, model: ModelSpec) -> None:
    if p.max_mode < model.truncation_N:
        raise ValueError(
            f"state window {p.max_mode} is smaller than truncation_N "
            f"{model.truncation_N}; the truncated flow would lose modes"
        )


def vector_field(p: PhaseState, model: ModelSpec) -> PhaseState:
    """Right-hand side (v, L u - Pi_N((Pi_N u)^3)) on the state's window."""
    _check_window(p, model)
    K = p.max_mode
    cube = embed_window(truncated_cube(p.u, model.truncation_N), K)
    dv = _linear_symbol(model.equation, model.beta, K) * p.u.coeffs - cube.coeffs
    return PhaseState(p.v, SpectralField(K, dv, _trusted=True))


def _kick(p: PhaseState, dt: float, model: ModelSpec) -> PhaseState:
    cube = embed_window(truncated_cube(p.u, model.truncation_N), p.max_mode)
    v = SpectralField(p.max_mode, p.v.coeffs - dt * cube.coeffs, _trusted=True)
    return PhaseState(p.u, v)


def _strang_step(p: PhaseState, dt: float, model: ModelSpec) -> PhaseState:
    p = linear_propagator(p, 0.5 * dt, model)
    p = _kick(p, dt, model)
    return linear_propagator(p, 0.5 * dt, model)


def _rk4_step(p: PhaseState, dt: float, model: ModelSpec) -> PhaseState:
    def axpy(a: float, q: PhaseState) -> PhaseState:
        return PhaseState(
            SpectralField(p.max_mode, p.u.coeffs + a * q.u.coeffs, _trusted=True),
            SpectralField(p.max_mode, p.v.coeffs + a * q.v.coeffs, _trusted=True),
        )

    k1 = vector_field(p, model)
    k2 = vector_field(axpy(0.5 * dt, k1), model)
    k3 = vector_field(axpy(0.5 * dt, k2), model)
    k4 = vector_field(axpy(dt, k3), model)
    du = (dt / 6.0) * (k1.u.coeffs + 2 * k2.u.coeffs + 2 * k3.u.coeffs + k4.u.coeffs)
    dv = (dt / 6.0) * (k1.v.coeffs + 2 * k2.v.coeffs + 2 * k3.v.coeffs + k4.v.coeffs)
    return PhaseState(
        SpectralField(p.max_mode, p.u.coeffs + du, _trusted=True),
        SpectralField(p.max_mode, p.v.coeffs + dv, _trusted=True),
    )


def _advance(p: PhaseState, dt: float, model: ModelSpec, scheme: str) -> PhaseState:
    if scheme == "strang_splitting":
        return _strang_step(p, dt, model)
    return _rk4_step(p, dt, model)


def _steps(t_final: float, dt: float):
    """Split |t_final| into full steps of dt plus one short remainder."""
    sign = 1.0 if t_final >= 0 else -1.0
    total = abs(t_final)
    n_full = int(math.floor(total / dt + 1e-9))
    remainder = total - n_full * dt
    if remainder < 1e-12 * max(total, dt):
        remainder = 0.0
    return sign, n_full, remainder


def evolve(p: PhaseState, t_final: float, model: ModelSpec,
           integ: IntegratorSpec) -> PhaseState:
    """Flow the state for time t_final (negative runs backwards)."""
    for _, state in _trajectory(p, t_final, model, integ):
        pass
    return state


def trajectory(p: PhaseState, t_final: float, model: ModelSpec,
               integ: IntegratorSpec, stride: int = 1) -> Iterator[tuple]:
    """Yield (t, state) at t = 0, after every `stride` steps and at t_final."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    for k, (t, state) in enumerate(_trajectory(p, t_final, model, integ)):
        if k % stride == 0 or t == t_final:
            yield t, state


def _trajectory(p: PhaseState, t_final: float, model: ModelSpec,
                integ: IntegratorSpec) -> Iterator[tuple]:
    _check_window(p, model)
    sign, n_full, remainder = _steps(t_final, integ.dt)
    state, t = p, 0.0
    yield t, state
    for k in range(n_full):
        state = _checked_advance(state, sign * integ.dt, model, integ,
                                 f"after step {k + 1} (t = {t + sign * integ.dt:g})")
        t = sign * (k + 1) * integ.dt
        if k + 1 == n_full and remainder == 0.0:
            t = t_final  # not (k + 1) * dt, which can be a rounding error off it
        yield t, state
    if remainder > 0.0:
        state = _checked_advance(state, sign * remainder, model, integ,
                                 f"in the remainder step (t = {t_final:g})")
        yield t_final, state


def _checked_advance(state: PhaseState, dt: float, model: ModelSpec,
                     integ: IntegratorSpec, where: str) -> PhaseState:
    # blow-up shows as inf/nan and is reported as IntegrationError, so the
    # intermediate overflow warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        state = _advance(state, dt, model, integ.scheme)
    if not np.isfinite(state.v.coeffs).all():
        raise IntegrationError(f"non-finite values {where}")
    return state


def truncation_error(p: PhaseState, t: float, N_small: int, N_large: int,
                     model: ModelSpec, integ: IntegratorSpec,
                     sigma: float = 1.0) -> float:
    """Sobolev distance at time t between the N_small and N_large flows
    started from the same state."""
    if N_small > N_large:
        raise ValueError("N_small must not exceed N_large")
    small = evolve(p, t, ModelSpec(model.equation, N_small, model.beta), integ)
    large = evolve(p, t, ModelSpec(model.equation, N_large, model.beta), integ)
    diff = PhaseState(small.u - large.u, small.v - large.v)
    return sobolev_norm(diff, sigma)
