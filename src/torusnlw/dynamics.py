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

Both schemes step the n2 >= 0 half blocks of u and v, shape (2K + 1, K + 1).
Every operation of a step maps Hermitian blocks to Hermitian blocks, so the
halves are the state; a PhaseState is built from them (by conjugate mirror)
only where trajectory yields one or evolve returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator

import numpy as np

from .spectral import (
    PhaseState,
    SpectralField,
    _cube_half,
    _from_half,
    _frozen,
    _sq_bracket,
    _sq_modulus,
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


def _half_symbol(symbol: np.ndarray) -> np.ndarray:
    """The n2 >= 0 half of a real symbol, cast to complex128 once (a
    product with a complex block casts it so anyway)."""
    K = symbol.shape[1] // 2
    return _frozen(symbol[:, K:].astype(np.complex128))


@lru_cache(maxsize=256)
def _rotation(equation: str, beta: float, max_mode: int, t: float):
    """cos(t w), sin(t w)/w, -w sin(t w) on the n2 >= 0 half block; the
    w = 0 entry of the middle factor is its limit t (the nlw zero mode
    shears linearly)."""
    w = _dispersion(equation, beta, max_mode)
    tw = t * w
    cos = np.cos(tw)
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(w > 0, np.sin(tw) / np.where(w > 0, w, 1.0), t)
    return _half_symbol(cos), _half_symbol(sinc), _half_symbol(-w * np.sin(tw))


@lru_cache(maxsize=128)
def _linear_symbol(equation: str, beta: float, max_mode: int) -> np.ndarray:
    # symbol of L on the half block: the negated squared dispersion
    return _half_symbol(-_dispersion(equation, beta, max_mode) ** 2)


# -- the flow on half blocks (see the module docstring) ------------------------


def _half(f: SpectralField) -> np.ndarray:
    return f.coeffs[:, f.max_mode:]


def _field(half: np.ndarray) -> SpectralField:
    return SpectralField(half.shape[1] - 1, _from_half(half), _trusted=True)


def _state(u: np.ndarray, v: np.ndarray) -> PhaseState:
    return PhaseState(_field(u), _field(v))


def _rotate(u: np.ndarray, v: np.ndarray, t: float, model: ModelSpec) -> tuple:
    cos, sinc, msin = _rotation(model.equation, model.beta, u.shape[1] - 1, float(t))
    return cos * u + sinc * v, msin * u + cos * v


def _cube(u: np.ndarray, model: ModelSpec) -> np.ndarray:
    """Pi_N((Pi_N u)^3) on u's half block: the kick and the vector field's
    cubic term."""
    return _cube_half(u, model.truncation_N, u.shape[1] - 1)


def _rhs(u: np.ndarray, v: np.ndarray, model: ModelSpec) -> tuple:
    """(v, L u - Pi_N((Pi_N u)^3))."""
    return v, _linear_symbol(model.equation, model.beta, u.shape[1] - 1) * u - _cube(u, model)


def _strang_step(u: np.ndarray, v: np.ndarray, dt: float, model: ModelSpec) -> tuple:
    u, v = _rotate(u, v, 0.5 * dt, model)
    v = v - dt * _cube(u, model)
    return _rotate(u, v, 0.5 * dt, model)


def _rk4_step(u: np.ndarray, v: np.ndarray, dt: float, model: ModelSpec) -> tuple:
    def rhs_at(a: float, k: tuple) -> tuple:
        return _rhs(u + a * k[0], v + a * k[1], model)

    k1 = _rhs(u, v, model)
    k2 = rhs_at(0.5 * dt, k1)
    k3 = rhs_at(0.5 * dt, k2)
    k4 = rhs_at(dt, k3)
    du = (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    dv = (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return u + du, v + dv


_SCHEME_STEPS = {"strang_splitting": _strang_step, "rk4": _rk4_step}


def _check_window(p: PhaseState, model: ModelSpec) -> None:
    if p.max_mode < model.truncation_N:
        raise ValueError(
            f"state window {p.max_mode} is smaller than truncation_N "
            f"{model.truncation_N}; the truncated flow would lose modes"
        )


def _steps(t_final: float, dt: float):
    """Split |t_final| into full steps of dt plus one short remainder."""
    sign = 1.0 if t_final >= 0 else -1.0
    total = abs(t_final)
    if not math.isfinite(total / dt):
        raise ValueError(f"|t_final| / dt overflows (t_final = {t_final:g}, dt = {dt:g})")
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
    return state()


def trajectory(p: PhaseState, t_final: float, model: ModelSpec,
               integ: IntegratorSpec, stride: int = 1) -> Iterator[tuple]:
    """Yield (t, state) at t = 0, after every `stride` steps and at t_final."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    for k, (t, state) in enumerate(_trajectory(p, t_final, model, integ)):
        if k % stride == 0 or t == t_final:
            yield t, state()


def _trajectory(p: PhaseState, t_final: float, model: ModelSpec,
                integ: IntegratorSpec) -> Iterator[tuple]:
    """Yield (t, state) at t = 0 and after each step, where state() builds
    the PhaseState at t from the half blocks the step left."""
    _check_window(p, model)
    step = _SCHEME_STEPS[integ.scheme]
    sign, n_full, remainder = _steps(t_final, integ.dt)
    u, v, t = _half(p.u), _half(p.v), 0.0
    yield t, lambda: p
    for k in range(n_full):
        u, v = _checked_step(step, u, v, sign * integ.dt, model,
                             f"after step {k + 1} (t = {t + sign * integ.dt:g})")
        t = sign * (k + 1) * integ.dt
        if k + 1 == n_full and remainder == 0.0:
            t = t_final  # not (k + 1) * dt, which can be a rounding error off it
        yield t, partial(_state, u, v)
    if remainder > 0.0:
        u, v = _checked_step(step, u, v, sign * remainder, model,
                             f"in the remainder step (t = {t_final:g})")
        yield t_final, partial(_state, u, v)


def _checked_step(step, u: np.ndarray, v: np.ndarray, dt: float, model: ModelSpec,
                  where: str) -> tuple:
    # blow-up shows as inf/nan and is reported as IntegrationError, so the
    # intermediate overflow warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        u, v = step(u, v, dt, model)
    if not np.isfinite(v).all():
        raise IntegrationError(f"non-finite values {where}")
    return u, v

