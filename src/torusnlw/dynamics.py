"""Truncated Hamiltonian flows for the cubic wave family on the torus.

Three equations share the structure du/dt = v, dv/dt = L u - Pi_N((Pi_N u)^3):

    nlkg       L = Laplacian - 1      (dispersion <n>)
    nlw        L = Laplacian          (dispersion |n|; zero mode shears)
    nlkg_beta  L = -(1 - Laplacian)^beta   (dispersion <n>^beta)

The dispersion base^a is the family's base and linear order, read from
sampling.FAMILIES, the owner of the family decision.

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

from .sampling import (_EQUATION, _INTEGER, FAMILIES, UnsupportedParameterError,
                       _beta_above_one, _covers, _finite_and, _refuse)
from .spectral import (PhaseState, SpectralField, _cube_half, _from_half, _frozen, _half, _power,
                       _symbol)

SCHEMES = ("strang_splitting", "rk4")
MAX_STEPS = 1_000_000  # the most steps of one run: minutes of Strang steps at window 32

# argument rules, which the CLI's specs read too (see sampling)
_SCHEME = (lambda v: v in SCHEMES, f"one of {SCHEMES}")
_DT = _finite_and((lambda dt: dt > 0, "must be > 0"))
_STRIDE = (lambda n: n >= 1, "must be >= 1")  # once an integer


class IntegrationError(RuntimeError):
    """The flow produced a non-finite value (numerical blow-up)."""


@dataclass(frozen=True)
class ModelSpec:
    equation: str
    truncation_N: int
    beta: float = 0.0

    def __post_init__(self) -> None:
        _refuse(("equation", _EQUATION, self.equation),
                ("truncation_N", _INTEGER, self.truncation_N),
                ("beta", _beta_above_one, self.beta, self.equation))


@dataclass(frozen=True)
class IntegratorSpec:
    scheme: str = "strang_splitting"
    dt: float = 1e-3

    def __post_init__(self) -> None:
        _refuse(("scheme", _SCHEME, self.scheme), ("dt", _DT, self.dt))


def _dispersion(equation: str, beta: float, max_mode: int) -> np.ndarray:
    """The symbol of base^a, the square root of -L, on the half block."""
    f = FAMILIES[equation]
    return _symbol(_power(f.base, f.order(beta)), max_mode)


def _complex(symbol: np.ndarray) -> np.ndarray:
    """A real half symbol cast to complex128 once (a product with a complex
    block casts it so anyway)."""
    return _frozen(symbol.astype(np.complex128))


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
    return _complex(cos), _complex(sinc), _complex(-w * np.sin(tw))


@lru_cache(maxsize=128)
def _linear_symbol(equation: str, beta: float, max_mode: int) -> np.ndarray:
    # symbol of L on the half block: the negated squared dispersion
    return _complex(-_dispersion(equation, beta, max_mode) ** 2)


# -- the flow on half blocks (see the module docstring) ------------------------


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


def _steps(t_final: float, dt: float):
    """Split |t_final| into full steps of dt plus one short remainder; refuses
    a step count |t_final| / dt that overflows or exceeds MAX_STEPS."""
    sign = 1.0 if t_final >= 0 else -1.0
    total = abs(t_final)
    count = total / dt
    if not count <= MAX_STEPS:
        why = (f"is {count:.3g} steps, above the ceiling of {MAX_STEPS}"
               if math.isfinite(count) else "overflows")
        raise UnsupportedParameterError(
            f"|t_final| / dt {why} (t_final = {t_final:g}, dt = {dt:g})")
    n_full = int(math.floor(count + 1e-9))
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
    """Yield (t, state) at t = 0, after every `stride` steps and at t_final;
    a bad stride, window or step count is refused at the first item."""
    _refuse(("stride", _INTEGER, stride), ("stride", _STRIDE, stride))
    for k, (t, state) in enumerate(_trajectory(p, t_final, model, integ)):
        if k % stride == 0 or t == t_final:
            yield t, state()


def _trajectory(p: PhaseState, t_final: float, model: ModelSpec,
                integ: IntegratorSpec) -> Iterator[tuple]:
    """Yield (t, state) at t = 0 and after each step, where state() builds
    the PhaseState at t from the half blocks the step left."""
    _refuse(("truncation_N", _covers, model.truncation_N, p.max_mode))
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

