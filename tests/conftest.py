"""Shared fixtures and hypothesis settings for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import torusnlw.dynamics as dynamics
import torusnlw.energy as energy
import torusnlw.measures as measures
import torusnlw.montecarlo as montecarlo
import torusnlw.sampling as sampling
from torusnlw.montecarlo import FUNCTIONALS, _Block, _check_columns
from torusnlw.sampling import EnsembleSpec
from torusnlw.spectral import (PhaseState, SpectralError, SpectralField, _cube_buffers, _cube_half,
                               _half, sobolev_norm)

settings.register_profile(
    "default",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def random_hermitian_block(rng: np.random.Generator, max_mode: int) -> np.ndarray:
    """Random complex block with c[-n] = conj(c[n]) built by symmetrisation."""
    K = max_mode
    side = 2 * K + 1
    raw = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    sym = 0.5 * (raw + np.conj(raw[::-1, ::-1]))
    sym[K, K] = sym[K, K].real
    return sym


def random_field(rng: np.random.Generator, max_mode: int, scale: float = 1.0) -> SpectralField:
    return SpectralField(max_mode, scale * random_hermitian_block(rng, max_mode))


def cube_half(half: np.ndarray, cutoff: int, window: int) -> np.ndarray:
    """_cube_half in fresh work buffers."""
    return _cube_half(half, cutoff, window, _cube_buffers(cutoff, half.shape[1] - 1))


def field_from_modes(max_mode: int, modes: dict) -> SpectralField:
    """Build a field from {(n1, n2): coefficient}, filling conjugates.

    Each listed mode also sets its mirror -n to the conjugate value, so
    passing {(1, 0): 0.5} yields cos(x_1).
    """
    K = max_mode
    c = np.zeros((2 * K + 1, 2 * K + 1), np.complex128)
    for (n1, n2), val in modes.items():
        if abs(n1) > K or abs(n2) > K:
            raise SpectralError(f"mode {(n1, n2)} outside window {K}")
        c[n1 + K, n2 + K] = val
        c[-n1 + K, -n2 + K] = np.conj(val)
    return SpectralField(K, c)


def even_symbol(half: np.ndarray) -> np.ndarray:
    """The full block of a symbol even in n, s(-n) = s(n), from its n2 >= 0
    half (the layout of every symbol the package computes)."""
    return np.concatenate((half[::-1, :0:-1], half), axis=1)


def constant_field(value: float, max_mode: int = 0) -> SpectralField:
    return field_from_modes(max_mode, {(0, 0): value})


def state_distance(a: PhaseState, b: PhaseState, sigma: float = 1.0) -> float:
    """H^sigma x H^(sigma-1) distance of two states on one window."""
    K = a.max_mode
    return sobolev_norm(PhaseState(SpectralField(K, a.u.coeffs - b.u.coeffs),
                                   SpectralField(K, a.v.coeffs - b.v.coeffs)), sigma)


def random_state(rng: np.random.Generator, max_mode: int, scale: float = 1.0) -> PhaseState:
    return PhaseState(
        u=random_field(rng, max_mode, scale),
        v=random_field(rng, max_mode, scale),
    )


def block_values(ens: EnsembleSpec, p: PhaseState, funcs) -> list:
    """The registry's (name, params) columns on the one state p, checked
    and evaluated as collect_values does, on a block of one state of ens."""
    funcs = _check_columns(ens, funcs)
    block = _Block(_half(p.u)[None], _half(p.v)[None], ens)
    return [float(FUNCTIONALS[name].evaluate(block, params)[0]) for name, params in funcs]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def refuse_to_draw(*args, **kwargs):
    raise AssertionError("collect_values was called")


def refuse_a_drawer(*args, **kwargs):
    raise AssertionError("a drawer was built")


def _worked(*args, **kwargs):
    raise AssertionError("a transform, draw, step or sum ran before the refusal")


@pytest.fixture
def no_draws(monkeypatch):
    """Fails the test when collect_values runs or a Monte Carlo drawer is built."""
    monkeypatch.setattr(montecarlo, "collect_values", refuse_to_draw)
    monkeypatch.setattr(montecarlo, "_drawer", refuse_a_drawer)


@pytest.fixture
def no_work(monkeypatch):
    """Fails the test when a grid transform, a draw, a flow step, a
    counterterm sum or a Kakutani statistic runs."""
    monkeypatch.setattr(energy, "grid_stack", _worked)
    monkeypatch.setattr(sampling, "_drawer", _worked)
    monkeypatch.setattr(sampling, "_sq_modulus", _worked)
    monkeypatch.setattr(dynamics, "_checked_step", _worked)
    monkeypatch.setattr(measures, "_variance_pair", _worked)
