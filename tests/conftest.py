"""Shared fixtures and hypothesis settings for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from torusnlw.montecarlo import FUNCTIONALS, _Block
from torusnlw.sampling import EnsembleSpec
from torusnlw.spectral import PhaseState, SpectralError, SpectralField, sobolev_norm

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
    """The registry's (name, params) columns on the one state p, evaluated
    as the Monte Carlo evaluator does, on a block of one state of ens."""
    block = _Block(p.u.coeffs[None], p.v.coeffs[None], ens)
    return [float(FUNCTIONALS[name].evaluate(block, params)[0]) for name, params in funcs]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
