"""Gaussian ensembles on phase space, drawn as random Fourier series.

Each ensemble assigns independent standard complex Gaussians g_n, h_n to
the stored half-lattice (the n = 0 pair is real standard normal), extends
them by conjugation, and divides by a variant-specific spectral weight:

    mu_s        u_n = g_n / <n>^(s+1)      v_n = h_n / <n>^s
    mu_tilde_s  u_n = g_n / (1 + |n|^2 + |n|^(2s+2))^(1/2)
                v_n = h_n / (1 + |n|^(2s))^(1/2)
    mu_s_beta   u_n = g_n / <n>^(s+beta)   v_n = h_n / <n>^s

with <n> = (1 + |n|^2)^(1/2) and E|g_n|^2 = 1 (real and imaginary parts
are N(0, 1/2) for n != 0).

Draws are counter-based: sample(spec, index) keys a Philox stream by
(master_seed, index), so any worker partition of the index range produces
the identical ensemble, with no shared RNG state.  The stream holds u's
normals first and v's after them, so a draw can stop after u when only u
is read (_Draw).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .spectral import (PhaseState, SpectralField, _frozen, _half_lattice, _sq_bracket,
                       _sq_modulus)

VARIANTS = ("mu_s", "mu_tilde_s", "mu_s_beta")

# Equation family whose energies/functionals pair with each ensemble.
EQUATION_FOR_VARIANT = {
    "mu_s": "nlkg",
    "mu_tilde_s": "nlw",
    "mu_s_beta": "nlkg_beta",
}

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class EnsembleSpec:
    """Defines one reproducible Gaussian ensemble.

    sample_max_mode bounds the drawn spectral window; truncation_N is the
    cutoff used by the paired dynamics/functionals and may not exceed it.
    energy_cutoff_r restricts the ensemble to truncated energy <= r via
    indicator weights (math.inf keeps everything).
    """

    variant: str
    s: float
    sample_max_mode: int
    truncation_N: int
    master_seed: int
    beta: float = 0.0
    energy_cutoff_r: float = math.inf

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not self.s > 1:
            raise ValueError(f"s must be > 1, got {self.s}")
        if self.variant == "mu_s_beta" and not self.beta > 1:
            raise ValueError(f"mu_s_beta needs beta > 1, got {self.beta}")
        if self.truncation_N < 0:
            raise ValueError("truncation_N must be >= 0")
        if self.sample_max_mode < self.truncation_N:
            raise ValueError(
                f"sample_max_mode {self.sample_max_mode} < truncation_N "
                f"{self.truncation_N}: the window must cover the cutoff"
            )
        if not (self.energy_cutoff_r > 0):
            raise ValueError("energy_cutoff_r must be positive (math.inf allowed)")

    @property
    def equation(self) -> str:
        return EQUATION_FOR_VARIANT[self.variant]


@lru_cache(maxsize=64)
def _weights(variant: str, s: float, beta: float, max_mode: int):
    br = _sq_bracket(max_mode)  # 1 + |n|^2
    if variant == "mu_s":
        w_u = br ** ((s + 1) / 2.0)
        w_v = br ** (s / 2.0)
    elif variant == "mu_tilde_s":
        sq = _sq_modulus(max_mode)
        w_u = np.sqrt(1.0 + sq + sq ** (s + 1))
        w_v = np.sqrt(1.0 + sq**s)
    elif variant == "mu_s_beta":
        w_u = br ** ((s + beta) / 2.0)
        w_v = br ** (s / 2.0)
    else:  # pragma: no cover - EnsembleSpec already validates
        raise ValueError(variant)
    return _frozen(w_u), _frozen(w_v)


def _stream(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based stream: a pure function of (master_seed, index)."""
    key = np.array([master_seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _assemble(raw: np.ndarray, weight: np.ndarray, max_mode: int) -> SpectralField:
    flat, mirror = _half_lattice(max_mode)
    g = (raw[:, 0] + 1j * raw[:, 1]) * np.sqrt(0.5)
    zero = max_mode**2  # n = 0's place in the stored order: real, variance 1
    g[zero] = raw[zero, 0]
    side = 2 * max_mode + 1
    box = np.zeros(side * side, np.complex128)
    box[flat] = g
    box[mirror] = np.conj(g)
    coeffs = box.reshape(side, side) / weight
    return SpectralField(max_mode, coeffs, _trusted=True)


class _Draw:
    """Sample `index` of the ensemble, one component at a time: u and v
    are each drawn on first read, and reading v draws u first, so the
    normals come off the stream in one order whatever is read."""

    def __init__(self, spec: EnsembleSpec, index: int):
        if index < 0:
            raise ValueError(f"sample index must be >= 0, got {index}")
        self.max_mode = K = spec.sample_max_mode
        self._weights = _weights(spec.variant, spec.s, spec.beta, K)
        self._n_half = (2 * K + 1) ** 2 // 2 + 1
        self._rng = _stream(spec.master_seed, index)

    def _next(self, weight: np.ndarray) -> SpectralField:
        return _assemble(self._rng.standard_normal((self._n_half, 2)), weight,
                         self.max_mode)

    @cached_property
    def u(self) -> SpectralField:
        return self._next(self._weights[0])

    @cached_property
    def v(self) -> SpectralField:
        self.u  # u's normals precede v's in the stream: draw them first
        return self._next(self._weights[1])


def sample(spec: EnsembleSpec, index: int) -> PhaseState:
    """Draw sample `index` of the ensemble.

    Reproducible and order-independent: the result depends only on
    (spec.master_seed, index), never on which process draws it.
    """
    d = _Draw(spec, index)
    return PhaseState(d.u, d.v)


# -- renormalization constants ----------------------------------------------


@lru_cache(maxsize=128)
def counterterm(cutoff: int) -> float:
    """sum over |n| <= cutoff of 1 / (1 + |n|^2).

    Equals the expected smoothed mass E int (J^s Pi_N u)^2 under mu_s for
    every s (the weights cancel), and grows like log(cutoff).
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    mask = _sq_modulus(cutoff) <= cutoff**2
    return float(np.sum(mask / _sq_bracket(cutoff)))


@lru_cache(maxsize=128)
def wave_counterterm(cutoff: int, s: float) -> float:
    """sum over |n| <= cutoff of |n|^(2s) / (1 + |n|^2 + |n|^(2s+2)).

    The mu_tilde_s analogue of counterterm; the n = 0 term vanishes.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if not s > 0:
        raise ValueError("s must be positive")
    sq = _sq_modulus(cutoff)
    mask = sq <= cutoff**2
    return float(np.sum(mask * sq**s / (1.0 + sq + sq ** (s + 1))))
