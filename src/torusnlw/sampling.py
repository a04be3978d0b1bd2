"""Gaussian ensembles on phase space, drawn as random Fourier series.

FAMILIES owns the model decision: it pairs each equation with its
ensemble, smoothing base, linear order, wave flag and counterterm, and
the flow, both energies, the density and the sampler below read it.

Each ensemble assigns independent standard complex Gaussians g_n, h_n to
the stored half-lattice (the n = 0 pair is real standard normal), extends
them by conjugation, and divides by a variant-specific spectral weight,
the symbol of the renormalized energy's quadratic part at order s:

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
is read.  Monte Carlo draws a block of consecutive indices at a time
through one _drawer per evaluation, which re-keys its one Philox per
index and returns the n2 >= 0 half blocks (spectral's layout) of the
states; only sample() builds the full blocks of its SpectralFields.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox

from .spectral import (PhaseState, SpectralField, _frozen, _from_half, _mirror, _power,
                       _sq_bracket, _sq_modulus, _symbol)


@dataclass(frozen=True)
class Family:
    """An equation: L = -(base^a)^2, a = beta (> 1) if beta_order else 1,
    and energy 1/2 int (base^a u)^2 + 1/2 int v^2 + 1/4 int u^4.  Its
    ensemble is the Gaussian of 1/2 int (base^(s+a) u)^2 + 1/2 int
    (base^s v)^2, plus the _PLAIN energy's when wave; counterterm(N, s)
    is the mean of int (base^s Pi_N u)^2 it subtracts (none for beta)."""

    variant: str
    base: str  # "bessel" (J = (1 - Lap)^(1/2)) or "riesz" (|grad|)
    beta_order: bool
    wave: bool
    counterterm: Callable[[int, float], float]

    def order(self, beta: float) -> float:
        return beta if self.beta_order else 1.0


FAMILIES = MappingProxyType({
    "nlkg": Family("mu_s", "bessel", False, False, lambda N, s: counterterm(N)),
    "nlw": Family("mu_tilde_s", "riesz", False, True, lambda N, s: wave_counterterm(N, s)),
    "nlkg_beta": Family("mu_s_beta", "bessel", True, False, lambda N, s: 0.0),  # beta > 1
})
_PLAIN = ("bessel", 1.0)  # the base and order of the energy a wave family carries along

EQUATIONS = tuple(FAMILIES)
VARIANTS = tuple(f.variant for f in FAMILIES.values())
EQUATION_FOR_VARIANT = {f.variant: equation for equation, f in FAMILIES.items()}

_KEY_BOUND = 1 << 64  # a seed or an index is one 64-bit word of a Philox key


class UnsupportedParameterError(ValueError):
    """A parameter is outside the regime an operation is defined for.  When
    _refuse raised it, argument names the argument and text its broken rule."""

    def __init__(self, message: str, argument: str | None = None, text: str | None = None):
        super().__init__(message)
        self.argument, self.text = argument, text


# -- argument rules, which _refuse runs ----------------------------------------
# Each is a (test, refusal text) pair or a check of several values returning the text.


def _count(v) -> bool:
    """An integer >= 0 (a bool is not one)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 0


def _real(v) -> bool:
    """A real number (a bool is not one)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _broken(rule, *values):
    """The refusal text of a rule that the values break, else None."""
    return rule(*values) if callable(rule) else None if rule[0](*values) else rule[1]


def _finite_and(rule):
    """The check of a finite number that then keeps `rule`."""
    def check(value, *others):
        finite = _real(value) and math.isfinite(value)
        return _broken(rule, value, *others) if finite else "must be a finite number"
    return check


_INTEGER = (_count, "must be an integer >= 0")
_VARIANT = (lambda v: v in VARIANTS, f"one of {VARIANTS}")
_EQUATION = (lambda v: v in EQUATIONS, f"one of {EQUATIONS}")
_REGULARITY = _finite_and((lambda s: s > 1, "must be > 1"))  # the index s
_KEY = (lambda k: k < _KEY_BOUND, "must be < 2^64")  # of a count that keys a Philox stream
_CUTOFF_RADIUS = (lambda r: _real(r) and r > 0, "must be positive (math.inf allowed)")


@_finite_and
def _beta_above_one(beta, family: str):
    """Check: beta > 1 if the family (its equation or variant) orders by beta."""
    needs = FAMILIES[EQUATION_FOR_VARIANT.get(family, family)].beta_order and not beta > 1
    return f"{family} needs beta > 1" if needs else None


def _covers(cutoff, window):
    """Check: the window holds the ball of the cutoff."""
    return None if cutoff <= window else f"the window {window} must cover the cutoff"


def _refuse(*rules) -> None:
    """Runs (argument, rule, its value, other values the rule reads) in order,
    before any work; the first broken one raises UnsupportedParameterError (a
    ValueError) naming the argument and carrying it and the rule's text."""
    for arg, rule, *values in rules:
        text = _broken(rule, *values)
        if text is not None:
            raise UnsupportedParameterError(f"{arg}: {text}, got {values[0]!r}", arg, text)


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
        _refuse(("variant", _VARIANT, self.variant), ("s", _REGULARITY, self.s),
                ("master_seed", _INTEGER, self.master_seed),
                ("master_seed", _KEY, self.master_seed),
                ("sample_max_mode", _INTEGER, self.sample_max_mode),
                ("truncation_N", _INTEGER, self.truncation_N),
                ("beta", _beta_above_one, self.beta, self.variant),
                ("truncation_N", _covers, self.truncation_N, self.sample_max_mode),
                ("energy_cutoff_r", _CUTOFF_RADIUS, self.energy_cutoff_r))

    @property
    def equation(self) -> str:
        return EQUATION_FOR_VARIANT[self.variant]


@lru_cache(maxsize=64)
def _weights(variant: str, s: float, beta: float, max_mode: int):
    """The weights (w_u, w_v) on the n2 >= 0 half block: w^2 is the symbol
    of the family's renormalized quadratic form, on u and on v."""
    f = FAMILIES[EQUATION_FOR_VARIANT[variant]]
    order = s + f.order(beta)
    if not f.wave:
        return _symbol(_power(f.base, order), max_mode), _symbol(_power(f.base, s), max_mode)
    base, a = _PLAIN
    w_u = _symbol(_power(base, 2 * a), max_mode) + _symbol(_power(f.base, 2 * order), max_mode)
    w_v = 1.0 + _symbol(_power(f.base, 2 * s), max_mode)
    return _frozen(np.sqrt(w_u)), _frozen(np.sqrt(w_v))


@lru_cache(maxsize=64)
def _reciprocals(variant: str, s: float, beta: float, max_mode: int):
    """1 / w of both weights, as complex128: a product with them is bitwise
    numpy's complex / real w, whose division multiplies by the reciprocal."""
    return tuple(_frozen((1.0 / w).astype(np.complex128))
                 for w in _weights(variant, s, beta, max_mode))


def _assemble(raw: np.ndarray, reciprocal: np.ndarray, max_mode: int) -> np.ndarray:
    """Half stack (B, 2K + 1, K + 1) of one component from its (B, n_half, 2)
    normals.  The stored half-lattice is in lexicographic (n1, n2) order:
    the rows n1 < 0 hold n2 = 1..K, the rows n1 >= 0 hold n2 = 0..K, so each
    fills its rows of the half by a reshape, _mirror fills the n1 < 0 half
    of column n2 = 0 and keeps n = 0 real, and the reciprocal weight scales
    it in place."""
    B, K = len(raw), max_mode
    g = raw.view(np.complex128)[..., 0] * np.sqrt(0.5)
    zero = K**2  # n = 0's place in the stored order: real, variance 1
    g[:, zero] = raw[:, zero, 0]
    half = np.empty((B, 2 * K + 1, K + 1), np.complex128)
    half[:, :K, 1:] = g[:, :zero].reshape(B, K, K)
    half[:, K:] = g[:, zero:].reshape(B, K + 1, K + 1)
    _mirror(half)
    half *= reciprocal
    return half


def _drawer(spec: EnsembleSpec, with_v: bool):
    """draw(start, stop) -> samples start, ..., stop - 1 as half stacks
    (u, v) of shape (B, 2K + 1, K + 1); v is None unless with_v.

    The one Philox of a drawer is re-keyed for each index (key
    (master_seed, index), counter 0, empty buffer), which is the state a
    new Philox of that key starts in, and fills the index's row of one
    normal buffer: u's normals, then v's.  A drawer is not shared across
    threads; each caller builds its own.
    """
    K = spec.sample_max_mode
    n_half = (2 * K + 1) ** 2 // 2 + 1
    r_u, r_v = _reciprocals(spec.variant, spec.s, spec.beta, K)
    bitgen = Philox(key=np.array([spec.master_seed, 0], np.uint64))
    rng = Generator(bitgen)
    keyed = bitgen.state
    key = keyed["state"]["key"]

    def draw(start: int, stop: int) -> tuple:
        _refuse(("index", _INTEGER, start), ("index", _KEY, stop - 1))
        raw = np.empty((stop - start, 1 + with_v, n_half, 2))
        for row, index in enumerate(range(start, stop)):
            key[1] = index
            bitgen.state = keyed
            rng.standard_normal(out=raw[row])
        u = _assemble(raw[:, 0], r_u, K)
        return u, _assemble(raw[:, 1], r_v, K) if with_v else None

    return draw


def sample(spec: EnsembleSpec, index: int) -> PhaseState:
    """Draw sample `index` of the ensemble.

    Reproducible and order-independent: the result depends only on
    (spec.master_seed, index), never on which process draws it.
    """
    _refuse(("index", _INTEGER, index), ("index", _KEY, index))
    u, v = _drawer(spec, with_v=True)(index, index + 1)
    K = spec.sample_max_mode
    return PhaseState(SpectralField(K, _from_half(u[0]), _trusted=True),
                      SpectralField(K, _from_half(v[0]), _trusted=True))


# -- renormalization constants ----------------------------------------------
# The caches are typed, so a cutoff of 2.0 or True reaches the rules and is
# refused, never served from the entry of 2 or 1.


@lru_cache(maxsize=128, typed=True)
def counterterm(cutoff: int) -> float:
    """sum over |n| <= cutoff of 1 / (1 + |n|^2).

    Equals the expected smoothed mass E int (J^s Pi_N u)^2 under mu_s for
    every s (the weights cancel), and grows like log(cutoff).
    """
    _refuse(("cutoff", _INTEGER, cutoff))
    mask = _sq_modulus(cutoff) <= cutoff**2
    return float(np.sum(mask / _sq_bracket(cutoff)))


@lru_cache(maxsize=128, typed=True)
def wave_counterterm(cutoff: int, s: float) -> float:
    """sum over |n| <= cutoff of |n|^(2s) / (1 + |n|^2 + |n|^(2s+2)).

    The mu_tilde_s analogue of counterterm; the n = 0 term vanishes.
    """
    _refuse(("cutoff", _INTEGER, cutoff), ("s", _REGULARITY, s))
    sq = _sq_modulus(cutoff)
    mask = sq <= cutoff**2
    return float(np.sum(mask * sq**s / (1.0 + sq + sq ** (s + 1))))
