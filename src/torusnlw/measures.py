"""Weighted-measure densities and Gaussian-equivalence diagnostics.

The weighted measures of interest are absolutely continuous with respect
to a reference Gaussian: an energy cutoff indicator times the exponential
of minus the quartic correction (for the wave family the plain quartic
rides along too).  Everything here is unnormalized; downstream statistics
are ratios of weighted Monte Carlo sums, so normalization constants
cancel and are never computed.  The density is read through the Monte
Carlo registry's density_weight functional, one weight per drawn state,
on the factors (energy._Factors) a block of draws shares with every other
functional.

The mode-by-mode equivalence diagnostic compares the two candidate
reference Gaussians for one marginal.  For each frequency the two
variances lambda and lambda_tilde produce the scale-free statistic

    ((lambda - lambda_tilde) / (lambda + lambda_tilde))^2

whose summability over the lattice decides equivalence versus mutual
singularity.  The statistic depends only on |n|^2, so the summation
runs over squared-modulus classes with multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import _Factors
from .sampling import _INTEGER, _finite_and, _refuse

MARGINALS = ("position", "velocity")

# argument rules (see sampling)
_MARGINAL = (lambda v: v in MARGINALS, f"one of {MARGINALS}")
_KAKUTANI_S = _finite_and((lambda s: s > 0, "must be > 0"))


def _density(f: _Factors, radius: float) -> np.ndarray:
    """Density of the cutoff weighted measure against the reference
    Gaussian, for each state of a block from its factors at the cutoff:
    the indicator of (truncated energy <= radius) times exp(log weight).

    The log weight is minus the quartic correction, with the plain
    low-pass quartic included as well for the wave equation (its conserved
    energy is carried inside the modified one, bringing the extra factor
    along).
    """
    log_weight = -f.quartic_correction
    if f.family.wave:
        log_weight -= 0.25 * f.low_quartic
    with np.errstate(over="ignore"):
        return np.where(f.truncated_energy <= radius, np.exp(log_weight), 0.0)


# -- mode-by-mode Gaussian comparison -----------------------------------------


def _variance_pair(sq_mod, s: float, marginal: str):
    """Per-mode variances of the two reference Gaussians of a marginal."""
    sq_mod = np.asarray(sq_mod, dtype=float)
    if marginal == "position":
        return (1.0 + sq_mod) ** (-(s + 1.0)), 1.0 / (1.0 + sq_mod + sq_mod ** (s + 1.0))
    return (1.0 + sq_mod) ** (-s), 1.0 / (1.0 + sq_mod ** s)


def comparison_statistic(sq_mod, s: float, marginal: str = "position"):
    """S = ((lam - lam_t)/(lam + lam_t))^2 for squared modulus |n|^2;
    scale-free, so a factor common to both variances cancels."""
    _refuse(("s", _KAKUTANI_S, s), ("marginal", _MARGINAL, marginal))
    lam, lam_t = _variance_pair(sq_mod, s, marginal)
    return ((lam - lam_t) / (lam + lam_t)) ** 2


@dataclass(frozen=True)
class KakutaniSummary:
    """Comparison statistics aggregated over squared-modulus classes
    for all |n| <= max_norm, plus the full partial sum."""

    s: float
    max_norm: int
    marginal: str
    class_sq_modulus: tuple    # distinct |n|^2 values, ascending
    class_multiplicity: tuple  # number of lattice points in each class
    class_statistic: tuple     # S for a single mode of the class
    class_cumulative: tuple    # running multiplicity-weighted sum
    partial_sum: float         # statistic summed over all |n| <= max_norm

    def rows(self):
        """(sq_modulus, multiplicity, statistic, weighted, cumulative)."""
        for q, m, v, c in zip(self.class_sq_modulus, self.class_multiplicity,
                              self.class_statistic, self.class_cumulative):
            yield q, m, v, m * v, c


def kakutani_terms(s: float, max_norm: int, marginal: str = "position") -> KakutaniSummary:
    """Evaluate the equivalence statistic for every |n| <= max_norm.

    A finite limit of partial_sum as max_norm grows means the two
    Gaussians are equivalent; unbounded growth means mutual singularity.
    A statistic that is not finite (as at s = 400) raises FloatingPointError.
    """
    _refuse(("s", _KAKUTANI_S, s), ("max_norm", _INTEGER, max_norm),
            ("marginal", _MARGINAL, marginal))
    axis = np.arange(-max_norm, max_norm + 1)
    sq = axis[:, None] ** 2 + axis[None, :] ** 2
    sq = sq[sq <= max_norm ** 2]
    classes, mult = np.unique(sq, return_counts=True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported below
        stat = comparison_statistic(classes, s, marginal)
    bad = ~np.isfinite(stat)
    if bad.any():
        raise FloatingPointError(f"kakutani_terms: the statistic at s = {s:g} is not finite, "
                                 f"first at the class |n|^2 = {classes[bad][0]}")
    weighted = mult * stat
    cumulative = np.cumsum(weighted)
    return KakutaniSummary(
        s=s,
        max_norm=max_norm,
        marginal=marginal,
        class_sq_modulus=tuple(int(q) for q in classes),
        class_multiplicity=tuple(int(m) for m in mult),
        class_statistic=tuple(float(v) for v in stat),
        class_cumulative=tuple(float(c) for c in cumulative),
        partial_sum=float(weighted.sum()),
    )
