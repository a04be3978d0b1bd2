"""Energies, renormalized energies, and their decompositions.

Three conserved-energy families share one cubic structure:

    nlkg       (1/2) int u^2 + |grad u|^2 + v^2  + (1/4) int u^4
    nlw        (1/2) int |grad u|^2 + v^2        + (1/4) int u^4
    nlkg_beta  (1/2) int ((1-Lap)^(b/2) u)^2 + v^2 + (1/4) int u^4

Their truncated versions keep the quadratic part on the full field and
truncate only the quartic argument.  The renormalized energy at smoothing
order s adds a quartic correction: 3/2 the smoothed-mass-weighted quartic
minus 3/2 counterterm times the low-pass mass (no subtraction for the
beta family).  Its time derivative along the truncated flow splits into
three probabilistically tame terms (rate_highlow / rate_mass /
rate_leibniz below); the lower-order Leibniz constants are generated
symbolically here and self-checked against a direct evaluation before
first use.

Every quartic integral is one grid mean: four fields of window K have a
product with modes up to 4K, so its mean on quadrature_grid(K) >= 4K + 1
points per direction is exact.  Quadratic quantities are lattice sums.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache, reduce

import numpy as np

from .sampling import counterterm, wave_counterterm
from .spectral import (
    Multiplier,
    PhaseState,
    SpectralField,
    _sq_bracket,
    _sq_modulus,
    apply_multiplier,
    bessel_power,
    derivative,
    grid_values,
    inner_product,
    pointwise_product,
    project_ball,
    quadrature_grid,
    riesz_power,
)

EQUATIONS = ("nlkg", "nlw", "nlkg_beta")

# Multiplier family entering the smoothed quartic term of each equation.
_BASE_FOR = {"nlkg": "bessel", "nlw": "riesz", "nlkg_beta": "bessel"}


class UnsupportedParameterError(ValueError):
    """A parameter is outside the regime an operation is defined for."""


def _power(base: str, sigma: float) -> Multiplier:
    return bessel_power(sigma) if base == "bessel" else riesz_power(sigma)


def _check_equation(equation: str, beta: float | None = None) -> None:
    """Known equation family, and beta > 1 for nlkg_beta when beta is given."""
    if equation not in EQUATIONS:
        raise UnsupportedParameterError(
            f"equation must be one of {EQUATIONS}, got {equation!r}")
    if equation == "nlkg_beta" and beta is not None and not beta > 1:
        raise UnsupportedParameterError(f"nlkg_beta needs beta > 1, got {beta}")


def _even_order(s: float) -> int:
    if s != int(s) or int(s) % 2 != 0 or int(s) < 2:
        raise UnsupportedParameterError(
            f"the derivative machinery needs an even integer s >= 2, got {s}")
    return int(s)


def _sigma_const(equation: str, cutoff: int, s: float) -> float:
    if equation == "nlkg":
        return counterterm(cutoff)
    if equation == "nlw":
        return wave_counterterm(cutoff, s)
    return 0.0  # nlkg_beta: no subtraction needed for beta > 1


# -- symbolic Leibniz expansion of the cubic commutator ----------------------
#
# For even s, base^s is a differential operator: (1 - Lap)^(s/2) expands
# binomially in powers of -Lap (bessel) while (-Lap)^(s/2) is a single
# homogeneous power (riesz).  Splitting base^s(u^3) = 3 u^2 base^s(u) + R
# by the product rule leaves R with every factor of order < s and total
# order <= s (bessel) or exactly s (riesz).  The rate_leibniz term is
# -int (base^s v) R, so each monomial of R yields one quartic integral.


def _compositions3(n: int):
    for i in range(n + 1):
        for j in range(n - i + 1):
            yield i, j, n - i - j


@lru_cache(maxsize=32)
def _cubic_correction_terms(s: int, base: str) -> tuple:
    """Coefficients c and derivative orders (a, b, g) with

        int (base^2s v)(-u^3) = -3 int (base^s v)(base^s u) u^2
                                + sum c * int (base^s v) d^a u d^b u d^g u

    for any fields u, v.  Verified against direct evaluation on random
    fields before being returned.
    """
    half = s // 2
    ks = range(half + 1) if base == "bessel" else [half]
    acc: dict = {}
    for k in ks:
        c_k = math.comb(half, k) * (-1) ** k if base == "bessel" else (-1) ** k
        for j in range(k + 1):
            c_kj = c_k * math.comb(k, j)
            a, b = 2 * j, 2 * (k - j)
            for a_parts in _compositions3(a):
                m_a = math.factorial(a) // math.prod(map(math.factorial, a_parts))
                for b_parts in _compositions3(b):
                    m_b = math.factorial(b) // math.prod(map(math.factorial, b_parts))
                    key = tuple(sorted(zip(a_parts, b_parts)))
                    acc[key] = acc.get(key, 0) + c_kj * m_a * m_b
            # remove the absorbed leading part 3 u^2 d^(a,b) u
            lead = tuple(sorted(((0, 0), (0, 0), (a, b))))
            acc[lead] = acc.get(lead, 0) - 3 * c_kj
    terms = tuple(sorted((-c, orders) for orders, c in acc.items() if c != 0))
    _self_check_correction(s, base, terms)
    return terms


def _self_check_correction(s: int, base: str, terms: tuple) -> None:
    # Exercised once per (s, base) per process, on fixed pseudo-random data.
    rng = np.random.default_rng(20240000 + 10 * s + (base == "riesz"))
    K = 3
    for _ in range(2):
        c = rng.normal(size=(2 * K + 1, 2 * K + 1)) + 1j * rng.normal(size=(2 * K + 1, 2 * K + 1))
        u = SpectralField(K, 0.5 * (c + np.conj(c[::-1, ::-1])))
        c = rng.normal(size=(2 * K + 1, 2 * K + 1)) + 1j * rng.normal(size=(2 * K + 1, 2 * K + 1))
        v = SpectralField(K, 0.5 * (c + np.conj(c[::-1, ::-1])))
        cube = pointwise_product(pointwise_product(u, u), u)
        lhs = -inner_product(apply_multiplier(v, _power(base, 2 * s)), cube)
        sv = apply_multiplier(v, _power(base, s))
        su = apply_multiplier(u, _power(base, s))
        rhs = -3.0 * inner_product(pointwise_product(sv, su), pointwise_product(u, u))
        rhs += _leibniz_sum(terms, sv, u)
        scale = max(abs(lhs), 1e-30)
        if abs(lhs - rhs) > 1e-10 * scale:
            raise RuntimeError(
                f"generated Leibniz constants for s={s}, base={base} failed "
                f"the self-check: {lhs} vs {rhs}")


def _leibniz_sum(terms: tuple, smoothed_v: SpectralField, u: SpectralField) -> float:
    """sum c * int smoothed_v d^a u d^b u d^g u, each a grid mean; the
    smoothed v and each distinct derivative of u go to the grid once."""
    grid = quadrature_grid(max(smoothed_v.max_mode, u.max_mode))
    vg = grid_values(smoothed_v, grid)
    orders = {order for _, triple in terms for order in triple}
    d = {order: grid_values(apply_multiplier(u, derivative(*order)), grid)
         for order in orders}
    return sum(coeff * float((vg * d[oa] * d[ob] * d[og]).mean())
               for coeff, (oa, ob, og) in terms)


# -- energies ----------------------------------------------------------------


def _quadratic_masses(p: PhaseState):
    """(int u^2, int |grad u|^2, int v^2) as lattice sums."""
    K = p.max_mode
    au = np.abs(p.u.coeffs) ** 2
    av = np.abs(p.v.coeffs) ** 2
    return float(au.sum()), float((_sq_modulus(K) * au).sum()), float(av.sum())


def _weighted_mass(f: SpectralField, base: str, sigma: float) -> float:
    """int (base^sigma f)^2 as a lattice sum."""
    K = f.max_mode
    w = _sq_bracket(K) ** sigma if base == "bessel" else _sq_modulus(K) ** sigma
    if base == "riesz":
        w = w.copy()
        w[K, K] = 0.0
    return float((w * np.abs(f.coeffs) ** 2).sum())


def _grid_mean(*fields: SpectralField) -> float:
    """Integral of the product of up to four fields as one grid mean; each
    distinct field goes to the grid once."""
    grid = quadrature_grid(max(f.max_mode for f in fields))
    distinct = {id(f): f for f in fields}
    vals = {key: grid_values(f, grid) for key, f in distinct.items()}
    return float(reduce(np.multiply, [vals[id(f)] for f in fields]).mean())


def _quartic_integral(f: SpectralField) -> float:
    return _grid_mean(f, f, f, f)


def hamiltonian(p: PhaseState, equation: str = "nlkg", beta: float = 0.0) -> float:
    """Conserved energy of the untruncated equation at the given state."""
    _check_equation(equation, beta)
    mass, grad, kinetic = _quadratic_masses(p)
    if equation == "nlkg":
        quad = mass + grad + kinetic
    elif equation == "nlw":
        quad = grad + kinetic
    else:
        quad = 2.0 * _weighted_mass(p.u, "bessel", beta) + kinetic
    return 0.5 * quad + 0.25 * _quartic_integral(p.u)


def truncated_energy(p: PhaseState, cutoff: int, equation: str = "nlkg",
                     beta: float = 0.0) -> float:
    """Energy conserved by the truncated flow: full-field quadratic part,
    quartic part on the low-pass field only."""
    _check_equation(equation, beta)
    mass, grad, kinetic = _quadratic_masses(p)
    if equation == "nlkg":
        quad = mass + grad + kinetic
    elif equation == "nlw":
        quad = grad + kinetic
    else:
        quad = 2.0 * _weighted_mass(p.u, "bessel", beta) + kinetic
    return 0.5 * quad + 0.25 * _quartic_integral(project_ball(p.u, cutoff))


def quartic_correction(u: SpectralField, s: float, cutoff: int,
                       equation: str = "nlkg") -> float:
    """Renormalized quartic correction

        3/2 int (base^s low_pass u)^2 (low_pass u)^2  -  3/2 sigma int (low_pass u)^2

    with base/sigma set by the equation family (no subtraction for
    nlkg_beta).  This is the log-density of the weighted measure.
    """
    _check_equation(equation)
    base = _BASE_FOR[equation]
    uN = project_ball(u, cutoff)
    su = apply_multiplier(uN, _power(base, s))
    quart = 1.5 * _grid_mean(su, su, uN, uN)
    return quart - 1.5 * _sigma_const(equation, cutoff, s) * inner_product(uN, uN)


def renormalized_energy(p: PhaseState, s: float, cutoff: int,
                        equation: str = "nlkg", beta: float = 0.0) -> float:
    """Modified energy whose derivative along the truncated flow is the sum
    of the three rate terms.

    nlkg:       1/2 int (J^s v)^2 + 1/2 int (J^(s+1) u)^2 + correction
    nlw:        the |n|-weighted analogue plus the plain truncated energy
                (whose mass term is what feeds the extra rate_mass piece)
    nlkg_beta:  1/2 int (J^s v)^2 + 1/2 int (J^(s+beta) u)^2 + correction
    """
    _check_equation(equation, beta)
    if equation == "nlkg":
        quad = _weighted_mass(p.v, "bessel", s) + _weighted_mass(p.u, "bessel", s + 1)
    elif equation == "nlw":
        quad = _weighted_mass(p.v, "riesz", s) + _weighted_mass(p.u, "riesz", s + 1)
    else:
        quad = _weighted_mass(p.v, "bessel", s) + _weighted_mass(p.u, "bessel", s + beta)
    total = 0.5 * quad + quartic_correction(p.u, s, cutoff, equation)
    if equation == "nlw":
        total += truncated_energy(p, cutoff, "nlkg")
    return total


def wick_renormalized_mass(u: SpectralField, s: float, cutoff: int,
                           equation: str = "nlkg") -> float:
    """int (base^s low_pass u)^2 minus the matching counterterm; mean zero
    under the reference Gaussian ensemble, a degree-2 polynomial in it."""
    _check_equation(equation)
    uN = project_ball(u, cutoff)
    smoothed = _weighted_mass(uN, _BASE_FOR[equation], s)
    return smoothed - _sigma_const(equation, cutoff, s)


# -- chaos decomposition of the smoothed quartic ------------------------------


@dataclass(frozen=True)
class ChaosComponents:
    """Split of 3/2 the smoothed quartic over the momentum-sum lattice by
    the number of conjugate pairs among the four frequencies."""

    double_pair: float
    single_pair: float
    no_pair: float
    double_pair_renorm: float

    @property
    def total(self) -> float:
        return self.double_pair + self.single_pair + self.no_pair


def chaos_components(u: SpectralField, s: float, cutoff: int,
                     equation: str = "nlkg") -> ChaosComponents:
    """Pair/no-pair components of 3/2 int (base^s low_pass u)^2 (low_pass u)^2.

    double_pair collects frequency quadruples with two conjugate pairs,
    single_pair those with exactly one, no_pair the rest; they sum to the
    full quartic.  double_pair_renorm subtracts the counterterm mass, so
    double_pair_renorm + single_pair + no_pair is the quartic correction.
    """
    _check_equation(equation)
    base = _BASE_FOR[equation]
    uN = project_ball(u, cutoff)
    K = uN.max_mode
    a = np.abs(uN.coeffs) ** 2
    w = _sq_bracket(K) ** (s / 2.0) if base == "bessel" else _sq_modulus(K) ** (s / 2.0)
    if base == "riesz":
        w = w.copy()
        w[K, K] = 0.0

    t0 = float(a.sum())                # int u^2
    t1 = float((w**2 * a).sum())       # int (base^s u)^2
    tw = float((w * a).sum())
    t2w = float((w**2 * a**2).sum())
    pair4 = t2w - float(w[K, K] ** 2 * a[K, K] ** 2)  # excludes n = 0

    su = apply_multiplier(uN, _power(base, s))
    full = 1.5 * _grid_mean(su, su, uN, uN)

    double_pair = 1.5 * t1 * t0
    single_pair = 3.0 * (tw**2 - t2w) - 1.5 * pair4
    no_pair = full - double_pair - single_pair
    renorm = double_pair - 1.5 * _sigma_const(equation, cutoff, s) * t0
    return ChaosComponents(double_pair, single_pair, no_pair, renorm)


# -- time derivative of the renormalized energy -------------------------------


@dataclass(frozen=True)
class EnergyRateTerms:
    """d/dt renormalized_energy(low_pass state) along the truncated flow,
    split into the three probabilistically bounded pieces."""

    highlow: float   # 3 int P!=0[(base^s u)^2] P!=0[v u]
    mass: float      # 3 (int (base^s u)^2 - sigma) int v u  (+ int u v for nlw)
    leibniz: float   # lower-order commutator terms

    @property
    def total(self) -> float:
        return self.highlow + self.mass + self.leibniz


def energy_rate_terms(p: PhaseState, s: float, cutoff: int,
                      equation: str = "nlkg", beta: float = 0.0) -> EnergyRateTerms:
    """Exact splitting of the time derivative of the renormalized energy.

    Requires an even integer s >= 2 (the Leibniz expansion differentiates
    s times).  The identity

        d/dt renormalized_energy(low_pass Phi(t) p) |_{t=0} = total

    holds for every state; see the finite-difference tests.
    """
    s_int = _even_order(s)
    _check_equation(equation, beta)
    base = _BASE_FOR[equation]
    uN = project_ball(p.u, cutoff)
    vN = project_ball(p.v, cutoff)
    su = apply_multiplier(uN, _power(base, s_int))
    sv = apply_multiplier(vN, _power(base, s_int))

    smoothed_mass = inner_product(su, su)
    cross = inner_product(vN, uN)
    highlow = 3.0 * (_grid_mean(su, su, vN, uN) - smoothed_mass * cross)

    mass = 3.0 * (smoothed_mass - _sigma_const(equation, cutoff, s_int)) * cross
    if equation == "nlw":
        # the plain energy rides along with the modified one; its only
        # non-conserved piece is the mass term, contributing int u v
        mass += cross

    leibniz = _leibniz_sum(_cubic_correction_terms(s_int, base), sv, uN)
    return EnergyRateTerms(highlow, mass, leibniz)


# -- combined report ----------------------------------------------------------


@dataclass(frozen=True)
class EnergyReport:
    """Every scalar diagnostic of one state under one equation family."""

    equation: str
    s: float
    cutoff: int
    beta: float
    energy: float
    truncated: float
    renormalized: float
    quartic_corr: float
    rate_highlow: float | None
    rate_mass: float | None
    rate_leibniz: float | None
    chaos_double_pair: float
    chaos_single_pair: float
    chaos_no_pair: float
    chaos_double_pair_renorm: float

    @property
    def rate_total(self) -> float | None:
        if self.rate_highlow is None:
            return None
        return self.rate_highlow + self.rate_mass + self.rate_leibniz

    def to_dict(self) -> dict:
        return asdict(self)


def energy_report(p: PhaseState, s: float, cutoff: int,
                  equation: str = "nlkg", beta: float = 0.0) -> EnergyReport:
    """Assemble all diagnostics; the rate terms are filled only when s is
    an even integer >= 2 (they are undefined otherwise)."""
    _check_equation(equation, beta)
    try:
        rate = energy_rate_terms(p, s, cutoff, equation, beta)
        highlow, mass, leib = rate.highlow, rate.mass, rate.leibniz
    except UnsupportedParameterError:
        highlow = mass = leib = None
    chaos = chaos_components(p.u, s, cutoff, equation)
    return EnergyReport(
        equation=equation,
        s=s,
        cutoff=cutoff,
        beta=beta,
        energy=hamiltonian(p, equation, beta),
        truncated=truncated_energy(p, cutoff, equation, beta),
        renormalized=renormalized_energy(p, s, cutoff, equation, beta),
        quartic_corr=quartic_correction(p.u, s, cutoff, equation),
        rate_highlow=highlow,
        rate_mass=mass,
        rate_leibniz=leib,
        chaos_double_pair=chaos.double_pair,
        chaos_single_pair=chaos.single_pair,
        chaos_no_pair=chaos.no_pair,
        chaos_double_pair_renorm=chaos.double_pair_renorm,
    )
