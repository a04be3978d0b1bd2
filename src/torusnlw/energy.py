"""Energies, renormalized energies, and their decompositions.

Three conserved-energy families share one cubic structure,
1/2 int (base^a u)^2 + 1/2 int v^2 + 1/4 int u^4:

    nlkg       (1/2) int u^2 + |grad u|^2 + v^2  + (1/4) int u^4
    nlw        (1/2) int |grad u|^2 + v^2        + (1/4) int u^4
    nlkg_beta  (1/2) int ((1-Lap)^(b/2) u)^2 + v^2 + (1/4) int u^4

sampling.FAMILIES owns each family's smoothing base, linear order a,
wave flag and counterterm, and every functional here reads it.  The
truncated versions keep the quadratic part on the full field and
truncate only the quartic argument.  The renormalized energy at smoothing
order s adds a quartic correction: 3/2 the smoothed-mass-weighted quartic
minus 3/2 counterterm times the low-pass mass (no subtraction for the
beta family).  Its time derivative along the truncated flow splits into
three probabilistically tame terms (rate_highlow / rate_mass /
rate_leibniz below); the Leibniz term, the commutator remainder of
base^s(u^3) paired with v, is 3 int (base^s v)(base^s u) u^2 - int (base^2s v) u^3.

Every quartic integral is one grid mean: four fields of window K have a
product with modes up to 4K, so its mean on quadrature_grid(K) >= 4K + 1
points per direction is exact.  Quadratic quantities are lattice sums.
The renormalized functionals of one state at one cutoff share their
factors: u_N, v_N and their smoothings are each built and sent to the
grid once per state and cutoff (_Factors), however many of the
correction, its chaos split, the rate terms and the truncated energy are
asked for.  _Factors holds a block of states, as coefficient stacks with
a leading block axis: Monte Carlo evaluates many draws at once, and the
public functions here are blocks of one.  Each state's grid means and
lattice sums reduce over that state's own flattened row, so a value does
not depend on the block it was evaluated in.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from .sampling import EQUATIONS, FAMILIES, _PLAIN
from .spectral import (
    PhaseState,
    SpectralField,
    _ball,
    _multiply,
    _pairing,
    _power,
    _row_sum,
    _symbol,
    _weighted_mass,
    grid_stack,
    quadrature_grid,
)

class UnsupportedParameterError(ValueError):
    """A parameter is outside the regime an operation is defined for."""


def _check_equation(equation: str, beta: float | None = None) -> None:
    """Known equation family, and beta > 1 for nlkg_beta when beta is given."""
    if equation not in FAMILIES:
        raise UnsupportedParameterError(
            f"equation must be one of {EQUATIONS}, got {equation!r}")
    if FAMILIES[equation].beta_order and beta is not None and not beta > 1:
        raise UnsupportedParameterError(f"{equation} needs beta > 1, got {beta}")


def _even_order(s: float) -> int:
    if s != int(s) or int(s) % 2 != 0 or int(s) < 2:
        raise UnsupportedParameterError(
            f"the energy rate is studied at even integer s >= 2, got {s}")
    return int(s)


def _product_mean(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Mean of a * b * c * d over each row of (B, grid, grid) stacks,
    multiplied left to right in one temporary; the sum over the count, as
    ndarray.mean takes it."""
    prod = a * b
    prod *= c
    prod *= d
    return _row_sum(prod) / prod[0].size


# -- a block of states' factors at one cutoff ---------------------------------


def _energy(u: np.ndarray, v: np.ndarray, base: str, order: float,
            quartic: np.ndarray) -> np.ndarray:
    """1/2 int (base^order u)^2 + 1/2 int v^2, lattice sums of the whole
    fields' coefficient stacks, plus 1/4 the given quartic integrals."""
    quad = _weighted_mass(u, base, order) + _row_sum(np.abs(v) ** 2)
    return 0.5 * quad + 0.25 * quartic


class _Factors:
    """A block of states' factors at one cutoff and the functionals built
    on them, one value per state.

    u and v are (B, 2K + 1, 2K + 1) coefficient stacks of the states'
    window; v may be None when no functional asked for reads it.  u_N,
    v_N, base^s u_N, base^s v_N and base^2s v_N are each built once, on
    first use, and sent to quadrature_grid once; the factors one
    functional asks for go in one grid_stack call, and every quartic
    functional that needs a factor shares its grid values, the Leibniz
    rate term included (two grid means, of sv su uN uN and s2v uN uN uN).
    A Monte Carlo block keeps one per cutoff while it is evaluated; the
    public functions below build a block of one (_one).  `s` may be None
    for the truncated energy.
    """

    def __init__(self, u: np.ndarray, v: np.ndarray | None, s: float | None,
                 cutoff: int, equation: str, beta: float = 0.0):
        self.u, self.v, self.s = u, v, s
        self.cutoff, self.equation, self.beta = cutoff, equation, beta
        self.family = FAMILIES[equation]
        self.base = self.family.base
        self.uN = _ball(u, cutoff)
        # v shares u's window, so every factor fits this grid
        self.grid = quadrature_grid(self.uN.shape[-1] // 2)
        self._values: dict = {}

    @cached_property
    def vN(self) -> np.ndarray:
        return _ball(self.v, self.cutoff)

    @cached_property
    def su(self) -> np.ndarray:
        return _multiply(self.uN, _power(self.base, self.s))

    @cached_property
    def sv(self) -> np.ndarray:
        return _multiply(self.vN, _power(self.base, self.s))

    @cached_property
    def s2v(self) -> np.ndarray:
        return _multiply(self.vN, _power(self.base, 2 * self.s))

    def values(self, *keys: str) -> dict:
        """Grid values of the factors named `keys`, (B, grid, grid) each;
        those not on the grid yet go there in one transform."""
        new = [key for key in dict.fromkeys(keys) if key not in self._values]
        if new:
            stack = grid_stack([getattr(self, key) for key in new], self.grid)
            self._values.update(zip(new, stack))
        return self._values

    def _mean(self, a, b, c, d) -> np.ndarray:
        """int of the product of four factors, one grid mean per state."""
        vals = self.values(a, b, c, d)
        return _product_mean(vals[a], vals[b], vals[c], vals[d])

    @cached_property
    def smoothed_quartic(self) -> np.ndarray:
        """3/2 int (base^s u_N)^2 u_N^2: the quartic of the correction and
        the total of its chaos split."""
        return 1.5 * self._mean("su", "su", "uN", "uN")

    @cached_property
    def low_quartic(self) -> np.ndarray:
        """int u_N^4."""
        return self._mean("uN", "uN", "uN", "uN")

    @property
    def sigma(self) -> float:  # the counterterm at the cutoff and order s
        return self.family.counterterm(self.cutoff, self.s)

    @cached_property
    def quartic_correction(self) -> np.ndarray:
        return self.smoothed_quartic - 1.5 * self.sigma * _pairing(self.uN, self.uN)

    @property
    def wick_mass(self) -> np.ndarray:
        return _weighted_mass(self.uN, self.base, self.s) - self.sigma

    @cached_property
    def truncated_energy(self) -> np.ndarray:
        order = self.family.order(self.beta)
        return _energy(self.u, self.v, self.base, order, self.low_quartic)

    @property
    def renormalized_energy(self) -> np.ndarray:
        u, v, s = self.u, self.v, self.s
        order = s + self.family.order(self.beta)
        quad = _weighted_mass(v, self.base, s) + _weighted_mass(u, self.base, order)
        total = 0.5 * quad + self.quartic_correction
        if self.family.wave:
            total += _energy(u, v, *_PLAIN, self.low_quartic)
        return total

    @cached_property
    def chaos(self) -> ChaosComponents:
        uN, s = self.uN, self.s
        K = uN.shape[-1] // 2
        a = np.abs(uN) ** 2
        w = _symbol(_power(self.base, s), K)  # |symbol of base^(s/2)|^2
        t0 = _row_sum(a)                   # int u^2
        t1 = _row_sum(w**2 * a)            # int (base^s u)^2
        tw = _row_sum(w * a)
        t2w = _row_sum(w**2 * a**2)

        double_pair = 1.5 * t1 * t0
        z = a[:, K, K]  # t2w - w[K, K]^2 z^2 is t2w without n = 0
        single_pair = 3.0 * (tw * tw - t2w) - 1.5 * (t2w - w[K, K] ** 2 * z * z)
        no_pair = self.smoothed_quartic - double_pair - single_pair
        renorm = double_pair - 1.5 * self.sigma * t0
        return ChaosComponents(double_pair, single_pair, no_pair, renorm)

    @cached_property
    def rate(self) -> EnergyRateTerms:
        _even_order(self.s)
        self.values("uN", "vN", "su", "sv", "s2v")  # every factor read below, in one transform
        uN, vN, su = self.uN, self.vN, self.su
        smoothed_mass = _pairing(su, su)
        cross = _pairing(vN, uN)
        highlow = 3.0 * (self._mean("su", "su", "vN", "uN") - smoothed_mass * cross)

        mass = 3.0 * (smoothed_mass - self.sigma) * cross
        if self.family.wave:
            # the plain energy rides along with the modified one; its only
            # non-conserved piece is the mass term, contributing int u v
            mass += cross

        leibniz = (3.0 * self._mean("sv", "su", "uN", "uN")
                   - self._mean("s2v", "uN", "uN", "uN"))
        return EnergyRateTerms(highlow, mass, leibniz)


def _one(u: SpectralField, v: SpectralField | None, s: float | None, cutoff: int,
         equation: str, beta: float = 0.0) -> _Factors:
    """The factors of one state, as a block of one."""
    return _Factors(u.coeffs[None], None if v is None else v.coeffs[None], s, cutoff,
                    equation, beta)


def _first(block_result):
    """Row 0 of a block's ChaosComponents or EnergyRateTerms, as floats."""
    return type(block_result)(*(float(getattr(block_result, f.name)[0])
                                for f in fields(block_result)))


# -- energies ----------------------------------------------------------------


def hamiltonian(p: PhaseState, equation: str = "nlkg", beta: float = 0.0) -> float:
    """Conserved energy of the untruncated equation at the given state: the
    truncated energy at a cutoff 2 max_mode, whose ball holds the window."""
    return truncated_energy(p, 2 * p.max_mode, equation, beta)


def truncated_energy(p: PhaseState, cutoff: int, equation: str = "nlkg",
                     beta: float = 0.0) -> float:
    """Energy conserved by the truncated flow: full-field quadratic part,
    quartic part on the low-pass field only."""
    _check_equation(equation, beta)
    return float(_one(p.u, p.v, None, cutoff, equation, beta).truncated_energy[0])


def quartic_correction(u: SpectralField, s: float, cutoff: int,
                       equation: str = "nlkg") -> float:
    """Renormalized quartic correction

        3/2 int (base^s Pi_N u)^2 (Pi_N u)^2  -  3/2 sigma int (Pi_N u)^2

    with Pi_N the projection onto |n| <= N = cutoff and base/sigma set by
    the equation family (no subtraction for nlkg_beta).  This is the
    log-density of the weighted measure.
    """
    _check_equation(equation)
    return float(_one(u, None, s, cutoff, equation).quartic_correction[0])


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
    return float(_one(p.u, p.v, s, cutoff, equation, beta).renormalized_energy[0])


def wick_renormalized_mass(u: SpectralField, s: float, cutoff: int,
                           equation: str = "nlkg") -> float:
    """int (base^s Pi_N u)^2 minus the matching counterterm; mean zero
    under the reference Gaussian ensemble, a degree-2 polynomial in it."""
    _check_equation(equation)
    return float(_one(u, None, s, cutoff, equation).wick_mass[0])


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
    """Pair/no-pair components of 3/2 int (base^s Pi_N u)^2 (Pi_N u)^2.

    double_pair collects frequency quadruples with two conjugate pairs,
    single_pair those with exactly one, no_pair the rest; they sum to the
    full quartic.  double_pair_renorm subtracts the counterterm mass, so
    double_pair_renorm + single_pair + no_pair is the quartic correction.
    """
    _check_equation(equation)
    return _first(_one(u, None, s, cutoff, equation).chaos)


# -- time derivative of the renormalized energy -------------------------------


@dataclass(frozen=True)
class EnergyRateTerms:
    """d/dt renormalized_energy(Pi_N state) along the truncated flow,
    split into the three probabilistically bounded pieces."""

    highlow: float   # 3 int P!=0[(base^s u)^2] P!=0[v u]
    mass: float      # 3 (int (base^s u)^2 - sigma) int v u  (+ int u v for nlw)
    leibniz: float   # 3 int (base^s v)(base^s u) u^2 - int (base^2s v) u^3

    @property
    def total(self) -> float:
        return self.highlow + self.mass + self.leibniz


def energy_rate_terms(p: PhaseState, s: float, cutoff: int,
                      equation: str = "nlkg", beta: float = 0.0) -> EnergyRateTerms:
    """Exact splitting of the time derivative of the renormalized energy.

    Requires an even integer s >= 2, the paper's scope; the computation
    does not need it.  The Leibniz term is two grid means, of its defining
    identity 3 int (base^s v_N)(base^s u_N) u_N^2 - int (base^2s v_N) u_N^3.
    The rate identity

        d/dt renormalized_energy(Pi_N Phi(t) p) |_{t=0} = total

    holds for every state; see the finite-difference tests.
    """
    _check_equation(equation, beta)
    return _first(_one(p.u, p.v, s, cutoff, equation, beta).rate)


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
    an even integer >= 2 (the paper's scope for the rate)."""
    _check_equation(equation, beta)
    f = _one(p.u, p.v, s, cutoff, equation, beta)
    try:
        rate = _first(f.rate)
        highlow, mass, leib = rate.highlow, rate.mass, rate.leibniz
    except UnsupportedParameterError:
        highlow = mass = leib = None
    chaos = _first(f.chaos)
    return EnergyReport(
        equation=equation,
        s=s,
        cutoff=cutoff,
        beta=beta,
        energy=hamiltonian(p, equation, beta),
        truncated=float(f.truncated_energy[0]),
        renormalized=float(f.renormalized_energy[0]),
        quartic_corr=float(f.quartic_correction[0]),
        rate_highlow=highlow,
        rate_mass=mass,
        rate_leibniz=leib,
        chaos_double_pair=chaos.double_pair,
        chaos_single_pair=chaos.single_pair,
        chaos_no_pair=chaos.no_pair,
        chaos_double_pair_renorm=chaos.double_pair_renorm,
    )
