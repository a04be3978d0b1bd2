"""Monte Carlo verification experiments over the Gaussian ensembles.

Every experiment reduces to the same primitive: draw states by counter
index, evaluate one or more named scalar functionals on each, and form
weighted empirical L^p norms (the weights are the energy-cutoff
indicators, so a cutoff radius of infinity reproduces plain averages).
States are drawn and evaluated in blocks of consecutive indices, as
stacks of n2 >= 0 half blocks (spectral owns that layout), and a block's
size follows from the sampling window alone: the budget _BLOCK_BYTES over
one state's working set (_state_bytes).  Per-sample values are pure
functions of (master seed, index), bitwise the same in any block, the
reduction runs over index-ordered arrays, and bootstrap resampling draws
from its own tagged stream, so results are bitwise independent of the
block size and of how the index range is split across workers.

Functionals are addressed by name (plus a small parameter dict) so they
can cross process boundaries; see FUNCTIONALS for the registry, whose
entries check their own parameters before any draw.  Every
entry point takes an EnsembleSpec; the four studies read its variant, s,
beta and seed, and draw each cutoff at its own window.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
# np.percentile imports numpy.ma on first use: load it at start-up, not in a run
import numpy.ma  # noqa: F401

from .energy import _Factors, _even_order
from .measures import _density
from .sampling import (_CUTOFF_RADIUS, _INTEGER, EnsembleSpec, UnsupportedParameterError,
                       _count, _drawer, _refuse)
from .spectral import (_ball, _ball_mask, _multiply, _sup_norms, _symbol, derivative,
                       dyadic_block, quadrature_grid)

MAX_P = 16.0  # empirical L^p beyond this is extreme-value dominated
MIN_SAMPLES = 100
BOOTSTRAP_RESAMPLES = 200
_MAX_REDRAWS = 1000  # consecutive bootstrap redraws that hold no accepted draw


class DegenerateEnsembleError(RuntimeError):
    """The energy cutoff rejected every sample, or so many that bootstrap
    resamples keep holding none."""


def _tag64(tag: str) -> int:
    """Stable 64-bit integer from a label, for derived RNG streams."""
    return int.from_bytes(hashlib.blake2b(tag.encode(), digest_size=8).digest(), "little")


def _tagged_rng(master_seed: int, tag: str) -> np.random.Generator:
    key = np.array([master_seed, _tag64(tag)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# -- result containers --------------------------------------------------------


@dataclass(frozen=True)
class LpEstimate:
    """Weighted empirical L^p norm with a percentile bootstrap interval."""

    p: float
    value: float
    samples: int
    ci_low: float
    ci_high: float
    effective_samples: int  # samples passing the energy cutoff

    @property
    def rel_ci_width(self) -> float:
        return (self.ci_high - self.ci_low) / abs(self.value) if self.value else math.inf


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log abscissa, log ordinate) pairs."""

    abscissae: tuple
    ordinates: tuple
    slope: float
    intercept: float
    residual: float  # rms deviation of log ordinates from the fit


def fit_rate(abscissae, ordinates) -> RateFit:
    xs = np.asarray(abscissae, dtype=float)
    ys = np.asarray(ordinates, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("rate fit needs at least two (x, y) pairs")
    if not (np.all(xs > 0) and np.all(ys > 0)):
        raise ValueError("rate fit needs positive abscissae and ordinates")
    lx, ly = np.log(xs), np.log(ys)
    design = np.column_stack([lx, np.ones_like(lx)])
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - (slope * lx + intercept)
    return RateFit(
        abscissae=tuple(float(x) for x in xs),
        ordinates=tuple(float(y) for y in ys),
        slope=float(slope),
        intercept=float(intercept),
        # two points fit the line exactly: 0, not the rounding noise of resid
        residual=float(np.sqrt(np.mean(resid**2))) if xs.size > 2 else 0.0,
    )


# -- functional registry -------------------------------------------------------


class _Block:
    """A block of drawn states, as half stacks u and v (v is None
    when nothing evaluated on the block reads it), and their factors at
    each cutoff (energy._Factors), shared by every functional evaluated
    on the block and dropped with it."""

    def __init__(self, u: np.ndarray, v: np.ndarray | None, ens: EnsembleSpec):
        self.u, self.v, self.ens = u, v, ens
        self._factors: dict = {}

    def cutoff(self, params: dict) -> int:
        return int(params.get("cutoff", self.ens.truncation_N))

    def factors(self, cutoff: int) -> _Factors:
        if cutoff not in self._factors:
            e = self.ens
            self._factors[cutoff] = _Factors(self.u, self.v, e.s, cutoff, e.equation, e.beta)
        return self._factors[cutoff]

    def cutoff_indicator(self) -> np.ndarray:
        e = self.ens
        if math.isinf(e.energy_cutoff_r):
            return np.ones(len(self.u))
        energy = self.factors(e.truncation_N).truncated_energy
        return (energy <= e.energy_cutoff_r).astype(float)


def _reads_v(params: dict) -> bool:
    return True


# parameter -> (test, rule) of the values a column may give it
_RULES = {
    **{key: (_count, f"{key} {_INTEGER[1]}") for key in ("cutoff", "lower_cutoff", "block")},
    "field": (lambda v: v in ("u", "v"), "field must be 'u' or 'v'"),
    "order": (lambda v: isinstance(v, (tuple, list)) and len(v) == 2 and all(map(_count, v)),
              "order must be a pair of integers >= 0"),
    "radius": (_CUTOFF_RADIUS[0], "cutoff radius must be positive (or inf)"),
}


@dataclass(frozen=True)
class Functional:
    """One registry entry, FUNCTIONALS[name].  `degree` is the polynomial
    chaos degree in the Gaussian coordinates (needed by chaos_growth_check;
    None when the functional is not homogeneous), `requires` and `optional`
    the parameters without and with a default, `evaluate(block, params)` the
    values on the states of the _Block, one per state, `reads_v(params)`
    whether those read the velocity (a block draws v only when something
    evaluated on it does), and `s_rule(s)` raises UnsupportedParameterError
    at an s the entry is not studied at."""

    name: str
    degree: int | None
    requires: tuple
    evaluate: Callable
    reads_v: Callable = lambda params: False
    optional: tuple = ("cutoff",)
    s_rule: Callable = lambda s: None


def _at_cutoff(name: str, degree: int | None, read: Callable, **kwargs) -> Functional:
    """The entry whose values are read(factors) at the column's cutoff."""
    return Functional(name, degree, (), lambda block, params: read(
        block.factors(block.cutoff(params))), **kwargs)


def _gap(name: str, read: Callable) -> Functional:
    """read(factors) at the column's cutoff minus read(factors) at its lower_cutoff."""
    return Functional(name, 4, ("lower_cutoff",), lambda block, params: (
        read(block.factors(block.cutoff(params)))
        - read(block.factors(int(params["lower_cutoff"])))))


def _sup_field(params: dict) -> str:
    return params.get("field", "u")


def _block_sup_norm(block, params) -> np.ndarray:
    g = _ball(block.u if _sup_field(params) == "u" else block.v, block.cutoff(params))
    g = _multiply(g, dyadic_block(int(params["block"])))
    o1, o2 = params.get("order", (0, 0))
    if (o1, o2) != (0, 0):
        g = _multiply(g, derivative(int(o1), int(o2)))
    return _sup_norms(g)


def _density_weight(block, params) -> np.ndarray:
    return _density(block.factors(block.cutoff(params)), float(params["radius"]))


_RATE = {"reads_v": _reads_v, "s_rule": _even_order}  # the rate terms read v, need even s
# name -> Functional; `cutoff` defaults to the ensemble's truncation_N
FUNCTIONALS: dict = {entry.name: entry for entry in (
    _at_cutoff("energy_rate_total", 4, lambda f: f.rate.total, **_RATE),
    _at_cutoff("energy_rate_highlow", 4, lambda f: f.rate.highlow, **_RATE),
    _at_cutoff("energy_rate_mass", 4, lambda f: f.rate.mass, **_RATE),
    _at_cutoff("energy_rate_leibniz", 4, lambda f: f.rate.leibniz, **_RATE),
    _at_cutoff("quartic_correction", 4, lambda f: f.quartic_correction),
    _gap("quartic_correction_gap", lambda f: f.quartic_correction),
    _gap("chaos_double_pair_renorm_gap", lambda f: f.chaos.double_pair_renorm),
    _gap("chaos_single_pair_gap", lambda f: f.chaos.single_pair),
    _gap("chaos_no_pair_gap", lambda f: f.chaos.no_pair),
    _at_cutoff("wick_mass", 2, lambda f: f.wick_mass),
    Functional("block_sup_norm", None, ("block",), _block_sup_norm,
               lambda params: _sup_field(params) == "v", ("cutoff", "order", "field")),
    Functional("density_weight", None, ("radius",), _density_weight, _reads_v),
    _at_cutoff("truncated_energy", None, lambda f: f.truncated_energy, reads_v=_reads_v),
    Functional("scalar_gaussian", 1, (), lambda block, params: (
        block.u[:, block.ens.sample_max_mode, 0].real), optional=()),
)}

# Bytes a block's states may hold at once; it sets the block size from the
# sampling window alone.  2.25 MiB holds two states at window 32 and gives
# blocks of 29, 7, 2 and 1 states at windows 8, 16, 32 and 64, each with a
# traced peak of at most 2.3 MiB (tests/test_montecarlo.py bounds it).
_BLOCK_BYTES = 9 << 18


def _state_bytes(window: int) -> int:
    """One state's working set in a block at the window: the five factors'
    quadrature grids, its share of the one spectrum grid_stack fills in
    turn, and seven half blocks (u, v, u_N, v_N and the three smoothed
    factors)."""
    grid, half = quadrature_grid(window), 16 * (2 * window + 1) * (window + 1)
    return 8 * 5 * grid * grid + 16 * grid * (grid // 2 + 1) + 7 * half


def _block_size(window: int) -> int:
    return max(1, _BLOCK_BYTES // _state_bytes(window))


def _eval_block(ens: EnsembleSpec, funcs: tuple, start: int, stop: int) -> np.ndarray:
    """Evaluate every functional plus the cutoff weight on indices
    [start, stop), a block of consecutive indices at a time; module-level
    so worker processes can import it.  v is drawn only when the cutoff
    or a functional reads it."""
    entries = [(FUNCTIONALS[name].evaluate, params) for name, params in funcs]
    with_v = (not math.isinf(ens.energy_cutoff_r)
              or any(FUNCTIONALS[name].reads_v(params) for name, params in funcs))
    size = _block_size(ens.sample_max_mode)
    out = np.empty((stop - start, len(funcs) + 1))
    draw = _drawer(ens, with_v)
    for lo in range(start, stop, size):
        hi = min(lo + size, stop)
        block = _Block(*draw(lo, hi), ens)
        rows = out[lo - start:hi - start]
        for col, (evaluate, params) in enumerate(entries):
            rows[:, col] = evaluate(block, params)
        rows[:, -1] = block.cutoff_indicator()
    return out


def _check_columns(ens: EnsembleSpec, funcs) -> tuple:
    """funcs as (name, params dict) columns, refused as collect_values says."""
    funcs = tuple((name, dict(params or {})) for name, params in funcs)
    for name, params in funcs:
        entry = FUNCTIONALS.get(name)
        if entry is None:
            raise UnsupportedParameterError(f"unknown functional {name!r}")
        if not set(entry.requires) <= set(params) <= set(entry.requires + entry.optional):
            raise UnsupportedParameterError(
                f"functional {name!r} takes the parameters {entry.requires} and optionally "
                f"{entry.optional}, got {sorted(params)}")
        entry.s_rule(ens.s)
        _refuse(*((f"functional {name!r}", _RULES[key], value) for key, value in params.items()))
    return funcs


def collect_values(ens: EnsembleSpec, funcs, samples: int, *, workers: int = 1):
    """(values, weights) of draws 0, ..., samples - 1 of ens: a column of
    values per (name, params) pair, FUNCTIONALS[name] with params, and the
    energy-cutoff weights.  params holds the entry's `requires` and any of
    its `optional` (`cutoff` defaults to ens.truncation_N); a column with an
    unknown name, a missing or unread parameter, a parameter value outside
    its rule in _RULES, or an ens.s its entry's s_rule refuses is refused
    before any draw.  All columns read the same draws, so columns at several
    cutoffs draw the window once.  The output is the same for every worker
    count."""
    funcs = _check_columns(ens, funcs)
    if workers <= 1 or samples < 2 * workers:
        out = _eval_block(ens, funcs, 0, samples)
    else:
        from concurrent.futures import ProcessPoolExecutor  # slow to import; pools only

        bounds = np.linspace(0, samples, workers + 1).astype(int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_eval_block, ens, funcs, int(a), int(b))
                       for a, b in zip(bounds[:-1], bounds[1:])]
            out = np.concatenate([f.result() for f in futures], axis=0)
    return out[:, :-1], out[:, -1]


def _draw(ens: EnsembleSpec, columns, samples: int, workers: int) -> tuple:
    """The study primitive: one (label, values, weights) series per
    (label, name, params) column, all on the same draws of `ens`.  The
    series are what each study estimates from and what it reports raw."""
    values, weights = collect_values(ens, [(name, params) for _, name, params in columns],
                                     samples, workers=workers)
    return tuple((label, values[:, col], weights)
                 for col, (label, _, _) in enumerate(columns))


# -- the L^p estimator ---------------------------------------------------------


def _weighted_norm(abs_pow: np.ndarray, weights: np.ndarray, p: float) -> float:
    total = weights.sum()
    if total <= 0:
        return math.nan
    return float((float(abs_pow @ weights) / total) ** (1.0 / p))


def _estimate_from_values(values: np.ndarray, weights: np.ndarray, p: float,
                          ens: EnsembleSpec, tag: str) -> LpEstimate:
    n = values.size
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise FloatingPointError(f"{tag}: {bad} of {n} draws are not finite")
    effective = int(round(weights.sum()))
    if effective == 0:
        raise DegenerateEnsembleError(
            f"energy cutoff r={ens.energy_cutoff_r} rejected all {n} samples")
    abs_pow = np.abs(values) ** p
    value = _weighted_norm(abs_pow, weights, p)
    rng = _tagged_rng(ens.master_seed, f"bootstrap:{tag}:p={p!r}:n={n}")
    norms = np.empty(BOOTSTRAP_RESAMPLES)
    for b in range(BOOTSTRAP_RESAMPLES):
        for _ in range(1 + _MAX_REDRAWS):  # a resample of rejected states only has no norm
            idx = rng.integers(0, n, size=n)
            norm = _weighted_norm(abs_pow[idx], weights[idx], p)
            if not math.isnan(norm):
                break
        else:
            raise DegenerateEnsembleError(
                f"{tag}, p={p}: {_MAX_REDRAWS} bootstrap redraws in a row held no "
                f"accepted sample ({effective} of {n} accepted)")
        norms[b] = norm
    lo, hi = np.percentile(norms, [2.5, 97.5])
    return LpEstimate(
        p=p,
        value=value,
        samples=n,
        ci_low=float(min(lo, value)),
        ci_high=float(max(hi, value)),
        effective_samples=effective,
    )


# -- study argument rules -----------------------------------------------------
# Each is a (test, refusal text) pair or a check of several values returning the
# text, run by sampling._refuse.

_P = (lambda p: not isinstance(p, bool) and 1 <= p <= MAX_P, f"must lie in [1, {MAX_P}]")
_P_LIST = (lambda v: all(map(_P[0], v)), f"each p must lie in [1, {MAX_P}]")
_P_FIT = (lambda v: len(set(v)) >= 2 and _P_LIST[0](v), f"needs >= 2 distinct "
          f"entries, each in [1, {MAX_P}] (the growth fit in p needs two points)")
_SAMPLES = (lambda n: n >= MIN_SAMPLES, f"must be >= {MIN_SAMPLES}")
_NONEMPTY = (lambda v: len(v) > 0, "must be nonempty")
_REFERENCE = (lambda n: n >= 1, "must be >= 1")
_TAIL_REFERENCE = (lambda n: n >= 2, "must be >= 2")  # room for one M >= 1 below it
_INTEGERS = (lambda v: all(map(_count, v)), "must hold integers >= 0 only")
_CUTOFFS = (lambda v: min(v) >= 1, "cutoffs must be >= 1")
_DECAY_FIT = (lambda v: len(set(v)) >= 2 and min(v) >= 1,
              "needs >= 2 distinct cutoffs, each >= 1 (the decay fit needs two points)")
_BLOCK_FIT = (_DECAY_FIT[0], "needs >= 2 distinct blocks, each in [1, N] (the moment-growth "
              "fit needs two points; a block M > N is empty in |n| <= N)")
_THRESHOLDS = (lambda v: all(a >= 0 for a in v), "thresholds must be >= 0")
_RADIUS = (lambda r: r in ("auto", "inf") or _RULES["radius"][0](r),
           'must be > 0, "auto" or "inf"')
_UNCONDITIONED = (math.isinf, "studies draw unconditioned")  # the energy_cutoff_r of a study
_CHAOS_DEGREE = (lambda name: getattr(FUNCTIONALS.get(name), "degree", None) is not None,
                 "has no declared chaos degree")


def _repeated(what: str):
    """Check: the first entry of a list that repeats (each cutoff is drawn once)."""
    return lambda v: next((f"{what} {m} is repeated" for i, m in enumerate(v)
                           if m in v[:i]), None)


def _below(reference: str):
    """Check: every lower cutoff M lies below the reference cutoff."""
    return lambda lower, ref: None if max(lower) < ref else f"every M must be < {reference}"


def _within(blocks, cutoff: int):
    """Check: no block lies beyond the cutoff, where it is empty."""
    return None if max(blocks) <= cutoff else _BLOCK_FIT[1]


def _reached(blocks, cutoff: int, order):
    """Check: on each block the derivative is nonzero at some mode of the
    ball |n| <= cutoff, or the block's column would be 0 in every draw."""
    seen = _ball_mask(cutoff, cutoff) * _symbol(derivative(*order), cutoff)
    empty = [m for m in blocks if not (seen * _symbol(dyadic_block(m), cutoff)).any()]
    return (f"the derivative of order {tuple(order)} is 0 on the blocks {empty} "
            f"inside |n| <= {cutoff}") if empty else None


def _default_reference(lower) -> int:
    return 2 * max(lower, default=0)  # a gap study's reference cutoff when it names none


def _cutoff_list(arg: str, cutoffs, rule, what: str = "cutoff") -> tuple:
    """The rules of a list of cutoffs or blocks, for _refuse."""
    return tuple((arg, r, cutoffs) for r in (_NONEMPTY, _INTEGERS, rule, _repeated(what)))


def estimate_lp(functional: str, ens: EnsembleSpec, p: float, samples: int, *,
                params: dict | None = None, workers: int = 1) -> LpEstimate:
    """Weighted empirical L^p norm of one functional under the cutoff
    ensemble.  Deterministic given (ens, p, samples)."""
    _refuse(("p", _P, p), ("samples", _SAMPLES, samples))
    tag = f"{functional}:{sorted((params or {}).items())}"
    ((_, values, weights),) = _draw(ens, [(tag, functional, params)], samples, workers)
    return _estimate_from_values(values, weights, p, ens, tag)


# -- cutoff radius resolution --------------------------------------------------


def resolve_radius(radius, ens: EnsembleSpec, *, workers: int = 1) -> float:
    """Turn a configured radius into a number.

    Numbers and "inf" pass through; "auto" is the pilot's radius at
    ens.truncation_N (_pilot_radii).
    """
    _refuse(("radius", _RADIUS, radius))
    if radius != "auto":
        return float(radius)
    return _pilot_radii(ens, [ens.truncation_N], workers)[0]


def _pilot_radii(ens: EnsembleSpec, cutoffs, workers: int) -> list:
    """The "auto" radius at each cutoff: the 0.9 quantile of the truncated
    energy at that cutoff over 1,000 pilot states of ens's window, drawn
    once for every cutoff on `workers` processes, from a seed derived from
    the master seed (so they never reuse the estimate indices)."""
    pilot = replace(ens, master_seed=_tag64(f"pilot-radius:{ens.master_seed}"),
                    energy_cutoff_r=math.inf)
    energies, _ = collect_values(pilot, [("truncated_energy", {"cutoff": c}) for c in cutoffs],
                                 1000, workers=workers)
    return [float(np.quantile(column, 0.9)) for column in energies.T]


# -- experiments ---------------------------------------------------------------
# Every study draws its columns through _draw on _at_window of its ensemble
# and reports the drawn series as `raw`: ((label, values, weights), ...).


def _at_window(ens: EnsembleSpec, n: int) -> EnsembleSpec:
    """The base ensemble at sampling window and cutoff n.  The studies draw
    unconditioned (lp_growth_experiment conditions through its radius), so
    a finite energy cutoff on the base is refused."""
    _refuse(("energy_cutoff_r", _UNCONDITIONED, ens.energy_cutoff_r))
    return replace(ens, sample_max_mode=n, truncation_N=n)


@dataclass(frozen=True)
class EstimateRow:
    cutoff: int
    p: float
    estimate: LpEstimate


@dataclass(frozen=True)
class GrowthStudyResult:
    """L^p norms of the energy-rate total across cutoffs, with growth
    fits in p and the spread across cutoffs at each fixed p."""

    rows: tuple            # EstimateRow per (cutoff, p)
    p_fits: tuple          # (cutoff, RateFit of value against p)
    spread_by_p: tuple     # (p, max value / min value over cutoffs)
    radii: tuple           # (cutoff, resolved radius)
    raw: tuple             # one series per cutoff


def lp_growth_experiment(ens: EnsembleSpec, cutoff_list, p_list, radius, samples: int, *,
                         functional: str = "energy_rate_total",
                         workers: int = 1) -> GrowthStudyResult:
    """Growth of the L^p norms in p and their uniformity in the cutoff.

    One ensemble per cutoff (sampling window = cutoff), conditioned on
    the resolved radius; values are drawn once per cutoff and reused
    across all p.
    """
    _refuse(*_cutoff_list("cutoff_list", cutoff_list, _CUTOFFS), ("p_list", _P_FIT, p_list),
            ("samples", _SAMPLES, samples), ("radius", _RADIUS, radius))
    _check_columns(ens, [(functional, None)])  # before the first pilot draws
    rows, fits, radii, raw = [], [], [], []
    for cutoff in cutoff_list:
        spec = _at_window(ens, cutoff)
        r = resolve_radius(radius, spec, workers=workers)
        spec = replace(spec, energy_cutoff_r=r)
        radii.append((cutoff, r))
        series = _draw(spec, [(f"{functional}:N={cutoff}", functional, None)],
                       samples, workers)
        raw.extend(series)
        ((label, values, weights),) = series
        ests = [_estimate_from_values(values, weights, p, spec, label) for p in p_list]
        rows.extend(EstimateRow(cutoff, p, e) for p, e in zip(p_list, ests))
        fits.append((cutoff, fit_rate(p_list, [e.value for e in ests])))
    spread = [(p, max(row.estimate.value for row in rows if row.p == p)
               / min(row.estimate.value for row in rows if row.p == p)) for p in p_list]
    return GrowthStudyResult(rows=tuple(rows), p_fits=tuple(fits),
                             spread_by_p=tuple(spread), radii=tuple(radii),
                             raw=tuple(raw))


def _gap_columns(names, lower) -> list:
    """(label, name, params) columns of cutoff gaps against each lower M."""
    return [(f"{name}:M={m}", name, {"lower_cutoff": m}) for name in names for m in lower]


@dataclass(frozen=True)
class ConvergenceStudyResult:
    """Decay of ||F_ref - F_M||_{L^p} as the lower cutoff M grows."""

    reference_cutoff: int
    rows: tuple            # EstimateRow per M (cutoff field holds M)
    fit: RateFit
    component_fits: tuple  # (component name, RateFit), empty unless requested
    raw: tuple             # one quartic_correction_gap series per M


def convergence_rate_study(ens: EnsembleSpec, lower_cutoffs, p: float, samples: int, *,
                           reference_cutoff: int | None = None, components: bool = False,
                           workers: int = 1) -> ConvergenceStudyResult:
    """Rate at which the quartic correction at a frozen reference cutoff
    is approximated by lower cutoffs, in L^p of the plain ensemble."""
    lower = sorted(lower_cutoffs)
    n_ref = _default_reference(lower) if reference_cutoff is None else reference_cutoff
    _refuse(*_cutoff_list("lower_cutoffs", lower, _DECAY_FIT),
            ("reference_cutoff", _INTEGER, n_ref), ("reference_cutoff", _REFERENCE, n_ref),
            ("p", _P, p), ("samples", _SAMPLES, samples),
            ("lower_cutoffs", _below("reference_cutoff"), lower, n_ref))
    ens = _at_window(ens, n_ref)
    names = ("quartic_correction_gap",)
    if components:
        names += ("chaos_double_pair_renorm_gap", "chaos_single_pair_gap",
                  "chaos_no_pair_gap")
    series = _draw(ens, _gap_columns(names, lower), samples, workers)
    ests = [_estimate_from_values(values, weights, p, ens, label)
            for label, values, weights in series]
    n = len(lower)
    fits = [(name, fit_rate(lower, [e.value for e in ests[k * n:(k + 1) * n]]))
            for k, name in enumerate(names)]
    rows = tuple(EstimateRow(m, p, est) for m, est in zip(lower, ests))
    return ConvergenceStudyResult(reference_cutoff=n_ref, rows=rows, fit=fits[0][1],
                                  component_fits=tuple(fits[1:]),
                                  raw=series[:len(lower)])


@dataclass(frozen=True)
class ChaosGrowthRow:
    p: float
    norm: float
    ratio: float           # ||X||_p / ||X||_2
    bound: float           # (p-1)^(degree/2)
    rel_ci_width: float    # combined relative bootstrap widths
    within_bound: bool     # ratio <= bound * (1 + 3 * rel_ci_width)


@dataclass(frozen=True)
class ChaosGrowthResult:
    degree: int
    base_norm: float       # ||X||_2
    radius: float          # the resolved energy cutoff radius of the draws
    rows: tuple
    raw: tuple             # the one drawn series


def chaos_growth_check(functional: str, ens: EnsembleSpec, p_list, samples: int, *,
                       radius="inf", workers: int = 1) -> ChaosGrowthResult:
    """Hypercontractive growth check: for a functional of declared chaos
    degree k, ||X||_p / ||X||_2 must stay below (p-1)^(k/2).  The draws are
    ens's, conditioned on the resolved radius (resolve_radius at ens's
    window and cutoff), and ens itself must be unconditioned."""
    _refuse(("functional", _CHAOS_DEGREE, functional), ("p_list", _NONEMPTY, p_list),
            ("p_list", _P_LIST, p_list), ("samples", _SAMPLES, samples),
            ("radius", _RADIUS, radius),
            ("energy_cutoff_r", _UNCONDITIONED, ens.energy_cutoff_r))
    _check_columns(ens, [(functional, None)])  # before an "auto" pilot draws
    degree = FUNCTIONALS[functional].degree
    r = resolve_radius(radius, ens, workers=workers)
    ens = replace(ens, energy_cutoff_r=r)
    tag = f"{functional}:[]"  # estimate_lp's tag of a parameterless column
    series = _draw(ens, [(tag, functional, None)], samples, workers)
    ((_, values, weights),) = series
    base = _estimate_from_values(values, weights, 2.0, ens, tag)
    rows = []
    for p in p_list:
        est = _estimate_from_values(values, weights, p, ens, tag)
        ratio = est.value / base.value
        bound = (p - 1.0) ** (degree / 2.0)
        rel_w = est.rel_ci_width + base.rel_ci_width
        rows.append(ChaosGrowthRow(
            p=p, norm=est.value, ratio=ratio, bound=bound, rel_ci_width=rel_w,
            within_bound=bool(ratio <= bound * (1.0 + 3.0 * rel_w)),
        ))
    return ChaosGrowthResult(degree=degree, base_norm=base.value, radius=r, rows=tuple(rows),
                             raw=series)


def _admissible_order(order, s: float, field: str):
    """Check: the total derivative order is at most the field's regularity,
    s for u and s - 1 for v."""
    limit, total = (s if field == "u" else s - 1), order[0] + order[1]
    return None if total <= limit else (
        f"total order {total} exceeds the admissible {limit} for field '{field}'")


@dataclass(frozen=True)
class SupNormStudyResult:
    """L^p moments of dyadic-block sup norms across block frequencies."""

    order: tuple
    field: str
    rows: tuple            # EstimateRow per block (cutoff field holds M)
    fit: RateFit
    raw: tuple             # one series per block


def sup_norm_moment_study(ens: EnsembleSpec, order, block_list, cutoff: int, p: float,
                          samples: int, *, field: str = "u",
                          workers: int = 1) -> SupNormStudyResult:
    """Sup norms of derivative dyadic blocks of the low-pass field: the
    L^p moments should grow at most sub-polynomially in the block
    frequency when the derivative order is admissible.  The order and field
    are refused by the rules of the block_sup_norm column (_RULES)."""
    blocks = sorted(block_list)
    _refuse(("cutoff", _INTEGER, cutoff), ("cutoff", _REFERENCE, cutoff), ("p", _P, p),
            ("samples", _SAMPLES, samples),
            *_cutoff_list("block_list", blocks, _BLOCK_FIT, "block"),
            ("block_list", _within, blocks, cutoff), ("order", _RULES["order"], order),
            ("field", _RULES["field"], field), ("order", _admissible_order, order, ens.s, field),
            ("block_list", _reached, blocks, cutoff, order))
    columns = [(f"block_sup_norm:M={m}", "block_sup_norm",
                {"order": order, "block": m, "field": field}) for m in blocks]
    ens = _at_window(ens, cutoff)
    series = _draw(ens, columns, samples, workers)
    o1, o2 = (int(order[0]), int(order[1]))  # the columns admitted a pair of integers
    rows = [EstimateRow(m, p, _estimate_from_values(values, weights, p, ens,
                                                    f"{label}:{field}:{(o1, o2)}"))
            for m, (label, values, weights) in zip(blocks, series)]
    positive = [(m, row.estimate.value) for m, row in zip(blocks, rows)
                if row.estimate.value > 0]
    if len(positive) < 2:  # the p-th powers underflow, or the derivative is 0 on the block
        zero = [m for m in blocks if m not in dict(positive)]
        raise FloatingPointError(f"sup_norm_moment_study: the L^{p:g} moment is 0 at the "
                                 f"blocks {zero}, too few nonzero to fit a rate")
    fit = fit_rate([m for m, _ in positive], [v for _, v in positive])
    return SupNormStudyResult(order=(o1, o2), field=field, rows=tuple(rows), fit=fit,
                              raw=series)


@dataclass(frozen=True)
class TailRow:
    lower_cutoff: int
    threshold: float
    exceedances: int
    probability: float     # exceedances / samples, or the 1/samples bound
    is_upper_bound: bool   # true when no exceedance was observed


@dataclass(frozen=True)
class TailStudyResult:
    reference_cutoff: int
    rows: tuple
    threshold_monotone: bool  # within each M, probability non-increasing in threshold
    cutoff_monotone: bool     # at each threshold, probability non-increasing in M
    raw: tuple                # one quartic_correction_gap series per M


def tail_estimate_study(ens: EnsembleSpec, reference_cutoff: int, lower_cutoffs,
                        thresholds, samples: int, *, workers: int = 1) -> TailStudyResult:
    """Empirical exceedance probabilities P(|F_ref - F_M| > threshold).

    Tail decay in the threshold and improvement with growing M are the
    two testable signatures; zero observed exceedances are reported as
    the 1/samples resolution bound and flagged."""
    lower = sorted(lower_cutoffs)
    _refuse(("reference_cutoff", _INTEGER, reference_cutoff),
            ("reference_cutoff", _TAIL_REFERENCE, reference_cutoff),
            *_cutoff_list("lower_cutoffs", lower, _CUTOFFS),
            ("lower_cutoffs", _below("reference_cutoff"), lower, reference_cutoff),
            ("thresholds", _THRESHOLDS, thresholds), ("samples", _SAMPLES, samples))
    thresholds = [float(a) for a in thresholds]
    ens = _at_window(ens, reference_cutoff)
    series = _draw(ens, _gap_columns(("quartic_correction_gap",), lower), samples, workers)
    # no exceedance is reported as the 1/samples resolution bound
    rows = [TailRow(m, a, (count := int((np.abs(values) > a).sum())),
                    max(count, 1) / samples, count == 0)
            for m, (_, values, _) in zip(lower, series) for a in thresholds]
    prob_table = {(row.lower_cutoff, row.threshold): row.probability for row in rows}
    thr_sorted = sorted(thresholds)
    threshold_monotone = all(
        prob_table[(m, lo)] >= prob_table[(m, hi)]
        for m in lower for lo, hi in zip(thr_sorted, thr_sorted[1:]))
    cutoff_monotone = all(
        prob_table[(m_small, a)] >= prob_table[(m_big, a)]
        for a in thresholds for m_small, m_big in zip(lower, lower[1:]))
    return TailStudyResult(reference_cutoff=reference_cutoff, rows=tuple(rows),
                           threshold_monotone=threshold_monotone,
                           cutoff_monotone=cutoff_monotone, raw=series)
