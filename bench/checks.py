"""Correctness checks for the benchmark's CLI outputs.

Each check compares a command's written outputs with a computation made
apart from the code path that produced them, or with a property the
method must have; none compares with a stored copy of earlier output.
The ``*_reference`` functions build what a check needs from the inputs
(seed and config) and, where noted, from one earlier round's raw values;
they run outside the timed region.  The ``check_*`` functions are pure:
they take parsed outputs and a reference and return a list of problems,
empty when the outputs pass.

CSV numbers are written with ten significant digits, so comparisons of a
CSV value carry a rounding allowance of CSV_REL on top of the stated
tolerance.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

CSV_REL = 1e-9            # two half-units in the tenth significant digit
PILOT_DRAWS = 1000        # resolve_radius("auto"): pilot draws per cutoff...
PILOT_QUANTILE = 0.9      # ...and the quantile of the truncated energy it takes
BINOMIAL_Z = 5.0          # width of the acceptance-fraction band in sigmas
FD_STEP = 1e-4            # central-difference step of the rate check
FD_REL = 1e-5             # rate vs central difference, relative
FD_DRAWS = 2              # draws per cutoff checked by central difference
ORACLE_REL = 1e-10        # FFT gap vs direct-convolution gap, relative
ORACLE_DRAWS = 1          # draws checked against the convolution oracle
ORDER_SLACK = 0.4         # Strang at dt must beat Strang at 2 dt by this factor
FLOW_FLOOR = 2e-9         # relative floor of the flow comparisons (CSV rounding)
LAWSON_STEP = 5e-3        # step of the reference integrator


# -- reading outputs ------------------------------------------------------------


def read_csv(path: Path) -> list:
    """Rows as dicts; cells that parse as numbers become floats."""
    def cell(text: str):
        try:
            return float(text)
        except ValueError:
            return text
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def read_raw(path: Path) -> dict:
    """raw_values.csv as {series label: (values, weights)} in index order."""
    series: dict = {}
    for row in read_csv(path):
        values, weights = series.setdefault(row["series"], ([], []))
        if int(row["index"]) != len(values):
            raise ValueError(f"{path}: series {row['series']} out of index order")
        values.append(row["value"])
        weights.append(row["weight"])
    return {k: (np.array(v), np.array(w)) for k, (v, w) in series.items()}


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _close(value: float, expected: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rel * abs(expected)


def _lp_norm(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    return float((np.sum(weights * np.abs(values) ** p) / np.sum(weights)) ** (1.0 / p))


# -- rate-moments: mc-lp on energy_rate_total ---------------------------------------


def choose_rate_draws(raw: dict, draws: int = FD_DRAWS) -> dict:
    """{series label: indices} with the largest |rate|; a relative check
    is only meaningful away from states whose rate is near zero."""
    return {label: [int(i) for i in np.argsort(-np.abs(values), kind="stable")[:draws]]
            for label, (values, _) in raw.items()}


def rate_reference(s: float, seed: int, draws: dict) -> dict:
    """{(label, index): central difference of the renormalized energy}.

    The state is the ensemble draw projected onto the ball |n| <= N, where
    the truncated flow lives; the difference steps +-FD_STEP along that
    flow with one RK4 step each way.
    """
    from torusnlw import (EnsembleSpec, IntegratorSpec, ModelSpec, PhaseState,
                          evolve, project_ball, renormalized_energy, sample)
    out = {}
    integ = IntegratorSpec("rk4", FD_STEP)
    for label, indices in draws.items():
        cutoff = int(label.rsplit("=", 1)[1])
        ens = EnsembleSpec("mu_s", s, cutoff, cutoff, seed)
        model = ModelSpec("nlkg", cutoff)
        for index in indices:
            st = sample(ens, index)
            st = PhaseState(project_ball(st.u, cutoff), project_ball(st.v, cutoff))
            plus = renormalized_energy(evolve(st, FD_STEP, model, integ), s, cutoff)
            minus = renormalized_energy(evolve(st, -FD_STEP, model, integ), s, cutoff)
            out[(label, index)] = (plus - minus) / (2.0 * FD_STEP)
    return out


def check_rate_moments(estimates: list, raw: dict, samples: int, fd: dict) -> list:
    problems = []
    by_cutoff: dict = {}
    for row in estimates:
        by_cutoff.setdefault(int(row["cutoff"]), []).append(row)
    if not by_cutoff:
        problems.append("estimates.csv has no rows")
    for cutoff, rows in sorted(by_cutoff.items()):
        label = f"energy_rate_total:N={cutoff}"
        if label not in raw:
            problems.append(f"N={cutoff}: no raw values")
            continue
        values, weights = raw[label]
        if values.size != samples or not np.all(np.isfinite(values)):
            problems.append(f"N={cutoff}: {values.size} raw values, expected {samples} finite")
            continue
        rows = sorted(rows, key=lambda r: r["p"])
        # Lyapunov: an L^p norm under a probability measure is non-decreasing in p
        for lo, hi in zip(rows, rows[1:]):
            if not hi["value"] >= lo["value"] * (1.0 - CSV_REL):
                problems.append(f"N={cutoff}: L^{hi['p']:g} {hi['value']} < "
                                f"L^{lo['p']:g} {lo['value']}")
        for row in rows:
            expected = _lp_norm(values, weights, row["p"])
            if not _close(row["value"], expected, 10 * CSV_REL):
                problems.append(f"N={cutoff}, p={row['p']:g}: value {row['value']} is "
                                f"not the weighted L^p norm {expected} of the raw draws")
            if not row["ci_low"] <= row["value"] <= row["ci_high"]:
                problems.append(f"N={cutoff}, p={row['p']:g}: value outside its interval")
        effective = int(rows[0]["effective_samples"])
        if effective != int(round(weights.sum())) or not np.all((weights == 0) | (weights == 1)):
            problems.append(f"N={cutoff}: effective_samples {effective} is not the "
                            "number of raw draws with indicator weight 1")
        sigma = math.sqrt(PILOT_QUANTILE * (1 - PILOT_QUANTILE) * (1 / samples + 1 / PILOT_DRAWS))
        share = effective / samples
        if abs(share - PILOT_QUANTILE) > BINOMIAL_Z * sigma:
            problems.append(f"N={cutoff}: acceptance {share:.3f} is more than "
                            f"{BINOMIAL_Z:g} sigma ({sigma:.4f}) from the pilot "
                            f"quantile {PILOT_QUANTILE}")
    for (label, index), rate in fd.items():
        value = raw[label][0][index] if label in raw else math.nan
        if not _close(value, rate, FD_REL):
            problems.append(f"{label} draw {index}: rate {value} vs central "
                            f"difference {rate} (tolerance {FD_REL:g} relative)")
    return problems


# -- gap-decay: mc-converge of the quartic correction -------------------------------


def choose_gap_draws(raw: dict, draws: int = ORACLE_DRAWS) -> list:
    """Draw indices whose smallest gap, in units of its cutoff's rms gap,
    is largest: a relative comparison needs gaps away from zero."""
    scaled = np.min([np.abs(v) / np.sqrt(np.mean(v ** 2)) for v, _ in raw.values()], axis=0)
    return [int(i) for i in np.argsort(-scaled, kind="stable")[:draws]]


def _quartic_by_convolution(u, s: float, cutoff: int) -> float:
    """3/2 int (J^s u_N)^2 u_N^2 - 3/2 sigma_N int u_N^2 with the quartic as
    the squared L^2 norm of one direct-convolution product, J^s u_N times
    u_N, and sigma_N the lattice sum of 1 / (1 + |n|^2) over the ball."""
    from torusnlw import SpectralField, pointwise_product
    K = u.max_mode
    lo, hi = K - cutoff, K + cutoff + 1
    n = np.arange(-cutoff, cutoff + 1)
    bracket = 1.0 + n[:, None] ** 2 + n[None, :] ** 2
    ball = bracket <= 1 + cutoff ** 2
    coeffs = u.coeffs[lo:hi, lo:hi] * ball
    low = SpectralField(cutoff, coeffs)
    smooth = SpectralField(cutoff, coeffs * bracket ** (s / 2.0))
    prod = pointwise_product(smooth, low, method="direct").coeffs
    mass = float(np.sum(np.abs(coeffs) ** 2))
    sigma = float(np.sum(ball / bracket))
    return 1.5 * float(np.sum(np.abs(prod) ** 2)) - 1.5 * sigma * mass


def gap_reference(s: float, seed: int, lower: list, n_ref: int, indices: list) -> dict:
    """{(M, index): (program gap at full precision, convolution-oracle gap)}."""
    from torusnlw import EnsembleSpec, quartic_correction, sample
    ens = EnsembleSpec("mu_s", s, n_ref, n_ref, seed)
    out = {}
    for index in indices:
        u = sample(ens, index).u
        top_fft = quartic_correction(u, s, n_ref)
        top_direct = _quartic_by_convolution(u, s, n_ref)
        for m in lower:
            out[(m, index)] = (top_fft - quartic_correction(u, s, m),
                               top_direct - _quartic_by_convolution(u, s, m))
    return out


def check_gap_decay(estimates: list, fits: list, raw: dict, samples: int,
                    oracle: dict) -> list:
    problems = []
    rows = sorted(estimates, key=lambda r: r["lower_cutoff"])
    cutoffs = [int(r["lower_cutoff"]) for r in rows]
    gaps = [r["value"] for r in rows]
    if len(rows) < 2 or not all(math.isfinite(g) and g > 0 for g in gaps):
        return [f"gaps {gaps} are not at least two finite positive values"]
    if not all(a > b for a, b in zip(gaps, gaps[1:])):
        problems.append(f"gaps {gaps} do not decrease in M = {cutoffs}")
    for m, row in zip(cutoffs, rows):
        label = f"quartic_correction_gap:M={m}"
        if label not in raw or raw[label][0].size != samples:
            problems.append(f"M={m}: expected {samples} raw values")
            continue
        values = raw[label][0]
        if not _close(row["value"], _lp_norm(values, np.ones_like(values), row["p"]),
                      10 * CSV_REL):
            problems.append(f"M={m}: value {row['value']} is not the L^{row['p']:g} "
                            "norm of the raw gaps")
    total = [f for f in fits if f["component"] == "total"]
    slope = np.polyfit(np.log(cutoffs), np.log(gaps), 1)[0]
    if len(total) != 1 or not total[0]["slope"] < 0:
        problems.append(f"fitted decay slope {total[0]['slope'] if total else None} "
                        "is not negative")
    elif not _close(total[0]["slope"], slope, 1e-7):
        problems.append(f"fitted slope {total[0]['slope']} is not the least-squares "
                        f"slope {slope} of log gap on log M")
    components = {f["component"] for f in fits} - {"total"}
    if len(components) != 3 or not all(math.isfinite(f["slope"]) for f in fits):
        problems.append(f"component fits {sorted(components)}: expected three finite")
    for (m, index), (program, direct) in oracle.items():
        if not _close(program, direct, ORACLE_REL):
            problems.append(f"M={m} draw {index}: FFT gap {program} vs direct "
                            f"convolution {direct} (tolerance {ORACLE_REL:g})")
        label = f"quartic_correction_gap:M={m}"
        written = raw[label][0][index] if label in raw else math.nan
        if not _close(written, program, CSV_REL):
            problems.append(f"M={m} draw {index}: written gap {written} is not the "
                            f"program's gap {program}")
    return problems


# -- flow: evolve on the truncated NLKG flow ------------------------------------


def lawson_rk4(u: np.ndarray, v: np.ndarray, cutoff: int, t_final: float,
               step: float) -> tuple:
    """Truncated NLKG flow u' = v, v' = (Lap - 1) u - P_N((P_N u)^3) by the
    integrating-factor (Lawson) RK4 scheme: the linear part is rotated
    exactly and RK4 handles the cube, which is formed with numpy's real
    FFT on a grid of at least 4N + 2 points (alias-free on the ball).
    Written apart from torusnlw.dynamics, as a reference for it."""
    from scipy.fft import next_fast_len
    K = u.shape[0] // 2
    n = np.arange(-K, K + 1)
    sq = n[:, None] ** 2 + n[None, :] ** 2
    ball = sq <= cutoff ** 2
    omega = np.sqrt(1.0 + sq)
    grid = next_fast_len(4 * cutoff + 2)
    rows = n % grid

    def cube(c):
        """-P_N((P_N u)^3) from the coefficient block of u."""
        spec = np.zeros((grid, grid // 2 + 1), complex)
        spec[rows, :K + 1] = (c * ball)[:, K:]
        vals = np.fft.irfft2(spec, s=(grid, grid)) * grid * grid
        half = np.fft.rfft2(vals ** 3)[rows, :K + 1] / (grid * grid)
        full = np.empty_like(c)
        full[:, K:] = half
        full[:, :K] = np.conj(half[::-1, K:0:-1])
        return -full * ball

    def rotation(t):
        cos, sin = np.cos(t * omega), np.sin(t * omega)
        return lambda a, b: (cos * a + sin / omega * b, -omega * sin * a + cos * b)

    half_step, full_step = rotation(step / 2), rotation(step)
    steps = round(t_final / step)
    if not math.isclose(steps * step, t_final, rel_tol=1e-12):
        raise ValueError("t_final must be a whole number of reference steps")
    for _ in range(steps):
        g1 = cube(u)
        g2 = cube(half_step(u, v + step / 2 * g1)[0])
        g3 = cube(half_step(u, v)[0])
        fu, fv = full_step(u, v)
        g4 = cube(fu + step * half_step(0.0, g3)[0])
        r1u, r1v = full_step(0.0, g1)
        r2u, r2v = half_step(0.0, g2 + g3)
        u = fu + step / 6 * (r1u + 2 * r2u)
        v = fv + step / 6 * (r1v + 2 * r2v + g4)
    return u, v


FLOW_COLUMNS = ("energy", "renormalized_energy", "sobolev_norm")


def _flow_diagnostics(state, s: float, cutoff: int, sigma: float) -> dict:
    from torusnlw import hamiltonian, renormalized_energy, sobolev_norm
    return {"energy": hamiltonian(state),
            "renormalized_energy": renormalized_energy(state, s, cutoff),
            "sobolev_norm": sobolev_norm(state, sigma)}


def flow_reference(s: float, seed: int, cutoff: int, dt: float, t_final: float,
                   stride: int, sigma: float) -> dict:
    """What the flow check compares against, for draw 0 of the ensemble:

    coarse  the program's Strang splitting at step 2 dt, sampled at the
            CLI's diagnostic times: its truncated-energy drift and final
            diagnostics give the second-order law its yardstick;
    exact   final diagnostics of the Lawson RK4 reference.
    """
    from torusnlw import (EnsembleSpec, IntegratorSpec, ModelSpec, PhaseState,
                          SpectralField, sample, trajectory, truncated_energy)
    if stride % 2:
        raise ValueError("the coarse run needs an even stride")
    state = sample(EnsembleSpec("mu_s", s, cutoff, cutoff, seed), 0)
    coarse = list(trajectory(state, t_final, ModelSpec("nlkg", cutoff),
                             IntegratorSpec("strang_splitting", 2 * dt), stride=stride // 2))
    energies = np.array([truncated_energy(st, cutoff) for _, st in coarse])
    u, v = lawson_rk4(state.u.coeffs, state.v.coeffs, cutoff, t_final, LAWSON_STEP)
    exact = PhaseState(SpectralField(cutoff, u), SpectralField(cutoff, v))
    return {"times": [t for t, _ in coarse],
            "drift": float(np.max(np.abs(energies - energies[0])) / abs(energies[0])),
            "coarse": _flow_diagnostics(coarse[-1][1], s, cutoff, sigma),
            "exact": _flow_diagnostics(exact, s, cutoff, sigma)}


def check_flow(rows: list, ref: dict) -> list:
    problems = []
    times = [r["t"] for r in rows]
    if len(times) != len(ref["times"]) or not np.allclose(times, ref["times"], rtol=0,
                                                          atol=1e-9):
        return [f"trajectory times {times[:3]}...{times[-1:]} are not the "
                f"{len(ref['times'])} expected diagnostic times"]
    cells = [r[c] for r in rows for c in ("truncated_energy",) + FLOW_COLUMNS]
    if not all(isinstance(x, float) and math.isfinite(x) for x in cells):
        return ["trajectory has non-finite or missing values"]
    energy = np.array([r["truncated_energy"] for r in rows])
    drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    # second order: halving the step divides the error by four
    if drift > ORDER_SLACK * ref["drift"] + FLOW_FLOOR:
        problems.append(f"truncated-energy drift {drift:.3e} exceeds {ORDER_SLACK} x "
                        f"the drift {ref['drift']:.3e} at twice the step")
    for column in FLOW_COLUMNS:
        value, exact, coarse = rows[-1][column], ref["exact"][column], ref["coarse"][column]
        allowed = ORDER_SLACK * abs(coarse - exact) + FLOW_FLOOR * abs(exact)
        if abs(value - exact) > allowed:
            problems.append(f"final {column} {value} is {abs(value - exact):.3e} from the "
                            f"reference {exact}; the order law allows {allowed:.3e}")
    return problems
