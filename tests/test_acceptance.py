"""End-to-end acceptance runs for the whole toolkit.

Each test exercises one headline property at its stated tolerance and
prints a single [PASS]/[FAIL] line with the measured numbers, so a bare
``pytest tests/test_acceptance.py`` reads as a checklist.  Statistical
checks use fixed seeds; the sampler is deterministic, so every number
below reproduces bit-for-bit.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import replace

import numpy as np

from torusnlw import (
    EnsembleSpec,
    IntegratorSpec,
    ModelSpec,
    PhaseState,
    SpectralField,
    chaos_components,
    chaos_growth_check,
    collect_values,
    convergence_rate_study,
    counterterm,
    energy_rate_terms,
    estimate_lp,
    evolve,
    kakutani_terms,
    lp_growth_experiment,
    project_ball,
    renormalized_energy,
    resolve_radius,
    sample,
    trajectory,
    truncated_energy,
    wave_counterterm,
)
from torusnlw.cli import main

SEED = 2026


def report(capsys, name: str, ok: bool, detail: str) -> None:
    """One visible checklist line per test, even under output capture."""
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


def ball_state(ens: EnsembleSpec, index: int) -> PhaseState:
    # the truncated flow lives on fields supported in the closed ball;
    # block corners would decouple and shear the wave-variant mass term
    st = sample(ens, index)
    N = ens.truncation_N
    return PhaseState(project_ball(st.u, N), project_ball(st.v, N))


def test_energy_conservation_along_truncated_flow(capsys):
    """Strang splitting holds the truncated energy over a unit of time.

    The scheme is symplectic and second order, so its relative energy
    drift is O(dt^2).  On the ladder dt = 1e-3 * 2^-k, k = 0..4, every
    halving must cut the drift by a factor in (3, 5) (the order
    signature the rate-identity check also uses), and the drift must be
    below 1e-8 at the first rung the order law puts under that budget,
    dt <= dt_0 * sqrt(1e-8 / drift_0).  Print the ladder with
    ``pytest tests/test_acceptance.py -k conservation -s``.
    """
    t0 = time.perf_counter()
    N, budget = 16, 1e-8
    ens = EnsembleSpec(variant="mu_s", s=2.0, sample_max_mode=N,
                       truncation_N=N, master_seed=SEED)
    index = 0
    while True:
        state = sample(ens, index)
        e0 = truncated_energy(state, N)
        if e0 <= 10.0:
            break
        index += 1
    model = ModelSpec(equation="nlkg", truncation_N=N, beta=0.0)
    dts = [1e-3 * 2.0 ** -k for k in range(5)]
    drifts = []
    for k, dt in enumerate(dts):
        # energy read at the same times (every 0.05) on every rung
        drift = 0.0
        for _, st in trajectory(state, 1.0, model,
                                IntegratorSpec("strang_splitting", dt),
                                stride=50 * 2 ** k):
            drift = max(drift, abs(truncated_energy(st, N) - e0) / abs(e0))
        drifts.append(drift)
    ratios = [a / b for a, b in zip(drifts, drifts[1:])]
    dt_needed = dts[0] * math.sqrt(budget / drifts[0])
    rung = next((k for k, dt in enumerate(dts) if dt <= dt_needed), None)
    elapsed = time.perf_counter() - t0
    ok = (all(3.0 < r < 5.0 for r in ratios)
          and rung is not None and drifts[rung] < budget)
    at_rung = (f"drift {drifts[rung]:.2e} at dt={dts[rung]:.3g}"
               if rung is not None else "no rung on the ladder")
    report(capsys, "energy conservation (strang, t<=1, dt=1e-3*2^-k)", ok,
           "relative drift " + ", ".join(f"{d:.2e}" for d in drifts)
           + "; ratio per halving " + ", ".join(f"{r:.3f}" for r in ratios)
           + f" (needs 3..5); {at_rung} (needs < 1e-08 at the first dt <= "
           f"{dt_needed:.2e}); {elapsed:.1f}s")
    assert ok, f"drifts {drifts}, ratios {ratios}, {at_rung}"


def test_renormalized_energy_rate_matches_finite_difference(capsys):
    """Central differences along the flow reproduce the closed-form rate.

    Twenty ball-supported Gaussian states per equation at s = 2, N = 8.
    The h = 1e-4 difference must match the three-term rate to 1e-5
    relative, and halving h from 2e-3 to 1e-3 must shrink the defect
    fourfold (second-order signature).
    """
    t0 = time.perf_counter()
    S, N, h = 2.0, 8, 1e-4

    def fd(st, step, model, equation, beta):
        integ = IntegratorSpec("rk4", step)
        ep = renormalized_energy(evolve(st, +step, model, integ), S, N, equation, beta)
        em = renormalized_energy(evolve(st, -step, model, integ), S, N, equation, beta)
        return (ep - em) / (2.0 * step)

    worst = 0.0
    ratios = []
    for equation, variant, beta in (("nlkg", "mu_s", 0.0),
                                    ("nlw", "mu_tilde_s", 0.0),
                                    ("nlkg_beta", "mu_s_beta", 2.0)):
        # fixed draw whose rates stay away from zero; the relative
        # tolerance degenerates when a state happens to land near a
        # critical point of the energy
        ens = EnsembleSpec(variant=variant, s=S, sample_max_mode=N,
                           truncation_N=N, master_seed=1, beta=beta)
        model = ModelSpec(equation=equation, truncation_N=N, beta=beta)
        for index in range(20):
            st = ball_state(ens, index)
            rate = energy_rate_terms(st, S, N, equation, beta).total
            worst = max(worst, abs(fd(st, h, model, equation, beta) - rate) / abs(rate))
            e1 = abs(fd(st, 1e-3, model, equation, beta) - rate)
            e2 = abs(fd(st, 2e-3, model, equation, beta) - rate)
            ratios.append(e2 / e1)
    median_ratio = float(np.median(ratios))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and 3.0 < min(ratios) and max(ratios) < 5.0
    report(capsys, "energy rate identity (3 equations x 20 states)", ok,
           f"worst rel {worst:.2e} at h=1e-4, defect ratio per halving "
           f"{median_ratio:.2f} (median), {elapsed:.1f}s")
    assert ok, f"worst rel {worst:.2e}, ratios {min(ratios):.2f}..{max(ratios):.2f}"


def quadruple_geometry(N: int, s: float):
    """Index machinery for the quadruple momentum sum over the ball."""
    r = np.arange(-N, N + 1)
    X, Y = np.meshgrid(r, r, indexing="ij")
    keep = X * X + Y * Y <= N * N
    modes = np.stack([X[keep], Y[keep]], axis=1)
    n4 = -(modes[:, None, None, :] + modes[None, :, None, :]
           + modes[None, None, :, :])
    inside = (n4 ** 2).sum(axis=-1) <= N * N
    # clip keeps the gather legal; the mask kills clipped entries anyway
    i4 = np.clip(n4[..., 0] + N, 0, 2 * N)
    j4 = np.clip(n4[..., 1] + N, 0, 2 * N)
    weight = (1.0 + (modes ** 2).sum(axis=1)) ** (s / 2.0)
    return modes, weight, i4, j4, inside


def random_field(rng, K: int) -> SpectralField:
    shape = (2 * K + 1, 2 * K + 1)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    block = 0.5 * (raw + np.conj(raw[::-1, ::-1]))
    block[K, K] = block[K, K].real
    return SpectralField(K, block)


def test_chaos_components_match_quadruple_sum(capsys):
    """The three pairing buckets sum to the raw quadruple lattice sum."""
    t0 = time.perf_counter()
    S = 2.0
    rng = np.random.default_rng(SEED)
    fields = [random_field(rng, 6) for _ in range(50)]
    worst = 0.0
    for N in range(1, 7):
        modes, weight, i4, j4, inside = quadruple_geometry(N, S)
        for f in fields:
            K = f.max_mode
            vals = f.coeffs[modes[:, 0] + K, modes[:, 1] + K]
            grid = np.zeros((2 * N + 1, 2 * N + 1), np.complex128)
            grid[modes[:, 0] + N, modes[:, 1] + N] = vals
            v4 = grid[i4, j4] * inside
            brute = 1.5 * np.einsum("i,j,k,ijk->", weight * vals,
                                    weight * vals, vals, v4).real
            total = chaos_components(f, S, N).total
            worst = max(worst, abs(total - brute) / abs(brute))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10
    report(capsys, "chaos split vs quadruple sum (N<=6, 50 fields)", ok,
           f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert ok, f"worst rel {worst:.2e}"


def test_counterterm_values_and_dyadic_growth(capsys):
    """Exact small-cutoff counterterms plus the log-growth signature."""
    t0 = time.perf_counter()
    errs = (
        abs(counterterm(1) - 3.0),
        abs(counterterm(2) - 77.0 / 15.0),
        abs(wave_counterterm(1, 2.0) - 4.0 / 3.0),
    )
    # a log-divergent sum gains a constant per dyadic step
    increments = [counterterm(2 * n) - counterterm(n) for n in (128, 256, 512)]
    spread = max(increments) / min(increments) - 1.0
    elapsed = time.perf_counter() - t0
    ok = max(errs) <= 1e-14 and spread < 0.02
    report(capsys, "counterterm values and dyadic increments", ok,
           f"max exact-value error {max(errs):.1e}, increment spread "
           f"{100 * spread:.2f}% over N in (128, 256, 512), {elapsed:.1f}s")
    assert ok, f"errors {errs}, spread {spread:.4f}"


def test_rate_norm_growth_in_p_and_cutoff_stability(capsys):
    """Moments of the energy rate grow slowly in p and are flat in N.

    Fitted log-log slope of the rate's L^p norm in p stays at or below
    1.2 for every cutoff (slope plus fit residual), and the p = 4 norm
    moves by less than a factor 2 across cutoffs.
    """
    t0 = time.perf_counter()
    base = EnsembleSpec(variant="mu_s", s=2.0, sample_max_mode=0, truncation_N=0,
                        master_seed=SEED)
    res = lp_growth_experiment(base, (8, 16, 32), (2.0, 4.0, 8.0), "auto", 10_000)
    slopes = {c: fit.slope + fit.residual for c, fit in res.p_fits}
    spread4 = dict(res.spread_by_p)[4.0]
    elapsed = time.perf_counter() - t0
    ok = max(slopes.values()) <= 1.2 and spread4 < 2.0
    report(capsys, "L^p growth of the energy rate (10^4 samples)", ok,
           "slope+residual per cutoff "
           + ", ".join(f"N={c}: {v:.3f}" for c, v in sorted(slopes.items()))
           + f" (needs <= 1.2); p=4 spread over N {spread4:.3f} (needs < 2); "
           f"{elapsed:.0f}s")
    assert ok, f"slopes {slopes}, spread {spread4:.3f}"


def test_truncation_gap_decays_with_block(capsys):
    """The rate gap between cutoffs M and a far reference decays in M."""
    t0 = time.perf_counter()
    base = EnsembleSpec(variant="mu_s", s=2.0, sample_max_mode=0, truncation_N=0,
                        master_seed=SEED)
    res = convergence_rate_study(base, (4, 8, 16, 32), 2.0, 10_000, reference_cutoff=64)
    gaps = [row.estimate.value for row in res.rows]
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    slope = res.fit.slope + res.fit.residual
    elapsed = time.perf_counter() - t0
    ok = slope <= -0.3 and monotone
    report(capsys, "truncation gap decay (M -> 64, 10^4 samples)", ok,
           f"slope+residual {slope:.3f} (needs <= -0.3), gaps "
           + " > ".join(f"{g:.4f}" for g in gaps)
           + f" {'monotone' if monotone else 'NOT monotone'}; {elapsed:.0f}s")
    assert ok, f"slope {slope:.3f}, gaps {gaps}"


def test_wick_mass_hypercontractivity_and_calibration(capsys):
    """Degree-2 moment ratios obey (p-1); a scalar Gaussian pins ||g||_4."""
    t0 = time.perf_counter()
    ens = EnsembleSpec(variant="mu_s", s=2.0, sample_max_mode=16,
                       truncation_N=16, master_seed=SEED)
    res = chaos_growth_check("wick_mass", ens, (4.0, 8.0), 10_000)
    scalar = EnsembleSpec(variant="mu_s", s=2.0, sample_max_mode=1,
                          truncation_N=1, master_seed=SEED)
    cal = estimate_lp("scalar_gaussian", scalar, 4.0, 1_000_000)
    target = 3.0 ** 0.25
    cal_rel = abs(cal.value - target) / target
    elapsed = time.perf_counter() - t0
    ok = all(row.within_bound for row in res.rows) and cal_rel <= 0.01
    report(capsys, "hypercontractive moment growth (wick mass, N=16)", ok,
           "ratio/bound "
           + ", ".join(f"p={row.p:g}: {row.ratio:.2f}/{row.bound:g}"
                       for row in res.rows)
           + f"; scalar ||g||_4 = {cal.value:.4f} vs 3^(1/4) = {target:.4f} "
           f"(rel {cal_rel:.1e}, needs <= 1e-2); {elapsed:.0f}s")
    assert ok, f"rows {res.rows}, calibration rel {cal_rel:.2e}"


def test_density_weight_norms_stable_in_cutoff(capsys):
    """L^4 norms of the conditioned density stay in a fixed band over N.

    All four cutoffs read the same draws: one collect_values call with a
    column per cutoff draws the common sampling window once, which
    couples the estimates and minimizes the spread a finite sample can
    show.  The max/min < 1.5 band is judged only on
    resolved estimates: leaving out a cutoff's single largest draw must
    move its L^4 value by less than the band's own factor 1.5, so that
    draw's share of the sum of w^4 must stay below 1 - 1.5^-4 (about
    0.80).  An estimate that one draw carries measures that draw's
    log-weight, not the norm, and cannot speak for the band.
    """
    t0 = time.perf_counter()
    p, band = 4.0, 1.5
    max_share = 1.0 - band ** -p
    values, shares = {}, {}
    cutoffs = (8, 16, 32, 64)
    ens = EnsembleSpec(variant="mu_s", s=2.0, sample_max_mode=64, truncation_N=64,
                       master_seed=SEED)
    # each cutoff's radius from its own pilot, as the truncation_N = N ensemble
    radii = [resolve_radius("auto", replace(ens, truncation_N=N)) for N in cutoffs]
    weights, accept = collect_values(
        ens, [("density_weight", {"cutoff": N, "radius": r}) for N, r in zip(cutoffs, radii)],
        10_000)
    for col, N in enumerate(cutoffs):
        mass = np.abs(weights[:, col]) ** p * accept
        values[N] = float((mass.sum() / accept.sum()) ** (1.0 / p))
        shares[N] = float(mass.max() / mass.sum())
    ratio = max(values.values()) / min(values.values())
    unresolved = {n: s for n, s in shares.items() if s >= max_share}
    elapsed = time.perf_counter() - t0
    ok = not unresolved and ratio < band
    verdict = f"max/min {ratio:.3f} " + (
        "not judged, unresolved at "
        + ", ".join(f"N={n} ({s:.1%})" for n, s in unresolved.items())
        if unresolved else f"(needs < {band})")
    report(capsys, "density-weight L^4 stability over cutoffs", ok,
           "values " + ", ".join(f"N={n}: {v:.4f}" for n, v in values.items())
           + "; largest-draw share of sum w^4 "
           + ", ".join(f"N={n}: {s:.1%}" for n, s in shares.items())
           + f" (needs < {max_share:.1%}); {verdict}; 10^4 samples, "
           f"{elapsed:.0f}s")
    assert ok, f"values {values}, {verdict}"


def test_gaussian_comparison_partial_sums(capsys):
    """Comparison series converges for s = 2 and keeps growing at s = 0.4."""
    t0 = time.perf_counter()
    smooth = [kakutani_terms(2.0, n).partial_sum for n in (128, 256, 512)]
    gaps = [abs(b - a) for a, b in zip(smooth, smooth[1:])]
    rough = [kakutani_terms(0.4, n).partial_sum for n in (128, 256, 512)]
    ratios = [b / a for a, b in zip(rough, rough[1:])]
    elapsed = time.perf_counter() - t0
    ok = max(gaps) < 1e-3 and min(ratios) > 1.1
    report(capsys, "comparison series dichotomy (s=2 vs s=0.4)", ok,
           f"s=2 dyadic gaps {gaps[0]:.1e}, {gaps[1]:.1e} (need < 1e-3); "
           f"s=0.4 dyadic ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
           f"(need > 1.1); {elapsed:.0f}s")
    assert ok, f"gaps {gaps}, ratios {ratios}"


MC_RUNS = (
    ("mc-lp", {
        "ensemble": {"variant": "mu_s", "s": 2.0, "seed": SEED},
        "experiment": {"N_list": [2, 3], "p_list": [2.0, 4.0],
                       "samples": 150, "r": "inf"},
    }),
    ("mc-converge", {
        "ensemble": {"variant": "mu_s", "s": 2.0, "seed": SEED},
        "experiment": {"M_list": [2, 4], "N_ref": 8, "p": 2.0,
                       "samples": 150},
    }),
    ("mc-chaos", {
        "ensemble": {"variant": "mu_s", "s": 2.0, "sample_max_mode": 3,
                     "seed": SEED},
        "experiment": {"p_list": [4.0, 6.0], "samples": 150},
    }),
    ("mc-kin", {
        "ensemble": {"variant": "mu_s", "s": 2.0, "seed": SEED},
        "experiment": {"order": [1, 0], "M_list": [1, 2], "N": 4,
                       "p": 2.0, "samples": 150},
    }),
    ("mc-tail", {
        "ensemble": {"variant": "mu_s", "s": 2.0, "seed": SEED},
        "experiment": {"N": 8, "M_list": [2, 4], "alpha_list": [0.0, 0.1],
                       "samples": 150},
    }),
)


def test_worker_count_does_not_change_outputs(capsys, tmp_path):
    """Every sampling command writes identical CSVs under 1, 4, 8 workers."""
    t0 = time.perf_counter()
    failures = []
    for command, config in MC_RUNS:
        digests = {}
        for workers in (1, 4, 8):
            outdir = tmp_path / f"{command}-w{workers}"
            config = dict(config)
            config["output"] = {"directory": str(outdir), "emit_raw": True}
            cfg = tmp_path / f"{command}-w{workers}.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            code = main([command, str(cfg), "--workers", str(workers)])
            assert code == 0, f"{command} exited {code} at workers={workers}"
            digests[workers] = {
                p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))
            }
        if not (digests[1] == digests[4] == digests[8]):
            failures.append(command)
    elapsed = time.perf_counter() - t0
    ok = not failures
    report(capsys, "worker-count determinism (5 commands x 1/4/8)", ok,
           ("all CSV outputs byte-identical" if ok
            else f"mismatch in {failures}") + f"; {elapsed:.0f}s")
    assert ok, f"worker-dependent outputs in {failures}"
