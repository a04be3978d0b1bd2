"""Command-line entry point.

One JSON config, one run, one output directory.  Every command validates
its whole config before any computation (exit 1 with a key-path message
on failure), then writes CSV tables (RFC 4180), a metadata JSON with the
fully resolved config, and a schema JSON documenting the CSV columns.
Runtime failures (blow-up, degenerate ensembles) exit 2.

The TORUSNLW_OUTPUT_DIR environment variable overrides the configured
output directory; --workers bounds sampling parallelism without changing
any output byte.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    EQUATIONS,
    SCHEMES,
    IntegrationError,
    IntegratorSpec,
    ModelSpec,
    trajectory,
)
from .energy import UnsupportedParameterError, energy_report, hamiltonian, renormalized_energy, truncated_energy
from .measures import MARGINALS, kakutani_terms
from .montecarlo import (
    FUNCTIONALS,
    MAX_P,
    DegenerateEnsembleError,
    chaos_growth_check,
    convergence_rate_study,
    resolve_radius,
    sup_norm_moment_study,
    tail_estimate_study,
    lp_growth_experiment,
)
from .sampling import VARIANTS, EnsembleSpec, sample
from .spectral import (
    PhaseState,
    SpectralError,
    sobolev_norm,
    state_from_dict,
    state_to_dict,
    zero_field,
)

OUTPUT_DIR_ENV = "TORUSNLW_OUTPUT_DIR"
COMMANDS = ("sample", "evolve", "diagnose", "mc-lp", "mc-converge", "mc-chaos",
            "mc-kin", "mc-tail", "kakutani")


class ConfigError(Exception):
    """Config rejected before computation; the message names the key path."""


# -- config access with key-path errors ---------------------------------------


class _Section:
    """A validated view of one (possibly nested) config dict."""

    def __init__(self, data: dict, path: str = ""):
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'config'}: expected an object")
        self.data = data
        self.path = path
        self.seen: set = set()

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def child(self, key: str, required: bool = True) -> "_Section | None":
        self.seen.add(key)
        if key not in self.data:
            if required:
                raise ConfigError(f"{self._at(key)}: missing required section")
            return None
        return _Section(self.data[key], self._at(key))

    def get(self, key: str, kind: str, default=..., check=None, expect: str = ""):
        self.seen.add(key)
        if key not in self.data:
            if default is ...:
                raise ConfigError(f"{self._at(key)}: missing required key")
            return default
        value = self.data[key]
        ok, value = _coerce(value, kind)
        if not ok:
            raise ConfigError(f"{self._at(key)}: expected {kind}")
        if check is not None and not check(value):
            raise ConfigError(f"{self._at(key)}: {expect or 'invalid value'}")
        return value

    def finish(self) -> None:
        unknown = sorted(set(self.data) - self.seen)
        if unknown:
            raise ConfigError(f"{self.path or 'config'}: unknown keys {unknown}")


def _coerce(value, kind: str):
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool), value
    if kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False, value
        return True, float(value)
    if kind == "radius":  # positive number, "auto", or "inf"
        if value == "auto":
            return True, "auto"
        if value == "inf":
            return True, math.inf
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False, value
        return True, float(value)
    if kind == "str":
        return isinstance(value, str), value
    if kind == "bool":
        return isinstance(value, bool), value
    if kind == "int_list":
        ok = (isinstance(value, list) and value
              and all(isinstance(v, int) and not isinstance(v, bool) for v in value))
        return ok, list(value) if ok else value
    if kind == "number_list":
        ok = (isinstance(value, list) and value
              and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in value))
        return ok, [float(v) for v in value] if ok else value
    if kind == "int_pair":
        ok = (isinstance(value, list) and len(value) == 2
              and all(isinstance(v, int) and not isinstance(v, bool) for v in value))
        return ok, (value[0], value[1]) if ok else value
    raise AssertionError(kind)


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data


# -- shared config blocks ------------------------------------------------------


def _output_block(root: _Section) -> dict:
    out = root.child("output", required=False)
    if out is None:
        resolved = {"directory": "torusnlw-out", "emit_raw": False}
    else:
        resolved = {
            "directory": out.get("directory", "str", default="torusnlw-out"),
            "emit_raw": out.get("emit_raw", "bool", default=False),
        }
        out.finish()
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        resolved["directory"] = env
    return resolved


def _ensemble_block(sec: _Section, *, need_window: bool = True) -> dict:
    variant = sec.get("variant", "str", default="mu_s",
                      check=lambda v: v in VARIANTS, expect=f"one of {VARIANTS}")
    resolved = {
        "variant": variant,
        "s": sec.get("s", "number", check=lambda v: v > 1, expect="must be > 1"),
        "beta": sec.get("beta", "number", default=0.0),
        "seed": sec.get("seed", "int", default=0,
                        check=lambda v: v >= 0, expect="must be >= 0"),
    }
    if need_window:
        resolved["sample_max_mode"] = sec.get(
            "sample_max_mode", "int", check=lambda v: v >= 0, expect="must be >= 0")
        resolved["truncation_N"] = sec.get(
            "truncation_N", "int", default=resolved["sample_max_mode"],
            check=lambda v: v >= 0, expect="must be >= 0")
    return resolved


def _build_ensemble(resolved: dict, radius: float = math.inf) -> EnsembleSpec:
    try:
        return EnsembleSpec(
            variant=resolved["variant"],
            s=resolved["s"],
            sample_max_mode=resolved["sample_max_mode"],
            truncation_N=resolved["truncation_N"],
            master_seed=resolved["seed"],
            beta=resolved["beta"],
            energy_cutoff_r=radius,
        )
    except ValueError as exc:
        raise ConfigError(f"ensemble: {exc}")


def _state_block(root: _Section) -> tuple:
    """Returns (resolved dict, PhaseState). Loads files during validation
    so a bad path is a config error, not a runtime one."""
    sec = root.child("state")
    sources = [k for k in ("file", "sample", "zero") if k in sec.data]
    if len(sources) != 1:
        raise ConfigError(f"{sec.path}: exactly one of file/sample/zero required")
    kind = sources[0]
    if kind == "file":
        path = sec.get("file", "str")
        sec.finish()
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            state = state_from_dict(payload)
        except OSError as exc:
            raise ConfigError(f"{sec.path}.file: {exc.strerror or exc}: {path}")
        except (json.JSONDecodeError, SpectralError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{sec.path}.file: not a valid state file ({exc})")
        return {"file": path}, state
    if kind == "zero":
        zero = sec.child("zero")
        max_mode = zero.get("max_mode", "int", check=lambda v: v >= 0,
                            expect="must be >= 0")
        zero.finish()
        sec.finish()
        f = zero_field(max_mode)
        return {"zero": {"max_mode": max_mode}}, PhaseState(f, f)
    inner = sec.child("sample")
    ens_sec = inner.child("ensemble")
    ens = _ensemble_block(ens_sec)
    ens_sec.finish()
    index = inner.get("index", "int", default=0, check=lambda v: v >= 0,
                      expect="must be >= 0")
    inner.finish()
    sec.finish()
    state = sample(_build_ensemble(ens), index)
    return {"sample": {"ensemble": ens, "index": index}}, state


# -- CSV plumbing --------------------------------------------------------------


def _fmt(value):
    if isinstance(value, bool):
        return 1 if value else 0
    if isinstance(value, float):
        return f"{value:.10g}"
    return value


def _write_csv(path: Path, columns, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in columns])
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


_ESTIMATE_COLUMNS = [
    ("p", "moment order of the L^p estimate"),
    ("value", "weighted empirical L^p norm"),
    ("ci_low", "lower end of the 95% bootstrap interval"),
    ("ci_high", "upper end of the 95% bootstrap interval"),
    ("samples", "total samples drawn"),
    ("effective_samples", "samples passing the energy cutoff"),
]

_FIT_COLUMNS = [
    ("slope", "least-squares slope in log-log coordinates"),
    ("intercept", "least-squares intercept in log-log coordinates"),
    ("residual", "rms deviation of the log ordinates from the fit"),
]

_RAW_COLUMNS = [
    ("series", "label of the functional/cutoff combination"),
    ("index", "sample counter index"),
    ("value", "functional value at that sample"),
    ("weight", "energy-cutoff indicator weight"),
]


def _estimate_row(est):
    return [est.p, est.value, est.ci_low, est.ci_high, est.samples,
            est.effective_samples]


# -- command implementations ---------------------------------------------------
# Each validates its config and returns (resolved, seed, output, execute);
# execute() maps file names to (columns, rows) for CSV or a JSON-able object,
# plus "_meta" (into metadata.json) and, on mc-* commands, "_raw" (the drawn
# series, written by main as raw_values.csv when output.emit_raw is set).


def _cmd_sample(root: _Section, workers: int):
    ens_sec = root.child("ensemble")
    ens = _ensemble_block(ens_sec)
    ens_sec.finish()
    index = root.get("index", "int", default=0, check=lambda v: v >= 0,
                     expect="must be >= 0")
    output = _output_block(root)
    root.finish()
    resolved = {"ensemble": ens, "index": index, "output": output}

    def execute():
        state = sample(_build_ensemble(ens), index)
        payload = state_to_dict(state)
        payload["ensemble"] = ens
        payload["index"] = index
        return {"state.json": payload}

    return resolved, ens["seed"], output, execute


def _cmd_evolve(root: _Section, workers: int):
    model_sec = root.child("model")
    equation = model_sec.get("equation", "str", default="nlkg",
                             check=lambda v: v in EQUATIONS, expect=f"one of {EQUATIONS}")
    cutoff = model_sec.get("N", "int", check=lambda v: v >= 0, expect="must be >= 0")
    beta = model_sec.get("beta", "number", default=0.0)
    model_sec.finish()
    state_resolved, state = _state_block(root)
    integ_sec = root.child("integrator")
    scheme = integ_sec.get("scheme", "str", default="strang_splitting",
                           check=lambda v: v in SCHEMES, expect=f"one of {SCHEMES}")
    dt = integ_sec.get("dt", "number", default=1e-3, check=lambda v: v > 0,
                       expect="must be > 0")
    t_final = integ_sec.get("t_final", "number",
                            check=lambda v: math.isfinite(v), expect="must be finite")
    integ_sec.finish()
    traj_sec = root.child("trajectory", required=False)
    if traj_sec is None:
        stride, sigma, s = 1, 1.0, 2.0
    else:
        stride = traj_sec.get("stride", "int", default=1, check=lambda v: v >= 1,
                              expect="must be >= 1")
        sigma = traj_sec.get("sigma", "number", default=1.0)
        s = traj_sec.get("s", "number", default=2.0, check=lambda v: v > 1,
                         expect="must be > 1")
        traj_sec.finish()
    output = _output_block(root)
    root.finish()
    try:
        model = ModelSpec(equation=equation, truncation_N=cutoff, beta=beta)
        integ = IntegratorSpec(scheme=scheme, dt=dt)
    except ValueError as exc:
        raise ConfigError(f"model/integrator: {exc}")
    if state.max_mode < cutoff:
        raise ConfigError(
            f"state: window {state.max_mode} is smaller than model.N = {cutoff}")
    resolved = {
        "model": {"equation": equation, "N": cutoff, "beta": beta},
        "state": state_resolved,
        "integrator": {"scheme": scheme, "dt": dt, "t_final": t_final},
        "trajectory": {"stride": stride, "sigma": sigma, "s": s},
        "output": output,
    }
    columns = [
        ("t", "time"),
        ("energy", "conserved energy of the untruncated equation"),
        ("truncated_energy", "energy conserved by the truncated flow"),
        ("renormalized_energy", "modified energy at smoothing order s"),
        ("sobolev_norm", "H^sigma x H^(sigma-1) norm of the state"),
    ]

    def execute():
        rows = []
        # a diverging flow ends in IntegrationError; the diagnostics of the
        # last finite-but-huge states may overflow to inf on the way there
        with np.errstate(over="ignore", invalid="ignore"):
            for t, st in trajectory(state, t_final, model, integ, stride=stride):
                rows.append([
                    t,
                    hamiltonian(st, equation, beta),
                    truncated_energy(st, cutoff, equation, beta),
                    renormalized_energy(st, s, cutoff, equation, beta),
                    sobolev_norm(st, sigma),
                ])
        return {"trajectory.csv": (columns, rows)}

    return resolved, _state_seed(state_resolved), output, execute


def _state_seed(state_resolved: dict):
    inner = state_resolved.get("sample")
    return inner["ensemble"]["seed"] if inner else None


def _cmd_diagnose(root: _Section, workers: int):
    model_sec = root.child("model")
    equation = model_sec.get("equation", "str", default="nlkg",
                             check=lambda v: v in EQUATIONS, expect=f"one of {EQUATIONS}")
    s = model_sec.get("s", "number", check=lambda v: v > 1, expect="must be > 1")
    cutoff = model_sec.get("N", "int", check=lambda v: v >= 0, expect="must be >= 0")
    beta = model_sec.get("beta", "number", default=0.0)
    model_sec.finish()
    state_resolved, state = _state_block(root)
    output = _output_block(root)
    root.finish()
    if equation == "nlkg_beta" and not beta > 1:
        raise ConfigError("model.beta: nlkg_beta needs beta > 1")
    resolved = {
        "model": {"equation": equation, "s": s, "N": cutoff, "beta": beta},
        "state": state_resolved,
        "output": output,
    }

    def execute():
        report = energy_report(state, s, cutoff, equation, beta)
        return {"report.json": report.to_dict()}

    return resolved, _state_seed(state_resolved), output, execute


# mc-lp and mc-chaos name one registry functional and supply no parameters
_PARAMETERLESS = sorted(name for name, f in FUNCTIONALS.items() if not f.requires)
_CHAOS_FUNCTIONALS = [name for name in _PARAMETERLESS
                      if FUNCTIONALS[name].degree is not None]


def _mc_common(root: _Section, *, need_window: bool):
    ens_sec = root.child("ensemble")
    ens = _ensemble_block(ens_sec, need_window=need_window)
    ens_sec.finish()
    return ens


def _cmd_mc_lp(root: _Section, workers: int):
    ens = _mc_common(root, need_window=False)
    exp = root.child("experiment")
    cutoffs = exp.get("N_list", "int_list", check=lambda v: all(n >= 1 for n in v),
                      expect="cutoffs must be >= 1")
    p_list = exp.get("p_list", "number_list",
                     check=lambda v: len(v) >= 2
                     and all(1 <= p <= MAX_P for p in v),
                     expect=f"needs >= 2 entries, each in [1, {MAX_P}] "
                            "(the growth fit in p needs two points)")
    samples = exp.get("samples", "int", check=lambda v: v >= 100,
                      expect="must be >= 100")
    functional = exp.get("functional", "str", default="energy_rate_total",
                         check=lambda v: v in _PARAMETERLESS,
                         expect=f"one of {_PARAMETERLESS} "
                                "(mc-lp supplies no functional parameters)")
    radius = exp.get("r", "radius", default="auto")
    exp.finish()
    output = _output_block(root)
    root.finish()
    resolved = {
        "ensemble": ens,
        "experiment": {"N_list": cutoffs, "p_list": p_list, "samples": samples,
                       "functional": functional,
                       "r": "auto" if radius == "auto" else radius},
        "output": output,
    }
    est_columns = [("cutoff", "frequency cutoff of the ensemble")] + _ESTIMATE_COLUMNS
    fit_columns = ([("kind", "p_slope: growth fit in p at one cutoff; "
                             "spread: max/min value ratio over cutoffs at one p"),
                    ("cutoff", "cutoff for p_slope rows, empty for spread rows"),
                    ("p", "p for spread rows, empty for p_slope rows")]
                   + _FIT_COLUMNS + [("ratio", "spread rows: max/min ratio")])

    def execute():
        result = lp_growth_experiment(
            ens["s"], cutoffs, p_list, radius, samples, functional=functional,
            variant=ens["variant"], beta=ens["beta"], master_seed=ens["seed"],
            workers=workers)
        est_rows = [[row.cutoff] + _estimate_row(row.estimate) for row in result.rows]
        fit_rows = [["p_slope", cutoff, "", fit.slope, fit.intercept, fit.residual, ""]
                    for cutoff, fit in result.p_fits]
        fit_rows += [["spread", "", p, "", "", "", ratio]
                     for p, ratio in result.spread_by_p]
        return {"estimates.csv": (est_columns, est_rows),
                "fits.csv": (fit_columns, fit_rows),
                "_meta": {"resolved_radii": [[c, r] for c, r in result.radii]},
                "_raw": result.raw}

    return resolved, ens["seed"], output, execute


def _cmd_mc_converge(root: _Section, workers: int):
    ens = _mc_common(root, need_window=False)
    exp = root.child("experiment")
    lower = exp.get("M_list", "int_list",
                    check=lambda v: len(v) >= 2 and all(m >= 1 for m in v),
                    expect="needs >= 2 cutoffs, each >= 1 "
                           "(the decay fit needs two points)")
    n_ref = exp.get("N_ref", "int", default=2 * max(lower),
                    check=lambda v: v >= 1, expect="must be >= 1")
    p = exp.get("p", "number", default=2.0,
                check=lambda v: 1 <= v <= MAX_P, expect=f"must lie in [1, {MAX_P}]")
    samples = exp.get("samples", "int", check=lambda v: v >= 100,
                      expect="must be >= 100")
    components = exp.get("components", "bool", default=False)
    exp.finish()
    output = _output_block(root)
    root.finish()
    if max(lower) >= n_ref:
        raise ConfigError("experiment.M_list: every M must be < N_ref")
    resolved = {
        "ensemble": ens,
        "experiment": {"M_list": sorted(lower), "N_ref": n_ref, "p": p,
                       "samples": samples, "components": components},
        "output": output,
    }
    est_columns = [("lower_cutoff", "cutoff M of the subtracted correction")] + _ESTIMATE_COLUMNS
    fit_columns = [("component", "total, or one chaos component of the gap")] + _FIT_COLUMNS

    def execute():
        result = convergence_rate_study(
            ens["s"], lower, p, samples, reference_cutoff=n_ref,
            variant=ens["variant"], beta=ens["beta"], master_seed=ens["seed"],
            workers=workers, components=components)
        est_rows = [[row.cutoff] + _estimate_row(row.estimate) for row in result.rows]
        fit_rows = [["total", result.fit.slope, result.fit.intercept,
                     result.fit.residual]]
        fit_rows += [[name, fit.slope, fit.intercept, fit.residual]
                     for name, fit in result.component_fits]
        return {"estimates.csv": (est_columns, est_rows),
                "fits.csv": (fit_columns, fit_rows),
                "_meta": {"reference_cutoff": result.reference_cutoff},
                "_raw": result.raw}

    return resolved, ens["seed"], output, execute


def _cmd_mc_chaos(root: _Section, workers: int):
    ens = _mc_common(root, need_window=True)
    exp = root.child("experiment")
    functional = exp.get("functional", "str", default="wick_mass",
                         check=lambda v: v in _CHAOS_FUNCTIONALS,
                         expect=f"one of {_CHAOS_FUNCTIONALS} (a declared chaos "
                                "degree and no required parameters)")
    p_list = exp.get("p_list", "number_list",
                     check=lambda v: all(1 <= p <= MAX_P for p in v),
                     expect=f"each p must lie in [1, {MAX_P}]")
    samples = exp.get("samples", "int", check=lambda v: v >= 100,
                      expect="must be >= 100")
    radius = exp.get("r", "radius", default=math.inf)
    exp.finish()
    output = _output_block(root)
    root.finish()
    resolved = {
        "ensemble": ens,
        "experiment": {"functional": functional, "p_list": p_list,
                       "samples": samples,
                       "r": "auto" if radius == "auto" else radius},
        "output": output,
    }
    columns = [
        ("p", "moment order"),
        ("norm", "empirical L^p norm"),
        ("ratio", "L^p norm over L^2 norm"),
        ("bound", "(p-1)^(degree/2)"),
        ("rel_ci_width", "combined relative bootstrap CI width"),
        ("within_bound", "1 when ratio <= bound within 3 CI widths"),
    ]

    def execute():
        spec = _build_ensemble(ens)
        spec_r = resolve_radius(radius, spec)
        if not math.isinf(spec_r):
            spec = _build_ensemble(ens, radius=spec_r)
        result = chaos_growth_check(functional, spec, p_list, samples,
                                    workers=workers)
        rows = [[r.p, r.norm, r.ratio, r.bound, r.rel_ci_width, r.within_bound]
                for r in result.rows]
        return {"estimates.csv": (columns, rows),
                "_meta": {"degree": result.degree, "base_norm": result.base_norm,
                          "resolved_radius": spec_r},
                "_raw": result.raw}

    return resolved, ens["seed"], output, execute


def _cmd_mc_kin(root: _Section, workers: int):
    ens = _mc_common(root, need_window=False)
    exp = root.child("experiment")
    order = exp.get("order", "int_pair", default=(0, 0),
                    check=lambda v: v[0] >= 0 and v[1] >= 0,
                    expect="orders must be nonnegative")
    field = exp.get("field", "str", default="u",
                    check=lambda v: v in ("u", "v"), expect="must be 'u' or 'v'")
    cutoff = exp.get("N", "int", check=lambda v: v >= 1, expect="must be >= 1")
    blocks = exp.get("M_list", "int_list",
                     check=lambda v: len(v) >= 2 and all(1 <= m <= cutoff for m in v),
                     expect="needs >= 2 blocks, each in [1, N] (the moment-growth "
                            "fit needs two points; a block M > N is empty in |n| <= N)")
    p = exp.get("p", "number", default=4.0,
                check=lambda v: 1 <= v <= MAX_P, expect=f"must lie in [1, {MAX_P}]")
    samples = exp.get("samples", "int", check=lambda v: v >= 100,
                      expect="must be >= 100")
    exp.finish()
    output = _output_block(root)
    root.finish()
    limit = ens["s"] if field == "u" else ens["s"] - 1
    if order[0] + order[1] > limit:
        raise ConfigError(
            f"experiment.order: total order {order[0] + order[1]} exceeds "
            f"the admissible {limit} for field '{field}'")
    resolved = {
        "ensemble": ens,
        "experiment": {"order": list(order), "field": field,
                       "M_list": sorted(blocks), "N": cutoff, "p": p,
                       "samples": samples},
        "output": output,
    }
    est_columns = [("block", "dyadic block frequency M")] + _ESTIMATE_COLUMNS
    fit_columns = _FIT_COLUMNS

    def execute():
        result = sup_norm_moment_study(
            ens["s"], order, blocks, cutoff, p, samples, field=field,
            variant=ens["variant"], beta=ens["beta"], master_seed=ens["seed"],
            workers=workers)
        est_rows = [[row.cutoff] + _estimate_row(row.estimate) for row in result.rows]
        fit_rows = [[result.fit.slope, result.fit.intercept, result.fit.residual]]
        return {"estimates.csv": (est_columns, est_rows),
                "fits.csv": (fit_columns, fit_rows),
                "_raw": result.raw}

    return resolved, ens["seed"], output, execute


def _cmd_mc_tail(root: _Section, workers: int):
    ens = _mc_common(root, need_window=False)
    exp = root.child("experiment")
    n_ref = exp.get("N", "int", check=lambda v: v >= 2, expect="must be >= 2")
    lower = exp.get("M_list", "int_list", check=lambda v: all(m >= 1 for m in v),
                    expect="cutoffs must be >= 1")
    thresholds = exp.get("alpha_list", "number_list",
                         check=lambda v: all(a >= 0 for a in v),
                         expect="thresholds must be >= 0")
    samples = exp.get("samples", "int", check=lambda v: v >= 100,
                      expect="must be >= 100")
    exp.finish()
    output = _output_block(root)
    root.finish()
    if max(lower) >= n_ref:
        raise ConfigError("experiment.M_list: every M must be < N")
    resolved = {
        "ensemble": ens,
        "experiment": {"N": n_ref, "M_list": sorted(lower),
                       "alpha_list": thresholds, "samples": samples},
        "output": output,
    }
    columns = [
        ("lower_cutoff", "cutoff M of the subtracted correction"),
        ("threshold", "exceedance threshold"),
        ("exceedances", "number of samples with |gap| above the threshold"),
        ("probability", "empirical exceedance probability (or 1/samples bound)"),
        ("is_upper_bound", "1 when no exceedance was observed"),
    ]
    check_columns = [("check", "monotonicity check name"),
                     ("passed", "1 when the monotonicity holds")]

    def execute():
        result = tail_estimate_study(
            ens["s"], n_ref, lower, thresholds, samples, variant=ens["variant"],
            beta=ens["beta"], master_seed=ens["seed"], workers=workers)
        rows = [[r.lower_cutoff, r.threshold, r.exceedances, r.probability,
                 r.is_upper_bound] for r in result.rows]
        check_rows = [["decay_in_threshold", result.threshold_monotone],
                      ["decay_in_cutoff", result.cutoff_monotone]]
        return {"estimates.csv": (columns, rows),
                "checks.csv": (check_columns, check_rows),
                "_raw": result.raw}

    return resolved, ens["seed"], output, execute


def _cmd_kakutani(root: _Section, workers: int):
    s = root.get("s", "number", check=lambda v: v > 0, expect="must be > 0")
    max_norm = root.get("max_norm", "int", check=lambda v: v >= 0,
                        expect="must be >= 0")
    marginal = root.get("marginal", "str", default="position",
                        check=lambda v: v in MARGINALS, expect=f"one of {MARGINALS}")
    output = _output_block(root)
    root.finish()
    resolved = {"s": s, "max_norm": max_norm, "marginal": marginal,
                "output": output}
    columns = [
        ("sq_modulus", "squared frequency modulus |n|^2 of the class"),
        ("multiplicity", "number of lattice points in the class"),
        ("statistic", "comparison statistic S for a single mode"),
        ("weighted", "multiplicity times statistic"),
        ("partial_sum", "running sum of the weighted statistics"),
    ]

    def execute():
        summary = kakutani_terms(s, max_norm, marginal)
        rows = [list(row) for row in summary.rows()]
        return {"kakutani.csv": (columns, rows),
                "_meta": {"partial_sum": summary.partial_sum}}

    return resolved, None, output, execute


_RUNNERS = {
    "sample": _cmd_sample,
    "evolve": _cmd_evolve,
    "diagnose": _cmd_diagnose,
    "mc-lp": _cmd_mc_lp,
    "mc-converge": _cmd_mc_converge,
    "mc-chaos": _cmd_mc_chaos,
    "mc-kin": _cmd_mc_kin,
    "mc-tail": _cmd_mc_tail,
    "kakutani": _cmd_kakutani,
}


def _write_outputs(outdir: Path, command: str, resolved: dict, seed, workers: int,
                   wall: float, files: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    extra_meta = files.pop("_meta", {})
    schema: dict = {"command": command, "files": {}}
    for name, payload in files.items():
        if name.endswith(".csv"):
            columns, rows = payload
            _write_csv(outdir / name, columns, rows)
            schema["files"][name] = {n: d for n, d in columns}
        else:
            (outdir / name).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
            schema["files"][name] = "JSON document"
    metadata = {
        "command": command,
        "version": f"torusnlw-{__version__}",
        "seed": seed,
        "workers": workers,
        "wall_time_s": wall,
        "config": resolved,
    }
    metadata.update(extra_meta)
    (outdir / "metadata.json").write_text(
        json.dumps(metadata, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (outdir / "schema.json").write_text(
        json.dumps(schema, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# glibc's mallopt parameters (malloc.h) and the size kept on the heap
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_KEEP_BYTES = 32 << 20


def _keep_freed_memory() -> None:
    """Let glibc serve blocks up to 32 MiB from the heap and keep up to
    32 MiB of freed heap top, in this process and the workers it forks.

    Every state's grids are allocated and freed anew.  By default glibc
    maps the large ones afresh and hands freed heap tops back, so each
    state faults its pages in again.  A no-op where libc is not glibc.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _HEAP_KEEP_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _HEAP_KEEP_BYTES)
    except (OSError, AttributeError):
        pass


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = argparse.ArgumentParser(
        prog="torusnlw",
        description="Spectral simulation and Monte Carlo verification for "
                    "truncated cubic wave equations on the 2-torus.")
    parser.add_argument("command", choices=COMMANDS, help="what to run")
    parser.add_argument("config", help="path to the JSON run config")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel sampling processes (outputs do not depend on it)")
    args = parser.parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 1
    try:
        cfg = _load_config(args.config)
        resolved, seed, output, execute = _RUNNERS[args.command](
            _Section(cfg), args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    try:
        files = execute()
    except (IntegrationError, DegenerateEnsembleError, FloatingPointError,
            UnsupportedParameterError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - t0
    raw = files.pop("_raw", None)
    if raw is not None and output["emit_raw"]:
        files["raw_values.csv"] = (_RAW_COLUMNS, (
            [label, i, float(v), float(w)] for label, values, weights in raw
            for i, (v, w) in enumerate(zip(values, weights))))
    _write_outputs(Path(output["directory"]), args.command, resolved, seed,
                   args.workers, wall, files)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
