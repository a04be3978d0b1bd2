"""Command-line entry point.

One JSON config, one run, one output directory.  Every command validates
its whole config before any computation (exit 1 with a key-path message
on failure), then writes CSV tables (RFC 4180), a metadata JSON with the
fully resolved config, and a schema JSON documenting the CSV columns.
Runtime failures (blow-up, degenerate ensembles, memory) exit 2.

Each command is one row of the table ``_RUNNERS``: a declarative config
spec and a run function.  A spec is a ``_Group`` of ``_Key`` values and
nested groups; three groups are shared (the ensemble, with or without a
sampling window, the output and the initial state).  ``_validate`` walks
a spec and returns the resolved config, which metadata.json stores under
``config``, together with the objects the spec's groups build on the way
(the ``EnsembleSpec``, the ``IntegratorSpec``, the initial state), so a
library ``ValueError`` from them is a config error under the group's key
path.  Checks that
span keys are small rules attached to the group that holds those keys.

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
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .dynamics import (
    EQUATIONS,
    SCHEMES,
    IntegrationError,
    IntegratorSpec,
    ModelSpec,
    _steps,
    trajectory,
)
from .energy import UnsupportedParameterError, _one, energy_report, hamiltonian
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
from .sampling import _KEY_BOUND, FAMILIES, VARIANTS, EnsembleSpec, sample
from .spectral import (
    PhaseState,
    sobolev_norm,
    state_from_dict,
    state_to_dict,
    zero_field,
)

OUTPUT_DIR_ENV = "TORUSNLW_OUTPUT_DIR"


class ConfigError(Exception):
    """Config rejected before computation; the message names the key path."""


# -- config specs and their validator -----------------------------------------

_REQUIRED = object()  # the config must give the key
_OMIT = object()      # an absent key stays out of the resolved config


@dataclass(frozen=True)
class _Key:
    """One config value.  default is a value, a function of the values of
    the group resolved so far, _REQUIRED or _OMIT; check is a (test,
    message) pair; then maps the checked value to its resolved form."""

    kind: str
    default: object = _REQUIRED
    check: tuple | None = None
    then: Callable | None = None


@dataclass(frozen=True)
class _Group:
    """One config object: its keys and groups in validation order.  When
    absent, default {} resolves every default.  Each rule maps (values,
    built) to None or to the (relative key path, message) of a broken
    condition.  finish(values, built) runs last and returns the group's
    built object; without it that is the dict of its groups' objects."""

    keys: dict
    default: object = _REQUIRED
    rules: tuple = ()
    finish: Callable | None = None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v) -> bool:
    """No NaN or +-Infinity (Python's JSON parser reads them) in v or its entries."""
    if isinstance(v, list):
        return all(map(_finite, v))
    return not isinstance(v, float) or math.isfinite(v)


_KINDS = {  # kind -> (accepts the JSON value, converts it); numbers must be _finite
    "int": (_is_int, int),
    "number": (_is_number, float),
    # "auto" and "inf" stay strings: the resolved config must be valid JSON
    "radius": (lambda v: v in ("auto", "inf") or _is_number(v),
               lambda v: v if isinstance(v, str) else float(v)),
    "str": (lambda v: isinstance(v, str), str),
    "bool": (lambda v: isinstance(v, bool), bool),
    "int_list": (lambda v: isinstance(v, list) and bool(v) and all(map(_is_int, v)), list),
    "number_list": (lambda v: isinstance(v, list) and bool(v) and all(map(_is_number, v)),
                    lambda v: [float(x) for x in v]),
    "int_pair": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)), list),
}


def _ge(lo):
    return lambda v: v >= lo, f"must be >= {lo}"


def _gt(lo):
    return lambda v: v > lo, f"must be > {lo}"


def _one_of(options, why: str = ""):
    return lambda v: v in options, f"one of {options}{why}"


def _join(path: str, key: str) -> str:
    return ".".join(part for part in (path, key) if part) or "config"


def _validate(spec: _Group, data, path: str = ""):
    """Returns (resolved values, built object) of one config group."""
    if not isinstance(data, dict):
        raise ConfigError(f"{_join(path, '')}: expected an object")
    values: dict = {}
    built: dict = {}
    for key, item in spec.keys.items():
        at = _join(path, key)
        group = isinstance(item, _Group)
        if key not in data:
            if item.default is _REQUIRED:
                raise ConfigError(f"{at}: missing required {'section' if group else 'key'}")
            if item.default is _OMIT:
                continue
        if group:
            values[key], built[key] = _validate(item, data.get(key, item.default), at)
        elif key not in data:
            values[key] = item.default(values) if callable(item.default) else item.default
        else:
            accepts, convert = _KINDS[item.kind]
            if not accepts(data[key]):
                raise ConfigError(f"{at}: expected {item.kind}")
            if not _finite(data[key]):
                raise ConfigError(f"{at}: must be finite")
            value = convert(data[key])
            if item.check is not None and not item.check[0](value):
                raise ConfigError(f"{at}: {item.check[1]}")
            values[key] = value if item.then is None else item.then(value)
    unknown = sorted(set(data) - set(spec.keys))
    if unknown:
        raise ConfigError(f"{_join(path, '')}: unknown keys {unknown}")
    for rule in spec.rules:
        broken = rule(values, built)
        if broken is not None:
            raise ConfigError(f"{_join(path, broken[0])}: {broken[1]}")
    if spec.finish is None:
        return values, built
    try:
        return values, spec.finish(values, built)
    except ValueError as exc:
        raise ConfigError(f"{_join(path, '')}: {exc}")


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


# -- shared config groups ------------------------------------------------------


def _key_word(key: str):
    """Rule: the integer `key` (a seed or a sample index) is below 2^64."""
    def rule(values: dict, built):
        return (key, "must be < 2^64") if values[key] >= _KEY_BOUND else None
    return rule


def _ensemble_spec(ens: dict, built) -> EnsembleSpec:
    # without a window the spec is built at window 0, and each study sets
    # the window of every cutoff it draws
    window = ens.get("sample_max_mode", 0)
    return EnsembleSpec(variant=ens["variant"], s=ens["s"], sample_max_mode=window,
                        truncation_N=ens.get("truncation_N", window),
                        master_seed=ens["seed"], beta=ens["beta"])


def _ensemble(windowed: bool) -> _Group:
    keys = {"variant": _Key("str", "mu_s", _one_of(VARIANTS)),
            "s": _Key("number", check=_gt(1)),
            "beta": _Key("number", 0.0),
            "seed": _Key("int", 0, _ge(0))}
    if windowed:
        keys["sample_max_mode"] = _Key("int", check=_ge(0))
        keys["truncation_N"] = _Key("int", lambda ens: ens["sample_max_mode"], _ge(0))
    return _Group(keys, rules=(_key_word("seed"),), finish=_ensemble_spec)


_ENSEMBLE = _ensemble(windowed=False)
_WINDOWED_ENSEMBLE = _ensemble(windowed=True)


def _output_directory(out: dict, built) -> None:
    # the environment's directory replaces the configured one in the
    # resolved config too, so metadata.json records where the run wrote
    out["directory"] = os.environ.get(OUTPUT_DIR_ENV) or out["directory"]


_OUTPUT = _Group({"directory": _Key("str", "torusnlw-out"),
                  "emit_raw": _Key("bool", False)},
                 default={}, finish=_output_directory)


def _one_source(state: dict, built):
    if sum(k in state for k in ("file", "sample", "zero")) != 1:
        return "", "exactly one of file/sample/zero required"
    return None


def _initial_state(state: dict, built) -> PhaseState:
    """Read or draw the state at validation, so a bad file is a config
    error and not a runtime one."""
    if "zero" in state:
        f = zero_field(state["zero"]["max_mode"])
        return PhaseState(f, f)
    if "sample" in state:
        return built["sample"]
    path = state["file"]
    try:
        return state_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except OSError as exc:
        raise ConfigError(f"state.file: {exc.strerror or exc}: {path}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"state.file: not a valid state file ({exc})")


_INDEX = _Key("int", 0, _ge(0))
_STATE = _Group({
    "file": _Key("str", _OMIT),
    "sample": _Group({"ensemble": _WINDOWED_ENSEMBLE, "index": _INDEX}, _OMIT,
                     rules=(_key_word("index"),),
                     finish=lambda draw, built: sample(built["ensemble"], draw["index"])),
    "zero": _Group({"max_mode": _Key("int", check=_ge(0))}, _OMIT),
}, rules=(_one_source,), finish=_initial_state)

_SAMPLES = _Key("int", check=_ge(100))
_P_RANGE = (lambda p: 1 <= p <= MAX_P, f"must lie in [1, {MAX_P}]")


def _beta_order(model: dict, built):
    if FAMILIES[model["equation"]].beta_order and not model["beta"] > 1:
        return "beta", f"{model['equation']} needs beta > 1"
    return None


def _distinct(key: str, what: str = "cutoff"):
    """Rule: no entry of the list `key` repeats (each cutoff is drawn once)."""
    def rule(exp: dict, built):
        entries = exp[key]
        for i, entry in enumerate(entries):
            if entry in entries[:i]:
                return key, f"{what} {entry} is repeated"
        return None
    return rule


def _below(reference: str):
    """Rule: every lower cutoff in M_list is below the reference cutoff."""
    def rule(exp: dict, built):
        if max(exp["M_list"]) >= exp[reference]:
            return "M_list", f"every M must be < {reference}"
        return None
    return rule


def _seed(cfg: dict):
    """The ensemble seed of a run that draws, else None."""
    ens = cfg.get("ensemble") or cfg.get("state", {}).get("sample", {}).get("ensemble")
    return ens["seed"] if ens else None


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


# -- commands ------------------------------------------------------------------
# Each command is a spec and a run(cfg, built, workers) that maps file names
# to (columns, rows) for CSV or a JSON-able object, plus "_meta" (into
# metadata.json) and, on mc-* commands, "_raw" (the drawn series, written by
# main as raw_values.csv when output.emit_raw is set).  Library functions are
# looked up in this module's globals when a run starts.

_SAMPLE = _Group({"ensemble": _WINDOWED_ENSEMBLE, "index": _INDEX, "output": _OUTPUT},
                 rules=(_key_word("index"),))


def _run_sample(cfg, built, workers):
    payload = state_to_dict(sample(built["ensemble"], cfg["index"]))
    payload["ensemble"] = cfg["ensemble"]
    payload["index"] = cfg["index"]
    return {"state.json": payload}


_EQUATION = _Key("str", "nlkg", _one_of(EQUATIONS))
_CUTOFF = _Key("int", check=_ge(0))


def _window_covers_cutoff(cfg, built):
    window, cutoff = built["state"].max_mode, cfg["model"]["N"]
    if window < cutoff:
        return "state", f"window {window} is smaller than model.N = {cutoff}"
    return None


def _integrator(integ: dict, built) -> IntegratorSpec:
    _steps(integ["t_final"], integ["dt"])  # a step count that overflows is a config error
    return IntegratorSpec(scheme=integ["scheme"], dt=integ["dt"])


_EVOLVE = _Group({
    "model": _Group({"equation": _EQUATION, "N": _CUTOFF, "beta": _Key("number", 0.0)},
                    rules=(_beta_order,)),
    "state": _STATE,
    "integrator": _Group({
        "scheme": _Key("str", "strang_splitting", _one_of(SCHEMES)),
        "dt": _Key("number", 1e-3, _gt(0)),
        "t_final": _Key("number"),
    }, finish=_integrator),
    "trajectory": _Group({"stride": _Key("int", 1, _ge(1)),
                          "sigma": _Key("number", 1.0),
                          "s": _Key("number", 2.0, _gt(1))}, default={}),
    "output": _OUTPUT,
}, rules=(_window_covers_cutoff,))


def _run_evolve(cfg, built, workers):
    model, s, sigma = cfg["model"], cfg["trajectory"]["s"], cfg["trajectory"]["sigma"]
    equation, cutoff, beta = model["equation"], model["N"], model["beta"]
    flow = ModelSpec(equation=equation, truncation_N=cutoff, beta=beta)
    columns = [
        ("t", "time"),
        ("energy", "conserved energy of the untruncated equation"),
        ("truncated_energy", "energy conserved by the truncated flow"),
        ("renormalized_energy", "modified energy at smoothing order s"),
        ("sobolev_norm", "H^sigma x H^(sigma-1) norm of the state"),
    ]
    rows = []
    # a diverging flow ends in IntegrationError; the diagnostics of a
    # finite-but-huge state may overflow, which is reported below instead
    with np.errstate(over="ignore", invalid="ignore"):
        for t, st in trajectory(built["state"], cfg["integrator"]["t_final"], flow,
                                built["integrator"], stride=cfg["trajectory"]["stride"]):
            factors = _one(st.u, st.v, s, cutoff, equation, beta)  # u_N to the grid once
            row = [
                t,
                hamiltonian(st, equation, beta),
                float(factors.truncated_energy[0]),
                float(factors.renormalized_energy[0]),
                sobolev_norm(st, sigma),
            ]
            bad = [name for (name, _), x in zip(columns[1:], row[1:]) if not math.isfinite(x)]
            if bad:
                raise FloatingPointError(
                    f"evolve: non-finite values of {', '.join(bad)} at t = {t:g}")
            rows.append(row)
    return {"trajectory.csv": (columns, rows)}


_DIAGNOSE = _Group({
    "model": _Group({"equation": _EQUATION, "s": _Key("number", check=_gt(1)),
                     "N": _CUTOFF, "beta": _Key("number", 0.0)},
                    rules=(_beta_order,)),
    "state": _STATE,
    "output": _OUTPUT,
})


def _run_diagnose(cfg, built, workers):
    m = cfg["model"]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        report = energy_report(built["state"], m["s"], m["N"], m["equation"],
                               m["beta"]).to_dict()
    bad = [k for k, v in report.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise FloatingPointError(f"diagnose: non-finite values of {', '.join(bad)}")
    return {"report.json": report}


# mc-lp and mc-chaos name one registry functional and supply no parameters
_PARAMETERLESS = sorted(name for name, f in FUNCTIONALS.items() if not f.requires)
_CHAOS_FUNCTIONALS = [name for name in _PARAMETERLESS
                      if FUNCTIONALS[name].degree is not None]
_R = (lambda r: isinstance(r, str) or r > 0, 'must be > 0, "auto" or "inf"')


def _functional_admits_s(cfg: dict, built):
    """Rule: the experiment's functional is studied at the ensemble's s."""
    try:
        FUNCTIONALS[cfg["experiment"]["functional"]].admits_s(cfg["ensemble"]["s"])
    except UnsupportedParameterError as exc:
        return "ensemble.s", str(exc)
    return None


def _json_radius(r: float):
    """A resolved radius as metadata.json writes it, "inf" for no conditioning."""
    return "inf" if math.isinf(r) else r


_MC_LP = _Group({
    "ensemble": _ENSEMBLE,
    "experiment": _Group({
        "N_list": _Key("int_list", check=(lambda v: min(v) >= 1, "cutoffs must be >= 1")),
        "p_list": _Key("number_list", check=(
            lambda v: len(set(v)) >= 2 and all(1 <= p <= MAX_P for p in v),
            f"needs >= 2 distinct entries, each in [1, {MAX_P}] "
            "(the growth fit in p needs two points)")),
        "samples": _SAMPLES,
        "functional": _Key("str", "energy_rate_total", _one_of(
            _PARAMETERLESS, " (mc-lp supplies no functional parameters)")),
        "r": _Key("radius", "auto", _R),
    }, rules=(_distinct("N_list"),)),
    "output": _OUTPUT,
}, rules=(_functional_admits_s,))


def _run_mc_lp(cfg, built, workers):
    exp = cfg["experiment"]
    result = lp_growth_experiment(
        built["ensemble"], exp["N_list"], exp["p_list"], exp["r"], exp["samples"],
        functional=exp["functional"], workers=workers)
    est_columns = [("cutoff", "frequency cutoff of the ensemble")] + _ESTIMATE_COLUMNS
    fit_columns = ([("kind", "p_slope: growth fit in p at one cutoff; "
                             "spread: max/min value ratio over cutoffs at one p"),
                    ("cutoff", "cutoff for p_slope rows, empty for spread rows"),
                    ("p", "p for spread rows, empty for p_slope rows")]
                   + _FIT_COLUMNS + [("ratio", "spread rows: max/min ratio")])
    est_rows = [[row.cutoff] + _estimate_row(row.estimate) for row in result.rows]
    fit_rows = [["p_slope", cutoff, "", fit.slope, fit.intercept, fit.residual, ""]
                for cutoff, fit in result.p_fits]
    fit_rows += [["spread", "", p, "", "", "", ratio] for p, ratio in result.spread_by_p]
    return {"estimates.csv": (est_columns, est_rows),
            "fits.csv": (fit_columns, fit_rows),
            "_meta": {"resolved_radii": [[c, _json_radius(r)] for c, r in result.radii]},
            "_raw": result.raw}


_MC_CONVERGE = _Group({
    "ensemble": _ENSEMBLE,
    "experiment": _Group({
        "M_list": _Key("int_list", check=(
            lambda v: len(set(v)) >= 2 and min(v) >= 1,
            "needs >= 2 distinct cutoffs, each >= 1 (the decay fit needs two points)"),
            then=sorted),
        "N_ref": _Key("int", lambda exp: 2 * max(exp["M_list"]), _ge(1)),
        "p": _Key("number", 2.0, _P_RANGE),
        "samples": _SAMPLES,
        "components": _Key("bool", False),
    }, rules=(_distinct("M_list"), _below("N_ref"))),
    "output": _OUTPUT,
})


def _run_mc_converge(cfg, built, workers):
    exp = cfg["experiment"]
    result = convergence_rate_study(
        built["ensemble"], exp["M_list"], exp["p"], exp["samples"],
        reference_cutoff=exp["N_ref"], components=exp["components"], workers=workers)
    est_columns = [("lower_cutoff", "cutoff M of the subtracted correction")] + _ESTIMATE_COLUMNS
    fit_columns = [("component", "total, or one chaos component of the gap")] + _FIT_COLUMNS
    est_rows = [[row.cutoff] + _estimate_row(row.estimate) for row in result.rows]
    fit_rows = [["total", result.fit.slope, result.fit.intercept, result.fit.residual]]
    fit_rows += [[name, fit.slope, fit.intercept, fit.residual]
                 for name, fit in result.component_fits]
    return {"estimates.csv": (est_columns, est_rows),
            "fits.csv": (fit_columns, fit_rows),
            "_meta": {"reference_cutoff": result.reference_cutoff},
            "_raw": result.raw}


_MC_CHAOS = _Group({
    "ensemble": _WINDOWED_ENSEMBLE,
    "experiment": _Group({
        "functional": _Key("str", "wick_mass", _one_of(
            _CHAOS_FUNCTIONALS, " (a declared chaos degree and no required parameters)")),
        "p_list": _Key("number_list", check=(
            lambda v: all(1 <= p <= MAX_P for p in v), f"each p must lie in [1, {MAX_P}]")),
        "samples": _SAMPLES,
        "r": _Key("radius", "inf", _R),
    }),
    "output": _OUTPUT,
}, rules=(_functional_admits_s,))


def _run_mc_chaos(cfg, built, workers):
    exp = cfg["experiment"]
    spec = built["ensemble"]
    radius = resolve_radius(exp["r"], spec, workers=workers)
    result = chaos_growth_check(exp["functional"], replace(spec, energy_cutoff_r=radius),
                                exp["p_list"], exp["samples"], workers=workers)
    columns = [
        ("p", "moment order"),
        ("norm", "empirical L^p norm"),
        ("ratio", "L^p norm over L^2 norm"),
        ("bound", "(p-1)^(degree/2)"),
        ("rel_ci_width", "combined relative bootstrap CI width"),
        ("within_bound", "1 when ratio <= bound within 3 CI widths"),
    ]
    rows = [[r.p, r.norm, r.ratio, r.bound, r.rel_ci_width, r.within_bound]
            for r in result.rows]
    return {"estimates.csv": (columns, rows),
            "_meta": {"degree": result.degree, "base_norm": result.base_norm,
                      "resolved_radius": _json_radius(radius)},
            "_raw": result.raw}


_KIN_BLOCKS = ("needs >= 2 distinct blocks, each in [1, N] (the moment-growth fit "
               "needs two points; a block M > N is empty in |n| <= N)")


def _blocks_within_cutoff(exp: dict, built):
    return ("M_list", _KIN_BLOCKS) if max(exp["M_list"]) > exp["N"] else None


def _admissible_order(cfg: dict, built):
    exp, s = cfg["experiment"], cfg["ensemble"]["s"]
    limit = s if exp["field"] == "u" else s - 1
    total = exp["order"][0] + exp["order"][1]
    if total > limit:
        return ("experiment.order", f"total order {total} exceeds the admissible "
                                    f"{limit} for field '{exp['field']}'")
    return None


_MC_KIN = _Group({
    "ensemble": _ENSEMBLE,
    "experiment": _Group({
        "order": _Key("int_pair", [0, 0], (lambda v: min(v) >= 0,
                                           "orders must be nonnegative")),
        "field": _Key("str", "u", (lambda v: v in ("u", "v"), "must be 'u' or 'v'")),
        "N": _Key("int", check=_ge(1)),
        "M_list": _Key("int_list", check=(lambda v: len(set(v)) >= 2 and min(v) >= 1,
                                          _KIN_BLOCKS), then=sorted),
        "p": _Key("number", 4.0, _P_RANGE),
        "samples": _SAMPLES,
    }, rules=(_distinct("M_list", "block"), _blocks_within_cutoff)),
    "output": _OUTPUT,
}, rules=(_admissible_order,))


def _run_mc_kin(cfg, built, workers):
    exp = cfg["experiment"]
    result = sup_norm_moment_study(
        built["ensemble"], exp["order"], exp["M_list"], exp["N"], exp["p"],
        exp["samples"], field=exp["field"], workers=workers)
    est_columns = [("block", "dyadic block frequency M")] + _ESTIMATE_COLUMNS
    est_rows = [[row.cutoff] + _estimate_row(row.estimate) for row in result.rows]
    fit_rows = [[result.fit.slope, result.fit.intercept, result.fit.residual]]
    return {"estimates.csv": (est_columns, est_rows),
            "fits.csv": (_FIT_COLUMNS, fit_rows),
            "_raw": result.raw}


_MC_TAIL = _Group({
    "ensemble": _ENSEMBLE,
    "experiment": _Group({
        "N": _Key("int", check=_ge(2)),
        "M_list": _Key("int_list", check=(lambda v: min(v) >= 1, "cutoffs must be >= 1"),
                       then=sorted),
        "alpha_list": _Key("number_list", check=(lambda v: all(a >= 0 for a in v),
                                                 "thresholds must be >= 0")),
        "samples": _SAMPLES,
    }, rules=(_distinct("M_list"), _below("N"))),
    "output": _OUTPUT,
})


def _run_mc_tail(cfg, built, workers):
    exp = cfg["experiment"]
    result = tail_estimate_study(
        built["ensemble"], exp["N"], exp["M_list"], exp["alpha_list"], exp["samples"],
        workers=workers)
    columns = [
        ("lower_cutoff", "cutoff M of the subtracted correction"),
        ("threshold", "exceedance threshold"),
        ("exceedances", "number of samples with |gap| above the threshold"),
        ("probability", "empirical exceedance probability (or 1/samples bound)"),
        ("is_upper_bound", "1 when no exceedance was observed"),
    ]
    check_columns = [("check", "monotonicity check name"),
                     ("passed", "1 when the monotonicity holds")]
    rows = [[r.lower_cutoff, r.threshold, r.exceedances, r.probability, r.is_upper_bound]
            for r in result.rows]
    check_rows = [["decay_in_threshold", result.threshold_monotone],
                  ["decay_in_cutoff", result.cutoff_monotone]]
    return {"estimates.csv": (columns, rows),
            "checks.csv": (check_columns, check_rows),
            "_raw": result.raw}


_KAKUTANI = _Group({
    "s": _Key("number", check=_gt(0)),
    "max_norm": _Key("int", check=_ge(0)),
    "marginal": _Key("str", "position", _one_of(MARGINALS)),
    "output": _OUTPUT,
})


def _run_kakutani(cfg, built, workers):
    summary = kakutani_terms(cfg["s"], cfg["max_norm"], cfg["marginal"])
    columns = [
        ("sq_modulus", "squared frequency modulus |n|^2 of the class"),
        ("multiplicity", "number of lattice points in the class"),
        ("statistic", "comparison statistic S for a single mode"),
        ("weighted", "multiplicity times statistic"),
        ("partial_sum", "running sum of the weighted statistics"),
    ]
    return {"kakutani.csv": (columns, [list(row) for row in summary.rows()]),
            "_meta": {"partial_sum": summary.partial_sum}}


def _prepare(spec: _Group, run, config: dict, workers: int):
    """Validate config against spec; returns the resolved config and the
    run, not yet started."""
    resolved, built = _validate(spec, config)
    return resolved, partial(run, resolved, built, workers)


_RUNNERS = {  # command -> (config, workers) -> (resolved config, run)
    "sample": partial(_prepare, _SAMPLE, _run_sample),
    "evolve": partial(_prepare, _EVOLVE, _run_evolve),
    "diagnose": partial(_prepare, _DIAGNOSE, _run_diagnose),
    "mc-lp": partial(_prepare, _MC_LP, _run_mc_lp),
    "mc-converge": partial(_prepare, _MC_CONVERGE, _run_mc_converge),
    "mc-chaos": partial(_prepare, _MC_CHAOS, _run_mc_chaos),
    "mc-kin": partial(_prepare, _MC_KIN, _run_mc_kin),
    "mc-tail": partial(_prepare, _MC_TAIL, _run_mc_tail),
    "kakutani": partial(_prepare, _KAKUTANI, _run_kakutani),
}
COMMANDS = tuple(_RUNNERS)


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
        resolved, run = _RUNNERS[args.command](_load_config(args.config), args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    try:
        files = run()
    except (IntegrationError, DegenerateEnsembleError, FloatingPointError,
            UnsupportedParameterError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - t0
    output = resolved["output"]
    raw = files.pop("_raw", None)
    if raw is not None and output["emit_raw"]:
        files["raw_values.csv"] = (_RAW_COLUMNS, (
            [label, i, float(v), float(w)] for label, values, weights in raw
            for i, (v, w) in enumerate(zip(values, weights))))
    _write_outputs(Path(output["directory"]), args.command, resolved, _seed(resolved),
                   args.workers, wall, files)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
