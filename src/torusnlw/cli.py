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
(the ``EnsembleSpec``, the ``IntegratorSpec``, the initial state).

The CLI checks a config's shape (JSON kinds, finite numbers, required,
default and unknown keys) and three facts of its own: a state has one
source, mc-lp and mc-chaos name a functional they can supply, a zero
state's window is >= 0.  The library judges every other value, before
any work: its refusal is a config error at the group's key for the
argument when a group builds its object, and at the key that the
command's row of ``_ARGUMENT_KEYS`` maps the argument to when the run
raises it (a runtime error when the row names no key for it).

The TORUSNLW_OUTPUT_DIR environment variable overrides the configured
output directory; --workers bounds sampling parallelism without changing
any output byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .dynamics import IntegrationError, IntegratorSpec, ModelSpec, _steps, trajectory
from .energy import UnsupportedParameterError, _one, energy_report, hamiltonian
from .measures import kakutani_terms
from .montecarlo import (FUNCTIONALS, DegenerateEnsembleError, _default_reference,
                         chaos_growth_check, convergence_rate_study, lp_growth_experiment,
                         sup_norm_moment_study, tail_estimate_study)
from .sampling import EnsembleSpec, sample
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
    message) pair of a fact the CLI owns; then maps the checked value to its
    resolved form."""

    kind: str
    default: object = _REQUIRED
    check: object = None
    then: Callable | None = None


@dataclass(frozen=True)
class _Group:
    """One config object: its keys and groups in validation order.  When
    absent, default {} resolves every default.  finish(values, built) runs
    last and returns the group's built object; without it that is the dict
    of its groups' objects.  finish's refusal of an argument is reported at
    the key of that name, or at the relative key path renamed pairs with it."""

    keys: dict
    default: object = _REQUIRED
    finish: Callable | None = None
    renamed: tuple = ()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


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
    if spec.finish is None:
        return values, built
    try:
        return values, spec.finish(values, built)
    except ValueError as exc:
        keys = {**{key: _join(path, key) for key in spec.keys},
                **{arg: _join(path, key) for arg, key in spec.renamed}}
        raise _at_key(exc, keys) or ConfigError(f"{_join(path, '')}: {exc}")


def _at_key(exc: ValueError, keys: dict) -> ConfigError | None:
    """A library refusal as a config error at the key path that keys maps its
    argument to, in the text of the broken rule; None when keys has none."""
    key = keys.get(getattr(exc, "argument", None))
    return None if key is None else ConfigError(f"{key}: {exc.text}")


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


def _ensemble_spec(ens: dict, built) -> EnsembleSpec:
    # without a window the spec is built at window 0, and each study sets
    # the window of every cutoff it draws
    window = ens.get("sample_max_mode", 0)
    return EnsembleSpec(variant=ens["variant"], s=ens["s"], sample_max_mode=window,
                        truncation_N=ens.get("truncation_N", window),
                        master_seed=ens["seed"], beta=ens["beta"])


def _ensemble(windowed: bool) -> _Group:
    keys = {"variant": _Key("str", "mu_s"), "s": _Key("number"),
            "beta": _Key("number", 0.0), "seed": _Key("int", 0)}
    if windowed:
        keys["sample_max_mode"] = _Key("int")
        keys["truncation_N"] = _Key("int", lambda ens: ens["sample_max_mode"])
    return _Group(keys, finish=_ensemble_spec, renamed=(("master_seed", "seed"),))


_ENSEMBLE = _ensemble(windowed=False)
_WINDOWED_ENSEMBLE = _ensemble(windowed=True)


def _output_directory(out: dict, built) -> None:
    # the environment's directory replaces the configured one in the
    # resolved config too, so metadata.json records where the run wrote
    out["directory"] = os.environ.get(OUTPUT_DIR_ENV) or out["directory"]


_OUTPUT = _Group({"directory": _Key("str", "torusnlw-out"),
                  "emit_raw": _Key("bool", False)},
                 default={}, finish=_output_directory)


def _one_source(state: dict) -> None:
    if sum(k in state for k in ("file", "sample", "zero")) != 1:
        raise ConfigError("state: exactly one of file/sample/zero required")


def _initial_state(state: dict, built) -> PhaseState:
    """Read or draw the state at validation, so a bad file is a config
    error and not a runtime one."""
    _one_source(state)
    if "zero" in state:
        f = zero_field(state["zero"]["max_mode"])
        return PhaseState(f, f)
    if "sample" in state:
        return sample(built["sample"]["ensemble"], state["sample"]["index"])
    path = state["file"]
    try:
        return state_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except OSError as exc:
        raise ConfigError(f"state.file: {exc.strerror or exc}: {path}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"state.file: not a valid state file ({exc})")


_STATE = _Group({
    "file": _Key("str", _OMIT),
    "sample": _Group({"ensemble": _WINDOWED_ENSEMBLE, "index": _Key("int", 0)}, _OMIT),
    "zero": _Group({"max_mode": _Key("int", check=(lambda v: v >= 0, "must be >= 0"))}, _OMIT),
}, finish=_initial_state, renamed=(("index", "sample.index"),))


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

_SAMPLE = _Group({"ensemble": _WINDOWED_ENSEMBLE, "index": _Key("int", 0), "output": _OUTPUT})


def _run_sample(cfg, built, workers):
    payload = state_to_dict(sample(built["ensemble"], cfg["index"]))
    payload["ensemble"] = cfg["ensemble"]
    payload["index"] = cfg["index"]
    return {"state.json": payload}


_MODEL = {"equation": _Key("str", "nlkg"), "N": _Key("int"), "beta": _Key("number", 0.0)}


def _integrator(integ: dict, built) -> IntegratorSpec:
    spec = IntegratorSpec(scheme=integ["scheme"], dt=integ["dt"])
    _steps(integ["t_final"], spec.dt)  # a step count out of bounds is a config error
    return spec


_EVOLVE = _Group({
    "model": _Group(_MODEL),
    "state": _STATE,
    "integrator": _Group({
        "scheme": _Key("str", "strang_splitting"),
        "dt": _Key("number", 1e-3),
        "t_final": _Key("number"),
    }, finish=_integrator),
    "trajectory": _Group({"stride": _Key("int", 1),
                          "sigma": _Key("number", 1.0),
                          "s": _Key("number", 2.0)}, default={}),
    "output": _OUTPUT,
})


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
    "model": _Group(dict(_MODEL, s=_Key("number"))),
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


def _json_radius(r: float):
    """A resolved radius as metadata.json writes it, "inf" for no conditioning."""
    return "inf" if math.isinf(r) else r


_MC_LP = _Group({
    "ensemble": _ENSEMBLE,
    "experiment": _Group({
        "N_list": _Key("int_list"),
        "p_list": _Key("number_list"),
        "samples": _Key("int"),
        "functional": _Key("str", "energy_rate_total", _one_of(
            _PARAMETERLESS, " (mc-lp supplies no functional parameters)")),
        "r": _Key("radius", "auto"),
    }),
    "output": _OUTPUT,
})


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
        "M_list": _Key("int_list", then=sorted),
        "N_ref": _Key("int", lambda exp: _default_reference(exp["M_list"])),
        "p": _Key("number", 2.0),
        "samples": _Key("int"),
        "components": _Key("bool", False),
    }),
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
        "p_list": _Key("number_list"),
        "samples": _Key("int"),
        "r": _Key("radius", "inf"),
    }),
    "output": _OUTPUT,
})


def _run_mc_chaos(cfg, built, workers):
    exp = cfg["experiment"]
    result = chaos_growth_check(exp["functional"], built["ensemble"], exp["p_list"],
                                exp["samples"], radius=exp["r"], workers=workers)
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
                      "resolved_radius": _json_radius(result.radius)},
            "_raw": result.raw}


_MC_KIN = _Group({
    "ensemble": _ENSEMBLE,
    "experiment": _Group({
        "order": _Key("int_pair", [0, 0]),
        "field": _Key("str", "u"),
        "N": _Key("int"),
        "M_list": _Key("int_list", then=sorted),
        "p": _Key("number", 4.0),
        "samples": _Key("int"),
    }),
    "output": _OUTPUT,
})


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
        "N": _Key("int"),
        "M_list": _Key("int_list", then=sorted),
        "alpha_list": _Key("number_list"),
        "samples": _Key("int"),
    }),
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
    "s": _Key("number"),
    "max_norm": _Key("int"),
    "marginal": _Key("str", "position"),
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


# command -> {library argument its run passes: the config key that feeds it}
_ARGUMENT_KEYS = {
    "sample": {"index": "index"},
    "evolve": {"equation": "model.equation", "truncation_N": "model.N", "beta": "model.beta",
               "stride": "trajectory.stride", "s": "trajectory.s"},
    "diagnose": {"equation": "model.equation", "cutoff": "model.N", "beta": "model.beta",
                 "s": "model.s"},
    "mc-lp": {"s": "ensemble.s", "cutoff_list": "experiment.N_list",
              "p_list": "experiment.p_list", "samples": "experiment.samples",
              "functional": "experiment.functional", "radius": "experiment.r"},
    "mc-converge": {"lower_cutoffs": "experiment.M_list", "reference_cutoff": "experiment.N_ref",
                    "p": "experiment.p", "samples": "experiment.samples"},
    "mc-chaos": {"s": "ensemble.s", "functional": "experiment.functional",
                 "p_list": "experiment.p_list", "samples": "experiment.samples",
                 "radius": "experiment.r"},
    "mc-kin": {"order": "experiment.order", "field": "experiment.field", "cutoff": "experiment.N",
               "block_list": "experiment.M_list", "p": "experiment.p",
               "samples": "experiment.samples"},
    "mc-tail": {"reference_cutoff": "experiment.N", "lower_cutoffs": "experiment.M_list",
                "thresholds": "experiment.alpha_list", "samples": "experiment.samples"},
    "kakutani": {"s": "s", "max_norm": "max_norm", "marginal": "marginal"},
}


def _prepare(command: str, spec: _Group, run, config: dict, workers: int):
    """Validate config against spec; returns the resolved config and the
    run, not yet started, which raises a library refusal as a config error
    at the key that the command's _ARGUMENT_KEYS row maps its argument to."""
    resolved, built = _validate(spec, config)

    def keyed_run():
        try:
            return run(resolved, built, workers)
        except UnsupportedParameterError as exc:
            raise _at_key(exc, _ARGUMENT_KEYS[command]) or exc
    return resolved, keyed_run


_RUNNERS = {  # command -> (config, workers) -> (resolved config, run)
    command: partial(_prepare, command, spec, run) for command, spec, run in (
        ("sample", _SAMPLE, _run_sample),
        ("evolve", _EVOLVE, _run_evolve),
        ("diagnose", _DIAGNOSE, _run_diagnose),
        ("mc-lp", _MC_LP, _run_mc_lp),
        ("mc-converge", _MC_CONVERGE, _run_mc_converge),
        ("mc-chaos", _MC_CHAOS, _run_mc_chaos),
        ("mc-kin", _MC_KIN, _run_mc_kin),
        ("mc-tail", _MC_TAIL, _run_mc_tail),
        ("kakutani", _KAKUTANI, _run_kakutani))}
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


def main(argv=None) -> int:
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
        t0 = time.perf_counter()
        files = run()
    except ConfigError as exc:  # at validation, or a library refusal at the run's start
        print(f"config error: {exc}", file=sys.stderr)
        return 1
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
