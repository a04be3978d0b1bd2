"""One owner per model rule: bad model, ensemble, flow and Kakutani
arguments are refused before any work, and the CLI holds no copy.

sampling owns the variant, equation, s, beta, window, count and key-word
rules; dynamics the scheme, dt, stride and step-count rules; measures the
Kakutani s and marginal.  The library functions run them through
sampling._refuse, and the CLI reports their refusals at its keys.
"""

from __future__ import annotations

import json
import math

import pytest

import torusnlw.dynamics as dynamics
import torusnlw.energy as energy
import torusnlw.measures as measures
import torusnlw.montecarlo as montecarlo
import torusnlw.sampling as sampling
from torusnlw import cli
from torusnlw.dynamics import IntegratorSpec, ModelSpec, evolve, trajectory
from torusnlw.energy import (UnsupportedParameterError, energy_report, quartic_correction,
                             renormalized_energy, truncated_energy)
from torusnlw.measures import kakutani_terms
from torusnlw.sampling import EnsembleSpec, counterterm, sample, wave_counterterm
from torusnlw.spectral import PhaseState, zero_field

PROBE_ENSEMBLE = EnsembleSpec("mu_s", 2.0, 4, 4, 7)
STATE = sample(PROBE_ENSEMBLE, 0)
ZERO = PhaseState(zero_field(2), zero_field(2))
FLOW = (ModelSpec("nlkg", 4), IntegratorSpec(dt=0.01))


# (call, exception, start of its refusal): each used to compute a wrong
# number, fail deep inside, or (the last two) run 10^20 steps
PROBES = {
    "truncated-energy-negative-cutoff": (
        lambda: truncated_energy(STATE, -1), UnsupportedParameterError,
        "cutoff: must be an integer >= 0, got -1"),
    "counterterm-fractional": (lambda: counterterm(2.5), ValueError,
                               "cutoff: must be an integer >= 0, got 2.5"),
    "wave-counterterm-fractional": (lambda: wave_counterterm(2.5, 2.0), ValueError,
                                    "cutoff: must be an integer >= 0, got 2.5"),
    "trajectory-fractional-stride": (
        lambda: next(trajectory(STATE, 0.1, *FLOW, stride=1.5)), ValueError,
        "stride: must be an integer >= 0, got 1.5"),
    "integrator-bool-dt": (lambda: IntegratorSpec("rk4", dt=True), ValueError,
                           "dt: must be a finite number, got True"),
    "kakutani-fractional-max-norm": (lambda: kakutani_terms(2.0, 2.5), ValueError,
                                     "max_norm: must be an integer >= 0, got 2.5"),
    "renormalized-energy-s-below-one": (
        lambda: renormalized_energy(STATE, 0.5, 4), UnsupportedParameterError,
        "s: must be > 1, got 0.5"),
    "energy-report-s-below-one": (lambda: energy_report(STATE, 0.5, 4),
                                  UnsupportedParameterError, "s: must be > 1, got 0.5"),
    "quartic-correction-fractional-cutoff": (
        lambda: quartic_correction(STATE.u, 2.0, 2.5), UnsupportedParameterError,
        "cutoff: must be an integer >= 0, got 2.5"),
    "ensemble-infinite-s": (lambda: EnsembleSpec("mu_s", math.inf, 4, 4, 0), ValueError,
                            "s: must be a finite number, got inf"),
    "ensemble-infinite-beta": (
        lambda: EnsembleSpec("mu_s_beta", 2.0, 4, 4, 0, beta=math.inf), ValueError,
        "beta: must be a finite number, got inf"),
    "kakutani-infinite-s": (lambda: kakutani_terms(math.inf, 3), ValueError,
                            "s: must be a finite number, got inf"),
    # True drew index 1's state, and 1.5 failed in range() with a TypeError
    "sample-bool-index": (lambda: sample(PROBE_ENSEMBLE, True), ValueError,
                          "index: must be an integer >= 0, got True"),
    "sample-fractional-index": (lambda: sample(PROBE_ENSEMBLE, 1.5), ValueError,
                                "index: must be an integer >= 0, got 1.5"),
    "evolve-1e20-steps": (
        lambda: evolve(ZERO, 1e10, ModelSpec("nlkg", 2), IntegratorSpec(dt=1e-10)),
        ValueError, "|t_final| / dt is 1e+20 steps, above the ceiling of 1000000 "
                    "(t_final = 1e+10, dt = 1e-10)"),
    "trajectory-1e20-steps": (
        lambda: next(trajectory(ZERO, 1e10, ModelSpec("nlkg", 2), IntegratorSpec(dt=1e-10))),
        ValueError, "|t_final| / dt is 1e+20 steps"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_refused_before_any_work(no_work, probe):
    call, error, start = PROBES[probe]
    with pytest.raises(error) as refused:
        call()
    assert str(refused.value).startswith(start)


def test_evolve_of_1e20_steps_is_a_config_error(tmp_path, capsys, no_work):
    config = {"model": {"equation": "nlkg", "N": 2}, "state": {"zero": {"max_mode": 2}},
              "integrator": {"dt": 1e-10, "t_final": 1e10},
              "output": {"directory": str(tmp_path / "out")}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli.main(["evolve", str(tmp_path / "config.json")]) == 1
    assert capsys.readouterr().err == (
        "config error: integrator: |t_final| / dt is 1e+20 steps, above the ceiling of "
        "1000000 (t_final = 1e+10, dt = 1e-10)\n")
    assert not (tmp_path / "out").exists()


# the library's private objects that the CLI calls: a default, an energy
# helper and the step count of an integrator group, none of them a rule
CLI_CALLS = {"_default_reference": montecarlo._default_reference, "_one": energy._one,
             "_steps": dynamics._steps}


def test_cli_holds_no_library_rule():
    # the CLI checks a config's shape and reports the library's refusals at
    # their keys, so it binds no rule pair, check or rule runner of the library
    library = {id(obj): obj for module in (sampling, dynamics, energy, measures, montecarlo)
               for name, obj in vars(module).items()
               if name.startswith("_") and not name.startswith("__")
               and (callable(obj) or isinstance(obj, (tuple, dict)))}
    bound = {name: obj for name, obj in vars(cli).items() if id(obj) in library}
    assert bound == CLI_CALLS
