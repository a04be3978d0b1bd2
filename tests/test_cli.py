"""Command-line driver: config validation, outputs, exit codes, determinism."""

from __future__ import annotations

import copy
import csv
import json
import math
from pathlib import Path

import pytest

from conftest import field_from_modes
from torusnlw import cli, energy
from torusnlw.cli import COMMANDS, OUTPUT_DIR_ENV, main
from torusnlw.energy import energy_report
from torusnlw.montecarlo import FUNCTIONALS
from torusnlw.sampling import EnsembleSpec, sample
from torusnlw.spectral import PhaseState, state_to_dict


def run(tmp_path, command, config, workers=None, name="run"):
    """Write config, run the command, return (exit code, output dir)."""
    outdir = tmp_path / f"{name}-out"
    config = dict(config)
    config.setdefault("output", {})["directory"] = str(outdir)
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    argv = [command, str(cfg)]
    if workers is not None:
        argv += ["--workers", str(workers)]
    return main(argv), outdir


def read_csv(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


ENSEMBLE = {"variant": "mu_s", "s": 2.0, "sample_max_mode": 3, "seed": 7}


class TestSample:
    def test_writes_state_schema_metadata(self, tmp_path):
        code, out = run(tmp_path, "sample", {"ensemble": ENSEMBLE, "index": 2})
        assert code == 0
        state = json.loads((out / "state.json").read_text())
        assert state["index"] == 2
        assert state["ensemble"]["seed"] == 7
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["command"] == "sample"
        assert meta["seed"] == 7
        assert meta["config"]["index"] == 2
        assert meta["version"].startswith("torusnlw-")
        schema = json.loads((out / "schema.json").read_text())
        assert schema["files"]["state.json"] == "JSON document"

    def test_state_matches_library_draw(self, tmp_path):
        code, out = run(tmp_path, "sample", {"ensemble": ENSEMBLE, "index": 2})
        assert code == 0
        payload = json.loads((out / "state.json").read_text())
        spec = EnsembleSpec(variant="mu_s", s=2.0, sample_max_mode=3,
                            truncation_N=3, master_seed=7)
        expect = state_to_dict(sample(spec, 2))
        assert payload["u"] == expect["u"]
        assert payload["v"] == expect["v"]


class TestDiagnose:
    def test_round_trip_from_sample(self, tmp_path):
        code, out = run(tmp_path, "sample", {"ensemble": ENSEMBLE, "index": 1})
        assert code == 0
        code, out2 = run(
            tmp_path,
            "diagnose",
            {
                "model": {"equation": "nlkg", "s": 2.0, "N": 3},
                "state": {"file": str(out / "state.json")},
            },
            name="diag",
        )
        assert code == 0
        report = json.loads((out2 / "report.json").read_text())
        spec = EnsembleSpec(variant="mu_s", s=2.0, sample_max_mode=3,
                            truncation_N=3, master_seed=7)
        expect = energy_report(sample(spec, 1), 2.0, 3).to_dict()
        assert report == pytest.approx(expect)

    def test_worked_state_rate_terms(self, tmp_path):
        cos = field_from_modes(1, {(1, 0): 0.5})
        state_file = tmp_path / "cos.json"
        state_file.write_text(json.dumps(state_to_dict(PhaseState(cos, cos))))
        code, out = run(
            tmp_path,
            "diagnose",
            {
                "model": {"equation": "nlkg", "s": 2.0, "N": 1},
                "state": {"file": str(state_file)},
            },
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rate_highlow"] == pytest.approx(1.5)
        assert report["rate_mass"] == pytest.approx(-1.5)
        assert report["rate_leibniz"] == pytest.approx(3.0)

    @pytest.mark.parametrize("amplitude, exit_code", [(1e76, 0), (1e77, 2)])
    def test_overflow_is_a_runtime_error_without_output(self, tmp_path, capsys,
                                                        amplitude, exit_code):
        # at 1e77 every diagnostic overflows, and the chaos split's square
        # of a Python float raises where NumPy would give inf
        big = field_from_modes(1, {(1, 0): amplitude})
        state_file = tmp_path / "big.json"
        state_file.write_text(json.dumps(state_to_dict(PhaseState(big, big))))
        code, out = run(tmp_path, "diagnose", {"model": {"equation": "nlkg", "s": 2.0, "N": 1},
                                               "state": {"file": str(state_file)}})
        err = capsys.readouterr().err
        assert code == exit_code
        if exit_code == 0:
            assert err == ""
            json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
        else:
            assert not out.exists()
            assert err.startswith("runtime error: diagnose: non-finite values of energy, ")
            assert "chaos_single_pair" in err and err.count("\n") == 1

    def test_unsupported_order_reports_null_rates(self, tmp_path):
        code, out = run(
            tmp_path,
            "diagnose",
            {
                "model": {"equation": "nlkg", "s": 2.5, "N": 2},
                "state": {"sample": {"ensemble": dict(ENSEMBLE, s=2.5)}},
            },
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rate_highlow"] is None
        assert report["rate_mass"] is None
        assert report["rate_leibniz"] is None
        assert report["renormalized"] is not None


class TestEvolve:
    def test_zero_state_stays_zero(self, tmp_path):
        code, out = run(
            tmp_path,
            "evolve",
            {
                "model": {"equation": "nlkg", "N": 2},
                "state": {"zero": {"max_mode": 2}},
                "integrator": {"dt": 0.05, "t_final": 0.2},
            },
        )
        assert code == 0
        rows = read_csv(out / "trajectory.csv")
        assert rows[0] == ["t", "energy", "truncated_energy",
                           "renormalized_energy", "sobolev_norm"]
        assert len(rows) == 6  # t = 0 plus four steps... plus endpoint
        for row in rows[1:]:
            assert all(float(x) == 0.0 for x in row[1:])

    def test_energy_columns_conserved_on_flow(self, tmp_path):
        code, out = run(
            tmp_path,
            "evolve",
            {
                "model": {"equation": "nlkg", "N": 3},
                "state": {"sample": {"ensemble": ENSEMBLE, "index": 0}},
                "integrator": {"dt": 1e-3, "t_final": 0.05, "scheme": "rk4"},
                "trajectory": {"stride": 10},
            },
        )
        assert code == 0
        rows = read_csv(out / "trajectory.csv")
        e_n = [float(r[2]) for r in rows[1:]]
        assert max(e_n) - min(e_n) < 1e-8 * abs(e_n[0])

    def test_overflowing_diagnostic_is_a_runtime_error_without_output(self, tmp_path,
                                                                        capsys):
        # the flow stays finite for these two steps, but the energies of
        # u = v = 6e76 cos(x1) overflow from the first row on
        big = field_from_modes(1, {(1, 0): 6e76})
        state_file = tmp_path / "big.json"
        state_file.write_text(json.dumps(state_to_dict(PhaseState(big, big))))
        code, out = run(tmp_path, "evolve", {
            "model": {"equation": "nlkg", "N": 1}, "state": {"file": str(state_file)},
            "integrator": {"dt": 1e-80, "t_final": 2e-80}})
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "runtime error: evolve: non-finite values of energy, truncated_energy, "
            "renormalized_energy at t = 0\n")

    def test_each_row_sends_u_N_to_the_grid_once(self, tmp_path, monkeypatch):
        # the energy's whole-window u (a ball holding the window), then one
        # energy._Factors per row: u_N for the truncated energy and J^s u_N
        # for the renormalized one (u_N went twice before)
        stacks = []
        real = energy.grid_stack
        monkeypatch.setattr(energy, "grid_stack",
                            lambda fields, grid: stacks.append(len(fields))
                            or real(fields, grid))
        code, out = run(tmp_path, "evolve", {
            "model": {"equation": "nlkg", "N": 3},
            "state": {"sample": {"ensemble": ENSEMBLE, "index": 0}},
            "integrator": {"dt": 0.01, "t_final": 0.05}})
        assert code == 0
        assert len(read_csv(out / "trajectory.csv")) == 7
        assert stacks == [1, 1, 1] * 6

    def test_window_smaller_than_cutoff_is_config_error(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "evolve",
            {
                "model": {"equation": "nlkg", "N": 5},
                "state": {"zero": {"max_mode": 2}},
                "integrator": {"dt": 0.05, "t_final": 0.1},
            },
        )
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_blowup_is_runtime_error(self, tmp_path, capsys):
        huge = field_from_modes(1, {(1, 0): 5e7})
        state_file = tmp_path / "huge.json"
        state_file.write_text(json.dumps(state_to_dict(PhaseState(huge, huge))))
        code, _ = run(
            tmp_path,
            "evolve",
            {
                "model": {"equation": "nlkg", "N": 1},
                "state": {"file": str(state_file)},
                "integrator": {"dt": 0.01, "t_final": 1.0},
            },
        )
        assert code == 2
        assert "runtime error" in capsys.readouterr().err


class TestKakutani:
    def test_unit_ball_rows(self, tmp_path):
        code, out = run(tmp_path, "kakutani", {"s": 2.0, "max_norm": 1})
        assert code == 0
        rows = read_csv(out / "kakutani.csv")
        assert rows[0] == ["sq_modulus", "multiplicity", "statistic",
                           "weighted", "partial_sum"]
        assert rows[1][:2] == ["0", "1"]
        assert rows[2][:2] == ["1", "4"]
        assert float(rows[2][2]) == pytest.approx(25 / 121, rel=1e-9)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["partial_sum"] == pytest.approx(4 * 25 / 121, rel=1e-9)

    def test_velocity_marginal(self, tmp_path):
        code, out = run(tmp_path, "kakutani",
                        {"s": 2.0, "max_norm": 1, "marginal": "velocity"})
        assert code == 0
        rows = read_csv(out / "kakutani.csv")
        assert float(rows[2][2]) == pytest.approx(1 / 9, rel=1e-9)


class TestExitCodes:
    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "sample",
                      {"ensemble": dict(ENSEMBLE, typo_key=1)})
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "typo_key" in err

    def test_bad_value_names_key_path(self, tmp_path, capsys):
        code, _ = run(tmp_path, "sample",
                      {"ensemble": dict(ENSEMBLE, variant="mu_q")})
        assert code == 1
        assert "ensemble.variant" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"ensemble": {,}}')
        assert main(["sample", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "line" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["sample", str(tmp_path / "absent.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        code, _ = run(tmp_path, "sample", {"ensemble": {"variant": "mu_s"}})
        assert code == 1
        assert "ensemble.s" in capsys.readouterr().err

    # Each run asks for one 1.39 EiB array, more than any address space
    # holds, so the allocation is refused before a page is touched.
    @pytest.mark.parametrize("command, config", [
        ("kakutani", {"s": 2.0, "max_norm": 10**17}),
        ("mc-lp", {"ensemble": {"variant": "mu_s", "s": 2.0},
                   "experiment": {"N_list": [2], "p_list": [2.0, 4.0],
                                  "samples": 10**17, "r": "inf"}}),
    ])
    def test_memory_error_is_runtime_error_without_output(self, tmp_path, capsys,
                                                          command, config):
        code, out = run(tmp_path, command, config)
        err = capsys.readouterr().err
        assert code == 2
        assert not out.exists()
        assert err.startswith("runtime error: Unable to allocate 1.39 EiB")
        assert err.count("\n") == 1

    # At s = 400 mc-kin's block-2 sup norms are near 1e-140, so their 4th
    # powers underflow to 0; kakutani's variances of the class |n|^2 = 8
    # overflow and underflow, so its statistic is 0/0.  Each used to end in a
    # traceback or write NaN into its outputs.
    @pytest.mark.parametrize("command, config, error", [
        ("mc-kin", {"ensemble": {"s": 400, "seed": 1},
                    "experiment": {"order": [0, 0], "M_list": [1, 2], "N": 4, "samples": 100}},
         "sup_norm_moment_study: the L^4 moment is 0 at the blocks [2], too few nonzero "
         "to fit a rate"),
        ("kakutani", {"s": 400, "max_norm": 3},
         "kakutani_terms: the statistic at s = 400 is not finite, first at the class "
         "|n|^2 = 8"),
    ])
    def test_non_finite_statistic_is_runtime_error_without_output(self, tmp_path, capsys,
                                                                   command, config, error):
        code, out = run(tmp_path, command, config)
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"runtime error: {error}\n"


class TestOutputDirectory:
    def test_env_var_overrides_config(self, tmp_path, monkeypatch):
        target = tmp_path / "env-target"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ensemble": ENSEMBLE}))
        assert main(["sample", str(cfg)]) == 0
        assert (target / "state.json").exists()


MC_LP_CONFIG = {
    "ensemble": {"variant": "mu_s", "s": 2.0, "seed": 3},
    "experiment": {"N_list": [2, 3], "p_list": [2.0, 4.0],
                   "samples": 120, "r": "inf"},
}


class TestMonteCarloCommands:
    def test_mc_lp_outputs(self, tmp_path):
        code, out = run(tmp_path, "mc-lp", MC_LP_CONFIG)
        assert code == 0
        est = read_csv(out / "estimates.csv")
        assert est[0][0] == "cutoff"
        assert len(est) == 1 + 2 * 2  # one row per (N, p)
        fits = read_csv(out / "fits.csv")
        kinds = {row[0] for row in fits[1:]}
        assert kinds == {"p_slope", "spread"}
        meta = json.loads((out / "metadata.json").read_text())
        assert {int(c) for c, _ in meta["resolved_radii"]} == {2, 3}

    def test_mc_lp_deterministic_across_workers(self, tmp_path):
        cfg = dict(MC_LP_CONFIG)
        cfg["output"] = {"emit_raw": True}
        _, out1 = run(tmp_path, "mc-lp", cfg, workers=1, name="w1")
        _, out2 = run(tmp_path, "mc-lp", cfg, workers=2, name="w2")
        for name in ("estimates.csv", "fits.csv", "raw_values.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_mc_lp_auto_radius_deterministic_across_workers(self, tmp_path):
        # the pilot that resolves "auto" is split across the workers too
        cfg = json.loads(json.dumps(MC_LP_CONFIG))
        cfg["experiment"]["r"] = "auto"
        cfg["output"] = {"emit_raw": True}
        outs = [run(tmp_path, "mc-lp", cfg, workers=w, name=f"w{w}")[1] for w in (1, 4)]
        for name in ("estimates.csv", "fits.csv", "raw_values.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        radii = [json.loads((out / "metadata.json").read_text())["resolved_radii"]
                 for out in outs]
        assert radii[0] == radii[1]
        assert all(0 < r < math.inf for _, r in radii[0])

    def test_mc_lp_single_p_rejected(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(MC_LP_CONFIG))
        cfg["experiment"]["p_list"] = [4.0]
        code, _ = run(tmp_path, "mc-lp", cfg)
        assert code == 1
        assert "p_list" in capsys.readouterr().err

    def test_mc_converge_outputs(self, tmp_path):
        code, out = run(
            tmp_path,
            "mc-converge",
            {
                "ensemble": {"variant": "mu_s", "s": 2.0, "seed": 3},
                "experiment": {"M_list": [2, 4], "N_ref": 8, "p": 2.0,
                               "samples": 120},
            },
        )
        assert code == 0
        fits = read_csv(out / "fits.csv")
        assert fits[1][0] == "total"
        est = read_csv(out / "estimates.csv")
        assert len(est) == 3  # header + one per M

    def test_mc_chaos_outputs(self, tmp_path):
        code, out = run(
            tmp_path,
            "mc-chaos",
            {
                "ensemble": {"variant": "mu_s", "s": 2.0,
                             "sample_max_mode": 3, "seed": 3},
                "experiment": {"p_list": [4.0], "samples": 150},
            },
        )
        assert code == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["degree"] == 2  # default functional is the wick mass
        assert meta["base_norm"] > 0
        est = read_csv(out / "estimates.csv")
        header = est[0]
        assert "ratio" in header and "bound" in header

    def test_mc_chaos_rejects_degreeless_functional(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "mc-chaos",
            {
                "ensemble": {"variant": "mu_s", "s": 2.0,
                             "sample_max_mode": 3, "seed": 3},
                "experiment": {"functional": "block_sup_norm",
                               "p_list": [4.0], "samples": 150},
            },
        )
        assert code == 1
        assert "functional" in capsys.readouterr().err

    def test_mc_kin_outputs(self, tmp_path):
        code, out = run(
            tmp_path,
            "mc-kin",
            {
                "ensemble": {"variant": "mu_s", "s": 2.0, "seed": 3},
                "experiment": {"order": [1, 0], "M_list": [1, 2], "N": 4,
                               "p": 2.0, "samples": 120},
            },
        )
        assert code == 0
        est = read_csv(out / "estimates.csv")
        assert est[0][0] == "block"
        assert len(est) == 3

    def test_mc_kin_order_beyond_regularity(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "mc-kin",
            {
                "ensemble": {"variant": "mu_s", "s": 2.0, "seed": 3},
                "experiment": {"order": [3, 0], "M_list": [1, 2], "N": 4,
                               "samples": 120},
            },
        )
        assert code == 1
        assert "order" in capsys.readouterr().err

    def test_mc_kin_block_beyond_cutoff_is_config_error(self, tmp_path, capsys):
        # the blocks 16 and 32 are empty inside |n| <= 4: no moment to fit
        code, _ = run(
            tmp_path,
            "mc-kin",
            {
                "ensemble": {"variant": "mu_s", "s": 2.0, "seed": 3},
                "experiment": {"M_list": [16, 32], "N": 4, "samples": 100},
            },
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "experiment.M_list" in err
        assert "Traceback" not in err

    def test_mc_tail_outputs(self, tmp_path):
        code, out = run(
            tmp_path,
            "mc-tail",
            {
                "ensemble": {"variant": "mu_s", "s": 2.0, "seed": 3},
                "experiment": {"N": 8, "M_list": [2, 4],
                               "alpha_list": [0.0, 0.1], "samples": 120},
            },
        )
        assert code == 0
        est = read_csv(out / "estimates.csv")
        assert len(est) == 1 + 4  # header + |M| x |alpha|
        checks = read_csv(out / "checks.csv")
        names = {row[0] for row in checks[1:]}
        assert names == {"decay_in_threshold", "decay_in_cutoff"}

    def test_workers_must_be_positive(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(MC_LP_CONFIG))
        assert main(["mc-lp", str(cfg), "--workers", "0"]) == 1


@pytest.mark.parametrize("command, ensemble, experiment", [
    ("mc-lp", {"s": 3}, {"N_list": [4, 8], "p_list": [2.0, 4.0], "samples": 100,
                         "r": "auto"}),
    ("mc-chaos", {"s": 2.5, "sample_max_mode": 3},
     {"functional": "energy_rate_leibniz", "p_list": [4.0], "samples": 100}),
])
def test_rate_at_s_rejected_at_validation(tmp_path, capsys, command, ensemble, experiment):
    # these used to run the radius pilot and then exit 2 at the first draw
    code, out = run(tmp_path, command, {"ensemble": ensemble, "experiment": experiment})
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        "config error: ensemble.s: the energy rate is studied at even integer s >= 2\n")


@pytest.mark.parametrize("functional", sorted(FUNCTIONALS))
@pytest.mark.parametrize("command", ["mc-lp", "mc-chaos"])
def test_every_functional_runs_or_is_rejected_at_validation(tmp_path, capsys,
                                                            command, functional):
    if command == "mc-lp":
        ensemble = {"variant": "mu_s", "s": 2.0, "seed": 3}
        experiment = {"N_list": [2, 3], "p_list": [2.0, 4.0], "samples": 100,
                      "r": "inf"}
    else:
        ensemble = {"variant": "mu_s", "s": 2.0, "sample_max_mode": 3, "seed": 3}
        experiment = {"p_list": [4.0], "samples": 100}
    experiment["functional"] = functional
    # neither command supplies functional parameters, and mc-chaos needs a
    # chaos degree: a functional they cannot evaluate is a config error
    code, _ = run(tmp_path, command, {"ensemble": ensemble, "experiment": experiment})
    assert code in (0, 1)
    if code == 1:
        assert "experiment.functional" in capsys.readouterr().err


_MC_ENSEMBLE = {"variant": "mu_s", "s": 2.0, "seed": 3}
MC_CONFIGS = {  # (config, number of raw series it draws)
    "mc-lp": (MC_LP_CONFIG, 2),
    "mc-converge": ({"ensemble": _MC_ENSEMBLE,
                     "experiment": {"M_list": [2, 4], "N_ref": 8, "samples": 120,
                                    "components": True}}, 2),
    "mc-chaos": ({"ensemble": dict(_MC_ENSEMBLE, sample_max_mode=3),
                  "experiment": {"p_list": [4.0], "samples": 120}}, 1),
    "mc-kin": ({"ensemble": _MC_ENSEMBLE,
                "experiment": {"order": [1, 0], "M_list": [1, 2], "N": 4,
                               "samples": 120}}, 2),
    "mc-tail": ({"ensemble": _MC_ENSEMBLE,
                 "experiment": {"N": 8, "M_list": [2, 4], "alpha_list": [0.0, 0.1],
                                "samples": 120}}, 2),
}


@pytest.mark.parametrize("command", sorted(MC_CONFIGS))
@pytest.mark.parametrize("emit_raw", [True, False])
def test_raw_values_written_only_when_requested(tmp_path, command, emit_raw):
    config, n_series = MC_CONFIGS[command]
    code, out = run(tmp_path, command, dict(config, output={"emit_raw": emit_raw}))
    assert code == 0
    schema = json.loads((out / "schema.json").read_text())["files"]
    if not emit_raw:
        assert not (out / "raw_values.csv").exists()
        assert "raw_values.csv" not in schema
        return
    header = ["series", "index", "value", "weight"]
    rows = read_csv(out / "raw_values.csv")
    assert rows[0] == header
    assert sorted(schema["raw_values.csv"]) == sorted(header)
    indices: dict = {}
    for label, index, _, _ in rows[1:]:
        indices.setdefault(label, []).append(int(index))
    assert len(indices) == n_series
    samples = config["experiment"]["samples"]
    assert all(seen == list(range(samples)) for seen in indices.values())


# -- validation: every rejection, the runner hook, resolved configs ---------

DROP = object()  # edit() removes the key
BETA = {"variant": "mu_s_beta", "beta": 0.5}
VALID = {  # one accepted config per command; each rejection edits one key
    "sample": {"ensemble": ENSEMBLE, "index": 2},
    "evolve": {"model": {"equation": "nlkg", "N": 2},
               "state": {"zero": {"max_mode": 2}},
               "integrator": {"dt": 0.05, "t_final": 0.1}},
    "diagnose": {"model": {"equation": "nlkg", "s": 2.0, "N": 2},
                 "state": {"zero": {"max_mode": 2}}},
    "mc-lp": MC_LP_CONFIG,
    "mc-converge": {"ensemble": _MC_ENSEMBLE,
                    "experiment": {"M_list": [2, 4], "N_ref": 8, "samples": 120}},
    "mc-chaos": MC_CONFIGS["mc-chaos"][0],
    "mc-kin": MC_CONFIGS["mc-kin"][0],
    "mc-tail": MC_CONFIGS["mc-tail"][0],
    "kakutani": {"s": 2.0, "max_norm": 1},
}

REJECTIONS = [  # (command, key path edited in VALID, new value, config error)
    ("sample", "ensemble", DROP, "ensemble: missing required section"),
    ("sample", "ensemble", 3, "ensemble: expected an object"),
    ("sample", "ensemble.variant", "mu_q",
     "ensemble.variant: one of ('mu_s', 'mu_tilde_s', 'mu_s_beta')"),
    ("sample", "ensemble.variant", 3, "ensemble.variant: expected str"),
    ("sample", "ensemble.s", DROP, "ensemble.s: missing required key"),
    ("sample", "ensemble.s", 1.0, "ensemble.s: must be > 1"),
    ("sample", "ensemble.s", "2", "ensemble.s: expected number"),
    ("sample", "ensemble.s", float("inf"), "ensemble.s: must be finite"),
    ("sample", "ensemble.beta", float("nan"), "ensemble.beta: must be finite"),
    ("sample", "ensemble.beta", "x", "ensemble.beta: expected number"),
    ("sample", "ensemble.seed", -1, "ensemble.seed: must be an integer >= 0"),
    ("sample", "ensemble.seed", 1.5, "ensemble.seed: expected int"),
    ("sample", "ensemble.seed", True, "ensemble.seed: expected int"),
    ("sample", "ensemble.seed", 2**64, "ensemble.seed: must be < 2^64"),
    ("sample", "ensemble.sample_max_mode", DROP,
     "ensemble.sample_max_mode: missing required key"),
    ("sample", "ensemble.sample_max_mode", -1,
     "ensemble.sample_max_mode: must be an integer >= 0"),
    ("sample", "ensemble.truncation_N", -1,
     "ensemble.truncation_N: must be an integer >= 0"),
    ("sample", "ensemble.truncation_N", 5,
     "ensemble.truncation_N: the window 3 must cover the cutoff"),
    ("sample", "ensemble", dict(ENSEMBLE, **BETA),
     "ensemble.beta: mu_s_beta needs beta > 1"),
    ("sample", "ensemble.typo_key", 1, "ensemble: unknown keys ['typo_key']"),
    ("sample", "index", -1, "index: must be an integer >= 0"),
    ("sample", "index", 2**64, "index: must be < 2^64"),
    ("sample", "output", "x", "output: expected an object"),
    ("sample", "output.directory", 3, "output.directory: expected str"),
    ("sample", "output.emit_raw", "yes", "output.emit_raw: expected bool"),
    ("sample", "output.dir", "x", "output: unknown keys ['dir']"),
    ("sample", "extra", 1, "config: unknown keys ['extra']"),
    ("evolve", "model", DROP, "model: missing required section"),
    ("evolve", "model.equation", "kdv",
     "model.equation: one of ('nlkg', 'nlw', 'nlkg_beta')"),
    ("evolve", "model.N", DROP, "model.N: missing required key"),
    ("evolve", "model.N", -1, "model.N: must be an integer >= 0"),
    ("evolve", "model.beta", "x", "model.beta: expected number"),
    ("evolve", "model", {"equation": "nlkg_beta", "N": 2},
     "model.beta: nlkg_beta needs beta > 1"),
    ("evolve", "state", DROP, "state: missing required section"),
    ("evolve", "state", {}, "state: exactly one of file/sample/zero required"),
    ("evolve", "state", {"zero": {"max_mode": 2}, "file": "x.json"},
     "state: exactly one of file/sample/zero required"),
    ("evolve", "state", {"zero": {"max_mode": 2}, "sample": {"ensemble": ENSEMBLE}},
     "state: exactly one of file/sample/zero required"),  # refused before the draw
    ("evolve", "state", {"file": "{tmp}/absent.json"},
     "state.file: No such file or directory: {tmp}/absent.json"),
    ("evolve", "state", {"file": "{tmp}/bad-state.json"},
     "state.file: not a valid state file ('int' object is not subscriptable)"),
    ("evolve", "state", {"file": "{tmp}/nan-state.json"},
     "state.file: not a valid state file (coefficients must be finite)"),
    ("evolve", "state", {"file": 3}, "state.file: expected str"),
    ("evolve", "state.zero.max_mode", -1, "state.zero.max_mode: must be >= 0"),
    ("evolve", "state.zero.extra", 1, "state.zero: unknown keys ['extra']"),
    ("evolve", "state.extra", 1, "state: unknown keys ['extra']"),
    ("evolve", "state", {"sample": {"ensemble": ENSEMBLE, "index": -1}},
     "state.sample.index: must be an integer >= 0"),
    ("evolve", "state", {"sample": {"ensemble": ENSEMBLE, "index": 2**64}},
     "state.sample.index: must be < 2^64"),
    ("evolve", "state", {"sample": {"ensemble": dict(ENSEMBLE, s=1.0)}},
     "state.sample.ensemble.s: must be > 1"),
    ("evolve", "state", {"sample": {"ensemble": dict(ENSEMBLE, **BETA)}},
     "state.sample.ensemble.beta: mu_s_beta needs beta > 1"),
    ("evolve", "state", {"sample": {"ensemble": dict(ENSEMBLE, truncation_N=5)}},
     "state.sample.ensemble.truncation_N: the window 3 must cover the cutoff"),
    ("evolve", "state", {"sample": {}}, "state.sample.ensemble: missing required section"),
    ("evolve", "integrator", DROP, "integrator: missing required section"),
    ("evolve", "integrator.scheme", "euler",
     "integrator.scheme: one of ('strang_splitting', 'rk4')"),
    ("evolve", "integrator.dt", 0, "integrator.dt: must be > 0"),
    ("evolve", "integrator.dt", float("inf"), "integrator.dt: must be finite"),
    ("evolve", "integrator.t_final", DROP, "integrator.t_final: missing required key"),
    ("evolve", "integrator.t_final", float("inf"), "integrator.t_final: must be finite"),
    ("evolve", "integrator.t_final", float("nan"), "integrator.t_final: must be finite"),
    ("evolve", "integrator", {"dt": 1e-10, "t_final": 1e300},
     "integrator: |t_final| / dt overflows (t_final = 1e+300, dt = 1e-10)"),
    ("evolve", "trajectory.stride", 0, "trajectory.stride: must be >= 1"),
    ("evolve", "trajectory.sigma", "x", "trajectory.sigma: expected number"),
    ("evolve", "trajectory.sigma", float("nan"), "trajectory.sigma: must be finite"),
    ("evolve", "model.beta", -float("inf"), "model.beta: must be finite"),
    ("evolve", "trajectory.s", 1, "trajectory.s: must be > 1"),
    ("evolve", "model.N", 5, "model.N: the window 2 must cover the cutoff"),
    ("diagnose", "model.s", DROP, "model.s: missing required key"),
    ("diagnose", "model.s", 1, "model.s: must be > 1"),
    ("diagnose", "model.N", -1, "model.N: must be an integer >= 0"),
    ("diagnose", "model.equation", "kdv",
     "model.equation: one of ('nlkg', 'nlw', 'nlkg_beta')"),
    ("diagnose", "model", {"equation": "nlkg_beta", "s": 2.0, "N": 2, "beta": 0.5},
     "model.beta: nlkg_beta needs beta > 1"),
    ("diagnose", "state", {}, "state: exactly one of file/sample/zero required"),
    ("diagnose", "state", {"file": "{tmp}/inf-state.json"},
     "state.file: not a valid state file (coefficients must be finite)"),
    ("diagnose", "state", {"sample": {"ensemble": dict(ENSEMBLE, **BETA)}},
     "state.sample.ensemble.beta: mu_s_beta needs beta > 1"),
    ("diagnose", "extra", 1, "config: unknown keys ['extra']"),
    ("mc-lp", "experiment", DROP, "experiment: missing required section"),
    ("mc-lp", "experiment.N_list", [0, 2], "experiment.N_list: cutoffs must be >= 1"),
    ("mc-lp", "experiment.N_list", [], "experiment.N_list: expected int_list"),
    ("mc-lp", "experiment.N_list", [2.5], "experiment.N_list: expected int_list"),
    ("mc-lp", "experiment.N_list", [4, 4, 8], "experiment.N_list: cutoff 4 is repeated"),
    ("mc-lp", "experiment.p_list", [2.0, float("nan")], "experiment.p_list: must be finite"),
    ("mc-lp", "experiment.p_list", [4.0],
     "experiment.p_list: needs >= 2 distinct entries, each in [1, 16.0] (the "
     "growth fit in p needs two points)"),
    ("mc-lp", "experiment.p_list", [2.0, 2.0],
     "experiment.p_list: needs >= 2 distinct entries, each in [1, 16.0] (the "
     "growth fit in p needs two points)"),
    ("mc-lp", "experiment.p_list", [0.5, 2.0],
     "experiment.p_list: needs >= 2 distinct entries, each in [1, 16.0] (the "
     "growth fit in p needs two points)"),
    ("mc-lp", "experiment.p_list", [], "experiment.p_list: expected number_list"),
    ("mc-lp", "experiment.samples", 99, "experiment.samples: must be >= 100"),
    ("mc-lp", "experiment.samples", DROP, "experiment.samples: missing required key"),
    ("mc-lp", "experiment.functional", "nope",
     "experiment.functional: one of ['energy_rate_highlow', "
     "'energy_rate_leibniz', 'energy_rate_mass', 'energy_rate_total', "
     "'quartic_correction', 'scalar_gaussian', 'truncated_energy', 'wick_mass'] "
     "(mc-lp supplies no functional parameters)"),
    ("mc-lp", "experiment.r", 0,
     'experiment.r: must be > 0, "auto" or "inf"'),
    ("mc-lp", "experiment.r", -1.5,
     'experiment.r: must be > 0, "auto" or "inf"'),
    ("mc-lp", "experiment.r", "big", "experiment.r: expected radius"),
    ("mc-lp", "experiment.r", float("inf"), "experiment.r: must be finite"),
    ("mc-lp", "ensemble", dict(_MC_ENSEMBLE, **BETA),
     "ensemble.beta: mu_s_beta needs beta > 1"),
    ("mc-lp", "ensemble.sample_max_mode", 4, "ensemble: unknown keys ['sample_max_mode']"),
    ("mc-lp", "ensemble.s", 1, "ensemble.s: must be > 1"),
    ("mc-lp", "ensemble.seed", 2**64 + 5, "ensemble.seed: must be < 2^64"),
    ("mc-converge", "experiment.M_list", [2],
     "experiment.M_list: needs >= 2 distinct cutoffs, each >= 1 (the decay fit "
     "needs two points)"),
    ("mc-converge", "experiment.M_list", [2, 2],
     "experiment.M_list: needs >= 2 distinct cutoffs, each >= 1 (the decay fit "
     "needs two points)"),
    ("mc-converge", "experiment.M_list", [4, 2, 4],
     "experiment.M_list: cutoff 4 is repeated"),
    ("mc-converge", "experiment.M_list", [0, 2],
     "experiment.M_list: needs >= 2 distinct cutoffs, each >= 1 (the decay fit "
     "needs two points)"),
    ("mc-converge", "experiment.N_ref", 0, "experiment.N_ref: must be >= 1"),
    ("mc-converge", "experiment.N_ref", 4,
     "experiment.M_list: every M must be < reference_cutoff"),
    ("mc-converge", "experiment.p", 0.5, "experiment.p: must lie in [1, 16.0]"),
    ("mc-converge", "experiment.components", "yes", "experiment.components: expected bool"),
    ("mc-converge", "experiment.samples", 50, "experiment.samples: must be >= 100"),
    ("mc-converge", "ensemble", dict(_MC_ENSEMBLE, **BETA),
     "ensemble.beta: mu_s_beta needs beta > 1"),
    ("mc-chaos", "experiment.functional", "block_sup_norm",
     "experiment.functional: one of ['energy_rate_highlow', "
     "'energy_rate_leibniz', 'energy_rate_mass', 'energy_rate_total', "
     "'quartic_correction', 'scalar_gaussian', 'wick_mass'] (a declared chaos "
     "degree and no required parameters)"),
    ("mc-chaos", "experiment.p_list", [17.0],
     "experiment.p_list: each p must lie in [1, 16.0]"),
    ("mc-chaos", "experiment.samples", 10, "experiment.samples: must be >= 100"),
    ("mc-chaos", "experiment.r", 0,
     'experiment.r: must be > 0, "auto" or "inf"'),
    ("mc-chaos", "experiment.r", -2,
     'experiment.r: must be > 0, "auto" or "inf"'),
    ("mc-chaos", "ensemble.sample_max_mode", DROP,
     "ensemble.sample_max_mode: missing required key"),
    ("mc-chaos", "ensemble.truncation_N", 5,
     "ensemble.truncation_N: the window 3 must cover the cutoff"),
    ("mc-chaos", "ensemble", dict(_MC_ENSEMBLE, sample_max_mode=3, **BETA),
     "ensemble.beta: mu_s_beta needs beta > 1"),
    ("mc-kin", "experiment.order", [-1, 0],
     "experiment.order: order must be a pair of integers >= 0"),
    ("mc-kin", "experiment.order", [1], "experiment.order: expected int_pair"),
    ("mc-kin", "experiment.order", [3, 0],
     "experiment.order: total order 3 exceeds the admissible 2.0 for field 'u'"),
    ("mc-kin", "experiment",
     {"order": [1, 1], "field": "v", "M_list": [1, 2], "N": 4, "samples": 120},
     "experiment.order: total order 2 exceeds the admissible 1.0 for field 'v'"),
    ("mc-kin", "experiment.field", "w", "experiment.field: field must be 'u' or 'v'"),
    ("mc-kin", "experiment.N", 0, "experiment.N: must be >= 1"),
    ("mc-kin", "experiment.M_list", [16, 32],
     "experiment.M_list: needs >= 2 distinct blocks, each in [1, N] (the "
     "moment-growth fit needs two points; a block M > N is empty in |n| <= N)"),
    ("mc-kin", "experiment.M_list", [1],
     "experiment.M_list: needs >= 2 distinct blocks, each in [1, N] (the "
     "moment-growth fit needs two points; a block M > N is empty in |n| <= N)"),
    ("mc-kin", "experiment.M_list", [2, 2],
     "experiment.M_list: needs >= 2 distinct blocks, each in [1, N] (the "
     "moment-growth fit needs two points; a block M > N is empty in |n| <= N)"),
    ("mc-kin", "experiment.M_list", [1, 2, 2], "experiment.M_list: block 2 is repeated"),
    # block 2 meets |n| <= 2 only on the axes, where n1 n2 = 0: it drew every
    # sample, then failed to fit; block 4 holds |n|^2 = 15, 16 of |n| <= 4
    ("mc-kin", "experiment", {"order": [1, 1], "M_list": [1, 2], "N": 2, "samples": 100},
     "experiment.M_list: the derivative of order (1, 1) is 0 on the blocks [2] inside "
     "|n| <= 2"),
    ("mc-kin", "experiment", {"order": [1, 1], "M_list": [1, 2, 4], "N": 4, "samples": 100},
     "experiment.M_list: the derivative of order (1, 1) is 0 on the blocks [4] inside "
     "|n| <= 4"),
    ("mc-kin", "experiment.p", 17, "experiment.p: must lie in [1, 16.0]"),
    ("mc-kin", "experiment.samples", 99, "experiment.samples: must be >= 100"),
    ("mc-kin", "ensemble", dict(_MC_ENSEMBLE, **BETA),
     "ensemble.beta: mu_s_beta needs beta > 1"),
    ("mc-tail", "experiment.N", 1, "experiment.N: must be >= 2"),
    ("mc-tail", "experiment.M_list", [0, 2], "experiment.M_list: cutoffs must be >= 1"),
    ("mc-tail", "experiment.M_list", [2, 8],
     "experiment.M_list: every M must be < reference_cutoff"),
    ("mc-tail", "experiment.M_list", [2, 2], "experiment.M_list: cutoff 2 is repeated"),
    ("mc-tail", "experiment.alpha_list", [0.1, float("inf")],
     "experiment.alpha_list: must be finite"),
    ("mc-tail", "experiment.alpha_list", [-1.0],
     "experiment.alpha_list: thresholds must be >= 0"),
    ("mc-tail", "experiment.samples", 99, "experiment.samples: must be >= 100"),
    ("mc-tail", "ensemble", dict(_MC_ENSEMBLE, **BETA),
     "ensemble.beta: mu_s_beta needs beta > 1"),
    ("kakutani", "s", 0, "s: must be > 0"),
    ("kakutani", "s", DROP, "s: missing required key"),
    ("kakutani", "max_norm", -1, "max_norm: must be an integer >= 0"),
    ("kakutani", "max_norm", 1.5, "max_norm: expected int"),
    ("kakutani", "marginal", "both", "marginal: one of ('position', 'velocity')"),
    ("kakutani", "extra", 1, "config: unknown keys ['extra']"),
]


def edit(command, path, value):
    config = copy.deepcopy(VALID[command])
    *parents, last = path.split(".")
    node = config
    for key in parents:
        node = node.setdefault(key, {})
    if value is DROP:
        del node[last]
    else:
        node[last] = copy.deepcopy(value)
    return config


@pytest.mark.parametrize("command, path, value, message", REJECTIONS,
                         ids=[f"{c}:{p}={'DROP' if v is DROP else v!r}"
                              for c, p, v, _ in REJECTIONS])
def test_rejected_at_validation_with_key_path(tmp_path, capsys, monkeypatch, no_work, no_draws,
                                               command, path, value, message):
    # every row is refused before any work, at validation or at the start of
    # the run; "{tmp}" stands for the test's directory in state file paths
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad-state.json").write_text('{"u": 1}')
    for name, token in (("nan-state.json", "NaN"), ("inf-state.json", "-Infinity")):
        (tmp_path / name).write_text(  # Python's JSON parser reads both tokens
            f'{{"u": {{"max_mode": 0, "coeffs": [[0, 0, {token}, 0]]}}, '
            '"v": {"max_mode": 0, "coeffs": [[0, 0, 0, 0]]}}')
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(edit(command, path, value)).replace("{tmp}", str(tmp_path)))
    code = main([command, str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert err == f"config error: {message.replace('{tmp}', str(tmp_path))}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bad-state.json", "config.json", "inf-state.json", "nan-state.json"]


def test_top_level_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[]")
    assert main(["kakutani", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config error: {cfg}: top level must be a JSON object\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_runner_returns_before_any_output(tmp_path, monkeypatch, command):
    # the benchmark times set-up by wrapping the runner as bench/child.py does
    calls = []
    runner = cli._RUNNERS[command]
    outdir = tmp_path / "run-out"

    def validated(config, workers):
        result = runner(config, workers)
        calls.append((config, workers, outdir.exists()))
        return result

    monkeypatch.setitem(cli._RUNNERS, command, validated)
    code, out = run(tmp_path, command, VALID[command], workers=2)
    assert code == 0
    assert calls == [(dict(VALID[command], output={"directory": str(out)}), 2, False)]
    assert (out / "metadata.json").exists()


OUT = "<output directory>"
_WINDOW_3 = {"variant": "mu_s", "s": 2.0, "beta": 0.0, "seed": 0,
             "sample_max_mode": 3, "truncation_N": 3}
_DEFAULT_OUTPUT = {"directory": OUT, "emit_raw": False}
RESOLVED = {  # command: (config, the metadata.json "config" it resolves to)
    "sample": ({"ensemble": {"s": 2, "sample_max_mode": 3}},
               {"ensemble": _WINDOW_3, "index": 0, "output": _DEFAULT_OUTPUT}),
    "evolve": ({"model": {"N": 2},
                "state": {"sample": {"ensemble": {"s": 2, "sample_max_mode": 3}}},
                "integrator": {"t_final": 0.01}},
               {"model": {"equation": "nlkg", "N": 2, "beta": 0.0},
                "state": {"sample": {"ensemble": _WINDOW_3, "index": 0}},
                "integrator": {"scheme": "strang_splitting", "dt": 0.001,
                               "t_final": 0.01},
                "trajectory": {"stride": 1, "sigma": 1.0, "s": 2.0},
                "output": _DEFAULT_OUTPUT}),
    "diagnose": ({"model": {"equation": "nlkg_beta", "s": 2, "N": 2, "beta": 1.5},
                  "state": {"zero": {"max_mode": 2}}},
                 {"model": {"equation": "nlkg_beta", "s": 2.0, "N": 2, "beta": 1.5},
                  "state": {"zero": {"max_mode": 2}},
                  "output": _DEFAULT_OUTPUT}),
    "mc-lp": ({"ensemble": {"s": 2, "seed": 3},
               "experiment": {"N_list": [3, 2], "p_list": [4, 2], "samples": 100},
               "output": {"emit_raw": True}},
              {"ensemble": {"variant": "mu_s", "s": 2.0, "beta": 0.0, "seed": 3},
               "experiment": {"N_list": [3, 2], "p_list": [4.0, 2.0], "samples": 100,
                              "functional": "energy_rate_total", "r": "auto"},
               "output": {"directory": OUT, "emit_raw": True}}),
    "mc-converge": ({"ensemble": {"variant": "mu_s_beta", "s": 2, "beta": 1.5},
                     "experiment": {"M_list": [4, 2], "samples": 100}},
                    {"ensemble": {"variant": "mu_s_beta", "s": 2.0, "beta": 1.5,
                                  "seed": 0},
                     "experiment": {"M_list": [2, 4], "N_ref": 8, "p": 2.0,
                                    "samples": 100, "components": False},
                     "output": _DEFAULT_OUTPUT}),
    "mc-chaos": ({"ensemble": {"s": 2, "sample_max_mode": 3, "truncation_N": 2},
                  "experiment": {"p_list": [4], "samples": 100, "r": 5}},
                 {"ensemble": dict(_WINDOW_3, truncation_N=2),
                  "experiment": {"functional": "wick_mass", "p_list": [4.0],
                                 "samples": 100, "r": 5.0},
                  "output": _DEFAULT_OUTPUT}),
    "mc-kin": ({"ensemble": {"s": 2},
                "experiment": {"M_list": [2, 1], "N": 4, "samples": 100}},
               {"ensemble": {"variant": "mu_s", "s": 2.0, "beta": 0.0, "seed": 0},
                "experiment": {"order": [0, 0], "field": "u", "M_list": [1, 2], "N": 4,
                               "p": 4.0, "samples": 100},
                "output": _DEFAULT_OUTPUT}),
    "mc-tail": ({"ensemble": {"s": 2},
                 "experiment": {"N": 8, "M_list": [4, 2], "alpha_list": [0.1, 0],
                                "samples": 100}},
                {"ensemble": {"variant": "mu_s", "s": 2.0, "beta": 0.0, "seed": 0},
                 "experiment": {"N": 8, "M_list": [2, 4], "alpha_list": [0.1, 0.0],
                                "samples": 100},
                 "output": _DEFAULT_OUTPUT}),
    "kakutani": ({"s": 2, "max_norm": 1},
                 {"s": 2.0, "max_norm": 1, "marginal": "position",
                  "output": _DEFAULT_OUTPUT}),
}


@pytest.mark.parametrize("command", sorted(RESOLVED))
def test_resolved_config_in_metadata(tmp_path, command):
    config, resolved = RESOLVED[command]
    code, out = run(tmp_path, command, config)
    assert code == 0
    stored = json.loads((out / "metadata.json").read_text())["config"]
    assert stored["output"]["directory"] == str(out)
    stored["output"]["directory"] = OUT
    assert stored == resolved


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("command, experiment, radii", [
    ("mc-lp", {"N_list": [2, 3], "p_list": [2.0, 4.0], "samples": 100, "r": "inf"},
     {"resolved_radii": [[2, "inf"], [3, "inf"]]}),
    ("mc-lp", {"N_list": [2, 3], "p_list": [2.0, 4.0], "samples": 100, "r": "auto"}, {}),
    ("mc-chaos", {"p_list": [4.0], "samples": 100}, {"resolved_radius": "inf"}),
])
def test_metadata_is_json_and_its_config_reruns(tmp_path, command, experiment, radii):
    ensemble = dict(_MC_ENSEMBLE, sample_max_mode=3) if command == "mc-chaos" else _MC_ENSEMBLE
    code, out = run(tmp_path, command, {"ensemble": ensemble, "experiment": experiment})
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text(), parse_constant=_reject_constant)
    assert radii.items() <= meta.items()
    code, again = run(tmp_path, command, meta["config"], name="again")
    assert code == 0
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert csvs == sorted(p.name for p in again.glob("*.csv")) and csvs
    for name in csvs:
        assert (out / name).read_bytes() == (again / name).read_bytes()
    meta_again = json.loads((again / "metadata.json").read_text(),
                            parse_constant=_reject_constant)
    for m in (meta, meta_again):
        del m["wall_time_s"], m["config"]["output"]["directory"]
    assert meta == meta_again


def test_readme_mc_lp_example_is_valid(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A minimal `mc-lp` config:", 1)[1]
    config = json.loads(block.split("```json", 1)[1].split("```", 1)[0])
    resolved, _ = cli._RUNNERS["mc-lp"](config, 1)  # validation only: nothing runs
    for section, given in config.items():
        assert {key: resolved[section][key] for key in given} == given
