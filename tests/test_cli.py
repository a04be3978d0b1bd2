"""Command-line driver: config validation, outputs, exit codes, determinism."""

from __future__ import annotations

import csv
import ctypes
import json
import math

import pytest

from torusnlw.cli import OUTPUT_DIR_ENV, main
from torusnlw.energy import energy_report
from torusnlw.montecarlo import FUNCTIONALS
from torusnlw.sampling import EnsembleSpec, sample
from torusnlw.spectral import PhaseState, field_from_modes, state_to_dict


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

    def test_runs_where_libc_is_not_glibc(self, tmp_path, monkeypatch):
        # the allocator setting is skipped when libc cannot be loaded, and
        # the outputs do not depend on it
        config = {"ensemble": {"variant": "mu_s", "s": 2.0, "seed": 3},
                  "experiment": {"M_list": [2, 4], "N_ref": 8, "samples": 120},
                  "output": {"emit_raw": True}}
        code, out = run(tmp_path, "mc-converge", config, name="glibc")
        assert code == 0

        def no_libc(name, *args, **kwargs):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        code, out_other = run(tmp_path, "mc-converge", config, name="other")
        assert code == 0
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert csvs == ["estimates.csv", "fits.csv", "raw_values.csv"]
        for name in csvs:
            assert (out / name).read_bytes() == (out_other / name).read_bytes()

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
