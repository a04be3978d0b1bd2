"""Tests of the benchmark itself: span arithmetic, the tracer, and that each
correctness check rejects a perturbed output.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# -- spans and self time -----------------------------------------------------------


def synthetic_trace():
    """cli.main [0, 10] > collect_values [1, 7] > sample [1, 2], [3, 4] and
    energy.truncated_energy [4, 6] > pointwise_product [4.5, 5.5];
    resolve_radius [7, 9] > sample [7.5, 8]; fit_rate [9, 9.5]."""
    return [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["montecarlo.collect_values", 1.0, 7.0, 0, 0],
        ["sampling.sample", 1.0, 2.0, 1, 0],
        ["sampling.sample", 3.0, 4.0, 1, 0],
        ["energy.truncated_energy", 4.0, 6.0, 1, 0],
        ["spectral.pointwise_product", 4.5, 5.5, 4, 289],
        ["montecarlo.resolve_radius", 7.0, 9.0, 0, 0],
        ["sampling.sample", 7.5, 8.0, 6, 0],
        ["montecarlo.fit_rate", 9.0, 9.5, 0, 0],
    ]


def test_self_time_is_duration_minus_children():
    own = spans.self_times(synthetic_trace())
    assert own == pytest.approx([10 - 6 - 2 - 0.5, 6 - 1 - 1 - 2, 1, 1, 1, 1, 1.5, 0.5, 0.5])


def test_overlapping_children_are_counted_once():
    trace = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 5.0, 0, 0], ["c", 3.0, 6.0, 0, 0],
             ["d", 8.0, 12.0, 0, 0]]
    assert spans.self_times(trace)[0] == pytest.approx(10 - 5 - 2)


def test_layer_metrics_of_synthetic_trace():
    m = spans.layer_metrics(synthetic_trace(), bytes_written=123)
    assert set(m) == set(spans.LAYER_METRICS) - {"trace.overhead_s"}
    assert m["sampling.sample.calls"] == 3
    assert m["montecarlo.states_evaluated"] == 2
    assert m["montecarlo.pilot_states"] == 1
    assert m["montecarlo.resolve_radius.s"] == pytest.approx(2.0)
    assert m["montecarlo.collect_values.self_s"] == pytest.approx(2.0)
    # everything montecarlo does itself besides evaluating and the pilot
    assert m["montecarlo.estimate.self_s"] == pytest.approx(0.5)
    assert m["montecarlo.self_s"] == pytest.approx(2.0 + 1.5 + 0.5)
    assert m["energy.truncated_energy.calls"] == 1
    assert m["energy.truncated_energy.self_s"] == pytest.approx(1.0)
    assert m["spectral.pointwise_product.grid_points"] == 289
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["cli.bytes_written"] == 123
    assert m["measures.self_s"] == 0.0
    assert m["dynamics.steps"] == 0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_nests_calls_and_generator_items():
    tracer = spans.Tracer(clock=FakeClock())
    inner = tracer.wrap("spectral.inner", lambda x: x + 1)

    def gen(n):
        for i in range(n):
            yield inner(i)
    steps = tracer.wrap("dynamics.gen", gen, extra=lambda a, k, item, state: item)
    outer = tracer.wrap("energy.outer", lambda n: list(steps(n)))
    assert tracer.call("cli.main", outer, 2) == [1, 2]
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["cli.main", "energy.outer", "dynamics.gen", "spectral.inner",
                     "dynamics.gen", "spectral.inner", "dynamics.gen"]
    assert parents == [-1, 0, 1, 2, 1, 4, 1]
    assert [s[4] for s in tracer.spans if s[0] == "dynamics.gen"] == [1, 2, 0]
    assert all(s[1] < s[2] for s in tracer.spans)


def test_traced_child_reports_spans_of_a_small_command(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "ensemble": {"variant": "mu_s", "s": 2.0, "seed": 3},
        "experiment": {"M_list": [2, 4], "N_ref": 8, "p": 2.0, "samples": 100},
        "output": {"directory": str(tmp_path / "out"), "emit_raw": False}}))
    report = tmp_path / "report.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    subprocess.run([sys.executable, str(HERE / "child.py"), str(report), "mc-converge",
                    str(config), "--trace"], check=True, env=env, timeout=120)
    marks = json.loads(report.read_text())
    assert marks["exit"] == 0 and marks["valid"] <= marks["done"]
    m = spans.layer_metrics(marks["spans"], 0)
    assert m["montecarlo.states_evaluated"] == 100
    assert m["sampling.sample.calls"] == 100
    # three cutoffs per state; the evaluator computes each once
    assert m["energy.quartic_correction.calls"] == 300
    assert m["spectral.pointwise_product.calls"] == 600
    assert m["spectral.pointwise_product.grid_points"] > 0
    assert m["montecarlo.estimate.self_s"] > 0


def test_product_grid_is_read_off_the_transforms(tmp_path):
    """Each FFT product's span carries the points of the largest array it
    transformed: at least the alias-free (2 (K_f + K_g) + 1)^2, and 0 for
    the direct convolution, which transforms nothing."""
    script = tmp_path / "products.py"
    script.write_text(f"""
import json, sys
sys.path.insert(0, {str(HERE)!r})
import spans
import torusnlw.spectral as sp
from torusnlw import EnsembleSpec, sample
tracer = spans.Tracer()
spans.install(tracer)
u = sample(EnsembleSpec("mu_s", 2.0, 8, 8, 5), 0).u
v = sp.project_ball(u, 5)
sp.pointwise_product(u, v)
sp.pointwise_product(u, u)
sp.pointwise_product(u, v, method="direct")
print(json.dumps([s[4] for s in tracer.spans if s[0] == "spectral.pointwise_product"]))
""")
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, str(script)], check=True, env=env,
                          capture_output=True, text=True, timeout=120)
    mixed, square, direct = json.loads(proc.stdout)
    assert mixed >= (2 * (8 + 5) + 1) ** 2
    assert square >= (2 * (8 + 8) + 1) ** 2
    assert direct == 0


def test_a_failing_command_makes_the_run_incorrect(tmp_path, monkeypatch, capsys):
    """A command that exits non-zero (here the CLI refuses a sample count
    below its minimum) fails its round, so the run must not report correct."""
    class Crashing(run.RateMoments):
        def config(self):
            config = super().config()
            config["experiment"]["samples"] = 1
            return config

    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "crashing", Crashing)
    code = run.main(["--workload", "crashing", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 2
    assert result["metrics"] == {}


def test_verdict_counts_failed_commands_and_failed_checks():
    ok = {"failed": False, "problems": []}
    assert run.verdict([ok, ok])
    assert not run.verdict([ok, {"failed": True, "problems": []}])
    assert not run.verdict([ok, {"failed": False, "problems": ["gap off"]}])


# -- BENCHMARK.json agrees with the code ---------------------------------------------


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_METRICS


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "flow",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""


# -- rate-moments check ---------------------------------------------------------------


def rate_outputs(samples=200, seed=0):
    rng = np.random.default_rng(seed)
    raw, estimates, fd = {}, [], {}
    for cutoff in (8, 16, 32):
        values = rng.standard_normal(samples) * cutoff
        weights = (rng.random(samples) < 0.9).astype(float)
        label = f"energy_rate_total:N={cutoff}"
        raw[label] = (values, weights)
        for p in (2.0, 4.0, 8.0):
            v = checks._lp_norm(values, weights, p)
            estimates.append({"cutoff": float(cutoff), "p": p, "value": v,
                              "ci_low": 0.9 * v, "ci_high": 1.1 * v,
                              "samples": float(samples),
                              "effective_samples": float(weights.sum())})
        fd[(label, 0)] = values[0]
    return estimates, raw, samples, fd


def test_rate_check_passes_consistent_outputs():
    assert checks.check_rate_moments(*rate_outputs()) == []


def test_rate_check_rejects_moments_falling_in_p():
    estimates, raw, samples, fd = rate_outputs()
    estimates[1]["value"], estimates[2]["value"] = estimates[2]["value"], estimates[1]["value"]
    assert any("L^8" in p for p in checks.check_rate_moments(estimates, raw, samples, fd))


def test_rate_check_rejects_a_value_that_is_not_the_norm_of_the_draws():
    estimates, raw, samples, fd = rate_outputs()
    estimates[4]["value"] *= 1 + 1e-6
    assert any("weighted L^p norm" in p
               for p in checks.check_rate_moments(estimates, raw, samples, fd))


def test_rate_check_rejects_acceptance_far_from_the_pilot_quantile():
    estimates, raw, samples, fd = rate_outputs()
    values, weights = raw["energy_rate_total:N=16"]
    weights[: int(0.4 * samples)] = 0.0
    for row in estimates:
        if row["cutoff"] == 16:
            v = checks._lp_norm(values, weights, row["p"])
            row.update(value=v, ci_low=0.9 * v, ci_high=1.1 * v,
                       effective_samples=float(weights.sum()))
    problems = checks.check_rate_moments(estimates, raw, samples, fd)
    assert problems and all("acceptance" in p for p in problems)


def test_rate_check_rejects_a_rate_off_its_central_difference():
    estimates, raw, samples, fd = rate_outputs()
    key = next(iter(fd))
    fd[key] *= 1 + 1e-4
    assert any("central difference" in p
               for p in checks.check_rate_moments(estimates, raw, samples, fd))


# -- gap-decay check ------------------------------------------------------------------


def gap_outputs(samples=150, seed=0):
    rng = np.random.default_rng(seed)
    lower = (4, 8, 16, 32)
    raw, estimates = {}, []
    for m in lower:
        values = rng.standard_normal(samples) / m
        raw[f"quartic_correction_gap:M={m}"] = (values, np.ones(samples))
        estimates.append({"lower_cutoff": float(m), "p": 2.0,
                          "value": checks._lp_norm(values, np.ones(samples), 2.0)})
    slope, intercept = np.polyfit(np.log(lower), np.log([e["value"] for e in estimates]), 1)
    fits = [{"component": "total", "slope": slope, "intercept": intercept}]
    fits += [{"component": c, "slope": -1.0, "intercept": 0.0}
             for c in ("chaos_double_pair_renorm_gap", "chaos_single_pair_gap",
                       "chaos_no_pair_gap")]
    oracle = {(m, 3): (raw[f"quartic_correction_gap:M={m}"][0][3],) * 2 for m in lower}
    return estimates, fits, raw, samples, oracle


def test_gap_check_passes_consistent_outputs():
    assert checks.check_gap_decay(*gap_outputs()) == []


def test_gap_check_rejects_gaps_that_do_not_decrease():
    estimates, fits, raw, samples, oracle = gap_outputs()
    values = raw["quartic_correction_gap:M=32"][0]
    values *= 10.0
    estimates[3]["value"] *= 10.0
    problems = checks.check_gap_decay(estimates, fits, raw, samples, oracle)
    assert any("do not decrease" in p for p in problems)


def test_gap_check_rejects_a_non_negative_slope():
    estimates, fits, raw, samples, oracle = gap_outputs()
    fits[0]["slope"] = 0.1
    assert any("not negative" in p
               for p in checks.check_gap_decay(estimates, fits, raw, samples, oracle))


def test_gap_check_rejects_fft_gap_off_the_convolution():
    estimates, fits, raw, samples, oracle = gap_outputs()
    program, direct = oracle[(16, 3)]
    oracle[(16, 3)] = (program, direct * (1 + 1e-9))
    assert any("direct convolution" in p
               for p in checks.check_gap_decay(estimates, fits, raw, samples, oracle))


def test_gap_check_rejects_a_written_gap_that_is_not_the_programs():
    estimates, fits, raw, samples, oracle = gap_outputs()
    oracle[(8, 3)] = tuple(x * (1 + 1e-7) for x in oracle[(8, 3)])
    assert any("written gap" in p
               for p in checks.check_gap_decay(estimates, fits, raw, samples, oracle))


# -- flow check -------------------------------------------------------------------------


def flow_outputs(eps=1e-7):
    times = [0.05 * k for k in range(41)]
    wiggle = np.sin(np.arange(41))
    rows = [{"t": t, "truncated_energy": 50.0 * (1 + eps * w), "energy": 60.0,
             "renormalized_energy": 70.0, "sobolev_norm": 8.0}
            for t, w in zip(times, wiggle)]
    final = {"energy": 60.0, "renormalized_energy": 70.0, "sobolev_norm": 8.0}
    rows[-1].update({k: v * (1 + eps) for k, v in final.items()})
    drift = 4 * eps * np.max(np.abs(wiggle - wiggle[0]))
    ref = {"times": times, "drift": drift, "exact": final,
           "coarse": {k: v * (1 + 4 * eps) for k, v in final.items()}}
    return rows, ref


def test_flow_check_passes_second_order_errors():
    assert checks.check_flow(*flow_outputs()) == []


def test_flow_check_rejects_drift_beyond_the_order_law():
    rows, ref = flow_outputs()
    ref["drift"] /= 2
    assert any("drift" in p for p in checks.check_flow(rows, ref))


def test_flow_check_rejects_a_final_state_off_the_reference():
    rows, ref = flow_outputs()
    rows[-1]["sobolev_norm"] *= 1 + 1e-6
    assert any("final sobolev_norm" in p for p in checks.check_flow(rows, ref))


def test_flow_check_rejects_missing_diagnostic_times():
    rows, ref = flow_outputs()
    assert any("diagnostic times" in p for p in checks.check_flow(rows[:-1], ref))


# -- the references themselves --------------------------------------------------------


def test_convolution_oracle_matches_the_fft_path_on_a_small_field():
    from torusnlw import EnsembleSpec, quartic_correction, sample
    u = sample(EnsembleSpec("mu_s", 2.0, 8, 8, 5), 0).u
    for cutoff in (3, 8):
        direct = checks._quartic_by_convolution(u, 2.0, cutoff)
        assert direct == pytest.approx(quartic_correction(u, 2.0, cutoff), rel=1e-12)


def test_lawson_reference_converges_at_fourth_order():
    from torusnlw import EnsembleSpec, IntegratorSpec, ModelSpec, evolve, sample
    st = sample(EnsembleSpec("mu_s", 2.0, 6, 6, 2), 0)
    fine = evolve(st, 0.4, ModelSpec("nlkg", 6), IntegratorSpec("rk4", 1e-3))

    def error(step):
        u, v = checks.lawson_rk4(st.u.coeffs, st.v.coeffs, 6, 0.4, step)
        return max(np.abs(u - fine.u.coeffs).max(), np.abs(v - fine.v.coeffs).max())
    coarse, half = error(0.02), error(0.01)
    assert half < 1e-7 and 12 < coarse / half < 20
