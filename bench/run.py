"""Benchmark of the torusnlw CLI: three workloads, end-to-end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the benchmark imports torusnlw
from ./src).  One round is one ``torusnlw`` command in a fresh interpreter
(``--workers 1``) plus the correctness check of what it wrote; a run
repeats the workload's round, with the same config, at least twice and
until its commands have run for S seconds in all, and reports medians
over its rounds.  The first round also builds what the checks compare
against; that and the other checks do not count towards the S seconds.
The seed (mod 2^63) is the ensemble seed of the workload's config, so the
same seed gives the same inputs.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics of the traced ones
(spans.LAYER_METRICS) with trace.overhead_s, the traced minus the
untraced median wall time.  The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.  The exit code is 1
when a command fails or a check fails, 2 when the checkout has no
torusnlw sources.

BLAS threading is left as the environment sets it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROUND_TIMEOUT_S = 150.0
S = 2.0  # regularity index s of every workload's ensemble and functionals

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class RateMoments:
    """mc-lp on energy_rate_total over N = 8, 16, 32 and p = 2, 4, 8."""

    command = "mc-lp"
    cutoffs = (8, 16, 32)
    samples = 1000

    def __init__(self, seed: int):
        self.seed = seed
        self.work = self.samples * len(self.cutoffs)  # pilot draws do not count
        self.fd = None

    def config(self) -> dict:
        return {"ensemble": {"variant": "mu_s", "s": S, "seed": self.seed},
                "experiment": {"N_list": list(self.cutoffs), "p_list": [2.0, 4.0, 8.0],
                               "samples": self.samples, "r": "auto",
                               "functional": "energy_rate_total"},
                "output": {"directory": "out", "emit_raw": True}}

    def check(self, out: Path) -> list:
        raw = checks.read_raw(out / "raw_values.csv")
        if self.fd is None:
            self.fd = checks.rate_reference(S, self.seed, checks.choose_rate_draws(raw))
        return checks.check_rate_moments(checks.read_csv(out / "estimates.csv"), raw,
                                         self.samples, self.fd)


class GapDecay:
    """mc-converge: M = 4, 8, 16, 32 against N_ref = 64, p = 2, with the
    chaos components."""

    command = "mc-converge"
    lower = (4, 8, 16, 32)
    n_ref = 64
    samples = 300

    def __init__(self, seed: int):
        self.seed = seed
        self.work = self.samples
        self.oracle = None

    def config(self) -> dict:
        return {"ensemble": {"variant": "mu_s", "s": S, "seed": self.seed},
                "experiment": {"M_list": list(self.lower), "N_ref": self.n_ref, "p": 2.0,
                               "samples": self.samples, "components": True},
                "output": {"directory": "out", "emit_raw": True}}

    def check(self, out: Path) -> list:
        raw = checks.read_raw(out / "raw_values.csv")
        if self.oracle is None:
            self.oracle = checks.gap_reference(S, self.seed, list(self.lower), self.n_ref,
                                               checks.choose_gap_draws(raw))
        return checks.check_gap_decay(checks.read_csv(out / "estimates.csv"),
                                      checks.read_csv(out / "fits.csv"), raw,
                                      self.samples, self.oracle)


class Flow:
    """evolve: NLKG at N = 32 from ensemble draw 0, Strang splitting."""

    command = "evolve"
    cutoff = 32
    dt = 1e-3
    t_final = 2.0
    stride = 50
    sigma = 1.0

    def __init__(self, seed: int):
        self.seed = seed
        self.work = round(self.t_final / self.dt)  # integrator steps
        self.ref = None

    def config(self) -> dict:
        ensemble = {"variant": "mu_s", "s": S, "seed": self.seed,
                    "sample_max_mode": self.cutoff}
        return {"model": {"equation": "nlkg", "N": self.cutoff},
                "state": {"sample": {"ensemble": ensemble, "index": 0}},
                "integrator": {"scheme": "strang_splitting", "dt": self.dt,
                               "t_final": self.t_final},
                "trajectory": {"stride": self.stride, "sigma": self.sigma, "s": S},
                "output": {"directory": "out"}}

    def check(self, out: Path) -> list:
        if self.ref is None:
            self.ref = checks.flow_reference(S, self.seed, self.cutoff, self.dt,
                                             self.t_final, self.stride, self.sigma)
        return checks.check_flow(checks.read_csv(out / "trajectory.csv"), self.ref)


WORKLOADS = {"rate-moments": RateMoments, "gap-decay": GapDecay, "flow": Flow}


def run_round(workload, root: Path, round_dir: Path, traced: bool) -> dict:
    """One CLI command in a fresh interpreter, then the check of its output."""
    round_dir.mkdir(parents=True)
    config = round_dir / "config.json"
    config.write_text(json.dumps(workload.config()), encoding="utf-8")
    report = round_dir / "report.json"
    env = dict(os.environ)
    env.pop("TORUSNLW_OUTPUT_DIR", None)  # would redirect the outputs
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "child.py"), str(report), workload.command,
            str(config)] + (["--trace"] if traced else [])
    with open(round_dir / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=round_dir, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: end the command before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"traced": traced, "failed": True, "problems": [], "command_s": ended - spawned}
    if proc.returncode != 0 or not report.exists():
        return result
    marks = checks.read_json(report)
    if marks["exit"] != 0:
        return result
    out = round_dir / "out"
    try:
        problems = workload.check(out)
    except (OSError, KeyError, ValueError) as exc:
        problems = [f"outputs unreadable: {exc!r}"]
    result.update(
        failed=False,
        setup_s=marks["valid"] - spawned,
        wall_s=marks["done"] - marks["valid"],
        cpu_s=marks["cpu_done"] - marks["cpu_valid"],
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        bytes_written=sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0,
        problems=problems,
    )
    if traced:
        result["layers"] = spans.layer_metrics(marks["spans"], result["bytes_written"])
    return result


def summarize(workload, rounds: list, trace: bool) -> dict:
    done = [r for r in rounds if not r["failed"]]
    plain = [r for r in done if not r["traced"]]
    metrics = {}
    if not trace:
        if plain:
            med = {k: statistics.median(r[k] for r in plain)
                   for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
            med["throughput_per_s"] = workload.work / med["wall_s"]
            metrics = {k: {"value": med[k], "unit": unit} for k, unit in END_TO_END.items()}
        return metrics
    traced = [r for r in done if r["traced"]]
    if traced and plain:
        for name, unit in spans.LAYER_METRICS.items():
            if name == "trace.overhead_s":
                value = (statistics.median(r["wall_s"] for r in traced)
                         - statistics.median(r["wall_s"] for r in plain))
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def verdict(rounds: list) -> bool:
    """A run is correct when every round's command exited 0 and its
    outputs passed the check: an operation is the command and its check."""
    return not any(r["failed"] or r["problems"] for r in rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "torusnlw" / "cli.py").is_file():
        print(f"error: {root} holds no torusnlw sources (src/torusnlw); run the "
              "benchmark from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload](args.seed % 2**63)  # configs take seeds >= 0
    runs = root / ".bench_runs"
    run_dir = runs / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    rounds = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        round_dir = run_dir / f"round{len(rounds)}"
        result = run_round(workload, root, round_dir, traced)
        rounds.append(result)
        status = ("FAILED" if result["failed"]
                  else "check failed" if result["problems"] else "ok")
        print(f"round {len(rounds)}{' traced' if traced else ''}: {status}"
              + ("" if result["failed"] else f", wall {result['wall_s']:.3f} s"), flush=True)
        for problem in result["problems"]:
            print(f"  {problem}", file=sys.stderr)
        if result["failed"]:
            print(f"  command failed; see {round_dir / 'stderr.txt'}", file=sys.stderr)
        elif traced:
            shutil.copy(round_dir / "report.json", runs / f"{args.workload}.trace.json")
        if not result["failed"] and not result["problems"]:
            shutil.rmtree(round_dir)
        if (len(rounds) >= 2 and sum(r["command_s"] for r in rounds) >= args.seconds
                and (not args.trace or len(rounds) % 2 == 0)):
            break
    if run_dir.exists() and not any(run_dir.iterdir()):
        run_dir.rmdir()
    metrics = summarize(workload, rounds, bool(args.trace))
    correct = verdict(rounds)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(rounds),
                      "failed": sum(r["failed"] for r in rounds), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
