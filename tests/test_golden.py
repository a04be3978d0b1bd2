"""Golden outputs: a fixed set of small CLI runs against committed pins.

Every CSV and JSON file the runs write, and metadata.json without its
wall_time_s, must equal the copy under tests/golden/ byte for byte.  A
mismatch names the file and its first differing cell, and gives the
largest relative difference over all numeric cells, which tells a
rounding-level move apart from a defect.

FFT bits can differ across CPUs and NumPy builds (every transform is
numpy.fft's), so the pins hold for the stack recorded in
tests/golden/versions.json.  A change that moves values on purpose
regenerates the pins, which prints every moved cell (file, location,
pinned -> new) for the change's notes:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from test_acceptance import MC_RUNS, SEED
from torusnlw.cli import OUTPUT_DIR_ENV, main

GOLDEN = Path(__file__).parent / "golden"
VERSIONS = "versions.json"


def _state(window: int) -> dict:
    return {"sample": {"ensemble": {"variant": "mu_s", "s": 2.0, "sample_max_mode": window,
                                    "seed": SEED}}}


_BETA = {"nlkg": 0.0, "nlw": 0.0, "nlkg_beta": 1.5}

RUNS = [(command, command, config) for command, config in MC_RUNS] + [
    ("mc-lp-auto", "mc-lp", {
        "ensemble": {"variant": "mu_s", "s": 2.0, "seed": SEED},
        "experiment": {"N_list": [2, 3], "p_list": [2.0, 4.0], "samples": 150,
                       "r": "auto"},
    }),
] + [
    (f"evolve-{equation}-{scheme}", "evolve", {
        "model": {"equation": equation, "N": 4, "beta": beta},
        "state": _state(6),
        "integrator": {"scheme": scheme, "dt": 0.01, "t_final": 0.2},
        "trajectory": {"stride": 5},
    })
    for equation, beta in _BETA.items() for scheme in ("strang_splitting", "rk4")
] + [
    (f"diagnose-{equation}", "diagnose", {
        "model": {"equation": equation, "s": 2.0, "N": 4, "beta": beta},
        "state": _state(6),
    })
    for equation, beta in _BETA.items()
] + [
    (f"sample-seed{seed}", "sample", {
        "ensemble": {"variant": "mu_s", "s": 2.0, "sample_max_mode": 4, "seed": seed},
        "index": 3,
    })
    for seed in (601, 2026)
] + [
    (f"kakutani-s{s:g}", "kakutani", {"s": s, "max_norm": 64}) for s in (0.4, 2.0)
]


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def run_set(dest: Path) -> None:
    """Run every entry of RUNS into dest/<name>/ and drop wall_time_s
    from each metadata.json.  Output directories are relative, so the
    metadata does not depend on dest."""
    dest.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as configs:
        os.chdir(dest)
        try:
            for name, command, config in RUNS:
                config = dict(config, output={"directory": name,
                                              "emit_raw": command.startswith("mc-")})
                path = Path(configs) / f"{name}.json"
                path.write_text(json.dumps(config), encoding="utf-8")
                code = main([command, str(path)])
                if code != 0:
                    raise RuntimeError(f"{name}: {command} exited {code}")
        finally:
            os.chdir(cwd)
    for meta_path in dest.glob("*/metadata.json"):
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        del meta["wall_time_s"]
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")


def _files(root: Path) -> set:
    """Every file under root, as a path relative to it."""
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _cells(name: str, data: bytes) -> list:
    """(location, text) for every cell of a CSV or leaf of a JSON file."""
    text = data.decode("utf-8")
    if name.endswith(".csv"):
        rows = list(csv.reader(text.splitlines()))
        header = rows[0] if rows else []
        return [(f"row {r}, column {header[c] if c < len(header) else c}", cell)
                for r, row in enumerate(rows) for c, cell in enumerate(row)]
    out = []

    def walk(node, at):
        if isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], f"{at}.{key}")
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, f"{at}[{i}]")
        else:
            out.append((at or "(top level)", json.dumps(node)))

    walk(json.loads(text), "")
    return out


def _relative(a: str, b: str) -> float | None:
    """|a - b| / max(|a|, |b|) for two numeric cells, else None."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    return 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))


def describe(name: str, pinned: bytes, got: bytes) -> str:
    """The first differing cell of one file and the largest relative
    difference over its differing numeric cells."""
    old, new = _cells(name, pinned), _cells(name, got)
    if [at for at, _ in old] != [at for at, _ in new]:
        return f"{name}: cells differ in layout ({len(old)} pinned, {len(new)} now)"
    diffs = [(at, a, b) for (at, a), (_, b) in zip(old, new) if a != b]
    if not diffs:
        return f"{name}: same cells, different bytes (line endings or formatting)"
    at, a, b = diffs[0]
    numeric = [r for r in (_relative(a, b) for _, a, b in diffs) if r is not None]
    largest = f"{max(numeric):.3g}" if numeric else "none (no numeric cell differs)"
    return (f"{name}: first difference at {at}: pinned {a}, now {b}; "
            f"{len(diffs)} cells differ, largest relative difference {largest}")


def test_outputs_match_the_pins(tmp_path, monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    run_set(tmp_path)
    pinned = _files(GOLDEN) - {VERSIONS}
    produced = _files(tmp_path)
    problems = [f"{name}: pinned, not written" for name in sorted(pinned - produced)]
    problems += [f"{name}: written, not pinned" for name in sorted(produced - pinned)]
    problems += [describe(name, (GOLDEN / name).read_bytes(), (tmp_path / name).read_bytes())
                 for name in sorted(pinned & produced)
                 if (GOLDEN / name).read_bytes() != (tmp_path / name).read_bytes()]
    recorded = json.loads((GOLDEN / VERSIONS).read_text(encoding="utf-8"))
    assert not problems, "\n".join(
        problems + [f"pins recorded with {recorded}; this run has {versions()}"])


def moved(fresh: Path) -> tuple:
    """(lines, largest): a line for every cell that differs between the
    pins and the set under `fresh` (file, location, pinned -> new), and for
    every file that only one of them holds; and a line naming the largest
    relative move over the numeric cells among them."""
    pinned, produced = _files(GOLDEN), _files(fresh)
    lines = [f"{name}: pinned, not written" for name in sorted(pinned - produced)]
    lines += [f"{name}: written, not pinned" for name in sorted(produced - pinned)]
    moves = []
    for name in sorted(pinned & produced):
        data, got = (GOLDEN / name).read_bytes(), (fresh / name).read_bytes()
        old, new = _cells(name, data), _cells(name, got)
        if [at for at, _ in old] != [at for at, _ in new]:
            lines.append(describe(name, data, got))
            continue
        for (at, a), (_, b) in zip(old, new):
            if a != b:
                lines.append(f"{name} {at}: {a} -> {b}")
                if _relative(a, b) is not None:
                    moves.append((_relative(a, b), lines[-1]))
    largest = "largest relative move: " + (
        "{:.3g} ({})".format(*max(moves)) if moves else "none (no numeric cell moved)")
    return lines, largest


def regenerate() -> None:
    """Replace the pins with this tree's outputs, after printing every
    cell that moves."""
    os.environ.pop(OUTPUT_DIR_ENV, None)
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp) / "golden"
        run_set(fresh)
        (fresh / VERSIONS).write_text(json.dumps(versions(), indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
        lines, largest = moved(fresh)
        print(f"{len(lines)} moved:", *lines, largest, sep="\n")
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(fresh, GOLDEN)


if __name__ == "__main__":
    regenerate()
    print(f"regenerated {sum(1 for p in GOLDEN.rglob('*') if p.is_file())} files "
          f"under {GOLDEN} with {versions()}", file=sys.stderr)
