"""One torusnlw CLI command in a fresh interpreter, as the benchmark runs it.

    python3 bench/child.py REPORT COMMAND CONFIG [--trace]

Runs ``torusnlw COMMAND CONFIG --workers 1`` through ``torusnlw.cli.main``
and writes REPORT, a JSON object with the CLI's exit code and the
monotonic-clock and process-CPU readings taken when the command's config
runner returned (set-up is over: the CLI is imported and the config
validated) and when main returned (outputs are written).  With --trace
every public library function is wrapped (see spans.py) and the spans go
into REPORT as well.  torusnlw must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    report_path, command, config = argv[:3]
    trace = "--trace" in argv[3:]
    import torusnlw.cli as cli

    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    marks: dict = {}
    runner = cli._RUNNERS[command]

    def validated(root, workers):
        resolved = runner(root, workers)
        marks["valid"] = time.monotonic()
        marks["cpu_valid"] = time.process_time()
        return resolved

    cli._RUNNERS[command] = validated
    cli_argv = [command, config, "--workers", "1"]
    if tracer is None:
        code = cli.main(cli_argv)
    else:
        code = tracer.call(spans.ROOT, cli.main, cli_argv)
    marks["done"] = time.monotonic()
    marks["cpu_done"] = time.process_time()
    report = {"exit": code, **marks, "spans": tracer.spans if tracer else []}
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
