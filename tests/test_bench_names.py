"""Every torusnlw name the benchmark's sources use must still resolve.

bench/ imports torusnlw names in its checks, its tests and the script
texts its tests run in a child interpreter.  Reading those sources (never
changing them) here means that a rename or deletion under src/ fails
tier-1 before it breaks the benchmark's correctness checks.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
# the benchmark's own oracles and its product-grid test need these, so
# finding them proves the scan reads the sources at all
EXPECTED = {
    ("torusnlw", "pointwise_product"),
    ("torusnlw.spectral", "pointwise_product"),
    ("torusnlw.spectral", "project_ball"),
    ("torusnlw", "sample"),
    ("torusnlw", "trajectory"),
    ("torusnlw.cli", "_RUNNERS"),
}


def _code_text(node) -> str | None:
    """The text of a string literal, an f-string's formatted fields read
    as a bare name, so a script held in one can be parsed."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "_"
                       for part in node.values)
    return None


def torusnlw_names(source: str) -> set:
    """(module, name) for each name the source takes from torusnlw: by
    `from torusnlw... import`, as an attribute of a module bound by
    `import torusnlw... as`, and in every string literal that parses as
    Python (script texts)."""
    tree = ast.parse(source)
    names, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "torusnlw":
            names |= {(node.module, a.name) for a in node.names}
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "torusnlw":
                    aliases[a.asname or a.name] = a.name
        else:
            text = _code_text(node)
            if text is not None and "torusnlw" in text:
                try:
                    names |= torusnlw_names(text)
                except SyntaxError:
                    pass  # prose or a path, not a script
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = ast.unparse(node.value)
            if base in aliases:
                names.add((aliases[base], node.attr))
    return names


def bench_names() -> set:
    return set().union(*(torusnlw_names(path.read_text(encoding="utf-8"))
                         for path in sorted(BENCH.glob("*.py"))))


def test_scan_finds_the_names_the_benchmark_checks_with():
    assert EXPECTED <= bench_names()


@pytest.mark.parametrize("module, name", sorted(bench_names()))
def test_benchmark_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"bench/ uses {module}.{name}, which no longer exists")
