"""The benchmark's own tests pass against this source tree, and every caselink
name the benchmark reads exists.

perfbench imports and traces caselink functions by name, so renaming or
re-signing one breaks the benchmark. Its tests run in their own pytest
process: both test directories hold a ``conftest.py`` and the tests here do
``from conftest import``, so one pytest run cannot collect both. Those tests
never run a whole measurement, so the names only a measurement reads are
checked here from perfbench's source.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def perfbench_names():
    """(file, module, name) for each ``from caselink.<module> import <name>``
    and each ``cli.<name>`` in perfbench's modules."""
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "caselink":
                yield from ((path.name, node.module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "cli"):
                yield path.name, "caselink.cli", node.attr


def resolves(module: str, name: str) -> bool:
    """Whether ``from <module> import <name>`` would succeed."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_caselink_name_perfbench_reads_exists():
    names = set(perfbench_names())
    assert ("run.py", "caselink.cli", "CACHE_ENV_VAR") in names
    assert ("checks.py", "caselink.bm25", "load_index") in names
    missing = sorted(f"{file}: {module}.{name}" for file, module, name in names
                     if not resolves(module, name))
    assert not missing


def test_the_quality_ladder_runs_on_a_pipeline_output(tmp_path, monkeypatch):
    """The benchmark's only call of ``init_params`` and ``model_forward``."""
    import importlib.util
    import json
    import math

    from caselink.cli import main
    from caselink.corpus import ingest_corpus

    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, checks)  # its dataclasses look it up
    spec.loader.exec_module(checks)
    assert main(["synth", "--out", str(tmp_path / "data"), "--n-clusters", "2",
                 "--candidates-per-cluster", "6", "--queries-per-cluster", "2",
                 "--relevant-per-query", "3", "--dim", "8", "--seed", "2"]) == 0
    config = tmp_path / "data" / "config.json"
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(config), "--out", str(out), "--epochs", "1"]) == 0
    cfg = json.loads(config.read_text("utf-8"))
    ladder = checks.quality_ladder(ingest_corpus(cfg["corpus"], cfg["labels"]), out,
                                   prefilter_size=10, final_size=5, seed=2)
    assert sorted(ladder) == ["f1_bm25", "f1_raw_emb", "f1_untrained", "recall_ceiling"]
    assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in ladder.values()), ladder
