"""The demo scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Demo 05 runs the CLI pipeline staged and fused; test_cli.py's byte-identity
# test already makes the same calls, in a fraction of the time.
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_demo_set():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("caselink-demo*"))  # the demo removed its temp dir
