"""The benchmark's own tests pass against this source tree.

perfbench imports and traces caselink functions by name, so renaming or
re-signing one breaks the benchmark. Its tests run in their own pytest
process: both test directories hold a ``conftest.py`` and the tests here do
``from conftest import``, so one pytest run cannot collect both.
"""

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
