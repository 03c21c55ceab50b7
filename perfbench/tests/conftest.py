"""Make the benchmark modules and the caselink sources importable.

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent, HERE.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
