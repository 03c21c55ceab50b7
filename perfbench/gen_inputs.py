"""Write one workload's inputs: corpus, labels, lexicon, embeddings and a
pipeline config with absolute paths.

Runs in its own process so that generating the inputs never counts toward
the measured process's time or peak memory.

    python3 perfbench/gen_inputs.py --workload quickstart --seed 2 --dir DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    args = parser.parse_args(argv)

    from caselink.synthetic import SyntheticSpec, generate, write_dataset

    workload = WORKLOADS[args.workload]
    root = args.dir.resolve()
    spec = SyntheticSpec(seed=args.seed, **workload.spec)
    paths = write_dataset(generate(spec), root / "data")
    config = {name: str(path) for name, path in paths.items()}
    config["training"] = {"seed": spec.seed}
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
