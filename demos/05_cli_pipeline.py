"""Driving the system through its command-line interface.

Every capability is also exposed as a `caselink` subcommand:

    ingest | index | embed | graph | train | rank | eval | pipeline | synth

One JSON config file can drive every stage (flags override config values,
which override built-in defaults), and each stage writes a manifest.json
beside its outputs recording the resolved configuration, sha256 digests of
every input, and wall-clock timings, so any artifact can be traced back to
exactly what produced it. This demo generates a synthetic dataset, runs the
stages one by one, then reruns the fused pipeline twice to show that the
staged and fused paths agree and that reruns are byte-identical.

Run with:  python3 demos/05_cli_pipeline.py
"""

import json
import tempfile
from pathlib import Path

from caselink.cli import main as caselink

OVERRIDES = ["--epochs", "150", "--lr", "0.01", "--dropout", "0.1", "--tau", "0.05"]


def run(argv: list[str]) -> None:
    print(f"$ caselink {' '.join(argv)}")
    code = caselink(argv)
    assert code == 0, f"stage failed with exit code {code}"
    print()


def run_all(work: Path) -> None:
    data = work / "data"
    print(f"working in {work}\n")

    run(["synth", "--out", str(data), "--seed", "2"])
    cfg = ["--config", str(data / "config.json")]

    run(["ingest", *cfg, "--out", str(work / "ingest")])
    run(["index", *cfg, "--out", str(work / "index")])
    run(["embed", *cfg, "--out", str(work / "embed")])
    run(["graph", *cfg,
         "--embeddings", str(work / "embed" / "embeddings.emb1"),
         "--out", str(work / "graph")])
    run(["train", *cfg,
         "--graph", str(work / "graph" / "graph.gcg1"),
         "--out", str(work / "train"), *OVERRIDES])
    run(["rank", *cfg,
         "--graph", str(work / "graph" / "graph.gcg1"),
         "--checkpoint", str(work / "train" / "checkpoints" / "checkpoint.gatc"),
         "--out", str(work / "rank")])
    run(["eval", *cfg, "--run", str(work / "rank" / "run.tsv"),
         "--out", str(work / "eval")])

    manifest = json.loads((work / "train" / "manifest.json").read_text())
    print("the train stage's manifest records:")
    print(f"  command:    {manifest['command']}")
    print(f"  inputs:     {len(manifest['inputs'])} files, sha256-digested")
    print(f"  timings_ms: {dict(manifest['timings_ms'])}")
    print(f"  epochs:     {manifest['config']['training']['epochs']}\n")

    # The fused pipeline command runs the same stages in one process; with the
    # same config and overrides it must reproduce the staged result, and
    # rerunning it must be byte-identical.
    for attempt in ("once", "twice"):
        run(["pipeline", *cfg, "--out", str(work / f"pipe_{attempt}"), *OVERRIDES])

    staged = json.loads((work / "eval" / "report.json").read_text())
    fused_a = (work / "pipe_once" / "report.json").read_bytes()
    fused_b = (work / "pipe_twice" / "report.json").read_bytes()
    print(f"staged report:           {staged}")
    print(f"fused == staged:         {json.loads(fused_a) == staged}")
    print(f"fused reruns identical:  {fused_a == fused_b}")
    run_staged = (work / "rank" / "run.tsv").read_bytes()
    run_a = (work / "pipe_once" / "run.tsv").read_bytes()
    run_b = (work / "pipe_twice" / "run.tsv").read_bytes()
    ckpt_a = (work / "pipe_once" / "checkpoints" / "checkpoint.gatc").read_bytes()
    ckpt_b = (work / "pipe_twice" / "checkpoints" / "checkpoint.gatc").read_bytes()
    print(f"run files identical:     {run_a == run_b and run_a == run_staged}")
    print(f"checkpoints identical:   {ckpt_a == ckpt_b}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="caselink-demo05-") as tmp:
        run_all(Path(tmp))


if __name__ == "__main__":
    main()
