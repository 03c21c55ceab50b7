"""Command-line interface: one function per pipeline stage, one subcommand per stage.

Stages: ingest | index | embed | graph | train | rank | eval | pipeline | synth.
Each subcommand resolves its inputs, calls its stage function and prints a
summary; ``pipeline`` resolves its inputs once and calls the same stage
functions in order, in one process. One JSON config file can drive all stages;
command-line flags override config values, which override built-in defaults.
Every stage writes a ``manifest.json`` into its output directory (before its
outputs are finalized) recording the resolved config, sha256 digests of all
inputs, output paths, the tool version, and per-stage wall-clock timings.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
The env var ``CASELINK_CACHE_DIR`` names a directory for reusable BM25 index
caches keyed by corpus digest.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import struct
import sys
import time
from pathlib import Path
from typing import Callable

from . import __version__
from .bm25 import Bm25Index, build_index, load_index, save_index
from .corpus import (
    CorpusStore,
    attach_charges,
    ingest_corpus,
    load_charge_lexicon,
    load_labels,
)
from .embeddings import (
    EmbeddingTable,
    ProviderConfig,
    RemoteEmbeddingProvider,
    check_coverage,
    load_embedding_file,
    normalize_table,
    read_binary_embeddings,
    write_binary_embeddings,
)
from .errors import CaseLinkError, IngestError, LabelError, NumericalError, ParseError
from .gat import GatParams, load_checkpoint, model_forward
from .graph import GlobalCaseGraph, build_global_case_graph, load_graph, save_graph
from .retrieval import (
    FINAL_SIZE,
    PREFILTER_SIZE,
    EvalReport,
    RetrievalRun,
    evaluate_runs,
    rank_all,
    read_run_tsv,
    representations_from_rows,
    write_report_json,
    write_run_json,
    write_run_tsv,
)
from .synthetic import SyntheticSpec, generate, write_dataset
from .training import TrainingConfig, TrainResult, train

logger = logging.getLogger(__name__)

CACHE_ENV_VAR = "CASELINK_CACHE_DIR"


class UsageError(Exception):
    """Bad command line; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


# ---------------------------------------------------------------------------
# manifest plumbing


def _digest_path(path: Path) -> str:
    """sha256 of a file's bytes. A directory digests each file's relative path
    and contents, each prefixed by its length, so no two trees share a digest."""
    h = hashlib.sha256()
    if not path.is_dir():
        h.update(path.read_bytes())
        return h.hexdigest()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            for part in (p.relative_to(path).as_posix().encode("utf-8"), p.read_bytes()):
                h.update(struct.pack("<Q", len(part)))
                h.update(part)
    return h.hexdigest()


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _tmp(path: Path) -> Path:
    return path.with_name(path.name + ".tmp")


class StageManifest:
    """Run record: resolved config, input digests, outputs, timings.

    Each stage rewrites it with its outputs and timing before renaming those
    outputs into place, so a finalized artifact never exists without one.
    """

    def __init__(self, out_dir: Path, command: str, config_path, config: dict):
        self.path = Path(out_dir) / "manifest.json"
        self.data = {
            "tool": "caselink",
            "version": __version__,
            "command": command,
            "config_path": str(config_path) if config_path else None,
            "config": config,
            "inputs": {},
            "outputs": [],
            "timings_ms": {},
        }
        self._t0: dict[str, float] = {}

    def add_input(self, *paths) -> None:
        """Record the digest of each path; ``None`` (an absent optional input) is skipped."""
        for path in paths:
            if path is not None:
                self.data["inputs"][str(path)] = _digest_path(Path(path))

    def add_output(self, path) -> None:
        s = str(path)
        if s not in self.data["outputs"]:
            self.data["outputs"].append(s)

    def start(self, stage: str) -> None:
        self._t0[stage] = time.perf_counter()

    def stop(self, stage: str) -> None:
        self.data["timings_ms"][stage] = round(
            (time.perf_counter() - self._t0[stage]) * 1e3, 3
        )

    def write(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _write_json(self.path, self.data)

    def commit(self, stage: str, writers: dict[Path, Callable[[Path], object]]) -> None:
        """Finish ``stage``: write each output through its writer to a ``.tmp``
        sibling, record the outputs and the stage timing, write the manifest,
        then rename the outputs into place."""
        for path, write in writers.items():
            write(_tmp(path))
            self.add_output(path)
        self.stop(stage)
        self.write()
        for path in writers:
            os.replace(_tmp(path), path)


# ---------------------------------------------------------------------------
# config resolution: CLI flag > config file > built-in default

# Config keys holding paths. A relative value is taken relative to the config
# file's directory; the same path given as a flag is relative to the working
# directory.
_CONFIG_PATH_KEYS = ("corpus", "labels", "lexicon", "embeddings", "graph", "checkpoint",
                     "run", "out_dir")


def _load_config(path) -> dict:
    if path is None:
        return {}
    text = Path(path).read_text(encoding="utf-8")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParseError("config root must be a JSON object")
    for key in _CONFIG_PATH_KEYS:
        if isinstance(cfg.get(key), str):
            cfg[key] = str(Path(path).parent / cfg[key])
    return cfg


def _opt(args, cfg: dict, name: str, default=None, flag: str | None = None):
    v = getattr(args, flag or name, None)
    if v is not None:
        return v
    if name in cfg:
        return cfg[name]
    return default


def _path_opt(args, cfg, name, flag=None) -> Path | None:
    v = _opt(args, cfg, name, flag=flag)
    return Path(v) if v is not None else None


def _require_path(args, cfg, name, flag=None) -> Path:
    v = _path_opt(args, cfg, name, flag=flag)
    if v is None:
        raise UsageError(f"--{(flag or name).replace('_', '-')} is required "
                         f"(flag or config key {name!r})")
    return v


def _out_dir(args, cfg) -> Path:
    v = _opt(args, cfg, "out_dir", default="out", flag="out")
    out = Path(v)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _bm25_params(args, cfg) -> tuple[float, float]:
    """BM25 ``(k1, b)``."""
    return float(_opt(args, cfg, "k1", default=1.2)), float(_opt(args, cfg, "b", default=0.75))


def _rank_sizes(args, cfg) -> tuple[int, int]:
    """``(prefilter_size, final_size)`` of the two-stage ranker."""
    return (int(_opt(args, cfg, "prefilter_size", default=PREFILTER_SIZE)),
            int(_opt(args, cfg, "final_size", default=FINAL_SIZE)))


# Config-section keys accepted for a field name, and the flag spelling of a
# field where it is not the field name.
_SECTION_ALIASES = {"lambda": "lam", "K_edges": "k_edges"}
_FIELD_FLAGS = {"lam": "lambda"}
_FIELD_HELP = {
    "lam": "degree-regularization coefficient",
    "tau": "InfoNCE temperature",
    "k_edges": "BM25 neighbors per case for graph edges",
    "delta": "charge-charge cosine threshold",
}


def _field_kind(f: dataclasses.Field) -> type:
    """The type of a flag or config value for field ``f``: float for a ``float``
    field, int for every other."""
    return float if f.type == "float" else int


def resolve_section(args, cfg: dict, section: str, cls):
    """Build the dataclass ``cls`` from config ``section``: flag > config >
    dataclass default. An unknown key or an invalid value is a ParseError."""
    values = cfg.get(section, {})
    if not isinstance(values, dict):
        raise ParseError(f"config key {section!r} must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    merged: dict = {}
    for key, value in values.items():
        name = _SECTION_ALIASES.get(key, key)
        if name not in fields:
            raise ParseError(f"unknown {section} config key {key!r}")
        kind = _field_kind(fields[name])
        typed = isinstance(value, (int, float) if kind is float else int)
        nullable = value is None and "None" in fields[name].type
        if isinstance(value, bool) or not (typed or nullable):
            raise ParseError(f"{section} config key {key!r} must be {kind.__name__}, not {value!r}")
        merged[name] = value
    for name in fields:
        v = getattr(args, name, None)
        if v is not None:
            merged[name] = v
    try:
        return cls(**merged)
    except ValueError as exc:
        raise ParseError(f"invalid {section} config: {exc}") from exc


def _cache_dir() -> Path | None:
    v = os.environ.get(CACHE_ENV_VAR)
    if not v:
        return None
    p = Path(v)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _get_index(
    store: CorpusStore, corpus_path: Path, k1: float, b: float
) -> tuple[Bm25Index, str]:
    """Build the BM25 index, consulting the digest-keyed cache directory.

    A cache file that cannot be read, or that was built from another corpus or
    other parameters, counts as a miss: the index is rebuilt and the file
    atomically replaced.
    """
    digest = _digest_path(corpus_path)
    cache = _cache_dir()
    if cache is None:
        return build_index(store, k1=k1, b=b), digest
    cache_file = cache / f"bm25_{digest[:16]}_{k1:g}_{b:g}.bin"
    if cache_file.exists():
        try:
            index, cached_digest = load_index(cache_file)
        except (IngestError, ValueError, KeyError) as exc:
            logger.warning("rebuilding unreadable BM25 cache %s: %s", cache_file, exc)
        else:
            if cached_digest == digest and index.k1 == k1 and index.b == b:
                logger.info("reusing BM25 cache %s", cache_file)
                return index, digest
            logger.warning("rebuilding BM25 cache %s: built from other inputs", cache_file)
    index = build_index(store, k1=k1, b=b)
    tmp = _tmp(cache_file)
    save_index(index, tmp, digest)
    os.replace(tmp, cache_file)
    return index, digest


# ---------------------------------------------------------------------------
# input resolution shared by the subcommands


def _load_store(args, cfg, need_labels: bool) -> tuple[CorpusStore, Path, Path | None]:
    corpus_path = _require_path(args, cfg, "corpus")
    labels_path = _path_opt(args, cfg, "labels")
    if need_labels and labels_path is None:
        raise UsageError("--labels is required (flag or config key 'labels')")
    store = ingest_corpus(corpus_path, labels_path)
    return store, corpus_path, labels_path


def _attach_lexicon(args, cfg, store: CorpusStore) -> tuple[CorpusStore, Path]:
    lex_path = _require_path(args, cfg, "lexicon")
    charges = load_charge_lexicon(lex_path)
    return attach_charges(store, charges), lex_path


def _file_table(args, cfg, manifest: StageManifest) -> EmbeddingTable:
    """The ``--embeddings`` file (JSONL or EMB1), recorded as an input, L2-normalized."""
    emb_path = _require_path(args, cfg, "embeddings")
    manifest.add_input(emb_path)
    return normalize_table(load_embedding_file(emb_path, expected_dim=_opt(args, cfg, "dim")))


def _source_table(args, cfg, store: CorpusStore, manifest: StageManifest) -> EmbeddingTable:
    """Vectors for every case and charge: fetched from ``endpoint`` when one is
    configured, else read from the ``--embeddings`` file."""
    endpoint = _opt(args, cfg, "endpoint")
    if not endpoint:
        return _file_table(args, cfg, manifest)
    provider_cfg = ProviderConfig(
        endpoint=endpoint,
        truncation_tokens=int(_opt(args, cfg, "truncation_tokens", default=4096)),
        max_in_flight=int(_opt(args, cfg, "threads", default=4, flag="threads") or 4),
    )
    items = [(case.id, case.text) for case in store.cases]
    items += [(charge.id, charge.name) for charge in store.charges]
    return normalize_table(RemoteEmbeddingProvider(provider_cfg).fetch_many(items))


def _case_graph(
    args, cfg, store: CorpusStore, index: Bm25Index, training: TrainingConfig,
    manifest: StageManifest,
) -> GlobalCaseGraph:
    """The ``--graph`` file when one is given, else the graph built from ``--embeddings``."""
    graph_path = _path_opt(args, cfg, "graph", flag="graph_file")
    if graph_path is not None:
        manifest.add_input(graph_path)
        return load_graph(graph_path)
    table = _file_table(args, cfg, manifest)
    return build_global_case_graph(
        store, table, index, k=training.k_edges, delta=training.delta
    )


# ---------------------------------------------------------------------------
# stages: in-memory inputs -> artifacts in ``out`` plus what the next stage needs


def ingest_stage(store: CorpusStore, out: Path, manifest: StageManifest) -> dict:
    """Write the normalized corpus and its counts; returns the counts."""
    manifest.start("ingest")

    def write_cases(path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for case in store.cases:
                record = {"id": case.id, "role": case.role.value, "text": case.text,
                          "year": case.year}
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    stats = {
        "n_cases": store.n_cases,
        "n_queries": len(store.queries()),
        "n_candidates": len(store.candidates()),
        "n_labeled_queries": len(store.labels),
    }
    manifest.commit("ingest", {
        out / "corpus_normalized.jsonl": write_cases,
        out / "stats.json": lambda path: _write_json(path, stats),
    })
    return stats


def index_stage(
    store: CorpusStore, corpus_path: Path, k1: float, b: float, out: Path,
    manifest: StageManifest,
) -> Bm25Index:
    """Build (or reuse from the cache) the BM25 index and write ``bm25.bin``."""
    manifest.start("index")
    index, digest = _get_index(store, corpus_path, k1, b)
    manifest.commit("index", {out / "bm25.bin": lambda path: save_index(index, path, digest)})
    return index


def embed_stage(
    store: CorpusStore, table: EmbeddingTable, out: Path, manifest: StageManifest
) -> Path:
    """Check that every case and charge has a vector and write ``embeddings.emb1``,
    whose path is returned: the graph stage reads the table from it."""
    manifest.start("embed")
    check_coverage(table, store)
    ids = [c.id for c in store.cases] + [ch.id for ch in store.charges]
    emb_path = out / "embeddings.emb1"
    manifest.commit("embed", {emb_path: lambda path: write_binary_embeddings(table, path, ids)})
    return emb_path


def graph_stage(
    store: CorpusStore, table: EmbeddingTable, index: Bm25Index,
    training: TrainingConfig, out: Path, manifest: StageManifest,
) -> GlobalCaseGraph:
    """Assemble the global case graph and write ``graph.gcg1``."""
    manifest.start("graph")
    gcg = build_global_case_graph(
        store, table, index, k=training.k_edges, delta=training.delta
    )
    manifest.commit("graph", {out / "graph.gcg1": lambda path: save_graph(gcg, path)})
    return gcg


def train_stage(
    store: CorpusStore, gcg: GlobalCaseGraph, index: Bm25Index,
    training: TrainingConfig, out: Path, manifest: StageManifest,
) -> TrainResult:
    """Train the encoder; checkpoints and the epoch log go to ``out/checkpoints``."""
    manifest.start("train")
    ckpt_dir = out / "checkpoints"
    for name in ("checkpoint.gatc", "checkpoint.gatc.json", "checkpoint_last.gatc",
                 "checkpoint_last.gatc.json", "training_log.jsonl"):
        manifest.add_output(ckpt_dir / name)
    manifest.write()  # train() finalizes each checkpoint as it goes
    result = train(
        store, gcg, store.labels, training, checkpoint_dir=ckpt_dir, bm25_index=index
    )
    manifest.commit("train", {})
    return result


def rank_stage(
    store: CorpusStore, index: Bm25Index, gcg: GlobalCaseGraph, params: GatParams,
    prefilter_size: int, final_size: int, out: Path, manifest: StageManifest,
) -> RetrievalRun:
    """Encode the graph, rank candidates per query, write ``run.tsv`` and ``run.json``."""
    manifest.start("rank")
    h, _trace = model_forward(params, gcg.features, gcg.adjacency, train_mode=False)
    reps = representations_from_rows(gcg.node_ids, h)
    run = rank_all(store, index, reps, prefilter_size=prefilter_size, final_size=final_size)
    manifest.commit("rank", {
        out / "run.tsv": lambda path: write_run_tsv(run, path),
        out / "run.json": lambda path: write_run_json(run, path),
    })
    return run


def eval_stage(
    retrieved: dict[str, tuple[str, ...]], labels: dict[str, tuple[str, ...]],
    out: Path, manifest: StageManifest,
) -> EvalReport:
    """Score a run against the labels and write ``report.json``."""
    manifest.start("eval")
    report = evaluate_runs(retrieved, labels)
    manifest.commit("eval", {out / "report.json": lambda path: write_report_json(report, path)})
    return report


# ---------------------------------------------------------------------------
# subcommands: resolve inputs, run one stage, print a summary


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_ingest(args, cfg: dict) -> None:
    store, corpus_path, labels_path = _load_store(args, cfg, need_labels=False)
    out = _out_dir(args, cfg)
    manifest = StageManifest(out, "ingest", args.config, {"corpus": str(corpus_path)})
    manifest.add_input(corpus_path, labels_path)
    _print_json(ingest_stage(store, out, manifest))


def cmd_index(args, cfg: dict) -> None:
    store, corpus_path, labels_path = _load_store(args, cfg, need_labels=False)
    out = _out_dir(args, cfg)
    k1, b = _bm25_params(args, cfg)
    manifest = StageManifest(
        out, "index", args.config, {"corpus": str(corpus_path), "k1": k1, "b": b}
    )
    manifest.add_input(corpus_path, labels_path)
    index = index_stage(store, corpus_path, k1, b, out, manifest)
    _print_json({"documents": len(index.doc_ids), "terms": len(index.postings),
                 "avgdl": index.avgdl})


def cmd_embed(args, cfg: dict) -> None:
    store, corpus_path, _ = _load_store(args, cfg, need_labels=False)
    store, lex_path = _attach_lexicon(args, cfg, store)
    out = _out_dir(args, cfg)
    manifest = StageManifest(
        out, "embed", args.config,
        {"corpus": str(corpus_path), "lexicon": str(lex_path),
         "endpoint": _opt(args, cfg, "endpoint")},
    )
    manifest.add_input(corpus_path, lex_path)
    table = _source_table(args, cfg, store, manifest)
    embed_stage(store, table, out, manifest)
    _print_json({"vectors": store.n_cases + store.n_charges, "dim": table.dim})


def cmd_graph(args, cfg: dict) -> None:
    store, corpus_path, _ = _load_store(args, cfg, need_labels=False)
    store, lex_path = _attach_lexicon(args, cfg, store)
    out = _out_dir(args, cfg)
    training = resolve_section(args, cfg, "training", TrainingConfig)
    manifest = StageManifest(
        out, "graph", args.config,
        {
            "corpus": str(corpus_path),
            "lexicon": str(lex_path),
            "embeddings": str(_require_path(args, cfg, "embeddings")),
            "k_edges": training.k_edges,
            "delta": training.delta,
        },
    )
    manifest.add_input(corpus_path, lex_path)
    table = _file_table(args, cfg, manifest)
    index, _digest = _get_index(store, corpus_path, *_bm25_params(args, cfg))
    gcg = graph_stage(store, table, index, training, out, manifest)
    _print_json({"n_cases": gcg.n_cases, "n_charges": gcg.n_charges,
                 "edges": int(gcg.adjacency.nnz // 2)})


def cmd_train(args, cfg: dict) -> None:
    store, corpus_path, labels_path = _load_store(args, cfg, need_labels=True)
    store, lex_path = _attach_lexicon(args, cfg, store)
    out = _out_dir(args, cfg)
    training = resolve_section(args, cfg, "training", TrainingConfig)
    manifest = StageManifest(
        out, "train", args.config,
        {
            "corpus": str(corpus_path),
            "labels": str(labels_path),
            "lexicon": str(lex_path),
            "training": dataclasses.asdict(training),
        },
    )
    manifest.add_input(corpus_path, labels_path, lex_path)
    index, _digest = _get_index(store, corpus_path, *_bm25_params(args, cfg))
    gcg = _case_graph(args, cfg, store, index, training, manifest)
    result = train_stage(store, gcg, index, training, out, manifest)
    best = result.log[result.best_epoch] if result.log else None
    _print_json({"best_epoch": result.best_epoch,
                 "best_loss": best.mean_loss if best else None,
                 "epochs_run": len(result.log)})


def cmd_rank(args, cfg: dict) -> None:
    store, corpus_path, _ = _load_store(args, cfg, need_labels=False)
    store, lex_path = _attach_lexicon(args, cfg, store)
    out = _out_dir(args, cfg)
    training = resolve_section(args, cfg, "training", TrainingConfig)
    ckpt_path = _require_path(args, cfg, "checkpoint")
    prefilter_size, final_size = _rank_sizes(args, cfg)
    manifest = StageManifest(
        out, "rank", args.config,
        {
            "corpus": str(corpus_path),
            "lexicon": str(lex_path),
            "checkpoint": str(ckpt_path),
            "prefilter_size": prefilter_size,
            "final_size": final_size,
        },
    )
    manifest.add_input(corpus_path, lex_path, ckpt_path)
    index, _digest = _get_index(store, corpus_path, *_bm25_params(args, cfg))
    gcg = _case_graph(args, cfg, store, index, training, manifest)
    params = load_checkpoint(ckpt_path)
    run = rank_stage(store, index, gcg, params, prefilter_size, final_size, out, manifest)
    _print_json({"queries": len(run.results)})


def cmd_eval(args, cfg: dict) -> None:
    run_path = _require_path(args, cfg, "run")
    labels_path = _require_path(args, cfg, "labels")
    retrieved = read_run_tsv(run_path)
    labels = load_labels(labels_path)
    missing = sorted(set(retrieved) - set(labels))
    if missing:
        raise LabelError(f"run queries missing from labels: {missing[:5]}")
    if args.out is None:  # score only; nothing is written
        report = evaluate_runs(retrieved, labels)
    else:
        out = _out_dir(args, cfg)
        manifest = StageManifest(
            out, "eval", args.config, {"run": str(run_path), "labels": str(labels_path)}
        )
        manifest.add_input(run_path, labels_path)
        report = eval_stage(retrieved, labels, out, manifest)
    _print_json(report.to_dict())


def cmd_pipeline(args, cfg: dict) -> None:
    out = _out_dir(args, cfg)
    store, corpus_path, labels_path = _load_store(args, cfg, need_labels=True)
    store, lex_path = _attach_lexicon(args, cfg, store)
    training = resolve_section(args, cfg, "training", TrainingConfig)
    k1, b = _bm25_params(args, cfg)
    prefilter_size, final_size = _rank_sizes(args, cfg)
    manifest = StageManifest(
        out, "pipeline", args.config,
        {
            "corpus": str(corpus_path),
            "labels": str(labels_path),
            "lexicon": str(lex_path),
            "k1": k1,
            "b": b,
            "prefilter_size": prefilter_size,
            "final_size": final_size,
            "training": dataclasses.asdict(training),
        },
    )
    manifest.add_input(corpus_path, labels_path, lex_path)
    table = _source_table(args, cfg, store, manifest)

    index = index_stage(store, corpus_path, k1, b, out, manifest)
    # Read the table and the graph back from their files, as the staged
    # subcommands do, so fused and staged runs give byte-identical artifacts.
    table = read_binary_embeddings(embed_stage(store, table, out, manifest))
    graph_stage(store, table, index, training, out, manifest)
    gcg = load_graph(out / "graph.gcg1")
    result = train_stage(store, gcg, index, training, out, manifest)
    run = rank_stage(store, index, gcg, result.params, prefilter_size, final_size, out,
                     manifest)
    report = eval_stage(run.retrieved(), store.labels, out, manifest)
    _print_json(report.to_dict())


def cmd_synth(args, cfg: dict) -> None:
    spec = resolve_section(args, cfg, "synth", SyntheticSpec)
    out = _out_dir(args, cfg)
    manifest = StageManifest(
        out, "synth", args.config, {"synth": dataclasses.asdict(spec)}
    )
    manifest.start("synth")
    ds = generate(spec)
    paths = write_dataset(ds, out)
    pipeline_cfg = {
        "corpus": str(paths["corpus"].resolve()),
        "labels": str(paths["labels"].resolve()),
        "lexicon": str(paths["lexicon"].resolve()),
        "embeddings": str(paths["embeddings"].resolve()),
        "out_dir": str((out / "pipeline").resolve()),
        "training": {"seed": spec.seed},
    }
    cfg_path = out / "config.json"
    _write_json(cfg_path, pipeline_cfg)
    for p in [*paths.values(), cfg_path]:
        manifest.add_output(p)
    manifest.stop("synth")
    manifest.write()
    _print_json({"cases": ds.store.n_cases, "queries": ds.n_queries,
                 "charges": ds.store.n_charges, "config": str(cfg_path)})


# ---------------------------------------------------------------------------
# argument parsing


def _add_io_flags(p: argparse.ArgumentParser, *names: str) -> None:
    flags = {
        "corpus": "path to corpus JSONL file or directory of text files",
        "labels": "path to labels JSON (query id -> relevant candidate ids)",
        "lexicon": "path to charge lexicon (one name per line, or JSONL)",
        "embeddings": "path to embeddings (JSONL or EMB1 binary)",
        "checkpoint": "path to a trained checkpoint (GATC)",
        "run": "path to a run TSV file",
    }
    for name in names:
        p.add_argument(f"--{name}", default=None, help=flags[name])


def _add_field_flags(p: argparse.ArgumentParser, cls) -> None:
    """One flag per field of the dataclass ``cls``: ``--batch-size`` sets
    ``batch_size``, parsed as the field's ``_field_kind``."""
    for f in dataclasses.fields(cls):
        flag = "--" + _FIELD_FLAGS.get(f.name, f.name).replace("_", "-")
        p.add_argument(flag, dest=f.name, type=_field_kind(f), default=None,
                       help=_FIELD_HELP.get(f.name))


def _add_bm25_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k1", type=float, default=None)
    p.add_argument("--b", type=float, default=None)


def _add_rank_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prefilter-size", dest="prefilter_size", type=int, default=None)
    p.add_argument("--final-size", dest="final_size", type=int, default=None)


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--threads", type=int, default=None,
                        help="cap on worker threads (remote embedding fetches)")
    common.add_argument("-v", "--verbose", action="store_true")

    parser = _Parser(prog="caselink", description=__doc__)
    parser.add_argument("--version", action="version", version=f"caselink {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("ingest", parents=[common], help="validate and normalize a corpus")
    _add_io_flags(p, "corpus", "labels")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("index", parents=[common], help="build the BM25 index cache")
    _add_io_flags(p, "corpus", "labels")
    _add_bm25_flags(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("embed", parents=[common],
                       help="load or fetch embeddings into a binary table")
    _add_io_flags(p, "corpus", "lexicon", "embeddings")
    p.add_argument("--endpoint", default=None, help="remote embedding HTTP endpoint")
    p.add_argument("--dim", type=int, default=None, help="expected embedding dim")
    p.add_argument("--truncation-tokens", dest="truncation_tokens", type=int,
                   default=None)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("graph", parents=[common], help="assemble the global case graph")
    _add_io_flags(p, "corpus", "labels", "lexicon", "embeddings")
    p.add_argument("--dim", type=int, default=None)
    _add_bm25_flags(p)
    _add_field_flags(p, TrainingConfig)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("train", parents=[common], help="train the graph encoder")
    _add_io_flags(p, "corpus", "labels", "lexicon", "embeddings")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--graph", dest="graph_file", default=None,
                   help="pre-built graph file (skips graph assembly)")
    _add_bm25_flags(p)
    _add_field_flags(p, TrainingConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rank", parents=[common], help="rank candidates per query")
    _add_io_flags(p, "corpus", "labels", "lexicon", "embeddings", "checkpoint")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--graph", dest="graph_file", default=None)
    _add_bm25_flags(p)
    _add_field_flags(p, TrainingConfig)
    _add_rank_flags(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("eval", parents=[common], help="score a run file against labels")
    _add_io_flags(p, "run", "labels")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", parents=[common],
                       help="run ingest through eval end-to-end")
    _add_io_flags(p, "corpus", "labels", "lexicon", "embeddings")
    p.add_argument("--endpoint", default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--truncation-tokens", dest="truncation_tokens", type=int,
                   default=None)
    _add_bm25_flags(p)
    _add_field_flags(p, TrainingConfig)
    _add_rank_flags(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a planted-cluster synthetic dataset")
    _add_field_flags(p, SyntheticSpec)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args.func(args, _load_config(args.config))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (CaseLinkError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
