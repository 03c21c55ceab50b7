"""Command-line interface: one function per pipeline stage, and the subcommands that run them.

Subcommands: ingest | index | embed | graph | train | rank | eval | pipeline | synth.
Each subcommand resolves its inputs, runs its stage functions and prints a
summary. ``graph``, ``train``, ``rank`` and ``pipeline`` read the same
options for the corpus and its vectors (file or endpoint) and run one chain of
stages, ingest -> embed -> index -> graph, and then their own, so each writes
the files of every stage it runs, byte for byte what ``pipeline`` writes. With
``--graph``, ``train`` and ``rank`` read the graph from that file in place of
embed and graph, once it is checked to hold the corpus's nodes in order and to
record this run's corpus and lexicon digests, k1, b, k_edges and delta. Every
input check runs before the first stage that writes, so a run whose check
fails leaves nothing in the output directory. One JSON config file can drive
all subcommands; command-line flags override config values, which override
built-in defaults. Every stage is timed by
:meth:`StageManifest.stage`, which writes a ``manifest.json`` into the output
directory (before the outputs are finalized) recording the resolved config,
sha256 digests of all inputs (each digested once), output paths, the tool
version, and per-stage wall-clock timings.

Every subcommand that needs the BM25 index builds it in its ``index`` stage,
the one source of an index, and writes it to ``bm25.bin`` with the digest of
the corpus it was built from, the one ``graph.gcg1`` records. Exit codes: 0
success, 1 usage error, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import logging
import struct
import sys
import time
from pathlib import Path
from typing import Callable, Iterator

from . import __version__
from .binfile import field_kinds, record
from .bm25 import Bm25Index, build_index, check_parameters, save_index
from .corpus import (
    CorpusStore,
    attach_charges,
    check_labelled,
    decode_object,
    ingest_corpus,
    load_charge_lexicon,
    load_labels,
    read_text,
    replaced,
    write_json,
    write_jsonl,
)
from .embeddings import (
    EmbeddingTable,
    ProviderConfig,
    RemoteEmbeddingProvider,
    load_embedding_file,
    normalize_table,
    round_to_stored,
    write_binary_embeddings,
)
from .errors import (CaseLinkError, DimensionError, DimMismatchError, NumericalError, ParseError,
                     TraceError, located)
from .gat import GatParams, load_checkpoint, model_forward
from .graph import (
    GlobalCaseGraph,
    Provenance,
    build_global_case_graph,
    check_node_order,
    check_provenance,
    load_graph,
    save_graph,
)
from .retrieval import (
    FINAL_SIZE,
    PREFILTER_SIZE,
    EvalReport,
    RetrievalRun,
    check_sizes,
    evaluate_runs,
    rank_all,
    read_run_tsv,
    representations_from_rows,
    write_report_json,
    write_run_json,
    write_run_tsv,
)
from .synthetic import SyntheticSpec, dataset_writers, generate
from .training import (
    CHECKPOINT_FILES,
    TrainingConfig,
    TrainResult,
    check_checkpoint_provenance,
    check_labels,
    train,
)

# Read by nothing here: every run builds its BM25 index. The name stays
# because the benchmark (perfbench/run.py) still clears this variable before
# it measures.
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


class StageManifest:
    """Run record: resolved config, input digests, outputs, timings.

    Each stage rewrites it, through a ``.tmp`` sibling, with its outputs and
    timing before renaming those outputs into place, so a finalized artifact
    never exists without a whole manifest. With ``out_dir`` None the stages
    run and nothing is written.
    """

    def __init__(self, out_dir: Path | None, command: str, config_path, config: dict):
        self.out = None if out_dir is None else Path(out_dir)
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

    def add_input(self, *paths) -> None:
        """Record the digest of each path; ``None`` (an absent optional input) is skipped."""
        for path in paths:
            if path is not None:
                self.data["inputs"][str(path)] = _digest_path(Path(path))

    def digest(self, path) -> str:
        """The digest :meth:`add_input` recorded for ``path``."""
        return self.data["inputs"][str(path)]

    def add_output(self, path) -> None:
        s = str(path)
        if s not in self.data["outputs"]:
            self.data["outputs"].append(s)

    def write(self) -> None:
        with replaced({self.out / "manifest.json": lambda path: write_json(path, self.data)}):
            pass

    def add_time(self, name: str, since: float) -> float:
        """Add the time since the ``time.perf_counter()`` reading ``since`` to
        ``timings_ms[name]``; returns the reading that ends it."""
        now = time.perf_counter()
        timings = self.data["timings_ms"]
        timings[name] = round(timings.get(name, 0.0) + (now - since) * 1e3, 3)
        return now

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[dict[str, Callable[[Path], object]]]:
        """Time the block as stage ``name``; the block fills the yielded dict
        with its outputs, ``file name -> writer``, each name taken in the output
        directory. When the block ends without an error, each output is written
        through its writer to a ``.tmp`` sibling and recorded, the time of the
        block and the writes is added to ``timings_ms[name]`` (so two blocks of
        one name time both), the manifest is written once it records some
        output, and the outputs are renamed into place, all through one
        :func:`corpus.replaced`. The time of that manifest write and of the
        renames is added to the entry once they are done, so the next write
        records it. A block that raises records nothing, and a failed write
        removes the ``.tmp`` files of the stage's outputs."""
        t0 = time.perf_counter()
        names: dict[str, Callable[[Path], object]] = {}
        yield names
        if self.out is None:
            return
        outputs = {self.out / file: write for file, write in names.items()}
        with replaced(outputs):
            for path in outputs:
                self.add_output(path)
            t1 = self.add_time(name, t0)
            if self.data["outputs"]:
                self.write()
        self.add_time(name, t1)


# ---------------------------------------------------------------------------
# config resolution: CLI flag > config file > built-in default


@dataclasses.dataclass(frozen=True)
class RunOptions:
    """Every top-level option, each one config key and, on the subcommands that
    read it, one flag (``out_dir`` is ``--out``). A ``Path`` field holds a path:
    relative in a config file, it is taken relative to that file's directory;
    as a flag, relative to the working directory. Ranking sizes outside
    ``1 <= final_size <= prefilter_size`` and graph settings (the ones
    ``graph.Provenance`` records) that a builder would reject are a ValueError."""

    corpus: Path | None = None
    labels: Path | None = None
    lexicon: Path | None = None
    embeddings: Path | None = None
    graph: Path | None = None
    checkpoint: Path | None = None
    run: Path | None = None
    out_dir: Path = Path("out")
    k1: float = Bm25Index.k1
    b: float = Bm25Index.b
    k_edges: int = 5
    delta: float = 0.9
    prefilter_size: int = PREFILTER_SIZE
    final_size: int = FINAL_SIZE
    dim: int | None = None
    endpoint: str | None = None
    truncation_tokens: int = ProviderConfig.truncation_tokens
    threads: int = ProviderConfig.max_in_flight

    def __post_init__(self):
        check_sizes(self.prefilter_size, self.final_size)
        check_parameters(self.k1, self.b)
        if self.k_edges < 1:
            raise ValueError("k_edges must be >= 1")
        if not 0.0 < self.delta < 1.0:  # written so that NaN fails
            raise ValueError("delta must be in (0, 1)")


_SECTIONS = {"training": TrainingConfig, "synth": SyntheticSpec}

# Config keys accepted for a field name, and the flag spelling of a field
# where it is not the field name.
_ALIASES = {"lambda": "lam", "K_edges": "k_edges"}
_FIELD_FLAGS = {"lam": "lambda", "out_dir": "out"}
_FIELD_HELP = {
    "corpus": "path to corpus JSONL file or directory of text files",
    "labels": "path to labels JSON (query id -> relevant candidate ids)",
    "lexicon": "path to charge lexicon (one name per line, or JSONL)",
    "embeddings": "path to embeddings (JSONL or EMB1 binary)",
    "graph": "pre-built graph file (skips graph assembly)",
    "checkpoint": "path to a trained checkpoint (GATC)",
    "run": "path to a run TSV file",
    "out_dir": "output directory",
    "k1": "BM25 term-frequency saturation",
    "b": "BM25 length normalization",
    "prefilter_size": "BM25 candidates kept for the dense re-rank",
    "final_size": "candidates returned per query",
    "dim": "expected embedding dim (rank takes it from --checkpoint)",
    "endpoint": "remote embedding HTTP endpoint",
    "truncation_tokens": "tokens of each text sent to the endpoint",
    "threads": "cap on worker threads (remote embedding fetches)",
    "lam": "degree-regularization coefficient",
    "tau": "InfoNCE temperature",
    "k_edges": "BM25 neighbors per case for graph edges",
    "delta": "charge-charge cosine threshold",
}


def _flag(name: str) -> str:
    return "--" + _FIELD_FLAGS.get(name, name).replace("_", "-")


def _resolve(args, cls, values, where: str, names=None, config: str | None = None):
    """The dataclass ``cls``, its fields ``names`` (all when None, none when
    empty) set by flag > object ``values`` of the file ``config`` > default.
    All of ``values`` passes :func:`binfile.record`, so each value takes its
    field's type as a flag does (``"lr": 1`` and ``--lr 1`` both give 1.0); a
    config path is relative to the config's directory. An unknown key or an
    invalid value is a ParseError, which names the file when the flags and
    defaults alone would pass."""
    names = field_kinds(cls) if names is None else names
    checked = record(cls, values, ParseError, located(where, path=config), _ALIASES)
    flags = {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}
    merged = {n: Path(config).parent / v if isinstance(v, Path) else v
              for n, v in checked.items() if n in names} | flags
    try:
        return cls(**merged)
    except ValueError as exc:
        error = exc
    try:
        cls(**flags)
    except ValueError:
        config = None  # the flags and defaults fail alone: the file is not to blame
    raise ParseError(f"invalid {where}: {error}", path=config) from error


# ---------------------------------------------------------------------------
# input resolution shared by the subcommands; each file read is recorded as an
# input of the manifest


def _require(opts: RunOptions, name: str) -> Path:
    value = getattr(opts, name)
    if value is None:
        raise UsageError(f"{_flag(name)} is required (flag or config key {name!r})")
    return value


def _load_store(opts: RunOptions, manifest: StageManifest,
                training: TrainingConfig | None = None, lexicon: bool = True) -> CorpusStore:
    """The corpus, with roles from the labels when given and, with ``lexicon``,
    the charges of the lexicon attached. Reading them is timed as ``ingest``.
    With ``training``, labels without a query, or a query without a positive
    or with fewer easy negatives than ``training`` draws, fail here, before
    any stage writes (:func:`training.check_labels`)."""
    corpus = _require(opts, "corpus")
    if training is not None:
        _require(opts, "labels")
    with manifest.stage("ingest"):
        store = ingest_corpus(corpus, opts.labels)
        if training is not None:
            check_labels(store.labels, [c.id for c in store.candidates()], training.n_easy_neg)
        manifest.add_input(corpus, opts.labels)
        if lexicon:
            store = attach_charges(store, load_charge_lexicon(_require(opts, "lexicon")))
            manifest.add_input(opts.lexicon)
    return store


def _provenance(opts: RunOptions, manifest: StageManifest) -> Provenance:
    """What the graph of this run is built from: the digests of the corpus and
    the lexicon the ingest recorded, and the graph settings."""
    return Provenance(manifest.digest(opts.corpus), manifest.digest(opts.lexicon),
                      opts.k1, opts.b, opts.k_edges, opts.delta)


# ---------------------------------------------------------------------------
# stages: in-memory inputs -> artifacts in ``manifest.out`` plus what the next
# stage needs


def ingest_stage(store: CorpusStore, manifest: StageManifest) -> dict:
    """Write the normalized corpus and its counts; returns the counts. Its
    time adds to the ``ingest`` entry of :func:`_load_store`, so that entry
    covers the read as well as the write."""

    with manifest.stage("ingest") as out:
        stats = {
            "n_cases": store.n_cases,
            "n_queries": len(store.queries()),
            "n_candidates": len(store.candidates()),
            "n_labeled_queries": len(store.labels),
        }
        out["corpus_normalized.jsonl"] = lambda path: write_jsonl(path, (
            {"id": c.id, "role": c.role.value, "text": c.text, "year": c.year}
            for c in store.cases))
        out["stats.json"] = lambda path: write_json(path, stats)
    return stats


def index_stage(store: CorpusStore, opts: RunOptions, manifest: StageManifest) -> Bm25Index:
    """Build the BM25 index of ``opts.corpus`` with ``opts.k1``/``opts.b`` and
    write it to ``bm25.bin`` with the corpus digest the ingest recorded."""
    with manifest.stage("index") as out:
        index = build_index(store, k1=opts.k1, b=opts.b)
        out["bm25.bin"] = lambda path: save_index(index, path, manifest.digest(opts.corpus))
    return index


def embed_stage(store: CorpusStore, opts: RunOptions, manifest: StageManifest) -> EmbeddingTable:
    """Read or fetch the node vectors and write them in node order to
    ``embeddings.emb1`` (a node without one fails before the file is opened);
    returns them. They are fetched from ``endpoint`` when one is configured,
    else read from ``--embeddings``, then L2-normalized and rounded to the
    precision ``embeddings.emb1`` and ``graph.gcg1`` store."""
    with manifest.stage("embed") as out:
        if opts.endpoint:
            provider = RemoteEmbeddingProvider(ProviderConfig(
                opts.endpoint, opts.truncation_tokens, max_in_flight=opts.threads),
                expected_dim=opts.dim)
            texts = {c.id: c.text for c in store.cases} | {ch.id: ch.name for ch in store.charges}
            table = provider.fetch_many((node_id, texts[node_id]) for node_id in store.node_ids)
        else:
            table = load_embedding_file(_require(opts, "embeddings"), expected_dim=opts.dim)
            manifest.add_input(opts.embeddings)
        table = round_to_stored(normalize_table(table))
        out["embeddings.emb1"] = lambda path: write_binary_embeddings(table, path, store.node_ids)
    return table


def graph_stage(
    store: CorpusStore, table: EmbeddingTable, index: Bm25Index,
    built_from: Provenance, manifest: StageManifest,
) -> GlobalCaseGraph:
    """Assemble the global case graph with ``built_from``'s ``k_edges`` and
    ``delta``, recording ``built_from`` as its provenance, and write ``graph.gcg1``."""
    with manifest.stage("graph") as out:
        gcg = dataclasses.replace(build_global_case_graph(
            store, table, index, k=built_from.k_edges, delta=built_from.delta
        ), provenance=built_from)
        out["graph.gcg1"] = lambda path: save_graph(gcg, path)
    return gcg


def train_stage(
    store: CorpusStore, gcg: GlobalCaseGraph, index: Bm25Index,
    training: TrainingConfig, manifest: StageManifest,
) -> TrainResult:
    """Train the encoder; checkpoints and the epoch log go to ``out/checkpoints``.
    ``train()`` leaves every file the manifest lists, even when the run
    diverges; the labels it checks passed the ingest (:func:`_load_store`)."""
    with manifest.stage("train"):
        ckpt_dir = manifest.out / "checkpoints"
        for name in CHECKPOINT_FILES:
            manifest.add_output(ckpt_dir / name)
        manifest.write()  # train() finalizes each checkpoint as it goes
        result = train(store, gcg, store.labels, training, index, checkpoint_dir=ckpt_dir)
    return result


def rank_stage(
    store: CorpusStore, index: Bm25Index, gcg: GlobalCaseGraph, params: GatParams,
    opts: RunOptions, manifest: StageManifest,
) -> RetrievalRun:
    """Encode the graph, rank candidates per query, write ``run.tsv`` and ``run.json``."""
    with manifest.stage("rank") as out:
        h, _trace = model_forward(params, gcg.features, gcg.adjacency)
        reps = representations_from_rows(gcg.node_ids, h)
        run = rank_all(store, index, reps, prefilter_size=opts.prefilter_size,
                       final_size=opts.final_size)
        out["run.tsv"] = lambda path: write_run_tsv(run, path)
        out["run.json"] = lambda path: write_run_json(run, path)
    return run


def eval_stage(
    retrieved: dict[str, tuple[str, ...]], labels: dict[str, tuple[str, ...]],
    manifest: StageManifest,
) -> EvalReport:
    """Score a run against the labels and write ``report.json``."""
    with manifest.stage("eval") as out:
        report = evaluate_runs(retrieved, labels)
        out["report.json"] = lambda path: write_report_json(report, path)
    return report


# ---------------------------------------------------------------------------
# subcommands: resolve inputs, run the stages, print a summary


def _case_chain(
    store: CorpusStore, opts: RunOptions, manifest: StageManifest,
) -> tuple[Bm25Index, GlobalCaseGraph]:
    """``pipeline``'s stages from the ingested ``store`` up to the graph, the
    ones every subcommand from ``graph`` to ``pipeline`` runs after ingest:
    embed, index and graph; with ``--graph``, a ``graph`` stage that reads that
    file and checks that it holds the corpus's nodes, was built as this run
    builds it and, with ``opts.dim``, has features of that dim, then index.
    The embed stage checks each vector it reads or fetches against ``opts.dim``."""
    built_from = _provenance(opts, manifest)
    if opts.graph is None:
        table = embed_stage(store, opts, manifest)
        index = index_stage(store, opts, manifest)
        return index, graph_stage(store, table, index, built_from, manifest)
    with manifest.stage("graph"):
        gcg = load_graph(opts.graph)
        check_node_order(gcg, store, opts.graph)
        check_provenance(gcg, built_from, opts.graph)
        if opts.dim not in (None, gcg.dim):
            raise DimensionError(f"the graph's features are {gcg.dim}-dim, this run expects "
                                 f"{opts.dim}-dim", path=opts.graph)
        manifest.add_input(opts.graph)
    return index_stage(store, opts, manifest), gcg


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_ingest(opts: RunOptions, manifest: StageManifest) -> None:
    _print_json(ingest_stage(_load_store(opts, manifest, lexicon=False), manifest))


def cmd_index(opts: RunOptions, manifest: StageManifest) -> None:
    index = index_stage(_load_store(opts, manifest, lexicon=False), opts, manifest)
    _print_json({"documents": len(index.doc_ids), "terms": len(index.terms),
                 "avgdl": index.avgdl})


def cmd_embed(opts: RunOptions, manifest: StageManifest) -> None:
    store = _load_store(opts, manifest)
    table = embed_stage(store, opts, manifest)
    _print_json({"vectors": store.n_cases + store.n_charges, "dim": table.dim})


def cmd_graph(opts: RunOptions, manifest: StageManifest) -> None:
    _index, gcg = _case_chain(_load_store(opts, manifest), opts, manifest)
    _print_json({"n_cases": gcg.n_cases, "n_charges": gcg.n_charges,
                 "edges": int(gcg.adjacency.nnz // 2)})


def cmd_train(opts: RunOptions, manifest: StageManifest, training: TrainingConfig) -> None:
    store = _load_store(opts, manifest, training)
    index, gcg = _case_chain(store, opts, manifest)
    result = train_stage(store, gcg, index, training, manifest)
    best = result.log[result.best_epoch] if result.log else None
    _print_json({"best_epoch": result.best_epoch,
                 "best_loss": best.mean_loss if best else None,
                 "epochs_run": len(result.log)})


def cmd_rank(opts: RunOptions, manifest: StageManifest) -> None:
    ckpt_path = _require(opts, "checkpoint")
    store = _load_store(opts, manifest)
    # checked before the first stage writes; rank_stage adds its own time to this entry
    with manifest.stage("rank"):
        params = load_checkpoint(ckpt_path)
        check_checkpoint_provenance(ckpt_path, _provenance(opts, manifest))
        if opts.dim not in (None, params.dims[0]):
            raise TraceError(f"the checkpoint takes {params.dims[0]}-dim features, --dim is "
                             f"{opts.dim}", path=ckpt_path)
        manifest.add_input(ckpt_path)
    # the vectors or the graph read are checked against the checkpoint's input dim
    try:
        index, gcg = _case_chain(store, dataclasses.replace(opts, dim=params.dims[0]), manifest)
    except DimMismatchError as exc:
        raise DimMismatchError(f"{exc.message} (the input dim of the checkpoint {ckpt_path})",
                               exc.line_number, exc.path) from None
    run = rank_stage(store, index, gcg, params, opts, manifest)
    _print_json({"queries": len(run.results)})


def cmd_eval(opts: RunOptions, manifest: StageManifest) -> None:
    """Score ``--run`` against ``--labels``; ``report.json`` is written only
    when ``--out`` is given (``manifest`` writes nothing otherwise)."""
    run_path = _require(opts, "run")
    labels_path = _require(opts, "labels")
    with manifest.stage("eval"):  # eval_stage adds its own time to this entry
        retrieved = read_run_tsv(run_path)
        labels = load_labels(labels_path)
        check_labelled(retrieved, labels, labels_path, run_path)
        manifest.add_input(run_path, labels_path)
    _print_json(eval_stage(retrieved, labels, manifest).to_dict())


def cmd_pipeline(opts: RunOptions, manifest: StageManifest, training: TrainingConfig) -> None:
    store = _load_store(opts, manifest, training)
    check_labelled((q.id for q in store.queries()), store.labels, opts.labels, opts.corpus)
    index, gcg = _case_chain(store, opts, manifest)
    result = train_stage(store, gcg, index, training, manifest)
    run = rank_stage(store, index, gcg, result.params, opts, manifest)
    report = eval_stage(run.retrieved(), store.labels, manifest)
    _print_json(report.to_dict())


def cmd_synth(opts: RunOptions, manifest: StageManifest, spec: SyntheticSpec) -> None:
    cfg_path = opts.out_dir / "config.json"
    with manifest.stage("synth") as out:
        ds = generate(spec)
        out.update(dataset_writers(ds))
        pipeline_cfg = {Path(name).stem: str((opts.out_dir / name).resolve()) for name in out}
        pipeline_cfg |= {"out_dir": str((opts.out_dir / "pipeline").resolve()),
                         "training": {"seed": spec.seed}}
        out[cfg_path.name] = lambda path: write_json(path, pipeline_cfg)
    _print_json({"cases": ds.store.n_cases, "queries": ds.n_queries,
                 "charges": ds.store.n_charges, "config": str(cfg_path)})


# ---------------------------------------------------------------------------
# the command table: everything a subcommand reads, declared once


@dataclasses.dataclass(frozen=True)
class Command:
    """A subcommand: the function it runs, its help line, the ``RunOptions``
    it reads and the config sections it reads. Each option and each section
    field is one flag, and the manifest ``config`` records all of them.
    ``out_optional`` commands write nothing unless ``--out`` is given."""

    func: Callable
    help: str
    options: tuple[str, ...]
    sections: tuple[str, ...] = ()
    out_optional: bool = False


# The corpus and its vectors, read or fetched, by every stage from graph to pipeline.
_CASE_INPUTS = ("corpus", "labels", "lexicon", "embeddings", "dim", "endpoint",
                "truncation_tokens", "threads")
_GRAPH_SETTINGS = ("k1", "b", "k_edges", "delta")  # what graph.Provenance records
COMMANDS = {
    "ingest": Command(cmd_ingest, "validate and normalize a corpus",
                      ("corpus", "labels", "out_dir")),
    "index": Command(cmd_index, "build the BM25 index", ("corpus", "k1", "b", "out_dir")),
    "embed": Command(cmd_embed, "load or fetch embeddings into a binary table",
                     ("corpus", "lexicon", "embeddings", "dim", "endpoint", "truncation_tokens",
                      "threads", "out_dir")),
    "graph": Command(cmd_graph, "assemble the global case graph",
                     (*_CASE_INPUTS, *_GRAPH_SETTINGS, "out_dir")),
    "train": Command(cmd_train, "train the graph encoder",
                     (*_CASE_INPUTS, "graph", *_GRAPH_SETTINGS, "out_dir"), ("training",)),
    "rank": Command(cmd_rank, "rank candidates per query",
                    (*_CASE_INPUTS, "graph", "checkpoint", *_GRAPH_SETTINGS, "prefilter_size",
                     "final_size", "out_dir")),
    "eval": Command(cmd_eval, "score a run file against labels",
                    ("run", "labels", "out_dir"), out_optional=True),
    "pipeline": Command(cmd_pipeline, "run ingest through eval end-to-end",
                        (*_CASE_INPUTS, *_GRAPH_SETTINGS, "prefilter_size", "final_size",
                         "out_dir"),
                        ("training",)),
    "synth": Command(cmd_synth, "generate a planted-cluster synthetic dataset",
                     ("out_dir",), ("synth",)),
}


def _add_field_flags(p: argparse.ArgumentParser, cls, names=None) -> None:
    """One flag per field of the dataclass ``cls`` (only ``names``, in that
    order, when given): ``--batch-size`` sets ``batch_size``, parsed as the
    field's kind (int, float, str or Path)."""
    kinds = field_kinds(cls)
    for name in names or kinds:
        p.add_argument(_flag(name), dest=name, type=kinds[name][0], default=None,
                       help=_FIELD_HELP.get(name))


@functools.cache
def build_parser() -> _Parser:
    """The one parser of every subcommand, built on first use: argparse makes a
    help formatter per flag, which costs milliseconds a call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("-v", "--verbose", action="store_true")

    parser = _Parser(prog="caselink", description=__doc__)
    parser.add_argument("--version", action="version", version=f"caselink {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        _add_field_flags(p, RunOptions, command.options)
        for section in command.sections:
            _add_field_flags(p, _SECTIONS[section])
    return parser


def _run(args, started: float) -> None:
    """Resolve the subcommand's options and every config section (one it does
    not read is type-checked only), then run it. The time since ``started``,
    the ``time.perf_counter()`` reading taken as the call began, is the
    manifest's ``resolve`` entry: parsing the arguments and resolving the config."""
    command = COMMANDS[args.command]
    cfg = decode_object(read_text(args.config), args.config) if args.config is not None else {}
    section_values = {s: cfg.pop(s, {}) for s in _SECTIONS}
    opts = _resolve(args, RunOptions, cfg, "config", command.options, args.config)
    sections = {s: _resolve(args, cls, section_values[s], f"{s} config",
                            None if s in command.sections else (), args.config)
                for s, cls in _SECTIONS.items()}
    values = {name: getattr(opts, name) for name in command.options}
    config = {name: str(v) if isinstance(v, Path) else v for name, v in values.items()}
    config |= {s: dataclasses.asdict(sections[s]) for s in command.sections}
    out_dir = None if command.out_optional and args.out_dir is None else opts.out_dir
    manifest = StageManifest(out_dir, args.command, args.config, config)
    manifest.add_time("resolve", started)
    command.func(opts, manifest, *(sections[s] for s in command.sections))


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
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
        _run(args, started)
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
