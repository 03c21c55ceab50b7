"""caselink: graph-based legal case retrieval.

Builds a global case graph over case and charge nodes (lexical, topical, and
mention edges), trains a graph-attention encoder with a contrastive objective
plus degree regularization using hand-written backpropagation and Adam, and
ranks candidate precedents with a two-stage lexical-then-dense pipeline.
"""

__version__ = "0.1.0"

from .bm25 import Bm25Index, ScoredPair, bm25_score, build_index, score_all, topk_similar
from .corpus import (
    CaseDocument,
    ChargeEntry,
    CorpusStore,
    Role,
    attach_charges,
    extract_latest_year,
    ingest_corpus,
    load_charge_lexicon,
    load_labels,
    normalize_charge_name,
    tokenize,
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
from .errors import (
    CaseLinkError,
    DimensionError,
    EmptyCorpusError,
    EmptyLexiconError,
    GraphConstructionError,
    IngestError,
    LabelError,
    LabelResolutionError,
    MissingEmbeddingError,
    NumericalError,
    ParseError,
    ProviderError,
    TraceError,
)
from .gat import (
    ForwardTrace,
    GatParams,
    LayerParams,
    backward_gradients,
    init_params,
    load_checkpoint,
    model_forward,
    save_checkpoint,
)
from .graph import (
    GlobalCaseGraph,
    assemble_gcg,
    build_case_case_edges,
    build_case_charge_edges,
    build_charge_charge_edges,
    build_global_case_graph,
    load_graph,
    save_graph,
)
from .retrieval import (
    EvalReport,
    RankResult,
    RetrievalRun,
    bm25_baseline_rank,
    evaluate_runs,
    f_measure,
    rank_all,
    representations_from_rows,
    two_stage_rank,
    write_report_json,
    write_run_json,
    write_run_tsv,
    year_filter,
)
from .synthetic import SyntheticDataset, SyntheticSpec, generate, write_dataset
from .training import (
    AdamState,
    BatchEntry,
    TrainingBatch,
    TrainingConfig,
    TrainResult,
    adam_step,
    degreg_loss,
    hard_negative_pools,
    infonce_loss,
    sample_batch,
    total_loss_and_grads,
    train,
)

__all__ = [
    "__version__",
    # corpus
    "CaseDocument", "ChargeEntry", "CorpusStore", "Role",
    "ingest_corpus", "load_labels", "load_charge_lexicon", "attach_charges",
    "tokenize", "extract_latest_year", "normalize_charge_name",
    # lexical index
    "Bm25Index", "ScoredPair", "build_index", "bm25_score", "score_all",
    "topk_similar",
    # embeddings
    "EmbeddingTable", "ProviderConfig", "RemoteEmbeddingProvider",
    "load_embedding_file", "normalize_table", "check_coverage",
    "read_binary_embeddings", "write_binary_embeddings",
    # graph
    "GlobalCaseGraph", "assemble_gcg", "build_case_case_edges",
    "build_case_charge_edges", "build_charge_charge_edges",
    "build_global_case_graph", "save_graph", "load_graph",
    # encoder
    "GatParams", "LayerParams", "ForwardTrace",
    "init_params", "model_forward",
    "backward_gradients", "save_checkpoint", "load_checkpoint",
    # training
    "TrainingConfig", "TrainingBatch", "BatchEntry", "AdamState", "TrainResult",
    "sample_batch", "hard_negative_pools", "infonce_loss",
    "degreg_loss", "total_loss_and_grads", "adam_step", "train",
    # retrieval
    "RankResult", "RetrievalRun", "EvalReport", "year_filter",
    "two_stage_rank", "bm25_baseline_rank", "rank_all", "evaluate_runs",
    "f_measure", "representations_from_rows",
    "write_run_tsv", "write_run_json", "write_report_json",
    # synthetic corpora
    "SyntheticSpec", "SyntheticDataset", "generate", "write_dataset",
    # errors
    "CaseLinkError", "IngestError", "ParseError", "LabelResolutionError",
    "LabelError", "EmptyCorpusError", "EmptyLexiconError",
    "DimensionError", "MissingEmbeddingError", "GraphConstructionError",
    "NumericalError", "TraceError", "ProviderError",
]
