"""caselink: graph-based legal case retrieval.

Builds a global case graph over case and charge nodes (lexical, topical, and
mention edges), trains a graph-attention encoder with a contrastive objective
plus degree regularization using hand-written backpropagation and Adam, and
ranks candidate precedents with a two-stage lexical-then-dense pipeline.
Every name is imported from its module (``caselink.training``, ``caselink.cli``, ...).
"""

__version__ = "0.1.0"
__all__ = ["__version__"]

# Read only by perfbench/tests/test_tracer.py::test_install_wraps_every_binding_and_restores_them;
# ROADMAP item 9 retargets that test to caselink.retrieval and deletes this binding.
from .retrieval import evaluate_runs  # noqa: E402,F401
