"""The package root exports only ``__version__``; every other name is imported
from its module, as the README's library example does. Every file the package
writes is renamed into place by ``corpus.replaced`` alone, and a run's store is
built by ``corpus.ingest_corpus`` alone."""

from pathlib import Path

import caselink

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_root_exports_only_the_version():
    assert caselink.__all__ == ["__version__"]
    assert caselink.__version__


def test_every_name_in_all_resolves():
    missing = [name for name in caselink.__all__ if not hasattr(caselink, name)]
    assert missing == []
    assert len(set(caselink.__all__)) == len(caselink.__all__)


def test_star_import_works():
    namespace: dict = {}
    exec("from caselink import *", namespace)
    assert set(caselink.__all__) <= set(namespace)


def test_the_readme_library_example_runs(capsys):
    """The first Python block after "## Using the library", run as written."""
    section = README.read_text("utf-8").split("\n## Using the library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, f"{README}: Using the library", "exec"), {})
    assert capsys.readouterr().out.startswith("EvalReport(")


def test_files_are_renamed_into_place_in_corpus_replaced_only():
    package = Path(caselink.__file__).parent
    calls = {p.name: p.read_text("utf-8").count("os.replace(") for p in package.glob("*.py")}
    assert {name: n for name, n in calls.items() if n} == {"corpus.py": 1}


def test_a_store_is_built_in_ingest_corpus_and_the_synthetic_generator_only():
    package = Path(caselink.__file__).parent
    calls = {p.name: p.read_text("utf-8").count("CorpusStore(") for p in package.glob("*.py")}
    assert {name: n for name, n in calls.items() if n} == {"corpus.py": 1, "synthetic.py": 1}
    ingest = (package / "corpus.py").read_text("utf-8").split("\ndef ingest_corpus(", 1)[1]
    assert "CorpusStore(" in ingest.split("\ndef ", 1)[0]
