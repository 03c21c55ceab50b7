"""Command-line interface: stages, manifests, config precedence, exit codes."""

import dataclasses
import errno
import json
import os
import struct
import time
from pathlib import Path

import pytest

from caselink.cli import main


def run_synth(out_dir, seed=1):
    code = main(
        [
            "synth",
            "--out",
            str(out_dir),
            "--n-clusters",
            "2",
            "--candidates-per-cluster",
            "6",
            "--queries-per-cluster",
            "2",
            "--relevant-per-query",
            "3",
            "--dim",
            "8",
            "--seed",
            str(seed),
        ]
    )
    assert code == 0
    return out_dir / "config.json"


@pytest.fixture
def dataset(tmp_path):
    config_path = run_synth(tmp_path / "data")
    return tmp_path, config_path


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def fail_partway(write, path):
    """Run ``write``, which writes ``path``, then cut the file short and fail
    as a full disk does."""
    write()
    Path(path).write_bytes(Path(path).read_bytes()[:40])
    raise OSError(errno.ENOSPC, "No space left on device", str(path))


def written(out_dir):
    """The files a run left in ``out_dir``, sorted; none when it does not exist."""
    return sorted(p.relative_to(out_dir).as_posix() for p in Path(out_dir).rglob("*")
                  if p.is_file())


def slowed(step):
    """``step``, taking 50 ms longer."""
    def wrapped(*args, **kwargs):
        time.sleep(0.05)
        return step(*args, **kwargs)
    return wrapped


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["ingest", "--bogus-flag", "x"]) == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0

    @pytest.mark.parametrize("argv", [["rank", "--lr", "0.5"], ["graph", "--epochs", "3"]],
                             ids=["rank --lr", "graph --epochs"])
    def test_training_flags_are_usage_errors_where_no_training_runs(self, capsys, argv):
        assert main(argv) == 1
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    def test_a_required_input_given_nowhere_is_usage_error_naming_it(self, tmp_path, capsys):
        assert main(["graph", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == \
            "error: --corpus is required (flag or config key 'corpus')\n"


class TestRunOptions:
    def test_graph_settings_defaults(self):
        from caselink.cli import RunOptions

        opts = RunOptions()
        assert (opts.k1, opts.b, opts.k_edges, opts.delta) == (1.2, 0.75, 5, 0.9)

    @pytest.mark.parametrize("field, value", [("k_edges", 0), ("delta", 1.5), ("delta", 0.0),
                                              ("delta", float("nan"))])
    def test_graph_settings_out_of_range_rejected(self, field, value):
        from caselink.cli import RunOptions

        with pytest.raises(ValueError, match=field):
            RunOptions(**{field: value})
        RunOptions(**{field: {"k_edges": 1, "delta": 0.5}[field]})


class TestSynth:
    def test_writes_dataset_and_config(self, tmp_path):
        config_path = run_synth(tmp_path / "data")
        assert config_path.exists()
        cfg = json.loads(config_path.read_text())
        for key in ("corpus", "labels", "lexicon", "embeddings", "out_dir"):
            assert key in cfg
        corpus_lines = (
            (tmp_path / "data" / "corpus.jsonl").read_text().strip().splitlines()
        )
        assert len(corpus_lines) == 2 * (6 + 2)
        labels = json.loads((tmp_path / "data" / "labels.json").read_text())
        assert len(labels) == 4

    def test_a_failed_dataset_write_leaves_no_dataset_file_and_no_manifest(
            self, tmp_path, monkeypatch, capsys):
        from caselink import synthetic

        write_jsonl = synthetic.write_jsonl

        def third_file_fails(path, records):
            if Path(path).name.startswith("lexicon.jsonl"):
                fail_partway(lambda: write_jsonl(path, records), path)
            write_jsonl(path, records)

        monkeypatch.setattr(synthetic, "write_jsonl", third_file_fails)
        assert main(["synth", "--out", str(tmp_path / "s"), "--n-clusters", "2"]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert list((tmp_path / "s").iterdir()) == []

    def test_invalid_value_is_data_error(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "s"), "--n-clusters", "0"]) == 2
        assert "n_clusters" in capsys.readouterr().err

    def test_unknown_config_key_is_data_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"synth": {"n_clustrs": 3}}))
        assert main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 2
        assert "'n_clustrs'" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_deterministic_given_seed(self, tmp_path):
        run_synth(tmp_path / "a", seed=7)
        run_synth(tmp_path / "b", seed=7)
        assert (tmp_path / "a" / "corpus.jsonl").read_bytes() == (
            tmp_path / "b" / "corpus.jsonl"
        ).read_bytes()


class TestStages:
    def test_stage_by_stage_pipeline(self, dataset, capsys):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        data = tmp_path / "data"

        ingest_out = tmp_path / "s1"
        assert (
            main(
                [
                    "ingest",
                    "--corpus",
                    cfg["corpus"],
                    "--labels",
                    cfg["labels"],
                    "--out",
                    str(ingest_out),
                ]
            )
            == 0
        )
        assert (ingest_out / "corpus_normalized.jsonl").exists()
        stats = json.loads((ingest_out / "stats.json").read_text())
        assert stats["n_cases"] == 16

        index_out = tmp_path / "s2"
        assert (
            main(["index", "--corpus", cfg["corpus"], "--out", str(index_out)]) == 0
        )
        assert (index_out / "bm25.bin").read_bytes()[:4] == b"BM25"

        embed_out = tmp_path / "s3"
        assert (
            main(
                [
                    "embed",
                    "--corpus",
                    cfg["corpus"],
                    "--lexicon",
                    cfg["lexicon"],
                    "--embeddings",
                    cfg["embeddings"],
                    "--out",
                    str(embed_out),
                ]
            )
            == 0
        )
        emb_path = embed_out / "embeddings.emb1"
        assert emb_path.read_bytes()[:4] == b"EMB1"

        graph_out = tmp_path / "s4"
        assert (
            main(
                [
                    "graph",
                    "--corpus",
                    cfg["corpus"],
                    "--lexicon",
                    cfg["lexicon"],
                    "--embeddings",
                    str(emb_path),
                    "--out",
                    str(graph_out),
                    "--k-edges",
                    "3",
                ]
            )
            == 0
        )
        graph_path = graph_out / "graph.gcg1"
        assert graph_path.read_bytes()[:4] == b"GCG1"

        train_out = tmp_path / "s5"
        assert (
            main(
                [
                    "train",
                    "--corpus",
                    cfg["corpus"],
                    "--labels",
                    cfg["labels"],
                    "--lexicon",
                    cfg["lexicon"],
                    "--graph",
                    str(graph_path),
                    "--k-edges",
                    "3",
                    "--out",
                    str(train_out),
                    "--epochs",
                    "2",
                    "--batch-size",
                    "8",
                ]
            )
            == 0
        )
        ckpt = train_out / "checkpoints" / "checkpoint.gatc"
        assert ckpt.read_bytes()[:4] == b"GATC"
        assert (train_out / "checkpoints" / "training_log.jsonl").exists()

        rank_out = tmp_path / "s6"
        assert (
            main(
                [
                    "rank",
                    "--corpus",
                    cfg["corpus"],
                    "--labels",
                    cfg["labels"],
                    "--lexicon",
                    cfg["lexicon"],
                    "--graph",
                    str(graph_path),
                    "--k-edges",
                    "3",
                    "--checkpoint",
                    str(ckpt),
                    "--out",
                    str(rank_out),
                ]
            )
            == 0
        )
        run_tsv = rank_out / "run.tsv"
        assert run_tsv.exists()
        run_map = json.loads((rank_out / "run.json").read_text())
        assert len(run_map) == 4
        for ids in run_map.values():
            assert 1 <= len(ids) <= 5

        eval_out = tmp_path / "s7"
        capsys.readouterr()
        assert (
            main(
                [
                    "eval",
                    "--run",
                    str(run_tsv),
                    "--labels",
                    cfg["labels"],
                    "--out",
                    str(eval_out),
                ]
            )
            == 0
        )
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads((eval_out / "report.json").read_text())
        assert printed == on_disk
        assert set(on_disk) == {
            "precision",
            "recall",
            "f1",
            "retrieved",
            "relevant",
            "correct",
        }

        # every stage wrote a manifest with digests and timings
        for stage_dir, command in [
            (ingest_out, "ingest"),
            (index_out, "index"),
            (embed_out, "embed"),
            (graph_out, "graph"),
            (train_out, "train"),
            (rank_out, "rank"),
            (eval_out, "eval"),
        ]:
            manifest = read_manifest(stage_dir)
            assert manifest["command"] == command
            assert manifest["tool"] == "caselink"
            for digest in manifest["inputs"].values():
                assert len(digest) == 64
            assert manifest["outputs"]
            assert command in manifest["timings_ms"]
            assert manifest["timings_ms"][command] >= 0.0

        # the checkpoint and graph record k_edges 3, so a run that would build with 4 fails
        capsys.readouterr()
        assert main(["rank", "--corpus", cfg["corpus"], "--lexicon", cfg["lexicon"],
                     "--graph", str(graph_path), "--k-edges", "4", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "s8")]) == 2
        assert "built with k_edges 3, this run has 4" in capsys.readouterr().err


class TestPipeline:
    def test_config_driven_run(self, dataset, capsys):
        tmp_path, config_path = dataset
        assert main(["pipeline", "--config", str(config_path), "--epochs", "2"]) == 0
        out_dir = json.loads(config_path.read_text())["out_dir"]
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(report) == {
            "precision",
            "recall",
            "f1",
            "retrieved",
            "relevant",
            "correct",
        }
        on_disk = json.loads((tmp_path / "data" / "pipeline" / "report.json").read_text())
        assert on_disk == report
        manifest = read_manifest(tmp_path / "data" / "pipeline")
        assert manifest["command"] == "pipeline"
        for stage in ("index", "embed", "graph", "train", "rank", "eval"):
            assert stage in manifest["timings_ms"]


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, dataset):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        cfg["K_edges"] = 3
        cfg["training"] = {"epochs": 2, "lambda": 0.005, "hidden_dim": None}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))

        out1 = tmp_path / "p1"
        assert (
            main(
                [
                    "train",
                    "--config",
                    str(cfg_path),
                    "--out",
                    str(out1),
                    "--batch-size",
                    "8",
                ]
            )
            == 0
        )
        assert read_manifest(out1)["config"]["k_edges"] == 3  # via "K_edges" alias
        resolved = read_manifest(out1)["config"]["training"]
        assert resolved["epochs"] == 2  # from config file
        assert resolved["lam"] == 0.005  # via "lambda" alias
        assert resolved["dropout"] == 0.2  # untouched default
        assert resolved["hidden_dim"] is None  # null accepted for an optional field

        out2 = tmp_path / "p2"
        assert (
            main(
                [
                    "train",
                    "--config",
                    str(cfg_path),
                    "--out",
                    str(out2),
                    "--epochs",
                    "3",
                    "--batch-size",
                    "8",
                ]
            )
            == 0
        )
        assert read_manifest(out2)["config"]["training"]["epochs"] == 3  # flag wins

    def test_unknown_training_key_rejected(self, dataset):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        cfg["training"] = {"learning_rate_typo": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("key, value", [("lr", "fast"), ("epochs", 2.5), ("seed", True)])
    def test_mistyped_training_value_is_data_error(self, dataset, capsys, key, value):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        cfg["training"] = {key: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("prefiltr_size", 20), ("prefilter_size", True),
                                            ("final_size", 2.7), ("k1", "2")])
    def test_unknown_or_mistyped_top_level_key_is_data_error(self, dataset, capsys, key,
                                                              value):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        cfg[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, value", [("hidden_dim", 0), ("hidden_dim", -3),
                                            ("k_edges", 0)])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_encoder_size_below_one_is_data_error_before_any_stage(self, dataset, capsys,
                                                                   key, value, form):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        argv = ["pipeline", "--out", str(tmp_path / "x"), "--epochs", "1"]
        if form == "flag":
            argv += [f"--{key.replace('_', '-')}", str(value)]
        elif key == "k_edges":  # a top-level key
            cfg[key] = value
        else:
            cfg["training"] = {key: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([*argv, "--config", str(cfg_path)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("section, key, shown", [
        (None, "final_size", "final_size=0"), ("training", "hidden_dim", "hidden_dim")])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_out_of_range_value_names_the_config_file_only_when_it_came_from_there(
            self, dataset, capsys, section, key, shown, form):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        argv = ["pipeline", "--out", str(tmp_path / "x"), "--epochs", "1"]
        if form == "flag":
            argv += [f"--{key.replace('_', '-')}", "0"]
        elif section is None:
            cfg[key] = 0
        else:
            cfg[section] = {key: 0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([*argv, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert shown in err
        assert err.startswith(f"data error: {cfg_path}: invalid ") == (form == "config")
        assert (str(cfg_path) in err) == (form == "config")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, flag", [("lr", "--lr"), ("tau", "--tau"),
                                           ("weight_decay", "--weight-decay"),
                                           ("lam", "--lambda")])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_nan_training_rate_is_data_error_before_any_stage(self, dataset, capsys, key,
                                                              flag, form):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        argv = ["pipeline", "--out", str(tmp_path / "x"), "--epochs", "1"]
        if form == "flag":
            argv += [flag, "nan"]
        else:
            cfg["training"] = {key: float("nan")}  # written as the JSON literal NaN
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([*argv, "--config", str(cfg_path)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_non_finite_k1_is_data_error_before_any_stage(self, dataset, capsys, value, form):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        argv = ["pipeline", "--out", str(tmp_path / "x"), "--epochs", "0"]
        if form == "flag":
            argv += ["--k1", value]
        else:
            cfg["k1"] = float(value)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([*argv, "--config", str(cfg_path)]) == 2
        assert "k1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_int_in_the_training_section_gives_the_float_a_flag_gives(self, dataset):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        cfg["training"] = {"lr": 1, "tau": 1, "dropout": 0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        common = ["train", "--config", str(cfg_path), "--epochs", "1"]
        assert main([*common, "--out", str(tmp_path / "c")]) == 0
        cfg["training"] = {}
        cfg_path.write_text(json.dumps(cfg))
        assert main([*common, "--out", str(tmp_path / "f"), "--lr", "1", "--tau", "1",
                     "--dropout", "0"]) == 0
        from_config = read_manifest(tmp_path / "c")["config"]
        from_flags = read_manifest(tmp_path / "f")["config"]
        assert json.dumps(from_config["training"]["lr"]) == "1.0"
        del from_config["out_dir"], from_flags["out_dir"]
        assert from_config == from_flags
        sidecar = Path("checkpoints") / "checkpoint.gatc.json"
        assert (tmp_path / "c" / sidecar).read_bytes() == (tmp_path / "f" / sidecar).read_bytes()

    @pytest.mark.parametrize("command", ["ingest", "graph", "rank", "pipeline"])
    def test_every_section_is_checked_on_every_subcommand(self, dataset, capsys, command):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        cfg["training"] = {"k_edges": 3}  # k_edges is a top-level key
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == \
            f"data error: {cfg_path}: training config has an unknown key 'k_edges'\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_nan_delta_is_data_error_before_any_stage(self, dataset, capsys, form):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        argv = ["graph", "--out", str(tmp_path / "x")]
        if form == "flag":
            argv += ["--delta", "nan"]
        else:
            cfg["delta"] = float("nan")  # written as the JSON literal NaN
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([*argv, "--config", str(cfg_path)]) == 2
        assert "delta must be in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_malformed_config_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["index", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


class TestConfigPaths:
    def test_synth_config_works_from_another_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_synth(Path("rel") / "dir")
        monkeypatch.chdir(tmp_path / "rel")
        assert main(["pipeline", "--config", "dir/config.json", "--epochs", "1"]) == 0
        assert (tmp_path / "rel" / "dir" / "pipeline" / "report.json").exists()

    def test_relative_values_resolve_against_the_config_file(self, dataset, monkeypatch):
        tmp_path, config_path = dataset
        synth_cfg = json.loads(config_path.read_text())
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        cfg = {key: os.path.relpath(synth_cfg[key], cfg_dir)
               for key in ("corpus", "labels", "lexicon", "embeddings")}
        cfg["out_dir"] = "out"
        (cfg_dir / "config.json").write_text(json.dumps(cfg))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["pipeline", "--config", "../configs/config.json", "--epochs", "1"]) == 0
        assert (cfg_dir / "out" / "report.json").exists()
        # a flag stays relative to the working directory
        assert main(["index", "--config", "../configs/config.json", "--out", "idx"]) == 0
        assert (elsewhere / "idx" / "bm25.bin").exists()


class TestErrorPaths:
    def test_missing_corpus_is_data_error(self, tmp_path):
        assert (
            main(
                [
                    "index",
                    "--corpus",
                    str(tmp_path / "absent.jsonl"),
                    "--out",
                    str(tmp_path / "o"),
                ]
            )
            == 2
        )

    def test_zero_embedding_is_data_error_naming_its_id(self, dataset, capsys):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        lines = Path(cfg["embeddings"]).read_text().splitlines()
        record = json.loads(lines[3])
        record["vector"] = [0.0] * len(record["vector"])
        lines[3] = json.dumps(record)
        zero = tmp_path / "zero.jsonl"
        zero.write_text("\n".join(lines) + "\n")
        code = main(["graph", "--config", str(config_path), "--embeddings", str(zero),
                     "--out", str(tmp_path / "g")])
        assert code == 2
        assert repr(record["id"]) in capsys.readouterr().err

    def test_an_unlabelled_query_is_data_error_in_pipeline_as_in_eval(self, dataset, capsys):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        lines = Path(cfg["corpus"]).read_text().splitlines()
        record = json.loads(lines[-1])
        assert record["role"] == "candidate" and record["id"] not in json.loads(
            Path(cfg["labels"]).read_text())
        lines[-1] = json.dumps(record | {"role": "query"})
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["pipeline", "--config", str(config_path), "--corpus", str(corpus),
                     "--out", str(out), "--epochs", "1"]) == 2
        want = f"queries missing from the labels in {cfg['labels']}: [{record['id']!r}]"
        assert f"data error: {corpus}: {want}" in capsys.readouterr().err
        assert written(out) == []  # checked right after ingest
        run = tmp_path / "run.tsv"
        run.write_text(f"{record['id']}\t{json.loads(lines[0])['id']}\t1\t0.5\n")
        assert main(["eval", "--run", str(run), "--labels", cfg["labels"]]) == 2
        assert f"data error: {run}: {want}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["embed", "pipeline"])
    def test_a_candidate_without_a_vector_is_data_error_naming_it(self, dataset, capsys,
                                                                 command):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        lines = Path(cfg["embeddings"]).read_text().splitlines()
        corpus = [json.loads(line) for line in Path(cfg["corpus"]).read_text().splitlines()]
        missing = next(c["id"] for c in corpus if c.get("role") == "candidate")
        kept = [line for line in lines if json.loads(line)["id"] != missing]
        assert len(kept) == len(lines) - 1
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(kept) + "\n")
        out = tmp_path / "out"
        epochs = ["--epochs", "1"] if command == "pipeline" else []
        assert main([command, "--config", str(config_path), "--embeddings", str(partial),
                     "--out", str(out), *epochs]) == 2
        assert f"data error: no embedding for: {missing!r}\n" in capsys.readouterr().err
        assert not (out / "embeddings.emb1").exists()
        assert not list(out.rglob("*.tmp"))

    def test_a_labeled_query_missing_from_the_corpus_is_data_error_naming_it(self, dataset,
                                                                              capsys):
        tmp_path, config_path = dataset
        labels = json.loads(Path(json.loads(config_path.read_text())["labels"]).read_text())
        ghost = tmp_path / "ghost.json"
        ghost.write_text(json.dumps(labels | {"ghost": next(iter(labels.values()))}))
        assert main(["pipeline", "--config", str(config_path), "--labels", str(ghost),
                     "--out", str(tmp_path / "p"), "--epochs", "1"]) == 2
        assert capsys.readouterr().err == \
            f"data error: {ghost}: label query id 'ghost' not in corpus\n"

    def test_an_empty_embeddings_file_is_data_error_naming_it(self, dataset, capsys):
        tmp_path, config_path = dataset
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["embed", "--config", str(config_path), "--embeddings", str(empty),
                     "--out", str(tmp_path / "e")]) == 2
        assert capsys.readouterr().err == f"data error: {empty}: embedding file is empty\n"

    def test_an_emb1_file_of_another_dim_is_data_error_naming_it(self, dataset, capsys):
        tmp_path, config_path = dataset
        cfg = ["--config", str(config_path)]
        assert main(["embed", *cfg, "--out", str(tmp_path / "e")]) == 0
        emb = tmp_path / "e" / "embeddings.emb1"
        capsys.readouterr()
        assert main(["graph", *cfg, "--embeddings", str(emb), "--dim", "16",
                     "--out", str(tmp_path / "g")]) == 2
        assert capsys.readouterr().err == f"data error: {emb}: file dim 8 != expected 16\n"

    def test_eval_with_unlabeled_run_query(self, tmp_path, capsys):
        run = tmp_path / "run.tsv"
        run.write_text("qX\tc1\t1\t0.500000\n")
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps({"q1": ["c1"]}))
        assert main(["eval", "--run", str(run), "--labels", str(labels)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {run}: ")
        assert str(labels) in err and "'qX'" in err

    def test_eval_hand_count(self, tmp_path, capsys):
        run = tmp_path / "run.tsv"
        lines = []
        for rank, cid in enumerate(["a", "b", "c", "d", "e"], 1):
            lines.append(f"q1\t{cid}\t{rank}\t0.900000")
        for rank, cid in enumerate(["f", "g", "h", "i", "j"], 1):
            lines.append(f"q2\t{cid}\t{rank}\t0.900000")
        run.write_text("\n".join(lines) + "\n")
        labels = tmp_path / "labels.json"
        labels.write_text(
            json.dumps({"q1": ["a", "b", "x", "y"], "q2": ["f", "u", "v", "w"]})
        )
        capsys.readouterr()
        assert main(["eval", "--run", str(run), "--labels", str(labels)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["precision"] == pytest.approx(0.3, abs=1e-12)
        assert report["recall"] == pytest.approx(0.375, abs=1e-12)
        assert report["f1"] == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestAFailedCheckWritesNothing:
    """An input check that fails does so before the first stage writes to ``--out``."""

    def test_a_query_without_a_positive(self, dataset, capsys):
        tmp_path, config_path = dataset
        labels = json.loads(Path(json.loads(config_path.read_text())["labels"]).read_text())
        empty = tmp_path / "labels.json"
        empty.write_text(json.dumps(labels | {min(labels): []}))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["pipeline", "--config", str(config_path), "--labels", str(empty),
                     "--out", str(out), "--epochs", "1"]) == 2
        assert capsys.readouterr().err == \
            f"data error: query {min(labels)!r} has no labeled positive\n"
        assert written(out) == []

    def test_a_graph_built_with_other_settings(self, dataset, capsys):
        tmp_path, config_path = dataset
        cfg = ["--config", str(config_path)]
        assert main(["graph", *cfg, "--out", str(tmp_path / "g")]) == 0
        gcg = tmp_path / "g" / "graph.gcg1"
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["train", *cfg, "--graph", str(gcg), "--k-edges", "3", "--out", str(out),
                     "--epochs", "1"]) == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {gcg}: the graph was built with k_edges 5, this run has 3: ")
        assert written(out) == []

    @pytest.mark.parametrize("given_graph", [False, True], ids=["built graph", "--graph"])
    def test_a_truncated_checkpoint(self, dataset, capsys, given_graph):
        tmp_path, config_path = dataset
        cfg = ["--config", str(config_path)]
        assert main(["train", *cfg, "--out", str(tmp_path / "t"), "--epochs", "1"]) == 0
        ckpt = tmp_path / "t" / "checkpoints" / "checkpoint.gatc"
        ckpt.write_bytes(ckpt.read_bytes()[:24])  # the header of dims [8, 8, 8], no payload
        given = ["--graph", str(tmp_path / "t" / "graph.gcg1")] if given_graph else []
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["rank", *cfg, *given, "--checkpoint", str(ckpt), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {ckpt}: truncated: wanted ") and \
            err.endswith(" bytes, got 0\n"), err
        assert written(out) == []

    def test_a_checkpoint_of_another_input_dim_with_a_given_graph(self, dataset, capsys):
        from caselink.gat import init_params, save_checkpoint

        tmp_path, config_path = dataset
        cfg = ["--config", str(config_path)]
        assert main(["graph", *cfg, "--out", str(tmp_path / "g")]) == 0
        ckpt = tmp_path / "other.gatc"
        save_checkpoint(init_params(0, [5, 8]), ckpt)  # the dataset's vectors have dim 8
        out = tmp_path / "out"
        capsys.readouterr()
        gcg = tmp_path / "g" / "graph.gcg1"
        assert main(["rank", *cfg, "--graph", str(gcg), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {gcg}: the graph's features are 8-dim, this run expects 5-dim\n")
        assert written(out) == []

    def test_a_checkpoint_of_another_input_dim_without_a_graph(self, dataset, capsys):
        from caselink.gat import init_params, save_checkpoint

        tmp_path, config_path = dataset
        vectors = json.loads(config_path.read_text())["embeddings"]
        ckpt = tmp_path / "other.gatc"
        save_checkpoint(init_params(0, [5, 8]), ckpt)  # the dataset's vectors have dim 8
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["rank", "--config", str(config_path), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"data error: line 1: {vectors}: vector for id 'q000' has dim 8, expected 5 "
            f"(the input dim of the checkpoint {ckpt})\n")
        assert written(out) == []

    def test_a_version_1_checkpoint(self, dataset, capsys):
        from caselink.gat import init_params

        tmp_path, config_path = dataset
        ckpt = tmp_path / "v1.gatc"  # version 1 stored a slope and a dropout rate after the dims
        ckpt.write_bytes(b"GATC" + struct.pack("<II2Idd", 1, 2, 8, 8, 0.2, 0.1)
                         + init_params(0, [8, 8]).flat.astype("<f8").tobytes())
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["rank", "--config", str(config_path), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {ckpt}: unsupported checkpoint file version 1\n")
        assert written(out) == []

    def test_a_dim_other_than_the_checkpoints(self, dataset, capsys):
        from caselink.gat import init_params, save_checkpoint

        tmp_path, config_path = dataset
        ckpt = tmp_path / "other.gatc"
        save_checkpoint(init_params(0, [5, 8]), ckpt)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["rank", "--config", str(config_path), "--checkpoint", str(ckpt),
                     "--dim", "8", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {ckpt}: the checkpoint takes 5-dim features, --dim is 8\n")
        assert written(out) == []

    def test_a_graph_of_another_dim(self, dataset, capsys):
        tmp_path, config_path = dataset
        cfg = ["--config", str(config_path)]
        assert main(["graph", *cfg, "--out", str(tmp_path / "g")]) == 0
        gcg = tmp_path / "g" / "graph.gcg1"
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["train", *cfg, "--graph", str(gcg), "--dim", "7", "--out", str(out),
                     "--epochs", "1"]) == 2
        assert capsys.readouterr().err == (
            f"data error: {gcg}: the graph's features are 8-dim, this run expects 7-dim\n")
        assert written(out) == []

    def test_too_few_easy_negatives(self, dataset, capsys):
        tmp_path, config_path = dataset
        labels = json.loads(Path(json.loads(config_path.read_text())["labels"]).read_text())
        out = tmp_path / "out"
        capsys.readouterr()
        # 12 candidates, 3 of them each query's positives: 9 easy negatives a query
        assert main(["pipeline", "--config", str(config_path), "--n-easy-neg", "10",
                     "--out", str(out), "--epochs", "1"]) == 2
        assert capsys.readouterr().err == (
            f"data error: not enough easy negatives for query {min(labels)!r}: 9 candidates "
            "are not its positives, n_easy_neg is 10\n")
        assert written(out) == []


class TestStagedAndFused:
    def test_staged_and_fused_runs_produce_the_same_bytes(self, dataset):
        tmp_path, config_path = dataset
        cfg = ["--config", str(config_path)]
        flags = ["--epochs", "3", "--lr", "0.01", "--dropout", "0.1", "--tau", "0.05"]
        s = tmp_path / "staged"
        emb, gcg = s / "embed" / "embeddings.emb1", s / "graph" / "graph.gcg1"
        ckpt = s / "train" / "checkpoints" / "checkpoint.gatc"
        for argv in (
            ["ingest", "--out", str(s / "ingest")],
            ["index", "--out", str(s / "index")],
            ["embed", "--out", str(s / "embed")],
            ["graph", "--embeddings", str(emb), "--out", str(s / "graph")],
            ["train", "--graph", str(gcg), "--out", str(s / "train"), *flags],
            ["rank", "--graph", str(gcg), "--checkpoint", str(ckpt), "--out", str(s / "rank")],
            ["eval", "--run", str(s / "rank" / "run.tsv"), "--out", str(s / "eval")],
        ):
            assert main([argv[0], *cfg, *argv[1:]]) == 0
        fused = tmp_path / "fused"
        assert main(["pipeline", *cfg, "--out", str(fused), *flags]) == 0

        staged_files = {
            "bm25.bin": s / "index" / "bm25.bin",
            "embeddings.emb1": emb,
            "graph.gcg1": gcg,
            "checkpoints/checkpoint.gatc": ckpt,
            "run.tsv": s / "rank" / "run.tsv",
            "run.json": s / "rank" / "run.json",
            "report.json": s / "eval" / "report.json",
        }
        for name, staged in staged_files.items():
            assert (fused / name).read_bytes() == staged.read_bytes(), name

    def test_train_and_rank_without_a_graph_match_the_pipeline(self, dataset):
        tmp_path, config_path = dataset
        cfg = ["--config", str(config_path)]
        flags = ["--epochs", "4", "--lr", "0.01", "--dropout", "0.1", "--tau", "0.05"]
        fused = tmp_path / "fused"
        assert main(["pipeline", *cfg, "--out", str(fused), *flags]) == 0
        assert main(["graph", *cfg, "--out", str(tmp_path / "graph")]) == 0
        assert main(["train", *cfg, "--out", str(tmp_path / "train"), *flags]) == 0
        ckpt = tmp_path / "train" / "checkpoints" / "checkpoint.gatc"
        assert main(["rank", *cfg, "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "rank")]) == 0
        for name in ("checkpoint.gatc", "checkpoint_last.gatc"):
            assert ((tmp_path / "train" / "checkpoints" / name).read_bytes()
                    == (fused / "checkpoints" / name).read_bytes()), name
        for name in ("run.tsv", "run.json"):
            assert (tmp_path / "rank" / name).read_bytes() == (fused / name).read_bytes(), name
        # every subcommand writes the files of the stages it shares with the pipeline
        for command in ("graph", "train", "rank"):
            for name in ("bm25.bin", "embeddings.emb1", "graph.gcg1"):
                assert ((tmp_path / command / name).read_bytes()
                        == (fused / name).read_bytes()), (command, name)

    def test_pipeline_hands_on_what_its_files_hold(self, dataset, monkeypatch):
        import numpy as np

        from caselink import cli
        from caselink.embeddings import read_binary_embeddings
        from caselink.graph import load_graph

        tmp_path, config_path = dataset
        seen = {}

        def spy(name, stage):
            def wrapped(*args):
                seen[name] = (args, stage(*args))
                return seen[name][1]
            monkeypatch.setattr(cli, name, wrapped)

        spy("embed_stage", cli.embed_stage)
        spy("graph_stage", cli.graph_stage)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(config_path), "--out", str(out),
                     "--epochs", "1"]) == 0

        (store, *_), table = seen["embed_stage"]
        stored = read_binary_embeddings(out / "embeddings.emb1")
        assert list(stored.vectors) == list(store.node_ids)
        assert set(table.vectors) >= set(store.node_ids)
        for node_id in store.node_ids:
            assert np.array_equal(table[node_id], stored[node_id]), node_id

        (_, graph_table, *_), built = seen["graph_stage"]
        assert graph_table is table
        loaded = load_graph(out / "graph.gcg1")
        assert built.node_ids == loaded.node_ids == store.node_ids
        assert built.roles == loaded.roles
        assert (built.n_cases, built.n_charges) == (loaded.n_cases, loaded.n_charges)
        assert built.features.dtype == loaded.features.dtype == np.float64
        assert np.array_equal(built.features, loaded.features)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(built.adjacency, part),
                                  getattr(loaded.adjacency, part)), part

    def test_pipeline_reads_back_none_of_its_files(self, dataset, monkeypatch):
        import sys

        from caselink.embeddings import read_binary_embeddings
        from caselink.graph import load_graph

        tmp_path, config_path = dataset
        argv = ["pipeline", "--config", str(config_path), "--epochs", "2"]
        assert main([*argv, "--out", str(tmp_path / "plain")]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("pipeline read back a file it wrote")

        for module in [m for name, m in sys.modules.items() if name.startswith("caselink")]:
            for attr, value in list(vars(module).items()):
                if value is read_binary_embeddings or value is load_graph:
                    monkeypatch.setattr(module, attr, refuse)
        assert main([*argv, "--out", str(tmp_path / "patched")]) == 0
        for name in ("embeddings.emb1", "graph.gcg1", "checkpoints/checkpoint.gatc", "run.tsv",
                     "report.json"):
            assert ((tmp_path / "patched" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes()), name


    def test_a_graph_of_another_corpus_is_data_error_naming_it(self, dataset, capsys):
        tmp_path, config_path = dataset
        other = tmp_path / "other"
        assert main(["synth", "--out", str(other), "--n-clusters", "3", "--dim", "8"]) == 0
        assert main(["graph", "--config", str(other / "config.json"), "--out", str(other)]) == 0
        assert main(["pipeline", "--config", str(config_path), "--epochs", "1",
                     "--out", str(tmp_path / "p")]) == 0
        stale = other / "graph.gcg1"
        ckpt = tmp_path / "p" / "checkpoints" / "checkpoint.gatc"
        for command, flags in (("train", ["--epochs", "1"]), ("rank", ["--checkpoint", str(ckpt)])):
            capsys.readouterr()
            assert main([command, "--config", str(config_path), "--graph", str(stale),
                         "--out", str(tmp_path / command), *flags]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {stale}: graph row 2 holds 'q002' (query), "
                                  "not node 2 of the corpus, 'cand000' (candidate)"), err
            assert written(tmp_path / command) == [], command  # checked before any stage writes


class TestGraphProvenance:
    """A ``--graph`` file records the corpus and lexicon digests and the k1, b,
    k_edges and delta its edges were built with; a run that reads it must have
    the same, or it is a data error naming the file and the first field that
    differs."""

    @staticmethod
    def graph_of(tmp_path, config_path, *flags):
        out = tmp_path / "g"
        assert main(["graph", "--config", str(config_path), "--out", str(out), *flags]) == 0
        return out / "graph.gcg1"

    @staticmethod
    def refused(capsys, argv, gcg, reason):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {gcg}: {reason}"), err

    def test_a_graph_of_another_seed_is_data_error_naming_the_corpus_digest(self, tmp_path,
                                                                           capsys):
        # two seeds of one spec share every node id and role: only the corpus tells them apart
        one, two = run_synth(tmp_path / "one", seed=1), run_synth(tmp_path / "two", seed=2)
        gcg = self.graph_of(tmp_path, one)
        ckpt = tmp_path / "t1" / "checkpoints" / "checkpoint.gatc"
        assert main(["train", "--config", str(one), "--graph", str(gcg), "--epochs", "2",
                     "--out", str(tmp_path / "t1")]) == 0
        self.refused(capsys, ["train", "--config", str(two), "--graph", str(gcg), "--epochs", "2",
                              "--out", str(tmp_path / "t2")],
                     gcg, "the graph was built with corpus_digest ")
        rank = ["rank", "--config", str(two), "--graph", str(gcg), "--out", str(tmp_path / "r2")]
        # the checkpoint, trained on that graph, is checked first
        self.refused(capsys, [*rank, "--checkpoint", str(ckpt)], Path(f"{ckpt}.json"),
                     "the checkpoint was trained on a graph built with corpus_digest ")
        bare = tmp_path / "bare.gatc"  # no sidecar: nothing says what it was trained on
        bare.write_bytes(ckpt.read_bytes())
        self.refused(capsys, [*rank, "--checkpoint", str(bare)], gcg,
                     "the graph was built with corpus_digest ")
        assert written(tmp_path / "t2") == written(tmp_path / "r2") == []

    @pytest.mark.parametrize("flags, reason", [
        (["--k-edges", "3", "--delta", "0.5"], "k_edges 5, this run has 3"),
        (["--delta", "0.5"], "delta 0.9, this run has 0.5"),
        (["--k1", "2"], "k1 1.2, this run has 2.0"),
        (["--b", "0.5"], "b 0.75, this run has 0.5"),
    ], ids=["k_edges first", "delta", "k1", "b"])
    def test_other_settings_are_data_error_naming_the_first_field(self, dataset, capsys,
                                                                   flags, reason):
        tmp_path, config_path = dataset
        gcg = self.graph_of(tmp_path, config_path)
        self.refused(capsys, ["train", "--config", str(config_path), "--graph", str(gcg),
                              "--epochs", "1", "--out", str(tmp_path / "t"), *flags],
                     gcg, "the graph was built with " + reason)
        # built with those settings, the graph serves a run that has them
        gcg = self.graph_of(tmp_path, config_path, *flags)
        assert main(["train", "--config", str(config_path), "--graph", str(gcg),
                     "--epochs", "1", "--out", str(tmp_path / "t"), *flags]) == 0

    def test_another_lexicon_file_is_data_error_naming_its_digest(self, dataset, capsys):
        tmp_path, config_path = dataset
        gcg = self.graph_of(tmp_path, config_path)
        # the same charges, as a blank line is skipped, but other bytes
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_bytes(Path(json.loads(config_path.read_text())["lexicon"]).read_bytes()
                            + b"\n")
        self.refused(capsys, ["train", "--config", str(config_path), "--lexicon", str(lexicon),
                              "--graph", str(gcg), "--epochs", "1", "--out", str(tmp_path / "t")],
                     gcg, "the graph was built with lexicon_digest ")

    def test_a_graph_saved_without_provenance_is_data_error_saying_so(self, dataset, capsys):
        from caselink.graph import load_graph, save_graph

        tmp_path, config_path = dataset
        gcg = self.graph_of(tmp_path, config_path)
        save_graph(dataclasses.replace(load_graph(gcg), provenance=None), gcg)
        self.refused(capsys, ["train", "--config", str(config_path), "--graph", str(gcg),
                              "--epochs", "1", "--out", str(tmp_path / "t")],
                     gcg, "the graph records no provenance (its corpus and lexicon digests, "
                     "k1, b, k_edges and delta are missing)")

    def test_one_run_digests_each_input_once_and_records_one_corpus_digest(self, dataset,
                                                                         monkeypatch):
        from caselink import cli
        from caselink.bm25 import load_index
        from caselink.graph import load_graph

        tmp_path, config_path = dataset
        digest, digested = cli._digest_path, []

        def counted(path):
            digested.append(str(path))
            return digest(path)

        monkeypatch.setattr(cli, "_digest_path", counted)
        out = tmp_path / "p"
        assert main(["pipeline", "--config", str(config_path), "--epochs", "1",
                     "--out", str(out)]) == 0
        assert sorted(digested) == sorted(read_manifest(out)["inputs"])  # each input once
        corpus = json.loads(config_path.read_text())["corpus"]
        _, index_digest = load_index(out / "bm25.bin")
        graph_digest = load_graph(out / "graph.gcg1").provenance.corpus_digest
        assert index_digest == graph_digest == read_manifest(out)["inputs"][corpus]


class TestCheckpointProvenance:
    """A checkpoint's sidecar records the provenance of the graph it was trained
    on; ``rank`` refuses a checkpoint whose provenance differs from its graph's,
    and ranks as before with one whose sidecar is missing or records none."""

    def test_a_checkpoint_of_another_seed_is_data_error_naming_the_sidecar(self, tmp_path,
                                                                          capsys):
        one, two = run_synth(tmp_path / "one", seed=1), run_synth(tmp_path / "two", seed=2)
        assert main(["train", "--config", str(one), "--epochs", "2",
                     "--out", str(tmp_path / "t1")]) == 0
        ckpt = tmp_path / "t1" / "checkpoints" / "checkpoint.gatc"
        sidecar = Path(f"{ckpt}.json")
        rank = ["rank", "--config", str(two), "--checkpoint", str(ckpt)]
        capsys.readouterr()
        assert main([*rank, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {sidecar}: the checkpoint was trained on a graph "
                              "built with corpus_digest "), err
        assert not (tmp_path / "r" / "run.tsv").exists()
        # the seed it was trained on ranks with it
        assert main(["rank", "--config", str(one), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "r1")]) == 0
        # a sidecar that records no provenance, and no sidecar at all, say nothing
        recorded = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps(recorded | {"provenance": None}))
        assert main([*rank, "--out", str(tmp_path / "r2")]) == 0
        sidecar.unlink()
        assert main([*rank, "--out", str(tmp_path / "r3")]) == 0

    def test_other_settings_are_data_error_naming_the_first_field(self, dataset, capsys):
        tmp_path, config_path = dataset
        assert main(["train", "--config", str(config_path), "--epochs", "1",
                     "--out", str(tmp_path / "t")]) == 0
        ckpt = tmp_path / "t" / "checkpoints" / "checkpoint.gatc"
        capsys.readouterr()
        assert main(["rank", "--config", str(config_path), "--checkpoint", str(ckpt),
                     "--k-edges", "3", "--out", str(tmp_path / "r")]) == 2
        assert "built with k_edges 5, this run has 3" in capsys.readouterr().err

    def test_a_malformed_provenance_is_data_error_naming_the_sidecar(self, dataset, capsys):
        tmp_path, config_path = dataset
        assert main(["train", "--config", str(config_path), "--epochs", "1",
                     "--out", str(tmp_path / "t")]) == 0
        ckpt = tmp_path / "t" / "checkpoints" / "checkpoint.gatc"
        sidecar = Path(f"{ckpt}.json")
        recorded = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps(recorded | {"provenance": {"k_edges": 5}}))
        capsys.readouterr()
        assert main(["rank", "--config", str(config_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "r")]) == 2
        assert f"{sidecar}: provenance " in capsys.readouterr().err


class TestNodeIds:
    @staticmethod
    def with_lexicon_lines(config_path, tmp_path, edit):
        """A copy of the dataset's lexicon with its lines passed through ``edit``."""
        cfg = json.loads(config_path.read_text())
        lines = Path(cfg["lexicon"]).read_text().splitlines()
        lexicon = tmp_path / "lexicon.jsonl"
        lexicon.write_text("\n".join(edit(lines, cfg)) + "\n")
        return lexicon

    @staticmethod
    def repeat_a_charge_id(lines, cfg):
        second = json.loads(lines[1])
        return [lines[0], json.dumps(second | {"id": json.loads(lines[0])["id"]}), *lines[2:]]

    @staticmethod
    def reuse_a_case_id(lines, cfg):
        case_id = json.loads(Path(cfg["corpus"]).read_text().splitlines()[3])["id"]
        return [json.dumps(json.loads(lines[0]) | {"id": case_id}), *lines[1:]]

    @pytest.mark.parametrize("edit", ["repeat_a_charge_id", "reuse_a_case_id"])
    @pytest.mark.parametrize("command", ["graph", "pipeline"])
    def test_a_shared_node_id_is_data_error_naming_it(self, dataset, capsys, edit, command):
        tmp_path, config_path = dataset
        lexicon = self.with_lexicon_lines(config_path, tmp_path, getattr(self, edit))
        shared = json.loads(lexicon.read_text().splitlines()[0])["id"]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--config", str(config_path), "--lexicon", str(lexicon),
                     "--out", str(out)]) == 2
        assert f"duplicate node id {shared!r}" in capsys.readouterr().err
        assert not (out / "graph.gcg1").exists()

    @staticmethod
    def with_first_case_renamed(config_path, tmp_path, new_id):
        """A config whose corpus, embeddings and labels call the first case ``new_id``."""
        cfg = json.loads(config_path.read_text())
        old = json.loads(Path(cfg["corpus"]).read_text().splitlines()[0])["id"]
        rename = lambda node_id: new_id if node_id == old else node_id  # noqa: E731
        for key in ("corpus", "embeddings"):
            records = [json.loads(line) for line in Path(cfg[key]).read_text().splitlines()]
            cfg[key] = str(tmp_path / f"{key}.jsonl")
            Path(cfg[key]).write_text("".join(json.dumps(rec | {"id": rename(rec["id"])}) + "\n"
                                              for rec in records))
        labels = json.loads(Path(cfg["labels"]).read_text())
        cfg["labels"] = str(tmp_path / "labels.json")
        Path(cfg["labels"]).write_text(json.dumps(
            {rename(q): [rename(c) for c in rel] for q, rel in labels.items()}))
        cfg_path = tmp_path / "renamed.json"
        cfg_path.write_text(json.dumps(cfg))
        return cfg_path

    @pytest.mark.parametrize("new_id, reason", [
        ("c\t1", "id 'c\\t1' contains a tab, CR or LF"),
        ("x" * 70_000, "id of 70,000 UTF-8 bytes is longer than 65,535"),
    ], ids=["tab", "70,000 characters"])
    def test_a_case_id_outside_the_rule_is_data_error_naming_its_line(self, dataset, capsys,
                                                                    new_id, reason):
        tmp_path, config_path = dataset
        cfg_path = self.with_first_case_renamed(config_path, tmp_path, new_id)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out),
                     "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: line 1: {tmp_path / 'corpus.jsonl'}: {reason}"), err
        assert not (out / "run.tsv").exists()


class TestManifests:
    @pytest.mark.parametrize("command,outcome,flags", [
        *(pytest.param(command, outcome, [], id=f"{command}-{outcome}")
          for command in ("graph", "rank") for outcome in ("graph fails", "succeeds")),
        *(pytest.param(command, outcome, ["--epochs", epochs], id=f"{command}-{outcome}-{epochs}")
          for command in ("train", "pipeline")
          for outcome, epochs in [("graph fails", "2"), ("succeeds", "2"), ("succeeds", "0")]),
        # one step per epoch diverges at epoch 1, two steps per epoch at epoch 0
        *(pytest.param(command, "training diverges", ["--epochs", "3", "--lr", "1e300", *batch],
                       id=f"{command}-training diverges{'-batch 2' if batch else ''}")
          for command in ("train", "pipeline") for batch in ([], ["--batch-size", "2"])),
        *(pytest.param(command, "a query has no positive", ["--epochs", "2"],
                       id=f"{command}-a query has no positive")
          for command in ("train", "pipeline")),
    ])
    def test_every_finalized_artifact_has_a_manifest(self, dataset, monkeypatch, capsys,
                                                     command, outcome, flags):
        from caselink import cli
        from caselink.errors import GraphConstructionError

        tmp_path, config_path = dataset
        cfg = ["--config", str(config_path)]
        ckpt = tmp_path / "ckpt" / "checkpoints" / "checkpoint.gatc"
        if command == "rank":
            assert main(["train", *cfg, "--out", str(ckpt.parent.parent), "--epochs", "1"]) == 0

        def fail(*args, **kwargs):
            raise GraphConstructionError("injected failure")

        if outcome == "graph fails":
            monkeypatch.setattr(cli, "build_global_case_graph", fail)
        if outcome == "a query has no positive":
            labels = json.loads(Path(json.loads(config_path.read_text())["labels"]).read_text())
            (tmp_path / "labels.json").write_text(json.dumps(labels | {min(labels): []}))
            flags = [*flags, "--labels", str(tmp_path / "labels.json")]
        out = tmp_path / "out"
        argv = [command, *cfg, "--out", str(out), *flags]
        if command == "rank":
            argv += ["--checkpoint", str(ckpt)]
        assert main(argv) == {"graph fails": 2, "training diverges": 3,
                              "a query has no positive": 2}.get(outcome, 0)
        if outcome == "training diverges":
            epoch = 0 if "--batch-size" in flags else 1
            assert f"non-finite loss at epoch {epoch}" in capsys.readouterr().err
        if outcome == "a query has no positive":
            assert written(out) == []  # the labels are checked before any stage writes
            return
        listed = set(read_manifest(out)["outputs"])
        left = {str(p) for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"}
        assert left  # at least the stages before the graph finished
        assert left == listed

    @pytest.mark.parametrize("failing", ["manifest write", "graph writer"])
    def test_a_failed_commit_leaves_the_previous_manifest_and_no_tmp_file(
            self, dataset, monkeypatch, capsys, failing):
        from caselink import cli

        tmp_path, config_path = dataset
        if failing == "manifest write":
            write_json, manifest_writes = cli.write_json, []

            def third_manifest_write_fails(path, obj):
                if Path(path).name.startswith("manifest.json"):
                    manifest_writes.append(path)
                    if len(manifest_writes) == 3:  # after embed and index: the graph's commit
                        fail_partway(lambda: write_json(path, obj), path)
                write_json(path, obj)

            monkeypatch.setattr(cli, "write_json", third_manifest_write_fails)
        else:
            save_graph = cli.save_graph
            monkeypatch.setattr(cli, "save_graph", lambda gcg, path: fail_partway(
                lambda: save_graph(gcg, path), path))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(config_path), "--out", str(out),
                     "--epochs", "1"]) == 2
        assert "No space left on device" in capsys.readouterr().err
        listed = read_manifest(out)["outputs"]
        assert sorted(Path(p).name for p in listed) == ["bm25.bin", "embeddings.emb1"]
        assert {str(p) for p in out.rglob("*") if p.name != "manifest.json"} == set(listed)

    def test_a_torn_training_log_leaves_the_previous_checkpoint_and_log(
            self, dataset, monkeypatch, capsys):
        from caselink import training

        tmp_path, config_path = dataset
        out = tmp_path / "out"
        argv = ["train", "--config", str(config_path), "--out", str(out)]
        assert main([*argv, "--epochs", "2"]) == 0
        ckpt_dir = out / "checkpoints"
        kept = ("checkpoint.gatc", "checkpoint.gatc.json", "training_log.jsonl")
        before = {name: (ckpt_dir / name).read_bytes() for name in kept}

        write_jsonl = training.write_jsonl
        monkeypatch.setattr(training, "write_jsonl", lambda path, records: fail_partway(
            lambda: write_jsonl(path, records), path))
        assert main([*argv, "--epochs", "1", "--seed", "2"]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert {name: (ckpt_dir / name).read_bytes() for name in kept} == before
        assert list(out.rglob("*.tmp")) == []
        listed = set(read_manifest(out)["outputs"])
        assert listed == {str(p) for p in out.rglob("*") if p.name != "manifest.json"
                          and p.is_file()}

    def test_ingest_and_embed_timings_cover_reading_their_inputs(self, dataset, monkeypatch):
        from caselink import cli

        tmp_path, config_path = dataset

        monkeypatch.setattr(cli, "ingest_corpus", slowed(cli.ingest_corpus))
        monkeypatch.setattr(cli, "load_embedding_file", slowed(cli.load_embedding_file))
        ckpt = tmp_path / "pipeline" / "checkpoints" / "checkpoint.gatc"
        for argv in (["pipeline", "--epochs", "1"], ["ingest"], ["index"], ["embed"], ["graph"],
                     ["train", "--epochs", "1"], ["rank", "--checkpoint", str(ckpt)]):
            out = tmp_path / argv[0]
            assert main([argv[0], "--config", str(config_path), "--out", str(out),
                         *argv[1:]]) == 0
            timings = read_manifest(out)["timings_ms"]
            assert timings["ingest"] >= 50, argv[0]
            if argv[0] not in ("ingest", "index"):
                assert timings["embed"] >= 50, argv[0]

    @pytest.mark.parametrize("given_graph", [False, True], ids=["built graph", "--graph"])
    def test_timings_cover_every_step(self, dataset, monkeypatch, given_graph):
        from caselink import cli

        tmp_path, config_path = dataset
        cfg = ["--config", str(config_path)]
        gcg = tmp_path / "g" / "graph.gcg1"
        ckpt = tmp_path / "t" / "checkpoints" / "checkpoint.gatc"
        assert main(["train", *cfg, "--out", str(tmp_path / "t"), "--epochs", "1"]) == 0
        assert main(["graph", *cfg, "--out", str(gcg.parent)]) == 0

        slow = ["load_graph"] if given_graph else ["build_global_case_graph", "build_index"]
        for name in slow:
            monkeypatch.setattr(cli, name, slowed(getattr(cli, name)))
        given = ["--graph", str(gcg)] if given_graph else []
        commands = [["train", *given, "--epochs", "1"], ["rank", *given, "--checkpoint", str(ckpt)]]
        if not given_graph:
            commands.insert(0, ["graph"])
        for argv in commands:
            out = tmp_path / argv[0]
            t0 = time.perf_counter()
            assert main([argv[0], *cfg, "--out", str(out), *argv[1:]]) == 0
            wall_ms = (time.perf_counter() - t0) * 1e3
            timings = read_manifest(out)["timings_ms"]
            assert timings["graph"] >= 50, argv[0]
            if not given_graph:
                assert timings["index"] >= 50, argv[0]
                assert sum(timings.values()) >= 0.9 * wall_ms, (argv[0], timings, wall_ms)

    def test_resolve_entry_times_reading_the_config(self, dataset, monkeypatch):
        from caselink import cli

        tmp_path, config_path = dataset
        monkeypatch.setattr(cli, "read_text", slowed(cli.read_text))
        out = tmp_path / "ingest"
        assert main(["ingest", "--config", str(config_path), "--out", str(out)]) == 0
        timings = read_manifest(out)["timings_ms"]
        assert timings["resolve"] >= 50
        assert timings["ingest"] < 50

    def test_a_stages_manifest_write_adds_to_its_entry(self, dataset, monkeypatch):
        from caselink import cli

        tmp_path, config_path = dataset
        monkeypatch.setattr(cli, "write_json", slowed(cli.write_json))  # the manifest's writer
        out = tmp_path / "graph"
        assert main(["graph", "--config", str(config_path), "--out", str(out)]) == 0
        timings = read_manifest(out)["timings_ms"]
        # embed and index each write the manifest once; a later write records that time
        assert timings["embed"] >= 50 and timings["index"] >= 50, timings
        assert timings["ingest"] < 50, timings

    @pytest.mark.parametrize("given_out", [True, False], ids=["--out", "no --out"])
    def test_eval_times_reading_its_inputs(self, dataset, monkeypatch, capsys, given_out):
        from caselink import cli

        tmp_path, config_path = dataset
        assert main(["pipeline", "--config", str(config_path), "--out", str(tmp_path / "p"),
                     "--epochs", "1"]) == 0
        monkeypatch.setattr(cli, "read_run_tsv", slowed(cli.read_run_tsv))
        monkeypatch.chdir(tmp_path)
        labels = json.loads(config_path.read_text())["labels"]
        out = ["--out", "ev"] if given_out else []
        capsys.readouterr()
        assert main(["eval", "--run", "p/run.tsv", "--labels", labels, *out]) == 0
        assert json.loads(capsys.readouterr().out) == \
            json.loads((tmp_path / "p" / "report.json").read_text())
        if given_out:
            assert read_manifest(tmp_path / "ev")["timings_ms"]["eval"] >= 50
            assert sorted(p.name for p in (tmp_path / "ev").iterdir()) == \
                ["manifest.json", "report.json"]
        else:
            assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "p"]

    def test_config_records_every_option_and_section_read(self, dataset):
        from caselink.cli import COMMANDS

        tmp_path, config_path = dataset
        cfg = ["--config", str(config_path)]
        assert main(["graph", *cfg, "--out", str(tmp_path / "default")]) == 0
        assert main(["graph", *cfg, "--k1", "3", "--out", str(tmp_path / "k1")]) == 0
        default = read_manifest(tmp_path / "default")["config"]
        changed = read_manifest(tmp_path / "k1")["config"]
        assert set(default) == set(COMMANDS["graph"].options)
        assert (default["k1"], changed["k1"]) == (1.2, 3.0)
        assert (default["k_edges"], default["delta"]) == (5, 0.9)
        assert default["b"] == changed["b"] == 0.75
        # an int in the config is the float the flag gives
        cfg_k1 = tmp_path / "k1.json"
        cfg_k1.write_text(json.dumps({**json.loads(config_path.read_text()), "k1": 3}))
        assert main(["graph", "--config", str(cfg_k1), "--out", str(tmp_path / "cfg_k1")]) == 0
        from_config = read_manifest(tmp_path / "cfg_k1")["config"]
        assert json.dumps(from_config["k1"]) == json.dumps(changed["k1"]) == "3.0"
        del from_config["out_dir"], changed["out_dir"]
        assert from_config == changed

    def test_inputs_digest_the_labels_that_set_roles(self, dataset):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        # without a "role" field, the labels decide which cases are queries
        records = [json.loads(line) for line in Path(cfg["corpus"]).read_text().splitlines()]
        roleless = tmp_path / "roleless.jsonl"
        roleless.write_text("".join(
            json.dumps({k: v for k, v in r.items() if k != "role"}) + "\n" for r in records))
        cfg["corpus"] = str(roleless)
        labeled, unlabeled = tmp_path / "labeled.json", tmp_path / "unlabeled.json"
        labeled.write_text(json.dumps(cfg))
        unlabeled.write_text(json.dumps({k: v for k, v in cfg.items() if k != "labels"}))

        gcg = tmp_path / "graph" / "graph.gcg1"
        ckpt = tmp_path / "train" / "checkpoints" / "checkpoint.gatc"
        for argv in (
            ["graph", "--out", str(gcg.parent)],
            ["train", "--graph", str(gcg), "--epochs", "1", "--out", str(tmp_path / "train")],
            ["rank", "--graph", str(gcg), "--checkpoint", str(ckpt),
             "--out", str(tmp_path / "rank")],
        ):
            assert main([argv[0], "--config", str(labeled), *argv[1:]]) == 0
            assert cfg["labels"] in read_manifest(tmp_path / argv[0])["inputs"], argv[0]

        other = tmp_path / "graph_unlabeled"
        assert main(["graph", "--config", str(unlabeled), "--out", str(other)]) == 0
        assert (other / "graph.gcg1").read_bytes() != gcg.read_bytes()
        assert read_manifest(other)["inputs"] != read_manifest(gcg.parent)["inputs"]


class TestRankingSizes:
    @pytest.mark.parametrize("sizes", [["--final-size", "0"], ["--prefilter-size", "-1"],
                                       ["--prefilter-size", "3", "--final-size", "5"]])
    def test_sizes_outside_one_to_prefilter_are_data_errors(self, dataset, capsys, sizes):
        tmp_path, config_path = dataset
        argv = ["pipeline", "--config", str(config_path), "--out", str(tmp_path / "p"),
                "--epochs", "0", *sizes]
        assert main(argv) == 2
        assert "final_size" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()  # checked before the first stage


class TestEndpoint:
    """Remote embeddings through an in-process transport: nothing leaves the process."""

    @staticmethod
    def endpoint_config(tmp_path, config_path, **options):
        cfg = json.loads(config_path.read_text())
        served = {}
        for line in Path(cfg.pop("embeddings")).read_text().splitlines():
            record = json.loads(line)
            served[record["id"]] = record["vector"]
        cfg.update(endpoint="http://embeddings.invalid/embed", **options)
        cfg_path = tmp_path / "endpoint.json"
        cfg_path.write_text(json.dumps(cfg))
        return cfg_path, served

    @staticmethod
    def serve(monkeypatch, served):
        import caselink.embeddings

        payloads = []

        def transport(endpoint, payload):
            payloads.append(payload)
            return {"vector": served[payload["id"]]}

        monkeypatch.setattr(caselink.embeddings, "_http_post_json", transport)
        return payloads

    def test_embed_and_pipeline_fetch_truncated_texts(self, dataset, monkeypatch):
        import numpy as np

        from caselink.embeddings import read_binary_embeddings

        tmp_path, config_path = dataset
        options = {"truncation_tokens": 3, "threads": 2}
        cfg_path, served = self.endpoint_config(tmp_path, config_path, **options)
        payloads = self.serve(monkeypatch, served)
        assert main(["embed", "--config", str(cfg_path), "--out", str(tmp_path / "e")]) == 0

        synth_cfg = json.loads(config_path.read_text())
        corpus = synth_cfg["corpus"]
        texts = {r["id"]: r["text"] for r in map(json.loads, Path(corpus).read_text().splitlines())}
        assert sorted(p["id"] for p in payloads) == sorted(served)
        for payload in payloads:
            assert len(payload["text"].split()) <= 3
            if payload["id"] in texts:
                assert payload["text"] == " ".join(texts[payload["id"]].split()[:3])
        table = read_binary_embeddings(tmp_path / "e" / "embeddings.emb1")
        assert set(table.vectors) == set(served)
        for node_id, vector in served.items():
            expected = np.asarray(vector) / np.linalg.norm(vector)
            np.testing.assert_allclose(table[node_id], expected, rtol=1e-6, atol=1e-7)

        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "p"),
                     "--epochs", "1"]) == 0
        assert ((tmp_path / "p" / "embeddings.emb1").read_bytes()
                == (tmp_path / "e" / "embeddings.emb1").read_bytes())
        # the staged commands fetch through the same options as the pipeline
        ckpt = tmp_path / "p" / "checkpoints" / "checkpoint.gatc"
        for command, flags in (("graph", []), ("train", ["--epochs", "1"]),
                               ("rank", ["--checkpoint", str(ckpt)])):
            assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / command),
                         *flags]) == 0, command
            for name in ("embeddings.emb1", "graph.gcg1"):
                assert ((tmp_path / command / name).read_bytes()
                        == (tmp_path / "p" / name).read_bytes()), (command, name)
        # not the JSONL; embed's vectors do not depend on the labels
        labeled = ("corpus", "labels", "lexicon")
        read = {"e": ("corpus", "lexicon"), "p": labeled, "graph": labeled, "train": labeled,
                "rank": labeled}
        for out, keys in read.items():
            manifest = read_manifest(tmp_path / out)
            assert manifest["config"]["endpoint"] == "http://embeddings.invalid/embed"
            assert manifest["config"]["truncation_tokens"] == 3
            assert manifest["config"]["threads"] == 2
            expected = {synth_cfg[k] for k in keys} | ({str(ckpt)} if out == "rank" else set())
            assert set(manifest["inputs"]) == expected, out

    def test_dim_other_than_the_served_one_is_data_error(self, dataset, monkeypatch, capsys):
        tmp_path, config_path = dataset
        cfg_path, served = self.endpoint_config(tmp_path, config_path)
        self.serve(monkeypatch, served)
        out = tmp_path / "e"
        assert main(["embed", "--config", str(cfg_path), "--dim", "5", "--out", str(out)]) == 2
        assert "has dim 8, expected 5" in capsys.readouterr().err
        assert not (out / "embeddings.emb1").exists()
        assert main(["embed", "--config", str(cfg_path), "--dim", "8", "--out", str(out)]) == 0

    def test_rank_with_a_checkpoint_of_another_input_dim_names_it(
            self, dataset, monkeypatch, capsys):
        from caselink.gat import init_params, save_checkpoint

        tmp_path, config_path = dataset
        cfg_path, served = self.endpoint_config(tmp_path, config_path, threads=1)
        self.serve(monkeypatch, served)
        ckpt = tmp_path / "other.gatc"
        save_checkpoint(init_params(0, [5, 8]), ckpt)  # the served vectors have dim 8
        out = tmp_path / "r"
        capsys.readouterr()
        assert main(["rank", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: vector for id '") and err.endswith(
            f"' has dim 8, expected 5 (the input dim of the checkpoint {ckpt})\n"), err
        assert written(out) == []

    def test_response_without_a_vector_is_data_error_naming_the_endpoint(
            self, dataset, monkeypatch, capsys):
        import caselink.embeddings

        tmp_path, config_path = dataset
        cfg_path, _ = self.endpoint_config(tmp_path, config_path)
        monkeypatch.setattr(caselink.embeddings, "_http_post_json",
                            lambda endpoint, payload: {"embedding": [1.0]})
        out = tmp_path / "e"
        assert main(["embed", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert 'from http://embeddings.invalid/embed has no "vector" field' in err
        assert "embedding response for '" in err
        assert not (out / "embeddings.emb1").exists()

    def test_zero_threads_is_data_error(self, dataset, monkeypatch, capsys):
        tmp_path, config_path = dataset
        cfg_path, served = self.endpoint_config(tmp_path, config_path, threads=0)
        payloads = self.serve(monkeypatch, served)
        assert main(["embed", "--config", str(cfg_path), "--out", str(tmp_path / "e")]) == 2
        assert "max_in_flight" in capsys.readouterr().err
        assert payloads == []


class TestReadme:
    def test_command_line_reference_lists_each_subcommands_flags(self):
        """README's per-subcommand flag table names exactly the flags each
        subcommand's parser accepts."""
        import argparse
        import re

        from caselink.cli import build_parser

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        reference = readme.split("## Command-line reference")[1].split("\n## ")[0]

        def flags(text):
            return set(re.findall(r"`(--[a-z0-9-]+)", text))

        groups = {name: flags(re.search(rf"^{name.capitalize()} flags: (.*?)\n\n", reference,
                                        re.M | re.S).group(1))
                  for name in ("common", "training", "synth")}
        documented = {}
        for row in re.finditer(r"^\| `(\w+)` \| (.*) \|$", reference, re.M):
            named = flags(row.group(2)) | groups["common"]
            for name in ("training", "synth"):
                if f"{name} flags" in row.group(2):
                    named |= groups[name]
            documented[row.group(1)] = named

        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        actual = {name: {s for a in p._actions for s in a.option_strings if s.startswith("--")}
                  - {"--help"} for name, p in sub.choices.items()}
        assert documented == actual


    def test_top_level_config_keys_are_the_runoptions_fields(self):
        """README's list of top-level config keys names every ``RunOptions``
        field, in order, and the sections ``_run`` reads."""
        import re

        from caselink.cli import _SECTIONS, RunOptions

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        keys, sections = re.search(r"The top-level keys are the fields of `RunOptions`:"
                                   r"(.*?), besides(.*?) sections", readme, re.S).groups()
        keys = re.sub(r"\(the `--out` flag\)", "", keys)
        assert re.findall(r"`(\w+)`", keys) == [f.name for f in dataclasses.fields(RunOptions)]
        assert re.findall(r"`(\w+)`", sections) == list(_SECTIONS)


class TestDamagedInputs:
    @staticmethod
    def binary_files(tmp_path):
        """One small valid file in each binary format, with its loader."""
        import numpy as np

        from caselink.bm25 import build_index, load_index, save_index
        from caselink.embeddings import (
            EmbeddingTable,
            read_binary_embeddings,
            write_binary_embeddings,
        )
        from caselink.gat import init_params, load_checkpoint, save_checkpoint
        from caselink.graph import load_graph, save_graph
        from conftest import make_store, random_gcg

        files = {}
        path = tmp_path / "bm25.bin"
        save_index(build_index(make_store([("d1", "a b c"), ("d2", "b c d")])), path, "x")
        files["BM25"] = (path, load_index)
        path = tmp_path / "embeddings.emb1"
        table = EmbeddingTable(dim=3, vectors={"a": np.ones(3), "bb": np.arange(1.0, 4.0)})
        write_binary_embeddings(table, path)
        files["EMB1"] = (path, read_binary_embeddings)
        path = tmp_path / "graph.gcg1"
        save_graph(random_gcg(seed=3, n_cases=5, n_charges=2, dim=3), path)
        files["GCG1"] = (path, load_graph)
        path = tmp_path / "checkpoint.gatc"
        save_checkpoint(init_params(0, [3, 2, 2]), path)
        files["GATC"] = (path, load_checkpoint)
        return files

    @staticmethod
    def with_huge_length(data, fmt):
        """``data`` with one length or count field set far past the end of the
        file: the entry count of the term-count matrix (BM25), the dim (EMB1),
        the edge count (GCG1) or the dims count (GATC)."""
        if fmt == "BM25":
            (meta_len,) = struct.unpack_from("<I", data, 8)
            offset, code, value = 12 + meta_len, "<Q", 2**40
        elif fmt == "EMB1":
            offset, code, value = 4, "<I", 2**31
        elif fmt == "GCG1":
            (header_len,) = struct.unpack_from("<I", data, 4)
            offset, code, value = 8 + header_len, "<Q", 2**40
        else:
            offset, code, value = 8, "<I", 2**31
        damaged = bytearray(data)
        struct.pack_into(code, damaged, offset, value)
        return bytes(damaged)

    @pytest.mark.parametrize("fmt", ["BM25", "EMB1", "GCG1", "GATC"])
    @pytest.mark.parametrize("cut", [4, 6, 9, 0.5, -1])
    def test_truncated_binary_raises_ingest_error(self, tmp_path, fmt, cut):
        from caselink.errors import IngestError

        path, load = self.binary_files(tmp_path)[fmt]
        data = path.read_bytes()
        keep = int(len(data) * cut) if isinstance(cut, float) else cut % len(data)
        load(path)  # the whole file loads
        path.write_bytes(data[:keep])
        with pytest.raises(IngestError, match="truncated"):
            load(path)

    @pytest.mark.parametrize("fmt", ["BM25", "EMB1", "GCG1", "GATC"])
    def test_every_prefix_raises_ingest_error(self, tmp_path, fmt):
        from caselink.errors import IngestError

        path, load = self.binary_files(tmp_path)[fmt]
        data = path.read_bytes()
        for keep in range(len(data)):
            path.write_bytes(data[:keep])
            with pytest.raises(IngestError, match="truncated"):
                load(path)

    @pytest.mark.parametrize("fmt", ["BM25", "EMB1", "GCG1", "GATC"])
    def test_huge_length_field_raises_ingest_error(self, tmp_path, fmt):
        from caselink.errors import IngestError

        path, load = self.binary_files(tmp_path)[fmt]
        path.write_bytes(self.with_huge_length(path.read_bytes(), fmt))
        with pytest.raises(IngestError, match="truncated"):
            load(path)

    @pytest.mark.parametrize("fmt", ["BM25", "EMB1", "GCG1", "GATC"])
    def test_trailing_bytes_raise_ingest_error(self, tmp_path, fmt):
        from caselink.errors import IngestError

        path, load = self.binary_files(tmp_path)[fmt]
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(IngestError, match="7 trailing bytes") as info:
            load(path)
        assert str(info.value) == f"{path}: 7 trailing bytes" and info.value.path == path

    @pytest.mark.parametrize("damaged,cut", [("graph", 6), ("checkpoint", 9),
                                             ("graph", "huge edge count")])
    def test_rank_on_truncated_input_is_data_error(self, dataset, capsys, damaged, cut):
        tmp_path, config_path = dataset
        cfg = ["--config", str(config_path)]
        gcg = tmp_path / "g" / "graph.gcg1"
        ckpt = tmp_path / "t" / "checkpoints" / "checkpoint.gatc"
        assert main(["graph", *cfg, "--out", str(gcg.parent)]) == 0
        assert main(["train", *cfg, "--graph", str(gcg), "--out", str(tmp_path / "t"),
                     "--epochs", "1"]) == 0
        target = gcg if damaged == "graph" else ckpt
        data = target.read_bytes()
        target.write_bytes(data[:cut] if isinstance(cut, int)
                           else self.with_huge_length(data, "GCG1"))
        commands = [["rank", *cfg, "--graph", str(gcg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "r")]]
        if damaged == "graph":
            commands.append(["train", *cfg, "--graph", str(gcg), "--out", str(tmp_path / "t2"),
                             "--epochs", "1"])
        for argv in commands:
            assert main(argv) == 2
            assert "truncated" in capsys.readouterr().err

    def test_rank_on_non_finite_checkpoint_is_data_error(self, dataset, capsys):
        import numpy as np

        from caselink.gat import load_checkpoint, save_checkpoint

        tmp_path, config_path = dataset
        cfg = ["--config", str(config_path)]
        ckpt = tmp_path / "t" / "checkpoints" / "checkpoint.gatc"
        assert main(["train", *cfg, "--out", str(tmp_path / "t"), "--epochs", "1"]) == 0
        params = load_checkpoint(ckpt)
        params.layers[0].W[0, 0] = np.nan
        save_checkpoint(params, ckpt)
        capsys.readouterr()
        assert main(["rank", *cfg, "--checkpoint", str(ckpt), "--out", str(tmp_path / "r")]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "r" / "run.tsv").exists()

    def test_rank_with_a_checkpoint_of_another_input_dim_is_data_error_naming_it(
            self, dataset, capsys):
        from caselink.gat import init_params, save_checkpoint

        tmp_path, config_path = dataset
        vectors = json.loads(config_path.read_text())["embeddings"]
        ckpt = tmp_path / "other.gatc"
        save_checkpoint(init_params(0, [5, 8]), ckpt)  # the dataset's vectors have dim 8
        capsys.readouterr()
        assert main(["rank", "--config", str(config_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            f"data error: line 1: {vectors}: vector for id 'q000' has dim 8, expected 5 "
            f"(the input dim of the checkpoint {ckpt})\n")
        assert not (tmp_path / "r" / "run.tsv").exists()

    @staticmethod
    def with_gcg1(data, header=None, edges=None):
        """``data``, a ``graph.gcg1``, with its JSON header passed through
        ``header`` and its (edges x 2) pair array through ``edges``."""
        (header_len,) = struct.unpack_from("<I", data, 4)
        head = json.loads(data[8:8 + header_len])
        at = 8 + header_len
        (n_edges,) = struct.unpack_from("<Q", data, at)
        pairs = [list(p) for p in struct.iter_unpack("<2I", data[at + 8:at + 8 + 8 * n_edges])]
        head, pairs = (header or (lambda h: h))(head), (edges or (lambda e: e))(pairs)
        packed = json.dumps(head).encode()
        return (data[:4] + struct.pack("<I", len(packed)) + packed
                + struct.pack("<Q", len(pairs)) + b"".join(struct.pack("<2I", *p) for p in pairs)
                + data[at + 8 + 8 * n_edges:])

    GRAPH_DAMAGE = {
        "n a string": ({"header": lambda h: h | {"n": str(h["n"])}}, "'n' is not an integer"),
        **{f"{name} negative": ({"header": lambda h, name=name: h | {name: -1}},
                                "header n, m and dim must be >= 0") for name in ("n", "m", "dim")},
        "ids short": ({"header": lambda h: h | {"ids": h["ids"][:-1]}}, r"node ids for n \+ m"),
        "ids repeated": ({"header": lambda h: h | {"ids": [h["ids"][1], *h["ids"][1:]]}},
                         "a node id is repeated"),
        "roles short": ({"header": lambda h: h | {"roles": h["roles"][:-1]}}, "roles for n ="),
        "role unknown": ({"header": lambda h: h | {"roles": ["judge", *h["roles"][1:]]}},
                         "'judge' is not a valid Role"),
        "no k_edges": ({"header": lambda h: {k: v for k, v in h.items() if k != "k_edges"}},
                       "'k_edges' is not an integer \\(missing\\)"),
        "self-loop": ({"edges": lambda e: [[e[0][0], e[0][0]], *e[1:]]}, "i < j <"),
        "repeated pair": ({"edges": lambda e: [e[0], *e]}, "not strictly increasing"),
        "column out of range": ({"edges": lambda e: [*e, [0, 10**6]]}, "i < j <"),
    }

    @pytest.mark.parametrize("damage", list(GRAPH_DAMAGE))
    def test_rank_on_a_malformed_graph_is_data_error_naming_it(self, dataset, capsys, damage):
        from caselink.errors import GraphConstructionError
        from caselink.graph import load_graph

        tmp_path, config_path = dataset
        cfg = ["--config", str(config_path)]
        gcg = tmp_path / "g" / "graph.gcg1"
        ckpt = tmp_path / "t" / "checkpoints" / "checkpoint.gatc"
        assert main(["graph", *cfg, "--out", str(gcg.parent)]) == 0
        assert main(["train", *cfg, "--graph", str(gcg), "--out", str(tmp_path / "t"),
                     "--epochs", "1"]) == 0
        rewrite, reason = self.GRAPH_DAMAGE[damage]
        gcg.write_bytes(self.with_gcg1(gcg.read_bytes(), **rewrite))
        with pytest.raises(GraphConstructionError, match=reason) as info:
            load_graph(gcg)
        assert str(gcg) in str(info.value)
        capsys.readouterr()
        assert main(["rank", *cfg, "--graph", str(gcg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "r")]) == 2
        assert str(gcg) in capsys.readouterr().err
        assert not (tmp_path / "r" / "run.tsv").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "+inf", "-inf"])
    def test_rank_on_a_non_finite_graph_feature_is_data_error_naming_it(self, dataset, capsys,
                                                                        value):
        tmp_path, config_path = dataset
        cfg = ["--config", str(config_path)]
        gcg = tmp_path / "g" / "graph.gcg1"
        ckpt = tmp_path / "t" / "checkpoints" / "checkpoint.gatc"
        assert main(["graph", *cfg, "--out", str(gcg.parent)]) == 0
        assert main(["train", *cfg, "--graph", str(gcg), "--out", str(tmp_path / "t"),
                     "--epochs", "1"]) == 0
        data = gcg.read_bytes()
        gcg.write_bytes(data[:-4] + struct.pack("<f", value))  # the last node's last feature
        capsys.readouterr()
        assert main(["rank", *cfg, "--graph", str(gcg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"data error: {gcg}: a node feature is non-finite\n"
        assert not (tmp_path / "r" / "run.tsv").exists()
        assert main(["train", *cfg, "--graph", str(gcg), "--out", str(tmp_path / "t2"),
                     "--epochs", "1"]) == 2
        assert capsys.readouterr().err == f"data error: {gcg}: a node feature is non-finite\n"

    @pytest.mark.parametrize("byte", [b"x", b"\xff"], ids=["x", "0xff"])
    def test_rank_on_a_graph_header_that_does_not_decode_is_data_error_naming_it(
            self, dataset, capsys, byte):
        tmp_path, config_path = dataset
        cfg = ["--config", str(config_path)]
        gcg = tmp_path / "g" / "graph.gcg1"
        ckpt = tmp_path / "t" / "checkpoints" / "checkpoint.gatc"
        assert main(["graph", *cfg, "--out", str(gcg.parent)]) == 0
        assert main(["train", *cfg, "--graph", str(gcg), "--out", str(tmp_path / "t"),
                     "--epochs", "1"]) == 0
        data = gcg.read_bytes()
        gcg.write_bytes(data[:8] + byte + data[9:])  # the header's first byte
        capsys.readouterr()
        assert main(["rank", *cfg, "--graph", str(gcg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert f"{gcg}: the JSON block at byte 8 is not valid" in err
        assert not (tmp_path / "r" / "run.tsv").exists()

    @pytest.mark.parametrize("name, damage, reason", [
        ("corpus", "utf-8", "line 3: {} is not valid UTF-8"),
        ("lexicon", "utf-8", "line 2: {} is not valid UTF-8"),
        ("embeddings", "utf-8", "line 3: {} is not valid UTF-8"),
        ("labels", "utf-8", "line 3: {} is not valid UTF-8"),
        ("labels", "truncated", "{}: invalid JSON"),
    ], ids=["corpus", "lexicon", "embeddings", "labels", "labels truncated"])
    def test_an_input_that_does_not_decode_is_data_error_naming_it(self, dataset, capsys,
                                                                   name, damage, reason):
        tmp_path, config_path = dataset
        source = Path(json.loads(config_path.read_text())[name])
        data = source.read_bytes()
        if damage == "truncated":
            data = data[:len(data) // 2]
        else:  # a Latin-1 "é" at the end of the line the reason names
            lines = data.split(b"\n")
            lines[int(reason.split()[1].rstrip(":")) - 1] += b" \xe9"
            data = b"\n".join(lines)
        damaged = tmp_path / source.name
        damaged.write_bytes(data)
        capsys.readouterr()
        assert main(["graph", "--config", str(config_path), f"--{name}", str(damaged),
                     "--out", str(tmp_path / "g")]) == 2
        assert reason.format(damaged) in capsys.readouterr().err
        assert not (tmp_path / "g" / "graph.gcg1").exists()

    @pytest.mark.parametrize("line, reason", [
        ("[1, 2]", "line 2: {}: line is not a JSON object"),
        ('"abc"', "line 2: {}: line is not a JSON object"),
        ('{"id": "x", "vector": 5}', "line 2: {}: vector for id 'x' is not a list of numbers"),
        ('{"vector": [1.0]}', "line 2: {}: missing required field 'id' or 'vector'"),
    ], ids=["a list", "a string", "a number for the vector", "no id"])
    def test_embed_on_a_malformed_embeddings_line_is_data_error(self, dataset, capsys, line,
                                                                reason):
        tmp_path, config_path = dataset
        cfg = json.loads(config_path.read_text())
        first, *rest = Path(cfg["embeddings"]).read_text().splitlines()
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_text("\n".join([first, line, *rest]) + "\n")
        assert main(["embed", "--config", str(config_path), "--embeddings", str(damaged),
                     "--out", str(tmp_path / "e")]) == 2
        assert reason.format(damaged) in capsys.readouterr().err


# A valid input of every text kind; each case of TestTextInputErrors damages one.
TEXT_INPUTS = {
    "corpus.jsonl": '{"id": "q1", "text": "a car theft", "role": "query"}\n'
                    '{"id": "c1", "text": "an older theft"}\n',
    "labels.json": '{"q1": ["c1"]}\n',
    "lexicon.txt": "theft\n",
    "embeddings.jsonl": '{"id": "q1", "vector": [1.0, 0.0]}\n'
                        '{"id": "c1", "vector": [0.0, 1.0]}\n'
                        '{"id": "charge_0", "vector": [1.0, 1.0]}\n',
    "run.tsv": "q1\tc1\t1\t0.500000\n",
    "config.json": '{"corpus": "corpus.jsonl", "labels": "labels.json"}\n',
}
# The subcommand that reads each input; "{corpus}" stands for the corpus path, and so on.
TEXT_INPUT_COMMANDS = {
    "corpus.jsonl": ["embed", "--corpus", "{corpus}", "--lexicon", "{lexicon}",
                     "--embeddings", "{embeddings}", "--out", "{out}"],
    "labels.json": ["ingest", "--corpus", "{corpus}", "--labels", "{labels}",
                    "--out", "{out}"],
    "run.tsv": ["eval", "--run", "{run}", "--labels", "{labels}"],
    "config.json": ["ingest", "--config", "{config}", "--out", "{out}"],
}
TEXT_INPUT_COMMANDS["lexicon.txt"] = TEXT_INPUT_COMMANDS["embeddings.jsonl"] = \
    TEXT_INPUT_COMMANDS["corpus.jsonl"]


class TestTextInputErrors:
    """A damaged text input exits 2 with an error that names the file and, when
    there is one, the line: ``line N: <path>: <message>``."""

    @staticmethod
    def run(tmp_path, name, damaged=None):
        for file, text in TEXT_INPUTS.items():
            (tmp_path / file).write_text(damaged if file == name and damaged else text)
        paths = {Path(file).stem: str(tmp_path / file) for file in TEXT_INPUTS}
        paths["out"] = str(tmp_path / "o")
        return main([arg.format(**paths) for arg in TEXT_INPUT_COMMANDS[name]])

    @pytest.mark.parametrize("name", TEXT_INPUTS)
    def test_the_undamaged_inputs_pass(self, tmp_path, capsys, name):
        assert self.run(tmp_path, name) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("name, damaged, line, reason", [
        ("corpus.jsonl", TEXT_INPUTS["corpus.jsonl"] + "[1, 2]\n", 3,
         "line is not a JSON object"),
        ("corpus.jsonl", '{"id": "", "text": "x"}\n', 1, "empty id"),
        ("corpus.jsonl", '{"id": "q1", "text": "x", "role": "judge"}\n', 1,
         "unknown role 'judge'"),
        ("labels.json", '{"q1": "c1"}\n', None, "labels for 'q1' must be a list of ids"),
        ("labels.json", "[]\n", None, "file is not a JSON object"),
        ("lexicon.txt", 'theft\n\n{"id": "c9"}\n', 3, "missing required field 'name'"),
        ("lexicon.txt", "theft\nTHEFT\n", 2, "duplicate charge name 'THEFT'"),
        ("lexicon.txt", 'theft\n{"id": "", "name": "fraud"}\n', 2, "empty id"),
        ("run.tsv", "q1\tc1\tx\t0.5\n", 1, "rank 'x' is not an integer"),
        ("run.tsv", "q1\tc1\t1\t0.5\nq1\tc1\t2\t0.5\nq1\tc1\t3\t0.5\n", 2,
         "query 'q1' repeats candidate 'c1'"),
        ("config.json", "[1]\n", None, "file is not a JSON object"),
        ("config.json", '{"corpus": "corpus.jsonl",\n', 2, "invalid JSON: "),
        ("embeddings.jsonl", TEXT_INPUTS["embeddings.jsonl"] + '{"id": "c1", "vector": [1, 1]}\n',
         4, "duplicate embedding id 'c1'"),
        ("corpus.jsonl", '{"id": null, "text": null}\n', 1,
         "'id' must be a string or a number, not null"),
        ("corpus.jsonl", '{"id": true, "text": "x"}\n', 1,
         "'id' must be a string or a number, not a boolean"),
        ("corpus.jsonl", '{"id": 7, "text": ["a", "b"]}\n', 1,
         "'text' must be a string, not an array"),
        ("corpus.jsonl", '{"id": "q1", "text": 7}\n', 1, "'text' must be a string, not a number"),
        ("lexicon.txt", 'theft\n{"id": null, "name": "fraud"}\n', 2,
         "'id' must be a string or a number, not null"),
        ("embeddings.jsonl", '{"id": ["q1"], "vector": [1.0, 0.0]}\n', 1,
         "'id' must be a string or a number, not an array"),
        ("embeddings.jsonl", TEXT_INPUTS["embeddings.jsonl"] + '{"id": {}, "vector": [1, 1]}\n',
         4, "'id' must be a string or a number, not an object"),
        ("lexicon.txt", 'theft\n{"id": "c1", "name": ["car", "theft"]}\n', 2,
         "'name' must be a string or a number, not an array"),
        ("lexicon.txt", '{"id": "c3", "name": true}\n', 1,
         "'name' must be a string or a number, not a boolean"),
        ("labels.json", '{"q1": [true, "c1"]}\n', None,
         "each label id for 'q1' must be a string or a number, not a boolean"),
        ("labels.json", '{"q1": [null]}\n', None,
         "each label id for 'q1' must be a string or a number, not null"),
        ("labels.json", '{"q1": [["c1"]]}\n', None,
         "each label id for 'q1' must be a string or a number, not an array"),
        ("labels.json", '{"q1": [{"id": "c1"}]}\n', None,
         "each label id for 'q1' must be a string or a number, not an object"),
    ], ids=["corpus not an object", "corpus empty id", "corpus unknown role",
            "labels value not a list", "labels not an object", "lexicon line without name",
            "lexicon name twice", "lexicon empty id", "run rank not an integer", "run candidate three times",
            "config not an object", "config truncated", "embedding id twice",
            "corpus null id and text", "corpus boolean id", "corpus array text",
            "corpus number text", "lexicon null id", "embedding array id",
            "embedding object id", "lexicon array name", "lexicon boolean name",
            "labels boolean id", "labels null id", "labels array id", "labels object id"])
    def test_damaged_input_is_data_error_naming_the_file_and_line(self, tmp_path, capsys, name,
                                                                   damaged, line, reason):
        assert self.run(tmp_path, name, damaged) == 2
        where = f"{tmp_path / name}: " if line is None else f"line {line}: {tmp_path / name}: "
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {where}{reason}"), err
        assert not (tmp_path / "o" / "manifest.json").exists()


class TestCorpusDigest:
    def test_directory_entries_cannot_run_together(self, tmp_path):
        import hashlib

        from caselink.cli import _digest_path

        (tmp_path / "one").mkdir()
        (tmp_path / "one" / "a").write_text("bc")
        (tmp_path / "two").mkdir()
        (tmp_path / "two" / "ab").write_text("c")
        assert _digest_path(tmp_path / "one") != _digest_path(tmp_path / "two")

        single = tmp_path / "one" / "a"
        assert _digest_path(single) == hashlib.sha256(b"bc").hexdigest()
