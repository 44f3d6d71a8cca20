"""End-to-end command-line behaviour driven through cli.main."""

import json
import re
from dataclasses import fields

import pytest

from forestrel import forest as forestmod
from forestrel.cli import build_parser, main
from forestrel.core import ArcProbabilities
from forestrel.dataio import save_arc_probs, synth_vocab, SynthSpec, save_vocab
from forestrel.encoder import Checkpoint, ModelConfig, checkpoint_to_bytes, init_params
from forestrel.training import TrainConfig


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = main(["synth", "--out-dir", str(out), "--count", "12", "--seed", "3"])
    assert code == 0
    return out


def _make_forests(synth_dir, out_name="forests.jsonl", extra=()):
    out = synth_dir / out_name
    code = main(
        [
            "forest",
            "--vocab", str(synth_dir / "vocab.json"),
            "--arcs", str(synth_dir / "arcs.jsonl"),
            "--out", str(out),
            *extra,
        ]
    )
    assert code == 0
    return out


class TestArgumentValidation:
    def test_kbest_rejects_gamma(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["forest", "--vocab", "v", "--arcs", "a", "--out", "o",
                  "--algo", "kbest", "--k", "2", "--gamma", "0.1"])
        assert excinfo.value.code == 2

    def test_edgewise_requires_gamma(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["forest", "--vocab", "v", "--arcs", "a", "--out", "o",
                  "--algo", "edgewise"])
        assert excinfo.value.code == 2

    def test_kbest_requires_k(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["forest", "--vocab", "v", "--arcs", "a", "--out", "o",
                  "--algo", "kbest"])
        assert excinfo.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--out-dir", "x", "--count", "1", "--frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "algo",
        [["--algo", "kbest", "--k", "0"], ["--algo", "edgewise", "--gamma", "0.1", "--k", "2"]],
    )
    def test_bad_k_rejected(self, algo):
        with pytest.raises(SystemExit) as excinfo:
            main(["forest", "--vocab", "v", "--arcs", "a", "--out", "o", *algo])
        assert excinfo.value.code == 2

    def test_every_run_prints_resolved_config(self, tmp_path, capsys):
        assert main(["synth", "--out-dir", str(tmp_path / "d"), "--count", "2",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("config {")
        resolved = json.loads(out.splitlines()[0][len("config "):])
        assert resolved["count"] == 2
        assert resolved["seed"] == 3

    def test_defaults_are_the_config_dataclasses(self):
        # flag dest -> (dataclass, field); every ModelConfig and TrainConfig
        # field has a train flag
        train_flags = {
            "dim_word": (ModelConfig, "dim_word"),
            "dim_label": (ModelConfig, "dim_label"),
            "dim_hidden": (ModelConfig, "dim_hidden"),
            "steps": (ModelConfig, "steps"),
            "dropout": (ModelConfig, "dropout"),
            "weighted": (ModelConfig, "weighted"),
            "ner_loss": (ModelConfig, "ner_head"),
            "seed": (ModelConfig, "seed"),
            "lr": (TrainConfig, "learning_rate"),
            "batch": (TrainConfig, "batch_size"),
            "l2": (TrainConfig, "l2"),
            "epochs": (TrainConfig, "epochs"),
            "patience": (TrainConfig, "patience"),
        }
        synth_flags = {
            "min_len": (SynthSpec, "min_len"),
            "max_len": (SynthSpec, "max_len"),
            "labels": (SynthSpec, "n_dep_labels"),
            "temperature": (SynthSpec, "temperature"),
            "seed": (SynthSpec, "seed"),
        }
        assert {(cls, f.name) for cls in (ModelConfig, TrainConfig) for f in fields(cls)} == set(
            train_flags.values()
        )
        parser = build_parser()
        train = parser.parse_args(["train", "--vocab", "v", "--corpus", "c", "--dev-corpus", "d",
                                   "--checkpoint", "k", "--log", "l"])
        synth = parser.parse_args(["synth", "--out-dir", "o", "--count", "1"])
        for args, flags in ((train, train_flags), (synth, synth_flags)):
            for dest, (cls, name) in flags.items():
                got, want = getattr(args, dest), getattr(cls, name)
                # the type too: the resolved config line prints 1e-08, not 0
                assert (got, type(got)) == (want, type(want)), dest


class TestForestCommand:
    def test_edgewise_writes_forests(self, synth_dir, capsys):
        path = _make_forests(synth_dir, extra=("--algo", "edgewise", "--gamma", "0.2"))
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 12
        assert "wrote 12 forests" in capsys.readouterr().out

    def test_kbest_k1_reports_unit_density(self, synth_dir, capsys):
        _make_forests(synth_dir, out_name="k1.jsonl", extra=("--algo", "kbest", "--k", "1"))
        assert "mean density 1.0000" in capsys.readouterr().out

    def test_uncovered_positions_fail_without_fallback(self, tmp_path, capsys):
        vocab = synth_vocab(SynthSpec(n_sentences=1))
        save_vocab(vocab, tmp_path / "vocab.json")
        sparse = ArcProbabilities("s0", 2, vocab, [(2, 0, "dep0", 0.9)])
        save_arc_probs({"s0": sparse}, tmp_path / "arcs.jsonl")
        args = ["forest", "--vocab", str(tmp_path / "vocab.json"),
                "--arcs", str(tmp_path / "arcs.jsonl"),
                "--out", str(tmp_path / "f.jsonl"), "--algo", "kbest", "--k", "2"]
        assert main(args) == 1
        assert "uncovered modifiers" in capsys.readouterr().err
        assert main(args + ["--fallback-eps", "0.3"]) == 0

    def test_sentence_without_a_projective_tree_fails(self, tmp_path, capsys):
        vocab = synth_vocab(SynthSpec(n_sentences=1))
        save_vocab(vocab, tmp_path / "vocab.json")
        cycle = ArcProbabilities("s0", 2, vocab, [(1, 2, "dep0", 0.5), (2, 1, "dep0", 0.5)])
        save_arc_probs({"s0": cycle}, tmp_path / "arcs.jsonl")
        code = main(["forest", "--vocab", str(tmp_path / "vocab.json"),
                     "--arcs", str(tmp_path / "arcs.jsonl"),
                     "--out", str(tmp_path / "f.jsonl"), "--algo", "kbest", "--k", "2"])
        assert code == 1
        assert "sentence 's0': no projective tree" in capsys.readouterr().err

    def test_chart_over_the_candidate_limit_fails_cleanly(self, synth_dir, monkeypatch, capsys):
        monkeypatch.setattr(forestmod, "MAX_CANDIDATES", 100)
        out = synth_dir / "k5.jsonl"
        code = main(["forest", "--vocab", str(synth_dir / "vocab.json"),
                     "--arcs", str(synth_dir / "arcs.jsonl"),
                     "--out", str(out), "--algo", "kbest", "--k", "5"])
        assert code == 1
        assert re.search(r"^error: sentence '[^']+': n=\d+, K=5 needs \d+ chart float64s",
                         capsys.readouterr().err, re.MULTILINE)
        assert not out.exists()

    def test_bad_vocab_path_is_reported(self, tmp_path, capsys):
        code = main(["forest", "--vocab", str(tmp_path / "nope.json"),
                     "--arcs", "a", "--out", "o", "--algo", "edgewise", "--gamma", "0.1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestStatsCommand:
    def test_table_with_gold(self, synth_dir, capsys):
        forests = _make_forests(synth_dir, extra=("--algo", "edgewise", "--gamma", "0.1"))
        code = main(["stats", "--vocab", str(synth_dir / "vocab.json"),
                     "--corpus", str(synth_dir / "corpus.jsonl"),
                     "--forests", str(forests),
                     "--gold", str(synth_dir / "gold.jsonl")])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2].split("\t") == ["#Edge/#Node", "LAS", "Conn.Ratio(%)"]
        density, las, conn = (float(x) for x in out[-1].split("\t"))
        assert density > 0
        assert 0.0 <= las <= 100.0
        assert 0.0 <= conn <= 100.0

    def test_table_without_gold(self, synth_dir, capsys):
        forests = _make_forests(synth_dir, extra=("--algo", "edgewise", "--gamma", "0.1"))
        code = main(["stats", "--vocab", str(synth_dir / "vocab.json"),
                     "--corpus", str(synth_dir / "corpus.jsonl"),
                     "--forests", str(forests)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2].split("\t") == ["#Edge/#Node", "Conn.Ratio(%)"]

    def test_missing_forest_record(self, synth_dir, capsys):
        forests = _make_forests(synth_dir, extra=("--algo", "edgewise", "--gamma", "0.1"))
        lines = forests.read_text(encoding="utf-8").strip().split("\n")
        forests.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        code = main(["stats", "--vocab", str(synth_dir / "vocab.json"),
                     "--corpus", str(synth_dir / "corpus.jsonl"),
                     "--forests", str(forests)])
        assert code == 1
        assert "no forest record" in capsys.readouterr().err


    def test_forest_of_the_wrong_length(self, synth_dir, capsys):
        forests = _make_forests(synth_dir, extra=("--algo", "edgewise", "--gamma", "0.1"))
        lines = forests.read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        n = first["n"]
        first["n"] = n + 3
        forests.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n", encoding="utf-8")
        code = main(["stats", "--vocab", str(synth_dir / "vocab.json"),
                     "--corpus", str(synth_dir / "corpus.jsonl"),
                     "--forests", str(forests)])
        assert code == 1
        message = f"error: forest for {first['id']!r} has {n + 3} tokens, sentence has {n}"
        assert message in capsys.readouterr().err


class TestTrainEvalPredict:
    def _train(self, synth_dir, forests, ckpt, log, structure="forest", extra=()):
        return main(
            [
                "train",
                "--vocab", str(synth_dir / "vocab.json"),
                "--corpus", str(synth_dir / "corpus.jsonl"),
                "--dev-corpus", str(synth_dir / "corpus.jsonl"),
                "--forests", str(forests),
                "--dev-forests", str(forests),
                "--checkpoint", str(ckpt),
                "--log", str(log),
                "--structure", structure,
                "--dim-word", "8", "--dim-label", "8", "--dim-hidden", "8",
                "--epochs", "2", "--seed", "1",
                *extra,
            ]
        )

    def test_full_pipeline(self, synth_dir, tmp_path, capsys):
        forests = _make_forests(synth_dir, extra=("--algo", "edgewise", "--gamma", "0.2"))
        ckpt = tmp_path / "model.json"
        log = tmp_path / "metrics.tsv"
        assert self._train(synth_dir, forests, ckpt, log, extra=("--weighted",)) == 0
        train_out = capsys.readouterr().out
        assert "best dev F1" in train_out
        header = log.read_text(encoding="utf-8").splitlines()[0]
        assert header == "epoch\ttrain_loss\tdev_precision\tdev_recall\tdev_f1"

        code = main(["eval", "--checkpoint", str(ckpt),
                     "--corpus", str(synth_dir / "corpus.jsonl"),
                     "--forests", str(forests)])
        assert code == 0
        eval_out = capsys.readouterr().out
        assert "precision" in eval_out and "f1" in eval_out

        pred_path = tmp_path / "pred.jsonl"
        code = main(["predict", "--checkpoint", str(ckpt),
                     "--corpus", str(synth_dir / "corpus.jsonl"),
                     "--forests", str(forests),
                     "--out", str(pred_path)])
        assert code == 0
        rows = [json.loads(line) for line in pred_path.read_text().strip().split("\n")]
        assert len(rows) == 12
        assert set(rows[0]) == {"id", "relation", "prob"}

    def _gold_with(self, synth_dir, path, edit):
        """gold.jsonl with ``edit`` applied to the columns of its third tree (s00002)."""
        lines = (synth_dir / "gold.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        edit(records[2])
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        return path

    @staticmethod
    def _second_head_at_3(record):
        record["modifier"].append(3)
        record["head"].append(1 if record["head"][2] == 0 else 0)
        record["label"].append(record["label"][2])
        record["prob"].append(0.1)

    def test_train_tree_refuses_a_word_with_two_heads(self, synth_dir, tmp_path, capsys):
        forests = self._gold_with(synth_dir, tmp_path / "f.jsonl", self._second_head_at_3)
        ckpt = tmp_path / "model.json"
        capsys.readouterr()
        assert self._train(synth_dir, forests, ckpt, tmp_path / "m.tsv", structure="tree") == 1
        assert capsys.readouterr().err == (
            "error: structure 'tree' needs one head per word; 's00002' position 3 has 2 heads\n"
        )
        assert not ckpt.exists()

    def test_eval_tree_model_refuses_a_word_without_head(self, synth_dir, tmp_path, capsys):
        ckpt = tmp_path / "model.json"
        gold = synth_dir / "gold.jsonl"
        assert self._train(synth_dir, gold, ckpt, tmp_path / "m.tsv", structure="tree") == 0

        def drop_first_arc(record):
            for column in ("modifier", "head", "label", "prob"):
                del record[column][0]

        forests = self._gold_with(synth_dir, tmp_path / "f.jsonl", drop_first_arc)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--corpus", str(synth_dir / "corpus.jsonl"), "--forests", str(forests)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: structure 'tree' needs one head per word; 's00002' position 1 has 0 heads\n"
        )

    def test_eval_forest_model_requires_forests(self, synth_dir, tmp_path, capsys):
        forests = _make_forests(synth_dir, extra=("--algo", "edgewise", "--gamma", "0.2"))
        ckpt = tmp_path / "model.json"
        assert self._train(synth_dir, forests, ckpt, tmp_path / "m.tsv") == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--corpus", str(synth_dir / "corpus.jsonl")])
        assert code == 1
        assert "requires a forest file" in capsys.readouterr().err

    def test_textonly_ignores_forests_with_note(self, synth_dir, tmp_path, capsys):
        forests = _make_forests(synth_dir, extra=("--algo", "edgewise", "--gamma", "0.2"))
        ckpt = tmp_path / "model.json"
        code = self._train(synth_dir, forests, ckpt, tmp_path / "m.tsv", structure="textonly")
        assert code == 0
        captured = capsys.readouterr()
        assert "ignores forests" in captured.err

    def test_external_gold_flag(self, synth_dir, tmp_path, capsys):
        forests = _make_forests(synth_dir, extra=("--algo", "edgewise", "--gamma", "0.2"))
        ckpt = tmp_path / "model.json"
        assert self._train(synth_dir, forests, ckpt, tmp_path / "m.tsv") == 0
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--corpus", str(synth_dir / "corpus.jsonl"),
                     "--forests", str(forests),
                     "--external-gold", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recall_denominator 500" in out

    def test_eval_and_predict_report_skipped_records(self, synth_dir, tmp_path, capsys):
        forests = _make_forests(synth_dir, extra=("--algo", "edgewise", "--gamma", "0.2"))
        ckpt = tmp_path / "model.json"
        assert self._train(synth_dir, forests, ckpt, tmp_path / "m.tsv") == 0
        lines = (synth_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        bad_span = json.loads(lines[0])
        bad_span["mention1"] = {"start": 0, "end": 1}
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "\n".join([lines[0], "{not json", *lines[1:], json.dumps(bad_span)]) + "\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        common = ["--checkpoint", str(ckpt), "--corpus", str(corpus), "--forests", str(forests)]
        assert main(["eval", *common]) == 0
        captured = capsys.readouterr()
        assert "skipped 2 records" in captured.out.splitlines()
        assert captured.err.count("skipped: ") == 2
        pred_path = tmp_path / "pred.jsonl"
        assert main(["predict", *common, "--out", str(pred_path)]) == 0
        assert "skipped 2 records" in capsys.readouterr().out.splitlines()
        assert len(pred_path.read_text(encoding="utf-8").splitlines()) == 12
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--corpus", str(synth_dir / "corpus.jsonl"), "--forests", str(forests)]) == 0
        assert "skipped 0 records" in capsys.readouterr().out.splitlines()

    def test_predict_writes_a_non_ascii_id_as_raw_utf8(self, synth_dir, tmp_path):
        forests = _make_forests(synth_dir, extra=("--algo", "edgewise", "--gamma", "0.2"))
        ckpt = tmp_path / "model.json"
        assert self._train(synth_dir, forests, ckpt, tmp_path / "m.tsv", structure="textonly") == 0
        first, *rest = (synth_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        renamed = {**json.loads(first), "id": "sätz-ü"}
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "\n".join([json.dumps(renamed, ensure_ascii=False), *rest]) + "\n", encoding="utf-8"
        )
        pred_path = tmp_path / "pred.jsonl"
        assert main(["predict", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                     "--out", str(pred_path)]) == 0
        first_row = pred_path.read_bytes().split(b"\n")[0]
        assert first_row.startswith('{"id":"sätz-ü","prob":'.encode("utf-8"))


    def test_mistyped_checkpoint_is_an_error_line(self, synth_dir, tmp_path, capsys):
        config = ModelConfig(dim_word=3, dim_label=2, dim_hidden=2)
        vocab = synth_vocab(SynthSpec(n_sentences=1))
        words = ("<unk>", "w0")
        params = init_params(config, vocab, len(words))
        ckpt_bytes = checkpoint_to_bytes(Checkpoint(config, "textonly", vocab, words, params))
        payload = json.loads(ckpt_bytes)
        payload["tensors"]["cls.W"]["shape"] = 5
        ckpt = tmp_path / "model.json"
        ckpt.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--corpus", str(synth_dir / "corpus.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {ckpt}: checkpoint tensor 'cls.W' field 'shape' must be a list" in err
        assert "Traceback" not in err

    def test_negative_l2_is_an_error_line(self, synth_dir, tmp_path, capsys):
        forests = _make_forests(synth_dir, extra=("--algo", "edgewise", "--gamma", "0.2"))
        ckpt = tmp_path / "model.json"
        capsys.readouterr()
        code = self._train(synth_dir, forests, ckpt, tmp_path / "m.tsv", extra=("--l2", "-1"))
        assert code == 1
        assert capsys.readouterr().err == "error: l2 must be a finite number >= 0, got -1.0\n"
        assert not ckpt.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_is_an_error_line(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--out-dir", str(data), "--count", "30", "--seed", "3"]) == 0
        forests = _make_forests(data, extra=("--algo", "edgewise", "--gamma", "0.2"))
        ckpt = tmp_path / "model.json"
        capsys.readouterr()
        code = main(["train", "--vocab", str(data / "vocab.json"),
                     "--corpus", str(data / "corpus.jsonl"),
                     "--dev-corpus", str(data / "corpus.jsonl"),
                     "--forests", str(forests), "--dev-forests", str(forests),
                     "--checkpoint", str(ckpt), "--log", str(tmp_path / "m.tsv"),
                     "--dim-word", "4", "--dim-label", "4", "--dim-hidden", "4",
                     "--epochs", "2", "--lr", "1e300"])
        assert code == 1
        assert capsys.readouterr().err == "error: non-finite gradient for parameter 'word_emb'\n"
        assert not ckpt.exists()


class TestSynthCommand:
    def test_nan_temperature_is_an_error_line(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = main(["synth", "--out-dir", str(out), "--count", "2", "--temperature", "nan"])
        assert code == 1
        assert capsys.readouterr().err == "error: temperature must be a finite number > 0, got nan\n"
        assert not out.exists()

    def test_gold_arc_below_the_storage_floor_is_an_error_line(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = main(["synth", "--out-dir", str(out), "--count", "30", "--seed", "18",
                     "--temperature", "50"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: gold arc for 's00026' position 7 fell below the storage floor; "
            "lower the temperature\n"
        )
        assert not out.exists()


class TestGradcheckCommand:
    @pytest.mark.slow
    def test_passes_at_default_tolerance(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "gradient check passed" in out
        assert out.count("max_rel_err") == 12

    def test_exit_code_reflects_tolerance(self, capsys, monkeypatch):
        # exit-path logic only; the heavy numeric sweep runs in the test above
        monkeypatch.setattr(
            "forestrel.training.gradient_check",
            lambda seed: [("structure=tree weighted=0 ner=0", 2e-3)],
        )
        assert main(["gradcheck"]) == 1
        assert "FAILED" in capsys.readouterr().err
        assert main(["gradcheck", "--tolerance", "0.01"]) == 0
