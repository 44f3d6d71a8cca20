"""Losses, optimizer, metrics, and the training loop."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from forestrel import training
from forestrel.core import DependencyForest, LabelVocab, RelationInstance, Sentence
from forestrel.dataio import SynthSpec, synth_generate
from forestrel.encoder import (
    ModelConfig,
    ModelParams,
    build_word_index,
    checkpoint_to_bytes,
    init_params,
    log_softmax,
    softmax,
)
from forestrel.forest import edgewise_forest
from forestrel.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    OptimizationError,
    OptimizerState,
    TrainConfig,
    VocabMismatchError,
    adam_step,
    evaluate,
    format_metric_log,
    predict,
    score_predictions,
    train,
)


def _chunk_loss_of(rel_logits, gold, ner_logits=None, tags=None):
    """``_loss_and_seeds`` on given head logits: instance i has relation row i
    and, with ``ner_logits``, the next ``len(tags[i])`` word rows."""
    rel_logits = np.asarray(rel_logits, dtype=float).reshape(len(gold), -1)
    tags = tags if tags is not None else [(0,)] * len(gold)
    chunk = [
        training._Encoded(np.zeros(len(t), dtype=np.int64), (1, 2), (1, 2), None, g, tuple(t))
        for g, t in zip(gold, tags)
    ]
    trace = SimpleNamespace(
        rel_logits=rel_logits, rel_probs=softmax(rel_logits), ner_logits=ner_logits
    )
    return training._loss_and_seeds(trace, chunk)


class TestLosses:
    def test_uniform_logits_cost_log_k(self):
        assert _chunk_loss_of(np.zeros(6), [2])[0] == pytest.approx(math.log(6))
        assert _chunk_loss_of(np.full(4, 3.7), [0])[0] == pytest.approx(math.log(4))
        # a chunk costs the sum over its instances
        assert _chunk_loss_of(np.zeros((3, 5)), [0, 4, 2])[0] == pytest.approx(3 * math.log(5))

    def test_confident_correct_prediction_costs_little(self):
        logits = np.array([10.0, 0.0, 0.0])
        assert _chunk_loss_of(logits, [0])[0] < 1e-4

    def test_relation_grad_is_softmax_minus_onehot(self):
        logits = np.array([[1.0, 2.0, -0.5], [0.3, -1.0, 4.0]])
        _, grad, d_ner = _chunk_loss_of(logits, [1, 0])
        assert d_ner is None
        for row, gold in ((0, 1), (1, 0)):
            e = np.exp(logits[row] - logits[row].max())
            expected = e / e.sum()
            expected[gold] -= 1.0
            np.testing.assert_allclose(grad[row], expected, rtol=1e-12)
            assert grad[row].sum() == pytest.approx(0.0, abs=1e-12)

    def test_ner_loss_is_mean_over_tokens(self):
        # uniform relation and tag logits: log 3 for the relation, and the
        # mean over two words of log 3 each for the tags
        total = _chunk_loss_of(np.zeros(3), [0], np.zeros((2, 3)), [(0, 2)])[0]
        assert total == pytest.approx(2 * math.log(3))
        # a 2-word and a 4-word instance: each adds the mean over its own words
        ner = np.zeros((6, 3))
        ner[2:, 0] = math.log(2.0)  # words of the second instance: p(tag 0) = 1/2
        total = _chunk_loss_of(np.zeros((2, 3)), [0, 0], ner, [(1, 1), (0, 0, 0, 0)])[0]
        assert total == pytest.approx(3 * math.log(3) + math.log(2))

    def test_ner_grad_scaled_by_token_count(self):
        _, _, grad = _chunk_loss_of(np.zeros(3), [0], np.zeros((4, 3)), [(0, 1, 2, 0)])
        assert grad.shape == (4, 3)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)
        # uniform softmax is 1/3; the gold column subtracts 1; everything / 4
        assert grad[0, 0] == pytest.approx((1 / 3 - 1) / 4)
        assert grad[0, 1] == pytest.approx((1 / 3) / 4)
        # in a chunk each tag row is scaled by its own instance's word count
        _, _, grad = _chunk_loss_of(np.zeros((2, 3)), [0, 0], np.zeros((6, 3)),
                                    [(0, 0, 0, 0), (1, 1)])
        assert grad[0, 0] == pytest.approx((1 / 3 - 1) / 4)
        assert grad[4, 1] == pytest.approx((1 / 3 - 1) / 2)
        assert grad[5, 0] == pytest.approx((1 / 3) / 2)

    def test_total_loss_combination(self):
        rng = np.random.default_rng(4)
        rel, ner = rng.normal(size=(2, 3)), rng.normal(size=(5, 3))
        tags = [(0, 1), (2, 0, 1)]
        rel_only = _chunk_loss_of(rel, [2, 1], tags=tags)[0]
        with_ner = _chunk_loss_of(rel, [2, 1], ner, tags)[0]
        tag_terms = [
            -log_softmax(ner[words])[np.arange(len(t)), list(t)].mean()
            for words, t in ((slice(0, 2), tags[0]), (slice(2, 5), tags[1]))
        ]
        assert with_ner == pytest.approx(rel_only + sum(tag_terms), rel=1e-12)


def _reference_loss_and_seeds(trace, chunk, use_ner):
    """The chunk's loss and seeds one instance at a time, by the per-instance
    formulas: each relation row and each instance's tag rows on their own."""
    d_rel = np.empty_like(trace.rel_logits)
    d_ner = np.empty_like(trace.ner_logits) if use_ner else None
    total, offset = 0.0, 0
    for i, enc in enumerate(chunk):
        row = trace.rel_logits[i]
        loss = float(-log_softmax(row)[enc.relation_index])
        d_rel[i] = softmax(row)
        d_rel[i, enc.relation_index] -= 1.0
        if use_ner:
            n = len(enc.token_ids)
            words = trace.ner_logits[offset : offset + n]
            logp = log_softmax(words)
            loss = loss + float(-sum(logp[j, tag] for j, tag in enumerate(enc.tag_indices)) / n)
            grad = softmax(words)
            grad[np.arange(n), np.asarray(enc.tag_indices)] -= 1.0
            d_ner[offset : offset + n] = grad / n
            offset += n
        total += loss
    return total, d_rel, d_ner


@pytest.mark.parametrize("use_ner", [False, True])
def test_chunk_loss_matches_per_instance_reference_bitwise(use_ner):
    data = synth_generate(SynthSpec(n_sentences=5, min_len=3, max_len=14, seed=34))
    instances = list(data.instances)
    lengths = [inst.sentence.n for inst in instances]
    assert max(lengths) >= 9, lengths
    words = training._build_words(instances)
    chunk = training._encode_instances(
        instances, None, data.vocab, build_word_index(words), "textonly", use_ner
    )
    config = ModelConfig(dim_word=4, dim_label=3, dim_hidden=4, ner_head=use_ner, seed=2)
    params = init_params(config, data.vocab, len(words))
    trace = training._forward_chunk(params, config, chunk, train=False, rng=None)

    total, d_rel, d_ner = training._loss_and_seeds(trace, chunk)
    want_total, want_rel, want_ner = _reference_loss_and_seeds(trace, chunk, use_ner)
    assert np.float64(total).tobytes() == np.float64(want_total).tobytes()
    assert d_rel.tobytes() == want_rel.tobytes()
    if use_ner:
        assert d_ner.tobytes() == want_ner.tobytes()
        # On this chunk, summing each instance's tag terms with numpy's
        # pairwise sum or with np.add.reduceat changes the total, so the
        # comparison above would catch either.
        gold = [enc.relation_index for enc in chunk]
        rel = -log_softmax(trace.rel_logits)[np.arange(len(chunk)), gold]
        tags = np.concatenate([enc.tag_indices for enc in chunk])
        picked = log_softmax(trace.ner_logits)[np.arange(len(tags)), tags]
        starts = np.cumsum(lengths) - lengths
        pairwise = [np.sum(picked[s : s + n]) for s, n in zip(starts, lengths)]
        for tag_sums in (pairwise, np.add.reduceat(picked, starts)):
            assert sum(r + -t / n for r, t, n in zip(rel, tag_sums, lengths)) != want_total
    else:
        assert d_ner is None


class TestAdam:
    def _single(self, value, grad, config, steps=1):
        params = ModelParams({"w": np.array([[value]])})
        state = OptimizerState.for_params(params)
        for _ in range(steps):
            adam_step(params, ModelParams({"w": np.array([[grad]])}), state, config)
        return params["w"][0, 0]

    def test_first_step_closed_form(self):
        # With bias correction, step 1 moves by lr * g / (|g| + eps).
        config = TrainConfig(learning_rate=0.1, l2=0.0)
        g = 0.25
        expected = 1.0 - 0.1 * g / (abs(g) + 1e-8)
        assert self._single(1.0, g, config) == pytest.approx(expected, rel=1e-9)

    def test_zero_gradient_means_no_motion(self):
        config = TrainConfig(learning_rate=0.1, l2=0.0)
        assert self._single(1.0, 0.0, config, steps=3) == 1.0

    def test_zero_learning_rate_freezes_parameters(self):
        config = TrainConfig(learning_rate=0.0, l2=0.0)
        assert self._single(1.0, 5.0, config, steps=3) == 1.0

    def test_l2_touches_weight_matrices_only(self):
        params = ModelParams(
            {
                "cls.W": np.ones((2, 2)),
                "cls.b": np.ones(2),
                "word_emb": np.ones((3, 2)),
            }
        )
        grads = ModelParams({name: np.zeros_like(t) for name, t in params.items()})
        state = OptimizerState.for_params(params)
        adam_step(params, grads, state, TrainConfig(learning_rate=0.1, l2=0.01))
        assert not np.array_equal(params["cls.W"], np.ones((2, 2)))
        assert np.array_equal(params["cls.b"], np.ones(2))
        assert np.array_equal(params["word_emb"], np.ones((3, 2)))

    @staticmethod
    def _assert_textbook_bits(start, rng):
        # The textbook expressions, temporaries and all; adam_step must give
        # the same bits on weight matrices (with L2), biases and embeddings.
        config = TrainConfig(learning_rate=0.01, l2=0.05)
        params = ModelParams({name: t.copy() for name, t in start.items()})
        state = OptimizerState.for_params(params)
        theta = {name: t.copy() for name, t in start.items()}
        first = {name: np.zeros_like(t) for name, t in start.items()}
        second = {name: np.zeros_like(t) for name, t in start.items()}
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        for t in range(1, 6):
            grads = {
                name: rng.choice([-1.0, 1.0], size=x.shape) * 10.0 ** rng.uniform(-8, 2, x.shape)
                for name, x in start.items()
            }
            adam_step(params, ModelParams(grads), state, config)
            for name in start:
                g = grads[name]
                if g.ndim == 2 and not name.endswith("_emb"):
                    g = g + 2.0 * config.l2 * theta[name]
                first[name] = b1 * first[name] + (1.0 - b1) * g
                second[name] = b2 * second[name] + (1.0 - b2) * (g * g)
                m_hat = first[name] / (1.0 - b1**t)
                v_hat = second[name] / (1.0 - b2**t)
                theta[name] = theta[name] - config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
                got, want = params[name].view(np.uint64), theta[name].view(np.uint64)
                assert np.array_equal(got, want), (name, t)

    def test_bitwise_equal_to_textbook_update(self):
        rng = np.random.default_rng(3)
        start = {
            "cls.W": rng.normal(size=(3, 4)),
            "cls.b": rng.normal(size=4),
            "word_emb": rng.normal(size=(5, 2)),
        }
        self._assert_textbook_bits(start, rng)

    def test_bitwise_equal_to_textbook_update_over_blocks(self, vocab5):
        # A whole model whose vector spans several blocks, the L2 slice
        # starting inside one.
        config = ModelConfig(dim_word=8, dim_label=4, dim_hidden=32, ner_head=True, seed=4)
        model = init_params(config, vocab5, num_words=40)
        assert model.flat.size > 2 * ADAM_BLOCK and model.l2.start % ADAM_BLOCK
        self._assert_textbook_bits(model, np.random.default_rng(3))

    def test_non_finite_gradient_is_fatal(self):
        params = ModelParams({"w": np.ones((2, 2))})
        state = OptimizerState.for_params(params)
        bad = ModelParams({"w": np.array([[1.0, np.nan], [0.0, 0.0]])})
        with pytest.raises(OptimizationError, match="'w'"):
            adam_step(params, bad, state, TrainConfig())

    def test_non_finite_gradient_in_the_last_tensor_is_named(self, vocab5):
        params = init_params(ModelConfig(dim_word=3, dim_label=2, dim_hidden=2), vocab5, 5)
        grads = params.zero_grads()
        grads.flat[-1] = np.nan
        (last,) = [name for name, g in grads.items() if np.isnan(g).any()]
        assert last != list(params)[-1]  # the layout's order is not the names'
        state = OptimizerState.for_params(params)
        before = params.flat.copy()
        with pytest.raises(OptimizationError, match=f"parameter '{re.escape(last)}'"):
            adam_step(params, grads, state, TrainConfig())
        assert params.flat.tobytes() == before.tobytes() and state.step == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)

    @pytest.mark.parametrize("name", ["learning_rate", "l2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rates_must_be_finite_and_non_negative(self, name, value):
        message = f"{name} must be a finite number >= 0, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(**{name: value})


class TestScorePredictions:
    def test_micro_scores_hand_case(self):
        # none_index = 2; predictions: 3 positive (2 right), gold: 3 positive
        predicted = [0, 1, 2, 0]
        gold = [0, 1, 1, 2]
        report = score_predictions(predicted, gold, none_index=2)
        assert report.correct == 2
        assert report.predicted == 3
        assert report.gold == 3
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == pytest.approx(2 / 3)
        assert report.f1 == pytest.approx(2 / 3)

    def test_none_predictions_are_not_positives(self):
        report = score_predictions([2, 2, 2], [0, 1, 2], none_index=2)
        assert report.predicted == 0
        assert report.precision == 0.0 and report.recall == 0.0 and report.f1 == 0.0

    def test_external_gold_count_replaces_recall_denominator(self):
        predicted = [0] * 8 + [1] * 2
        gold = [0] * 8 + [0] * 2
        report = score_predictions(predicted, gold, none_index=9, external_gold_count=16)
        assert report.precision == pytest.approx(0.8)
        assert report.recall == pytest.approx(0.5)
        assert report.f1 == pytest.approx(2 * 0.8 * 0.5 / 1.3)
        assert report.recall_denominator == 16

    def test_external_gold_cannot_undercut_matches(self):
        with pytest.raises(ValueError, match="below matched count"):
            score_predictions([0, 0], [0, 0], none_index=1, external_gold_count=1)

    def test_per_relation_breakdown(self):
        report = score_predictions(
            [0, 1, 1], [0, 1, 0], none_index=2, relation_names=("R-A", "R-B", "None")
        )
        assert report.per_relation["R-A"] == {"gold": 2, "predicted": 1, "correct": 1}
        assert report.per_relation["R-B"] == {"gold": 1, "predicted": 2, "correct": 1}
        assert report.per_relation["None"] == {"gold": 0, "predicted": 0, "correct": 0}

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="predictions vs"):
            score_predictions([0], [0, 1], none_index=2)


def _tiny_dataset(count, seed, temperature=0.12):
    data = synth_generate(
        SynthSpec(n_sentences=count, min_len=4, max_len=7, seed=seed, temperature=temperature)
    )
    forests = [
        edgewise_forest(data.arc_probs[inst.sentence.id], 0.2) for inst in data.instances
    ]
    return data, forests


class TestTrainLoop:
    def test_same_seed_reproduces_bitwise(self):
        data, forests = _tiny_dataset(12, seed=21)
        mc = ModelConfig(dim_word=8, dim_label=8, dim_hidden=8, steps=2, seed=4)
        tc = TrainConfig(learning_rate=0.01, epochs=3, patience=10)
        runs = []
        for _ in range(2):
            result = train(
                list(data.instances), forests, list(data.instances), forests,
                data.vocab, mc, tc, "forest",
            )
            runs.append(
                (checkpoint_to_bytes(result.checkpoint), format_metric_log(result.epochs))
            )
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_memorizes_small_corpus(self):
        data, forests = _tiny_dataset(20, seed=33, temperature=0.1)
        mc = ModelConfig(dim_word=8, dim_label=8, dim_hidden=8, steps=2, weighted=True,
                         dropout=0.0, seed=0)
        tc = TrainConfig(learning_rate=0.01, epochs=40, patience=40)
        result = train(
            list(data.instances), forests, list(data.instances), forests,
            data.vocab, mc, tc, "forest",
        )
        best = max(r.f1 for r in result.epochs)
        assert best >= 0.9
        assert result.best_epoch == min(
            r.epoch for r in result.epochs if r.f1 == best
        )

    def test_early_stopping_with_frozen_parameters(self):
        data, forests = _tiny_dataset(8, seed=2)
        mc = ModelConfig(dim_word=4, dim_label=4, dim_hidden=4, steps=1, seed=0)
        tc = TrainConfig(learning_rate=0.0, epochs=50, patience=3)
        result = train(
            list(data.instances), forests, list(data.instances), forests,
            data.vocab, mc, tc, "forest",
        )
        # dev F1 never improves after epoch 1, so training stops at 1 + patience
        assert len(result.epochs) == 4
        assert result.best_epoch == 1

    def test_checkpoint_keeps_the_model_config(self):
        data, forests = _tiny_dataset(4, seed=10)
        mc = ModelConfig(dim_word=4, dim_label=4, dim_hidden=4, dropout=0.3, seed=3)
        result = train(list(data.instances), forests, list(data.instances), forests,
                       data.vocab, mc, TrainConfig(epochs=1), "forest")
        assert result.checkpoint.config == mc

    def test_structure_needs_forests(self):
        data, forests = _tiny_dataset(4, seed=5)
        mc = ModelConfig(dim_word=4, dim_label=4, dim_hidden=4)
        tc = TrainConfig(epochs=1)
        with pytest.raises(ValueError, match="requires forests"):
            train(list(data.instances), None, list(data.instances), None,
                  data.vocab, mc, tc, "forest")
        with pytest.raises(ValueError, match="structure"):
            train(list(data.instances), forests, list(data.instances), forests,
                  data.vocab, mc, tc, "lattice")

    def test_forest_alignment_checked(self):
        data, forests = _tiny_dataset(4, seed=5)
        mc = ModelConfig(dim_word=4, dim_label=4, dim_hidden=4)
        tc = TrainConfig(epochs=1)
        rotated = forests[1:] + forests[:1]
        with pytest.raises(ValueError, match="aligned with instance"):
            train(list(data.instances), rotated, list(data.instances), forests,
                  data.vocab, mc, tc, "forest")

    @staticmethod
    def _longer(forest):
        entries = forest.iter_entries()
        return DependencyForest(forest.sentence_id, forest.n + 3, forest.vocab, entries)

    @staticmethod
    def _foreign_label(forest):
        wider = LabelVocab(forest.vocab.dep_labels + ("extra",), forest.vocab.relations,
                           forest.vocab.ne_tags)
        entries = list(forest.iter_entries())
        word_arc = next(i for i, (_, h, _, _) in enumerate(entries) if h != 0)
        m, h, _, p = entries[word_arc]
        entries[word_arc] = (m, h, "extra", p)
        return DependencyForest(forest.sentence_id, forest.n, wider, entries)

    @staticmethod
    def _foreign_tag(inst):
        tags = ("B-XYZ",) + inst.ne_tags[1:]
        return RelationInstance(inst.sentence, inst.mention1, inst.mention2, inst.relation, tags)

    @pytest.mark.parametrize(
        "case, error, message",
        [
            ("forest count", ValueError, "3 forests vs 4 instances: collections misaligned"),
            ("forest length", ValueError, r"forest for 's00000' has \d+ tokens, sentence has \d+"),
            ("forest label", VocabMismatchError, "unknown dependency label 'extra'"),
            ("NE tag", VocabMismatchError, "unknown NE tag 'B-XYZ'"),
            ("no instances", ValueError, "no training instances"),
        ],
    )
    def test_bad_training_input_rejected(self, case, error, message):
        data, forests = _tiny_dataset(4, seed=5)
        instances = list(data.instances)
        train_instances, train_forests = instances, list(forests)
        if case == "forest count":
            train_forests = train_forests[:3]
        elif case == "forest length":
            train_forests[0] = self._longer(train_forests[0])
        elif case == "forest label":
            train_forests[0] = self._foreign_label(train_forests[0])
        elif case == "NE tag":
            train_instances = [self._foreign_tag(instances[0])] + instances[1:]
        else:
            train_instances, train_forests = [], []
        mc = ModelConfig(dim_word=4, dim_label=4, dim_hidden=4, ner_head=True)
        with pytest.raises(error, match=message):
            train(train_instances, train_forests, instances, forests,
                  data.vocab, mc, TrainConfig(epochs=1), "forest")

    def test_unknown_relation_is_vocab_mismatch(self):
        data, _ = _tiny_dataset(3, seed=6)
        bad = RelationInstance(
            Sentence("x0", ("a", "b", "c", "d")), (1, 2), (3, 4), "R-UNSEEN"
        )
        mc = ModelConfig(dim_word=4, dim_label=4, dim_hidden=4)
        tc = TrainConfig(epochs=1)
        with pytest.raises(VocabMismatchError):
            train([bad], None, [bad], None, data.vocab, mc, tc, "textonly")

    def test_ner_loss_requires_tags(self):
        data, forests = _tiny_dataset(4, seed=7)
        stripped = [
            RelationInstance(i.sentence, i.mention1, i.mention2, i.relation, None)
            for i in data.instances
        ]
        mc = ModelConfig(dim_word=4, dim_label=4, dim_hidden=4, ner_head=True)
        tc = TrainConfig(epochs=1)
        with pytest.raises(ValueError, match="no NE tags"):
            train(stripped, forests, stripped, forests, data.vocab, mc, tc, "forest")

    def test_short_tag_list_fails_before_training(self, monkeypatch):
        data, forests = _tiny_dataset(4, seed=7)
        instances = list(data.instances)
        inst = instances[2]
        n = inst.sentence.n
        instances[2] = RelationInstance(
            inst.sentence, inst.mention1, inst.mention2, inst.relation, inst.ne_tags[:-1]
        )

        def no_forward(*args, **kwargs):
            raise AssertionError("an epoch started")

        monkeypatch.setattr(training, "_forward_chunk", no_forward)
        mc = ModelConfig(dim_word=4, dim_label=4, dim_hidden=4, ner_head=True)
        message = f"instance {inst.sentence.id!r} has {n - 1} NE tags for {n} tokens"
        with pytest.raises(ValueError, match=re.escape(message)):
            train(instances, forests, instances, forests, data.vocab, mc,
                  TrainConfig(epochs=1), "forest")

    def test_ner_flag_adds_head_to_checkpoint(self):
        data, forests = _tiny_dataset(6, seed=8)
        mc = ModelConfig(dim_word=4, dim_label=4, dim_hidden=4)
        plain = train(list(data.instances), forests, list(data.instances), forests,
                      data.vocab, mc, TrainConfig(epochs=1), "forest")
        tagged = train(list(data.instances), forests, list(data.instances), forests,
                       data.vocab, ModelConfig(dim_word=4, dim_label=4, dim_hidden=4, ner_head=True),
                       TrainConfig(epochs=1), "forest")
        assert "ner.W" not in plain.checkpoint.params
        assert "ner.W" in tagged.checkpoint.params

    def test_evaluate_and_predict_round(self):
        data, forests = _tiny_dataset(10, seed=9)
        mc = ModelConfig(dim_word=4, dim_label=4, dim_hidden=4)
        result = train(list(data.instances), forests, list(data.instances), forests,
                       data.vocab, mc, TrainConfig(epochs=2), "forest")
        report = evaluate(result.checkpoint, list(data.instances), forests)
        last = result.epochs[result.best_epoch - 1]
        assert report.f1 == pytest.approx(last.f1)
        rows = predict(result.checkpoint, list(data.instances), forests)
        assert len(rows) == 10
        for (sid, relation, prob), inst in zip(rows, data.instances):
            assert sid == inst.sentence.id
            assert relation in data.vocab.relations
            assert 0.0 < prob <= 1.0


class TestMetricLog:
    def test_format_is_stable_and_parseable(self):
        from forestrel.training import EpochRecord

        records = [
            EpochRecord(1, 1.5, 0.1, 0.2, 0.13333333333333333),
            EpochRecord(2, 0.75, 0.5, 0.25, 1 / 3),
        ]
        text = format_metric_log(records)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch\ttrain_loss\tdev_precision\tdev_recall\tdev_f1"
        assert len(lines) == 3
        fields = lines[2].split("\t")
        assert int(fields[0]) == 2
        # exact round-trip through repr
        assert float(fields[4]) == 1 / 3
