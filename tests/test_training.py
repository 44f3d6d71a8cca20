"""Losses, optimizer, metrics, and the training loop."""

import math

import numpy as np
import pytest

from forestrel.core import RelationInstance, Sentence
from forestrel.dataio import SynthSpec, synth_generate
from forestrel.encoder import ModelConfig, ModelParams, checkpoint_to_bytes
from forestrel.forest import edgewise_forest
from forestrel.training import (
    OptimizationError,
    OptimizerState,
    TrainConfig,
    VocabMismatchError,
    adam_step,
    evaluate,
    format_metric_log,
    ner_loss,
    ner_loss_grad,
    predict,
    relation_loss,
    relation_loss_grad,
    score_predictions,
    total_loss,
    train,
)


class TestLosses:
    def test_uniform_logits_cost_log_k(self):
        assert relation_loss(np.zeros(6), 2) == pytest.approx(math.log(6))
        assert relation_loss(np.full(4, 3.7), 0) == pytest.approx(math.log(4))

    def test_confident_correct_prediction_costs_little(self):
        logits = np.array([10.0, 0.0, 0.0])
        assert relation_loss(logits, 0) < 1e-4

    def test_gold_index_bounds(self):
        with pytest.raises(ValueError):
            relation_loss(np.zeros(3), 3)
        with pytest.raises(ValueError):
            relation_loss(np.zeros(3), -1)

    def test_relation_grad_is_softmax_minus_onehot(self):
        logits = np.array([1.0, 2.0, -0.5])
        grad = relation_loss_grad(logits, 1)
        e = np.exp(logits - logits.max())
        expected = e / e.sum()
        expected[1] -= 1.0
        np.testing.assert_allclose(grad, expected, rtol=1e-12)
        assert grad.sum() == pytest.approx(0.0, abs=1e-12)

    def test_ner_loss_is_mean_over_tokens(self):
        logits = np.zeros((2, 3))
        assert ner_loss(logits, [0, 2]) == pytest.approx(math.log(3))
        with pytest.raises(ValueError):
            ner_loss(logits, [0])

    def test_ner_grad_scaled_by_token_count(self):
        logits = np.zeros((4, 3))
        grad = ner_loss_grad(logits, [0, 1, 2, 0])
        assert grad.shape == (4, 3)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)
        # uniform softmax is 1/3; the gold column subtracts 1; everything / 4
        assert grad[0, 0] == pytest.approx((1 / 3 - 1) / 4)
        assert grad[0, 1] == pytest.approx((1 / 3) / 4)

    def test_total_loss_combination(self):
        assert total_loss(1.5, 0.5, use_ner=True) == 2.0
        assert total_loss(1.5, None, use_ner=False) == 1.5
        with pytest.raises(ValueError):
            total_loss(1.5, None, use_ner=True)


class TestAdam:
    def _single(self, value, grad, config, steps=1):
        params = ModelParams({"w": np.array([[value]])})
        state = OptimizerState.for_params(params)
        for _ in range(steps):
            adam_step(params, {"w": np.array([[grad]])}, state, config)
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
        grads = {name: np.zeros_like(t) for name, t in params.items()}
        state = OptimizerState.for_params(params)
        adam_step(params, grads, state, TrainConfig(learning_rate=0.1, l2=0.01))
        assert not np.array_equal(params["cls.W"], np.ones((2, 2)))
        assert np.array_equal(params["cls.b"], np.ones(2))
        assert np.array_equal(params["word_emb"], np.ones((3, 2)))

    def test_bitwise_equal_to_textbook_update(self):
        # The textbook expressions, temporaries and all; adam_step must give
        # the same bits on weight matrices (with L2), biases and embeddings.
        config = TrainConfig(learning_rate=0.01, l2=0.05)
        rng = np.random.default_rng(3)
        start = {
            "cls.W": rng.normal(size=(3, 4)),
            "cls.b": rng.normal(size=4),
            "word_emb": rng.normal(size=(5, 2)),
        }
        params = ModelParams({name: t.copy() for name, t in start.items()})
        state = OptimizerState.for_params(params)
        theta = {name: t.copy() for name, t in start.items()}
        first = {name: np.zeros_like(t) for name, t in start.items()}
        second = {name: np.zeros_like(t) for name, t in start.items()}
        b1, b2, eps = state.beta1, state.beta2, state.eps
        for t in range(1, 6):
            grads = {
                name: rng.choice([-1.0, 1.0], size=x.shape) * 10.0 ** rng.uniform(-8, 2, x.shape)
                for name, x in start.items()
            }
            adam_step(params, grads, state, config)
            for name in start:
                g = grads[name]
                if name == "cls.W":
                    g = g + 2.0 * config.l2 * theta[name]
                first[name] = b1 * first[name] + (1.0 - b1) * g
                second[name] = b2 * second[name] + (1.0 - b2) * (g * g)
                m_hat = first[name] / (1.0 - b1**t)
                v_hat = second[name] / (1.0 - b2**t)
                theta[name] = theta[name] - config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
                got, want = params[name].view(np.uint64), theta[name].view(np.uint64)
                assert np.array_equal(got, want), (name, t)

    def test_non_finite_gradient_is_fatal(self):
        params = ModelParams({"w": np.ones((2, 2))})
        state = OptimizerState.for_params(params)
        bad = {"w": np.array([[1.0, np.nan], [0.0, 0.0]])}
        with pytest.raises(OptimizationError, match="'w'"):
            adam_step(params, bad, state, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)


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
