"""Encoder forward/backward: LSTM and GRN oracles, message passing, dropout, checkpoints."""

import base64
import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from forestrel.core import DependencyEdge, DependencyForest, LabelLookupError, LabelVocab, Sentence
from forestrel.encoder import (
    Checkpoint,
    ModelConfig,
    ModelParams,
    _CELL_ORDER,
    _graph_operators,
    _sigmoid,
    backward,
    bilstm_forward,
    build_gnn_graph,
    build_word_index,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    compute_messages,
    forward_instance,
    grn_forward,
    grn_step,
    init_params,
    load_checkpoint,
    log_softmax,
    mention_pool,
    save_checkpoint,
    softmax,
    token_ids_for,
)
from forestrel.forest import edgewise_forest
from reference import forest_from_edges


def _sigma(x):
    return 1.0 / (1.0 + math.exp(-x))


@pytest.fixture
def tiny_setup(vocab5):
    config = ModelConfig(
        dim_word=3, dim_label=2, dim_hidden=2, steps=2, dropout=0.0, seed=1
    )
    params = init_params(config, vocab5, num_words=6)
    forest = forest_from_edges(
        "s",
        4,
        [
            DependencyEdge(0, "nsubj", 2, 0.9),
            DependencyEdge(2, "amod", 1, 0.8),
            DependencyEdge(2, "obj", 4, 0.7),
            DependencyEdge(4, "amod", 3, 0.5),
            DependencyEdge(1, "conj", 3, 0.3),
        ],
        vocab5,
    )
    graph = build_gnn_graph(forest, vocab5)
    token_ids = np.array([1, 2, 3, 1])
    return config, params, forest, graph, token_ids


class TestInitParams:
    def test_tensor_inventory(self, vocab5):
        config = ModelConfig(dim_word=3, dim_label=2, dim_hidden=2, ner_head=False)
        params = init_params(config, vocab5, num_words=7)
        names = set(params)
        assert "word_emb" in names and "label_emb" in names
        assert {"lstm_l.Wx", "lstm_l.Wh", "lstm_l.b", "lstm_r.Wx", "lstm_r.Wh", "lstm_r.b"} <= names
        assert {"grn.W", "grn.b"} <= names
        assert "cls.W" in names and "cls.b" in names
        assert "ner.W" not in names
        assert params["word_emb"].shape == (7, 3)
        assert params["label_emb"].shape == (2 * vocab5.num_dep_labels, 2)
        assert params["lstm_l.Wx"].shape == (8, 3)
        # 4 * dim_state x 2 * (dim_state + dim_label)
        assert params["grn.W"].shape == (16, 12)
        assert params["grn.b"].shape == (16,)
        assert params["cls.W"].shape == (len(vocab5.relations), 8)

    def test_ner_head_adds_tensors(self, vocab5):
        config = ModelConfig(dim_word=3, dim_label=2, dim_hidden=2, ner_head=True)
        params = init_params(config, vocab5, num_words=7)
        assert params["ner.W"].shape == (len(vocab5.ne_tags), 4)
        assert params["ner.b"].shape == (len(vocab5.ne_tags),)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"dim_word": 0}, "dimensions must be >= 1"),
            ({"dim_hidden": -1}, "dimensions must be >= 1"),
            ({"steps": -1}, "steps must be >= 0"),
            ({"dropout": 1.0}, r"dropout must be in \[0, 1\)"),
            ({"dropout": -0.1}, r"dropout must be in \[0, 1\)"),
        ],
    )
    def test_config_ranges_checked(self, changes, message):
        with pytest.raises(ValueError, match=message):
            ModelConfig(**changes)

    def test_same_seed_same_params(self, vocab5):
        config = ModelConfig(dim_word=3, dim_label=2, dim_hidden=2, seed=42)
        a = init_params(config, vocab5, num_words=5)
        b = init_params(config, vocab5, num_words=5)
        for name in a:
            assert np.array_equal(a[name], b[name])


class TestParamLayout:
    @pytest.fixture
    def params(self, vocab5):
        config = ModelConfig(dim_word=3, dim_label=2, dim_hidden=2, ner_head=True, seed=3)
        return init_params(config, vocab5, num_words=7)

    def test_every_tensor_is_a_view_of_flat(self, params):
        assert params.flat.size == sum(t.size for t in params.values())
        for name, tensor in params.items():
            assert np.shares_memory(tensor, params.flat), name
        # writing through a tensor writes flat
        params["cls.b"][0] = 7.5
        assert 7.5 in params.flat

    def test_l2_tensors_fill_one_slice(self, params):
        l2 = params.flat[params.l2]
        inside = [name for name, t in params.items() if np.shares_memory(t, l2)]
        assert inside == ["lstm_l.Wx", "lstm_l.Wh", "lstm_r.Wx", "lstm_r.Wh", "grn.W", "cls.W",
                          "ner.W"]
        assert sum(params[name].size for name in inside) == l2.size

    def test_wh_pair_is_adjacent(self, params):
        wh = params.stacked("lstm_l.Wh", "lstm_r.Wh")
        assert np.shares_memory(wh, params.flat)
        assert np.array_equal(wh, np.stack([params["lstm_l.Wh"], params["lstm_r.Wh"]]))
        with pytest.raises(ValueError, match="not adjacent"):
            params.stacked("lstm_r.Wh", "lstm_l.Wh")

    def test_copies_and_buffers_share_the_layout(self, params):
        assert not params.zero_grads().flat.any()
        for other in (params.copy(), params.zero_grads()):
            assert not np.shares_memory(other.flat, params.flat)
            assert list(other) == list(params) and other.l2 == params.l2
            other.flat[:] = params.flat
            for name in params:
                assert np.array_equal(other[name], params[name]), name


def _shared_lstm_params(wx, wh, b):
    # Both directions get the same weights.
    return ModelParams(
        {f"{name}.{key}": value for name in ("lstm_l", "lstm_r")
         for key, value in (("Wx", wx), ("Wh", wh), ("b", b))}
    )


class TestLstmOracle:
    def test_matches_scalar_recurrence(self):
        # One-dimensional LSTM, two steps, worked by hand with scalar math.
        wx = np.array([[0.5], [0.4], [0.3], [0.2]])
        wh = np.array([[0.1], [-0.2], [0.3], [0.4]])
        b = np.array([0.05, -0.05, 0.0, 0.1])
        inputs = np.array([[1.0], [-2.0]])
        h0, cache = bilstm_forward(_shared_lstm_params(wx, wh, b), inputs, [2])

        h = c = 0.0
        expected_h, expected_c = [], []
        for x in (1.0, -2.0):
            gi = _sigma(0.5 * x + 0.1 * h + 0.05)
            gf = _sigma(0.4 * x - 0.2 * h - 0.05)
            go = _sigma(0.3 * x + 0.3 * h + 0.0)
            gu = math.tanh(0.2 * x + 0.4 * h + 0.1)
            c = gf * c + gi * gu
            h = go * math.tanh(c)
            expected_c.append(c)
            expected_h.append(h)
        # the left-to-right direction: axis 0 index 1, sentence 0, unit 0
        np.testing.assert_allclose(
            [cell.c[1, 0, 0] for cell in cache.cells], expected_c, rtol=1e-12
        )
        np.testing.assert_allclose(h0[:, 1], expected_h, rtol=1e-12)

    def test_reverse_processes_right_to_left(self):
        wx = np.array([[0.5], [0.4], [0.3], [0.2]])
        wh = np.array([[0.1], [-0.2], [0.3], [0.4]])
        b = np.zeros(4)
        inputs = np.array([[1.0], [-2.0], [0.5]])
        params = _shared_lstm_params(wx, wh, b)
        h0, rev = bilstm_forward(params, inputs, [3])
        h0_flipped, fwd = bilstm_forward(params, inputs[::-1].copy(), [3])
        # position t of the reverse pass equals position n-1-t of the forward
        # pass over the flipped sequence, bit for bit; the reverse pass reads
        # the sentence reversed in place, so its step t is the forward pass's
        assert np.array_equal(h0[:, 0], h0_flipped[::-1, 1])
        assert np.array_equal(
            [cell.c[0] for cell in rev.cells], [cell.c[1] for cell in fwd.cells]
        )


class TestSigmoid:
    @staticmethod
    def _two_branch(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0, -745.0, np.inf, -np.inf, np.nan]

    def _assert_bitwise_equal(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                got = _sigmoid(x)
                want = self._two_branch(x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_bitwise_equal_to_two_branch_formula_without_fp_warnings(self):
        self._assert_bitwise_equal(np.array(self.SPECIAL))

    def test_bitwise_equal_on_a_gate_block(self):
        # A 64 x 600 block is larger than one of numpy's buffers for
        # where-style operations; specials sit among ordinary values.
        rng = np.random.default_rng(17)
        x = rng.normal(scale=4.0, size=(64, 600))
        spots = rng.choice(x.size, size=400, replace=False)
        x.flat[spots] = rng.choice([*self.SPECIAL, 1.0, -1.0], size=spots.size)
        self._assert_bitwise_equal(x)


class TestGrnOracle:
    # Row block of each gate in grn.W and grn.b, written out rather than
    # taken from the module so that a reordering shows up here.
    BLOCK = {"in": 0, "forget": 1, "out": 2, "cand": 3}

    def test_each_gate_reads_its_named_tensors(self, vocab5):
        # Every gate of one graph update, worked per word and unit with scalar
        # math: gate g's pre-activation reads row block g of grn.W and grn.b,
        # the first column half against the dependent message and the second
        # against the head message.  Moving a gate onto another block, or the
        # messages onto the other half, changes the result.
        assert tuple(self.BLOCK) == _CELL_ORDER
        config = ModelConfig(dim_word=3, dim_label=2, dim_hidden=1, seed=6)
        params = init_params(config, vocab5, num_words=4)
        rng = np.random.default_rng(7)
        n, ds, half = 3, 2, 4
        params["grn.b"][:] = rng.normal(size=4 * ds)
        m_dep = rng.normal(size=(n, half))
        m_head = rng.normal(size=(n, half))
        c_prev = rng.normal(size=(n, ds))
        h_new, cache = grn_step(params, c_prev, np.concatenate([m_dep, m_head], axis=1))
        w, b = params["grn.W"], params["grn.b"]

        def pre(gate, i, j):
            row = self.BLOCK[gate] * ds + j
            total = b[row]
            for k in range(half):
                total += w[row, k] * m_dep[i, k] + w[row, half + k] * m_head[i, k]
            return total

        expected_c = np.empty((n, ds))
        expected_h = np.empty((n, ds))
        for i in range(n):
            for j in range(ds):
                gi = _sigma(pre("in", i, j))
                gf = _sigma(pre("forget", i, j))
                go = _sigma(pre("out", i, j))
                gu = math.tanh(pre("cand", i, j))
                expected_c[i, j] = gf * c_prev[i, j] + gi * gu
                expected_h[i, j] = go * math.tanh(expected_c[i, j])
        np.testing.assert_allclose(cache.cell.c, expected_c, rtol=1e-12)
        np.testing.assert_allclose(h_new, expected_h, rtol=1e-12)


class TestBilstm:
    def test_concatenates_left_then_right_states(self, vocab5):
        config = ModelConfig(dim_word=3, dim_label=2, dim_hidden=2, seed=0)
        params = init_params(config, vocab5, num_words=5)
        emb = params["word_emb"][np.array([1, 2, 3])]
        h0, cache = bilstm_forward(params, emb, [3])
        assert h0.shape == (3, 4)
        # the right-to-left LSTM's step t reads word n - 1 - t
        assert np.array_equal(h0[:, :2], cache.hidden[0, 0, ::-1])
        assert np.array_equal(h0[:, 2:], cache.hidden[1, 0])
        # in a chunk, each sentence starts its row in both directions
        h0, cache = bilstm_forward(params, params["word_emb"][np.array([1, 2, 3, 4, 1])], [3, 2])
        assert cache.hidden.shape == (2, 2, 3, 2)
        assert np.array_equal(h0[3:, :2], cache.hidden[0, 1, 1::-1])
        assert np.array_equal(h0[3:, 2:], cache.hidden[1, 1, :2])


class TestGraph:
    def test_root_arcs_are_dropped(self, vocab5, tiny_setup):
        _, _, forest, graph, _ = tiny_setup
        assert forest.num_edges == 5
        assert [len(a) for a in (graph.head, graph.modifier, graph.label, graph.prob)] == [4] * 4
        assert (graph.head != 0).all()

    def test_label_rows_resolved(self, vocab5, tiny_setup):
        _, _, forest, graph, _ = tiny_setup
        num = vocab5.num_dep_labels
        labels = graph.label
        assert ((0 <= labels) & (labels < num)).all()
        assert labels.tolist() == [vocab5.dep_index(e.label) for e in forest.edges if e.head != 0]
        # forward labels count in the first num columns, reversed ones num later
        _, dep_labels, head_labels = _graph_operators([graph], False)
        for head, modifier, label in zip(graph.head, graph.modifier, graph.label):
            assert dep_labels[head - 1, label] >= 1.0
            assert head_labels[modifier - 1, num + label] >= 1.0
        assert not dep_labels[:, num:].any() and not head_labels[:, :num].any()

    def test_edge_order_follows_forest(self, vocab5, tiny_setup):
        _, _, forest, graph, _ = tiny_setup
        non_root = [e for e in forest.edges if e.head != 0]
        assert list(zip(graph.head.tolist(), graph.modifier.tolist())) == [
            (e.head, e.modifier) for e in non_root
        ]
        assert graph.prob.tolist() == [e.prob for e in non_root]

    def test_a_graph_holding_root_arcs_is_refused(self, vocab5, tiny_setup):
        # The forest itself in place of its graph: alone, its ROOT arc would
        # index state row -1; after another graph, the other graph's last word.
        config, params, forest, graph, token_ids = tiny_setup
        raw = DependencyForest("t", forest.n, vocab5, forest.iter_entries())
        message = r"^graph 't' holds ROOT arcs; pass build_gnn_graph's result$"
        for graphs in ([raw], [graph, raw]):
            count = len(graphs)
            with pytest.raises(ValueError, match=message):
                forward_instance(params, config, [token_ids] * count, [(1, 2)] * count,
                                 [(3, 4)] * count, graphs)

    def test_labels_are_indexed_in_the_model_vocabulary(self, vocab5, tiny_setup):
        _, _, forest, graph, _ = tiny_setup
        reordered = LabelVocab(tuple(reversed(vocab5.dep_labels)), vocab5.relations, vocab5.ne_tags)
        other = DependencyForest("s", forest.n, reordered, forest.iter_entries())
        rebuilt = build_gnn_graph(other, vocab5)
        for name in ("head", "modifier", "label", "prob"):
            assert np.array_equal(getattr(rebuilt, name), getattr(graph, name))
        # Word 2 heads word 1 under three labels whose weights sum to 1.0 in
        # model-vocabulary order and to 0.9999999999999999 in reversed order:
        # the graph sums them in the model's order whatever the forest's.
        entries = [(1, 2, "amod", 0.1), (1, 2, "nsubj", 0.2), (1, 2, "obj", 0.7)]
        mine, theirs = (
            build_gnn_graph(DependencyForest("s", 2, v, entries), vocab5)
            for v in (vocab5, reordered)
        )
        assert mine == theirs
        for a, b in zip(_graph_operators([mine], True), _graph_operators([theirs], True)):
            assert a.tobytes() == b.tobytes()
        assert _graph_operators([mine], True)[0][1, 0] == 1.0
        narrow = LabelVocab(vocab5.dep_labels[:1], vocab5.relations, vocab5.ne_tags)
        with pytest.raises(LabelLookupError, match="unknown dependency label 'conj'"):
            build_gnn_graph(forest, narrow)


def _doubled_pairs(forest):
    pairs = [(e.head, e.modifier) for e in forest.edges if e.head != 0]
    return {pair for pair in pairs if pairs.count(pair) > 1}


def _messages(h, label_emb, graph, weighted):
    ops = _graph_operators([graph], weighted)
    return compute_messages(h, label_emb, ops)


class TestMessages:
    @staticmethod
    def _edge_loop(h, label_emb, forest, vocab, weighted):
        # One arc at a time, straight from the forest's edges.
        n, ds = h.shape
        num = vocab.num_dep_labels
        half = ds + label_emb.shape[1]
        m = np.zeros((n, 2 * half))
        for e in forest.edges:
            if e.head == 0:
                continue
            w = e.prob if weighted else 1.0
            label = vocab.dep_index(e.label)
            m[e.head - 1, :ds] += w * h[e.modifier - 1]
            m[e.head - 1, ds:half] += w * label_emb[label]
            m[e.modifier - 1, half : half + ds] += w * h[e.head - 1]
            m[e.modifier - 1, half + ds :] += w * label_emb[num + label]
        return m

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_edge_loop_and_keeps_every_arc(self, vocab5, arc_grid_factory, seed):
        rng = np.random.default_rng(seed)
        forest = edgewise_forest(arc_grid_factory(rng, vocab5, 9, extra=0.5), 0.0)
        assert _doubled_pairs(forest), "some (head, modifier) pair must carry two labels"
        graph = build_gnn_graph(forest, vocab5)
        h = rng.normal(size=(9, 4))
        label_emb = rng.normal(size=(2 * vocab5.num_dep_labels, 3))
        for weighted in (False, True):
            np.testing.assert_allclose(
                _messages(h, label_emb, graph, weighted),
                self._edge_loop(h, label_emb, forest, vocab5, weighted),
                rtol=1e-12,
                atol=1e-15,
                err_msg=f"weighted={weighted}",
            )
        # One-hot states and label rows make each message row spell out the
        # arcs it sums: every arc not anchored at ROOT reaches its head.
        num = vocab5.num_dep_labels
        m = _messages(np.eye(9), np.eye(2 * num), graph, weighted=True)
        m_dep, m_head = m[:, : 9 + 2 * num], m[:, 9 + 2 * num :]
        for e in forest.edges:
            if e.head == 0:
                continue
            label = vocab5.dep_index(e.label)
            assert m_dep[e.head - 1, e.modifier - 1] >= e.prob
            assert m_dep[e.head - 1, 9 + label] >= e.prob
            assert m_head[e.modifier - 1, e.head - 1] >= e.prob
            assert m_head[e.modifier - 1, 9 + num + label] >= e.prob
        non_root_mass = sum(e.prob for e in forest.edges if e.head != 0)
        assert m_dep[:, :9].sum() == pytest.approx(non_root_mass, rel=1e-12)

    def test_single_edge_formula(self, vocab5):
        forest = forest_from_edges(
            "s", 3, [DependencyEdge(2, "obj", 3, 0.5)], vocab5
        )
        graph = build_gnn_graph(forest, vocab5)
        rng = np.random.default_rng(0)
        h = rng.normal(size=(3, 4))
        label_emb = rng.normal(size=(2 * vocab5.num_dep_labels, 2))
        m = _messages(h, label_emb, graph, weighted=False)
        assert m.shape == (3, 12)
        m_dep, m_head = m[:, :6], m[:, 6:]
        obj = vocab5.dep_index("obj")
        # the head (word 2) hears from its dependent (word 3) under "obj"
        assert np.array_equal(m_dep[1, :4], h[2])
        assert np.array_equal(m_dep[1, 4:], label_emb[obj])
        # the dependent (word 3) hears from its head (word 2) under "obj-rev"
        assert np.array_equal(m_head[2, :4], h[1])
        assert np.array_equal(m_head[2, 4:], label_emb[obj + vocab5.num_dep_labels])
        # everyone else hears nothing
        assert not m_dep[[0, 2], :].any()
        assert not m_head[[0, 1], :].any()

    def test_empty_graph_means_silence(self, vocab5):
        forest = forest_from_edges(
            "s", 3, [DependencyEdge(0, "nsubj", 1, 0.9)], vocab5
        )
        graph = build_gnn_graph(forest, vocab5)
        h = np.ones((3, 4))
        label_emb = np.ones((2 * vocab5.num_dep_labels, 2))
        m = _messages(h, label_emb, graph, weighted=True)
        assert not m.any()

    def test_weight_scales_messages(self, vocab5):
        forest = forest_from_edges(
            "s", 3, [DependencyEdge(2, "obj", 3, 0.5)], vocab5
        )
        graph = build_gnn_graph(forest, vocab5)
        rng = np.random.default_rng(1)
        h = rng.normal(size=(3, 4))
        label_emb = rng.normal(size=(2 * vocab5.num_dep_labels, 2))
        plain = _messages(h, label_emb, graph, weighted=False)
        scaled = _messages(h, label_emb, graph, weighted=True)
        assert np.array_equal(scaled, 0.5 * plain)

    def test_unit_probabilities_match_unweighted_bitwise(self, vocab5, tiny_setup):
        config, params, forest, _, token_ids = tiny_setup
        unit = forest_from_edges(
            "s",
            forest.n,
            [DependencyEdge(e.head, e.label, e.modifier, 1.0) for e in forest.edges],
            vocab5,
        )
        graph = build_gnn_graph(unit, vocab5)
        plain = forward_instance(params, config, [token_ids], [(1, 2)], [(3, 5)], [graph])
        weighted_config = ModelConfig(
            dim_word=3, dim_label=2, dim_hidden=2, steps=2, dropout=0.0,
            weighted=True, seed=1,
        )
        heavy = forward_instance(params, weighted_config, [token_ids], [(1, 2)], [(3, 5)], [graph])
        assert np.array_equal(plain.h_final, heavy.h_final)
        assert np.array_equal(plain.rel_probs, heavy.rel_probs)


class TestGrn:
    def test_zero_steps_is_identity(self, vocab5, tiny_setup):
        _, params, _, graph, _ = tiny_setup
        h0 = np.random.default_rng(2).normal(size=(4, 4))
        ops = _graph_operators([graph], False)
        h_final, caches = grn_forward(params, h0, ops, steps=0)
        assert h_final is h0
        assert caches == []

    def test_isolated_word_ignores_the_graph(self, vocab5):
        # word 4 has no incident non-ROOT arc, so its state must match the
        # state it gets under an empty graph
        config = ModelConfig(dim_word=3, dim_label=2, dim_hidden=2, steps=2, dropout=0.0, seed=3)
        params = init_params(config, vocab5, num_words=5)
        connected = forest_from_edges(
            "s",
            4,
            [DependencyEdge(1, "amod", 2, 0.8), DependencyEdge(2, "obj", 3, 0.7),
             DependencyEdge(0, "nsubj", 4, 0.9)],
            vocab5,
        )
        empty = forest_from_edges(
            "s", 4, [DependencyEdge(0, "nsubj", 4, 0.9)], vocab5
        )
        token_ids = np.array([1, 2, 3, 4])
        emb = params["word_emb"][token_ids]
        h0, _ = bilstm_forward(params, emb, [4])
        ops_with = _graph_operators([build_gnn_graph(connected, vocab5)], False)
        ops_without = _graph_operators([build_gnn_graph(empty, vocab5)], False)
        h_with, _ = grn_forward(params, h0, ops_with, 2)
        h_without, _ = grn_forward(params, h0, ops_without, 2)
        assert np.array_equal(h_with[3], h_without[3])
        assert not np.array_equal(h_with[0], h_without[0])


class TestPoolingAndHeads:
    def test_mention_pool_is_row_mean(self):
        h = np.arange(12.0).reshape(4, 3)
        pool = mention_pool([4], [(2, 4)], [(1, 2)])
        np.testing.assert_allclose(pool @ h, [h[1:3].mean(axis=0), h[0]])
        # a chunk of two sentences: the second one's spans index its own rows
        pool = mention_pool([1, 3], [(1, 2), (1, 3)], [(1, 2), (3, 4)])
        np.testing.assert_allclose(pool @ h, [h[0], h[0], h[1:3].mean(axis=0), h[3]])
        with pytest.raises(ValueError, match=r"^span \[3, 3\) invalid for 4 positions$"):
            mention_pool([4], [(3, 3)], [(1, 2)])
        with pytest.raises(ValueError, match="invalid"):
            mention_pool([4], [(1, 2)], [(0, 2)])
        with pytest.raises(ValueError, match=r"^span \[2, 4\) invalid for 2 positions$"):
            mention_pool([3, 2], [(1, 2), (2, 4)], [(1, 4), (1, 2)])


class TestForwardBackward:
    def test_textonly_skips_graph(self, vocab5, tiny_setup):
        config, params, _, _, token_ids = tiny_setup
        trace = forward_instance(params, config, [token_ids], [(1, 2)], [(3, 5)], graph=None)
        assert trace.operators is None
        assert trace.grn_caches == []
        h0, _ = bilstm_forward(params, params["word_emb"][token_ids], [len(token_ids)])
        assert np.array_equal(trace.h_final, h0)

    def test_dropout_needs_rng_in_training_mode(self, vocab5):
        config = ModelConfig(dim_word=3, dim_label=2, dim_hidden=2, dropout=0.5)
        params = init_params(config, vocab5, num_words=5)
        with pytest.raises(ValueError, match="rng"):
            forward_instance(
                params, config, [np.array([1, 2])], [(1, 2)], [(2, 3)], None, train=True
            )

    def test_eval_mode_ignores_dropout(self, vocab5):
        config = ModelConfig(dim_word=3, dim_label=2, dim_hidden=2, dropout=0.5)
        params = init_params(config, vocab5, num_words=5)
        a = forward_instance(params, config, [np.array([1, 2])], [(1, 2)], [(2, 3)], None)
        b = forward_instance(params, config, [np.array([1, 2])], [(1, 2)], [(2, 3)], None)
        assert np.array_equal(a.rel_probs, b.rel_probs)
        assert a.emb_mask is None and a.pooled_mask is None

    def test_zero_seed_gives_zero_gradients(self, vocab5, tiny_setup):
        config, params, _, graph, token_ids = tiny_setup
        trace = forward_instance(params, config, [token_ids], [(1, 2)], [(3, 5)], [graph])
        grads = params.zero_grads()
        backward(params, config, trace, grads, np.zeros((1, 3)))
        for name, g in grads.items():
            assert not g.any(), name

    def test_backward_adds_into_the_buffer(self, vocab5, tiny_setup):
        config, params, _, graph, token_ids = tiny_setup
        trace = forward_instance(params, config, [token_ids], [(1, 2)], [(3, 5)], [graph])
        d_rel = softmax(trace.rel_logits)
        d_rel[0, 0] -= 1.0
        fresh = params.zero_grads()
        backward(params, config, trace, fresh, d_rel)
        rng = np.random.default_rng(5)
        start = {name: rng.normal(size=t.shape) for name, t in params.items()}
        buffer = {name: g.copy() for name, g in start.items()}
        backward(params, config, trace, buffer, d_rel)
        for name in params:
            np.testing.assert_allclose(
                buffer[name], start[name] + fresh[name], rtol=1e-12, atol=1e-15, err_msg=name
            )
        before = {name: g.tobytes() for name, g in buffer.items()}
        backward(params, config, trace, buffer, np.zeros((1, 3)))
        for name in params:
            assert buffer[name].tobytes() == before[name], name

    def test_ner_seed_needs_an_ner_head(self, vocab5, tiny_setup):
        config, params, _, graph, token_ids = tiny_setup
        trace = forward_instance(params, config, [token_ids], [(1, 2)], [(3, 5)], [graph])
        d_ner = np.zeros((len(token_ids), len(vocab5.ne_tags)))
        with pytest.raises(ValueError, match="no NER head"):
            backward(params, config, trace, params.zero_grads(), np.zeros((1, 3)), d_ner)

    @pytest.mark.parametrize("structure", ["textonly", "forest", "doubled-weighted"])
    def test_finite_difference_spot_check(self, vocab5, tiny_setup, structure):
        config, params, forest, graph, token_ids = tiny_setup
        if structure == "textonly":
            graph = None
        elif structure == "doubled-weighted":
            # word 2 heads word 1 under two labels: the adjacency sums them
            doubled = forest_from_edges(
                "s", forest.n, list(forest.edges) + [DependencyEdge(2, "obj", 1, 0.15)], vocab5
            )
            assert _doubled_pairs(doubled) == {(2, 1)}
            graph = build_gnn_graph(doubled, vocab5)
            config = dataclasses.replace(config, weighted=True)
        gold = 0
        spans = ([(1, 2)], [(3, 5)])
        graphs = None if graph is None else [graph]

        def loss():
            trace = forward_instance(params, config, [token_ids], *spans, graphs)
            return float(-log_softmax(trace.rel_logits)[0, gold])

        trace = forward_instance(params, config, [token_ids], *spans, graphs)
        d_rel = softmax(trace.rel_logits)
        d_rel[0, gold] -= 1.0
        grads = params.zero_grads()
        backward(params, config, trace, grads, d_rel)

        rng = np.random.default_rng(8)
        step = 1e-6
        for name in ("word_emb", "label_emb", "lstm_l.Wx", "lstm_r.Wh",
                     "grn.W", "grn.b", "cls.W"):
            flat = params[name].reshape(-1)
            for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + step
                up = loss()
                flat[idx] = orig - step
                down = loss()
                flat[idx] = orig
                numeric = (up - down) / (2 * step)
                analytic = grads[name].reshape(-1)[idx]
                assert analytic == pytest.approx(numeric, abs=5e-6), (name, idx)


class TestCheckpoint:
    def _checkpoint(self, vocab):
        config = ModelConfig(dim_word=3, dim_label=2, dim_hidden=2, ner_head=True, seed=9)
        words = ("<unk>", "alpha", "beta")
        params = init_params(config, vocab, num_words=len(words))
        return Checkpoint(config, "forest", vocab, words, params)

    def test_round_trip_is_exact(self, vocab5, tmp_path):
        ckpt = self._checkpoint(vocab5)
        blob = checkpoint_to_bytes(ckpt)
        back = checkpoint_from_bytes(blob)
        assert back.config == ckpt.config
        assert back.structure == "forest"
        assert back.vocab == vocab5
        assert back.words == ckpt.words
        for name in ckpt.params:
            assert np.array_equal(back.params[name], ckpt.params[name])
        assert checkpoint_to_bytes(back) == blob
        path = tmp_path / "model.json"
        save_checkpoint(ckpt, str(path))
        assert checkpoint_to_bytes(load_checkpoint(str(path))) == blob

    def test_fingerprint_guards_vocabulary(self, vocab5):
        blob = checkpoint_to_bytes(self._checkpoint(vocab5))
        tampered = blob.replace(b'"R-A"', b'"R-Z"')
        with pytest.raises(ValueError, match="fingerprint"):
            checkpoint_from_bytes(tampered)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unrecognized checkpoint format"):
            checkpoint_from_bytes(b'{"format": "something-else"}')

    def test_v1_checkpoint_rejected(self, vocab5):
        # v1 stored the graph update as twelve per-gate tensors
        blob = self._tampered(vocab5, lambda p: p.update(format="forestrel-checkpoint-v1"))
        with pytest.raises(
            ValueError, match="unrecognized checkpoint format 'forestrel-checkpoint-v1'"
        ):
            checkpoint_from_bytes(blob)

    def _tampered(self, vocab, edit):
        payload = json.loads(checkpoint_to_bytes(self._checkpoint(vocab)))
        edit(payload)
        return json.dumps(payload).encode("utf-8")

    @staticmethod
    def _tensor_spec(array):
        return {
            "shape": list(array.shape),
            "dtype": "float64",
            "data": base64.b64encode(np.ascontiguousarray(array).tobytes()).decode("ascii"),
        }

    def test_missing_tensor_rejected(self, vocab5):
        blob = self._tampered(vocab5, lambda p: p["tensors"].pop("grn.W"))
        with pytest.raises(ValueError, match="lacks tensor 'grn.W'"):
            checkpoint_from_bytes(blob)

    def test_missing_top_level_key_rejected(self, vocab5):
        blob = self._tampered(vocab5, lambda p: p.pop("words"))
        with pytest.raises(ValueError, match="lacks key 'words'"):
            checkpoint_from_bytes(blob)

    def test_missing_vocab_list_rejected(self, vocab5):
        blob = self._tampered(vocab5, lambda p: p["vocab"].pop("relations"))
        with pytest.raises(ValueError, match="lacks vocab list 'relations'"):
            checkpoint_from_bytes(blob)

    def test_vocab_that_is_not_an_object_rejected(self, vocab5):
        blob = self._tampered(vocab5, lambda p: p.update(vocab=["dep_labels", "relations"]))
        with pytest.raises(ValueError, match="vocab lists are not a JSON object"):
            checkpoint_from_bytes(blob)

    def test_missing_tensor_key_rejected(self, vocab5):
        blob = self._tampered(vocab5, lambda p: p["tensors"]["cls.W"].pop("data"))
        with pytest.raises(ValueError, match="lacks tensor 'cls.W' key 'data'"):
            checkpoint_from_bytes(blob)

    def test_extra_tensor_rejected(self, vocab5):
        def edit(payload):
            payload["tensors"]["grn.Wup_extra"] = self._tensor_spec(np.zeros((4, 6)))

        with pytest.raises(ValueError, match="unexpected tensor 'grn.Wup_extra'"):
            checkpoint_from_bytes(self._tampered(vocab5, edit))

    def test_transposed_tensor_rejected(self, vocab5):
        weights = self._checkpoint(vocab5).params["cls.W"]

        def edit(payload):
            payload["tensors"]["cls.W"] = self._tensor_spec(weights.T.copy())

        with pytest.raises(ValueError, match=r"tensor 'cls.W' has shape \[8, 3\]"):
            checkpoint_from_bytes(self._tampered(vocab5, edit))

    def test_non_finite_tensor_rejected(self, vocab5):
        def edit(payload):
            payload["tensors"]["cls.b"] = self._tensor_spec(np.array([0.0, np.nan, 0.0]))

        with pytest.raises(ValueError, match="tensor 'cls.b' has non-finite values"):
            checkpoint_from_bytes(self._tampered(vocab5, edit))

    @pytest.mark.parametrize(
        "data, reason",
        [("A", "Invalid base64-encoded string"), ("AAAA", "multiple of element size")],
    )
    def test_data_that_is_not_float64_base64_named(self, vocab5, tmp_path, data, reason):
        blob = self._tampered(vocab5, lambda p: p["tensors"]["cls.b"].update(data=data))
        message = f"tensor 'cls.b' field 'data' is not base64 of float64 values: .*{reason}"
        with pytest.raises(ValueError, match=f"^{message}"):
            checkpoint_from_bytes(blob)
        path = tmp_path / "model.json"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_checkpoint(str(path))

    def test_loaded_tensors_are_views_of_one_vector(self, vocab5):
        ckpt = self._checkpoint(vocab5)
        back = checkpoint_from_bytes(checkpoint_to_bytes(ckpt)).params
        assert back.flat.tobytes() == ckpt.params.flat.tobytes()
        for name, tensor in back.items():
            assert np.shares_memory(tensor, back.flat), name

    def test_missing_config_field_rejected(self, vocab5):
        blob = self._tampered(vocab5, lambda p: p["config"].pop("steps"))
        with pytest.raises(ValueError, match="lacks config field 'steps'"):
            checkpoint_from_bytes(blob)

    def test_extra_config_field_rejected(self, vocab5):
        blob = self._tampered(vocab5, lambda p: p["config"].update(layers=3))
        with pytest.raises(ValueError, match="unexpected config field 'layers'"):
            checkpoint_from_bytes(blob)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("dim_word", "2", "'dim_word' must be an int, got str"),
            ("seed", True, "'seed' must be an int, got bool"),
            ("dropout", "0.1", "'dropout' must be a number, got str"),
            ("dropout", False, "'dropout' must be a number, got bool"),
            ("weighted", 1, "'weighted' must be a bool, got int"),
        ],
    )
    def test_config_value_of_wrong_type_rejected(self, vocab5, tmp_path, name, value, message):
        blob = self._tampered(vocab5, lambda p: p["config"].update({name: value}))
        with pytest.raises(ValueError, match=f"^checkpoint config field {message}$"):
            checkpoint_from_bytes(blob)
        path = tmp_path / "model.json"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint config field"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p["tensors"]["cls.W"].update(shape=5),
             "tensor 'cls.W' field 'shape' must be a list, got int"),
            (lambda p: p["tensors"]["cls.W"].update(shape=[3, "8"]),
             "tensor 'cls.W' item 2 field 'shape' must be an int, got str"),
            (lambda p: p["tensors"]["cls.W"].update(dtype=5),
             "tensor 'cls.W' field 'dtype' must be a string, got int"),
            (lambda p: p["tensors"]["cls.W"].update(data=5),
             "tensor 'cls.W' field 'data' must be a string, got int"),
            (lambda p: p["vocab"].update(dep_labels=[1, 2]),
             "vocab item 1 field 'dep_labels' must be a string, got int"),
            (lambda p: p["vocab"].update(ne_tags="O"),
             "vocab field 'ne_tags' must be a list, got str"),
            (lambda p: p.update(words=5), "field 'words' must be a list, got int"),
            (lambda p: p["words"].append(7), "item 4 field 'words' must be a string, got int"),
        ],
    )
    def test_mistyped_field_named(self, vocab5, tmp_path, edit, message):
        blob = self._tampered(vocab5, edit)
        with pytest.raises(ValueError, match=f"^checkpoint {re.escape(message)}$"):
            checkpoint_from_bytes(blob)
        path = tmp_path / "model.json"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint "):
            load_checkpoint(str(path))

    def test_missing_fingerprint_rejected(self, vocab5):
        blob = self._tampered(vocab5, lambda p: p.pop("vocab_sha256"))
        with pytest.raises(ValueError, match="lacks key 'vocab_sha256'"):
            checkpoint_from_bytes(blob)

    def test_unsupported_dtype_rejected(self, vocab5):
        blob = self._tampered(vocab5, lambda p: p["tensors"]["cls.b"].update(dtype="float32"))
        with pytest.raises(ValueError, match="tensor 'cls.b' has unsupported dtype 'float32'"):
            checkpoint_from_bytes(blob)

    def test_load_names_the_file(self, vocab5, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(self._tampered(vocab5, lambda p: p["tensors"].pop("ner.b")))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*'ner.b'"):
            load_checkpoint(str(path))

    def test_structure_and_words_validated(self, vocab5):
        config = ModelConfig(dim_word=3, dim_label=2, dim_hidden=2)
        params = init_params(config, vocab5, num_words=2)
        with pytest.raises(ValueError, match="structure"):
            Checkpoint(config, "graph", vocab5, ("<unk>", "x"), params)
        with pytest.raises(ValueError, match="<unk>"):
            Checkpoint(config, "tree", vocab5, ("x", "<unk>"), params)


class TestTokenIds:
    def test_unknown_tokens_map_to_reserved_row(self):
        words = ("<unk>", "alpha", "beta")
        index = build_word_index(words)
        sentence = Sentence("s", ("alpha", "gamma", "beta"))
        np.testing.assert_array_equal(token_ids_for(sentence, index), [1, 0, 2])
