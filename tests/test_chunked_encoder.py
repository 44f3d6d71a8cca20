"""The chunked encoder against a per-instance reference.

The reference below is the encoder as it ran one instance at a time: each
LSTM direction steps through one sentence, the graph update runs over that
sentence's graph alone and the mentions are row means.  It shares only the
gated cell, the graph operators and the softmax with ``forestrel.encoder``.
A chunk packs several instances into one padded BiLSTM pass, one
block-diagonal graph and one pooling product; its logits and gradients must
match the reference's per-instance ones, summed over the chunk.
"""

import itertools

import numpy as np
import pytest

from forestrel import training
from forestrel.core import DependencyEdge, DependencyForest, LabelVocab, RelationInstance, Sentence
from forestrel.dataio import SynthSpec, synth_generate
from forestrel.encoder import (
    ModelConfig,
    _cell,
    _cell_backward,
    _graph_operators,
    backward,
    build_gnn_graph,
    forward_instance,
    init_params,
)
from forestrel.forest import edgewise_forest
from forestrel.training import TrainConfig, _gradient_check_chunk, train

# --------------------------------------------------------------------------
# Per-instance reference


def _ref_lstm(wx, wh, b, x, reverse):
    n, dr = x.shape[0], wh.shape[1]
    cells, hidden = [None] * n, np.empty((n, dr))
    h, c = np.zeros(dr), np.zeros(dr)
    for t in range(n - 1, -1, -1) if reverse else range(n):
        h, cells[t] = _cell(wx @ x[t] + wh @ h + b, c)
        c = cells[t].c
        hidden[t] = h
    return cells, hidden


def _ref_lstm_backward(params, grads, prefix, x, cells, hidden, reverse, d_hidden):
    wx, wh = params[f"{prefix}.Wx"], params[f"{prefix}.Wh"]
    n, dr = hidden.shape
    dzs = np.empty((n, 4 * dr))
    dh_carry, dc = np.zeros(dr), np.zeros(dr)
    for t in range(n) if reverse else range(n - 1, -1, -1):
        dzs[t], dc = _cell_backward(cells[t], d_hidden[t] + dh_carry, dc)
        dh_carry = dzs[t] @ wh
    padded = np.pad(hidden, ((1, 1), (0, 0)))
    h_prev = padded[2:] if reverse else padded[:-2]
    grads[f"{prefix}.Wx"] += dzs.T @ x
    grads[f"{prefix}.Wh"] += dzs.T @ h_prev
    grads[f"{prefix}.b"] += dzs.sum(axis=0)
    return dzs @ wx


def _ref_messages(h, label_emb, ops):
    adj, dep_labels, head_labels = ops
    return np.concatenate(
        [adj @ h, dep_labels @ label_emb, adj.T @ h, head_labels @ label_emb], axis=1
    )


def _ref_forward(params, config, token_ids, span1, span2, graph, rng=None):
    """One instance; ``rng`` draws its dropout masks (embedding, then mention)."""
    emb = params["word_emb"][token_ids]
    emb_mask = pooled_mask = None
    keep = 1.0 - config.dropout
    if rng is not None:
        emb_mask = (rng.random(emb.shape) < keep) / keep
        emb = emb * emb_mask
    lstm = {}
    for prefix, reverse in (("lstm_l", True), ("lstm_r", False)):
        lstm[prefix] = _ref_lstm(
            params[f"{prefix}.Wx"], params[f"{prefix}.Wh"], params[f"{prefix}.b"], emb, reverse
        )
    h = np.concatenate([lstm["lstm_l"][1], lstm["lstm_r"][1]], axis=1)
    ops, steps = None, []
    if graph is not None:
        ops = _graph_operators([graph], config.weighted)
        c = np.zeros_like(h)
        for _ in range(config.steps):
            m = _ref_messages(h, params["label_emb"], ops)
            h, cell = _cell(m @ params["grn.W"].T + params["grn.b"], c)
            c = cell.c
            steps.append((m, cell))
    pooled = np.concatenate([h[s - 1 : e - 1].mean(axis=0) for s, e in (span1, span2)])
    if rng is not None:
        pooled_mask = (rng.random(pooled.shape) < keep) / keep
        pooled = pooled * pooled_mask
    ner = h @ params["ner.W"].T + params["ner.b"] if config.ner_head else None
    return dict(
        token_ids=token_ids, spans=(span1, span2), emb=emb, emb_mask=emb_mask, lstm=lstm,
        ops=ops, steps=steps, h_final=h, pooled=pooled, pooled_mask=pooled_mask,
        rel_logits=params["cls.W"] @ pooled + params["cls.b"], ner_logits=ner,
    )


def _ref_backward(params, config, tr, grads, d_rel, d_ner=None):
    ds, dr = config.dim_state, config.dim_hidden
    grads["cls.W"] += np.outer(d_rel, tr["pooled"])
    grads["cls.b"] += d_rel
    d_pooled = d_rel @ params["cls.W"]
    if tr["pooled_mask"] is not None:
        d_pooled = d_pooled * tr["pooled_mask"]
    dh = np.zeros_like(tr["h_final"])
    for k, (s, e) in enumerate(tr["spans"]):
        dh[s - 1 : e - 1] += d_pooled[k * ds : (k + 1) * ds] / (e - s)
    if d_ner is not None:
        grads["ner.W"] += d_ner.T @ tr["h_final"]
        grads["ner.b"] += d_ner.sum(axis=0)
        dh = dh + d_ner @ params["ner.W"]
    if tr["steps"]:
        w, half = params["grn.W"], params["grn.W"].shape[1] // 2
        adj, dep_labels, head_labels = tr["ops"]
        dc = np.zeros_like(dh)
        for m, cell in reversed(tr["steps"]):
            dz, dc = _cell_backward(cell, dh, dc)
            grads["grn.W"] += dz.T @ m
            grads["grn.b"] += dz.sum(axis=0)
            d_m = dz @ w
            d_dep, d_head = d_m[:, :half], d_m[:, half:]
            dh = adj.T @ d_dep[:, :ds] + adj @ d_head[:, :ds]
            grads["label_emb"] += dep_labels.T @ d_dep[:, ds:] + head_labels.T @ d_head[:, ds:]
    d_emb = 0.0
    directions = (("lstm_l", True, slice(0, dr)), ("lstm_r", False, slice(dr, None)))
    for prefix, reverse, cols in directions:
        cells, hidden = tr["lstm"][prefix]
        d_emb = d_emb + _ref_lstm_backward(
            params, grads, prefix, tr["emb"], cells, hidden, reverse, dh[:, cols]
        )
    if tr["emb_mask"] is not None:
        d_emb = d_emb * tr["emb_mask"]
    np.add.at(grads["word_emb"], tr["token_ids"], d_emb)


# --------------------------------------------------------------------------
# Fixtures

GRAD_VOCAB = LabelVocab(
    dep_labels=("amod", "nsubj", "obj"),
    relations=("A", "B", "None"),
    ne_tags=("O", "B-X", "I-X"),
)


def _instances(rng, lengths, vocab=GRAD_VOCAB):
    """Seeded instances of the given lengths, each with a chain tree (word m
    headed by m - 1) and a forest adding up to n random arcs."""
    out = []
    for idx, n in enumerate(lengths):
        sid = f"s{idx}"
        tokens = tuple(f"w{int(t)}" for t in rng.integers(0, 6, size=n))
        labels = vocab.dep_labels
        tree_edges = [
            DependencyEdge(
                m - 1, labels[int(rng.integers(len(labels)))], m, float(rng.uniform(0.3, 1.0))
            )
            for m in range(1, n + 1)
        ]
        extra = {
            (int(h), labels[int(rng.integers(len(labels)))], int(m))
            for h, m in rng.integers(1, n + 1, size=(n, 2))
            if h != m and h != m - 1
        }
        forest_edges = tree_edges + [
            DependencyEdge(h, label, m, float(rng.uniform(0.05, 0.5)))
            for h, label, m in sorted(extra)
        ]
        s1 = int(rng.integers(1, n + 1))
        s2 = int(rng.integers(1, n + 1))
        tags = tuple(vocab.ne_tags[int(t)] for t in rng.integers(0, len(vocab.ne_tags), size=n))
        out.append(
            (
                RelationInstance(
                    Sentence(sid, tokens),
                    (s1, int(rng.integers(s1 + 1, n + 2))),
                    (s2, int(rng.integers(s2 + 1, n + 2))),
                    vocab.relations[int(rng.integers(len(vocab.relations)))],
                    tags,
                ),
                DependencyForest.from_edges(sid, n, tree_edges, vocab),
                DependencyForest.from_edges(sid, n, forest_edges, vocab),
            )
        )
    return out


def _chunk_inputs(rng, lengths, structure, vocab=GRAD_VOCAB):
    made = _instances(rng, lengths, vocab)
    token_ids = [rng.integers(0, 8, size=n) for n in lengths]
    graphs = None
    if structure != "textonly":
        graphs = [
            build_gnn_graph(tree if structure == "tree" else forest, vocab)
            for _, tree, forest in made
        ]
    insts = [inst for inst, _, _ in made]
    return token_ids, [i.mention1 for i in insts], [i.mention2 for i in insts], graphs


def _config(weighted, ner, steps, dropout=0.0):
    return ModelConfig(
        dim_word=5, dim_label=3, dim_hidden=4, steps=steps, dropout=dropout,
        weighted=weighted, ner_head=ner, seed=3,
    )


def _assert_close(got, want, what):
    # Relative to the tensor's largest magnitude, so that entries near zero
    # are judged on the tensor's scale.
    scale = max(np.max(np.abs(want)), 1e-300)
    assert got.shape == want.shape, what
    assert np.max(np.abs(got - want)) <= 1e-12 * scale, what


CONFIGS = list(
    itertools.product(("textonly", "tree", "forest"), (False, True), (False, True), (0, 1, 2))
)
LENGTHS = (3, 7, 1, 5, 4)


def _seeds(rng, trace, config):
    d_rel = rng.normal(size=trace.rel_logits.shape)
    d_ner = rng.normal(size=trace.ner_logits.shape) if config.ner_head else None
    return d_rel, d_ner


# --------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("structure, weighted, ner, steps", CONFIGS)
@pytest.mark.parametrize("train_mode", [False, True], ids=["eval", "dropout"])
def test_chunk_matches_per_instance_reference(structure, weighted, ner, steps, train_mode):
    rng = np.random.default_rng(CONFIGS.index((structure, weighted, ner, steps)))
    config = _config(weighted, ner, steps, dropout=0.3 if train_mode else 0.0)
    params = init_params(config, GRAD_VOCAB, num_words=8)
    for name, tensor in params.items():
        tensor += rng.normal(scale=0.3, size=tensor.shape)  # nonzero biases too
    token_ids, span1, span2, graphs = _chunk_inputs(rng, LENGTHS, structure)

    trace = forward_instance(
        params, config, token_ids, span1, span2, graphs,
        train=train_mode, rng=np.random.default_rng(9) if train_mode else None,
    )
    d_rel, d_ner = _seeds(rng, trace, config)
    grads = params.zero_grads()
    backward(params, config, trace, grads, d_rel, d_ner)

    ref_rng = np.random.default_rng(9) if train_mode else None
    want = params.zero_grads()
    offset = 0
    for i, n in enumerate(LENGTHS):
        graph = None if graphs is None else graphs[i]
        tr = _ref_forward(params, config, token_ids[i], span1[i], span2[i], graph, ref_rng)
        words = slice(offset, offset + n)
        offset += n
        _assert_close(trace.rel_logits[i], tr["rel_logits"], f"rel_logits[{i}]")
        _assert_close(trace.h_final[words], tr["h_final"], f"h_final[{i}]")
        if ner:
            _assert_close(trace.ner_logits[words], tr["ner_logits"], f"ner_logits[{i}]")
        _ref_backward(params, config, tr, want, d_rel[i], None if d_ner is None else d_ner[words])
    for name in params:
        _assert_close(grads[name], want[name], name)
    if graphs is None or steps == 0:
        assert not grads["grn.W"].any() and not grads["label_emb"].any()


@pytest.mark.parametrize("structure", ["textonly", "forest"])
def test_results_do_not_depend_on_chunk_boundaries(structure):
    rng = np.random.default_rng(4)
    config = _config(weighted=True, ner=True, steps=2)
    params = init_params(config, GRAD_VOCAB, num_words=8)
    token_ids, span1, span2, graphs = _chunk_inputs(rng, LENGTHS, structure)
    whole = forward_instance(params, config, token_ids, span1, span2, graphs)
    d_rel, d_ner = _seeds(rng, whole, config)
    whole_grads = params.zero_grads()
    backward(params, config, whole, whole_grads, d_rel, d_ner)

    split_grads = params.zero_grads()
    offset = 0
    for i, n in enumerate(LENGTHS):
        graph = None if graphs is None else [graphs[i]]
        one = forward_instance(params, config, [token_ids[i]], [span1[i]], [span2[i]], graph)
        words = slice(offset, offset + n)
        offset += n
        _assert_close(one.rel_logits[0], whole.rel_logits[i], f"rel_logits[{i}]")
        _assert_close(one.ner_logits, whole.ner_logits[words], f"ner_logits[{i}]")
        backward(params, config, one, split_grads, d_rel[i : i + 1], d_ner[words])
    for name in params:
        _assert_close(split_grads[name], whole_grads[name], name)


@pytest.mark.slow
def test_padded_chunk_finite_differences():
    # Lengths 2, 5 and 9 in one chunk: the two short sentences are padded to
    # nine steps in both LSTM directions.
    made = _instances(np.random.default_rng(12), (2, 5, 9))
    results = _gradient_check_chunk(
        GRAD_VOCAB,
        [inst for inst, _, _ in made],
        [tree for _, tree, _ in made],
        [forest for _, _, forest in made],
        seed=0,
    )
    assert len(results) == 12
    offenders = [(name, err) for name, err in results if not err <= 1e-4]
    assert not offenders, offenders


def test_training_dropout_masks_replay_per_instance(monkeypatch):
    # Masks are drawn instance by instance in chunk order: the embedding mask
    # (n, dim_word), then the mention mask (2 * dim_state).  Replaying that
    # order from the training dropout stream gives every chunk's masks.
    data = synth_generate(SynthSpec(n_sentences=30, seed=5))
    forests = [edgewise_forest(data.arc_probs[i.sentence.id], 0.2) for i in data.instances]
    calls = []
    original = training.forward_instance

    def recording(params, config, token_ids, *args, train=False, rng=None):
        trace = original(params, config, token_ids, *args, train=train, rng=rng)
        if train:
            calls.append(([len(t) for t in token_ids], trace))
        return trace

    monkeypatch.setattr(training, "forward_instance", recording)
    mc = ModelConfig(dim_word=6, dim_label=4, dim_hidden=5, dropout=0.4, seed=8)
    tc = TrainConfig(epochs=2, batch_size=20)
    instances = list(data.instances)
    train(instances, forests, instances, forests, data.vocab, mc, tc, "forest")

    assert len(calls) > 4, "each minibatch must span several chunks"
    assert any(len(lengths) > 1 for lengths, _ in calls)
    replay = np.random.default_rng(np.random.SeedSequence(mc.seed).spawn(2)[1])
    keep = 1.0 - mc.dropout
    for lengths, trace in calls:
        offset = 0
        for i, n in enumerate(lengths):
            emb_mask = (replay.random((n, mc.dim_word)) < keep) / keep
            pooled_mask = (replay.random(2 * 2 * mc.dim_hidden) < keep) / keep
            assert np.array_equal(trace.emb_mask[offset : offset + n], emb_mask)
            assert np.array_equal(trace.pooled_mask[i], pooled_mask)
            offset += n
        assert offset == trace.emb_mask.shape[0]


def test_chunks_respect_the_word_budget(monkeypatch):
    monkeypatch.setattr(training, "CHUNK_WORDS", 10)

    class Enc:
        def __init__(self, n):
            self.token_ids = np.zeros(n)

    encoded = [Enc(n) for n in (4, 6, 1, 12, 3, 3, 5)]
    sizes = [[len(e.token_ids) for e in chunk] for chunk in training._chunks(encoded)]
    # consecutive, in order, each within budget unless a lone long instance
    assert sizes == [[4, 6], [1], [12], [3, 3], [5]]
    assert list(training._chunks([])) == []

