"""Sentence/graph encoder with exact hand-derived gradients.

Pipeline: word embeddings -> two unidirectional LSTMs (their final hidden
sequences concatenated per position) -> a fixed number of recurrent updates
over the labeled dependency graph -> mean-pooled mention states -> linear
softmax heads for the relation and (optionally) per-token NE tags.

The graph update at each step sums, for every word, incoming messages from its
dependents (child state + label embedding) and from its heads (head state +
reversed-label embedding), then applies an LSTM-style gated cell update.  When
confidence weighting is on, each message is scaled by the arc's probability;
those scalars are constants and receive no gradient.  ROOT-anchored arcs never
enter the graph: the graph is the forest's word-arc subset
(``build_gnn_graph``), the same arc arrays in canonical order with labels
indexed in the model's vocabulary, and message passing reads those arrays.
The sums are products with a weighted head x dependent adjacency matrix and
two label-count matrices, and their gradients are the transposed products.

The encoder runs over chunks of consecutive instances, their words packed
into N rows (at most ``training.CHUNK_WORDS`` unless one instance is longer);
one instance is a chunk of one.  The BiLSTM pads the B sentences to the
longest, left-aligned; the right-to-left LSTM reads each sentence reversed in
place, so padding trails in both directions and never feeds a real step.
The graph update runs on the N rows over the block-diagonal union of the
graphs, and mention pooling is one product with a ``(2B, N)`` matrix.
Dropout masks are drawn per instance in chunk order: embedding, then mention.

The sequence LSTMs and the graph update share one gated cell (``_cell`` and
``_cell_backward``) and one weight layout: a matrix whose row blocks are the
gates in ``_CELL_ORDER`` plus a bias of the same height.  The graph update's
``grn.W`` reads a word's message row ``[dependent message | head message]``.

Everything is float64 numpy.  The parameter tensors are named views of one
vector (``ModelParams``), laid out so the BiLSTM reads both directions'
recurrent matrices as one array.  ``backward`` consumes the trace recorded by
``forward_instance`` and adds exact reverse-mode gradients for every parameter
tensor into a caller's buffer of the same layout.  Every sum is a fixed
sequence of numpy products, so equal inputs reproduce bitwise-equal outputs;
a different chunking of the same instances reassociates the sums.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterable, Mapping, Sequence, get_type_hints

import numpy as np

from .core import DependencyForest, LabelVocab, Sentence, UNK_TOKEN, _check_list, _check_types
from .dataio import atomic_open

STRUCTURES = ("textonly", "tree", "forest")
_CHECKPOINT_FORMAT = "forestrel-checkpoint-v2"

# Order of the gate blocks in a gated cell's stacked pre-activations; the
# rows of the LSTM and graph-update weights follow it.
_CELL_ORDER = ("in", "forget", "out", "cand")


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and switches of the encoder.

    ``dim_hidden`` is the size of one LSTM direction; graph states have twice
    that size and are consumed by the graph update without any projection.
    """

    dim_word: int = 100
    dim_label: int = 32
    dim_hidden: int = 100
    steps: int = 2
    dropout: float = 0.1
    weighted: bool = False
    ner_head: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.dim_word, self.dim_label, self.dim_hidden) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def dim_state(self) -> int:
        return 2 * self.dim_hidden


def _l2_applies(name: str, shape: tuple[int, ...]) -> bool:
    # Weight matrices only: 2-D tensors that are not embedding tables.
    return len(shape) == 2 and not name.endswith("_emb")


class ModelParams(dict):
    """Named float64 tensors with a fixed iteration order, each a view of its
    slice of one contiguous vector ``flat``.

    ``flat`` orders the tensors by whether L2 applies, then by the name after
    the module prefix, then by name: the L2 tensors fill the slice ``l2``, and
    the two LSTM directions' matching tensors sit side by side (``stacked``).
    The layout depends only on the names and shapes, so ``zero_grads``,
    ``copy`` and a loaded checkpoint share it element for element.  Write
    into a tensor; assigning a new one would detach it from ``flat``.
    """

    def __init__(self, tensors: Mapping[str, np.ndarray]) -> None:
        """Copy ``tensors`` into one new vector."""
        self._lay_out({name: np.shape(t) for name, t in tensors.items()})
        for name, tensor in tensors.items():
            self[name][...] = tensor

    @classmethod
    def zeros(cls, shapes: Mapping[str, tuple[int, ...]]) -> "ModelParams":
        # np.zeros leaves the pages untouched until a tensor is written, so a
        # loader that writes tensor by tensor grows as it goes.
        params = cls.__new__(cls)
        params._lay_out(shapes)
        return params

    def _lay_out(self, shapes: Mapping[str, tuple[int, ...]]) -> None:
        order = sorted(
            shapes, key=lambda n: (_l2_applies(n, shapes[n]), n.rpartition(".")[2], n)
        )
        ends = np.cumsum([0] + [math.prod(shapes[name]) for name in order]).tolist()
        self._spans = dict(zip(order, zip(ends, ends[1:])))
        self.flat = np.zeros(ends[-1])
        l2 = [self._spans[name][0] for name in order if _l2_applies(name, shapes[name])]
        self.l2 = slice(min(l2, default=ends[-1]), ends[-1])
        for name, shape in shapes.items():
            lo, hi = self._spans[name]
            self[name] = self.flat[lo:hi].reshape(shape)

    def copy(self) -> "ModelParams":
        return ModelParams(self)

    def zero_grads(self) -> "ModelParams":
        return ModelParams.zeros({name: t.shape for name, t in self.items()})

    def stacked(self, *names: str) -> np.ndarray:
        """The equal-shaped tensors ``names``, adjacent in ``flat`` in this
        order, as one view with a new leading axis."""
        spans = [self._spans[name] for name in names]
        if any(a[1] != b[0] for a, b in zip(spans, spans[1:])):
            raise ValueError(f"tensors {names} are not adjacent in flat")
        return self.flat[spans[0][0] : spans[-1][1]].reshape(len(names), *self[names[0]].shape)


def _param_specs(
    config: ModelConfig, vocab: LabelVocab, num_words: int
) -> dict[str, tuple[tuple[int, ...], str]]:
    """Every tensor's shape and initializer, in creation (and RNG draw) order.

    Initializers: ``"emb"`` is small uniform, ``"glorot"`` is the uniform
    Glorot range of the matrix, ``"zeros"`` draws nothing.
    """
    dw, dl, dr = config.dim_word, config.dim_label, config.dim_hidden
    ds = config.dim_state
    specs: dict[str, tuple[tuple[int, ...], str]] = {
        "word_emb": ((num_words, dw), "emb"),
        "label_emb": ((2 * vocab.num_dep_labels, dl), "emb"),
    }
    for direction in ("l", "r"):
        specs[f"lstm_{direction}.Wx"] = ((4 * dr, dw), "glorot")
        specs[f"lstm_{direction}.Wh"] = ((4 * dr, dr), "glorot")
        specs[f"lstm_{direction}.b"] = ((4 * dr,), "zeros")
    specs["grn.W"] = ((4 * ds, 2 * (ds + dl)), "glorot")
    specs["grn.b"] = ((4 * ds,), "zeros")
    specs["cls.W"] = ((len(vocab.relations), 2 * ds), "glorot")
    specs["cls.b"] = ((len(vocab.relations),), "zeros")
    if config.ner_head:
        specs["ner.W"] = ((len(vocab.ne_tags), ds), "glorot")
        specs["ner.b"] = ((len(vocab.ne_tags),), "zeros")
    return specs


def init_params(
    config: ModelConfig, vocab: LabelVocab, num_words: int
) -> ModelParams:
    """Seeded initialization; creation order is fixed so results are reproducible.

    Matrices use uniform Glorot ranges, biases start at zero, embeddings are
    small uniform.
    """
    rng = np.random.default_rng(config.seed)
    specs = _param_specs(config, vocab, num_words)
    params = ModelParams.zeros({name: shape for name, (shape, _) in specs.items()})
    for name, (shape, kind) in specs.items():
        if kind == "emb":
            params[name][...] = rng.uniform(-0.1, 0.1, size=shape)
        elif kind == "glorot":
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            params[name][...] = rng.uniform(-bound, bound, size=shape)
    return params


def build_gnn_graph(forest: DependencyForest, vocab: LabelVocab) -> DependencyForest:
    """The forest's word arcs (ROOT-anchored arcs dropped) in canonical order,
    read under ``vocab`` when the forest's labels are indexed differently."""
    return forest._subset(DependencyForest, forest.head != 0)._under(vocab)


def _graph_operators(
    graphs: Sequence[DependencyForest], weighted: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The message-passing operators of a chunk's graphs over its ``n`` packed
    word rows: the block-diagonal union, each graph's words shifted by the
    words of the graphs before it.

    The arc weights (probabilities, or 1.0 when unweighted) are summed into
    the ``(n, n)`` head x dependent adjacency and two ``(n, 2 * L)`` tables
    for the ``L`` dependency labels: each head's label counts and each
    dependent's reversed-label counts, label ``l`` reversed in column
    ``L + l`` as in ``label_emb``.
    """
    sizes = [g.n for g in graphs]
    n, num_labels = sum(sizes), graphs[0].vocab.num_dep_labels
    width = 2 * num_labels
    rows = np.repeat(np.cumsum([0] + sizes[:-1]) - 1, [len(g.prob) for g in graphs])
    h = np.concatenate([g.head for g in graphs])
    if not h.all():
        sid = next(g.sentence_id for g in graphs if not g.head.all())
        raise ValueError(f"graph {sid!r} holds ROOT arcs; pass build_gnn_graph's result")
    h += rows  # state rows
    m = np.concatenate([g.modifier for g in graphs]) + rows
    labels = np.concatenate([g.label for g in graphs])
    probs = np.concatenate([g.prob for g in graphs])
    w = probs if weighted else np.ones(len(probs))

    def summed(index: np.ndarray, cols: int) -> np.ndarray:
        return np.bincount(index, weights=w, minlength=n * cols).reshape(n, cols)

    return (
        summed(h * n + m, n),
        summed(h * width + labels, width),
        summed(m * width + num_labels + labels, width),
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # The stable formula for each sign of x, 1 / (1 + e^-x) or e^x / (1 + e^x),
    # so exp never overflows.  Bitwise the two-branch formula: exp(+-0) = 1,
    # e is never -0, and for a NaN x, minimum returns its first operand (x,
    # not -x) and maximum the NaN e.  np.where on large arrays is far slower.
    e = np.exp(np.minimum(x, -x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


@dataclass
class _CellCache:
    """One gated-cell update: the activated gates stacked on the last axis in
    ``_CELL_ORDER``, the incoming cell state and the new one."""

    gates: np.ndarray
    c_prev: np.ndarray
    c: np.ndarray


def _cell(z: np.ndarray, c_prev: np.ndarray) -> tuple[np.ndarray, _CellCache]:
    """The LSTM-style gated update shared by the sequence LSTMs and the graph.

    ``z`` stacks the pre-activations in ``_CELL_ORDER`` on its last axis, for
    any number of leading axes:  c = forget * c_prev + in * cand and
    h = out * tanh(c).
    """
    d = c_prev.shape[-1]
    gates = np.concatenate([_sigmoid(z[..., : 3 * d]), np.tanh(z[..., 3 * d :])], axis=-1)
    gi, gf, go, gu = (gates[..., k * d : (k + 1) * d] for k in range(4))
    c = gf * c_prev + gi * gu
    return go * np.tanh(c), _CellCache(gates, c_prev, c)


def _cell_backward(
    cache: _CellCache, dh: np.ndarray, dc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the stacked pre-activations and of ``c_prev``, given the
    gradients reaching the new hidden state and, from later updates, the new
    cell state."""
    d = cache.c.shape[-1]
    gi, gf, go, gu = (cache.gates[..., k * d : (k + 1) * d] for k in range(4))
    tc = np.tanh(cache.c)
    dc = dc + dh * go * (1.0 - tc * tc)
    dz = np.concatenate(
        [
            dc * gu * gi * (1.0 - gi),
            dc * cache.c_prev * gf * (1.0 - gf),
            dh * tc * go * (1.0 - go),
            dc * gi * (1.0 - gu * gu),
        ],
        axis=-1,
    )
    return dz, dc * gf


# The sequence LSTMs in the order of the leading direction axis of
# ``_LstmCache``: ``lstm_l`` reads each sentence right to left, ``lstm_r``
# left to right; a word's state row is their concatenation in this order.
_DIRECTIONS = ("lstm_l", "lstm_r")


@dataclass
class _LstmCache:
    """Both sequence LSTMs over a chunk, in a padded ``(2, B, T)`` layout.

    Direction ``d`` reads sentence ``b`` along row ``(d, b)``, left-aligned
    and padded to the longest sentence, ``lstm_l`` reversed in place, so
    padding trails and never feeds a real step.  ``rows[d]`` maps each packed
    word to its flat index in that layout.
    """

    x: np.ndarray
    rows: np.ndarray
    cells: list[_CellCache]
    hidden: np.ndarray


def bilstm_forward(
    params: ModelParams, emb: np.ndarray, lengths: Sequence[int]
) -> tuple[np.ndarray, _LstmCache]:
    """Run both directions over a chunk's packed embedded sentences.

    ``emb`` stacks the sentences' word rows and ``lengths`` gives their word
    counts.  Each direction's input projection is one product before the
    recurrence; the time loop steps both directions of every sentence at
    once.  Returns the per-word concatenation [right-to-left state;
    left-to-right state] and the cache.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    b, t_max, dr = len(lengths), int(lengths.max()), params["lstm_l.Wh"].shape[1]
    sentence = np.repeat(np.arange(b), lengths)
    pos = np.arange(len(sentence)) - (np.cumsum(lengths) - lengths)[sentence]
    rows = np.array(
        [sentence * t_max + lengths[sentence] - 1 - pos, (b + sentence) * t_max + pos]
    )
    zx = np.zeros((2 * b * t_max, 4 * dr))
    for d, name in enumerate(_DIRECTIONS):
        zx[rows[d]] = emb @ params[f"{name}.Wx"].T + params[f"{name}.b"]
    zx = zx.reshape(2, b, t_max, 4 * dr)
    wh = params.stacked(*(f"{name}.Wh" for name in _DIRECTIONS))
    hidden = np.empty((2, b, t_max, dr))
    cells: list[_CellCache] = []
    h = c = np.zeros((2, b, dr))
    for t in range(t_max):
        h, cell = _cell(zx[:, :, t] + h @ wh.transpose(0, 2, 1), c)
        c = cell.c
        hidden[:, :, t] = h
        cells.append(cell)
    flat = hidden.reshape(-1, dr)
    return np.concatenate([flat[rows[0]], flat[rows[1]]], axis=1), _LstmCache(
        emb, rows, cells, hidden
    )


def _bilstm_backward(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    cache: _LstmCache,
    d_states: np.ndarray,
) -> np.ndarray:
    """Add both LSTMs' weight gradients into ``grads`` and return the
    gradient of their packed inputs.

    Padded steps get a zero state gradient and come after every real step
    of their row, so their ``dz`` is exactly zero and reaches no real step.
    """
    _, b, t_max, dr = cache.hidden.shape
    d_hidden = np.zeros((2 * b * t_max, dr))
    d_hidden[cache.rows[0]] = d_states[:, :dr]
    d_hidden[cache.rows[1]] = d_states[:, dr:]
    d_hidden = d_hidden.reshape(2, b, t_max, dr)
    wh = params.stacked(*(f"{name}.Wh" for name in _DIRECTIONS))
    dzs = np.empty((2, b, t_max, 4 * dr))
    dh_carry = dc = np.zeros((2, b, dr))
    for t in range(t_max - 1, -1, -1):
        dzs[:, :, t], dc = _cell_backward(cache.cells[t], d_hidden[:, :, t] + dh_carry, dc)
        dh_carry = dzs[:, :, t] @ wh
    # The hidden state each step read: zeros before the first step.
    h_prev = np.zeros_like(cache.hidden)
    h_prev[:, :, 1:] = cache.hidden[:, :, :-1]
    dzs, h_prev = dzs.reshape(-1, 4 * dr), h_prev.reshape(-1, dr)
    d_emb = 0.0
    for d, name in enumerate(_DIRECTIONS):
        dz = dzs[cache.rows[d]]
        grads[f"{name}.Wx"] += dz.T @ cache.x
        grads[f"{name}.Wh"] += dz.T @ h_prev[cache.rows[d]]
        grads[f"{name}.b"] += dz.sum(axis=0)
        d_emb = d_emb + dz @ params[f"{name}.Wx"]
    return d_emb


def compute_messages(
    h_states: np.ndarray,
    label_emb: np.ndarray,
    operators: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Per-word sums of incoming messages, one row per word:
    ``[dependent message | head message]``.

    A word's dependent message stacks the dependent's state with the arc
    label's embedding; its head message stacks the head's state with the
    reversed label's embedding.  Both are products with the weighted
    adjacency and label-count matrices of ``_graph_operators``, a fixed
    computation for a given graph, so the sums are bitwise reproducible.
    """
    adj, dep_labels, head_labels = operators
    return np.concatenate(
        [adj @ h_states, dep_labels @ label_emb, adj.T @ h_states, head_labels @ label_emb],
        axis=1,
    )


@dataclass
class GrnStepCache:
    m: np.ndarray
    cell: _CellCache


def grn_step(
    params: ModelParams, c_prev: np.ndarray, m: np.ndarray
) -> tuple[np.ndarray, GrnStepCache]:
    """One gated update of all word states from their summed messages."""
    h_new, cell = _cell(m @ params["grn.W"].T + params["grn.b"], c_prev)
    return h_new, GrnStepCache(m, cell)


def grn_forward(
    params: ModelParams,
    h0: np.ndarray,
    operators: tuple[np.ndarray, np.ndarray, np.ndarray],
    steps: int,
) -> tuple[np.ndarray, list[GrnStepCache]]:
    """Iterate the graph update ``steps`` times from zero cells.

    With ``steps == 0`` the input states pass through unchanged.
    """
    h = h0
    c = np.zeros_like(h0)
    caches: list[GrnStepCache] = []
    for _ in range(steps):
        m = compute_messages(h, params["label_emb"], operators)
        h, cache = grn_step(params, c, m)
        c = cache.cell.c
        caches.append(cache)
    return h, caches


def mention_pool(
    lengths: Sequence[int],
    span1: Sequence[tuple[int, int]],
    span2: Sequence[tuple[int, int]],
) -> np.ndarray:
    """The ``(2B, N)`` matrix whose rows average mention spans over a chunk's
    packed state rows: row ``2i`` the first mention of sentence ``i``, row
    ``2i + 1`` its second (half-open, 1-based within their sentence)."""
    pool = np.zeros((2 * len(lengths), int(sum(lengths))))
    offset = 0
    for i, (n, spans) in enumerate(zip(lengths, zip(span1, span2))):
        for j, (start, end) in enumerate(spans):
            if not (1 <= start < end <= n + 1):
                raise ValueError(f"span [{start}, {end}) invalid for {n} positions")
            pool[2 * i + j, offset + start - 1 : offset + end - 1] = 1.0 / (end - start)
        offset += n
    return pool


@dataclass
class ForwardTrace:
    """Everything ``backward`` needs to replay one chunk exactly.  Word-level
    arrays hold the chunk's N words packed sentence after sentence;
    instance-level arrays have one row per sentence."""

    token_ids: np.ndarray
    pool: np.ndarray
    operators: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(repr=False)
    emb_mask: np.ndarray | None
    lstm: _LstmCache = field(repr=False)
    grn_caches: list[GrnStepCache] = field(repr=False)
    h_final: np.ndarray
    pooled_mask: np.ndarray | None
    pooled_dropped: np.ndarray
    rel_logits: np.ndarray
    rel_probs: np.ndarray
    ner_logits: np.ndarray | None


def forward_instance(
    params: ModelParams,
    config: ModelConfig,
    token_ids: Sequence[np.ndarray],
    span1: Sequence[tuple[int, int]],
    span2: Sequence[tuple[int, int]],
    graph: Sequence[DependencyForest] | None,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardTrace:
    """Full forward pass over a chunk of instances.

    Each argument (token ids, spans, ``build_gnn_graph`` graphs) holds one
    entry per instance; one instance runs as a chunk of one.  ``rel_logits`` has a row per instance,
    ``h_final`` and ``ner_logits`` a row per word.

    ``graph=None`` selects the text-only path: mention pooling and the NER head
    read the sequence states directly and the graph update is skipped entirely.
    Inverted dropout is applied to the word embeddings and to the concatenated
    mention vector only when ``train`` is true (``rng`` required then).  Per
    instance in chunk order, the embedding mask ``(n, dim_word)`` is drawn and
    then the mention mask ``(2 * dim_state,)``, as one instance at a time would.
    """
    use_dropout = train and config.dropout > 0.0
    if use_dropout and rng is None:
        raise ValueError("training-mode forward with dropout needs an rng")
    lengths = [len(ids) for ids in token_ids]
    pool = mention_pool(lengths, span1, span2)
    ids = np.concatenate([np.asarray(t, dtype=np.int64) for t in token_ids])
    emb = params["word_emb"][ids]
    emb_mask = pooled_mask = None
    if use_dropout:
        keep = 1.0 - config.dropout
        masks = [
            ((rng.random((n, config.dim_word)) < keep) / keep,
             (rng.random(2 * config.dim_state) < keep) / keep)
            for n in lengths
        ]
        emb_mask = np.concatenate([emb_m for emb_m, _ in masks])
        pooled_mask = np.stack([pooled_m for _, pooled_m in masks])
        emb = emb * emb_mask
    h0, lstm = bilstm_forward(params, emb, lengths)
    h_final, grn_caches, operators = h0, [], None
    if graph is not None:
        operators = _graph_operators(graph, config.weighted)
        h_final, grn_caches = grn_forward(params, h0, operators, config.steps)
    pooled = (pool @ h_final).reshape(len(lengths), -1)
    pooled_dropped = pooled if pooled_mask is None else pooled * pooled_mask
    rel_logits = pooled_dropped @ params["cls.W"].T + params["cls.b"]
    ner_logits = None
    if config.ner_head:
        ner_logits = h_final @ params["ner.W"].T + params["ner.b"]
    return ForwardTrace(
        token_ids=ids,
        pool=pool,
        operators=operators,
        emb_mask=emb_mask,
        lstm=lstm,
        grn_caches=grn_caches,
        h_final=h_final,
        pooled_mask=pooled_mask,
        pooled_dropped=pooled_dropped,
        rel_logits=rel_logits,
        rel_probs=softmax(rel_logits),
        ner_logits=ner_logits,
    )


def backward(
    params: ModelParams,
    config: ModelConfig,
    trace: ForwardTrace,
    grads: dict[str, np.ndarray],
    d_rel_logits: np.ndarray,
    d_ner_logits: np.ndarray | None = None,
) -> None:
    """Add the exact gradients of every parameter, given loss seeds on the
    head logits (shaped like ``trace.rel_logits`` and ``trace.ner_logits``),
    into ``grads`` (one array per parameter, e.g. a batch sum).

    Zero seeds add nothing.  Arc probabilities used as message weights are
    constants and never receive a gradient.
    """
    ds = config.dim_state

    grads["cls.W"] += d_rel_logits.T @ trace.pooled_dropped
    grads["cls.b"] += d_rel_logits.sum(axis=0)
    d_pooled = d_rel_logits @ params["cls.W"]
    if trace.pooled_mask is not None:
        d_pooled = d_pooled * trace.pooled_mask
    dh = trace.pool.T @ d_pooled.reshape(-1, ds)

    if d_ner_logits is not None:
        if "ner.W" not in params:
            raise ValueError("NER loss seed given but the model has no NER head")
        grads["ner.W"] += d_ner_logits.T @ trace.h_final
        grads["ner.b"] += d_ner_logits.sum(axis=0)
        dh = dh + d_ner_logits @ params["ner.W"]

    if trace.grn_caches:
        w_grn = params["grn.W"]
        half = w_grn.shape[1] // 2
        dc = np.zeros_like(dh)
        d_label = grads["label_emb"]
        adj, dep_labels, head_labels = trace.operators
        for cache in reversed(trace.grn_caches):
            dz, dc = _cell_backward(cache.cell, dh, dc)
            grads["grn.W"] += dz.T @ cache.m
            grads["grn.b"] += dz.sum(axis=0)
            d_m = dz @ w_grn
            d_dep, d_head = d_m[:, :half], d_m[:, half:]
            dh = adj.T @ d_dep[:, :ds] + adj @ d_head[:, :ds]
            d_label += dep_labels.T @ d_dep[:, ds:] + head_labels.T @ d_head[:, ds:]

    d_emb = _bilstm_backward(params, grads, trace.lstm, dh)
    if trace.emb_mask is not None:
        d_emb = d_emb * trace.emb_mask
    np.add.at(grads["word_emb"], trace.token_ids, d_emb)


# --------------------------------------------------------------------------
# Checkpoints


@dataclass(frozen=True)
class Checkpoint:
    """A trained model: config, structure mode, vocabularies, parameters."""

    config: ModelConfig
    structure: str
    vocab: LabelVocab
    words: tuple[str, ...]
    params: ModelParams

    def __post_init__(self) -> None:
        if self.structure not in STRUCTURES:
            raise ValueError(f"structure must be one of {STRUCTURES}, got {self.structure!r}")
        if not self.words or self.words[0] != UNK_TOKEN:
            raise ValueError(f"word list must start with the {UNK_TOKEN!r} row")


def vocab_fingerprint(vocab: LabelVocab, words: tuple[str, ...]) -> str:
    payload = json.dumps(
        {**asdict(vocab), "words": list(words)}, sort_keys=True, ensure_ascii=False
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def checkpoint_to_bytes(ckpt: Checkpoint) -> bytes:
    """Self-describing canonical serialization (exact float64 round-trip)."""
    tensors = {}
    for name, tensor in sorted(ckpt.params.items()):
        tensors[name] = {
            "shape": list(tensor.shape),
            "dtype": "float64",
            "data": base64.b64encode(tensor.tobytes()).decode("ascii"),
        }
    payload = {
        "format": _CHECKPOINT_FORMAT,
        "config": asdict(ckpt.config),
        "structure": ckpt.structure,
        "vocab": asdict(ckpt.vocab),
        "words": list(ckpt.words),
        "vocab_sha256": vocab_fingerprint(ckpt.vocab, ckpt.words),
        "tensors": tensors,
    }
    return (json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")


def _require_names(
    kind: str, found: object, expected: Iterable[str], exact: bool = True
) -> None:
    """Check the keys of the JSON object ``found``."""
    if not isinstance(found, dict):
        raise ValueError(f"checkpoint {kind}s are not a JSON object")
    found, expected = set(found), set(expected)
    missing = sorted(expected - found)
    if missing:
        raise ValueError(f"checkpoint lacks {kind} {', '.join(map(repr, missing))}")
    extra = sorted(found - expected)
    if exact and extra:
        raise ValueError(f"checkpoint has unexpected {kind} {', '.join(map(repr, extra))}")


def _require(where: str, check: Callable, *args: object) -> object:
    """``check(*args)`` (``core._check_types`` or ``core._check_list``) with
    ``checkpoint <where>`` before its error."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ValueError(f"checkpoint {where}{exc}") from None


def checkpoint_from_bytes(blob: bytes) -> Checkpoint:
    """Parse a checkpoint, checking it against the model its config describes.

    Every key the format defines must be present and hold its JSON type:
    every config field with its annotated type, ``words`` and the vocabulary
    lists as lists of strings, and per tensor ``shape`` as a list of ints and
    ``dtype`` and ``data`` as strings, ``data`` the base64 of float64 values.
    The tensors must be exactly the ones ``init_params`` creates, with the
    same shapes and finite values.  Each is decoded straight into its slice
    of the parameter vector and its base64 string dropped, so the strings,
    the decoded tensors and the vector do not all peak together.
    """
    payload = json.loads(blob.decode("utf-8"))
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != _CHECKPOINT_FORMAT:
        raise ValueError(
            f"unrecognized checkpoint format {found!r}, expected {_CHECKPOINT_FORMAT!r}"
        )
    keys = ("config", "structure", "vocab", "words", "vocab_sha256", "tensors")
    _require_names("key", payload, keys, exact=False)
    lists = [f.name for f in fields(LabelVocab)]
    _require_names("vocab list", payload["vocab"], lists, exact=False)
    config_fields = get_type_hints(ModelConfig)
    _require_names("config field", payload["config"], config_fields)
    row = [payload["config"][name] for name in config_fields]
    _require("config ", _check_types, [row], tuple(config_fields.items()))
    config = ModelConfig(**payload["config"])
    vocab = LabelVocab(
        *(tuple(_require("vocab ", _check_list, payload["vocab"][name], name, str))
          for name in lists)
    )
    words = tuple(_require("", _check_list, payload["words"], "words", str))
    if payload["vocab_sha256"] != vocab_fingerprint(vocab, words):
        raise ValueError("checkpoint vocabulary fingerprint mismatch")
    specs = _param_specs(config, vocab, len(words))
    _require_names("tensor", payload["tensors"], specs)
    params = ModelParams.zeros({name: specs[name][0] for name in payload["tensors"]})
    for name, spec in payload["tensors"].items():
        _require_names(f"tensor {name!r} key", spec, ("shape", "dtype", "data"), exact=False)
        where = f"tensor {name!r} "
        _require(where, _check_list, spec["shape"], "shape", int)
        _require(where, _check_types, [[spec["dtype"], spec["data"]]],
                 (("dtype", str), ("data", str)))
        if spec["dtype"] != "float64":
            raise ValueError(f"tensor {name!r} has unsupported dtype {spec['dtype']!r}")
        try:
            data = np.frombuffer(binascii.a2b_base64(spec.pop("data")), dtype=np.float64)
        except ValueError as exc:  # not base64, or not a whole number of float64s
            raise ValueError(
                f"tensor {name!r} field 'data' is not base64 of float64 values: {exc}"
            ) from None
        shape = specs[name][0]
        if tuple(spec["shape"]) != shape or data.size != int(np.prod(shape)):
            raise ValueError(
                f"tensor {name!r} has shape {list(spec['shape'])} with {data.size} values, "
                f"expected shape {list(shape)}"
            )
        if not np.isfinite(data).all():
            raise ValueError(f"tensor {name!r} has non-finite values")
        params[name][...] = data.reshape(shape)
    return Checkpoint(config, payload["structure"], vocab, words, params)


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    with atomic_open(path, binary=True) as fh:
        fh.write(checkpoint_to_bytes(ckpt))


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return checkpoint_from_bytes(blob)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def build_word_index(words: tuple[str, ...]) -> dict[str, int]:
    return {w: i for i, w in enumerate(words)}


def token_ids_for(sentence: Sentence, word_index: dict[str, int]) -> np.ndarray:
    unk = word_index[UNK_TOKEN]
    return np.array([word_index.get(tok, unk) for tok in sentence.tokens], dtype=np.int64)
