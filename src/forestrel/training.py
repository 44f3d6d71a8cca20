"""The chunk loss, Adam, the training loop, evaluation, and the gradient checker.

The loss is defined over a chunk (see ``_chunks``).  An instance costs the
negative log-likelihood of its gold relation plus, when the NER flag is on, the
mean over its words of the gold tags' negative log-likelihoods; a chunk costs
the sum over its instances, and a batch the mean.  L2 regularization enters
Adam as ``2 * l2 * theta`` added to the incoming gradient of weight matrices
only (never biases or embedding tables), which fill one slice of the
parameter vector.  Adam makes one pass over the vector in cache-sized blocks.

All randomness (parameter init, epoch shuffling, dropout) derives from the
single seed in ModelConfig, so identical configurations reproduce identical
models and metric curves bitwise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .core import (
    DependencyForest,
    LabelLookupError,
    LabelVocab,
    NONE_RELATION,
    RelationInstance,
    UNK_TOKEN,
    _check_one_head,
    check_alignment,
)
from .encoder import (
    Checkpoint,
    ForwardTrace,
    ModelConfig,
    ModelParams,
    STRUCTURES,
    backward,
    build_gnn_graph,
    build_word_index,
    forward_instance,
    init_params,
    log_softmax,
    softmax,
    token_ids_for,
)


class VocabMismatchError(ValueError):
    """Data references labels or relations outside the model's vocabulary."""


class OptimizationError(RuntimeError):
    """A non-finite gradient reached the optimizer."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 20
    l2: float = 1e-8
    epochs: int = 100
    patience: int = 10

    def __post_init__(self) -> None:
        for name in ("learning_rate", "l2"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be a finite number >= 0, got {value}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


# Adam's moment decay rates and the denominator's stabilising constant.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements of the parameter vector per pass of ``adam_step``: its two scratch
# blocks and the four vectors' blocks stay in cache between its operations.
ADAM_BLOCK = 16384


@dataclass
class OptimizerState:
    """Adam first/second moment estimates, two scratch blocks, the step counter.

    The moments are float64 vectors laid out like the parameters' ``flat``.
    """

    first: np.ndarray
    second: np.ndarray
    scratch: np.ndarray = field(repr=False)
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "OptimizerState":
        scratch = np.empty((2, min(ADAM_BLOCK, params.flat.size)))
        first, second = np.zeros_like(params.flat), np.zeros_like(params.flat)
        return cls(first=first, second=second, scratch=scratch)


def adam_step(
    params: ModelParams,
    grads: ModelParams,
    state: OptimizerState,
    config: TrainConfig,
) -> None:
    """Apply one Adam update in place (bias-corrected moments).

    ``grads`` shares the layout of ``params``.  After one finiteness check
    over the whole gradient, the update runs over blocks of ``ADAM_BLOCK``
    elements of the flat vectors: ``g`` (plus ``2 * l2 * theta`` inside the
    L2 slice), then ``m``, ``v`` and ``theta -= lr * m_hat / (sqrt(v_hat) +
    eps)``, evaluated in that order into the two scratch blocks, so it needs
    no full-size temporaries.  Each element sees the same operations in the
    same order as a per-tensor update would.
    """
    if not np.isfinite(grads.flat).all():
        name = next(name for name in params if not np.isfinite(grads[name]).all())
        raise OptimizationError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    l2 = params.l2 if config.l2 > 0.0 else slice(0, 0)
    for lo in range(0, params.flat.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, params.flat.size)
        theta, g = params.flat[lo:hi], grads.flat[lo:hi]
        m, v = state.first[lo:hi], state.second[lo:hi]
        a, b = state.scratch[:, : hi - lo]
        i, j = max(l2.start - lo, 0), min(l2.stop, hi) - lo  # the block's L2 part
        if i < j:
            a[:i], a[j:] = g[:i], g[j:]
            np.add(g[i:j], np.multiply(theta[i:j], 2.0 * config.l2, out=a[i:j]), out=a[i:j])
            g = a
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=b)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(g, g, out=b), 1.0 - ADAM_BETA2, out=b)
        np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**t, out=b), out=b)
        b += ADAM_EPS  # sqrt(v_hat) + eps
        np.divide(m, 1.0 - ADAM_BETA1**t, out=a)
        a *= config.learning_rate  # lr * m_hat
        a /= b
        theta -= a


@dataclass(frozen=True)
class EvalReport:
    """Micro precision/recall/F1 over non-None predictions."""

    precision: float
    recall: float
    f1: float
    correct: int
    predicted: int
    gold: int
    recall_denominator: int
    per_relation: dict[str, dict[str, int]]


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    precision: float
    recall: float
    f1: float


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    epochs: list[EpochRecord]
    best_epoch: int
    wall_seconds: float


@dataclass(frozen=True)
class _Encoded:
    token_ids: np.ndarray
    span1: tuple[int, int]
    span2: tuple[int, int]
    graph: DependencyForest | None
    relation_index: int
    tag_indices: tuple[int, ...] | None


def _encode_instances(
    instances: Sequence[RelationInstance],
    forests: Sequence[DependencyForest] | None,
    vocab: LabelVocab,
    word_index: dict[str, int],
    structure: str,
    need_tags: bool,
) -> list[_Encoded]:
    if structure not in STRUCTURES:
        raise ValueError(f"structure must be one of {STRUCTURES}, got {structure!r}")
    use_graph = structure != "textonly"
    if use_graph:
        if forests is None:
            raise ValueError(f"structure {structure!r} requires forests")
        check_alignment(instances, forests)
    encoded = []
    try:
        for idx, inst in enumerate(instances):
            rel_idx = vocab.relation_index(inst.relation)
            if structure == "tree":
                _check_one_head("structure 'tree'", inst.sentence.id, inst.sentence.n,
                                forests[idx].modifier)
            graph = build_gnn_graph(forests[idx], vocab) if use_graph else None
            tags = None
            if need_tags:
                if inst.ne_tags is None:
                    raise ValueError(
                        f"instance {inst.sentence.id!r} has no NE tags but the NER loss is on"
                    )
                if len(inst.ne_tags) != inst.sentence.n:
                    raise ValueError(
                        f"instance {inst.sentence.id!r} has {len(inst.ne_tags)} NE tags "
                        f"for {inst.sentence.n} tokens"
                    )
                tags = tuple(vocab.tag_index(t) for t in inst.ne_tags)
            encoded.append(
                _Encoded(
                    token_ids=token_ids_for(inst.sentence, word_index),
                    span1=inst.mention1,
                    span2=inst.mention2,
                    graph=graph,
                    relation_index=rel_idx,
                    tag_indices=tags,
                )
            )
    except LabelLookupError as exc:
        raise VocabMismatchError(str(exc)) from exc
    return encoded


# Word budget of a chunk: consecutive instances run through one encoder
# forward and backward until the next would take the chunk past it.
CHUNK_WORDS = 64


def _chunks(encoded: Sequence[_Encoded]) -> Iterator[list[_Encoded]]:
    """Split ``encoded`` in order into chunks of at most ``CHUNK_WORDS`` words;
    an instance longer than the budget is a chunk by itself."""
    chunk: list[_Encoded] = []
    words = 0
    for enc in encoded:
        n = len(enc.token_ids)
        if chunk and words + n > CHUNK_WORDS:
            yield chunk
            chunk, words = [], 0
        chunk.append(enc)
        words += n
    if chunk:
        yield chunk


def _forward_chunk(
    params: ModelParams,
    config: ModelConfig,
    chunk: Sequence[_Encoded],
    train: bool,
    rng: np.random.Generator | None,
) -> ForwardTrace:
    instances = ([enc.token_ids for enc in chunk], [enc.span1 for enc in chunk],
                 [enc.span2 for enc in chunk])
    graphs = None if chunk[0].graph is None else [enc.graph for enc in chunk]
    return forward_instance(params, config, *instances, graphs, train=train, rng=rng)


def _loss_and_seeds(
    trace: ForwardTrace, chunk: Sequence[_Encoded]
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """The summed loss of the chunk's instances and its seeds on the head logits;
    the tag term and its seed come with the model's NER head.

    Each seed is softmax minus one-hot at the gold entries; a tag row is also
    divided by its instance's word count.  An instance's tag term and the
    chunk's total are sequential Python sums, in word and instance order.
    """
    rows = np.arange(len(chunk))
    gold = np.array([enc.relation_index for enc in chunk])
    losses = -log_softmax(trace.rel_logits)[rows, gold]
    d_rel = trace.rel_probs.copy()
    d_rel[rows, gold] -= 1.0
    d_ner = None
    if trace.ner_logits is not None:
        lengths = [len(enc.token_ids) for enc in chunk]
        words = np.arange(sum(lengths))
        tags = np.concatenate([enc.tag_indices for enc in chunk])
        picked = log_softmax(trace.ner_logits)[words, tags]
        ends = np.cumsum(lengths)
        losses = [
            rel + -sum(picked[end - n : end]) / n for rel, n, end in zip(losses, lengths, ends)
        ]
        d_ner = softmax(trace.ner_logits)
        d_ner[words, tags] -= 1.0
        d_ner /= np.repeat(lengths, lengths)[:, None]
    return float(sum(losses)), d_rel, d_ner


def _chunk_loss(
    params: ModelParams,
    config: ModelConfig,
    chunk: Sequence[_Encoded],
    grads: ModelParams,
    train: bool,
    rng: np.random.Generator | None,
) -> float:
    """The summed loss of the chunk's instances; their gradients are added
    into ``grads``."""
    trace = _forward_chunk(params, config, chunk, train, rng)
    total, d_rel, d_ner = _loss_and_seeds(trace, chunk)
    backward(params, config, trace, grads, d_rel, d_ner)
    return total


def _build_words(instances: Sequence[RelationInstance]) -> tuple[str, ...]:
    seen = sorted({tok for inst in instances for tok in inst.sentence.tokens})
    return (UNK_TOKEN, *seen)


def train(
    train_instances: Sequence[RelationInstance],
    train_forests: Sequence[DependencyForest] | None,
    dev_instances: Sequence[RelationInstance],
    dev_forests: Sequence[DependencyForest] | None,
    vocab: LabelVocab,
    model_config: ModelConfig,
    train_config: TrainConfig,
    structure: str,
) -> TrainResult:
    """Train with Adam and early stopping on dev F1.

    Dropout, the seed and the NER head (and with it the NER loss) come from
    ``model_config``, which the checkpoint stores as given.  Each minibatch
    is split into chunks of at most ``CHUNK_WORDS`` words; every chunk adds
    its gradients into the batch's buffer and Adam steps once per minibatch.
    Dropout masks come from one stream in instance order: for each instance
    of the shuffled epoch, its embedding mask ``(n, dim_word)`` and then its
    mention mask ``(2 * dim_state,)``, so the masks do not depend on the
    chunk boundaries.

    The checkpoint with the best dev F1 (earliest epoch on ties) is returned;
    training stops once ``patience`` epochs pass without improvement.
    """
    if not train_instances:
        raise ValueError("no training instances")
    start = time.perf_counter()
    words = _build_words(train_instances)
    word_index = build_word_index(words)
    train_enc = _encode_instances(
        train_instances, train_forests, vocab, word_index, structure, model_config.ner_head
    )
    dev_enc = _encode_instances(dev_instances, dev_forests, vocab, word_index, structure, False)
    dev_gold = [enc.relation_index for enc in dev_enc]
    none_index = vocab.relation_index(NONE_RELATION)

    params = init_params(model_config, vocab, len(words))
    state = OptimizerState.for_params(params)
    seeds = np.random.SeedSequence(model_config.seed).spawn(2)
    shuffle_rng = np.random.default_rng(seeds[0])
    dropout_rng = np.random.default_rng(seeds[1])

    records: list[EpochRecord] = []
    best_f1 = -1.0
    best_epoch = 0
    best_params = params.copy()
    # One buffer zeroed per minibatch: a new one per minibatch, allocated among
    # the chunks' arrays, fragments the heap and peak RSS grows run by run.
    acc = params.zero_grads()
    # A diverging run ends in ``adam_step``'s OptimizationError, not in warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, train_config.epochs + 1):
            order = shuffle_rng.permutation(len(train_enc))
            loss_sum = 0.0
            for lo in range(0, len(order), train_config.batch_size):
                batch = [train_enc[idx] for idx in order[lo : lo + train_config.batch_size]]
                acc.flat.fill(0.0)
                for chunk in _chunks(batch):
                    loss_sum += _chunk_loss(
                        params, model_config, chunk, acc, train=True, rng=dropout_rng
                    )
                acc.flat *= 1.0 / len(batch)
                adam_step(params, acc, state, train_config)
            train_loss = loss_sum / len(train_enc)
            dev_pred = [ridx for ridx, _ in _argmax_relations(params, model_config, dev_enc)]
            report = score_predictions(dev_pred, dev_gold, none_index)
            records.append(
                EpochRecord(epoch, train_loss, report.precision, report.recall, report.f1)
            )
            if report.f1 > best_f1:
                best_f1 = report.f1
                best_epoch = epoch
                best_params = params.copy()
            elif epoch - best_epoch >= train_config.patience:
                break
    checkpoint = Checkpoint(model_config, structure, vocab, words, best_params)
    return TrainResult(checkpoint, records, best_epoch, time.perf_counter() - start)


def _argmax_relations(
    params: ModelParams, config: ModelConfig, encoded: Sequence[_Encoded]
) -> list[tuple[int, float]]:
    """Eval-mode forward pass over chunks in input order: per instance, the
    most probable relation index and its probability."""
    out = []
    for chunk in _chunks(encoded):
        probs = _forward_chunk(params, config, chunk, train=False, rng=None).rel_probs
        out.extend((int(ridx), float(row[ridx])) for ridx, row in zip(probs.argmax(axis=1), probs))
    return out


def score_predictions(
    predicted: Sequence[int],
    gold: Sequence[int],
    none_index: int,
    external_gold_count: int | None = None,
    relation_names: Sequence[str] | None = None,
) -> EvalReport:
    """Micro P/R/F1 where only non-None predictions count as positives.

    ``external_gold_count`` replaces the recall denominator when the evaluated
    collection covers only part of the gold annotation.  An undefined precision
    or recall (zero denominator) scores 0 by convention.
    """
    if len(predicted) != len(gold):
        raise ValueError(f"{len(predicted)} predictions vs {len(gold)} gold labels")
    correct = sum(1 for p, g in zip(predicted, gold) if p == g and p != none_index)
    pred_pos = sum(1 for p in predicted if p != none_index)
    gold_pos = sum(1 for g in gold if g != none_index)
    denom_r = external_gold_count if external_gold_count is not None else gold_pos
    if external_gold_count is not None and external_gold_count < correct:
        raise ValueError(
            f"external gold count {external_gold_count} below matched count {correct}"
        )
    precision = correct / pred_pos if pred_pos else 0.0
    recall = correct / denom_r if denom_r else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    per_relation: dict[str, dict[str, int]] = {}
    if relation_names is not None:
        for ridx, name in enumerate(relation_names):
            per_relation[name] = {
                "gold": sum(1 for g in gold if g == ridx),
                "predicted": sum(1 for p in predicted if p == ridx),
                "correct": sum(
                    1 for p, g in zip(predicted, gold) if p == g == ridx
                ),
            }
    return EvalReport(
        precision, recall, f1, correct, pred_pos, gold_pos, denom_r, per_relation
    )


def _encode_for_checkpoint(
    checkpoint: Checkpoint,
    instances: Sequence[RelationInstance],
    forests: Sequence[DependencyForest] | None,
) -> list[_Encoded]:
    word_index = build_word_index(checkpoint.words)
    return _encode_instances(
        instances, forests, checkpoint.vocab, word_index, checkpoint.structure, False
    )


def evaluate(
    checkpoint: Checkpoint,
    instances: Sequence[RelationInstance],
    forests: Sequence[DependencyForest] | None,
    external_gold_count: int | None = None,
) -> EvalReport:
    """Score a checkpoint on labeled instances."""
    encoded = _encode_for_checkpoint(checkpoint, instances, forests)
    predictions = [
        ridx for ridx, _ in _argmax_relations(checkpoint.params, checkpoint.config, encoded)
    ]
    return score_predictions(
        predictions,
        [enc.relation_index for enc in encoded],
        checkpoint.vocab.relation_index(NONE_RELATION),
        external_gold_count,
        checkpoint.vocab.relations,
    )


def predict(
    checkpoint: Checkpoint,
    instances: Sequence[RelationInstance],
    forests: Sequence[DependencyForest] | None,
) -> list[tuple[str, str, float]]:
    """Per-instance (sentence id, predicted relation, probability)."""
    encoded = _encode_for_checkpoint(checkpoint, instances, forests)
    best = _argmax_relations(checkpoint.params, checkpoint.config, encoded)
    return [
        (inst.sentence.id, checkpoint.vocab.relations[ridx], prob)
        for inst, (ridx, prob) in zip(instances, best)
    ]


def format_metric_log(records: Sequence[EpochRecord]) -> str:
    """Machine-parseable per-epoch metrics (tab-separated, exact floats)."""
    lines = ["epoch\ttrain_loss\tdev_precision\tdev_recall\tdev_f1"]
    for r in records:
        lines.append(
            f"{r.epoch}\t{r.train_loss!r}\t{r.precision!r}\t{r.recall!r}\t{r.f1!r}"
        )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Gradient checking


def _gradcheck_fixture():
    """A tiny deterministic instance exercising every model path."""
    from .core import Sentence

    vocab = LabelVocab(
        dep_labels=("amod", "nsubj", "obj"),
        relations=("A", "B", NONE_RELATION),
        ne_tags=("O", "B-X", "I-X"),
    )
    sentence = Sentence("g0", ("w1", "w2", "w3", "w1", "w4"))
    # (modifier, head, label, prob) entries
    tree_arcs = [(2, 0, "nsubj", 0.9), (1, 2, "amod", 0.8), (4, 2, "obj", 0.7),
                 (3, 4, "amod", 0.6), (5, 4, "obj", 0.5)]
    extra_arcs = [(1, 3, "nsubj", 0.3), (4, 5, "amod", 0.25)]
    tree = DependencyForest("g0", 5, vocab, tree_arcs)
    forest = DependencyForest("g0", 5, vocab, tree_arcs + extra_arcs)
    instance = RelationInstance(sentence, (1, 2), (4, 6), "A", ("O", "B-X", "I-X", "O", "O"))
    return vocab, instance, tree, forest


# The parameter offset of ``gradient_check``'s central differences.
GRADIENT_CHECK_STEP = 1e-5


def gradient_check(seed: int = 0) -> list[tuple[str, float]]:
    """Compare analytic gradients against central finite differences.

    Runs every combination of structure mode, message weighting, and NER head
    on a tiny fixture (dropout off) and reports the maximum relative error per
    combination.  The relative error denominator is floored at 1e-4 so that
    finite-difference noise on near-zero gradients is judged absolutely.
    """
    vocab, instance, tree, forest = _gradcheck_fixture()
    return _gradient_check_chunk(vocab, [instance], [tree], [forest], seed)


def _gradient_check_chunk(
    vocab: LabelVocab,
    instances: Sequence[RelationInstance],
    trees: Sequence[DependencyForest],
    forests: Sequence[DependencyForest],
    seed: int,
) -> list[tuple[str, float]]:
    """``gradient_check`` over one chunk made of ``instances``, whose graphs
    are ``trees`` or ``forests`` by structure."""
    words = _build_words(instances)
    word_index = build_word_index(words)
    results: list[tuple[str, float]] = []
    for structure, weighted, use_ner in product(STRUCTURES, (False, True), (False, True)):
        config = ModelConfig(
            dim_word=3, dim_label=3, dim_hidden=4, steps=2, dropout=0.0,
            weighted=weighted, ner_head=use_ner, seed=seed,
        )
        graphs = {"textonly": None, "tree": trees, "forest": forests}[structure]
        chunk = _encode_instances(instances, graphs, vocab, word_index, structure, use_ner)
        params = init_params(config, vocab, len(words))

        def loss_value() -> float:
            trace = _forward_chunk(params, config, chunk, train=False, rng=None)
            return _loss_and_seeds(trace, chunk)[0]

        grads = params.zero_grads()
        _chunk_loss(params, config, chunk, grads, train=False, rng=None)
        worst = 0.0
        for i, orig in enumerate(params.flat.tolist()):
            params.flat[i] = orig + GRADIENT_CHECK_STEP
            up = loss_value()
            params.flat[i] = orig - GRADIENT_CHECK_STEP
            down = loss_value()
            params.flat[i] = orig
            numeric = (up - down) / (2.0 * GRADIENT_CHECK_STEP)
            analytic = grads.flat[i]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-4)
            worst = max(worst, err)
        label = f"structure={structure} weighted={int(weighted)} ner={int(use_ner)}"
        results.append((label, worst))
    return results
