"""Loop-by-loop references: exhaustive K-best decoding, the oracle the chart
decoder is tested against, and the per-cell synthetic arc scorer, the oracle
the array-scored generator is tested against.

``brute_force_kbest`` enumerates head vectors instead of filling a chart, and
reads the arc probabilities' four canonical arrays through ``heads`` and
``candidates`` rather than through ``forest._arc_tables``, so a fault in the
decoder's tables or chart cannot hide in the reference as well.  It builds
each tree through the row constructor, not as a subset of the arc arrays.

Both decoders break ties the same way: compare log-scores first, then the
lexicographically sorted (modifier, head, label-index) edge list.  Chart
scores are sums in derivation order, while ``DependencyTree.log_score`` (and
with it ``brute_force_kbest``) sums in modifier order.  Trees whose scores
tie only in exact arithmetic can therefore round differently in the two, and
on such grids the chart and this reference may return different, equally
scored K-sets.  Elsewhere ``brute_force_kbest`` is an independent reference for the
chart decoder.

``synth_generate_per_cell`` scores one modifier at a time and one
(head, label) cell at a time, and builds each sentence's arc set through
the row constructor from label names; ``synth_generate`` scores a sentence
as whole arrays and hands label indices to the array constructor.  They
share only the sentence sampler, so their files must match byte for byte.

``forest_from_edges`` builds an arc set from ``DependencyEdge`` rows, keeping
the first of repeated (head, label, modifier) triples: the tests' shorthand
for hand-written forests and trees.
"""

import itertools

import numpy as np

from forestrel import dataio
from forestrel.core import (
    ArcProbabilities,
    DependencyEdge,
    DependencyForest,
    DependencyTree,
    LabelVocab,
    is_well_formed_tree,
)
from forestrel.dataio import SynthData, SynthSpec, _synth_instance, synth_vocab
from forestrel.forest import DecodingError, decode_kbest

BRUTE_FORCE_MAX_N = 8


def forest_from_edges(
    sentence_id: str, n: int, edges, vocab: LabelVocab, cls: type = DependencyForest
):
    """A ``cls`` of the edges through the row constructor; of repeated
    (head, label, modifier) triples the first edge's probability is kept."""
    kept: dict[tuple[int, str, int], DependencyEdge] = {}
    for e in edges:
        kept.setdefault(e.triple, e)
    rows = [(e.modifier, e.head, e.label, e.prob) for e in kept.values()]
    return cls(sentence_id, n, vocab, rows)


def heads(probs: ArcProbabilities, modifier: int) -> tuple[int, ...]:
    """The distinct stored heads of ``modifier``, ascending."""
    lo, hi = np.searchsorted(probs.modifier, (modifier, modifier + 1))
    return tuple(np.unique(probs.head[lo:hi]).tolist())


def candidates(probs: ArcProbabilities, modifier: int, head: int) -> tuple[tuple[str, float], ...]:
    """The stored ``(label, prob)`` pairs of the arc head->modifier, in vocabulary order."""
    lo, hi = np.searchsorted(probs.modifier, (modifier, modifier + 1))
    lo, hi = lo + np.searchsorted(probs.head[lo:hi], (head, head + 1))
    labels = map(probs.vocab.dep_labels.__getitem__, probs.label[lo:hi].tolist())
    return tuple(zip(labels, probs.prob[lo:hi].tolist()))


def best_label(probs: ArcProbabilities, head: int, modifier: int) -> tuple[str, float] | None:
    """Highest-probability label for the arc head->modifier, or None if absent.

    Exact probability ties go to the label that comes first in vocabulary
    order.
    """
    cands = candidates(probs, modifier, head)
    if not cands:
        return None
    best = cands[0]
    for cand in cands[1:]:  # candidates are in vocabulary order already
        if cand[1] > best[1]:
            best = cand
    return best


def decode_1best(probs: ArcProbabilities) -> DependencyTree:
    """The single best projective tree (the K=1 case of the K-best decoder)."""
    trees = decode_kbest(probs, 1)
    if not trees:
        raise DecodingError(
            f"sentence {probs.sentence_id!r}: no projective tree covers all tokens "
            "with the stored candidate arcs"
        )
    return trees[0]


def brute_force_kbest(probs: ArcProbabilities, k: int) -> list[DependencyTree]:
    """Reference K-best by exhaustive enumeration of head vectors.

    Enumerates every head assignment drawn from each modifier's stored
    candidate heads (assignments using unstored arcs cannot be scored and are
    never valid), keeps the acyclic projective ones, scores them with best
    labels, and sorts under the shared tie rule.  Guarded to n <= 8.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if probs.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is capped at n <= {BRUTE_FORCE_MAX_N}, got n={probs.n}")
    vocab = probs.vocab
    head_choices = [heads(probs, m) for m in range(1, probs.n + 1)]
    if any(not choices for choices in head_choices):
        return []
    scored: list[tuple[DependencyTree, tuple[tuple[int, int, int], ...]]] = []
    for parents in itertools.product(*head_choices):
        if not is_well_formed_tree(parents):
            continue
        rows = []
        key = []
        for m, h in enumerate(parents, start=1):
            label, p = best_label(probs, h, m)  # type: ignore[misc]
            rows.append((m, h, label, p))
            key.append((m, h, vocab.dep_index(label)))
        tree = DependencyTree(probs.sentence_id, probs.n, vocab, rows)
        scored.append((tree, tuple(sorted(key))))
    scored.sort(key=lambda te: (-te[0].log_score, te[1]))
    return [tree for tree, _ in scored[:k]]


def synth_generate_per_cell(spec: SynthSpec) -> SynthData:
    """``synth_generate`` with one Gumbel draw per modifier and a Python loop
    over its candidate cells."""
    vocab = synth_vocab(spec)
    rng = np.random.default_rng(spec.seed)
    n_labels = spec.n_dep_labels
    instances = []
    arc_probs = {}
    gold_trees = {}
    for index in range(spec.n_sentences):
        sid = f"s{index:05d}"
        instance, parents, labels = _synth_instance(rng, sid, spec)
        instances.append(instance)
        n = len(parents)
        entries = []
        gold_edge_prob = {}
        for m in range(1, n + 1):
            cells = [(h, li) for h in range(n + 1) if h != m for li in range(n_labels)]
            scores = rng.gumbel(size=len(cells))
            for ci, (h, li) in enumerate(cells):
                if h == parents[m - 1] and li == labels[m - 1]:
                    scores[ci] += 1.0 / spec.temperature
            scores -= scores.max()
            probs = np.exp(scores)
            probs /= probs.sum()
            for ci, (h, li) in enumerate(cells):
                p = float(probs[ci])
                if h == parents[m - 1] and li == labels[m - 1]:
                    if p <= dataio.PROB_FLOOR:
                        raise RuntimeError(
                            f"gold arc for {sid!r} position {m} fell below the storage floor; "
                            "lower the temperature"
                        )
                    gold_edge_prob[m] = p
                if p > dataio.PROB_FLOOR:
                    entries.append((m, h, vocab.dep_labels[li], p))
        arc_probs[sid] = ArcProbabilities(sid, n, vocab, entries)
        gold_trees[sid] = DependencyTree(sid, n, vocab, [
            (m, parents[m - 1], vocab.dep_labels[labels[m - 1]], gold_edge_prob[m])
            for m in range(1, n + 1)
        ])
    return SynthData(vocab, tuple(instances), arc_probs, gold_trees)
