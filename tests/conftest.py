"""Shared fixtures: a small label vocabulary and a seeded sparse-grid factory."""

import numpy as np
import pytest

from forestrel.core import ArcProbabilities, LabelVocab


@pytest.fixture
def vocab5():
    return LabelVocab(
        dep_labels=("amod", "nsubj", "obj", "prep", "conj"),
        relations=("R-A", "R-B", "None"),
        ne_tags=("O", "B-CHEM", "I-CHEM", "B-GENE", "I-GENE"),
    )


def make_arc_probs(rng, vocab, n, sentence_id="t0", extra=0.4, max_labels=2):
    """Random sparse per-modifier candidate grid that always admits a tree.

    The left-neighbour chain (head = m - 1) is always included, so a projective
    spanning tree exists; extra head candidates and label alternatives are
    sprinkled on top.  Per-modifier mass is scaled strictly below 1.
    """
    entries = []
    for m in range(1, n + 1):
        heads = {m - 1}
        for h in range(0, n + 1):
            if h != m and rng.random() < extra:
                heads.add(h)
        cells = []
        for h in sorted(heads):
            count = 1 + int(rng.integers(0, max_labels))
            labels = rng.choice(len(vocab.dep_labels), size=count, replace=False)
            for li in sorted(int(x) for x in labels):
                cells.append((h, li))
        raw = rng.random(len(cells)) + 0.05
        raw = raw / raw.sum() * float(rng.uniform(0.55, 0.98))
        for (h, li), p in zip(cells, raw):
            entries.append((m, h, vocab.dep_labels[li], float(p)))
    return ArcProbabilities(sentence_id, n, vocab, entries)


def make_tied_arc_probs(rng, vocab, n, sentence_id="t0", extra=0.4, max_labels=2):
    """Like ``make_arc_probs``, but every probability takes one of 1-3 values.

    Equal arc scores make many trees tie exactly, and sums of logs of a few
    values often round to the same float, so the decoder's tie rule decides
    most of the ranking.  Values stay at most 1 / (2n): no modifier's mass can
    exceed 1.
    """
    levels = rng.choice(np.arange(1, 6), size=int(rng.integers(1, 4)), replace=False)
    values = [float(v) / (10 * n) for v in levels]
    entries = []
    for m in range(1, n + 1):
        heads = {m - 1} | {h for h in range(0, n + 1) if h != m and rng.random() < extra}
        for h in sorted(heads):
            count = 1 + int(rng.integers(0, max_labels))
            labels = rng.choice(len(vocab.dep_labels), size=count, replace=False)
            for li in sorted(int(x) for x in labels):
                p = values[int(rng.integers(0, len(values)))]
                entries.append((m, h, vocab.dep_labels[li], p))
    return ArcProbabilities(sentence_id, n, vocab, entries)


@pytest.fixture
def arc_grid_factory():
    return make_arc_probs


@pytest.fixture
def tied_grid_factory():
    return make_tied_arc_probs
