"""Dependency forest generation from arc probabilities.

Two routes produce forests:

* ``edgewise_forest`` keeps every arc whose probability clears a threshold.
* ``decode_kbest`` + ``merge_trees`` unions the K best projective trees.

Decoding uses the classic O(n^3) span chart over complete/incomplete
half-spans with ROOT fixed at position 0 (Eisner 1996).  Each item keeps its
K best derivations (Huang & Chiang 2005) as scores stored by (start, length)
and again by (end, length), so every sub-span list is a slice, and as one
backpointer each: the flat index of the derivation's candidate.  One span
length is filled for every start and both directions at once: all splits x
K x K candidates are scored in one array expression and each item keeps its
K best through K+1 row-wise argmax rounds.  Edge sets are rebuilt from the
backpointers only where the tie rule needs them and for the goal item's K
derivations.  Arc scores are log-probabilities of each arc's best label, so
K-best diversity is purely structural; the dense arc tables and edgewise
thresholding are array operations on the arc arrays.  An edge is the index
of its arc's best entry, and a goal derivation is the tree of its entries.

Ties are broken deterministically everywhere: compare log-scores first, then
the sorted entry indices, which rank like the lexicographically sorted
(modifier, head, label-index) edge list because entries are in canonical
order.  The tests check the decoder against an exhaustive enumeration of
head vectors (``tests/reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ArcProbabilities,
    DependencyForest,
    DependencyTree,
    LabelVocab,
    RelationInstance,
    _arc_key,
    check_alignment,
)

LEFT, RIGHT = 0, 1  # RIGHT: head at the left end of the span
COMPLETE, INCOMPLETE = 0, 1

NEG_INF = float("-inf")
# Most float64s ``decode_kbest`` may hold at once: the two score layouts,
# 2 * 4*(n+1)**2*K, plus the widest span length's candidate array and the copy
# ``fill`` selects from, 2 * 2*h*(n+1-h)*K**2 with h = (n+1)//2 (the max over
# span lengths L of 2*(n+1-L)*L*K**2); n=40, K=20 needs 940,960.
MAX_CANDIDATES = 16_000_000

class DecodingError(ValueError):
    """Decoding preconditions violated or no analysis exists."""


@dataclass(frozen=True)
class ForestStats:
    """Aggregate forest diagnostics over an aligned collection of instances."""

    density: float
    oracle_las: float | None
    connected: tuple[bool, ...]
    connectivity_ratio: float


def inject_fallback(probs: ArcProbabilities, eps: float) -> ArcProbabilities:
    """Give every uncovered modifier a uniform candidate set with probability eps.

    Each uncovered position receives one candidate per possible head (all
    positions except itself, ROOT included) under the first vocabulary label.
    Covered modifiers are left untouched.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"fallback probability must be in (0, 1], got {eps}")
    if probs.n * eps > 1.0 + 1e-6:
        raise ValueError(
            f"fallback probability {eps} puts more than unit mass on a modifier "
            f"of a {probs.n}-token sentence; use eps <= {1.0 / probs.n:.6g}"
        )
    label = probs.vocab.dep_labels[0]
    entries = list(probs.iter_entries()) + [
        (m, h, label, eps) for m in probs.uncovered_modifiers() for h in range(probs.n + 1) if h != m
    ]
    return ArcProbabilities(probs.sentence_id, probs.n, probs.vocab, entries)


def _arc_tables(probs: ArcProbabilities) -> tuple[np.ndarray, list[list[int]]]:
    """Dense (head, modifier) tables of the best label's log-prob and entry index.

    Each arc's entries are one run of the canonical arrays, in vocabulary
    order; the first to reach the run's maximum wins, so exact probability
    ties go to the label that comes first in the vocabulary.
    Logs come from ``math.log``, as in ``DependencyTree.log_score`` (``np.log``
    can differ in the last bit).  Absent arcs have log-prob -inf and entry -1.
    """
    size = probs.n + 1
    run_start = np.diff(probs.modifier * size + probs.head, prepend=-1) != 0
    run = np.cumsum(run_start) - 1
    top = np.maximum.reduceat(probs.prob, np.flatnonzero(run_start))
    at_top = np.flatnonzero(probs.prob == top[run])
    best = at_top[np.diff(run[at_top], prepend=-1) != 0]
    cells = (probs.head[best], probs.modifier[best])
    entry = np.full((size, size), -1)
    entry[cells] = best
    logp = np.full((size, size), NEG_INF)
    logp[cells] = list(map(math.log, probs.prob[best].tolist()))
    return logp, entry.tolist()


class _Chart:
    """K-best lists of every half-span as score and backpointer arrays.

    ``score[direction, shape, i, l, r]`` is the log-score of the rank-``r``
    derivation of the half-span of length ``l`` that starts at ``i``
    (``direction`` is RIGHT when the head sits at the left end), -inf past the
    last derivation.  ``by_end[direction, shape, i + l, l, r]`` holds the same
    score keyed by the span's end, so every sub-span list one span length
    reads is a slice of one layout or the other.  ``back`` holds the flat
    index ``(t * k + a) * k + b`` of the derivation's candidate, which
    ``_subspans`` decodes into split offset ``t`` and the ranks ``a`` and
    ``b`` of its two sub-derivations.  Each item's derivations are sorted
    strictly descending under the tie rule, and there are at most ``k``.
    Edge sets, sorted tuples of ``entry[head][modifier]`` indices, are
    rebuilt from the backpointers only on demand.
    """

    def __init__(self, n: int, k: int, entry: list[list[int]]) -> None:
        shape = (2, 2, n + 1, n + 1, k)
        self.k = k
        self.score = np.full(shape, NEG_INF)
        self.score[:, COMPLETE, :, 0, 0] = 0.0  # the empty derivation
        self.by_end = self.score.copy()
        self.back = np.zeros(shape, dtype=np.min_scalar_type(n * k * k))
        self.entry = entry
        self._edges: dict[tuple[int, int, int, int, int], tuple[int, ...]] = {}

    def _subspans(self, direction: int, shape: int, i: int, j: int, c: int) -> tuple[tuple, tuple]:
        """The ``(direction, shape, start, end, rank)`` sub-derivations candidate ``c`` joins."""
        k = self.k
        s, a, b = i + c // (k * k), c // k % k, c % k
        if shape == INCOMPLETE:
            return (RIGHT, COMPLETE, i, s, a), (LEFT, COMPLETE, s + 1, j, b)
        if direction == RIGHT:  # splits start one past i: the head needs its dependent
            return (RIGHT, INCOMPLETE, i, s + 1, a), (RIGHT, COMPLETE, s + 1, j, b)
        return (LEFT, COMPLETE, i, s, a), (LEFT, INCOMPLETE, s, j, b)

    def _join(self, direction: int, shape: int, i: int, j: int, left: tuple, right: tuple) -> tuple:
        # The sub-spans' modifiers are disjoint and ordered, so joining their
        # sorted edge tuples around the new arc keeps the result sorted.
        if shape == COMPLETE:
            return left + right
        if direction == RIGHT:
            return left + right + (self.entry[i][j],)
        return (self.entry[j][i],) + left + right

    def edges(self, item: tuple[int, int, int, int, int]) -> tuple[int, ...]:
        """Sorted entry indices of derivation ``(direction, shape, i, j, rank)``."""
        memo = self._edges
        todo = [item]
        while todo:
            top = todo[-1]
            if top in memo:
                todo.pop()
                continue
            direction, shape, i, j, rank = top
            if i == j:
                memo[top] = ()
                todo.pop()
                continue
            parts = self._subspans(direction, shape, i, j, int(self.back[direction, shape, i, j - i, rank]))
            missing = [part for part in parts if part not in memo]
            if missing:
                todo.extend(missing)
                continue
            todo.pop()
            memo[top] = self._join(direction, shape, i, j, memo[parts[0]], memo[parts[1]])
        return memo[item]

    def hypotheses(self, direction: int, shape: int, i: int, j: int) -> list[tuple[float, tuple]]:
        """The item's ``(log_score, edges)`` list, best first."""
        scores = self.score[direction, shape, i, j - i]
        return [
            (float(scores[r]), self.edges((direction, shape, i, j, r)))
            for r in range(self.k)
            if scores[r] > NEG_INF
        ]

    def fill(self, shape: int, length: int, cands: np.ndarray) -> None:
        """Keep the K best candidates of every item of one shape and length.

        ``cands[direction, i, t, a, b]`` scores the derivation of item
        ``(direction, shape, i, i + length)`` at split offset ``t`` from
        sub-derivations of ranks ``a`` and ``b``.
        """
        rows = cands.shape[1]
        flat = cands.reshape(2 * rows, -1)
        picks = min(self.k + 1, flat.shape[1])
        # Take the maximum K+1 times from a copy, striking each pick out.  A
        # row with fewer finite candidates than picks takes a struck index
        # again, so each value is read from the copy as it is picked.
        work = flat.copy()
        cells = work.ravel()
        offsets = np.arange(0, cells.size, flat.shape[1])
        top = np.empty((2 * rows, picks), dtype=np.intp)
        vals = np.empty((2 * rows, picks))
        for p in range(picks):
            top[:, p] = at = work.argmax(axis=1)
            at += offsets
            vals[:, p] = cells[at]
            cells[at] = NEG_INF
        kept = min(self.k, picks)
        self.score[:, shape, :rows, length, :kept] = self.by_end[:, shape, length:, length, :kept] = (
            vals[:, :kept].reshape(2, rows, kept))
        self.back[:, shape, :rows, length, :kept] = top[:, :kept].reshape(2, rows, kept)
        # Equal finite scores among the K+1 best leave the order, or the cut,
        # to the edge sets: re-rank those rows exactly under the tie rule.
        tied = ((vals[:, 1:] == vals[:, :-1]) & (vals[:, 1:] > NEG_INF)).any(axis=1)
        for r in np.flatnonzero(tied).tolist():
            self._rerank(r // rows, shape, r % rows, length, flat[r], vals[r, kept - 1])

    def _rerank(self, direction: int, shape: int, i: int, length: int,
                row: np.ndarray, cutoff: float) -> None:
        """Sort every candidate scoring at least ``cutoff`` by (-score, edges); keep K."""
        j = i + length
        ranked = []
        for c in np.flatnonzero((row >= cutoff) & (row > NEG_INF)).tolist():
            lsub, rsub = self._subspans(direction, shape, i, j, c)
            key = self._join(direction, shape, i, j, self.edges(lsub), self.edges(rsub))
            ranked.append((-float(row[c]), key, c))
        ranked.sort()
        # ``fill`` wrote the K best scores; ties only move candidates between ranks.
        for r, (_, key, c) in enumerate(ranked[:self.k]):
            self.back[direction, shape, i, length, r] = c
            self._edges[(direction, shape, i, j, r)] = key


def _build_chart(probs: ArcProbabilities, k: int) -> _Chart:
    """Fill the K-best chart one span length at a time, every start at once.

    A derivation scores ``(arc_log_prob + left) + right`` on incomplete spans
    and ``left + right`` on complete ones, summed in derivation order; each
    item keeps the top K of all its splits x K x K candidates.
    """
    n = probs.n
    logp, entry = _arc_tables(probs)
    chart = _Chart(n, k, entry)
    start, end = chart.score, chart.by_end
    for length in range(1, n + 1):
        rows = n + 1 - length
        cands = np.empty((2, rows, length, k, k))
        # Incomplete spans attach the arc between the endpoints to a
        # head-left complete span i..s and a head-right one s+1..j; a -inf
        # arc leaves its row at -inf.
        arcs = np.stack((np.diagonal(logp, -length), np.diagonal(logp, length)))
        np.add(arcs[:, :, None, None, None], start[RIGHT, COMPLETE, :rows, :length, :, None], out=cands)
        cands += end[LEFT, COMPLETE, length:, length - 1::-1, None, :]
        chart.fill(INCOMPLETE, length, cands)
        # Complete spans absorb a finished dependent span: head-left i..s
        # incomplete + s..j complete, or head-right i..s complete + s..j incomplete.
        np.add(start[RIGHT, INCOMPLETE, :rows, 1:length + 1, :, None],
               end[RIGHT, COMPLETE, length:, length - 1::-1, None, :], out=cands[RIGHT])
        np.add(start[LEFT, COMPLETE, :rows, :length, :, None],
               end[LEFT, INCOMPLETE, length:, length:0:-1, None, :], out=cands[LEFT])
        chart.fill(COMPLETE, length, cands)
    return chart


def _goal_trees(chart: _Chart, probs: ArcProbabilities) -> list[tuple[DependencyTree, tuple]]:
    """The goal item's derivations as trees, each with its sorted entry indices."""
    return [
        (probs._subset(DependencyTree, list(key)), key)
        for _, key in chart.hypotheses(RIGHT, COMPLETE, 0, probs.n)
    ]


def decode_kbest(probs: ArcProbabilities, k: int) -> list[DependencyTree]:
    """The K highest-scoring distinct projective trees, best first.

    Scores are sums of best-label log-probabilities; distinct means distinct
    labeled edge sets.  Fewer than K trees are returned when the candidate arcs
    admit fewer analyses.  Raises DecodingError when the chart would hold more
    than ``MAX_CANDIDATES`` float64s, or when some position has no head
    candidates at all.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    size, half = probs.n + 1, (probs.n + 1) // 2  # the span length with the most candidates
    floats = 2 * 4 * size * size * k + 2 * 2 * half * (size - half) * k * k
    if floats > MAX_CANDIDATES:
        raise DecodingError(
            f"sentence {probs.sentence_id!r}: n={probs.n}, K={k} needs {floats} chart "
            f"float64s, over the limit of {MAX_CANDIDATES}"
        )
    uncovered = probs.uncovered_modifiers()
    if uncovered:
        raise DecodingError(
            f"sentence {probs.sentence_id!r}: uncovered modifiers (no head candidates) "
            f"at positions {uncovered}"
        )
    trees = _goal_trees(_build_chart(probs, k), probs)
    trees.sort(key=lambda te: (-te[0].log_score, te[1]))
    return [tree for tree, _ in trees[:k]]


def merge_trees(
    trees: Sequence[DependencyTree], vocab: LabelVocab, sentence_id: str = ""
) -> DependencyForest:
    """Union the entries of several trees over the same sentence into a forest.

    Trees should be passed best-first; when the same (head, label, modifier)
    triple occurs in several trees the first occurrence's probability is kept.
    Labels indexed in another vocabulary are read under ``vocab`` by name.
    """
    if not trees:
        raise ValueError("merge_trees requires at least one tree")
    n = trees[0].n
    for t in trees[1:]:
        if t.n != n:
            raise ValueError(f"mixed sentence lengths in merge_trees: {n} vs {t.n}")
    trees = [t._under(vocab) for t in trees]
    fields = zip(*((t.modifier, t.head, t.label, t.prob) for t in trees))
    columns = [np.concatenate(field) for field in fields]
    # np.unique keeps each key's first index in canonical key order.
    _, first = np.unique(_arc_key(n, vocab.num_dep_labels, *columns[:3]), return_index=True)
    return DependencyForest._kept(sentence_id, n, vocab, *(c[first] for c in columns))


def edgewise_forest(probs: ArcProbabilities, gamma: float) -> DependencyForest:
    """Keep every stored arc whose probability strictly exceeds gamma.

    The result may be non-spanning and may leave positions unattached; no
    fallback is applied here.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    return probs._subset(DependencyForest, probs.prob > gamma)


def forest_density(forest: DependencyForest) -> float:
    """Edges per word."""
    return forest.num_edges / forest.n


def oracle_las(forest: DependencyForest, gold: DependencyTree) -> float:
    """Fraction of gold labeled arcs present in the forest, the gold tree read
    under the forest's label order (``LabelLookupError`` for a label it lacks)."""
    if gold.n != forest.n:
        raise ValueError(f"gold tree has {gold.n} tokens, forest has {forest.n}")
    gold = gold._under(forest.vocab)
    keys, wanted = (
        _arc_key(forest.n, forest.vocab.num_dep_labels, a.modifier, a.head, a.label)
        for a in (forest, gold)
    )
    # Keys are unique and sorted (canonical order): a gold key is found or not.
    hit = np.searchsorted(keys, wanted, "right") - np.searchsorted(keys, wanted)
    return int(hit.sum()) / forest.n


def mention_connectivity(
    forest: DependencyForest, span1: tuple[int, int], span2: tuple[int, int]
) -> bool:
    """Whether the two spans touch the same component of the undirected word graph.

    ROOT-anchored arcs contribute no connectivity: the graph's vertices are the
    words alone.
    """
    for start, end in (span1, span2):
        if not (1 <= start < end <= forest.n + 1):
            raise ValueError(f"span [{start}, {end}) invalid for {forest.n} tokens")
    words = forest.head != 0
    linked = np.eye(forest.n + 1, dtype=bool)
    linked[forest.head[words], forest.modifier[words]] = True
    linked |= linked.T
    reached = np.zeros(forest.n + 1, dtype=bool)
    reached[span1[0]:span1[1]] = True
    while not reached[span2[0]:span2[1]].any():
        grown = linked[reached].any(axis=0)
        if (grown == reached).all():
            return False
        reached = grown
    return True


def forest_stats(
    forests: Sequence[DependencyForest],
    instances: Sequence[RelationInstance],
    gold: Sequence[DependencyTree] | None = None,
) -> ForestStats:
    """Mean density, mean oracle LAS (when gold is given), and connectivity.

    The three collections are aligned by position; forests and instances
    must agree as ``check_alignment`` requires.
    """
    check_alignment(instances, forests)
    if gold is not None and len(gold) != len(forests):
        raise ValueError(
            f"{len(gold)} gold trees vs {len(forests)} forests: collections misaligned"
        )
    if not forests:
        raise ValueError("forest_stats requires at least one instance")
    density = sum(forest_density(f) for f in forests) / len(forests)
    las = None
    if gold is not None:
        las = sum(oracle_las(f, g) for f, g in zip(forests, gold)) / len(forests)
    connected = tuple(
        mention_connectivity(f, inst.mention1, inst.mention2)
        for f, inst in zip(forests, instances)
    )
    ratio = sum(connected) / len(connected)
    return ForestStats(density, las, connected, ratio)
