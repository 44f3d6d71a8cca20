"""Dependency forest generation from arc probabilities.

Two routes produce forests:

* ``edgewise_forest`` keeps every arc whose probability clears a threshold.
* ``decode_kbest`` + ``merge_trees`` unions the K best projective trees.

Decoding uses the classic O(n^3) span chart over complete/incomplete
half-spans with ROOT fixed at position 0 (Eisner 1996).  Each of the four item
types keeps a ``(n+1, n+1, K)`` array of scores plus backpointers (split
point, left rank, right rank), as in Huang & Chiang 2005.  One span length is
filled for every start position at once: all splits x K x K candidates are
scored in one array expression and each item keeps its K best.  Edge sets are
rebuilt from the backpointers only where the tie rule needs them and for the
goal item's K derivations.  Arc scores are log-probabilities of each arc's
best label, so K-best diversity is purely structural; the dense arc tables
and edgewise thresholding are array operations on the arc arrays.

Ties are broken deterministically everywhere: compare log-scores first, then
the lexicographically sorted (modifier, head, label-index) edge list.  The
tests check the decoder against an exhaustive enumeration of head vectors
(``tests/reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ArcProbabilities,
    DependencyEdge,
    DependencyForest,
    DependencyTree,
    LabelVocab,
    RelationInstance,
    check_alignment,
)

LEFT, RIGHT = 0, 1  # RIGHT: head at the left end of the span
COMPLETE, INCOMPLETE = 0, 1

NEG_INF = float("-inf")

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


def _arc_tables(probs: ArcProbabilities) -> tuple[np.ndarray, list[list[int]], list[list[float]]]:
    """Dense (head, modifier) tables of best-label log-prob, label index, prob.

    Each arc's entries are one run of the canonical arrays, in vocabulary
    order; the first to reach the run's maximum wins, so exact probability
    ties go to the label that comes first in the vocabulary.
    Logs come from ``math.log``, as in ``tree_log_score`` (``np.log`` can
    differ in the last bit).  Absent arcs have log-prob -inf.
    """
    size = probs.n + 1
    run_start = np.diff(probs.modifier * size + probs.head, prepend=-1) != 0
    run = np.cumsum(run_start) - 1
    top = np.maximum.reduceat(probs.prob, np.flatnonzero(run_start))
    at_top = np.flatnonzero(probs.prob == top[run])
    best = at_top[np.diff(run[at_top], prepend=-1) != 0]
    cells = (probs.head[best], probs.modifier[best])
    label_idx = np.full((size, size), -1)
    label_idx[cells] = probs.label[best]
    prob = np.zeros((size, size))
    prob[cells] = probs.prob[best]
    logp = np.full((size, size), NEG_INF)
    logp[cells] = list(map(math.log, probs.prob[best].tolist()))
    return logp, label_idx.tolist(), prob.tolist()


def _subspans(direction: int, shape: int, i: int, j: int, s: int) -> tuple[tuple, tuple]:
    """The two half-spans a derivation of ``(direction, shape, i, j)`` split at ``s`` joins."""
    if shape == INCOMPLETE:
        return (RIGHT, COMPLETE, i, s), (LEFT, COMPLETE, s + 1, j)
    if direction == RIGHT:
        return (RIGHT, INCOMPLETE, i, s), (RIGHT, COMPLETE, s, j)
    return (LEFT, COMPLETE, i, s), (LEFT, INCOMPLETE, s, j)


class _Chart:
    """K-best lists of every half-span as score and backpointer arrays.

    ``score[direction, shape, i, j, r]`` is the log-score of the rank-``r``
    derivation of half-span ``i..j`` (inclusive; ``direction`` is RIGHT when
    the head sits at the left end), -inf past the last derivation.
    ``split``, ``left`` and ``right`` hold its split point and the ranks of
    the two sub-derivations ``_subspans`` names.  Each item's derivations are
    sorted strictly descending under the tie rule, and there are at most
    ``k``.  Edge sets are rebuilt from the backpointers only on demand.
    """

    def __init__(self, n: int, k: int, label_idx: list[list[int]], prob: list[list[float]]) -> None:
        shape = (2, 2, n + 1, n + 1, k)
        self.k = k
        self.score = np.full(shape, NEG_INF)
        diagonal = np.arange(n + 1)
        self.score[:, COMPLETE, diagonal, diagonal, 0] = 0.0  # the empty derivation
        self.split = np.zeros(shape, dtype=np.min_scalar_type(n))
        self.left = np.zeros(shape, dtype=np.min_scalar_type(k - 1))
        self.right = np.zeros(shape, dtype=np.min_scalar_type(k - 1))
        self.label_idx = label_idx
        self.prob = prob
        self._edges: dict[tuple[int, int, int, int, int], tuple[tuple[int, int, int], ...]] = {}

    def _join(self, direction: int, shape: int, i: int, j: int, left: tuple, right: tuple) -> tuple:
        # The sub-spans' modifiers are disjoint and ordered, so joining their
        # sorted edge tuples around the new arc keeps the result sorted.
        if shape == COMPLETE:
            return left + right
        if direction == RIGHT:
            return left + right + ((j, i, self.label_idx[i][j]),)
        return ((i, j, self.label_idx[j][i]),) + left + right

    def edges(self, item: tuple[int, int, int, int, int]) -> tuple[tuple[int, int, int], ...]:
        """Sorted (modifier, head, label-index) edges of derivation ``(direction, shape, i, j, rank)``."""
        memo = self._edges
        todo = [item]
        while todo:
            top = todo[-1]
            if top in memo:
                todo.pop()
                continue
            direction, shape, i, j, _ = top
            if i == j:
                memo[top] = ()
                todo.pop()
                continue
            lsub, rsub = _subspans(direction, shape, i, j, int(self.split[top]))
            parts = (lsub + (int(self.left[top]),), rsub + (int(self.right[top]),))
            missing = [part for part in parts if part not in memo]
            if missing:
                todo.extend(missing)
                continue
            todo.pop()
            memo[top] = self._join(direction, shape, i, j, memo[parts[0]], memo[parts[1]])
        return memo[item]

    def hypotheses(self, direction: int, shape: int, i: int, j: int) -> list[tuple[float, tuple]]:
        """The item's ``(log_score, edges)`` list, best first."""
        scores = self.score[direction, shape, i, j]
        return [
            (float(scores[r]), self.edges((direction, shape, i, j, r)))
            for r in range(self.k)
            if scores[r] > NEG_INF
        ]

    def fill(self, shape: int, directions: np.ndarray, starts: np.ndarray, firsts: np.ndarray,
             length: int, cands: np.ndarray) -> None:
        """Keep the K best candidates of each row's item.

        Row ``r`` is item ``(directions[r], shape, starts[r], starts[r] + length)``;
        ``cands[r, t, a, b]`` scores its derivation split at
        ``starts[r] + firsts[r] + t`` from sub-derivations of ranks ``a`` and ``b``.
        """
        k = self.k
        rows, width = len(starts), cands[0].size
        flat = cands.reshape(rows, width)
        row_idx = np.arange(rows)[:, None]
        if width > k + 1:
            top = np.argpartition(flat, width - k - 1, axis=1)[:, width - k - 1:]
        else:
            top = np.broadcast_to(np.arange(width), (rows, width))
        vals = flat[row_idx, top]
        order = np.argsort(-vals, axis=1, kind="stable")
        vals = vals[row_idx, order]
        top = top[row_idx, order[:, :k]]
        kept = top.shape[1]
        item = (directions, shape, starts, starts + length, slice(0, kept))
        self.score[item] = vals[:, :kept]
        self.split[item] = top // (k * k) + (starts + firsts)[:, None]
        self.left[item] = top // k % k
        self.right[item] = top % k
        # Equal finite scores among the K+1 best leave the order, or the cut,
        # to the edge sets: re-rank those rows exactly under the tie rule.
        tied = ((vals[:, 1:] == vals[:, :-1]) & (vals[:, 1:] > NEG_INF)).any(axis=1)
        for r in np.flatnonzero(tied).tolist():
            self._rerank(int(directions[r]), shape, int(starts[r]), int(firsts[r]), length,
                         flat[r], vals[r, kept - 1])

    def _rerank(self, direction: int, shape: int, i: int, first: int, length: int,
                row: np.ndarray, cutoff: float) -> None:
        """Sort every candidate scoring at least ``cutoff`` by (-score, edges); keep K."""
        k = self.k
        j = i + length
        ranked = []
        for c in np.flatnonzero((row >= cutoff) & (row > NEG_INF)).tolist():
            s, a, b = i + first + c // (k * k), c // k % k, c % k
            lsub, rsub = _subspans(direction, shape, i, j, s)
            key = self._join(direction, shape, i, j, self.edges(lsub + (a,)), self.edges(rsub + (b,)))
            ranked.append((-float(row[c]), key, s, a, b))
        ranked.sort()
        for r, (neg_score, key, s, a, b) in enumerate(ranked[:k]):
            item = (direction, shape, i, j, r)
            self.score[item] = -neg_score
            self.split[item], self.left[item], self.right[item] = s, a, b
            self._edges[item] = key


def _build_chart(probs: ArcProbabilities, k: int) -> _Chart:
    """Fill the K-best chart one span length at a time, every start at once.

    A derivation scores ``(arc_log_prob + left) + right`` on incomplete spans
    and ``left + right`` on complete ones, summed in derivation order; each
    item keeps the top K of all its splits x K x K candidates.
    """
    n = probs.n
    logp, label_idx, prob = _arc_tables(probs)
    chart = _Chart(n, k, label_idx, prob)
    score = chart.score
    for length in range(1, n + 1):
        starts = np.arange(n + 1 - length)
        ends = starts + length
        i = starts[:, None]
        j = ends[:, None]
        t = np.arange(length)
        both = np.concatenate((starts, starts))
        directions = np.repeat(np.array([RIGHT, LEFT]), len(starts))
        # Incomplete spans attach the arc between the endpoints to a
        # head-left complete span i..s and a head-right one s+1..j.
        arcs = np.concatenate((logp[starts, ends], logp[ends, starts]))
        live = np.flatnonzero(arcs > NEG_INF)
        if live.size:
            sub = both[live][:, None]
            cands = ((arcs[live, None, None, None]
                      + score[RIGHT, COMPLETE][sub, sub + t][..., :, None])
                     + score[LEFT, COMPLETE][sub + t + 1, sub + length][..., None, :])
            chart.fill(INCOMPLETE, directions[live], both[live], np.zeros_like(live), length, cands)
        # Complete spans absorb a finished dependent span: head-left i..s
        # incomplete + s..j complete, or head-right i..s complete + s..j incomplete.
        cands = np.concatenate((
            score[RIGHT, INCOMPLETE][i, i + t + 1][..., :, None]
            + score[RIGHT, COMPLETE][i + t + 1, j][..., None, :],
            score[LEFT, COMPLETE][i, i + t][..., :, None]
            + score[LEFT, INCOMPLETE][i + t, j][..., None, :],
        ))
        firsts = np.repeat(np.array([1, 0]), len(starts))
        chart.fill(COMPLETE, directions, both, firsts, length, cands)
    return chart


def _check_coverage(probs: ArcProbabilities) -> None:
    uncovered = probs.uncovered_modifiers()
    if uncovered:
        raise DecodingError(
            f"sentence {probs.sentence_id!r}: uncovered modifiers (no head candidates) "
            f"at positions {uncovered}"
        )


def _goal_trees(chart: _Chart, probs: ArcProbabilities) -> list[tuple[DependencyTree, tuple]]:
    """The goal item's derivations as trees, each with its sorted edge key."""
    labels = probs.vocab.dep_labels
    out = []
    for _, key in chart.hypotheses(RIGHT, COMPLETE, 0, probs.n):
        edges = (DependencyEdge(h, labels[li], m, chart.prob[h][m]) for m, h, li in key)
        out.append((DependencyTree.from_edges(edges), key))
    return out


def decode_kbest(probs: ArcProbabilities, k: int) -> list[DependencyTree]:
    """The K highest-scoring distinct projective trees, best first.

    Scores are sums of best-label log-probabilities; distinct means distinct
    labeled edge sets.  Fewer than K trees are returned when the candidate arcs
    admit fewer analyses.  Raises DecodingError when some position has no head
    candidates at all.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_coverage(probs)
    trees = _goal_trees(_build_chart(probs, k), probs)
    trees.sort(key=lambda te: (-te[0].log_score, te[1]))
    return [tree for tree, _ in trees[:k]]


def merge_trees(
    trees: Sequence[DependencyTree], vocab: LabelVocab, sentence_id: str = ""
) -> DependencyForest:
    """Union the edges of several trees over the same sentence into a forest.

    Trees should be passed best-first; when the same (head, label, modifier)
    triple occurs in several trees the first occurrence's probability is kept.
    """
    if not trees:
        raise ValueError("merge_trees requires at least one tree")
    n = trees[0].n
    for t in trees[1:]:
        if t.n != n:
            raise ValueError(f"mixed sentence lengths in merge_trees: {n} vs {t.n}")
    all_edges = (e for t in trees for e in t.edges)
    return DependencyForest.from_edges(sentence_id, n, all_edges, vocab)


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
    """Fraction of gold labeled arcs present in the forest."""
    if gold.n != forest.n:
        raise ValueError(f"gold tree has {gold.n} tokens, forest has {forest.n}")
    hit = sum(1 for e in gold.edges if forest.has_edge(e.head, e.label, e.modifier))
    return hit / forest.n


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
