"""Dependency forest generation from arc probabilities.

Two routes produce forests:

* ``edgewise_forest`` keeps every arc whose probability clears a threshold.
* ``decode_kbest`` + ``merge_trees`` unions the K best projective trees.

Decoding uses the classic O(n^3) span chart over complete/incomplete
half-spans with ROOT fixed at position 0.  K-best lists per chart item are
built by lazy best-first frontier merging: seed each combination rule with its
top pair, pop the maximum, then push the two index-neighbours of whatever was
popped.  Arc scores are log-probabilities of each arc's best label, so K-best
diversity is purely structural.

Ties are broken deterministically everywhere: compare log-scores first, then
the lexicographically sorted (modifier, head, label-index) edge list.
``brute_force_kbest`` re-derives the same top-K by exhaustive enumeration and
serves as an independent reference for the chart decoder.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    ArcProbabilities,
    DependencyEdge,
    DependencyForest,
    DependencyTree,
    LabelVocab,
    RelationInstance,
    is_well_formed_tree,
)

LEFT, RIGHT = 0, 1  # RIGHT: head at the left end of the span
COMPLETE, INCOMPLETE = 0, 1

BRUTE_FORCE_MAX_N = 8

NEG_INF = float("-inf")

# A hypothesis is (log_score, edges) where edges is a sorted tuple of
# (modifier, head, label_index) triples; the tuple doubles as the tie key.
Hypothesis = tuple[float, tuple[tuple[int, int, int], ...]]


class DecodingError(ValueError):
    """Decoding preconditions violated or no analysis exists."""


@dataclass(frozen=True)
class ForestStats:
    """Aggregate forest diagnostics over an aligned collection of instances."""

    density: float
    oracle_las: float | None
    connected: tuple[bool, ...]
    connectivity_ratio: float


def best_label(probs: ArcProbabilities, head: int, modifier: int) -> tuple[str, float] | None:
    """Highest-probability label for the arc head->modifier, or None if absent.

    Exact probability ties go to the label that comes first in vocabulary
    order.
    """
    cands = probs.candidates(modifier, head)
    if not cands:
        return None
    best = cands[0]
    for cand in cands[1:]:  # candidates are in vocabulary order already
        if cand[1] > best[1]:
            best = cand
    return best


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
    entries = list(probs.iter_entries())
    for m in probs.uncovered_modifiers():
        for h in range(probs.n + 1):
            if h != m:
                entries.append((m, h, label, eps))
    return ArcProbabilities(probs.sentence_id, probs.n, probs.vocab, entries)


def _merge_edge_sets(
    left: tuple[tuple[int, int, int], ...],
    right: tuple[tuple[int, int, int], ...],
    arc: tuple[int, int, int] | None,
) -> tuple[tuple[int, int, int], ...]:
    merged = left + right if arc is None else left + right + (arc,)
    return tuple(sorted(merged))


def _merge_rules(
    rules: Sequence[tuple[float, tuple[int, int, int] | None, list[Hypothesis], list[Hypothesis]]],
    k: int,
) -> list[Hypothesis]:
    """Lazily merge the cross-products of all rules into one K-best list.

    Each rule is (arc_log_prob, arc_or_None, left_list, right_list); the score
    of pair (a, b) is ``arc_log_prob + left[a][0] + right[b][0]``.  Scores are
    monotone in both indices, so best-first popping with index-neighbour
    expansion yields the exact top K.
    """
    heap: list[tuple[float, tuple[tuple[int, int, int], ...], int, int, int]] = []
    visited: set[tuple[int, int, int]] = set()

    def push(rule_idx: int, ia: int, ib: int) -> None:
        if (rule_idx, ia, ib) in visited:
            return
        weight, arc, left, right = rules[rule_idx]
        if ia >= len(left) or ib >= len(right):
            return
        visited.add((rule_idx, ia, ib))
        score = weight + left[ia][0] + right[ib][0]
        edges = _merge_edge_sets(left[ia][1], right[ib][1], arc)
        heapq.heappush(heap, (-score, edges, rule_idx, ia, ib))

    for rule_idx in range(len(rules)):
        push(rule_idx, 0, 0)

    out: list[Hypothesis] = []
    while heap and len(out) < k:
        neg_score, edges, rule_idx, ia, ib = heapq.heappop(heap)
        out.append((-neg_score, edges))
        push(rule_idx, ia + 1, ib)
        push(rule_idx, ia, ib + 1)
    return out


def _arc_tables(
    probs: ArcProbabilities,
) -> tuple[list[list[float]], list[list[int]], list[list[float]]]:
    """Dense (head, modifier) tables of best-label log-prob, label index, prob."""
    n = probs.n
    vocab = probs.vocab
    logp = [[NEG_INF] * (n + 1) for _ in range(n + 1)]
    label_idx = [[-1] * (n + 1) for _ in range(n + 1)]
    prob = [[0.0] * (n + 1) for _ in range(n + 1)]
    for m in range(1, n + 1):
        for h in probs.heads(m):
            label, p = best_label(probs, h, m)  # type: ignore[misc]
            logp[h][m] = math.log(p)
            label_idx[h][m] = vocab.dep_index(label)
            prob[h][m] = p
    return logp, label_idx, prob


def _build_chart(probs: ArcProbabilities, k: int) -> dict[tuple[int, int, int, int], list[Hypothesis]]:
    """The K-best hypothesis list of every half-span ``(i, j, direction, shape)``.

    ``i..j`` is inclusive; ``direction`` is RIGHT when the head sits at the
    left end.  Each list is sorted strictly descending under the tie rule and
    never exceeds ``k``.
    """
    n = probs.n
    logp, label_idx, _ = _arc_tables(probs)
    chart: dict[tuple[int, int, int, int], list[Hypothesis]] = {}
    empty: Hypothesis = (0.0, ())
    for i in range(n + 1):
        chart[(i, i, LEFT, COMPLETE)] = [empty]
        chart[(i, i, RIGHT, COMPLETE)] = [empty]
    for length in range(1, n + 1):
        for i in range(0, n + 1 - length):
            j = i + length
            halves = [
                (chart[(i, s, RIGHT, COMPLETE)], chart[(s + 1, j, LEFT, COMPLETE)])
                for s in range(i, j)
            ]
            # Incomplete spans attach one new arc between the endpoints.
            if logp[i][j] > NEG_INF:
                arc = (j, i, label_idx[i][j])
                rules = [(logp[i][j], arc, lft, rgt) for lft, rgt in halves]
                chart[(i, j, RIGHT, INCOMPLETE)] = _merge_rules(rules, k)
            else:
                chart[(i, j, RIGHT, INCOMPLETE)] = []
            if i >= 1 and logp[j][i] > NEG_INF:
                arc = (i, j, label_idx[j][i])
                rules = [(logp[j][i], arc, lft, rgt) for lft, rgt in halves]
                chart[(i, j, LEFT, INCOMPLETE)] = _merge_rules(rules, k)
            else:
                chart[(i, j, LEFT, INCOMPLETE)] = []
            # Complete spans absorb a finished dependent span.
            rules_r = [
                (0.0, None, chart[(i, s, RIGHT, INCOMPLETE)], chart[(s, j, RIGHT, COMPLETE)])
                for s in range(i + 1, j + 1)
            ]
            chart[(i, j, RIGHT, COMPLETE)] = _merge_rules(rules_r, k)
            rules_l = [
                (0.0, None, chart[(i, s, LEFT, COMPLETE)], chart[(s, j, LEFT, INCOMPLETE)])
                for s in range(i, j)
            ]
            chart[(i, j, LEFT, COMPLETE)] = _merge_rules(rules_l, k)
    return chart


def _check_coverage(probs: ArcProbabilities) -> None:
    uncovered = probs.uncovered_modifiers()
    if uncovered:
        raise DecodingError(
            f"sentence {probs.sentence_id!r}: uncovered modifiers (no head candidates) "
            f"at positions {uncovered}"
        )


def _materialize(
    hyps: Iterable[Hypothesis], probs: ArcProbabilities
) -> list[tuple[DependencyTree, tuple[tuple[int, int, int], ...]]]:
    _, _, prob = _arc_tables(probs)
    labels = probs.vocab.dep_labels
    out = []
    seen: set[tuple[tuple[int, int, int], ...]] = set()
    for _, edge_key in hyps:
        if edge_key in seen:  # defensive: the chart has no duplicate derivations
            continue
        seen.add(edge_key)
        edges = [
            DependencyEdge(h, labels[li], m, prob[h][m]) for (m, h, li) in edge_key
        ]
        out.append((DependencyTree.from_edges(edges), edge_key))
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
    chart = _build_chart(probs, k)
    goal = chart[(0, probs.n, RIGHT, COMPLETE)]
    trees = _materialize(goal, probs)
    trees.sort(key=lambda te: (-te[0].log_score, te[1]))
    return [tree for tree, _ in trees[:k]]


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
    head_choices = [probs.heads(m) for m in range(1, probs.n + 1)]
    if any(not choices for choices in head_choices):
        return []
    scored: list[tuple[DependencyTree, tuple[tuple[int, int, int], ...]]] = []
    for parents in itertools.product(*head_choices):
        if not is_well_formed_tree(parents):
            continue
        edges = []
        key = []
        for m, h in enumerate(parents, start=1):
            label, p = best_label(probs, h, m)  # type: ignore[misc]
            edges.append(DependencyEdge(h, label, m, p))
            key.append((m, h, vocab.dep_index(label)))
        scored.append((DependencyTree.from_edges(edges), tuple(sorted(key))))
    scored.sort(key=lambda te: (-te[0].log_score, te[1]))
    return [tree for tree, _ in scored[:k]]


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
    edges = (
        DependencyEdge(h, label, m, p)
        for (m, h, label, p) in probs.iter_entries()
        if p > gamma
    )
    return DependencyForest.from_edges(probs.sentence_id, probs.n, edges, probs.vocab)


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
    adj: dict[int, list[int]] = {}
    for e in forest.edges:
        if e.head == 0:
            continue
        adj.setdefault(e.head, []).append(e.modifier)
        adj.setdefault(e.modifier, []).append(e.head)
    targets = set(range(span2[0], span2[1]))
    frontier = list(range(span1[0], span1[1]))
    seen = set(frontier)
    while frontier:
        node = frontier.pop()
        if node in targets:
            return True
        for nxt in adj.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return bool(seen & targets)


def forest_stats(
    forests: Sequence[DependencyForest],
    instances: Sequence[RelationInstance],
    gold: Sequence[DependencyTree] | None = None,
) -> ForestStats:
    """Mean density, mean oracle LAS (when gold is given), and connectivity.

    The three collections are aligned by position; identifiers are checked
    when both sides carry one.
    """
    if len(forests) != len(instances):
        raise ValueError(
            f"{len(forests)} forests vs {len(instances)} instances: collections misaligned"
        )
    if gold is not None and len(gold) != len(forests):
        raise ValueError(
            f"{len(gold)} gold trees vs {len(forests)} forests: collections misaligned"
        )
    if not forests:
        raise ValueError("forest_stats requires at least one instance")
    for forest, inst in zip(forests, instances):
        if forest.sentence_id and forest.sentence_id != inst.sentence.id:
            raise ValueError(
                f"forest {forest.sentence_id!r} aligned with instance {inst.sentence.id!r}"
            )
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
