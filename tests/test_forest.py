"""Decoder, K-best machinery, forest construction, and forest statistics."""

import heapq
import math

import numpy as np
import pytest

from forestrel import core, dataio, forest as forestmod
from forestrel.core import (
    ArcProbabilities,
    DependencyEdge,
    DependencyForest,
    DependencyTree,
    RelationInstance,
    Sentence,
    check_tree,
)
from forestrel.forest import (
    COMPLETE,
    DecodingError,
    INCOMPLETE,
    LEFT,
    RIGHT,
    _arc_tables,
    _build_chart,
    _Chart,
    decode_kbest,
    edgewise_forest,
    forest_density,
    forest_stats,
    inject_fallback,
    mention_connectivity,
    merge_trees,
    oracle_las,
)
from forestrel.encoder import build_gnn_graph
import reference
from reference import (
    best_label,
    brute_force_kbest,
    candidates,
    decode_1best,
    forest_from_edges,
    heads,
)


def _key(tree, vocab):
    return tuple(
        sorted((e.modifier, e.head, vocab.dep_index(e.label)) for e in tree.edges)
    )


def _chart_items(chart, probs):
    """Every half-span's ``(log_score, edges)`` list, keyed ``(i, j, direction,
    shape)``, with each edge's entry index read as its (modifier, head,
    label-index) triple."""
    triples = list(zip(probs.modifier.tolist(), probs.head.tolist(), probs.label.tolist()))
    items = {}
    for i in range(probs.n + 1):
        for j in range(i, probs.n + 1):
            for direction in (LEFT, RIGHT):
                for shape in (COMPLETE, INCOMPLETE) if i < j else (COMPLETE,):
                    items[(i, j, direction, shape)] = [
                        (score, tuple(triples[e] for e in edges))
                        for score, edges in chart.hypotheses(direction, shape, i, j)
                    ]
    return items


def _reference_chart(probs, k):
    """Full-enumeration K-best chart over hypotheses that carry their edges.

    Every candidate of an item is scored ``(arc + left) + right`` (no arc on
    complete spans), as the decoder sums, then all candidates are sorted by
    (-score, sorted edge tuple) and cut to K.  A candidate below the K-th best
    score cannot make the cut, so only the others get their edge tuple built.
    """
    n = probs.n
    arcs = {}
    for m in range(1, n + 1):
        for h in heads(probs, m):
            label, p = best_label(probs, h, m)
            arcs[h, m] = (math.log(p), (m, h, probs.vocab.dep_index(label)))
    chart = {}
    for i in range(n + 1):
        chart[(i, i, LEFT, COMPLETE)] = chart[(i, i, RIGHT, COMPLETE)] = [(0.0, ())]

    def top_k(cands):
        if not cands:
            return []
        cutoff = heapq.nlargest(k, (score for score, _, _, _ in cands))[-1]
        kept = sorted(
            (-score, tuple(sorted(left + right + arc)))
            for score, left, right, arc in cands
            if score >= cutoff and score > -math.inf
        )
        return [(-neg, edges) for neg, edges in kept[:k]]

    for length in range(1, n + 1):
        for i in range(n + 1 - length):
            j = i + length
            for direction, head, mod in ((RIGHT, i, j), (LEFT, j, i)):
                cands = []
                if (head, mod) in arcs:
                    weight, arc = arcs[head, mod]
                    for s in range(i, j):
                        for ls, le in chart[(i, s, RIGHT, COMPLETE)]:
                            for rs, re_ in chart[(s + 1, j, LEFT, COMPLETE)]:
                                cands.append((weight + ls + rs, le, re_, (arc,)))
                chart[(i, j, direction, INCOMPLETE)] = top_k(cands)
            chart[(i, j, RIGHT, COMPLETE)] = top_k([
                (ls + rs, le, re_, ())
                for s in range(i + 1, j + 1)
                for ls, le in chart[(i, s, RIGHT, INCOMPLETE)]
                for rs, re_ in chart[(s, j, RIGHT, COMPLETE)]
            ])
            chart[(i, j, LEFT, COMPLETE)] = top_k([
                (ls + rs, le, re_, ())
                for s in range(i, j)
                for ls, le in chart[(i, s, LEFT, COMPLETE)]
                for rs, re_ in chart[(s, j, LEFT, INCOMPLETE)]
            ])
    return chart


def _reference_kbest(probs, k):
    """The reference chart's goal derivations as trees, sorted like ``decode_kbest``."""
    labels = probs.vocab.dep_labels
    trees = []
    for _, key in _reference_chart(probs, k)[(0, probs.n, RIGHT, COMPLETE)]:
        rows = [(m, h, labels[li], best_label(probs, h, m)[1]) for m, h, li in key]
        trees.append((DependencyTree(probs.sentence_id, probs.n, probs.vocab, rows), key))
    trees.sort(key=lambda te: (-te[0].log_score, te[1]))
    return [tree for tree, _ in trees]


class TestBestLabel:
    def test_probability_tie_goes_to_earlier_vocab_label(self, vocab5):
        probs = ArcProbabilities(
            "s", 2, vocab5, [(1, 0, "obj", 0.4), (1, 0, "amod", 0.4)]
        )
        assert best_label(probs, 0, 1) == ("amod", 0.4)

    def test_higher_probability_wins(self, vocab5):
        probs = ArcProbabilities(
            "s", 2, vocab5, [(1, 0, "amod", 0.2), (1, 0, "obj", 0.5)]
        )
        assert best_label(probs, 0, 1) == ("obj", 0.5)

    def test_absent_arc_gives_none(self, vocab5):
        probs = ArcProbabilities("s", 2, vocab5, [(1, 0, "amod", 0.2)])
        assert best_label(probs, 2, 1) is None


class TestArcTables:
    """The chart's dense tables against a per-cell scan of ``candidates``."""

    @pytest.mark.parametrize("factory", ["arc_grid_factory", "tied_grid_factory"])
    def test_first_maximum_and_its_math_log(self, vocab5, factory, request):
        make = request.getfixturevalue(factory)
        rng = np.random.default_rng(17)
        for trial in range(30):
            n = int(rng.integers(2, 41))
            probs = make(rng, vocab5, n, sentence_id=f"g{trial}")
            logp, entry = _arc_tables(probs)
            for h in range(n + 1):
                for m in range(1, n + 1):
                    cands = candidates(probs, m, h)
                    if not cands:
                        assert (logp[h, m], entry[h][m]) == (-math.inf, -1)
                        continue
                    best = max(p for _, p in cands)
                    first = next(label for label, p in cands if p == best)
                    # bitwise: a one-ulp change in an arc score can reorder tied trees
                    assert logp[h, m].hex() == math.log(best).hex()
                    e = entry[h][m]
                    assert (probs.modifier[e], probs.head[e]) == (m, h)
                    assert probs.label[e] == vocab5.dep_index(first)
                    assert probs.prob[e] == best


class TestDecodeHandCases:
    def test_single_token_sentence(self, vocab5):
        probs = ArcProbabilities("s", 1, vocab5, [(1, 0, "nsubj", 0.9)])
        tree = decode_1best(probs)
        assert tree.edges == (DependencyEdge(0, "nsubj", 1, 0.9),)
        assert tree.log_score == pytest.approx(math.log(0.9))

    def test_two_token_sentence_enumerates_all_three_trees(self, vocab5):
        # Candidate heads: position 1 from {0, 2}, position 2 from {0, 1}.
        # Projective trees and their scores:
        #   parents (0, 1): 0.30 * 0.40 = 0.120
        #   parents (0, 0): 0.30 * 0.20 = 0.060
        #   parents (2, 0): 0.50 * 0.20 = 0.100
        # (2, 1) is a cycle.
        probs = ArcProbabilities(
            "s",
            2,
            vocab5,
            [
                (1, 0, "amod", 0.30),
                (1, 2, "obj", 0.50),
                (2, 0, "nsubj", 0.20),
                (2, 1, "conj", 0.40),
            ],
        )
        trees = decode_kbest(probs, 5)
        assert [t.parents() for t in trees] == [[0, 1], [2, 0], [0, 0]]
        expected = [0.30 * 0.40, 0.50 * 0.20, 0.30 * 0.20]
        for tree, product in zip(trees, expected):
            assert tree.log_score == pytest.approx(math.log(product), abs=1e-12)
        assert [e.label for e in trees[0].edges] == ["amod", "conj"]

    def test_1best_is_head_of_kbest(self, vocab5, arc_grid_factory):
        rng = np.random.default_rng(7)
        probs = arc_grid_factory(rng, vocab5, 5)
        assert decode_1best(probs).edges == decode_kbest(probs, 4)[0].edges

    def test_uncovered_modifier_raises_with_positions(self, vocab5):
        probs = ArcProbabilities("s", 3, vocab5, [(2, 0, "amod", 0.5)])
        with pytest.raises(DecodingError, match=r"positions \[1, 3\]"):
            decode_kbest(probs, 1)

    def test_covered_but_treeless_grid(self, vocab5):
        # Every position has a candidate, but the only combination is a cycle.
        probs = ArcProbabilities(
            "s", 2, vocab5, [(1, 2, "amod", 0.5), (2, 1, "amod", 0.5)]
        )
        assert decode_kbest(probs, 3) == []
        with pytest.raises(DecodingError, match="no projective tree"):
            decode_1best(probs)
        assert brute_force_kbest(probs, 3) == []

    def test_k_must_be_positive(self, vocab5):
        probs = ArcProbabilities("s", 1, vocab5, [(1, 0, "amod", 0.5)])
        with pytest.raises(ValueError):
            decode_kbest(probs, 0)
        with pytest.raises(ValueError):
            brute_force_kbest(probs, 0)


class TestBruteForce:
    def test_matches_hand_enumeration_n2(self, vocab5):
        probs = ArcProbabilities(
            "s",
            2,
            vocab5,
            [
                (1, 0, "amod", 0.30),
                (1, 2, "obj", 0.50),
                (2, 0, "nsubj", 0.20),
                (2, 1, "conj", 0.40),
            ],
        )
        trees = brute_force_kbest(probs, 10)
        assert [t.parents() for t in trees] == [[0, 1], [2, 0], [0, 0]]

    def test_uncovered_modifier_gives_no_trees(self, vocab5):
        probs = ArcProbabilities("s", 3, vocab5, [(1, 0, "amod", 0.5), (3, 1, "obj", 0.5)])
        assert brute_force_kbest(probs, 2) == []

    def test_size_guard(self, vocab5):
        entries = [(m, m - 1, "amod", 0.5) for m in range(1, 10)]
        probs = ArcProbabilities("s", 9, vocab5, entries)
        with pytest.raises(ValueError, match="capped"):
            brute_force_kbest(probs, 1)

    def test_reads_neither_the_arc_tables_nor_the_chart(
        self, vocab5, arc_grid_factory, tied_grid_factory, monkeypatch
    ):
        # An oracle that shared the decoder's tables or chart would share
        # their faults.  Every binding of the two, in the package or the
        # reference, raises.
        def unavailable(*args):
            raise AssertionError("the decoder's arc tables and chart are off limits")

        originals = (forestmod._arc_tables, forestmod._build_chart)
        for module in (forestmod, reference):
            for name, value in list(vars(module).items()):
                if any(value is fn for fn in originals):
                    monkeypatch.setattr(module, name, unavailable)
        rng = np.random.default_rng(8)
        for make in (arc_grid_factory, tied_grid_factory):
            for trial in range(10):
                probs = make(rng, vocab5, int(rng.integers(2, 7)), sentence_id=f"i{trial}")
                with pytest.raises(AssertionError, match="off limits"):
                    decode_kbest(probs, 3)
                trees = brute_force_kbest(probs, 3)
                assert trees and all(check_tree(tree) == [] for tree in trees)


class TestKBestProperties:
    def test_matches_brute_force_on_random_grids(self, vocab5, arc_grid_factory):
        rng = np.random.default_rng(20240814)
        for trial in range(60):
            n = int(rng.integers(3, 7))
            probs = arc_grid_factory(rng, vocab5, n, sentence_id=f"r{trial}")
            got = decode_kbest(probs, 4)
            want = brute_force_kbest(probs, 4)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert _key(g, vocab5) == _key(w, vocab5)
                assert g.log_score == pytest.approx(w.log_score, abs=1e-9)

    def test_kbest_is_prefix_of_k_plus_1_best(self, vocab5, arc_grid_factory):
        rng = np.random.default_rng(99)
        for trial in range(20):
            probs = arc_grid_factory(rng, vocab5, int(rng.integers(3, 6)))
            shorter = decode_kbest(probs, 3)
            longer = decode_kbest(probs, 4)
            assert [t.edges for t in longer[: len(shorter)]] == [t.edges for t in shorter]

    def test_results_strictly_ordered_and_distinct(self, vocab5, arc_grid_factory):
        rng = np.random.default_rng(1234)
        for trial in range(20):
            probs = arc_grid_factory(rng, vocab5, 5)
            trees = decode_kbest(probs, 8)
            keys = [(-t.log_score, _key(t, vocab5)) for t in trees]
            assert keys == sorted(keys)
            assert len(set(k for _, k in keys)) == len(keys)

    def test_all_ties_follow_lexicographic_edge_order(self, vocab5):
        # Every cell identical: scores cannot separate anything, so the decoder
        # and the exhaustive reference must agree purely on the tie rule.
        entries = []
        for m in range(1, 4):
            for h in range(0, 4):
                if h != m:
                    entries.append((m, h, "amod", 0.1))
                    entries.append((m, h, "obj", 0.1))
        probs = ArcProbabilities("ties", 3, vocab5, entries)
        got = decode_kbest(probs, 12)
        want = brute_force_kbest(probs, 12)
        assert [_key(t, vocab5) for t in got] == [_key(t, vocab5) for t in want]
        assert all(e.label == "amod" for t in got for e in t.edges)


class TestChartItems:
    def test_hypothesis_lists_obey_invariants(self, vocab5, arc_grid_factory):
        rng = np.random.default_rng(5)
        probs = arc_grid_factory(rng, vocab5, 4)
        k = 3
        chart = _chart_items(_build_chart(probs, k), probs)
        assert chart[(0, 4, RIGHT, COMPLETE)], "goal item must be populated"
        for (i, j, direction, shape), hypotheses in chart.items():
            assert len(hypotheses) <= k
            ordered = [(-s, edges) for s, edges in hypotheses]
            assert ordered == sorted(ordered)
            assert len({edges for _, edges in hypotheses}) == len(hypotheses)
            for _, edges in hypotheses:
                if shape == INCOMPLETE:
                    # incomplete items carry the arc between their endpoints
                    assert any((m, h) in {(j, i), (i, j)} for (m, h, _) in edges)
                for m, h, _ in edges:
                    assert i <= m <= j and i <= h <= j

    def test_left_incomplete_never_makes_root_a_modifier(self, vocab5, arc_grid_factory):
        rng = np.random.default_rng(6)
        probs = arc_grid_factory(rng, vocab5, 4)
        chart = _chart_items(_build_chart(probs, 2), probs)
        for (i, j, direction, shape), hypotheses in chart.items():
            if direction == LEFT and shape == INCOMPLETE and i == 0:
                assert hypotheses == []


class TestChartLayout:
    @pytest.mark.parametrize("factory", ["arc_grid_factory", "tied_grid_factory"])
    def test_score_layouts_agree_and_backpointers_rebuild_each_score(self, vocab5, factory, request):
        make = request.getfixturevalue(factory)
        rng = np.random.default_rng(29)
        for trial in range(12):
            n = int(rng.integers(2, 16))
            k = int(rng.choice([1, 3, 5]))
            probs = make(rng, vocab5, n, sentence_id=f"l{trial}")
            chart = _build_chart(probs, k)
            logp = _arc_tables(probs)[0]
            for length in range(n + 1):
                assert np.array_equal(
                    chart.score[:, :, : n + 1 - length, length], chart.by_end[:, :, length:, length]
                )
            for item in zip(*np.nonzero(chart.score[:, :, :, 1:] > -math.inf)):
                direction, shape, i, length, rank = (int(x) for x in item)
                length += 1
                j = i + length
                back = int(chart.back[direction, shape, i, length, rank])
                lsub, rsub = chart._subspans(direction, shape, i, j, back)
                # (direction, shape, start, end, rank): the split lies inside i..j
                assert lsub[2] == i and rsub[3] == j
                assert i <= lsub[3] <= rsub[2] <= j
                assert rsub[2] - lsub[3] == (1 if shape == INCOMPLETE else 0)
                left, right = (chart.score[d, s, a, b - a, r] for d, s, a, b, r in (lsub, rsub))
                if shape == INCOMPLETE:
                    arc = logp[i, j] if direction == RIGHT else logp[j, i]
                    want = (arc + left) + right
                else:
                    want = left + right
                assert chart.score[direction, shape, i, length, rank] == want


class TestSelection:
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_rows_with_fewer_finite_candidates_than_picks(self, vocab5, k, monkeypatch):
        # Few arcs of one probability: many rows hold fewer finite candidates
        # than the K+1 the selection picks, often tied, beside all -inf rows.
        # Picking the same struck index twice must not lose a finite one.
        n = 6
        entries = [
            (m, h, label, 0.1)
            for m in range(1, n + 1)
            for h in (m - 1, m + 1) + ((0,) if m == 4 else ())
            if h <= n
            for label in (("amod", "obj") if m % 2 == 0 else ("amod",))
        ]
        probs = ArcProbabilities("few", n, vocab5, entries)
        seen = set()
        fill = _Chart.fill

        def recording(chart, shape, length, cands):
            flat = cands.reshape(2 * cands.shape[1], -1)
            picks = min(k + 1, flat.shape[1])
            for row in flat:
                finite = np.sort(row[row > -math.inf])[::-1][:picks]
                tied = bool((finite[1:] == finite[:-1]).any())
                short = 0 < finite.size < picks
                flags = {"empty": finite.size == 0, "tied": tied, "short": short,
                         "short and tied": short and tied}
                seen.update(name for name, hit in flags.items() if hit)
            fill(chart, shape, length, cands)

        monkeypatch.setattr(_Chart, "fill", recording)
        want = _reference_chart(probs, k)
        got = _chart_items(_build_chart(probs, k), probs)
        assert got == {item: want.get(item, []) for item in got}
        assert decode_kbest(probs, k) == _reference_kbest(probs, k)
        assert {"empty", "short", "tied"} <= seen
        assert k == 1 or "short and tied" in seen


class TestCandidateLimit:
    def test_limit_counts_the_chart_and_the_widest_candidate_array(
        self, vocab5, arc_grid_factory, monkeypatch
    ):
        probs = arc_grid_factory(np.random.default_rng(3), vocab5, 7, sentence_id="long")
        sizes = []
        fill = _Chart.fill
        monkeypatch.setattr(
            _Chart,
            "fill",
            lambda chart, *args: sizes.append(
                (chart.score.size + chart.by_end.size, args[-1].size)
            ) or fill(chart, *args),
        )
        # n=7, K=3: the two score layouts hold 2 * 4 * 8**2 * 3 = 1,536 floats,
        # span length 4 scores 2 * 4 * 4 * 3**2 = 288 candidates, and fill
        # copies them once: 1,536 + 2 * 288 = 2,112
        monkeypatch.setattr(forestmod, "MAX_CANDIDATES", 2112)
        assert decode_kbest(probs, 3)
        assert max(chart + 2 * cands for chart, cands in sizes) == 2112
        monkeypatch.setattr(forestmod, "MAX_CANDIDATES", 2111)
        with pytest.raises(DecodingError, match=r"'long': n=7, K=3 needs 2112 chart float64s"):
            decode_kbest(probs, 3)

    def test_tested_and_benchmarked_sizes_stay_far_below_it(self, vocab5, arc_grid_factory):
        # The tests and the benchmark decode at most n=40 with K=20.
        assert 10 * (2 * 4 * 41**2 * 20 + 2 * 2 * 20 * 21 * 20**2) < forestmod.MAX_CANDIDATES
        probs = arc_grid_factory(np.random.default_rng(4), vocab5, 40, sentence_id="wide")
        with pytest.raises(DecodingError, match=r"'wide': n=40, K=200 needs 69889600 chart"):
            decode_kbest(probs, 200)

    def test_long_sentence_refused_before_coverage_and_chart(self, vocab5, monkeypatch):
        # n=1400, K=1 scores at most 2 * 700 * 701 candidates per span length,
        # far under the limit, but its two score layouts alone hold 15.7M floats.
        probs = ArcProbabilities("huge", 1400, vocab5, [(1, 0, "amod", 0.5)])

        def no_chart(*args):
            raise AssertionError("the chart was built")

        monkeypatch.setattr(forestmod, "_build_chart", no_chart)
        with pytest.raises(DecodingError, match=r"'huge': n=1400, K=1 needs 17665208 chart"):
            decode_kbest(probs, 1)


class TestFullEnumerationReference:
    """The array chart against a chart that scores every candidate of every item."""

    @pytest.mark.parametrize("k", [1, 5, 8])
    def test_random_grids(self, vocab5, arc_grid_factory, k):
        rng = np.random.default_rng(300 + k)
        for trial in range(6):
            n = int(rng.integers(10, 41))
            probs = arc_grid_factory(rng, vocab5, n, sentence_id=f"r{trial}")
            assert decode_kbest(probs, k) == _reference_kbest(probs, k)

    def test_tied_grids_match_item_by_item(self, vocab5, tied_grid_factory):
        rng = np.random.default_rng(41)
        for trial in range(150):
            n = int(rng.integers(2, 13))
            k = int(rng.choice([1, 5, 8]))
            probs = tied_grid_factory(rng, vocab5, n, sentence_id=f"t{trial}")
            want = _reference_chart(probs, k)
            got = _chart_items(_build_chart(probs, k), probs)
            assert got == {item: want.get(item, []) for item in got}
            assert decode_kbest(probs, k) == _reference_kbest(probs, k)


class TestMergeTrees:
    def _tree(self, spec, vocab):
        edges = [DependencyEdge(*e) for e in spec]
        return forest_from_edges("s", len(edges), edges, vocab, DependencyTree)

    def test_single_tree_merge_is_the_tree_itself(self, vocab5):
        tree = self._tree([(0, "nsubj", 1, 0.9), (1, "obj", 2, 0.8)], vocab5)
        forest = merge_trees([tree], vocab5, sentence_id="s")
        assert set(e.triple for e in forest.edges) == set(e.triple for e in tree.edges)
        assert forest.num_edges == 2

    def test_union_semantics_and_first_probability_wins(self, vocab5):
        first = self._tree([(0, "nsubj", 1, 0.9), (1, "obj", 2, 0.8)], vocab5)
        second = self._tree([(0, "nsubj", 1, 0.5), (0, "obj", 2, 0.3)], vocab5)
        forest = merge_trees([first, second], vocab5)
        assert forest.num_edges == 3
        nsubj = [e for e in forest.edges if e.label == "nsubj"][0]
        assert nsubj.prob == 0.9  # from the first (better) tree

    def test_first_occurrence_wins_in_any_tree_order(self, vocab5):
        # Trees not in best-first order: each shared key keeps the probability
        # of the tree passed first, and entries come out in canonical order.
        trees = [
            self._tree([(2, "amod", 1, 0.2), (0, "obj", 2, 0.3), (2, "obj", 3, 0.4)], vocab5),
            self._tree([(0, "nsubj", 1, 0.9), (1, "obj", 2, 0.8), (2, "obj", 3, 0.7)], vocab5),
            self._tree([(2, "amod", 1, 0.6), (1, "obj", 2, 0.5), (2, "conj", 3, 0.1)], vocab5),
        ]
        forest = merge_trees(trees, vocab5, sentence_id="s")
        assert list(forest.iter_entries()) == [
            (1, 0, "nsubj", 0.9),
            (1, 2, "amod", 0.2),
            (2, 0, "obj", 0.3),
            (2, 1, "obj", 0.8),
            (3, 2, "obj", 0.4),
            (3, 2, "conj", 0.1),
        ]
        reversed_order = merge_trees(trees[::-1], vocab5, sentence_id="s")
        assert [p for *_, p in reversed_order.iter_entries()] == [0.9, 0.6, 0.3, 0.5, 0.7, 0.1]

    def test_trees_under_another_vocabulary_are_read_by_label_name(self, vocab5):
        own = DependencyTree.from_edges(
            [DependencyEdge(0, "obj", 1, 0.9), DependencyEdge(1, "conj", 2, 0.8)]
        )
        other = self._tree([(0, "nsubj", 1, 0.5), (1, "obj", 2, 0.3)], vocab5)
        forest = merge_trees([own, other], vocab5)
        assert forest == DependencyForest(
            "", 2, vocab5,
            [(1, 0, "obj", 0.9), (1, 0, "nsubj", 0.5), (2, 1, "conj", 0.8), (2, 1, "obj", 0.3)],
        )

    def test_mixed_lengths_rejected(self, vocab5):
        a = self._tree([(0, "nsubj", 1, 0.9)], vocab5)
        b = self._tree([(0, "nsubj", 1, 0.9), (1, "obj", 2, 0.8)], vocab5)
        with pytest.raises(ValueError, match="mixed sentence lengths"):
            merge_trees([a, b], vocab5)
        with pytest.raises(ValueError):
            merge_trees([], vocab5)

    def test_merged_kbest_equals_edge_union(self, vocab5, arc_grid_factory):
        rng = np.random.default_rng(17)
        probs = arc_grid_factory(rng, vocab5, 5)
        trees = decode_kbest(probs, 4)
        forest = merge_trees(trees, vocab5, sentence_id=probs.sentence_id)
        union = {e.triple for t in trees for e in t.edges}
        assert {e.triple for e in forest.edges} == union


class TestEdgewise:
    def test_gamma_zero_keeps_every_stored_arc(self, vocab5, arc_grid_factory):
        rng = np.random.default_rng(3)
        probs = arc_grid_factory(rng, vocab5, 4)
        forest = edgewise_forest(probs, 0.0)
        assert forest.num_edges == probs.num_entries

    def test_gamma_one_is_empty(self, vocab5, arc_grid_factory):
        rng = np.random.default_rng(3)
        probs = arc_grid_factory(rng, vocab5, 4)
        assert edgewise_forest(probs, 1.0).num_edges == 0

    def test_threshold_is_strict(self, vocab5):
        probs = ArcProbabilities(
            "s", 1, vocab5, [(1, 0, "amod", 0.3)]
        )
        assert edgewise_forest(probs, 0.3).num_edges == 0
        assert edgewise_forest(probs, 0.29).num_edges == 1

    def test_higher_gamma_yields_subset(self, vocab5, arc_grid_factory):
        rng = np.random.default_rng(11)
        for _ in range(10):
            probs = arc_grid_factory(rng, vocab5, 5)
            lo = {e.triple for e in edgewise_forest(probs, 0.05).edges}
            hi = {e.triple for e in edgewise_forest(probs, 0.2).edges}
            assert hi <= lo

    def test_gamma_range_checked(self, vocab5):
        probs = ArcProbabilities("s", 1, vocab5, [(1, 0, "amod", 0.3)])
        with pytest.raises(ValueError):
            edgewise_forest(probs, -0.1)
        with pytest.raises(ValueError):
            edgewise_forest(probs, 1.5)

    @pytest.mark.parametrize("factory", ["arc_grid_factory", "tied_grid_factory"])
    def test_equals_the_forest_of_the_entries_above_gamma(self, vocab5, factory, request):
        make = request.getfixturevalue(factory)
        rng = np.random.default_rng(23)
        for trial in range(20):
            n = int(rng.integers(2, 16))
            probs = make(rng, vocab5, n, sentence_id=f"e{trial}")
            for gamma in (0.0, float(rng.choice(probs.prob)), 0.1, 1.0):
                kept = [
                    DependencyEdge(h, label, m, p)
                    for m, h, label, p in probs.iter_entries()
                    if p > gamma
                ]
                kept = [kept[i] for i in rng.permutation(len(kept))]
                want = forest_from_edges(probs.sentence_id, n, kept, vocab5)
                assert edgewise_forest(probs, gamma) == want

    def test_loading_thresholding_and_graphs_build_no_edges(
        self, vocab5, arc_grid_factory, tmp_path, monkeypatch
    ):
        rng = np.random.default_rng(31)
        grids = [arc_grid_factory(rng, vocab5, 8, sentence_id=f"g{i}") for i in range(4)]
        path = tmp_path / "forests.jsonl"
        dataio.write_forests({p.sentence_id: edgewise_forest(p, 0.05) for p in grids}, path)

        def no_edge(*args):
            raise AssertionError("a DependencyEdge was built")

        assert not hasattr(dataio, "DependencyEdge") and not hasattr(forestmod, "DependencyEdge")
        monkeypatch.setattr(core, "DependencyEdge", no_edge)
        loaded = dataio.load_forests(path, vocab5)
        for probs in grids:
            assert loaded[probs.sentence_id] == edgewise_forest(probs, 0.05)
            assert build_gnn_graph(loaded[probs.sentence_id], vocab5).num_edges > 0
        # Trees too: decoding, merging, the synthetic gold trees and their files.
        for probs in grids:
            trees = decode_kbest(probs, 3)
            assert merge_trees(trees, vocab5, probs.sentence_id).num_edges >= probs.n
        data = dataio.synth_generate(dataio.SynthSpec(n_sentences=5, seed=3))
        dataio.save_trees(data.gold_trees, tmp_path / "gold.jsonl")
        assert dataio.load_trees(tmp_path / "gold.jsonl", data.vocab) == data.gold_trees


class TestInjectFallback:
    def test_uncovered_position_gets_uniform_candidates(self, vocab5):
        probs = ArcProbabilities("s", 3, vocab5, [(2, 0, "nsubj", 0.9)])
        patched = inject_fallback(probs, 0.25)
        assert patched.uncovered_modifiers() == []
        assert heads(patched, 1) == (0, 2, 3)
        assert candidates(patched, 1, 2) == (("amod", 0.25),)
        # the covered position is untouched
        assert candidates(patched, 2, 0) == (("nsubj", 0.9),)
        decode_1best(patched)  # now decodable

    def test_eps_validation(self, vocab5):
        probs = ArcProbabilities("s", 3, vocab5, [(2, 0, "nsubj", 0.9)])
        with pytest.raises(ValueError):
            inject_fallback(probs, 0.0)
        with pytest.raises(ValueError):
            inject_fallback(probs, 1.5)
        with pytest.raises(ValueError, match="more than unit mass"):
            inject_fallback(probs, 0.5)  # 3 * 0.5 > 1

    def test_patched_grids_always_decode_to_valid_trees(self, vocab5, arc_grid_factory, monkeypatch):
        reranked = []
        rerank = _Chart._rerank
        monkeypatch.setattr(
            _Chart, "_rerank", lambda chart, *args: reranked.append(args) or rerank(chart, *args)
        )
        rng = np.random.default_rng(77)
        for trial in range(40):
            n = int(rng.integers(3, 21))
            dropped = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, 4)), replace=False)
            full = arc_grid_factory(rng, vocab5, n, sentence_id=f"f{trial}")
            probs = ArcProbabilities(
                full.sentence_id, n, vocab5,
                [e for e in full.iter_entries() if e[0] not in set(dropped.tolist())],
            )
            assert probs.uncovered_modifiers() == sorted(dropped.tolist())
            patched = inject_fallback(probs, float(rng.uniform(0.05, 1.0)) / n)
            for k in (1, 5):
                trees = decode_kbest(patched, k)
                assert 1 <= len(trees) <= k
                for tree in trees:
                    assert tree.n == n and check_tree(tree) == []
        assert reranked, "the uniform fallback candidates should produce tied rows"


class TestStats:
    def _forest(self, vocab, n, triples):
        return forest_from_edges(
            "s0", n, [DependencyEdge(h, l, m, p) for (h, l, m, p) in triples], vocab
        )

    def test_density(self, vocab5):
        forest = self._forest(
            vocab5,
            4,
            [(0, "nsubj", 1, 0.9), (1, "obj", 2, 0.8), (1, "amod", 3, 0.7),
             (0, "amod", 1, 0.2), (3, "conj", 4, 0.6), (1, "conj", 4, 0.3)],
        )
        assert forest_density(forest) == pytest.approx(1.5)

    def test_oracle_las_counts_label_matches_only(self, vocab5):
        gold = DependencyTree.from_edges(
            [
                DependencyEdge(0, "nsubj", 1, 0.9),
                DependencyEdge(1, "obj", 2, 0.8),
                DependencyEdge(1, "amod", 3, 0.7),
                DependencyEdge(3, "conj", 4, 0.6),
            ]
        )
        forest = self._forest(
            vocab5,
            4,
            [
                (0, "nsubj", 1, 0.9),     # gold hit
                (1, "amod", 2, 0.8),      # right head, wrong label
                (1, "amod", 3, 0.7),      # gold hit
                (2, "conj", 4, 0.6),      # wrong head
            ],
        )
        assert oracle_las(forest, gold) == pytest.approx(0.5)
        short = DependencyTree.from_edges([DependencyEdge(0, "nsubj", 1, 0.9)])
        with pytest.raises(ValueError, match="tokens"):
            oracle_las(forest, short)

    def test_mention_connectivity_ignores_root_arcs(self, vocab5):
        # words 1 and 3 both attach to ROOT; that alone must not connect them
        root_only = self._forest(vocab5, 3, [(0, "nsubj", 1, 0.9), (0, "obj", 3, 0.8)])
        assert not mention_connectivity(root_only, (1, 2), (3, 4))
        chained = self._forest(
            vocab5, 3, [(0, "nsubj", 1, 0.9), (1, "obj", 2, 0.8), (2, "amod", 3, 0.7)]
        )
        assert mention_connectivity(chained, (1, 2), (3, 4))

    def test_overlapping_spans_are_trivially_connected(self, vocab5):
        lonely = self._forest(vocab5, 3, [(0, "nsubj", 1, 0.9)])
        assert mention_connectivity(lonely, (1, 3), (2, 4))

    def test_span_bounds_checked(self, vocab5):
        forest = self._forest(vocab5, 3, [(0, "nsubj", 1, 0.9)])
        with pytest.raises(ValueError, match="invalid"):
            mention_connectivity(forest, (0, 2), (2, 3))
        with pytest.raises(ValueError, match="invalid"):
            mention_connectivity(forest, (1, 2), (3, 5))

    def test_forest_stats_aggregation(self, vocab5):
        sentences = [Sentence("s0", ("a", "b", "c")), Sentence("s1", ("d", "e", "f"))]
        instances = [
            RelationInstance(sentences[0], (1, 2), (3, 4), "R-A"),
            RelationInstance(sentences[1], (1, 2), (3, 4), "R-B"),
        ]
        forests = [
            forest_from_edges(
                "s0",
                3,
                [DependencyEdge(0, "nsubj", 1, 0.9), DependencyEdge(1, "obj", 2, 0.8),
                 DependencyEdge(2, "amod", 3, 0.7)],
                vocab5,
            ),
            forest_from_edges("s1", 3, [DependencyEdge(0, "nsubj", 1, 0.9)], vocab5),
        ]
        gold = [
            DependencyTree.from_edges(
                [DependencyEdge(0, "nsubj", 1, 0.9), DependencyEdge(1, "obj", 2, 0.8),
                 DependencyEdge(2, "amod", 3, 0.7)]
            ),
            DependencyTree.from_edges(
                [DependencyEdge(0, "nsubj", 1, 0.9), DependencyEdge(1, "obj", 2, 0.8),
                 DependencyEdge(2, "amod", 3, 0.7)]
            ),
        ]
        stats = forest_stats(forests, instances, gold)
        assert stats.density == pytest.approx((1.0 + 1 / 3) / 2)
        assert stats.oracle_las == pytest.approx((1.0 + 1 / 3) / 2)
        assert stats.connected == (True, False)
        assert stats.connectivity_ratio == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("gold count", "2 gold trees vs 1 forests: collections misaligned"),
            ("length", "forest for 's0' has 4 tokens, sentence has 3"),
        ],
    )
    def test_gold_count_and_forest_length_checked(self, vocab5, case, message):
        inst = RelationInstance(Sentence("s0", ("a", "b", "c")), (1, 2), (3, 4), "R-A")
        n = 4 if case == "length" else 3
        forest = self._forest(vocab5, n, [(0, "nsubj", 1, 0.9)])
        tree = DependencyTree.from_edges(
            [DependencyEdge(0, "nsubj", 1, 0.9), DependencyEdge(1, "obj", 2, 0.8),
             DependencyEdge(2, "amod", 3, 0.7)]
        )
        gold = [tree, tree] if case == "gold count" else None
        with pytest.raises(ValueError, match=message):
            forest_stats([forest], [inst], gold)

    def test_misalignment_detected(self, vocab5):
        sentence = Sentence("s0", ("a", "b", "c"))
        inst = RelationInstance(sentence, (1, 2), (3, 4), "R-A")
        forest = forest_from_edges("sX", 3, [DependencyEdge(0, "nsubj", 1, 0.9)], vocab5)
        with pytest.raises(ValueError, match="misaligned"):
            forest_stats([forest], [inst, inst])
        with pytest.raises(ValueError, match="aligned with instance"):
            forest_stats([forest], [inst])
        with pytest.raises(ValueError, match="at least one"):
            forest_stats([], [])
