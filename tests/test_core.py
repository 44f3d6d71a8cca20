"""Core types: vocabulary lookups, arc storage invariants, tree well-formedness."""

import math

import numpy as np
import pytest

from forestrel.core import (
    ArcProbabilities,
    DependencyEdge,
    DependencyForest,
    DependencyTree,
    LabelLookupError,
    LabelVocab,
    RelationInstance,
    Sentence,
    check_tree,
    is_well_formed_tree,
    validate_instance,
)
from reference import candidates, forest_from_edges, heads


class TestLabelVocab:
    def test_forward_label_may_not_use_reserved_suffix(self):
        with pytest.raises(ValueError, match="invalid dependency label"):
            LabelVocab(dep_labels=("amod", "obj-rev"), relations=("None",))

    def test_exactly_one_none_relation_required(self):
        with pytest.raises(ValueError, match="None"):
            LabelVocab(dep_labels=("amod",), relations=("R-A", "R-B"))
        with pytest.raises(ValueError):
            LabelVocab(dep_labels=("amod",), relations=("None", "None"))

    def test_bad_bio_tag_rejected(self):
        with pytest.raises(ValueError, match="invalid BIO tag"):
            LabelVocab(dep_labels=("amod",), relations=("None",), ne_tags=("O", "CHEM"))

    @pytest.mark.parametrize(
        "inventories, message",
        [
            ({"dep_labels": ()}, "dep_labels must be non-empty"),
            ({"dep_labels": ("amod", "amod")}, "duplicate dependency labels"),
            ({"relations": ("R-A", "R-A", "None")}, "duplicate relations"),
            ({"ne_tags": ("O", "B-X", "O")}, "duplicate NE tags"),
        ],
    )
    def test_empty_or_duplicate_inventory_rejected(self, inventories, message):
        kwargs = {"dep_labels": ("amod",), "relations": ("R-A", "None"), **inventories}
        with pytest.raises(ValueError, match=message):
            LabelVocab(**kwargs)

    def test_unknown_lookups_raise(self, vocab5):
        with pytest.raises(LabelLookupError, match="unknown dependency label 'punct'"):
            vocab5.dep_index("punct")
        with pytest.raises(LabelLookupError, match="unknown relation 'R-C'"):
            vocab5.relation_index("R-C")
        with pytest.raises(LabelLookupError, match="unknown NE tag 'B-DISEASE'"):
            vocab5.tag_index("B-DISEASE")


def test_sentence_needs_tokens():
    with pytest.raises(ValueError, match="sentence 's0' has no tokens"):
        Sentence("s0", ())


@pytest.mark.parametrize("cls", [ArcProbabilities, DependencyForest, DependencyTree])
def test_arc_set_needs_a_positive_length(cls, vocab5):
    with pytest.raises(ValueError, match="sentence length must be >= 1, got 0"):
        cls("s0", 0, vocab5, [])


class TestArcProbabilities:
    def test_entries_come_back_in_canonical_order(self, vocab5):
        shuffled = [
            (2, 1, "obj", 0.2),
            (1, 0, "nsubj", 0.3),
            (2, 0, "amod", 0.1),
            (1, 0, "amod", 0.4),
            (2, 1, "amod", 0.25),
        ]
        probs = ArcProbabilities("s", 2, vocab5, shuffled)
        assert list(probs.iter_entries()) == [
            (1, 0, "amod", 0.4),
            (1, 0, "nsubj", 0.3),
            (2, 0, "amod", 0.1),
            (2, 1, "amod", 0.25),
            (2, 1, "obj", 0.2),
        ]
        assert heads(probs, 1) == (0,)
        assert heads(probs, 2) == (0, 1)
        assert candidates(probs, 2, 1) == (("amod", 0.25), ("obj", 0.2))

    def test_duplicate_triple_rejected(self, vocab5):
        with pytest.raises(ValueError, match="duplicate arc entry"):
            ArcProbabilities("s", 2, vocab5, [(1, 0, "amod", 0.2), (1, 0, "amod", 0.3)])

    def test_per_modifier_mass_capped_at_one(self, vocab5):
        with pytest.raises(ValueError, match="stored mass"):
            ArcProbabilities("s", 2, vocab5, [(1, 0, "amod", 0.7), (1, 2, "obj", 0.4)])
        # Exactly 1 is allowed, as is 1 + tiny rounding slop.
        ArcProbabilities("s", 2, vocab5, [(1, 0, "amod", 0.6), (1, 2, "obj", 0.4)])

    def test_out_of_range_entries_rejected(self, vocab5):
        with pytest.raises(ValueError, match="modifier 0 out of range"):
            ArcProbabilities("s", 2, vocab5, [(0, 1, "amod", 0.2)])
        with pytest.raises(ValueError, match="head 3 out of range"):
            ArcProbabilities("s", 2, vocab5, [(1, 3, "amod", 0.2)])
        with pytest.raises(ValueError, match="self-arc"):
            ArcProbabilities("s", 2, vocab5, [(1, 1, "amod", 0.2)])
        with pytest.raises(ValueError, match="not in \\(0, 1\\]"):
            ArcProbabilities("s", 2, vocab5, [(1, 0, "amod", 0.0)])
        with pytest.raises(ValueError, match="not in \\(0, 1\\]"):
            ArcProbabilities("s", 2, vocab5, [(1, 0, "amod", 1.2)])
        with pytest.raises(LabelLookupError):
            ArcProbabilities("s", 2, vocab5, [(1, 0, "punct", 0.2)])

    def test_first_bad_entry_in_input_order_decides_the_error(self, vocab5):
        def build(entries):
            return ArcProbabilities("s", 2, vocab5, entries)

        with pytest.raises(ValueError, match=r"^probability 1\.5 for \(2, 0, 'amod'\) not in"):
            build([(1, 0, "amod", 0.2), (2, 0, "amod", 1.5), (0, 1, "amod", 0.2)])
        with pytest.raises(ValueError, match=r"^duplicate arc entry \(1, 0, 'amod'\)$"):
            build([(1, 0, "amod", 0.2), (2, 0, "obj", 0.1), (1, 0, "amod", 0.3), (3, 0, "amod", 0.1)])
        with pytest.raises(LabelLookupError, match="punct"):
            build([(2, 0, "punct", 0.2), (1, 1, "amod", 0.2)])
        with pytest.raises(ValueError, match=r"^stored mass 1\.100000000 for modifier 2 exceeds"):
            build([(2, 0, "amod", 0.7), (2, 1, "obj", 0.4), (1, 0, "amod", 0.8), (1, 2, "obj", 0.5)])

    def test_uncovered_modifiers_and_mass(self, vocab5):
        probs = ArcProbabilities("s", 3, vocab5, [(2, 0, "amod", 0.5), (2, 1, "obj", 0.25)])
        assert probs.uncovered_modifiers() == [1, 3]
        assert probs.prob[probs.modifier == 2].sum() == pytest.approx(0.75)
        assert probs.prob[probs.modifier == 1].sum() == 0.0

    def test_equality_ignores_input_order(self, vocab5):
        a = ArcProbabilities("s", 2, vocab5, [(1, 0, "amod", 0.4), (2, 0, "obj", 0.3)])
        b = ArcProbabilities("s", 2, vocab5, [(2, 0, "obj", 0.3), (1, 0, "amod", 0.4)])
        c = ArcProbabilities("s", 2, vocab5, [(2, 0, "obj", 0.3), (1, 0, "amod", 0.5)])
        assert a == b
        assert a != c


# The known-label bad-entry cases of TestArcProbabilities, as rows.
BAD_ENTRY_CASES = [
    [(1, 0, "amod", 0.2), (1, 0, "amod", 0.3)],
    [(1, 0, "amod", 0.7), (1, 2, "obj", 0.4)],
    [(0, 1, "amod", 0.2)],
    [(1, 3, "amod", 0.2)],
    [(1, 1, "amod", 0.2)],
    [(1, 0, "amod", 0.0)],
    [(1, 0, "amod", 1.2)],
    [(1, 0, "amod", 0.2), (2, 0, "amod", 1.5), (0, 1, "amod", 0.2)],
    [(1, 0, "amod", 0.2), (2, 0, "obj", 0.1), (1, 0, "amod", 0.3), (3, 0, "amod", 0.1)],
    [(2, 0, "amod", 0.7), (2, 1, "obj", 0.4), (1, 0, "amod", 0.8), (1, 2, "obj", 0.5)],
]


def _outcome(build):
    """What ``build()`` returns, or the type and message of its ValueError."""
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


class TestArrayConstructor:
    @pytest.mark.parametrize("cls", [ArcProbabilities, DependencyForest])
    @pytest.mark.parametrize("entries", BAD_ENTRY_CASES)
    def test_refuses_what_the_row_constructor_refuses(self, cls, entries, vocab5):
        modifier, head, names, prob = map(np.array, zip(*entries))
        label = np.array([vocab5.dep_index(name) for name in names])
        by_rows = _outcome(lambda: cls("s", 2, vocab5, entries))
        columns = (modifier, head, label, prob)
        by_arrays = _outcome(lambda: cls._from_arrays("s", 2, vocab5, columns))
        assert by_arrays == by_rows
        # only the stored-mass cases build, and only as a forest
        assert cls is DependencyForest or isinstance(by_rows, tuple)

    @pytest.mark.parametrize("index", [-1, 5, 2**40])
    def test_label_index_outside_the_vocabulary_refused(self, index, vocab5):
        columns = (np.array([1, 2]), np.array([0, 1]), np.array([0, index]), np.full(2, 0.5))
        with pytest.raises(ValueError, match=rf"^label index {index} out of range 0\.\.4$"):
            ArcProbabilities._from_arrays("s", 2, vocab5, columns)


class TestTreeScore:
    def test_log_score_is_order_independent_bitwise(self, vocab5):
        entries = [(2, 0, "nsubj", 0.9), (1, 2, "amod", 0.37), (3, 2, "obj", 0.11)]
        forward = DependencyTree("s", 3, vocab5, entries).log_score
        backward = DependencyTree("s", 3, vocab5, entries[::-1]).log_score
        assert forward == backward  # identical float, not just close
        assert forward == math.log(0.37) + math.log(0.9) + math.log(0.11)  # modifier order

    def test_log_score_matches_sum_of_logs(self, vocab5):
        tree = DependencyTree("s", 2, vocab5, [(1, 0, "amod", 0.5), (2, 1, "obj", 0.25)])
        assert tree.log_score == pytest.approx(math.log(0.5) + math.log(0.25))

    def test_from_edges_sorts_by_modifier(self):
        tree = DependencyTree.from_edges(
            [DependencyEdge(1, "obj", 2, 0.5), DependencyEdge(0, "amod", 1, 0.5)]
        )
        assert [e.modifier for e in tree.edges] == [1, 2]
        assert tree.parents() == [0, 1]
        # no sentence id, and a vocabulary of the edges' own labels
        assert (tree.sentence_id, tree.n, tree.vocab.dep_labels) == ("", 2, ("obj", "amod"))


def _crosses(a1, a2):
    (lo1, hi1), (lo2, hi2) = sorted(a1), sorted(a2)
    if lo2 < lo1:
        (lo1, hi1), (lo2, hi2) = (lo2, hi2), (lo1, hi1)
    return lo1 < lo2 < hi1 < hi2


def _reference_is_projective_tree(parents):
    """Independent oracle: reachability from ROOT plus no crossing arcs."""
    n = len(parents)
    children = {}
    for m, h in enumerate(parents, start=1):
        children.setdefault(h, []).append(m)
    seen = set()
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for child in children.get(node, ()):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    if seen != set(range(1, n + 1)):
        return False
    arcs = [(h, m) for m, h in enumerate(parents, start=1)]
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if _crosses(arcs[i], arcs[j]):
                return False
    return True


class TestWellFormedness:
    def test_cycle_is_rejected(self):
        assert not is_well_formed_tree([2, 1])

    def test_crossing_arcs_are_rejected(self):
        # Arcs 3->1 and 4->2 cross even though the vector is acyclic.
        assert not is_well_formed_tree([3, 4, 0, 3])
        assert is_well_formed_tree([3, 3, 0, 3])

    def test_multiple_root_children_allowed(self):
        assert is_well_formed_tree([0, 0, 2])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_crossing_arc_oracle_exhaustively(self, n):
        import itertools

        choices = [[h for h in range(n + 1) if h != m] for m in range(1, n + 1)]
        for parents in itertools.product(*choices):
            assert is_well_formed_tree(parents) == _reference_is_projective_tree(parents), parents


class TestCheckTree:
    def _tree(self):
        return DependencyTree.from_edges(
            [DependencyEdge(0, "nsubj", 2, 0.9), DependencyEdge(2, "amod", 1, 0.8)]
        )

    def test_valid_tree_has_no_violations(self):
        assert check_tree(self._tree()) == []

    def test_modifier_coverage_violation(self, vocab5):
        # A word without exactly one head is not a tree: the constructor refuses it.
        with pytest.raises(ValueError, match="^a tree needs one head per word; 's' position 3"):
            DependencyTree("s", 3, vocab5, [(2, 0, "nsubj", 0.9), (1, 2, "amod", 0.8)])
        with pytest.raises(ValueError, match="modifier 3 out of range 1..2"):
            DependencyTree.from_edges(
                [DependencyEdge(0, "nsubj", 2, 0.9), DependencyEdge(2, "amod", 3, 0.8)]
            )

    def test_cycle_detected(self):
        tree = DependencyTree.from_edges(
            [DependencyEdge(2, "nsubj", 1, 0.9), DependencyEdge(1, "amod", 2, 0.8)]
        )
        assert check_tree(tree) == ["head vector is cyclic or non-projective"]

    def test_non_projective_tree_detected(self, vocab5):
        # Arcs 3->1 and 4->2 cross; the head vector [3, 4, 0, 3] is acyclic.
        entries = [(1, 3, "amod", 0.5), (2, 4, "obj", 0.5), (3, 0, "nsubj", 0.5), (4, 3, "obj", 1)]
        tree = DependencyTree("s", 4, vocab5, entries)
        assert tree.parents() == [3, 4, 0, 3]
        assert check_tree(tree) == ["head vector is cyclic or non-projective"]


class TestTreeHeads:
    """A tree is a forest with exactly one head per word."""

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([(1, 0, "amod", 0.5), (2, 1, "obj", 0.5), (2, 0, "obj", 0.5)], "position 2 has 2"),
            ([(1, 0, "amod", 0.5), (1, 2, "amod", 0.5)], "position 1 has 2"),
            ([(2, 0, "obj", 0.5)], "position 1 has 0"),
            ([], "position 1 has 0"),
        ],
    )
    def test_constructors_refuse_other_than_one_head(self, vocab5, entries, message):
        want = f"a tree needs one head per word; 's' {message} heads"
        with pytest.raises(ValueError, match=f"^{want}$"):
            DependencyTree("s", 2, vocab5, entries)
        if entries:
            modifier, head, names, prob = map(np.array, zip(*entries))
            label = np.array([vocab5.dep_index(name) for name in names])
            with pytest.raises(ValueError, match=f"^{want}$"):
                DependencyTree._from_arrays("s", 2, vocab5, (modifier, head, label, prob))

    def test_entry_rules_come_before_the_head_rule(self, vocab5):
        with pytest.raises(ValueError, match="^self-arc at position 1$"):
            DependencyTree("s", 2, vocab5, [(1, 1, "amod", 0.5), (1, 0, "amod", 0.5)])
        with pytest.raises(ValueError, match="^duplicate arc entry"):
            DependencyTree("s", 2, vocab5, [(1, 0, "amod", 0.5), (1, 0, "amod", 0.5)])

    def test_a_tree_is_a_forest_in_modifier_order(self, vocab5):
        entries = [(3, 1, "obj", 0.5), (1, 0, "amod", 0.4), (2, 1, "obj", 0.3)]
        tree = DependencyTree("s", 3, vocab5, entries)
        assert isinstance(tree, DependencyForest)
        assert tree.modifier.tolist() == [1, 2, 3] and tree.parents() == [0, 1, 1]
        assert tree.has_edge(1, "obj", 3) and tree.num_edges == 3
        assert tree != DependencyForest("s", 3, vocab5, tree.iter_entries())


class TestDependencyForest:
    def test_from_edges_deduplicates_keeping_first(self, vocab5):
        forest = forest_from_edges(
            "s",
            2,
            [
                DependencyEdge(0, "amod", 1, 0.5),
                DependencyEdge(0, "amod", 1, 0.2),  # duplicate triple, later prob
                DependencyEdge(1, "obj", 2, 0.4),
            ],
            vocab5,
        )
        assert forest.num_edges == 2
        assert forest.edges[0].prob == 0.5

    def test_canonical_edge_order(self, vocab5):
        forest = forest_from_edges(
            "s",
            3,
            [
                DependencyEdge(2, "obj", 3, 0.1),
                DependencyEdge(0, "nsubj", 1, 0.2),
                DependencyEdge(0, "amod", 1, 0.3),
                DependencyEdge(2, "amod", 1, 0.4),
            ],
            vocab5,
        )
        assert [(e.modifier, e.head, e.label) for e in forest.edges] == [
            (1, 0, "amod"),
            (1, 0, "nsubj"),
            (1, 2, "amod"),
            (3, 2, "obj"),
        ]

    def test_invalid_edges_rejected(self, vocab5):
        with pytest.raises(ValueError, match="self-arc"):
            DependencyForest("s", 2, vocab5, [(1, 1, "amod", 0.5)])
        with pytest.raises(ValueError, match="head 9 out of range"):
            DependencyForest("s", 2, vocab5, [(1, 9, "amod", 0.5)])
        with pytest.raises(ValueError, match="not in \\(0, 1\\]"):
            DependencyForest("s", 2, vocab5, [(1, 0, "amod", 0.0)])

    def test_has_edge(self, vocab5):
        forest = forest_from_edges("s", 2, [DependencyEdge(0, "amod", 1, 0.5)], vocab5)
        assert forest.has_edge(0, "amod", 1)
        assert not forest.has_edge(0, "obj", 1)
        assert not forest.has_edge(0, "punct", 1)
        assert not forest.has_edge(2, "amod", 1)

    def test_equality_compares_content_within_one_class(self, vocab5):
        entries = [(1, 0, "amod", 0.4), (2, 1, "obj", 0.3)]
        forest = DependencyForest("s", 2, vocab5, entries)
        same = forest_from_edges(
            "s", 2, [DependencyEdge(1, "obj", 2, 0.3), DependencyEdge(0, "amod", 1, 0.4)], vocab5
        )
        assert forest == same and not forest != same
        assert forest != DependencyForest("s", 2, vocab5, entries[:1])
        assert forest != DependencyForest("t", 2, vocab5, entries)
        assert forest != DependencyForest("s", 2, vocab5, [(1, 0, "amod", 0.4), (2, 1, "obj", 0.5)])
        # the same arrays as arc probabilities are another kind of object
        probs = ArcProbabilities("s", 2, vocab5, entries)
        assert forest != probs and probs != forest
        assert not forest == probs and not probs == forest
        with pytest.raises(TypeError, match="unhashable"):
            hash(forest)


ARC_SET_CLASSES = pytest.mark.parametrize("cls", [ArcProbabilities, DependencyForest])


@ARC_SET_CLASSES
@pytest.mark.parametrize(
    "entry, message",
    [
        (("1", 0, "amod", 0.2), "arc 2 field 'modifier' must be an int, got str"),
        ((1.5, 0, "amod", 0.2), "arc 2 field 'modifier' must be an int, got float"),
        ((True, 0, "amod", 0.2), "arc 2 field 'modifier' must be an int, got bool"),
        ((1, 0.0, "amod", 0.2), "arc 2 field 'head' must be an int, got float"),
        ((1, np.bool_(False), "amod", 0.2), "arc 2 field 'head' must be an int, got bool"),
        ((1, 0, "amod", "0.2"), "arc 2 field 'prob' must be a number, got str"),
        ((1, 0, "amod", None), "arc 2 field 'prob' must be a number, got NoneType"),
        ((1, 0, "amod", True), "arc 2 field 'prob' must be a number, got bool"),
        ((1, 0, "amod"), "each arc must be a list of 4 values"),
    ],
    ids=["str-modifier", "float-modifier", "bool-modifier", "float-head", "numpy-bool-head",
         "str-prob", "none-prob", "bool-prob", "three-values"],
)
def test_mistyped_entry_is_named(cls, vocab5, entry, message):
    with pytest.raises(ValueError) as info:
        cls("s", 2, vocab5, [(2, 0, "amod", 0.5), entry])
    assert str(info.value) == message


@ARC_SET_CLASSES
def test_numpy_scalars_are_accepted(cls, vocab5):
    entries = [(np.int64(2), np.int32(0), "obj", np.float32(0.5)), [1, 2, "amod", 1]]
    arcs = cls("s", 2, vocab5, entries)
    assert list(arcs.iter_entries()) == [(1, 2, "amod", 1.0), (2, 0, "obj", 0.5)]


class TestValidateInstance:
    def _instance(self, **kwargs):
        base = dict(
            sentence=Sentence("s", ("a", "b", "c", "d")),
            mention1=(1, 2),
            mention2=(3, 5),
            relation="R-A",
            ne_tags=("B-CHEM", "O", "B-GENE", "I-GENE"),
        )
        base.update(kwargs)
        return RelationInstance(**base)

    def test_valid_instance(self, vocab5):
        assert validate_instance(self._instance(), vocab5) == []

    def test_tags_are_optional(self, vocab5):
        assert validate_instance(self._instance(ne_tags=None), vocab5) == []

    def test_empty_span(self, vocab5):
        out = validate_instance(self._instance(mention1=(2, 2)), vocab5)
        assert out == ["empty mention span (mention1)"]

    def test_span_out_of_bounds(self, vocab5):
        out = validate_instance(self._instance(mention2=(3, 6)), vocab5)
        assert out == ["mention2 span [3, 6) outside positions 1..4"]

    def test_unknown_relation(self, vocab5):
        out = validate_instance(self._instance(relation="R-C"), vocab5)
        assert out == ["unknown relation 'R-C'"]

    def test_tag_length_mismatch(self, vocab5):
        out = validate_instance(self._instance(ne_tags=("O", "O")), vocab5)
        assert "ne_tags length 2" in out[0]

    def test_bio_discontinuity_position_reported(self, vocab5):
        out = validate_instance(
            self._instance(ne_tags=("O", "I-CHEM", "O", "O")), vocab5
        )
        assert out == ["BIO discontinuity at position 2"]

    def test_inside_must_continue_same_type(self, vocab5):
        out = validate_instance(
            self._instance(ne_tags=("B-CHEM", "I-GENE", "O", "O")), vocab5
        )
        assert out == ["BIO discontinuity at position 2"]

    def test_inside_runs_are_fine(self, vocab5):
        ok = self._instance(ne_tags=("B-GENE", "I-GENE", "I-GENE", "O"))
        assert validate_instance(ok, vocab5) == []

    def test_unknown_tag_reported_with_position(self, vocab5):
        out = validate_instance(
            self._instance(ne_tags=("O", "B-DISEASE", "O", "O")), vocab5
        )
        assert out == ["unknown NE tag 'B-DISEASE' at position 2"]
