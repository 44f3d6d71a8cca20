"""Core data types shared across the toolkit.

Positions within a sentence are 1-based; position 0 is an implicit ROOT
pseudo-token that may head words but never modifies anything.  Mention spans
are half-open ``[start, end)`` intervals over 1-based positions.  All types
here are immutable after construction and safe to share between workers.
Arc probabilities and dependency forests share one form, four read-only numpy
arrays in canonical order, and one array check (``_ArcSet``); everything
downstream reads those arrays; one modifier's entries are the run that
``np.searchsorted`` finds in ``modifier``.  Labels reach the check as
vocabulary indices: rows from callers and files are split into columns and
their label names mapped to indices in one pass (an unknown name to -1),
and the synthetic generator passes index arrays through
``_ArcSet._from_arrays`` without building rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

REVERSED_SUFFIX = "-rev"
NONE_RELATION = "None"
UNK_TOKEN = "<unk>"

# Sparse storage may drop probability mass, never add it.
MASS_TOLERANCE = 1e-6

# The types each kind of field admits, and its name in errors.  A bool is
# admitted only by the bool kind, although Python's bool subclasses int, and a
# float field (a probability) may hold an int.  JSON decodes to int, float,
# str and bool, so rows read from files and rows from Python callers meet one
# rule.
_FIELD_TYPES = {
    int: ((int, np.integer), "an int"),
    float: ((int, float, np.integer, np.floating), "a number"),
    str: (str, "a string"),
    bool: (bool, "a bool"),
}
_ARC_FIELDS = (("modifier", int), ("head", int), ("label", str), ("prob", float))


class LabelLookupError(KeyError):
    """An unknown dependency label, relation, or NE tag was referenced."""


@dataclass(frozen=True)
class LabelVocab:
    """Closed inventories: dependency labels, relation identifiers, NE tags.

    Every dependency label ``l`` has a reversed partner ``l + "-rev"`` used for
    head-to-modifier messages in the encoder; the forward and reversed sets are
    disjoint by construction (forward labels may not end in ``-rev``).  The
    relation inventory contains exactly one ``"None"`` entry for unrelated
    mention pairs.  NE tags follow the BIO scheme.
    """

    dep_labels: tuple[str, ...]
    relations: tuple[str, ...]
    ne_tags: tuple[str, ...] = ("O",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dep_labels", tuple(self.dep_labels))
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "ne_tags", tuple(self.ne_tags))
        if not self.dep_labels:
            raise ValueError("dep_labels must be non-empty")
        if len(set(self.dep_labels)) != len(self.dep_labels):
            raise ValueError("duplicate dependency labels")
        for label in self.dep_labels:
            if not label or label.endswith(REVERSED_SUFFIX):
                raise ValueError(f"invalid dependency label {label!r}")
        if self.relations.count(NONE_RELATION) != 1:
            raise ValueError('relations must contain exactly one "None" entry')
        if len(set(self.relations)) != len(self.relations):
            raise ValueError("duplicate relations")
        if len(set(self.ne_tags)) != len(self.ne_tags):
            raise ValueError("duplicate NE tags")
        for tag in self.ne_tags:
            if tag != "O" and not (len(tag) > 2 and tag[0] in "BI" and tag[1] == "-"):
                raise ValueError(f"invalid BIO tag {tag!r}")
        object.__setattr__(self, "_dep_index", {l: i for i, l in enumerate(self.dep_labels)})
        object.__setattr__(self, "_rel_index", {r: i for i, r in enumerate(self.relations)})
        object.__setattr__(self, "_tag_index", {t: i for i, t in enumerate(self.ne_tags)})

    @property
    def num_dep_labels(self) -> int:
        return len(self.dep_labels)

    @staticmethod
    def _lookup(index: dict[str, int], kind: str, name: str) -> int:
        try:
            return index[name]
        except KeyError:
            raise LabelLookupError(f"unknown {kind} {name!r}") from None

    def dep_index(self, label: str) -> int:
        return self._lookup(self._dep_index, "dependency label", label)  # type: ignore[attr-defined]

    def relation_index(self, relation: str) -> int:
        return self._lookup(self._rel_index, "relation", relation)  # type: ignore[attr-defined]

    def tag_index(self, tag: str) -> int:
        return self._lookup(self._tag_index, "NE tag", tag)  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Sentence:
    """A tokenized sentence.  ``n`` is the number of real tokens (ROOT excluded)."""

    id: str
    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError(f"sentence {self.id!r} has no tokens")

    @property
    def n(self) -> int:
        return len(self.tokens)


class DependencyEdge(NamedTuple):
    """Labeled arc ``head --label--> modifier`` with the probability it carried."""

    head: int
    label: str
    modifier: int
    prob: float

    @property
    def triple(self) -> tuple[int, str, int]:
        """Identity of the edge; two edges with equal triples are duplicates."""
        return (self.head, self.label, self.modifier)


def _check_types(rows: list, fields: Sequence[tuple[str, type]], row_name: str = "") -> tuple:
    """Fail unless every value in ``rows`` has a type its field admits;
    return the columns, one tuple per field.

    Every row must be a list or tuple holding one value per ``(field, kind)``
    of ``fields``, where ``kind`` is a key of ``_FIELD_TYPES``.  The first
    field holding a wrong type is reported with the 1-based place of its
    first wrong row (``arc 2 field 'modifier' must be an int, got float``);
    without ``row_name``, ``rows`` is one record's values and only the field
    is named.  Each column's types are gathered in one pass.
    """
    if set(map(type, rows)) - {list, tuple} or set(map(len, rows)) - {len(fields)}:
        raise ValueError(f"each {row_name} must be a list of {len(fields)} values")
    columns = tuple(zip(*rows)) or ((),) * len(fields)
    for (field, kind), column in zip(fields, columns):
        allowed, name = _FIELD_TYPES[kind]
        types = set(map(type, column))
        wrong = {t for t in types if not issubclass(t, allowed) or (t is bool) != (kind is bool)}
        if wrong:
            row, value = next((i, v) for i, v in enumerate(column, 1) if type(v) in wrong)
            where = f"{row_name} {row} field {field!r}" if row_name else f"field {field!r}"
            raise ValueError(f"{where} must be {name}, got {type(value).__name__}")
    return columns


def _check_list(value: object, field: str, kind: type) -> list:
    """``value``, if it is a JSON list whose items ``kind`` admits
    (``item 2 field 'dep_labels' must be a string, got int``)."""
    if type(value) is not list:
        raise ValueError(f"field {field!r} must be a list, got {type(value).__name__}")
    _check_types([[item] for item in value], ((field, kind),), "item")
    return value


class _ArcSet:
    """The labeled arcs of one sentence as four read-only arrays.

    Entries are quadruples ``(modifier, head, label, prob)`` with
    ``1 <= modifier <= n``, ``0 <= head <= n``, ``head != modifier``, a label
    of the vocabulary and ``prob`` in ``(0, 1]``; no (modifier, head, label)
    key occurs twice.  They are kept as ``modifier``, ``head``, ``label`` (the
    vocabulary index) and ``prob``, in canonical order: by modifier, then
    head, then label in vocabulary order.  Readers use the arrays directly.
    Instances are immutable; two of the same class are equal when their ids,
    lengths and entries are.
    """

    __slots__ = ("sentence_id", "n", "vocab", "modifier", "head", "label", "prob")

    def __init__(
        self,
        sentence_id: str,
        n: int,
        vocab: LabelVocab,
        entries: Iterable[tuple[int, int, str, float]],
    ) -> None:
        self._check_named(sentence_id, n, vocab, _check_types(list(entries), _ARC_FIELDS, "arc"))

    @classmethod
    def _from_columns(cls, sentence_id: str, n: int, vocab: LabelVocab, columns: Sequence):
        """Build from ``(modifier, head, label, prob)`` columns that
        ``_check_types`` returned (a file reader's)."""
        arcs = cls.__new__(cls)
        arcs._check_named(sentence_id, n, vocab, columns)
        return arcs

    @classmethod
    def _from_arrays(cls, sentence_id: str, n: int, vocab: LabelVocab, columns: Sequence):
        """Build from ``(modifier, head, label, prob)`` arrays whose labels are
        vocabulary indices (the synthetic generator's).  The rules and
        messages are the row constructor's; an index outside ``0..L-1`` is
        refused as well."""
        modifier, head, label, prob = columns

        def entry(i: int) -> tuple:
            li = int(label[i])
            name = vocab.dep_labels[li] if 0 <= li < vocab.num_dep_labels else li
            return int(modifier[i]), int(head[i]), name, float(prob[i])

        arcs = cls.__new__(cls)
        arcs._check(sentence_id, n, vocab, columns, entry)
        return arcs

    def _check_named(self, sentence_id: str, n: int, vocab: LabelVocab, columns: Sequence) -> None:
        """``_check`` on columns whose labels are names; an unknown name maps to -1."""
        modifier, head, names, prob = columns
        index = vocab._dep_index  # type: ignore[attr-defined]
        label = np.fromiter(map(index.get, names, repeat(-1)), np.int64, len(names))

        def entry(i: int) -> tuple:
            return tuple(column[i] for column in columns)

        self._check(sentence_id, n, vocab, (modifier, head, label, prob), entry)

    def _check(
        self, sentence_id: str, n: int, vocab: LabelVocab, columns: Sequence, entry: Callable
    ) -> None:
        """Check every entry rule on the ``(modifier, head, label index, prob)``
        columns and keep them in canonical order; ``entry(i)`` gives entry
        ``i`` as its caller passed it, for the error message."""
        if n < 1:
            raise ValueError(f"sentence length must be >= 1, got {n}")
        modifier, head, label, prob = map(np.asarray, columns)
        n_labels = vocab.num_dep_labels
        # One mask flags every bad entry.  The first one in input order is
        # then checked test by test, so its error is the one a scalar pass
        # over the entries would raise.  A duplicate is every later entry of
        # a key under a stable sort; a bad entry gets a key of its own.
        bad = ~(
            (1 <= modifier) & (modifier <= n) & (0 <= head) & (head <= n)
            & (head != modifier) & (0 <= label) & (label < n_labels)
            & (0.0 < prob) & (prob <= 1.0)
        )
        modifier = np.where(bad, -1 - np.arange(len(label)), modifier).astype(np.int64)
        head = np.where(bad, 0, head).astype(np.int64)
        label = np.where(bad, 0, label).astype(np.int64)
        # head is in 0..n and label in 0..L-1, so one int64 orders entries
        # by (modifier, head, label) and is equal exactly where all three are.
        key = (modifier * (n + 1) + head) * n_labels + label
        order = np.argsort(key, kind="stable")
        bad[order[1:]] |= np.diff(key[order]) == 0
        if bad.any():
            first = int(np.argmax(bad))
            m, h, name, p = entry(first)
            if not 1 <= m <= n:
                raise ValueError(f"modifier {m} out of range 1..{n}")
            if not 0 <= h <= n:
                raise ValueError(f"head {h} out of range 0..{n}")
            if h == m:
                raise ValueError(f"self-arc at position {m}")
            if type(name) is not str:
                raise ValueError(f"label index {name} out of range 0..{n_labels - 1}")
            vocab.dep_index(name)  # raises LabelLookupError for unknown labels
            if not 0.0 < p <= 1.0:
                raise ValueError(f"probability {p} for {(m, h, name)} not in (0, 1]")
            raise ValueError(f"duplicate arc entry {(m, h, name)}")
        prob = prob.astype(np.float64)
        self._check_input_order(n, modifier, prob)
        columns = (modifier, head, label, prob)
        self._keep(sentence_id, n, vocab, *(column[order] for column in columns))

    def _check_input_order(self, n: int, modifier: np.ndarray, prob: np.ndarray) -> None:
        """A subclass's further rules, on the checked columns in input order."""

    def _keep(self, sentence_id: str, n: int, vocab: LabelVocab, *columns: np.ndarray) -> None:
        self.sentence_id, self.n, self.vocab = sentence_id, n, vocab
        self.modifier, self.head, self.label, self.prob = columns
        for column in columns:
            column.flags.writeable = False

    def _subset(self, cls: type, keep: np.ndarray):
        """The entries where ``keep`` holds, as a ``cls``: a subset of checked
        entries in canonical order is checked and canonical already."""
        arcs = cls.__new__(cls)
        columns = (self.modifier, self.head, self.label, self.prob)
        arcs._keep(self.sentence_id, self.n, self.vocab, *(column[keep] for column in columns))
        return arcs

    def iter_entries(self) -> Iterator[tuple[int, int, str, float]]:
        """Quadruples of Python ints, label strings and floats in canonical order."""
        labels = map(self.vocab.dep_labels.__getitem__, self.label.tolist())
        return zip(self.modifier.tolist(), self.head.tolist(), labels, self.prob.tolist())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        mine, theirs = (
            (p.modifier, p.head, np.take(p.vocab.dep_labels, p.label), p.prob) for p in (self, other)
        )
        return (self.sentence_id, self.n) == (other.sentence_id, other.n) and all(
            map(np.array_equal, mine, theirs)
        )

    def __repr__(self) -> str:
        name = type(self).__name__
        return f"{name}(id={self.sentence_id!r}, n={self.n}, entries={len(self.prob)})"


class ArcProbabilities(_ArcSet):
    """Sparse per-modifier distributions over (head, label) candidates.  A
    modifier's stored mass may fall below 1 (sparse storage drops mass) but
    never exceeds ``1 + 1e-6``."""

    __slots__ = ()

    def _check_input_order(self, n: int, modifier: np.ndarray, prob: np.ndarray) -> None:
        mass = np.bincount(modifier, weights=prob, minlength=n + 1)
        over = np.flatnonzero(mass[modifier] > 1.0 + MASS_TOLERANCE)
        if over.size:
            m = int(modifier[over[0]])
            raise ValueError(
                f"stored mass {mass[m]:.9f} for modifier {m} exceeds 1 + {MASS_TOLERANCE}"
            )

    @property
    def num_entries(self) -> int:
        return len(self.prob)

    def uncovered_modifiers(self) -> list[int]:
        """Positions with no stored candidates at all."""
        counts = np.bincount(self.modifier, minlength=self.n + 1)
        return (np.flatnonzero(counts[1:] == 0) + 1).tolist()


class DependencyForest(_ArcSet):
    """A set of labeled arcs over one sentence.

    Unlike a tree, a forest may give a position several candidate heads, may
    leave positions unattached, and need not be connected.
    """

    __slots__ = ()

    @classmethod
    def from_edges(
        cls, sentence_id: str, n: int, edges: Iterable[DependencyEdge], vocab: LabelVocab
    ) -> "DependencyForest":
        """Build a forest, deduplicating repeated triples (first prob wins)."""
        kept: dict[tuple[int, str, int], DependencyEdge] = {}
        for e in edges:
            kept.setdefault(e.triple, e)
        rows = [(e.modifier, e.head, e.label, e.prob) for e in kept.values()]
        return cls(sentence_id, n, vocab, rows)

    @property
    def edges(self) -> tuple[DependencyEdge, ...]:
        """The arcs as edges, in canonical order."""
        return tuple(DependencyEdge(h, label, m, p) for m, h, label, p in self.iter_entries())

    def has_edge(self, head: int, label: str, modifier: int) -> bool:
        index = self.vocab._dep_index.get(label, -1)  # type: ignore[attr-defined]
        found = (self.modifier == modifier) & (self.head == head) & (self.label == index)
        return bool(found.any())

    @property
    def num_edges(self) -> int:
        return len(self.prob)


def tree_log_score(edges: Iterable[DependencyEdge]) -> float:
    """Sum of ln(prob) in ascending-modifier order.

    Every scorer in the toolkit funnels through this helper so identical edge
    sets always produce identical floats, which keeps tie handling consistent.
    """
    return sum(math.log(e.prob) for e in sorted(edges, key=lambda e: e.modifier))


@dataclass(frozen=True)
class DependencyTree:
    """A projective analysis: exactly one labeled head per token position."""

    edges: tuple[DependencyEdge, ...]

    @classmethod
    def from_edges(cls, edges: Iterable[DependencyEdge]) -> "DependencyTree":
        return cls(tuple(sorted(edges, key=lambda e: e.modifier)))

    @property
    def log_score(self) -> float:
        """``tree_log_score`` of the edges."""
        return tree_log_score(self.edges)

    @property
    def n(self) -> int:
        return len(self.edges)

    def parents(self) -> list[int]:
        """Head vector: entry ``m - 1`` is the head of position ``m``."""
        return [e.head for e in self.edges]


def ancestors_of(parents: Sequence[int], position: int) -> set[int]:
    """All strict ancestors of ``position`` (1-based), including 0 when reached.

    Walks at most ``len(parents)`` steps, so cyclic head vectors terminate with
    a partial (cycle-local) ancestor set rather than looping forever.
    """
    seen: set[int] = set()
    node = position
    for _ in range(len(parents)):
        if node == 0:
            break
        node = parents[node - 1]
        if node in seen:
            break
        seen.add(node)
    return seen


def is_well_formed_tree(parents: Sequence[int]) -> bool:
    """True iff the head vector is acyclic (rooted at 0) and projective.

    Projectivity: for every arc (h, m), each position strictly between h and m
    is a descendant of h.
    """
    n = len(parents)
    anc: list[set[int]] = [set()] * (n + 1)
    for m in range(1, n + 1):
        a = ancestors_of(parents, m)
        if 0 not in a:
            return False
        anc[m] = a
    for m in range(1, n + 1):
        h = parents[m - 1]
        lo, hi = (h, m) if h < m else (m, h)
        for q in range(lo + 1, hi):
            if h != q and h not in anc[q]:
                return False
    return True


def check_tree(tree: DependencyTree) -> list[str]:
    """Return human-readable invariant violations (empty list means valid)."""
    violations: list[str] = []
    n = len(tree.edges)
    mods = [e.modifier for e in tree.edges]
    if sorted(mods) != list(range(1, n + 1)):
        violations.append(f"modifiers {sorted(mods)} do not cover 1..{n} exactly once")
        return violations
    if list(mods) != sorted(mods):
        violations.append("edges are not sorted by modifier")
    for e in tree.edges:
        if not 0 <= e.head <= n:
            violations.append(f"head {e.head} out of range 0..{n}")
        if e.head == e.modifier:
            violations.append(f"self-arc at position {e.modifier}")
        if not 0.0 < e.prob <= 1.0:
            violations.append(f"probability {e.prob} for modifier {e.modifier} not in (0, 1]")
    if violations:
        return violations
    if not is_well_formed_tree(tree.parents()):
        violations.append("head vector is cyclic or non-projective")
    return violations


@dataclass(frozen=True)
class RelationInstance:
    """A sentence with two mention spans, a gold relation, and optional NE tags."""

    sentence: Sentence
    mention1: tuple[int, int]
    mention2: tuple[int, int]
    relation: str
    ne_tags: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mention1", tuple(self.mention1))
        object.__setattr__(self, "mention2", tuple(self.mention2))
        if self.ne_tags is not None:
            object.__setattr__(self, "ne_tags", tuple(self.ne_tags))


def check_alignment(
    instances: Sequence[RelationInstance], forests: Sequence[DependencyForest]
) -> None:
    """Fail unless ``forests[i]`` is over the sentence of ``instances[i]``:
    equal counts, equal ids (when the forest carries one) and equal lengths."""
    if len(forests) != len(instances):
        raise ValueError(
            f"{len(forests)} forests vs {len(instances)} instances: collections misaligned"
        )
    for forest, inst in zip(forests, instances):
        if forest.sentence_id and forest.sentence_id != inst.sentence.id:
            raise ValueError(
                f"forest {forest.sentence_id!r} aligned with instance {inst.sentence.id!r}"
            )
        if forest.n != inst.sentence.n:
            raise ValueError(
                f"forest for {inst.sentence.id!r} has {forest.n} tokens, "
                f"sentence has {inst.sentence.n}"
            )


def validate_instance(instance: RelationInstance, vocab: LabelVocab) -> list[str]:
    """Return all violations of the instance contract (empty list means valid).

    Checks span bounds and non-emptiness, relation membership, tag membership,
    tag-sequence length, and BIO continuity.  Overlapping mention spans are
    permitted.
    """
    violations: list[str] = []
    n = instance.sentence.n
    for name, (start, end) in (("mention1", instance.mention1), ("mention2", instance.mention2)):
        if start >= end:
            violations.append(f"empty mention span ({name})")
        elif not (1 <= start and end <= n + 1):
            violations.append(f"{name} span [{start}, {end}) outside positions 1..{n}")
    if instance.relation not in vocab.relations:
        violations.append(f"unknown relation {instance.relation!r}")
    if instance.ne_tags is not None:
        if len(instance.ne_tags) != n:
            violations.append(
                f"ne_tags length {len(instance.ne_tags)} does not match {n} tokens"
            )
        else:
            prev = "O"
            for pos, tag in enumerate(instance.ne_tags, start=1):
                if tag not in vocab.ne_tags:
                    violations.append(f"unknown NE tag {tag!r} at position {pos}")
                    prev = "O"
                    continue
                if tag.startswith("I-") and prev not in (f"B-{tag[2:]}", tag):
                    violations.append(f"BIO discontinuity at position {pos}")
                prev = tag
    return violations
