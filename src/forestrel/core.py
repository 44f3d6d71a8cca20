"""Core data types shared across the toolkit.

Positions within a sentence are 1-based; position 0 is an implicit ROOT
pseudo-token that may head words but never modifies anything.  Mention spans
are half-open ``[start, end)`` intervals over 1-based positions.  All types
here are immutable after construction and safe to share between workers.
Arc probabilities, dependency forests and trees share one form, four
read-only numpy arrays in canonical order, and one array check (``_ArcSet``);
a tree is a forest whose check adds one rule, one head per word.  Everything
downstream reads those arrays; one modifier's entries are the run that
``np.searchsorted`` finds in ``modifier``.  Labels reach the check as
vocabulary indices: rows from callers are split into columns (files hold
columns) and label names mapped to indices in one pass (an unknown name to
-1), and the synthetic generator passes index arrays through
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


def _check_columns(columns: Sequence, fields: Sequence, entry: str = "") -> Sequence:
    """Fail unless each column, one per ``(field, kind)`` of ``fields`` with
    ``kind`` a key of ``_FIELD_TYPES``, is a list or tuple of values ``kind``
    admits and all are equal in length; return ``columns``.  A wrong type is
    named by field and 1-based entry (``arc 2 field 'modifier' must be an
    int, got float``), or by field alone without ``entry``."""
    for (field, kind), column in zip(fields, columns):
        if type(column) not in (list, tuple):
            raise ValueError(f"field {field!r} must be a list, got {type(column).__name__}")
        allowed, name = _FIELD_TYPES[kind]
        types = set(map(type, column))
        wrong = {t for t in types if not issubclass(t, allowed) or (t is bool) != (kind is bool)}
        if wrong:
            place, value = next((i, v) for i, v in enumerate(column, 1) if type(v) in wrong)
            where = f"{entry} {place} field {field!r}" if entry else f"field {field!r}"
            raise ValueError(f"{where} must be {name}, got {type(value).__name__}")
    if len(set(map(len, columns))) > 1:
        names = [field for field, _ in fields]
        raise ValueError(f"columns {names} differ in length: {list(map(len, columns))}")
    return columns


def _check_types(rows: list, fields: Sequence[tuple[str, type]], row_name: str = "") -> tuple:
    """``_check_columns`` on the columns of ``rows``, which it returns, one
    tuple per field; every row must be a list or tuple holding one value per
    field.  Without ``row_name``, ``rows`` is one record's values."""
    if set(map(type, rows)) - {list, tuple} or set(map(len, rows)) - {len(fields)}:
        raise ValueError(f"each {row_name} must be a list of {len(fields)} values")
    return _check_columns(tuple(zip(*rows)) or ((),) * len(fields), fields, row_name)


def _check_list(value: object, field: str, kind: type) -> list:
    """``value``, if it is a JSON list whose items ``kind`` admits
    (``item 2 field 'dep_labels' must be a string, got int``)."""
    return _check_columns((value,), ((field, kind),), "item")[0]


def _arc_key(n: int, n_labels: int, modifier, head, label) -> np.ndarray:
    """One int64 per entry: with head in 0..n and label in 0..L-1, it orders
    entries by (modifier, head, label) and is equal exactly where all three are."""
    return (modifier * (n + 1) + head) * n_labels + label


def _check_one_head(what: str, sentence_id: str, n: int, modifier: np.ndarray) -> None:
    """The tree rule: fail unless each position 1..n is the modifier of exactly
    one entry (``a tree needs one head per word; 's1' position 3 has 2 heads``)."""
    heads = np.bincount(modifier, minlength=n + 1)
    wrong = np.flatnonzero(heads[1:] != 1)
    if wrong.size:
        m = int(wrong[0]) + 1
        raise ValueError(
            f"{what} needs one head per word; {sentence_id!r} position {m} has {heads[m]} heads"
        )


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
        ``_check_columns`` passed (a file reader's)."""
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
        key = _arc_key(n, n_labels, modifier, head, label)
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
        self._check_input_order(sentence_id, n, modifier, prob)
        columns = (modifier, head, label, prob)
        self._keep(sentence_id, n, vocab, *(column[order] for column in columns))

    def _check_input_order(self, sentence_id: str, n: int, modifier, prob) -> None:
        """A subclass's further rules, on the checked columns in input order."""

    def _keep(self, sentence_id: str, n: int, vocab: LabelVocab, *columns: np.ndarray) -> None:
        self.sentence_id, self.n, self.vocab = sentence_id, n, vocab
        self.modifier, self.head, self.label, self.prob = columns
        for column in columns:
            column.flags.writeable = False

    @classmethod
    def _kept(cls, sentence_id: str, n: int, vocab: LabelVocab, *columns: np.ndarray):
        """Checked columns in canonical order as a ``cls``, not checked again."""
        arcs = cls.__new__(cls)
        arcs._keep(sentence_id, n, vocab, *columns)
        return arcs

    def _subset(self, cls: type, keep: np.ndarray):
        """The entries that ``keep`` selects, as a ``cls``: a subset of checked
        entries in canonical order is checked and canonical already."""
        columns = (self.modifier, self.head, self.label, self.prob)
        return cls._kept(self.sentence_id, self.n, self.vocab, *(c[keep] for c in columns))

    def _columns(self) -> dict[str, list]:
        """``iter_entries`` as one list per ``_ARC_FIELDS`` field (the file layout)."""
        labels = list(map(self.vocab.dep_labels.__getitem__, self.label.tolist()))
        columns = (self.modifier.tolist(), self.head.tolist(), labels, self.prob.tolist())
        return dict(zip((field for field, _ in _ARC_FIELDS), columns))

    def iter_entries(self) -> Iterator[tuple[int, int, str, float]]:
        """Quadruples of Python ints, label strings and floats in canonical order."""
        return zip(*self._columns().values())

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

    def _check_input_order(self, sentence_id: str, n: int, modifier, prob) -> None:
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


class DependencyTree(DependencyForest):
    """A forest with exactly one labeled head per token position, so its
    entries are in modifier order.  Acyclicity and projectivity are
    ``check_tree``'s."""

    __slots__ = ()

    def _check_input_order(self, sentence_id: str, n: int, modifier, prob) -> None:
        _check_one_head("a tree", sentence_id, n, modifier)

    @classmethod
    def from_edges(cls, edges: Iterable[DependencyEdge]) -> "DependencyTree":
        """A tree of ``len(edges)`` words with no sentence id under a vocabulary
        of the edges' own labels (one entry per modifier: the order ignores it).
        Only the benchmark's K=1 check calls it; ROADMAP item 2 retires it."""
        edges = list(edges)
        vocab = LabelVocab(tuple(dict.fromkeys(e.label for e in edges)), (NONE_RELATION,))
        return cls("", len(edges), vocab, [(e.modifier, e.head, e.label, e.prob) for e in edges])

    @property
    def log_score(self) -> float:
        """Sum of ``math.log(prob)`` in modifier order.  Equal trees give equal
        floats (``np.log`` can differ in the last bit), and the decoder's sort
        and tie order depend on those bits."""
        return sum(map(math.log, self.prob.tolist()))

    def parents(self) -> list[int]:
        """Head vector: entry ``m - 1`` is the head of position ``m``."""
        return self.head.tolist()


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
    """Acyclicity and projectivity violations (empty list means valid); the
    tree's constructor has checked every other rule."""
    if is_well_formed_tree(tree.parents()):
        return []
    return ["head vector is cyclic or non-projective"]


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
