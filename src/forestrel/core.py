"""Core data types shared across the toolkit.

Positions within a sentence are 1-based; position 0 is an implicit ROOT
pseudo-token that may head words but never modifies anything.  Mention spans
are half-open ``[start, end)`` intervals over 1-based positions.  All types
here are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

REVERSED_SUFFIX = "-rev"
NONE_RELATION = "None"
UNK_TOKEN = "<unk>"

# Sparse storage may drop probability mass, never add it.
MASS_TOLERANCE = 1e-6
LOG_SCORE_TOLERANCE = 1e-9


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

    def dep_index(self, label: str) -> int:
        try:
            return self._dep_index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise LabelLookupError(f"unknown dependency label {label!r}") from None

    def relation_index(self, relation: str) -> int:
        try:
            return self._rel_index[relation]  # type: ignore[attr-defined]
        except KeyError:
            raise LabelLookupError(f"unknown relation {relation!r}") from None

    def tag_index(self, tag: str) -> int:
        try:
            return self._tag_index[tag]  # type: ignore[attr-defined]
        except KeyError:
            raise LabelLookupError(f"unknown NE tag {tag!r}") from None


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


class ArcProbabilities:
    """Sparse per-modifier distributions over (head, label) candidates.

    Entries are quadruples ``(modifier, head, label, prob)`` with
    ``1 <= modifier <= n``, ``0 <= head <= n``, ``head != modifier`` and
    ``prob`` in ``(0, 1]``.  Per-modifier stored mass may fall below 1 (sparse
    storage drops mass) but never exceeds ``1 + 1e-6``.  Candidate lists are
    kept in canonical order (head, then label in vocabulary order), which makes
    iteration deterministic.  Instances are immutable.
    """

    __slots__ = ("sentence_id", "n", "vocab", "_by_mod", "_num_entries")

    def __init__(
        self,
        sentence_id: str,
        n: int,
        vocab: LabelVocab,
        entries: Iterable[tuple[int, int, str, float]],
    ) -> None:
        if n < 1:
            raise ValueError(f"sentence length must be >= 1, got {n}")
        self.sentence_id = sentence_id
        self.n = n
        self.vocab = vocab
        # Each (modifier, head) cell maps label index -> (label, prob); sorting
        # its keys gives vocabulary order.
        staged: dict[int, dict[int, dict[int, tuple[str, float]]]] = {}
        dep_index = vocab.dep_index
        count = 0
        for modifier, head, label, prob in entries:
            if not 1 <= modifier <= n:
                raise ValueError(f"modifier {modifier} out of range 1..{n}")
            if not 0 <= head <= n:
                raise ValueError(f"head {head} out of range 0..{n}")
            if head == modifier:
                raise ValueError(f"self-arc at position {modifier}")
            index = dep_index(label)  # raises LabelLookupError for unknown labels
            if not 0.0 < prob <= 1.0:
                raise ValueError(f"probability {prob} for {(modifier, head, label)} not in (0, 1]")
            cell = staged.setdefault(modifier, {}).setdefault(head, {})
            if index in cell:
                raise ValueError(f"duplicate arc entry {(modifier, head, label)}")
            cell[index] = (label, prob)
            count += 1
        for modifier, heads in staged.items():
            mass = sum(p for cell in heads.values() for _, p in cell.values())
            if mass > 1.0 + MASS_TOLERANCE:
                raise ValueError(
                    f"stored mass {mass:.9f} for modifier {modifier} exceeds 1 + {MASS_TOLERANCE}"
                )
        by_mod: dict[int, tuple[tuple[int, tuple[tuple[str, float], ...]], ...]] = {}
        for modifier, heads in sorted(staged.items()):
            by_mod[modifier] = tuple(
                (head, tuple(map(cell.__getitem__, sorted(cell))))
                for head, cell in sorted(heads.items())
            )
        self._by_mod = by_mod
        self._num_entries = count

    @property
    def num_entries(self) -> int:
        return self._num_entries

    def heads(self, modifier: int) -> tuple[int, ...]:
        return tuple(h for h, _ in self._by_mod.get(modifier, ()))

    def candidates(self, modifier: int, head: int) -> tuple[tuple[str, float], ...]:
        for h, cands in self._by_mod.get(modifier, ()):
            if h == head:
                return cands
        return ()

    def uncovered_modifiers(self) -> list[int]:
        """Positions with no stored candidates at all."""
        return [m for m in range(1, self.n + 1) if m not in self._by_mod]

    def modifier_mass(self, modifier: int) -> float:
        return sum(p for _, cands in self._by_mod.get(modifier, ()) for _, p in cands)

    def iter_entries(self) -> Iterator[tuple[int, int, str, float]]:
        """Yield quadruples in canonical (modifier, head, label-index) order."""
        for modifier in sorted(self._by_mod):
            for head, cands in self._by_mod[modifier]:
                for label, prob in cands:
                    yield (modifier, head, label, prob)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArcProbabilities):
            return NotImplemented
        return (
            self.sentence_id == other.sentence_id
            and self.n == other.n
            and tuple(self.iter_entries()) == tuple(other.iter_entries())
        )

    def __repr__(self) -> str:
        return (
            f"ArcProbabilities(id={self.sentence_id!r}, n={self.n}, "
            f"entries={self._num_entries})"
        )


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
    log_score: float

    @classmethod
    def from_edges(cls, edges: Iterable[DependencyEdge]) -> "DependencyTree":
        ordered = tuple(sorted(edges, key=lambda e: e.modifier))
        return cls(ordered, tree_log_score(ordered))

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
    if abs(tree.log_score - tree_log_score(tree.edges)) > LOG_SCORE_TOLERANCE:
        violations.append("log_score does not match the sum of edge log-probabilities")
    return violations


@dataclass(frozen=True)
class DependencyForest:
    """A deduplicated set of labeled arcs over one sentence.

    Unlike a tree, a forest may give a position several candidate heads, may
    leave positions unattached, and need not be connected.  Edges are stored in
    canonical (modifier, head, label-index) order.
    """

    sentence_id: str
    n: int
    edges: tuple[DependencyEdge, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"sentence length must be >= 1, got {self.n}")
        seen: set[tuple[int, str, int]] = set()
        for e in self.edges:
            if not 1 <= e.modifier <= self.n:
                raise ValueError(f"modifier {e.modifier} out of range 1..{self.n}")
            if not 0 <= e.head <= self.n:
                raise ValueError(f"head {e.head} out of range 0..{self.n}")
            if e.head == e.modifier:
                raise ValueError(f"self-arc at position {e.modifier}")
            if not 0.0 < e.prob <= 1.0:
                raise ValueError(f"probability {e.prob} for {e.triple} not in (0, 1]")
            if e.triple in seen:
                raise ValueError(f"duplicate edge {e.triple}")
            seen.add(e.triple)
        object.__setattr__(self, "_triples", frozenset(seen))

    @classmethod
    def from_edges(
        cls,
        sentence_id: str,
        n: int,
        edges: Iterable[DependencyEdge],
        vocab: LabelVocab,
    ) -> "DependencyForest":
        """Build a forest, deduplicating repeated triples (first prob wins)."""
        kept: dict[tuple[int, str, int], DependencyEdge] = {}
        for e in edges:
            kept.setdefault(e.triple, e)
        ordered = sorted(
            kept.values(), key=lambda e: (e.modifier, e.head, vocab.dep_index(e.label))
        )
        return cls(sentence_id, n, tuple(ordered))

    def has_edge(self, head: int, label: str, modifier: int) -> bool:
        return (head, label, modifier) in self._triples  # type: ignore[attr-defined]

    @property
    def num_edges(self) -> int:
        return len(self.edges)


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
