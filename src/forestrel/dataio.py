"""Line-delimited JSON file formats plus a seeded synthetic corpus generator.

Every file is UTF-8 with one JSON object per line, canonical key order, and
floats serialized by Python's shortest exact repr (so probabilities round-trip
bitwise; anything with nine or more significant digits survives untouched).

Formats::

    corpus:  {"id", "tokens", "mention1": {"start", "end"}, "mention2": ...,
              "relation", "ne_tags"?}            (spans are half-open, 1-based)
    arcs, forests, trees: {"head": [...], "id", "label": [...],
              "modifier": [...], "n", "prob": [...]}   (entry i: item i of each)
    vocab:   {"dep_labels", "relations", "ne_tags"}   (the LabelVocab fields)
    predictions: {"id", "relation", "prob"}      (one line per instance)

Arc, forest and gold-tree files share one record layout: one list per field
of an entry, in canonical (modifier, head, label-index) order, which makes
load-then-write byte-identical.  A tree is a forest with exactly one head
per token (``DependencyTree`` checks it), and the tree reader adds only the
acyclicity and projectivity of ``check_tree``.  One writer and one reader
serve all three files.

Readers check JSON types first: each line and each mention must be a JSON
object; positions, ``n`` and span ends must be ints (not bool, float or str),
ids, relations and labels strings, tokens and NE tags lists of strings, and
probabilities numbers; the error names the file, the line, the field and,
in a column, the 1-based entry.  Arc columns must be lists of equal length;
a missing one is named (``arcs.jsonl:3: 'prob'``), so a line in the row
layout of earlier versions (``"arcs"`` or ``"edges"`` rows) fails and must
be rewritten.  Checked columns go as decoded to the one check that
``ArcProbabilities``, ``DependencyForest`` and ``DependencyTree`` share,
which maps label names to vocabulary indices; a duplicate (modifier, head,
label) entry fails in any of the three files.

The synthetic generator scores each sentence as whole arrays: one Gumbel
draw of shape (n, n·L), a softmax per row, and one ``np.nonzero`` for the
entries above the floor, whose modifier, head and label-index arrays go to
the same check without building rows; the gold tree is the subset of those
checked entries that the gold head vector and labels pick.

Every JSONL file is written by one writer through ``atomic_open``: a file is
either the old one or the complete new one, never a truncated mix.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    _ARC_FIELDS,
    ArcProbabilities,
    DependencyForest,
    DependencyTree,
    LabelVocab,
    NONE_RELATION,
    RelationInstance,
    Sentence,
    _check_columns,
    _check_list,
    _check_types,
    ancestors_of,
    check_tree,
    validate_instance,
)


class DataFormatError(ValueError):
    """A file violates its format contract."""


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _check_object(value: object, what: str) -> dict:
    """``value``, if it is a JSON object (``record must be a JSON object, got list``)."""
    if type(value) is not dict:
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


@contextmanager
def atomic_open(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Write to a temporary file beside ``path``; a clean exit renames it over ``path``.

    The temporary file is flushed to disk before the rename.  If the block
    raises, the temporary file is removed and ``path`` keeps its old bytes.
    A symlink stays in place and its target is replaced.  A pipe or device
    (``/dev/stdout``) cannot be replaced, so it is written in place.
    """
    mode, encoding = ("wb", None) if binary else ("w", "utf-8")
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    path = path.resolve()
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=encoding) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


_SPANS = [(mention, end) for mention in ("mention1", "mention2") for end in ("start", "end")]
_INSTANCE_FIELDS = (("id", str), ("relation", str)) + tuple(
    (f"{mention}.{end}", int) for mention, end in _SPANS
)


def _read_lines(path: str | Path) -> list[tuple[int, str]]:
    with open(path, encoding="utf-8") as fh:
        return [(no, line.rstrip("\n")) for no, line in enumerate(fh, start=1) if line.strip()]


def _write_jsonl(path: str | Path, objs: Iterable) -> None:
    """One ``_dumps`` line per object, in order."""
    with atomic_open(path) as fh:
        for obj in objs:
            fh.write(_dumps(obj) + "\n")


# --------------------------------------------------------------------------
# Vocabulary files


def save_vocab(vocab: LabelVocab, path: str | Path) -> None:
    _write_jsonl(path, [asdict(vocab)])


def load_vocab(path: str | Path) -> LabelVocab:
    """Read a vocabulary file: ``dep_labels``, ``relations`` and, optionally,
    ``ne_tags`` (default ``["O"]``), each a list of strings."""
    try:
        payload = _check_object(json.loads(Path(path).read_text(encoding="utf-8")), "vocabulary")
        return LabelVocab(
            tuple(_check_list(payload["dep_labels"], "dep_labels", str)),
            tuple(_check_list(payload["relations"], "relations", str)),
            tuple(_check_list(payload.get("ne_tags", ["O"]), "ne_tags", str)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: invalid vocabulary file: {exc}") from exc


# --------------------------------------------------------------------------
# Corpus files


@dataclass(frozen=True)
class CorpusLoadResult:
    instances: tuple[RelationInstance, ...]
    skipped: tuple[str, ...]


def _instance_to_obj(inst: RelationInstance) -> dict:
    obj = {
        "id": inst.sentence.id,
        "tokens": list(inst.sentence.tokens),
        "mention1": {"start": inst.mention1[0], "end": inst.mention1[1]},
        "mention2": {"start": inst.mention2[0], "end": inst.mention2[1]},
        "relation": inst.relation,
    }
    if inst.ne_tags is not None:
        obj["ne_tags"] = list(inst.ne_tags)
    return obj


def _instance_from_obj(obj: object) -> RelationInstance:
    obj = _check_object(obj, "record")
    spans = [_check_object(obj[mention], f"field {mention!r}")[end] for mention, end in _SPANS]
    sid, relation = obj["id"], obj["relation"]
    _check_types([[sid, relation, *spans]], _INSTANCE_FIELDS)
    sentence = Sentence(sid, tuple(_check_list(obj["tokens"], "tokens", str)))
    tags = tuple(_check_list(obj["ne_tags"], "ne_tags", str)) if "ne_tags" in obj else None
    return RelationInstance(sentence, tuple(spans[:2]), tuple(spans[2:]), relation, tags)


def save_corpus(instances: Iterable[RelationInstance], path: str | Path) -> None:
    _write_jsonl(path, map(_instance_to_obj, instances))


def load_corpus(path: str | Path, vocab: LabelVocab) -> CorpusLoadResult:
    """Read instances in file order, validating each against the vocabulary.

    Invalid records are skipped and reported as ``path:line: message``.
    """
    instances: list[RelationInstance] = []
    skipped: list[str] = []
    for no, line in _read_lines(path):
        try:
            inst = _instance_from_obj(json.loads(line))
            problems = validate_instance(inst, vocab)
            if problems:
                raise DataFormatError("; ".join(problems))
        except (KeyError, TypeError, ValueError) as exc:
            skipped.append(f"{path}:{no}: {exc}")
            continue
        instances.append(inst)
    return CorpusLoadResult(tuple(instances), tuple(skipped))


def save_predictions(rows: Iterable[tuple[str, str, float]], path: str | Path) -> None:
    """Write ``(sentence id, relation, probability)`` rows, as ``training.predict`` returns them."""
    _write_jsonl(path, ({"id": sid, "relation": rel, "prob": prob} for sid, rel, prob in rows))


# --------------------------------------------------------------------------
# Arc, forest and tree files


def _write_records(by_id: dict, path: str | Path) -> None:
    """One line per arc set or tree, in map order: ``id``, ``n`` and its
    canonically sorted columns."""
    _write_jsonl(path, ({"id": sid, "n": arcs.n, **arcs._columns()} for sid, arcs in by_id.items()))


def _read_arc_records(path: str | Path, vocab: LabelVocab, build: Callable) -> dict:
    """Parse arc, forest or tree lines in file order; ``build(sid, n, vocab,
    columns)`` makes each value from the line's type-checked columns.  Any
    violation, including one ``build`` raises, fails with the line number."""
    out: dict = {}
    for no, line in _read_lines(path):
        try:
            obj = _check_object(json.loads(line), "record")
            _check_types([[obj["id"], obj["n"]]], (("id", str), ("n", int)))
            sid = obj["id"]
            if sid in out:
                raise DataFormatError(f"duplicate sentence id {sid!r}")
            columns = _check_columns([obj[field] for field, _ in _ARC_FIELDS], _ARC_FIELDS, "arc")
            out[sid] = build(sid, obj["n"], vocab, columns)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}:{no}: {exc}") from exc
    return out


def save_arc_probs(probs_by_id: dict[str, ArcProbabilities], path: str | Path) -> None:
    _write_records(probs_by_id, path)


def load_arc_probs(path: str | Path, vocab: LabelVocab) -> dict[str, ArcProbabilities]:
    """Read arc-probability records in file order; any violation fails fast."""
    return _read_arc_records(path, vocab, ArcProbabilities._from_columns)


def write_forests(forests_by_id: dict[str, DependencyForest], path: str | Path) -> None:
    """Write forests in map order."""
    _write_records(forests_by_id, path)


def load_forests(path: str | Path, vocab: LabelVocab) -> dict[str, DependencyForest]:
    """Read forests; an entry repeating a (modifier, head, label) key fails."""
    return _read_arc_records(path, vocab, DependencyForest._from_columns)


def save_trees(trees_by_id: dict[str, DependencyTree], path: str | Path) -> None:
    _write_records(trees_by_id, path)


def _tree_from_columns(sid: str, n: int, vocab: LabelVocab, columns: Sequence) -> DependencyTree:
    tree = DependencyTree._from_columns(sid, n, vocab, columns)
    problems = check_tree(tree)
    if problems:
        raise DataFormatError("; ".join(problems))
    return tree


def load_trees(path: str | Path, vocab: LabelVocab) -> dict[str, DependencyTree]:
    """Read trees stored in the forest format: one head per word, acyclic and
    projective."""
    return _read_arc_records(path, vocab, _tree_from_columns)


# --------------------------------------------------------------------------
# Synthetic data

# The synthetic relation grid: RELATION_ROWS x RELATION_COLS relations, plus "None".
RELATION_ROWS = 2
RELATION_COLS = 2
# Synthetic arc entries at or below this probability are not stored.
PROB_FLOOR = 1e-4


@dataclass(frozen=True)
class SynthSpec:
    """Controls for the synthetic generator.

    The relation of each instance is a deterministic function of the gold path
    between the two mentions: the label of the first mention's head arc picks a
    row (one row value means "None"), the label of the second mention's head
    arc picks a column, and (row, column) indexes the ``RELATION_ROWS`` x
    ``RELATION_COLS`` relation grid.  Mentions are sampled so neither
    dominates the other, which keeps both ends of the path pointing upward.
    """

    n_sentences: int
    min_len: int = 4
    max_len: int = 9
    n_dep_labels: int = 6
    temperature: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sentences < 1:
            raise ValueError("n_sentences must be >= 1")
        if not 3 <= self.min_len <= self.max_len:
            raise ValueError("need 3 <= min_len <= max_len")
        if self.n_dep_labels < RELATION_ROWS + 1:
            raise ValueError(f"need at least {RELATION_ROWS + 1} dependency labels")
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be a finite number > 0, got {self.temperature}")


@dataclass(frozen=True)
class SynthData:
    vocab: LabelVocab
    instances: tuple[RelationInstance, ...]
    arc_probs: dict[str, ArcProbabilities]
    gold_trees: dict[str, DependencyTree]


def synth_vocab(spec: SynthSpec) -> LabelVocab:
    dep_labels = tuple(f"dep{i}" for i in range(spec.n_dep_labels))
    relations = tuple(
        f"R{u}{v}" for u in range(RELATION_ROWS) for v in range(RELATION_COLS)
    ) + (NONE_RELATION,)
    ne_tags = ("O", "B-CHEM", "I-CHEM", "B-GENE", "I-GENE")
    return LabelVocab(dep_labels, relations, ne_tags)


_FILLER = [f"w{i}" for i in range(20)]
_CHEM = [f"chem{i}" for i in range(8)]
_GENE = [f"gene{i}" for i in range(8)]


def _sample_projective_parents(rng: np.random.Generator, n: int) -> list[int]:
    """Random projective head vector over positions 1..n rooted at 0.

    Each contiguous block of a span becomes the subtree of one child of the
    span's external head, recursively; block boundaries fall independently, so
    multi-child attachments (including several ROOT children) occur naturally.
    """
    parents = [0] * (n + 1)

    def attach(lo: int, hi: int, head: int) -> None:
        if lo > hi:
            return
        blocks = []
        start = lo
        for q in range(lo, hi):
            if rng.random() < 0.3:
                blocks.append((start, q))
                start = q + 1
        blocks.append((start, hi))
        for a, b in blocks:
            sub = int(rng.integers(a, b + 1))
            parents[sub] = head
            attach(a, sub - 1, sub)
            attach(sub + 1, b, sub)

    attach(1, n, 0)
    return parents[1:]


def _mention_pair(
    rng: np.random.Generator, parents: Sequence[int]
) -> tuple[int, int] | None:
    """Two positions with disjoint subtrees, neither headed directly by ROOT.

    Disjointness keeps both ends of the gold path pointing at the mentions'
    own head arcs; excluding ROOT children keeps those arcs inside the word
    graph the encoder actually sees.
    """
    n = len(parents)
    ancestors = [ancestors_of(parents, m) for m in range(n + 1)]
    pairs = [
        (a, b)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if parents[a - 1] != 0
        and parents[b - 1] != 0
        and a not in ancestors[b]
        and b not in ancestors[a]
    ]
    if not pairs:
        return None
    return pairs[int(rng.integers(0, len(pairs)))]


def _synth_instance(
    rng: np.random.Generator, sid: str, spec: SynthSpec
) -> tuple[RelationInstance, list[int], list[int]]:
    """One sentence's instance, gold head vector and gold label indices."""
    while True:
        n = int(rng.integers(spec.min_len, spec.max_len + 1))
        parents = _sample_projective_parents(rng, n)
        pair = _mention_pair(rng, parents)
        if pair is not None:
            break
    labels = [int(rng.integers(0, spec.n_dep_labels)) for _ in range(n)]
    a, b = pair
    row = labels[a - 1] % (RELATION_ROWS + 1)
    if row == RELATION_ROWS:
        relation = NONE_RELATION
    else:
        col = labels[b - 1] % RELATION_COLS
        relation = f"R{row}{col}"
    tokens = [_FILLER[int(rng.integers(0, len(_FILLER)))] for _ in range(n)]
    tokens[a - 1] = _CHEM[int(rng.integers(0, len(_CHEM)))]
    tokens[b - 1] = _GENE[int(rng.integers(0, len(_GENE)))]
    tags = ["O"] * n
    tags[a - 1] = "B-CHEM"
    tags[b - 1] = "B-GENE"
    sentence = Sentence(sid, tuple(tokens))
    instance = RelationInstance(sentence, (a, a + 1), (b, b + 1), relation, tuple(tags))
    return instance, parents, labels


def synth_generate(spec: SynthSpec) -> SynthData:
    """Generate a corpus, arc probabilities, and gold trees from one seed.

    Gold trees are random projective structures with uniform labels.  Arc
    scores are gold-indicator / temperature plus Gumbel noise, normalized with
    one softmax per modifier over all (head, label) candidates jointly; entries
    below the floor are dropped.  Tokens mark the mention types but carry no
    information about the relation, which is decided by gold arc labels alone.

    A sentence is scored as whole arrays.  Row ``m - 1`` holds modifier
    ``m``'s ``n·L`` candidates ``(h, l)``, ``h != m``, in (head, label) order:
    cell ``(h - (h > m))·L + l``.  One ``(n, n·L)`` Gumbel draw is the stream
    of ``n`` per-modifier draws, and the row-wise max, ``exp`` and sum give
    each row the bits that the same steps give that row alone; the tests pin
    both against a per-cell loop.
    """
    vocab = synth_vocab(spec)
    rng = np.random.default_rng(spec.seed)
    n_labels = spec.n_dep_labels
    instances: list[RelationInstance] = []
    arc_probs: dict[str, ArcProbabilities] = {}
    gold_trees: dict[str, DependencyTree] = {}
    for index in range(spec.n_sentences):
        sid = f"s{index:05d}"
        instance, parents, labels = _synth_instance(rng, sid, spec)
        instances.append(instance)
        n = len(parents)
        rows = np.arange(n)
        gold_head, gold_label = np.array(parents), np.array(labels)
        gold_cell = (gold_head - (gold_head > rows + 1)) * n_labels + gold_label
        scores = rng.gumbel(size=(n, n * n_labels))
        scores[rows, gold_cell] += 1.0 / spec.temperature
        scores -= scores.max(axis=1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=1, keepdims=True)
        gold = probs[rows, gold_cell]
        low = np.flatnonzero(gold <= PROB_FLOOR)
        if low.size:
            raise RuntimeError(
                f"gold arc for {sid!r} position {low[0] + 1} fell below the storage floor; "
                "lower the temperature"
            )
        # Row-major order is (modifier, head, label) order: canonical already.
        row, cell = np.nonzero(probs > PROB_FLOOR)
        modifier = row + 1
        head = cell // n_labels
        head += head >= modifier
        columns = (modifier, head, cell % n_labels, probs[row, cell])
        arcs = arc_probs[sid] = ArcProbabilities._from_arrays(sid, n, vocab, columns)
        # Every gold arc is stored, so the gold tree is a subset of the arcs.
        at = arcs.modifier - 1
        is_gold = (arcs.head == gold_head[at]) & (arcs.label == gold_label[at])
        gold_trees[sid] = arcs._subset(DependencyTree, is_gold)
    return SynthData(vocab, tuple(instances), arc_probs, gold_trees)


def synth_write(data: SynthData, out_dir: str | Path) -> dict[str, Path]:
    """Write the generated vocabulary, corpus, arcs, and gold trees to a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "vocab": out / "vocab.json",
        "corpus": out / "corpus.jsonl",
        "arcs": out / "arcs.jsonl",
        "gold": out / "gold.jsonl",
    }
    save_vocab(data.vocab, paths["vocab"])
    save_corpus(data.instances, paths["corpus"])
    save_arc_probs(data.arc_probs, paths["arcs"])
    save_trees(data.gold_trees, paths["gold"])
    return paths
