"""Line-delimited JSON file formats plus a seeded synthetic corpus generator.

Every file is UTF-8 with one JSON object per line, canonical key order, and
floats serialized by Python's shortest exact repr (so probabilities round-trip
bitwise; anything with nine or more significant digits survives untouched).

Formats::

    corpus:  {"id", "tokens", "mention1": {"start", "end"}, "mention2": ...,
              "relation", "ne_tags"?}            (spans are half-open, 1-based)
    arcs:    {"id", "n", "arcs": [[modifier, head, label, prob], ...]}
    forests: {"id", "n", "edges": [[head, label, modifier, prob], ...]}
    vocab:   {"dep_labels", "relations", "ne_tags"}   (the LabelVocab fields)

Arc and forest rows are kept in canonical (modifier, head, label-index) order,
which makes load-then-write byte-identical.  Gold trees use the forest format
(a tree is just a forest with exactly one head per token).  One writer and one
reader serve the arc, forest and tree files; they differ in the row key
("arcs" or "edges") and the order of a row's fields.

Readers check JSON types first: positions, ``n`` and span ends must be ints
(not bool, float or str), labels strings and probabilities numbers; the
error names the file, the line and the field.  The type check splits a
record's rows into columns, and arc and forest columns go as decoded to the
one check that ``ArcProbabilities`` and ``DependencyForest`` share, so a
duplicate (modifier, head, label) row fails in either file.

Every writer goes through ``atomic_open``: a file is either the old one or the
complete new one, never a truncated mix.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    _ARC_FIELDS,
    ArcProbabilities,
    DependencyEdge,
    DependencyForest,
    DependencyTree,
    LabelVocab,
    NONE_RELATION,
    RelationInstance,
    Sentence,
    _check_types,
    ancestors_of,
    check_tree,
    validate_instance,
)


class DataFormatError(ValueError):
    """A file violates its format contract."""


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


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


_EDGE_FIELDS = (("head", int), ("label", str), ("modifier", int), ("prob", float))
_SPANS = [(mention, end) for mention in ("mention1", "mention2") for end in ("start", "end")]
_SPAN_FIELDS = tuple((f"{mention}.{end}", int) for mention, end in _SPANS)


def _read_lines(path: str | Path) -> list[tuple[int, str]]:
    with open(path, encoding="utf-8") as fh:
        return [(no, line.rstrip("\n")) for no, line in enumerate(fh, start=1) if line.strip()]


# --------------------------------------------------------------------------
# Vocabulary files


def save_vocab(vocab: LabelVocab, path: str | Path) -> None:
    with atomic_open(path) as fh:
        fh.write(_dumps(asdict(vocab)) + "\n")


def load_vocab(path: str | Path) -> LabelVocab:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return LabelVocab(
            tuple(payload["dep_labels"]),
            tuple(payload["relations"]),
            tuple(payload.get("ne_tags", ["O"])),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
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


def _instance_from_obj(obj: dict) -> RelationInstance:
    sentence = Sentence(str(obj["id"]), tuple(str(t) for t in obj["tokens"]))
    spans = [obj[mention][end] for mention, end in _SPANS]
    _check_types([spans], _SPAN_FIELDS)
    m1, m2 = tuple(spans[:2]), tuple(spans[2:])
    tags = tuple(str(t) for t in obj["ne_tags"]) if "ne_tags" in obj else None
    return RelationInstance(sentence, m1, m2, str(obj["relation"]), tags)


def save_corpus(instances: Iterable[RelationInstance], path: str | Path) -> None:
    with atomic_open(path) as fh:
        for inst in instances:
            fh.write(_dumps(_instance_to_obj(inst)) + "\n")


def load_corpus(
    path: str | Path, vocab: LabelVocab, fail_fast: bool = False
) -> CorpusLoadResult:
    """Read instances in file order, validating each against the vocabulary.

    Invalid records are skipped and reported with their line numbers unless
    ``fail_fast`` is set, in which case the first problem raises.
    """
    instances: list[RelationInstance] = []
    skipped: list[str] = []
    for no, line in _read_lines(path):
        try:
            inst = _instance_from_obj(json.loads(line))
            problems = validate_instance(inst, vocab)
            if problems:
                raise DataFormatError("; ".join(problems))
        except (DataFormatError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            message = f"{path}:{no}: {exc}"
            if fail_fast:
                raise DataFormatError(message) from exc
            skipped.append(message)
            continue
        instances.append(inst)
    return CorpusLoadResult(tuple(instances), tuple(skipped))


# --------------------------------------------------------------------------
# Arc probability files


def _write_records(by_id: dict, key: str, rows: Callable, path: str | Path) -> None:
    """One arc-format (``key`` "arcs") or forest-format ("edges") line per
    record, in map order; ``rows`` gives a record's rows, which are
    canonically sorted already."""
    with atomic_open(path) as fh:
        for sid, record in by_id.items():
            fh.write(_dumps({"id": sid, "n": record.n, key: rows(record)}) + "\n")


def save_arc_probs(probs_by_id: dict[str, ArcProbabilities], path: str | Path) -> None:
    _write_records(probs_by_id, "arcs", lambda p: list(p.iter_entries()), path)


def _read_arc_records(
    path: str | Path,
    vocab: LabelVocab,
    key: str,
    build: Callable[[str, int, LabelVocab, tuple], object],
) -> dict:
    """Parse arc-format (``key`` "arcs") or forest-format ("edges") lines in
    file order; ``build(sid, n, vocab, columns)`` makes each value from the
    line's type-checked ``(modifier, head, label, prob)`` columns.

    Any violation, including one ``build`` raises, fails with the line number.
    """
    out: dict = {}
    for no, line in _read_lines(path):
        try:
            obj = json.loads(line)
            sid = str(obj["id"])
            if sid in out:
                raise DataFormatError(f"duplicate sentence id {sid!r}")
            _check_types([[obj["n"]]], (("n", int),))
            if key == "arcs":
                columns = _check_types(obj["arcs"], _ARC_FIELDS, "arc")
            else:
                head, label, modifier, prob = _check_types(obj["edges"], _EDGE_FIELDS, "edge")
                columns = (modifier, head, label, prob)
            out[sid] = build(sid, obj["n"], vocab, columns)
        except (DataFormatError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}:{no}: {exc}") from exc
    return out


def load_arc_probs(path: str | Path, vocab: LabelVocab) -> dict[str, ArcProbabilities]:
    """Read arc-probability records in file order; any violation fails fast."""
    return _read_arc_records(path, vocab, "arcs", ArcProbabilities._from_columns)


# --------------------------------------------------------------------------
# Forest and tree files


def write_forests(forests_by_id: dict[str, DependencyForest], path: str | Path) -> None:
    """Write forests in map order, one row per entry."""
    _write_records(
        forests_by_id, "edges", lambda f: [[h, lb, m, p] for m, h, lb, p in f.iter_entries()], path
    )


def load_forests(path: str | Path, vocab: LabelVocab) -> dict[str, DependencyForest]:
    """Read forests; a row repeating a (head, label, modifier) triple fails."""
    return _read_arc_records(path, vocab, "edges", DependencyForest._from_columns)


def save_trees(trees_by_id: dict[str, DependencyTree], path: str | Path) -> None:
    _write_records(trees_by_id, "edges", lambda t: [list(e) for e in t.edges], path)


def _tree_from_columns(sid: str, n: int, vocab: LabelVocab, columns: tuple) -> DependencyTree:
    forest = DependencyForest._from_columns(sid, n, vocab, columns)
    if forest.num_edges != n:
        raise DataFormatError(f"tree for {sid!r} has {forest.num_edges} edges for {n} tokens")
    tree = DependencyTree.from_edges(forest.edges)
    problems = check_tree(tree)
    if problems:
        raise DataFormatError("; ".join(problems))
    return tree


def load_trees(path: str | Path, vocab: LabelVocab) -> dict[str, DependencyTree]:
    """Read trees stored in the forest format, enforcing tree invariants."""
    return _read_arc_records(path, vocab, "edges", _tree_from_columns)


# --------------------------------------------------------------------------
# Synthetic data


@dataclass(frozen=True)
class SynthSpec:
    """Controls for the synthetic generator.

    The relation of each instance is a deterministic function of the gold path
    between the two mentions: the label of the first mention's head arc picks a
    row (one row value means "None"), the label of the second mention's head
    arc picks a column, and (row, column) indexes the relation grid.  Mentions
    are sampled so neither dominates the other, which keeps both ends of the
    path pointing upward.
    """

    n_sentences: int
    min_len: int = 4
    max_len: int = 9
    n_dep_labels: int = 6
    relation_rows: int = 2
    relation_cols: int = 2
    temperature: float = 0.2
    prob_floor: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sentences < 1:
            raise ValueError("n_sentences must be >= 1")
        if not 3 <= self.min_len <= self.max_len:
            raise ValueError("need 3 <= min_len <= max_len")
        if self.n_dep_labels < self.relation_rows + 1:
            raise ValueError("need at least relation_rows + 1 dependency labels")
        if self.relation_cols < 1 or self.relation_rows < 1:
            raise ValueError("relation grid must be at least 1x1")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if not 0.0 <= self.prob_floor < 1.0:
            raise ValueError("prob_floor must be in [0, 1)")


@dataclass(frozen=True)
class SynthData:
    vocab: LabelVocab
    instances: tuple[RelationInstance, ...]
    arc_probs: dict[str, ArcProbabilities]
    gold_trees: dict[str, DependencyTree]


def synth_vocab(spec: SynthSpec) -> LabelVocab:
    dep_labels = tuple(f"dep{i}" for i in range(spec.n_dep_labels))
    relations = tuple(
        f"R{u}{v}" for u in range(spec.relation_rows) for v in range(spec.relation_cols)
    ) + (NONE_RELATION,)
    ne_tags = ("O", "B-CHEM", "I-CHEM", "B-GENE", "I-GENE")
    return LabelVocab(dep_labels, relations, ne_tags)


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


def synth_generate(spec: SynthSpec) -> SynthData:
    """Generate a corpus, arc probabilities, and gold trees from one seed.

    Gold trees are random projective structures with uniform labels.  Arc
    scores are gold-indicator / temperature plus Gumbel noise, normalized with
    one softmax per modifier over all (head, label) candidates jointly; entries
    below the floor are dropped.  Tokens mark the mention types but carry no
    information about the relation, which is decided by gold arc labels alone.
    """
    vocab = synth_vocab(spec)
    rng = np.random.default_rng(spec.seed)
    filler = [f"w{i}" for i in range(20)]
    chem = [f"chem{i}" for i in range(8)]
    gene = [f"gene{i}" for i in range(8)]
    n_labels = spec.n_dep_labels
    instances: list[RelationInstance] = []
    arc_probs: dict[str, ArcProbabilities] = {}
    gold_trees: dict[str, DependencyTree] = {}
    for index in range(spec.n_sentences):
        sid = f"s{index:05d}"
        while True:
            n = int(rng.integers(spec.min_len, spec.max_len + 1))
            parents = _sample_projective_parents(rng, n)
            pair = _mention_pair(rng, parents)
            if pair is not None:
                break
        labels = [int(rng.integers(0, n_labels)) for _ in range(n)]
        a, b = pair
        row = labels[a - 1] % (spec.relation_rows + 1)
        if row == spec.relation_rows:
            relation = NONE_RELATION
        else:
            col = labels[b - 1] % spec.relation_cols
            relation = f"R{row}{col}"
        tokens = [filler[int(rng.integers(0, len(filler)))] for _ in range(n)]
        tokens[a - 1] = chem[int(rng.integers(0, len(chem)))]
        tokens[b - 1] = gene[int(rng.integers(0, len(gene)))]
        tags = ["O"] * n
        tags[a - 1] = "B-CHEM"
        tags[b - 1] = "B-GENE"
        sentence = Sentence(sid, tuple(tokens))
        instances.append(
            RelationInstance(sentence, (a, a + 1), (b, b + 1), relation, tuple(tags))
        )

        entries: list[tuple[int, int, str, float]] = []
        gold_edge_prob: dict[int, float] = {}
        for m in range(1, n + 1):
            cells = [(h, li) for h in range(n + 1) if h != m for li in range(n_labels)]
            scores = rng.gumbel(size=len(cells))
            for ci, (h, li) in enumerate(cells):
                if h == parents[m - 1] and li == labels[m - 1]:
                    scores[ci] += 1.0 / spec.temperature
            scores -= scores.max()
            probs = np.exp(scores)
            probs /= probs.sum()
            for ci, (h, li) in enumerate(cells):
                p = float(probs[ci])
                if h == parents[m - 1] and li == labels[m - 1]:
                    if p <= spec.prob_floor:
                        raise RuntimeError(
                            f"gold arc for {sid!r} position {m} fell below the storage floor; "
                            "lower the temperature or the floor"
                        )
                    gold_edge_prob[m] = p
                if p > spec.prob_floor:
                    entries.append((m, h, vocab.dep_labels[li], p))
        arc_probs[sid] = ArcProbabilities(sid, n, vocab, entries)
        gold_trees[sid] = DependencyTree.from_edges(
            DependencyEdge(parents[m - 1], vocab.dep_labels[labels[m - 1]], m, gold_edge_prob[m])
            for m in range(1, n + 1)
        )
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
