"""File formats (round trips, error reporting) and the synthetic generator."""

import json
import math
import os
import re
import stat
from dataclasses import replace

import numpy as np
import pytest

from forestrel.core import (
    ArcProbabilities,
    DependencyEdge,
    DependencyForest,
    DependencyTree,
    check_tree,
)
from forestrel import dataio
from forestrel.dataio import (
    DataFormatError,
    SynthSpec,
    atomic_open,
    load_arc_probs,
    load_corpus,
    load_forests,
    load_trees,
    load_vocab,
    save_arc_probs,
    save_corpus,
    save_predictions,
    save_trees,
    save_vocab,
    synth_generate,
    synth_vocab,
    synth_write,
    write_forests,
)
from forestrel.forest import decode_kbest, edgewise_forest, merge_trees, oracle_las
from reference import decode_1best, forest_from_edges, synth_generate_per_cell


class TestVocabFile:
    def test_round_trip(self, vocab5, tmp_path):
        path = tmp_path / "vocab.json"
        save_vocab(vocab5, path)
        assert load_vocab(path) == vocab5

    def test_invalid_file_reports_path(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataFormatError, match="vocab.json"):
            load_vocab(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text('{"dep_labels": ["amod"]}', encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_vocab(path)


    @pytest.mark.parametrize(
        "payload, message",
        [
            ('{"dep_labels": [1, 2], "relations": ["None"]}',
             "item 1 field 'dep_labels' must be a string, got int"),
            ('{"dep_labels": "abc", "relations": ["None"]}',
             "field 'dep_labels' must be a list, got str"),
            ('{"dep_labels": ["amod"], "relations": ["None"], "ne_tags": [null]}',
             "item 1 field 'ne_tags' must be a string, got NoneType"),
            ('["amod"]', "vocabulary must be a JSON object, got list"),
        ],
    )
    def test_mistyped_list_named(self, tmp_path, payload, message):
        path = tmp_path / "vocab.json"
        path.write_text(payload, encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}$"):
            load_vocab(path)


class TestCorpusFile:
    def _write_lines(self, path, lines):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def test_round_trip_preserves_instances(self, tmp_path):
        data = synth_generate(SynthSpec(n_sentences=6, seed=0))
        path = tmp_path / "corpus.jsonl"
        save_corpus(data.instances, path)
        result = load_corpus(path, data.vocab)
        assert result.skipped == ()
        assert result.instances == data.instances

    def test_rewrite_is_byte_identical(self, tmp_path):
        data = synth_generate(SynthSpec(n_sentences=6, seed=1))
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        save_corpus(data.instances, first)
        save_corpus(load_corpus(first, data.vocab).instances, second)
        assert first.read_bytes() == second.read_bytes()

    def test_invalid_record_skipped_with_line_number(self, vocab5, tmp_path):
        good = {
            "id": "s0",
            "tokens": ["a", "b"],
            "mention1": {"start": 1, "end": 2},
            "mention2": {"start": 2, "end": 3},
            "relation": "R-A",
        }
        bad = dict(good, id="s1", relation="R-UNSEEN")
        path = tmp_path / "corpus.jsonl"
        self._write_lines(path, [json.dumps(good), json.dumps(bad), json.dumps(good)])
        result = load_corpus(path, vocab5)
        assert len(result.instances) == 2
        assert len(result.skipped) == 1
        assert ":2:" in result.skipped[0]
        assert "unknown relation" in result.skipped[0]

    def test_broken_json_line_skipped_with_line_number(self, vocab5, tmp_path):
        path = tmp_path / "corpus.jsonl"
        self._write_lines(path, ["{broken"])
        result = load_corpus(path, vocab5)
        assert result.instances == ()
        assert len(result.skipped) == 1
        assert result.skipped[0].startswith(f"{path}:1: ")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("start", 1.9, "field 'mention1.start' must be an int, got float"),
            ("end", "2", "field 'mention1.end' must be an int, got str"),
            ("start", True, "field 'mention1.start' must be an int, got bool"),
        ],
    )
    def test_mistyped_span_skipped_with_line(self, vocab5, tmp_path, field, value, message):
        good = {
            "id": "s0",
            "tokens": ["a", "b"],
            "mention1": {"start": 1, "end": 2},
            "mention2": {"start": 2, "end": 3},
            "relation": "R-A",
        }
        bad = dict(good, id="s1", mention1=dict(good["mention1"], **{field: value}))
        path = tmp_path / "corpus.jsonl"
        _write_rows(path, [good, bad])
        result = load_corpus(path, vocab5)
        assert len(result.instances) == 1
        assert result.skipped == (f"{path}:2: {message}",)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"tokens": "abc"}, "field 'tokens' must be a list, got str"),
            ({"tokens": [1, 2.5, None]}, "item 1 field 'tokens' must be a string, got int"),
            ({"ne_tags": "OO"}, "field 'ne_tags' must be a list, got str"),
            ({"ne_tags": ["O", None]}, "item 2 field 'ne_tags' must be a string, got NoneType"),
            ({"id": 5}, "field 'id' must be a string, got int"),
            ({"relation": 5}, "field 'relation' must be a string, got int"),
            ({"mention1": [1, 2]}, "field 'mention1' must be a JSON object, got list"),
            ({"mention2": None}, "field 'mention2' must be a JSON object, got NoneType"),
            (["s1", ["a", "b"]], "record must be a JSON object, got list"),
        ],
    )
    def test_retyped_field_skipped_with_line(self, vocab5, tmp_path, change, message):
        good = {
            "id": "s0",
            "tokens": ["a", "b"],
            "mention1": {"start": 1, "end": 2},
            "mention2": {"start": 2, "end": 3},
            "relation": "R-A",
            "ne_tags": ["O", "O"],
        }
        bad = change if isinstance(change, list) else {**good, "id": "s1", **change}
        path = tmp_path / "corpus.jsonl"
        _write_rows(path, [good, bad])
        result = load_corpus(path, vocab5)
        assert len(result.instances) == 1
        assert result.skipped == (f"{path}:2: {message}",)

    def test_blank_lines_ignored(self, vocab5, tmp_path):
        good = {
            "id": "s0",
            "tokens": ["a"],
            "mention1": {"start": 1, "end": 2},
            "mention2": {"start": 1, "end": 2},
            "relation": "None",
        }
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n" + json.dumps(good) + "\n\n", encoding="utf-8")
        result = load_corpus(path, vocab5)
        assert len(result.instances) == 1


def _write_rows(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def _arcs(*entries):
    """The file columns of ``(modifier, head, label, prob)`` entries."""
    return dict(zip(("modifier", "head", "label", "prob"), map(list, zip(*entries))))


class TestArcFile:
    def test_round_trip_and_rewrite(self, tmp_path):
        data = synth_generate(SynthSpec(n_sentences=5, seed=2))
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        save_arc_probs(data.arc_probs, first)
        loaded = load_arc_probs(first, data.vocab)
        assert loaded == data.arc_probs
        save_arc_probs(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        # one record written from the README's description of the format
        label = data.vocab.dep_labels[0]
        row = json.dumps(
            {"head": [0, 1], "id": "readme", "label": [label, label], "modifier": [1, 2],
             "n": 2, "prob": [0.75, 0.5]},
            sort_keys=True,
            separators=(",", ":"),
        )
        first.write_text(row + "\n", encoding="utf-8")
        loaded = load_arc_probs(first, data.vocab)
        assert list(loaded["readme"].iter_entries()) == [(1, 0, label, 0.75), (2, 1, label, 0.5)]
        save_arc_probs(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_duplicate_id_rejected(self, vocab5, tmp_path):
        record = json.dumps({"id": "s0", "n": 1, **_arcs((1, 0, "amod", 0.5))})
        path = tmp_path / "arcs.jsonl"
        path.write_text(record + "\n" + record + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="duplicate sentence id"):
            load_arc_probs(path, vocab5)

    def test_mass_violation_reported_with_line(self, vocab5, tmp_path):
        path = tmp_path / "arcs.jsonl"
        path.write_text(
            json.dumps({"id": "s0", "n": 2, **_arcs((1, 0, "amod", 0.8), (1, 2, "obj", 0.5))})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError, match=":1:.*stored mass"):
            load_arc_probs(path, vocab5)

    @pytest.mark.parametrize(
        "n, arcs, message",
        [
            (
                2,
                _arcs((1, 0, "amod", 0.5), (1.7, 0, "obj", 0.25)),
                "arc 2 field 'modifier' must be an int, got float",
            ),
            (2, _arcs((1, 0.6, "amod", 0.5)), "arc 1 field 'head' must be an int, got float"),
            (2, _arcs((1, False, "amod", 0.5)), "arc 1 field 'head' must be an int, got bool"),
            (2, _arcs((1, 0, "amod", "0.5")), "arc 1 field 'prob' must be a number, got str"),
            (2, _arcs((2, 0, 3, 0.5)), "arc 1 field 'label' must be a string, got int"),
            (2.9, _arcs((1, 0, "amod", 0.5)), "field 'n' must be an int, got float"),
        ],
    )
    def test_mistyped_field_named_with_line(self, vocab5, tmp_path, n, arcs, message):
        path = tmp_path / "arcs.jsonl"
        _write_rows(path, [
            {"id": "s0", "n": 2, **_arcs((1, 0, "amod", 1))},
            {"id": "s1", "n": n, **arcs},
        ])
        with pytest.raises(DataFormatError) as info:
            load_arc_probs(path, vocab5)
        assert str(info.value) == f"{path}:2: {message}"

    def test_unknown_label_fails_fast(self, vocab5, tmp_path):
        path = tmp_path / "arcs.jsonl"
        path.write_text(
            json.dumps({"id": "s0", "n": 1, **_arcs((1, 0, "punct", 0.5))}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError, match="punct"):
            load_arc_probs(path, vocab5)


ALL_READERS = pytest.mark.parametrize("load", [load_arc_probs, load_forests, load_trees])


@ALL_READERS
@pytest.mark.parametrize(
    "record, message",
    [
        ({"id": 7, "n": 1}, "field 'id' must be a string, got int"),
        ({"id": None, "n": 2.5}, "field 'id' must be a string, got NoneType"),
        (["s1", 1], "record must be a JSON object, got list"),
    ],
)
def test_retyped_arc_record_named_with_line(vocab5, tmp_path, load, record, message):
    path = tmp_path / "records.jsonl"
    one_arc = _arcs((1, 0, "amod", 1))
    bad = record if isinstance(record, list) else {**record, **one_arc}
    _write_rows(path, [{"id": "s0", "n": 1, **one_arc}, bad])
    with pytest.raises(DataFormatError) as info:
        load(path, vocab5)
    assert str(info.value) == f"{path}:2: {message}"


@ALL_READERS
@pytest.mark.parametrize(
    "record, message",
    [
        ({**_arcs((1, 0, "amod", 0.5)), "head": [0, 0]},
         "columns ['modifier', 'head', 'label', 'prob'] differ in length: [1, 2, 1, 1]"),
        ({**_arcs((1, 0, "amod", 0.5)), "prob": []},
         "columns ['modifier', 'head', 'label', 'prob'] differ in length: [1, 1, 1, 0]"),
        ({**_arcs((1, 0, "amod", 0.5)), "label": "amod"}, "field 'label' must be a list, got str"),
        ({**_arcs((1, 0, "amod", 0.5)), "modifier": 1}, "field 'modifier' must be a list, got int"),
        ({"head": [0], "label": ["amod"], "modifier": [1]}, "'prob'"),
        ({"arcs": [[1, 0, "amod", 0.5]]}, "'modifier'"),
        ({"edges": [[0, "amod", 1, 0.5]]}, "'modifier'"),
    ],
    ids=["short-head", "empty-prob", "label-not-list", "modifier-not-list", "missing-prob",
         "old-arcs-rows", "old-edges-rows"],
)
def test_malformed_columns_named_with_line(vocab5, tmp_path, load, record, message):
    path = tmp_path / "records.jsonl"
    _write_rows(path, [
        {"id": "s0", "n": 1, **_arcs((1, 0, "amod", 1))},
        {"id": "s1", "n": 1, **record},
    ])
    with pytest.raises(DataFormatError) as info:
        load(path, vocab5)
    assert str(info.value) == f"{path}:2: {message}"


def test_row_layout_files_rewritten_as_columns_load_the_same(vocab5, tmp_path):
    # Lines in the row layout that arc, forest and tree files had before the
    # column layout; the rows are each file's entries in canonical order.
    arc_rows = [[1, 0, "amod", 0.75], [1, 2, "obj", 0.25], [2, 0, "nsubj", 1]]
    edge_rows = [[2, "amod", 1, 0.75], [0, "nsubj", 2, 1]]
    old = {
        "arcs": (load_arc_probs, {"arcs": arc_rows, "id": "s0", "n": 2}),
        "forests": (load_forests, {"edges": edge_rows + [[0, "obj", 1, 0.5]], "id": "s0", "n": 2}),
        "gold": (load_trees, {"edges": edge_rows, "id": "s0", "n": 2}),
    }
    for name, (load, record) in old.items():
        path = tmp_path / f"{name}.jsonl"
        _write_rows(path, [record])
        with pytest.raises(DataFormatError) as info:
            load(path, vocab5)
        assert str(info.value) == f"{path}:1: 'modifier'"
    probs = ArcProbabilities("s0", 2, vocab5, arc_rows)
    edges = [DependencyEdge(*row) for row in old["forests"][1]["edges"]]
    forest = forest_from_edges("s0", 2, edges, vocab5)
    tree_edges = [DependencyEdge(*row) for row in edge_rows]
    tree = forest_from_edges("s0", 2, tree_edges, vocab5, DependencyTree)
    for name, expected in (("arcs", probs), ("forests", forest), ("gold", tree)):
        load, record = old[name]
        rows = record.get("arcs") or [[m, h, label, p] for h, label, m, p in record["edges"]]
        path = tmp_path / f"{name}-columns.jsonl"
        _write_rows(path, [{"id": "s0", "n": 2, **_arcs(*rows)}])
        assert load(path, vocab5) == {"s0": expected}


class TestPredictionFile:
    ROWS = [("s0", "R-A", 0.75), ("s1", "None", 0.1 + 0.2)]

    def test_ascii_ids_keep_the_command_line_bytes(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        save_predictions(self.ROWS, path)
        expected = "".join(
            json.dumps({"id": sid, "relation": rel, "prob": p}, sort_keys=True, separators=(",", ":"))
            + "\n"
            for sid, rel, p in self.ROWS
        )
        assert path.read_bytes() == expected.encode("ascii")

    def test_non_ascii_id_is_raw_utf8_as_in_the_corpus(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        save_predictions([("sätz-ü", "R-A", 0.5)], path)
        assert path.read_bytes() == '{"id":"sätz-ü","prob":0.5,"relation":"R-A"}\n'.encode("utf-8")
        inst = synth_generate(SynthSpec(n_sentences=1, seed=0)).instances[0]
        renamed = replace(inst, sentence=replace(inst.sentence, id="sätz-ü"))
        save_corpus([renamed], tmp_path / "corpus.jsonl")
        assert '"id":"sätz-ü"'.encode("utf-8") in (tmp_path / "corpus.jsonl").read_bytes()


class TestForestAndTreeFiles:
    def test_forest_round_trip(self, tmp_path):
        data = synth_generate(SynthSpec(n_sentences=5, seed=3))
        forests = {
            sid: edgewise_forest(probs, 0.1) for sid, probs in data.arc_probs.items()
        }
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_forests(forests, first)
        loaded = load_forests(first, data.vocab)
        assert loaded == forests
        write_forests(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("factory", ["arc_grid_factory", "tied_grid_factory"])
    def test_edgewise_and_kbest_forests_rewrite_bytewise(self, vocab5, factory, request, tmp_path):
        make = request.getfixturevalue(factory)
        rng = np.random.default_rng(29)
        grids = [make(rng, vocab5, int(rng.integers(2, 12)), sentence_id=f"g{i}") for i in range(12)]
        builds = {
            "edgewise": lambda p: edgewise_forest(p, 0.05),
            "k5": lambda p: merge_trees(decode_kbest(p, 5), vocab5, p.sentence_id),
        }
        for name, build in builds.items():
            forests = {p.sentence_id: build(p) for p in grids}
            first, second = tmp_path / f"{name}-a.jsonl", tmp_path / f"{name}-b.jsonl"
            write_forests(forests, first)
            loaded = load_forests(first, vocab5)
            assert loaded == forests
            write_forests(loaded, second)
            assert first.read_bytes() == second.read_bytes()

    def test_tree_round_trip(self, tmp_path):
        data = synth_generate(SynthSpec(n_sentences=5, seed=4))
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        save_trees(data.gold_trees, first)
        loaded = load_trees(first, data.vocab)
        assert loaded == data.gold_trees
        save_trees(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (
                2,
                _arcs((1, 0, "amod", 0.5), (1.7, 1, "obj", 0.5)),
                "arc 2 field 'modifier' must be an int, got float",
            ),
            (2, _arcs((1, 0.6, "amod", 0.5)), "arc 1 field 'head' must be an int, got float"),
            (2, _arcs((1, False, "amod", 0.5)), "arc 1 field 'head' must be an int, got bool"),
            (2, _arcs((1, 0, "amod", "0.5")), "arc 1 field 'prob' must be a number, got str"),
            (2.9, _arcs((1, 0, "amod", 0.5)), "field 'n' must be an int, got float"),
        ],
    )
    def test_mistyped_field_named_with_line(self, vocab5, tmp_path, n, edges, message):
        path = tmp_path / "forests.jsonl"
        _write_rows(path, [
            {"id": "s0", "n": 1, **_arcs((1, 0, "amod", 1))},
            {"id": "s1", "n": n, **edges},
        ])
        for load in (load_forests, load_trees):
            with pytest.raises(DataFormatError) as info:
                load(path, vocab5)
            assert str(info.value) == f"{path}:2: {message}"

    def test_duplicate_forest_row_fails_with_line(self, vocab5, tmp_path):
        path = tmp_path / "forests.jsonl"
        _write_rows(path, [
            {"id": "s0", "n": 1, **_arcs((1, 0, "amod", 0.5))},
            {"id": "s1", "n": 2,
             **_arcs((1, 0, "amod", 0.5), (2, 0, "obj", 0.2), (1, 0, "amod", 0.9))},
        ])
        with pytest.raises(DataFormatError) as info:
            load_forests(path, vocab5)
        assert str(info.value) == f"{path}:2: duplicate arc entry (1, 0, 'amod')"

    def test_tree_file_rejects_cycles(self, vocab5, tmp_path):
        path = tmp_path / "trees.jsonl"
        path.write_text(
            json.dumps(
                {"id": "s0", "n": 2, **_arcs((1, 2, "amod", 0.5), (2, 1, "obj", 0.5))}
            ) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError, match="cyclic or non-projective"):
            load_trees(path, vocab5)

    def test_tree_file_rejects_wrong_edge_count(self, vocab5, tmp_path):
        # A missing head and a second head, each on the file's second line.
        path = tmp_path / "trees.jsonl"
        for entries, problem in (
            ([(1, 0, "amod", 0.5)], "position 2 has 0 heads"),
            ([(1, 0, "amod", 0.5), (2, 0, "obj", 0.5), (2, 1, "obj", 1)], "position 2 has 2 heads"),
        ):
            _write_rows(path, [
                {"id": "s0", "n": 1, **_arcs((1, 0, "amod", 0.5))},
                {"id": "s1", "n": 2, **_arcs(*entries)},
            ])
            with pytest.raises(DataFormatError) as info:
                load_trees(path, vocab5)
            assert str(info.value) == f"{path}:2: a tree needs one head per word; 's1' {problem}"
            assert len(load_forests(path, vocab5)) == 2  # a forest may have any number of heads


class TestAtomicWrites:
    """A failed write leaves the previous file's bytes and no temporary file."""

    def _instances_then_fail(self, instances):
        yield instances[0]
        raise RuntimeError("generator failed after one record")

    def test_writer_failing_partway_keeps_old_file(self, tmp_path):
        data = synth_generate(SynthSpec(n_sentences=4, seed=5))
        path = tmp_path / "corpus.jsonl"
        save_corpus(data.instances, path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="after one record"):
            save_corpus(self._instances_then_fail(data.instances), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]

    def test_forest_writer_failing_on_a_bad_value_keeps_old_file(self, tmp_path):
        data = synth_generate(SynthSpec(n_sentences=3, seed=6))
        forests = {sid: edgewise_forest(p, 0.1) for sid, p in data.arc_probs.items()}
        path = tmp_path / "forests.jsonl"
        write_forests(forests, path)
        before = path.read_bytes()
        broken = dict(forests)
        broken["late"] = None  # written after the valid rows
        with pytest.raises(AttributeError):
            write_forests(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["forests.jsonl"]

    def test_failed_flush_to_disk_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.bin"
        path.write_bytes(b"old bytes")

        def no_space(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(dataio.os, "fsync", no_space)
        with pytest.raises(OSError, match="No space"):
            with atomic_open(path, binary=True) as fh:
                fh.write(b"new bytes that never land")
        assert path.read_bytes() == b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]

    def test_symlink_kept_and_pipe_written_in_place(self, vocab5, tmp_path):
        target = tmp_path / "real.json"
        link = tmp_path / "link.json"
        save_vocab(vocab5, target)
        expected = target.read_bytes()
        target.write_bytes(b"stale")
        link.symlink_to(target)
        save_vocab(vocab5, link)
        assert link.is_symlink() and target.read_bytes() == expected
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            save_vocab(vocab5, pipe)
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert received == expected
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "pipe", "real.json"]

    def test_new_file_appears_only_complete(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_open(path) as fh:
            fh.write("first line\n")
            assert not path.exists()
        assert path.read_text(encoding="utf-8") == "first line\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestSynthSpecValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(n_sentences=0)
        with pytest.raises(ValueError):
            SynthSpec(n_sentences=1, min_len=2)
        with pytest.raises(ValueError):
            SynthSpec(n_sentences=1, n_dep_labels=2)
        with pytest.raises(ValueError):
            SynthSpec(n_sentences=1, temperature=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_temperature_must_be_finite_and_positive(self, value):
        message = f"temperature must be a finite number > 0, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SynthSpec(n_sentences=1, temperature=value)


class TestSynthGenerator:
    def test_same_seed_is_byte_identical(self, tmp_path):
        spec = SynthSpec(n_sentences=8, seed=12)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        paths_a = synth_write(synth_generate(spec), dir_a)
        paths_b = synth_write(synth_generate(spec), dir_b)
        for name in paths_a:
            assert paths_a[name].read_bytes() == paths_b[name].read_bytes(), name

    def test_gold_trees_are_valid(self):
        data = synth_generate(SynthSpec(n_sentences=10, seed=13))
        for tree in data.gold_trees.values():
            assert check_tree(tree) == []

    def test_relation_is_a_function_of_gold_arc_labels(self):
        spec = SynthSpec(n_sentences=15, seed=14)
        data = synth_generate(spec)
        vocab = data.vocab
        for inst in data.instances:
            gold = data.gold_trees[inst.sentence.id]
            a = inst.mention1[0]
            b = inst.mention2[0]
            label_a = vocab.dep_index(gold.edges[a - 1].label)
            label_b = vocab.dep_index(gold.edges[b - 1].label)
            row = label_a % (dataio.RELATION_ROWS + 1)
            if row == dataio.RELATION_ROWS:
                expected = "None"
            else:
                expected = f"R{row}{label_b % dataio.RELATION_COLS}"
            assert inst.relation == expected

    def test_mentions_are_marked_and_structurally_sound(self):
        data = synth_generate(SynthSpec(n_sentences=15, seed=15))
        for inst in data.instances:
            a = inst.mention1[0]
            b = inst.mention2[0]
            assert a < b
            assert inst.mention1 == (a, a + 1) and inst.mention2 == (b, b + 1)
            assert inst.sentence.tokens[a - 1].startswith("chem")
            assert inst.sentence.tokens[b - 1].startswith("gene")
            assert inst.ne_tags[a - 1] == "B-CHEM"
            assert inst.ne_tags[b - 1] == "B-GENE"
            parents = data.gold_trees[inst.sentence.id].parents()
            assert parents[a - 1] != 0 and parents[b - 1] != 0
            # neither mention may sit in the other's subtree
            for lo, hi in ((a, b), (b, a)):
                node = parents[lo - 1]
                while node != 0:
                    assert node != hi
                    node = parents[node - 1]

    def test_stored_mass_is_nearly_one(self):
        spec = SynthSpec(n_sentences=6, seed=16)
        data = synth_generate(spec)
        for probs in data.arc_probs.values():
            cells = probs.n * spec.n_dep_labels
            for m in range(1, probs.n + 1):
                mass = probs.prob[probs.modifier == m].sum()
                assert mass <= 1.0 + 1e-9
                assert mass >= 1.0 - dataio.PROB_FLOOR * cells

    def test_low_temperature_decoding_recovers_gold(self):
        data = synth_generate(SynthSpec(n_sentences=10, seed=17, temperature=0.05))
        for sid, probs in data.arc_probs.items():
            decoded = decode_1best(probs)
            gold = data.gold_trees[sid]
            assert [e.triple for e in decoded.edges] == [e.triple for e in gold.edges]

    def test_gold_arc_below_floor_is_an_error(self, monkeypatch):
        monkeypatch.setattr(dataio, "PROB_FLOOR", 0.5)
        with pytest.raises(RuntimeError, match="storage floor"):
            synth_generate(SynthSpec(n_sentences=2, seed=18, temperature=50.0))

    def test_files_match_the_per_cell_reference(self, tmp_path, monkeypatch):
        # 120 seeded specs: both length extremes, then lengths 3-40, 3-12
        # labels, T in [0.05, 0.6] and floors in [1e-6, 1e-2].  21 of them fail on
        # the floor, and those must fail with the same message.
        rng = np.random.default_rng(2024)
        specs = [
            (SynthSpec(n_sentences=3, min_len=3, max_len=3, n_dep_labels=3,
                       temperature=0.05, seed=1), 1e-6),
            (SynthSpec(n_sentences=1, min_len=40, max_len=40, n_dep_labels=12,
                       temperature=0.6, seed=2), 1e-2),
        ]
        while len(specs) < 120:
            lo = int(rng.integers(3, 41))
            n_sentences = int(rng.integers(1, 4))
            max_len = int(rng.integers(lo, 41))
            n_dep_labels = int(rng.integers(3, 13))
            temperature = float(rng.uniform(0.05, 0.6))
            floor = float(10 ** rng.uniform(-6, -2))
            spec = SynthSpec(n_sentences=n_sentences, min_len=lo, max_len=max_len,
                             n_dep_labels=n_dep_labels, temperature=temperature,
                             seed=int(rng.integers(0, 2**31)))
            specs.append((spec, floor))
        failed = 0
        for i, (spec, floor) in enumerate(specs):
            monkeypatch.setattr(dataio, "PROB_FLOOR", floor)
            try:
                expected = synth_generate_per_cell(spec)
            except RuntimeError as exc:
                failed += 1
                with pytest.raises(RuntimeError) as info:
                    synth_generate(spec)
                assert str(info.value) == str(exc), spec
                continue
            ref = synth_write(expected, tmp_path / f"ref{i}")
            out = synth_write(synth_generate(spec), tmp_path / f"out{i}")
            for name in ref:
                assert out[name].read_bytes() == ref[name].read_bytes(), (name, spec)
        assert 10 <= failed <= 60

    def test_vocab_layout(self):
        vocab = synth_vocab(SynthSpec(n_sentences=1))
        assert vocab.dep_labels == tuple(f"dep{i}" for i in range(6))
        assert vocab.relations == ("R00", "R01", "R10", "R11", "None")
        assert vocab.ne_tags == ("O", "B-CHEM", "I-CHEM", "B-GENE", "I-GENE")


class TestForestQualityOrdering:
    def test_keeping_all_stored_arcs_dominates_any_tree(self):
        # every arc of the 1-best tree is stored, so a gamma=0 forest can only
        # contain more gold arcs than the tree does
        data = synth_generate(SynthSpec(n_sentences=12, seed=19, temperature=0.4))
        for sid, probs in data.arc_probs.items():
            gold = data.gold_trees[sid]
            best = decode_1best(probs)
            tree_forest = merge_trees([best], data.vocab, sentence_id=sid)
            full = edgewise_forest(probs, 0.0)
            assert oracle_las(full, gold) >= oracle_las(tree_forest, gold)

    def test_noisy_parses_leave_headroom_for_forests(self):
        # at high temperature the 1-best tree misses gold arcs that a loose
        # edgewise forest still carries (seeded, deterministic margin)
        data = synth_generate(SynthSpec(n_sentences=30, seed=20, temperature=0.35))
        las_tree = []
        las_forest = []
        for sid, probs in data.arc_probs.items():
            gold = data.gold_trees[sid]
            best = merge_trees([decode_1best(probs)], data.vocab, sentence_id=sid)
            las_tree.append(oracle_las(best, gold))
            las_forest.append(oracle_las(edgewise_forest(probs, 0.05), gold))
        assert np.mean(las_forest) > np.mean(las_tree)
