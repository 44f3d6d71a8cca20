"""The benchmark's span tracer finds every span a workload expects, and the
kbest-long check still reads decoded forests as the benchmark does.

``bench/spans.py`` wraps forestrel's public functions and names each span
after the module attribute it wrapped.  A renamed, aliased or privatised
function therefore loses its span, and the traced benchmark run fails; this
test fails first.  ``KbestLong.check`` builds each K=1 forest into a tree
through the public tree API; a change to that API shows here before it
breaks a benchmark round.
"""

import importlib
import importlib.util
import inspect
import json
import shutil
import sys
from pathlib import Path

import pytest

import numpy as np

from forestrel.core import DependencyEdge
from forestrel.dataio import SynthSpec, save_arc_probs, save_vocab, synth_generate, write_forests
from forestrel.forest import decode_kbest, merge_trees
from forestrel.encoder import ModelConfig, init_params
from reference import forest_from_edges

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _expected_base_names():
    workloads = _load_bench_module("workloads")
    # A span name is "<layer>.<function>" plus optional annotation suffixes
    # such as ".train" or ".k5.n30-40".
    return sorted(
        {
            ".".join(name.split(".")[:2])
            for workload in workloads.WORKLOADS.values()
            for name in workload.expected_spans
        }
    )


def _recorded_name(tracer, fn):
    # Binding a keyword the function does not take fails before its body
    # runs, but after the wrapper has opened the span under its name.
    assert not any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in inspect.signature(fn).parameters.values()
    ), fn
    before = len(tracer.spans)
    with pytest.raises(TypeError):
        fn(span_probe_keyword=None)
    assert len(tracer.spans) == before + 1, "call was not traced"
    return tracer.spans[-1][0]


def test_every_expected_span_is_wrapped_under_its_own_name():
    spans = _load_bench_module("spans")
    bases = _expected_base_names()
    assert bases
    tracer = spans.Tracer()
    tracer.install()
    try:
        for base in bases:
            layer, attr = base.split(".")
            module = importlib.import_module(f"forestrel.{layer}")
            assert hasattr(module, attr), f"{base} no longer exists"
            assert _recorded_name(tracer, getattr(module, attr)) == base
    finally:
        tracer.uninstall()
    for base in bases:
        layer, attr = base.split(".")
        assert not hasattr(getattr(importlib.import_module(f"forestrel.{layer}"), attr), "__wrapped__")


def test_graph_counters_count_words_and_non_root_arcs(vocab5):
    # graph_edges_per_word reads len(graph.edges): one row per arc, whatever
    # else the graph stores.
    spans = _load_bench_module("spans")
    forest = forest_from_edges(
        "s",
        6,
        [
            DependencyEdge(0, "nsubj", 2, 0.9),
            DependencyEdge(2, "amod", 1, 0.8),
            DependencyEdge(2, "obj", 4, 0.7),
            DependencyEdge(2, "conj", 4, 0.2),
            DependencyEdge(4, "amod", 3, 0.5),
            DependencyEdge(0, "nsubj", 5, 0.4),
            DependencyEdge(4, "prep", 5, 0.6),
        ],
        vocab5,
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        importlib.import_module("forestrel.encoder").build_gnn_graph(forest, vocab5)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["encoder.build_gnn_graph"]
    assert tracer.counters["encoder.graph_edges"] == 5
    assert tracer.counters["encoder.graph_words"] == 6


def test_arc_entry_counter_counts_the_file_entries(tmp_path):
    spans = _load_bench_module("spans")
    data = synth_generate(SynthSpec(n_sentences=3, seed=4))
    path = tmp_path / "arcs.jsonl"
    save_arc_probs(data.arc_probs, path)
    in_file = sum(len(json.loads(line)["prob"]) for line in path.read_text().splitlines())
    tracer = spans.Tracer()
    tracer.install()
    try:
        importlib.import_module("forestrel.dataio").load_arc_probs(path, data.vocab)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["dataio.load_arc_probs"]
    assert tracer.counters["dataio.arc_entries"] == in_file > 0


def test_decode_kbest_span_is_named_by_k_and_length(vocab5, arc_grid_factory):
    spans = _load_bench_module("spans")
    probs = arc_grid_factory(np.random.default_rng(3), vocab5, 5)
    tracer = spans.Tracer()
    tracer.install()
    try:
        trees = importlib.import_module("forestrel.forest").decode_kbest(probs, 5)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["forest.decode_kbest.k5.n1-9"]
    assert tracer.counters["forest.trees_returned"] == len(trees) > 0
    assert tracer.counters["forest.trees_requested"] == 5


def test_forward_instance_span_is_named_by_mode(vocab5):
    spans = _load_bench_module("spans")
    config = ModelConfig(dim_word=3, dim_label=2, dim_hidden=2, dropout=0.5)
    params = init_params(config, vocab5, num_words=4)
    chunk = ([np.array([1, 2, 3])], [(1, 2)], [(2, 4)], None)
    tracer = spans.Tracer()
    tracer.install()
    try:
        forward = importlib.import_module("forestrel.encoder").forward_instance
        forward(params, config, *chunk, train=True, rng=np.random.default_rng(0))
        forward(params, config, *chunk)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans if span[0].startswith("encoder.forward_instance")]
    assert names == ["encoder.forward_instance.train", "encoder.forward_instance.eval"]


def _kbest_long_files(tmp_path):
    """kbest-long's inputs and one round's K=1, K=5 and single-call K=5
    forest files for a few short sentences."""
    data = synth_generate(SynthSpec(n_sentences=4, min_len=6, max_len=9, seed=2))
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    save_vocab(data.vocab, inputs / "vocab.json")
    save_arc_probs(data.arc_probs, inputs / "arcs.jsonl")
    for k in (1, 5):
        forests = {
            sid: merge_trees(decode_kbest(probs, k), data.vocab, sid)
            for sid, probs in data.arc_probs.items()
        }
        write_forests(forests, out / f"forests-k{k}.jsonl")
    shutil.copy(out / "forests-k5.jsonl", out / "single-k5.jsonl")
    return inputs, out


def _kbest_long_failure(inputs, out):
    """The problems ``KbestLong.check`` finds in one round, or the message of
    the ``ValueError`` it raises (which ``bench/run.py`` turns into exit 1)."""
    workloads = _load_bench_module("workloads")
    rounds = [{"sha256": {}, "exit_codes": [0, 0], "wall_s": 1.0, "latencies_s": [0.001, 0.002]}]
    try:
        outcome = workloads.KbestLong().check({"dir": str(inputs), "sentences": 4}, rounds, out)
    except ValueError as exc:
        return str(exc)
    assert (outcome.failed == 0) == (not outcome.problems)
    return "; ".join(outcome.problems)


def _second_head(record):
    m, h = record["modifier"][1], record["head"][1]
    record["head"].append(next(other for other in range(record["n"] + 1) if other not in (m, h)))
    for column, value in (("modifier", m), ("label", record["label"][1]), ("prob", 0.5)):
        record[column].append(value)


def _cycle(record):
    # The first word headed by another word becomes that word's head.
    at = next(i for i, h in enumerate(record["head"]) if h != 0)
    record["head"][record["head"][at] - 1] = record["modifier"][at]


def _missing_arc(record):
    for column in ("modifier", "head", "label", "prob"):
        del record[column][0]


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        (None, ""),
        (_second_head, "needs one head per word"),
        (_cycle, "cyclic or non-projective"),
        (_missing_arc, "out of range"),
    ],
    ids=["decoded", "second-head", "cycle", "missing-arc"],
)
def test_kbest_long_check_reads_k1_forests_as_trees(tmp_path, corrupt, expected):
    inputs, out = _kbest_long_files(tmp_path)
    if corrupt is not None:
        path = out / "forests-k1.jsonl"
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        corrupt(records[2])
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    failure = _kbest_long_failure(inputs, out)
    if corrupt is None:
        assert failure == ""
    else:
        assert expected in failure
