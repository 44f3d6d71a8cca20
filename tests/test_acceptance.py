"""Acceptance suite: one test per shipping criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each test asserts its criterion, so a plain ``pytest`` run enforces them all.
"""

import time

import numpy as np
import pytest

from conftest import make_arc_probs
from forestrel.cli import main as cli_main
from forestrel.core import DependencyEdge
from forestrel.dataio import (
    SynthSpec,
    load_arc_probs,
    load_corpus,
    load_forests,
    load_trees,
    save_arc_probs,
    save_corpus,
    save_trees,
    synth_generate,
    synth_write,
    write_forests,
)
from forestrel.encoder import (
    Checkpoint,
    ModelConfig,
    build_gnn_graph,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    forward_instance,
    init_params,
)
from forestrel.forest import (
    decode_kbest,
    edgewise_forest,
    forest_stats,
    merge_trees,
)
from forestrel.training import TrainConfig, gradient_check, train
from reference import brute_force_kbest, decode_1best, forest_from_edges


def _verdict(name, ok, detail):
    print(f"acceptance[{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _key(tree, vocab):
    return tuple(
        sorted((e.modifier, e.head, vocab.dep_index(e.label)) for e in tree.edges)
    )


def test_c01_one_best_decoding_matches_exhaustive_search(vocab5):
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst_gap = 0.0
    for trial in range(200):
        n = int(rng.integers(3, 8))
        probs = make_arc_probs(rng, vocab5, n, sentence_id=f"c1-{trial}")
        fast = decode_1best(probs)
        slow = brute_force_kbest(probs, 1)[0]
        assert _key(fast, vocab5) == _key(slow, vocab5), f"trial {trial}"
        worst_gap = max(worst_gap, abs(fast.log_score - slow.log_score))
    elapsed = time.perf_counter() - start
    _verdict(
        "1-best matches brute force",
        worst_gap <= 1e-9 and elapsed < 10.0,
        f"200 sentences n=3..7, worst log-score gap {worst_gap:.2e} <= 1e-9, "
        f"{elapsed:.1f}s < 10s",
    )


def test_c02_k_best_decoding_matches_exhaustive_top_k(vocab5):
    rng = np.random.default_rng(12)
    start = time.perf_counter()
    worst_gap = 0.0
    for trial in range(100):
        n = int(rng.integers(3, 7))
        probs = make_arc_probs(rng, vocab5, n, sentence_id=f"c2-{trial}")
        fast = decode_kbest(probs, 3)
        slow = brute_force_kbest(probs, 3)
        assert len(fast) == len(slow), f"trial {trial}"
        for f, s in zip(fast, slow):
            assert _key(f, vocab5) == _key(s, vocab5), f"trial {trial}"
            worst_gap = max(worst_gap, abs(f.log_score - s.log_score))
    elapsed = time.perf_counter() - start
    _verdict(
        "K-best matches brute force",
        worst_gap <= 1e-9 and elapsed < 30.0,
        f"100 sentences n=3..6 at K=3, worst log-score gap {worst_gap:.2e} <= 1e-9, "
        f"{elapsed:.1f}s < 30s",
    )


def test_c03_edgewise_threshold_laws(vocab5):
    rng = np.random.default_rng(13)
    grid = (0.05, 0.1, 0.2, 0.3)
    for trial in range(100):
        probs = make_arc_probs(rng, vocab5, int(rng.integers(3, 8)))
        stored = list(probs.iter_entries())
        previous = None
        for gamma in grid:
            got = {e.triple for e in edgewise_forest(probs, gamma).edges}
            want = {(h, label, m) for (m, h, label, p) in stored if p > gamma}
            assert got == want, f"trial {trial} gamma {gamma}"
            if previous is not None:
                assert got <= previous, f"trial {trial}: not antitone at {gamma}"
            previous = got
        assert edgewise_forest(probs, 1.0).num_edges == 0
        assert edgewise_forest(probs, 0.0).num_edges == len(stored)
    _verdict(
        "edgewise threshold laws",
        True,
        "100 sentences: exact sets on gamma grid {0.05,0.1,0.2,0.3}, "
        "antitone, gamma=1 empty, gamma=0 complete",
    )


def test_c04_density_las_connectivity_trends():
    data = synth_generate(SynthSpec(n_sentences=80, seed=42, temperature=0.35))
    instances = list(data.instances)
    gold = [data.gold_trees[i.sentence.id] for i in instances]
    probs = [data.arc_probs[i.sentence.id] for i in instances]

    gamma_stats = []
    for gamma in (0.05, 0.1, 0.2, 0.3):
        forests = [edgewise_forest(p, gamma) for p in probs]
        gamma_stats.append(forest_stats(forests, instances, gold))
    densities = [s.density for s in gamma_stats]
    connectivity = [s.connectivity_ratio for s in gamma_stats]
    assert all(a >= b for a, b in zip(densities, densities[1:])), densities
    assert all(a >= b for a, b in zip(connectivity, connectivity[1:])), connectivity

    k_stats = []
    for k in (1, 2, 5, 10):
        forests = [
            merge_trees(decode_kbest(p, k), data.vocab, sentence_id=p.sentence_id)
            for p in probs
        ]
        k_stats.append(forest_stats(forests, instances, gold))
    k_densities = [s.density for s in k_stats]
    k_las = [s.oracle_las for s in k_stats]
    assert all(a <= b for a, b in zip(k_densities, k_densities[1:])), k_densities
    assert all(a <= b for a, b in zip(k_las, k_las[1:])), k_las
    _verdict(
        "density/LAS/connectivity trends",
        k_stats[0].density == 1.0,
        "80 synthetic sentences: density and connectivity non-increasing in "
        "gamma, density and oracle LAS non-decreasing in K, K=1 density "
        f"exactly {k_stats[0].density:.2f}",
    )


@pytest.mark.slow
def test_c05_analytic_gradients_match_finite_differences():
    start = time.perf_counter()
    results = gradient_check(seed=0)
    elapsed = time.perf_counter() - start
    assert len(results) == 12
    worst = max(err for _, err in results)
    offenders = [desc for desc, err in results if err > 1e-4]
    _verdict(
        "gradient check",
        worst <= 1e-4 and elapsed < 60.0,
        f"12 configurations, worst relative error {worst:.2e} <= 1e-4, "
        f"{elapsed:.1f}s < 60s{'; failing: ' + str(offenders) if offenders else ''}",
    )


def test_c06_unit_weights_reproduce_unweighted_bitwise():
    data = synth_generate(SynthSpec(n_sentences=1, seed=6))
    inst = data.instances[0]
    vocab = data.vocab
    base = edgewise_forest(data.arc_probs[inst.sentence.id], 0.05)
    assert base.num_edges >= 2
    unit = forest_from_edges(
        base.sentence_id,
        base.n,
        [DependencyEdge(e.head, e.label, e.modifier, 1.0) for e in base.edges],
        vocab,
    )
    config_plain = ModelConfig(
        dim_word=5, dim_label=4, dim_hidden=4, steps=2, dropout=0.0,
        weighted=False, ner_head=True, seed=3,
    )
    config_weighted = ModelConfig(
        dim_word=5, dim_label=4, dim_hidden=4, steps=2, dropout=0.0,
        weighted=True, ner_head=True, seed=3,
    )
    params = init_params(config_plain, vocab, num_words=8)
    token_ids = np.arange(1, inst.sentence.n + 1) % 8
    spans = ([inst.mention1], [inst.mention2])

    graph_unit = build_gnn_graph(unit, vocab)
    plain = forward_instance(params, config_plain, [token_ids], *spans, [graph_unit])
    heavy = forward_instance(params, config_weighted, [token_ids], *spans, [graph_unit])
    identical = (
        np.array_equal(plain.h_final, heavy.h_final)
        and np.array_equal(plain.rel_logits, heavy.rel_logits)
        and np.array_equal(plain.ner_logits, heavy.ner_logits)
    )

    damped_edges = [DependencyEdge(e.head, e.label, e.modifier, 1.0) for e in base.edges]
    non_root = next(i for i, e in enumerate(damped_edges) if e.head != 0)
    e = damped_edges[non_root]
    damped_edges[non_root] = DependencyEdge(e.head, e.label, e.modifier, 0.5)
    damped = forest_from_edges(base.sentence_id, base.n, damped_edges, vocab)
    graph_damped = build_gnn_graph(damped, vocab)
    plain_d = forward_instance(params, config_plain, [token_ids], *spans, [graph_damped])
    heavy_d = forward_instance(params, config_weighted, [token_ids], *spans, [graph_damped])
    differs = not np.array_equal(plain_d.h_final, heavy_d.h_final)
    _verdict(
        "confidence weighting identity",
        identical and differs,
        "all-unit probabilities bitwise-identical to unweighted; "
        "a 0.5-probability edge changes the weighted states",
    )


def test_c07_tree_and_forest_models_have_equal_parameter_counts():
    data = synth_generate(SynthSpec(n_sentences=10, seed=7))
    instances = list(data.instances)
    probs = [data.arc_probs[i.sentence.id] for i in instances]
    tree_forests = [
        merge_trees([decode_1best(p)], data.vocab, sentence_id=p.sentence_id)
        for p in probs
    ]
    full_forests = [edgewise_forest(p, 0.2) for p in probs]
    mc = ModelConfig(dim_word=8, dim_label=8, dim_hidden=8, seed=0)
    tc = TrainConfig(epochs=1)
    tree_run = train(instances, tree_forests, instances, tree_forests,
                     data.vocab, mc, tc, "tree")
    forest_run = train(instances, full_forests, instances, full_forests,
                       data.vocab, mc, tc, "forest")
    tree_count = tree_run.checkpoint.params.flat.size
    forest_count = forest_run.checkpoint.params.flat.size
    _verdict(
        "parameter-count parity",
        tree_count == forest_count,
        f"tree model {tree_count} parameters, forest model {forest_count}",
    )


def test_c08_forest_model_learns_the_synthetic_task():
    start = time.perf_counter()
    train_data = synth_generate(SynthSpec(n_sentences=500, seed=11, temperature=0.12))
    dev_data = synth_generate(SynthSpec(n_sentences=100, seed=12, temperature=0.12))
    vocab = train_data.vocab
    train_forests = [
        edgewise_forest(train_data.arc_probs[i.sentence.id], 0.2)
        for i in train_data.instances
    ]
    dev_forests = [
        edgewise_forest(dev_data.arc_probs[i.sentence.id], 0.2)
        for i in dev_data.instances
    ]
    tc = TrainConfig(learning_rate=0.003, epochs=100, patience=15)
    scores = {}
    for structure, weighted in (("forest", True), ("textonly", False)):
        mc = ModelConfig(dim_word=16, dim_label=16, dim_hidden=16, steps=2,
                         weighted=weighted, seed=5)
        result = train(
            list(train_data.instances),
            train_forests if structure == "forest" else None,
            list(dev_data.instances),
            dev_forests if structure == "forest" else None,
            vocab, mc, tc, structure,
        )
        scores[structure] = max(r.f1 for r in result.epochs)
    elapsed = time.perf_counter() - start
    gap = scores["forest"] - scores["textonly"]
    _verdict(
        "end-task learnability",
        scores["forest"] >= 0.95 and gap >= 0.05 and elapsed < 600.0,
        f"500/100 synthetic split: forest dev F1 {scores['forest']:.4f} >= 0.95, "
        f"margin over text-only {gap:.4f} >= 0.05, {elapsed:.0f}s < 600s",
    )


def test_c09_training_cli_is_bitwise_deterministic(tmp_path):
    train_dir = tmp_path / "train"
    dev_dir = tmp_path / "dev"
    assert cli_main(["synth", "--out-dir", str(train_dir), "--count", "30",
                     "--seed", "7"]) == 0
    assert cli_main(["synth", "--out-dir", str(dev_dir), "--count", "15",
                     "--seed", "8"]) == 0
    for d in (train_dir, dev_dir):
        assert cli_main(["forest", "--vocab", str(train_dir / "vocab.json"),
                         "--arcs", str(d / "arcs.jsonl"),
                         "--out", str(d / "forests.jsonl"),
                         "--algo", "edgewise", "--gamma", "0.2"]) == 0
    blobs = []
    for run in ("one", "two"):
        ckpt = tmp_path / f"model-{run}.json"
        log = tmp_path / f"metrics-{run}.tsv"
        code = cli_main([
            "train",
            "--vocab", str(train_dir / "vocab.json"),
            "--corpus", str(train_dir / "corpus.jsonl"),
            "--dev-corpus", str(dev_dir / "corpus.jsonl"),
            "--forests", str(train_dir / "forests.jsonl"),
            "--dev-forests", str(dev_dir / "forests.jsonl"),
            "--checkpoint", str(ckpt),
            "--log", str(log),
            "--structure", "forest", "--weighted",
            "--dim-word", "8", "--dim-label", "8", "--dim-hidden", "8",
            "--epochs", "3", "--seed", "5",
        ])
        assert code == 0
        blobs.append((ckpt.read_bytes(), log.read_bytes()))
    _verdict(
        "seeded training determinism",
        blobs[0] == blobs[1],
        "two cmd_train runs with one seed: checkpoint and metric log bytes equal",
    )


def test_c10_files_round_trip_bitwise(tmp_path, vocab5):
    data = synth_generate(SynthSpec(n_sentences=100, seed=31, temperature=0.25))
    forests = {
        sid: edgewise_forest(probs, 0.15) for sid, probs in data.arc_probs.items()
    }
    cases = 0

    corpus_a = tmp_path / "corpus-a.jsonl"
    corpus_b = tmp_path / "corpus-b.jsonl"
    save_corpus(data.instances, corpus_a)
    loaded_corpus = load_corpus(corpus_a, data.vocab)
    assert loaded_corpus.skipped == ()
    assert loaded_corpus.instances == data.instances
    save_corpus(loaded_corpus.instances, corpus_b)
    assert corpus_a.read_bytes() == corpus_b.read_bytes()
    cases += len(data.instances)

    arcs_a = tmp_path / "arcs-a.jsonl"
    arcs_b = tmp_path / "arcs-b.jsonl"
    save_arc_probs(data.arc_probs, arcs_a)
    loaded_arcs = load_arc_probs(arcs_a, data.vocab)
    assert loaded_arcs == data.arc_probs
    save_arc_probs(loaded_arcs, arcs_b)
    assert arcs_a.read_bytes() == arcs_b.read_bytes()

    forests_a = tmp_path / "forests-a.jsonl"
    forests_b = tmp_path / "forests-b.jsonl"
    write_forests(forests, forests_a)
    loaded_forests = load_forests(forests_a, data.vocab)
    assert loaded_forests == forests
    write_forests(loaded_forests, forests_b)
    assert forests_a.read_bytes() == forests_b.read_bytes()

    trees_a = tmp_path / "trees-a.jsonl"
    trees_b = tmp_path / "trees-b.jsonl"
    save_trees(data.gold_trees, trees_a)
    loaded_trees = load_trees(trees_a, data.vocab)
    assert loaded_trees == data.gold_trees
    save_trees(loaded_trees, trees_b)
    assert trees_a.read_bytes() == trees_b.read_bytes()

    checkpoint_cases = 0
    for seed in range(100):
        config = ModelConfig(dim_word=2, dim_label=2, dim_hidden=2, steps=1,
                             ner_head=bool(seed % 2), seed=seed)
        words = ("<unk>", f"w{seed}")
        ckpt = Checkpoint(
            config, ("textonly", "tree", "forest")[seed % 3], vocab5, words,
            init_params(config, vocab5, num_words=len(words)),
        )
        blob = checkpoint_to_bytes(ckpt)
        back = checkpoint_from_bytes(blob)
        assert checkpoint_to_bytes(back) == blob
        for name in ckpt.params:
            assert np.array_equal(back.params[name], ckpt.params[name])
        checkpoint_cases += 1

    _verdict(
        "serialization round trips",
        cases == 100 and checkpoint_cases == 100,
        "100 corpus/arc/forest/tree records and 100 seeded checkpoints "
        "reload bitwise-identically",
    )
