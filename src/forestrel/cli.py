"""Command-line interface.

Subcommands are thin wrappers over the library: ``synth`` writes a seeded
synthetic dataset, ``forest`` turns arc probabilities into forests, ``stats``
prints forest diagnostics, ``train``/``eval``/``predict`` drive the relation
extractor, and ``gradcheck`` compares analytic gradients against finite
differences.  Every run prints its resolved configuration to stdout;
diagnostics go to stderr; the exit status is 0 iff no error was reported.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dataio, forest as forestmod, training
from .core import LabelVocab, RelationInstance
from .encoder import STRUCTURES, ModelConfig, load_checkpoint, save_checkpoint
from .training import TrainConfig


class CliError(Exception):
    """A user-facing error that should terminate with exit status 1."""


def _print_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"config {json.dumps(resolved, sort_keys=True, default=str)}")


def _aligned_lists(
    instances: list[RelationInstance],
    by_id: dict,
    what: str,
):
    """Align id-keyed records with corpus order; every instance needs a match."""
    out = []
    for inst in instances:
        sid = inst.sentence.id
        if sid not in by_id:
            raise CliError(f"no {what} record for sentence {sid!r}")
        out.append(by_id[sid])
    return out


def cmd_synth(args: argparse.Namespace) -> int:
    spec = dataio.SynthSpec(
        n_sentences=args.count,
        min_len=args.min_len,
        max_len=args.max_len,
        n_dep_labels=args.labels,
        temperature=args.temperature,
        seed=args.seed,
    )
    data = dataio.synth_generate(spec)
    paths = dataio.synth_write(data, args.out_dir)
    for name, path in paths.items():
        print(f"wrote {name}: {path}")
    return 0


def cmd_forest(args: argparse.Namespace) -> int:
    vocab = dataio.load_vocab(args.vocab)
    arc_map = dataio.load_arc_probs(args.arcs, vocab)
    forests: dict[str, object] = {}
    densities = []
    for sid, probs in arc_map.items():
        uncovered = probs.uncovered_modifiers()
        if uncovered:
            if args.fallback_eps is None:
                raise CliError(
                    f"sentence {sid!r}: uncovered modifiers at positions {uncovered}; "
                    "re-run with --fallback-eps to inject uniform candidates"
                )
            probs = forestmod.inject_fallback(probs, args.fallback_eps)
        if args.algo == "edgewise":
            result = forestmod.edgewise_forest(probs, args.gamma)
        else:
            trees = forestmod.decode_kbest(probs, args.k)
            if not trees:
                raise CliError(
                    f"sentence {sid!r}: no projective tree over the stored candidate arcs"
                )
            result = forestmod.merge_trees(trees, vocab, sentence_id=sid)
        forests[sid] = result
        densities.append(forestmod.forest_density(result))
    dataio.write_forests(forests, args.out)
    mean_density = sum(densities) / len(densities) if densities else 0.0
    print(f"wrote {len(forests)} forests to {args.out} (mean density {mean_density:.4f})")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    vocab = dataio.load_vocab(args.vocab)
    instances, forests, _ = _load_split(args.corpus, args.forests, vocab, "forest")
    gold = None
    if args.gold is not None:
        gold_map = dataio.load_trees(args.gold, vocab)
        gold = _aligned_lists(instances, gold_map, "gold tree")
    stats = forestmod.forest_stats(forests, instances, gold)
    header = ["#Edge/#Node"]
    row = [f"{stats.density:.2f}"]
    if stats.oracle_las is not None:
        header.append("LAS")
        row.append(f"{100.0 * stats.oracle_las:.1f}")
    header.append("Conn.Ratio(%)")
    row.append(f"{100.0 * stats.connectivity_ratio:.1f}")
    print("\t".join(header))
    print("\t".join(row))
    return 0


def _load_split(
    corpus_path: str, forests_path: str | None, vocab: LabelVocab, structure: str
):
    """The split's instances, their forests (None for text-only) and its skipped record count."""
    corpus = dataio.load_corpus(corpus_path, vocab)
    for line in corpus.skipped:
        print(f"skipped: {line}", file=sys.stderr)
    instances = list(corpus.instances)
    forests = None
    if structure != "textonly":
        if forests_path is None:
            raise CliError(f"--structure {structure} requires a forest file")
        forest_map = dataio.load_forests(forests_path, vocab)
        forests = _aligned_lists(instances, forest_map, "forest")
    return instances, forests, len(corpus.skipped)


def cmd_train(args: argparse.Namespace) -> int:
    vocab = dataio.load_vocab(args.vocab)
    train_instances, train_forests, _ = _load_split(
        args.corpus, args.forests, vocab, args.structure
    )
    dev_instances, dev_forests, _ = _load_split(
        args.dev_corpus, args.dev_forests, vocab, args.structure
    )
    model_config = ModelConfig(
        dim_word=args.dim_word,
        dim_label=args.dim_label,
        dim_hidden=args.dim_hidden,
        steps=args.steps,
        dropout=args.dropout,
        weighted=args.weighted,
        ner_head=args.ner_loss,
        seed=args.seed,
    )
    train_config = TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch,
        l2=args.l2,
        epochs=args.epochs,
        patience=args.patience,
    )
    result = training.train(
        train_instances,
        train_forests,
        dev_instances,
        dev_forests,
        vocab,
        model_config,
        train_config,
        args.structure,
    )
    save_checkpoint(result.checkpoint, args.checkpoint)
    with dataio.atomic_open(args.log) as fh:
        fh.write(training.format_metric_log(result.epochs))
    best = result.epochs[result.best_epoch - 1]
    print(
        f"trained {len(result.epochs)} epochs in {result.wall_seconds:.1f}s; "
        f"best dev F1 {best.f1:.4f} at epoch {result.best_epoch}"
    )
    print(f"wrote checkpoint: {args.checkpoint}")
    print(f"wrote metrics: {args.log}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    instances, forests, skipped = _load_split(
        args.corpus, args.forests, checkpoint.vocab, checkpoint.structure
    )
    # Skipped records silently shrink the recall denominator, so say how many.
    print(f"skipped {skipped} records")
    report = training.evaluate(checkpoint, instances, forests, args.external_gold)
    print(
        f"precision {report.precision:.4f}\trecall {report.recall:.4f}\tf1 {report.f1:.4f}"
    )
    print(
        f"correct {report.correct}\tpredicted {report.predicted}\t"
        f"recall_denominator {report.recall_denominator}"
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    instances, forests, skipped = _load_split(
        args.corpus, args.forests, checkpoint.vocab, checkpoint.structure
    )
    print(f"skipped {skipped} records")
    rows = training.predict(checkpoint, instances, forests)
    dataio.save_predictions(rows, args.out)
    print(f"wrote {len(rows)} predictions to {args.out}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    results = training.gradient_check(seed=args.seed)
    worst = 0.0
    for description, err in results:
        print(f"{description} max_rel_err={err:.3e}")
        worst = max(worst, err)
    if worst > args.tolerance:
        print(f"gradient check FAILED: {worst:.3e} > {args.tolerance:.1e}", file=sys.stderr)
        return 1
    print(f"gradient check passed: worst {worst:.3e} <= {args.tolerance:.1e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestrel",
        description="Dependency-forest generation and forest-based relation extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--min-len", type=int, default=dataio.SynthSpec.min_len)
    p.add_argument("--max-len", type=int, default=dataio.SynthSpec.max_len)
    p.add_argument("--labels", type=int, default=dataio.SynthSpec.n_dep_labels)
    p.add_argument("--temperature", type=float, default=dataio.SynthSpec.temperature)
    p.add_argument("--seed", type=int, default=dataio.SynthSpec.seed)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("forest", help="turn arc probabilities into forests")
    p.add_argument("--vocab", required=True)
    p.add_argument("--arcs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--algo", choices=("edgewise", "kbest"), required=True)
    p.add_argument("--gamma", type=float, default=None, help="edgewise threshold")
    p.add_argument("--k", type=int, default=None, help="number of trees to merge")
    p.add_argument(
        "--fallback-eps",
        type=float,
        default=None,
        help="probability for uniform candidates injected at uncovered positions",
    )
    p.set_defaults(func=cmd_forest)

    p = sub.add_parser("stats", help="forest density / oracle LAS / connectivity")
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--forests", required=True)
    p.add_argument("--gold", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a relation extractor")
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--dev-corpus", required=True)
    p.add_argument("--forests", default=None)
    p.add_argument("--dev-forests", default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--structure", choices=STRUCTURES, default="forest")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--ner-loss", action="store_true")
    p.add_argument("--dim-word", type=int, default=ModelConfig.dim_word)
    p.add_argument("--dim-label", type=int, default=ModelConfig.dim_label)
    p.add_argument("--dim-hidden", type=int, default=ModelConfig.dim_hidden)
    p.add_argument("--steps", type=int, default=ModelConfig.steps)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--l2", type=float, default=TrainConfig.l2)
    p.add_argument("--dropout", type=float, default=ModelConfig.dropout)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--seed", type=int, default=ModelConfig.seed)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on labeled data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--forests", default=None)
    p.add_argument(
        "--external-gold",
        type=int,
        default=None,
        help="replace the recall denominator with an external gold count",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="write per-instance predictions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--forests", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="verify analytic gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def _validate_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.command == "forest":
        if args.algo == "edgewise":
            if args.gamma is None:
                parser.error("--algo edgewise requires --gamma")
            if args.k is not None:
                parser.error("--k is only valid with --algo kbest")
        else:
            if args.k is None:
                parser.error("--algo kbest requires --k")
            if args.gamma is not None:
                parser.error("--gamma is only valid with --algo edgewise")
            if args.k < 1:
                parser.error("--k must be >= 1")
    if args.command == "train" and args.structure == "textonly" and args.forests:
        print("note: --structure textonly ignores forests", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_args(parser, args)
    _print_config(args)
    try:
        return args.func(args)
    except (CliError, ValueError, KeyError, OSError, training.OptimizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
