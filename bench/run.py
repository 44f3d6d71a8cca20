"""forestrel benchmark: one workload per invocation, seeded inputs, checked outputs.

    python3 bench/run.py --workload train-short|kbest-long|predict-dense \
        [--seed 11] [--seconds RUN_SECONDS] [--trace 0|1]

Run from anywhere inside a checkout that holds ``src/forestrel``.  The
benchmark generates its inputs from ``--seed``, runs rounds for about
``--seconds`` in a worker process, checks the outputs, and prints:

* one line per metric, then a ``report`` line (JSON) with run metadata,
  output fingerprints and per-round samples;
* as the last line, ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the set-up is timed three times and the metrics are the
end-to-end metrics of ``--workload``.  With ``--trace 1`` the metrics are the
per-layer metrics, which are named after the workload whose layers they
measure; a traced run therefore runs every workload, ``--workload`` first,
each for a third of ``--seconds``.  ``--seconds`` defaults to ``run_seconds``
from ``BENCHMARK.json``, the value the bounds were set at.

Metric names and units come from ``BENCHMARK.json`` at the checkout root.
Reports and traced spans are kept under ``.bench_runs/``.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set before numpy is imported here or in the worker, and recorded rather than
# left to the library.  One thread: the model's matrices (d=100) are too small
# to gain from a second one, and on a shared host a call that waits for a
# thread on another core times that core's load as well.
BLAS_THREADS = "1"
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, BLAS_THREADS)

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED_DEFAULT = 11
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0


def parse_args(declared: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, default=SEED_DEFAULT)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def metadata(seed: int, seconds: float, run_seconds: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "src_lines": src_lines,
        "seed": seed,
        "seed_default": SEED_DEFAULT,
        "seconds": seconds,
        "run_seconds": run_seconds,
    }


def fingerprint_tree(d: Path) -> dict[str, str]:
    import workloads

    return {
        str(p.relative_to(d)): workloads.sha256_file(p) for p in sorted(d.rglob("*")) if p.is_file()
    }


def layer_metrics(workload, result: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics per traced round, named ``<workload>.<layer>...``,
    plus the traced run's own checks."""
    rounds = len(result["traced_rounds"])
    layers, counters = result["layers"], result["counters"]
    m: dict[str, float] = {}
    for name, entry in layers.items():
        m[f"{name}.s"] = entry["self_s"] / rounds
        m[f"{name}.calls"] = entry["calls"] / rounds
        m[f"{name}.ms_p50"] = entry["ms_p50"]
    if counters.get("forest.trees_requested"):
        m["forest.trees_per_request"] = counters["forest.trees_returned"] / counters["forest.trees_requested"]
    if "dataio.load_arc_probs" in layers:
        m["dataio.load_arc_probs.entries_per_s"] = (
            counters["dataio.arc_entries"] / layers["dataio.load_arc_probs"]["self_s"]
        )
    if counters.get("encoder.graph_words"):
        m["encoder.graph_edges_per_word"] = counters["encoder.graph_edges"] / counters["encoder.graph_words"]
    # Overhead is taken within each (untraced, traced) pair, then the median
    # over pairs, so that a change in host speed between pairs cancels out.
    pairs = [(u["round_s"], t["round_s"]) for u, t in zip(result["rounds"], result["traced_rounds"])]
    m["trace.pairs"] = len(pairs)
    m["trace.untraced_round_s"] = statistics.median(u for u, _ in pairs)
    m["trace.traced_round_s"] = statistics.median(t for _, t in pairs)
    m["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
    m["trace.overhead_pct"] = statistics.median(100.0 * (t - u) / u for u, t in pairs)
    problems = [
        f"{workload.name}: span {name} recorded no calls"
        for name in workload.expected_spans
        if layers.get(name, {}).get("calls", 0) == 0
    ]
    problems += [
        f"span {name} is not expected on {workload.name}"
        for name in layers
        if name.startswith(workload.absent_prefixes)
    ]
    return {f"{workload.name}.{name}": value for name, value in m.items()}, problems


def run_worker(spec: dict, work: Path, deadline: float) -> dict:
    spec_path = work / "worker-spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log_path = work / "worker.log"
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
            stdout=log,
            stderr=subprocess.STDOUT,
            cwd=ROOT,
            timeout=max(10.0, deadline - time.monotonic()),
        )
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8").splitlines()[-20:]
        raise RuntimeError(f"worker exited with {proc.returncode}:\n" + "\n".join(tail))
    return json.loads(Path(spec["result_path"]).read_text(encoding="utf-8"))


def run_workload(workload, seed: int, runs: Path, deadline: float, *, trace: int, seconds: float,
                 min_rounds: int, setup_repeats: int) -> dict:
    """Set up ``workload`` ``setup_repeats`` times, run its rounds in a worker
    and check the outputs.  Traced rounds are checked too: tracing must not
    change any output."""
    tag = f"{workload.name}-seed{seed}-trace{trace}"
    work = runs / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_s, input_prints, inputs = [], [], None
    for rep in range(setup_repeats):
        d = work / f"setup-{rep}"
        start = time.perf_counter()
        inputs = workload.setup(d, seed)
        setup_s.append(time.perf_counter() - start)
        input_prints.append(fingerprint_tree(d))
    problems = []
    if any(p != input_prints[0] for p in input_prints[1:]):
        problems.append(f"{workload.name}: set-up repeats generated different inputs from one seed")
    out = work / "out"
    spec = {
        "root": str(ROOT),
        "workload": workload.name,
        "inputs": inputs,
        "seconds": seconds,
        "min_rounds": min_rounds,
        "trace": trace,
        "out_dir": str(out),
        "result_path": str(work / "worker-result.json"),
        "spans_path": str(runs / f"{tag}.spans.jsonl"),
    }
    result = run_worker(spec, work, deadline)
    outcome = workload.check(inputs, result["rounds"] + result["traced_rounds"], out)
    problems += [f"{workload.name}: {p}" for p in outcome.problems]
    shutil.rmtree(work, ignore_errors=True)
    return {
        "setup_s": setup_s,
        "input_prints": input_prints[0],
        "result": result,
        "outcome": outcome,
        "problems": problems,
    }


def main() -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    args = parse_args(declared)
    if not (ROOT / "src" / "forestrel" / "__init__.py").is_file():
        print(f"error: no forestrel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import forestrel
    import workloads

    if Path(forestrel.__file__).resolve().parent != ROOT / "src" / "forestrel":
        print(f"error: imported forestrel from {forestrel.__file__}", file=sys.stderr)
        return 2

    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    if args.trace:
        # Every per-layer metric belongs to one workload, so a traced run
        # measures them all: one share of the time per workload.
        order = [args.workload] + [name for name in workloads.WORKLOADS if name != args.workload]
        plan = [(workloads.WORKLOADS[name], args.seconds / len(order), 1, 1) for name in order]
        kind = "per_layer"
    else:
        workload = workloads.WORKLOADS[args.workload]
        plan = [(workload, args.seconds, workload.min_rounds, SETUP_REPEATS)]
        kind = "end_to_end"

    metrics: dict[str, float] = {}
    problems: list[str] = []
    attempted = failed = 0
    report: dict = {"workload": args.workload, "trace": args.trace,
                    "metadata": metadata(args.seed, args.seconds, declared["run_seconds"])}
    for workload, seconds, min_rounds, setup_repeats in plan:
        try:
            ran = run_workload(workload, args.seed, runs, deadline, trace=args.trace, seconds=seconds,
                               min_rounds=min_rounds, setup_repeats=setup_repeats)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"error: {workload.name}: {exc}", file=sys.stderr)
            return 1
        result, outcome = ran["result"], ran["outcome"]
        problems += ran["problems"]
        attempted += outcome.attempted
        failed += outcome.failed
        if args.trace:
            layer_m, trace_problems = layer_metrics(workload, result)
            metrics.update(layer_m)
            problems += trace_problems
        else:
            metrics.update(outcome.metrics)
            metrics["setup_s"] = statistics.median(ran["setup_s"])
            metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
        report[workload.name] = {
            "setup_s_samples": ran["setup_s"],
            "round_s": [r["round_s"] for r in result["rounds"]],
            "traced_round_s": [r["round_s"] for r in result["traced_rounds"]],
            "samples": outcome.samples,
            "fail_ratio": outcome.failed / outcome.attempted,
            "input_fingerprints": ran["input_prints"],
            "output_fingerprints": outcome.fingerprints,
        }
    report["problems"] = problems
    report["all_metrics"] = metrics

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (runs / f"{tag}.report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    units = {m["name"]: m["unit"] for m in declared[kind]}
    missing = sorted(name for name in units if name not in metrics)
    if missing:
        print(f"error: no value for declared metrics {missing}; problems: {problems}", file=sys.stderr)
        return 1
    reported = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}

    for name, entry in reported.items():
        print(f"{name:48s} {entry['value']:.6g} {entry['unit']}")
    for problem in problems:
        print(f"problem: {problem}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
