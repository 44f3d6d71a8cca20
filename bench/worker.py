"""Worker process: runs one workload's measured rounds and nothing else.

Started by ``run.py`` with the path of a JSON spec; writes its results to the
path named in the spec.  Running the rounds in a process of their own makes
its peak RSS the workload's, not the input generator's.

Runs repeat rounds until the time budget is spent, and make at least the
spec's minimum.  Traced runs make pairs of one untraced and one traced round,
so the tracing overhead is measured on the same inputs in the same process.
Each round's whole wall time is recorded as ``round_s``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    import spans
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]]
    out = Path(spec["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    state = workload.prepare(spec["inputs"])
    tracer = spans.Tracer() if spec["trace"] else None
    rounds: list[dict] = []
    traced_rounds: list[dict] = []
    start = time.perf_counter()

    def timed_round() -> dict:
        round_start = time.perf_counter()
        record = workload.run_round(state, out)
        record["round_s"] = time.perf_counter() - round_start
        return record

    while True:
        rounds.append(timed_round())
        if tracer is not None:
            tracer.install()
            try:
                traced_rounds.append(timed_round())
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        if len(rounds) >= spec["min_rounds"] and elapsed * (len(rounds) + 1) / len(rounds) > spec["seconds"]:
            break
    result = {
        "rounds": rounds,
        "traced_rounds": traced_rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
        tracer.write(Path(spec["spans_path"]))
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
