"""In-memory span tracing of forestrel's public functions, from outside ``src/``.

``Tracer.install`` wraps every public function defined in the traced layer
modules and rebinds the wrapper under every name in the package that refers
to the original function object.  Rebinding by identity matters because the
modules import each other's functions with ``from ... import``: ``training``
calls its own binding of ``forward_instance`` and ``cli`` its own binding of
``save_checkpoint``, so patching only ``encoder`` would miss those calls.
``forest.decode_kbest`` is reached through ``cli.forestmod``, which is the
module object itself, so its attribute is patched there.

Each call appends one span ``[name, start, end, parent]`` to a list.  Spans
stay in memory and are written once, when the run ends.  ``summary`` turns
them into per-name self time (span time minus the time of its child spans),
call counts and median inclusive time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

LAYERS = ("cli", "dataio", "forest", "encoder", "training")
PACKAGE_MODULES = ("forestrel",) + tuple(f"forestrel.{m}" for m in LAYERS)
# Called once per candidate arc inside decode_kbest (about 80k calls per
# kbest-long round): a span per call would cost more than the work it
# measures, so its time stays in the decoder's self time.
UNTRACED = frozenset({"forest.best_label"})


def _length_bucket(n: int) -> str:
    if n < 10:
        return "n1-9"
    if n < 20:
        return "n10-19"
    if n < 30:
        return "n20-29"
    return "n30-40" if n <= 40 else "n41+"


def _decode_kbest(args: dict, result, counters: dict) -> str:
    counters["forest.trees_returned"] += len(result)
    counters["forest.trees_requested"] += args["k"]
    return f".k{args['k']}.{_length_bucket(args['probs'].n)}"


def _forward_instance(args: dict, result, counters: dict) -> str:
    return ".train" if args.get("train", False) else ".eval"


def _load_arc_probs(args: dict, result, counters: dict) -> str:
    counters["dataio.arc_entries"] += sum(p.num_entries for p in result.values())
    return ""


def _build_gnn_graph(args: dict, result, counters: dict) -> str:
    counters["encoder.graph_edges"] += len(result.edges)
    counters["encoder.graph_words"] += result.n
    return ""


# Functions whose spans are refined by their arguments or that feed counters.
# Each annotator returns a suffix for the span name.
ANNOTATORS: dict[str, Callable[[dict, object, dict], str]] = {
    "forest.decode_kbest": _decode_kbest,
    "encoder.forward_instance": _forward_instance,
    "dataio.load_arc_probs": _load_arc_probs,
    "encoder.build_gnn_graph": _build_gnn_graph,
}


class Tracer:
    """Records spans around forestrel's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        annotate = ANNOTATORS.get(name)
        signature = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[0] = name + annotate(bound.arguments, result, counters)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[Callable, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"forestrel.{layer}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                    and f"{layer}.{attr}" not in UNTRACED
                ):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for module_name in PACKAGE_MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: total self time, call count, median inclusive time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        durations: dict[str, list[float]] = defaultdict(list)
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += (end - start) - child_time[index]
            entry["calls"] += 1
            durations[name].append(end - start)
        for name, entry in out.items():
            entry["ms_p50"] = 1000.0 * statistics.median(durations[name])
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
