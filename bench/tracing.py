"""Span tracing installed from outside sievelab.

Wrappers replace public entry points of each layer for the length of a
traced pass.  A span records its layer, the function name, start, end, its
parent span and the operation it belongs to.  A call made from inside a span
of the same layer gets no span of its own (RegionSpec.eval recursing through
in(...) and splits(...) would otherwise make millions), so a layer's self time
is its spans' time minus the time of child spans of other layers.

Spans stay in memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

# Self time is reported for each of these; "op" is the part of an operation
# that no layer span covers (interpreter start and exit for a CLI process,
# benchmark glue in-process).
LAYERS = (
    "op",
    "import",
    "cli",
    "catalog",
    "params",
    "regions",
    "pruning",
    "quadrature",
    "sobol_init",
    "sobol_draw",
    "buchstab",
    "divisors",
    "tables",
)
COUNTERS = ("sobol.streams", "regions.points", "pruning.cells", "pruning.pruned",
            "quadrature.samples")

# (module, attribute path, layer).  A dotted path names a method.
TARGETS = (
    ("sievelab.cli", "main", "cli"),
    ("sievelab.catalog", "loads", "catalog"),
    ("sievelab.params", "classify", "params"),
    ("sievelab.params", "type_ii_range", "params"),
    ("sievelab.regions", "contains", "regions"),
    ("sievelab.regions", "RegionSpec.eval", "regions"),
    ("sievelab.regions", "definitely", "pruning"),
    ("sievelab.quadrature", "integrate", "quadrature"),
    ("scipy.stats.qmc", "Sobol.__init__", "sobol_init"),
    ("scipy.stats.qmc", "Sobol.random", "sobol_draw"),
    ("sievelab.buchstab", "BuchstabTable._build", "buchstab"),
    ("sievelab.buchstab", "BuchstabTable.omega_many", "buchstab"),
    ("sievelab.buchstab", "omega", "buchstab"),
    ("sievelab.buchstab", "omega_lower", "buchstab"),
    ("sievelab.buchstab", "omega_upper", "buchstab"),
    ("sievelab.divisors", "mobius_half_sum", "divisors"),
    ("sievelab.divisors", "omega3_midrange_count", "divisors"),
    ("sievelab.divisors", "divisor_count_gap", "divisors"),
    ("sievelab.divisors", "divisor_triple_verdict", "divisors"),
    ("sievelab.tables", "verify_triple_tables", "tables"),
)


def _count_eval(c, args, out):
    c["regions.points"] += len(args[1])


def _count_contains(c, args, out):
    c["regions.points"] += 1


def _count_definitely(c, args, out):
    c["pruning.cells"] += 1
    c["pruning.pruned"] += out is False


def _count_integrate(c, args, out):
    c["quadrature.samples"] += out.samples


def _count_sobol(c, args, out):
    c["sobol.streams"] += 1


# Counts taken where a span of the target opens.
COUNTS = {
    "RegionSpec.eval": _count_eval,
    "contains": _count_contains,
    "definitely": _count_definitely,
    "integrate": _count_integrate,
    "Sobol.__init__": _count_sobol,
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self, op_id: int = 0, parent: int | None = None):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[tuple[int, str, str, int]] = []
        self.counters = {name: 0 for name in COUNTERS}
        self.op_id = op_id
        self.root_parent = parent
        self._next = 0
        self._saved: list[tuple[object, str, object]] = []

    def new_id(self) -> int:
        self._next += 1
        return self.pid * 10_000_000 + self._next

    def open(self, layer: str, name: str, span_id: int | None = None) -> None:
        sid = span_id if span_id is not None else self.new_id()
        self.stack.append((sid, layer, name, time.monotonic_ns()))

    def close(self) -> None:
        sid, layer, name, start = self.stack.pop()
        parent = self.stack[-1][0] if self.stack else self.root_parent
        self.spans.append({
            "id": sid, "op": self.op_id, "layer": layer, "name": name,
            "parent": parent, "start_ns": start, "end_ns": time.monotonic_ns(),
            "pid": self.pid,
        })

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            tracer.open(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
            if count is not None:
                count(tracer.counters, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target, including copies bound by `from x import f`."""
        for modname, path, layer in TARGETS:
            mod = importlib.import_module(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = getattr(owner, attr)
            wrapped = self._wrap(original, layer, path)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if owner_name:
                continue
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if other is mod or not name.startswith("sievelab"):
                    continue
                if getattr(other, attr, None) is original:
                    self._saved.append((other, attr, original))
                    setattr(other, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counters": self.counters, "pid": self.pid}) + "\n")


def read_dump(path: str) -> tuple[list[dict], dict[str, int]]:
    spans: list[dict] = []
    counters = {name: 0 for name in COUNTERS}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "counters" in rec:
                for k, v in rec["counters"].items():
                    counters[k] += v
            else:
                spans.append(rec)
    return spans, counters


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer: each span's duration minus its direct children's."""
    child_ns: dict[int, int] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        own = s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0)
        out[s["layer"]] += own / 1e9
    return out


def layer_metrics(spans: list[dict], counters: dict[str, int], overhead_s: float) -> dict:
    selfs = self_times(spans)
    quad_ns = sum(s["end_ns"] - s["start_ns"] for s in spans if s["layer"] == "quadrature")
    metrics = {f"trace.{layer}.self_s": (selfs[layer], "s") for layer in LAYERS}
    for name in ("sobol.streams", "regions.points", "pruning.cells", "pruning.pruned"):
        metrics[f"trace.{name}"] = (counters[name], "count")
    metrics["quadrature.samples_per_s"] = (
        counters["quadrature.samples"] / (quad_ns / 1e9) if quad_ns else 0.0, "1/s"
    )
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics
