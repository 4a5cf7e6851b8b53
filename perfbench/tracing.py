"""Per-layer tallies for the traced runs.

Two sources feed a :class:`LayerTally`:

* the benchmark's own timings around calls into a layer's public
  functions (``parse_query``, ``analyze``, ``compile_query``,
  ``CompiledQuery.cost_for``, ``GraphStore.apply``, ``Graph.clone``,
  ``stats_snapshot``, ``load_graph_json``, ``generate_snb_graph``);
* the program's own ``repro.obs`` span tree and counters for each
  ``Query.run``: ``hop`` spans split into single-edge hops (``core``) and
  Kleene hops evaluated by SDMC (``paths``), plus ``accum_map``,
  ``accum_reduce`` and ``post_accum``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from .harness import timed

#: Per-layer metrics every workload reports in its result line:
#: name -> (unit, how the samples are summarised).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "gsql.parse_ms": ("ms", "median"),
    "analysis.analyze_ms": ("ms", "median"),
    "analysis.cost_screen_ms": ("ms", "median"),
    "compile.lower_ms": ("ms", "median"),
    "compile.cache_hit_ratio": ("ratio", "value"),
    "core.execute_ms": ("ms", "mean"),
    "core.hop_ms": ("ms", "mean"),
    "core.accum_map_ms": ("ms", "mean"),
    "core.accum_reduce_ms": ("ms", "mean"),
    "core.binding_rows": ("count", "mean"),
    "core.acc_executions": ("count", "mean"),
    "paths.sdmc_product_states": ("count", "mean"),
    "accum.combines": ("count", "mean"),
    "graph.commit_ms": ("ms", "median"),
    "graph.clone_ms": ("ms", "median"),
    "graph.stats_ms": ("ms", "median"),
    "graph.load_s": ("s", "median"),
    "ldbc.generate_s": ("s", "median"),
}

#: Printed in the traced table but not in the result line, because on
#: some workload the layer does no work at all (no server in the
#: in-process workloads, no POST_ACCUM in the IC queries, no Kleene hop
#: in PageRank or Q_acc): a time that is zero on every run compares
#: nothing.
TABLE_ONLY: Dict[str, Tuple[str, str]] = {
    "server.overhead_ms": ("ms", "median"),
    "server.worker_ms": ("ms", "median"),
    "core.post_accum_ms": ("ms", "mean"),
    "paths.sdmc_ms": ("ms", "mean"),
}


#: repro.obs span name -> per-layer metric (``hop`` spans are split by plan).
_SPAN_METRIC = {
    "query": "core.execute_ms",
    "accum_map": "core.accum_map_ms",
    "accum_reduce": "core.accum_reduce_ms",
    "post_accum": "core.post_accum_ms",
}

#: per-layer metric -> the repro.obs counters it sums.
_COUNTER_METRIC = {
    "core.binding_rows": ("block.binding_rows",),
    "core.acc_executions": ("block.acc_executions",),
    "paths.sdmc_product_states": ("sdmc.product_states",),
    "accum.combines": ("accum.combine_weighted", "accum.merges"),
}

_PER_OP = ["core.hop_ms", "paths.sdmc_ms", *_SPAN_METRIC.values(), *_COUNTER_METRIC]


def compile_traced(text: str, tally: "LayerTally") -> Any:
    """The plan-cache miss path, one layer call at a time, timed."""
    from repro.analysis import analyze
    from repro.compile import compile_query, plan_cache
    from repro.gsql import parse_query

    seconds, query = timed(lambda: parse_query(text))
    tally.add("gsql.parse_ms", seconds * 1000)
    seconds, plan = timed(lambda: compile_query(query))
    tally.add("compile.lower_ms", seconds * 1000)
    seconds, diagnostics = timed(lambda: analyze(query, source=text))
    tally.add("analysis.analyze_ms", seconds * 1000)
    plan.lint_errors = [d.to_dict() for d in diagnostics if d.is_error]
    plan_cache().insert(text, plan)
    return plan


def probe_graph_layer(graph: Any, wal_dir: str, tally: "LayerTally") -> None:
    """Time ``Graph.clone()`` and a one-vertex, one-edge commit on a
    WAL-backed store (fsync on) over this workload's graph."""
    from repro.graph.mutation import GraphStore

    anchor = next(iter(graph.vertices()))
    for _ in range(3):
        tally.add("graph.clone_ms", timed(graph.clone)[0] * 1000)
    store = GraphStore.open(wal_dir, base=graph)
    try:
        for n in range(3):
            ops = [{"op": "upsert_vertex", "id": f"probe:{n}", "type": anchor.type},
                   {"op": "upsert_edge", "source": f"probe:{n}", "target": anchor.vid,
                    "type": "Probe", "directed": True}]
            tally.add("graph.commit_ms", timed(lambda: store.apply(ops))[0] * 1000)
    finally:
        store.close()


def hit_ratio(before: Dict[str, int], after: Dict[str, int]) -> float:
    """Plan-cache hits per lookup between two ``PlanCache.stats()``."""
    hits = after["hits"] - before["hits"]
    return hits / max(1, hits + after["misses"] - before["misses"])


class LayerTally:
    """Samples per per-layer metric."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.values: Dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def set(self, name: str, value: float) -> None:
        self.values[name] = value

    def add_query_trace(self, collector: Any) -> None:
        """Fold one ``Query.run``'s spans and counters into per-op samples."""
        sums = dict.fromkeys(_PER_OP, 0.0)
        for span in collector.spans():
            if span.name == "hop":
                sdmc = str(span.attrs.get("plan", "")).startswith("sdmc")
                name = "paths.sdmc_ms" if sdmc else "core.hop_ms"
            else:
                name = _SPAN_METRIC.get(span.name)
            if name is not None:
                sums[name] += span.duration * 1000.0
        for name, sources in _COUNTER_METRIC.items():
            sums[name] = float(sum(collector.counters.get(c, 0) for c in sources))
        for name, value in sums.items():
            self.samples[name].append(value)

    def summary(self, name: str, how: str) -> float:
        if how == "value":
            return self.values[name]
        values = self.samples.get(name)
        if not values:
            raise KeyError(f"no samples for per-layer metric {name}")
        return statistics.median(values) if how == "median" else statistics.fmean(values)

    def table_rows(self) -> List[Tuple[str, Any, str]]:
        rows = []
        for name, (unit, how) in {**PER_LAYER, **TABLE_ONLY}.items():
            try:
                value: Any = self.summary(name, how)
            except KeyError:
                value = "n/a"
            rows.append((name, value, unit))
        return rows

    def result_metrics(self) -> Dict[str, Dict[str, Any]]:
        return {name: {"value": self.summary(name, how), "unit": unit}
                for name, (unit, how) in PER_LAYER.items()}
