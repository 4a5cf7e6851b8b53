"""``ic-hops``: the SNB IC family on SNB SF 1.6, in one process.

The calls are the ones ``repro run`` makes: the query text goes through
the process-wide plan cache (``compile_query_text``; all 15 plans are
warm before timing) and the counting engine runs the plan in this
thread.  Parse, analysis, the server and the WAL do no work in the
measured phase.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Tuple

from . import reference, streams
from .harness import (Record, end_to_end, latency_ms, median_setup, peak_rss_self_mb,
                      run_rounds, timed)
from .tracing import LayerTally, compile_traced, hit_ratio, probe_graph_layer

SCALE_FACTOR = 1.6


def ic_texts() -> Dict[Tuple[str, int], str]:
    """The program's own IC query texts, one per (query, hops) plan."""
    from repro.gsql import print_query
    from repro.ldbc import IC_QUERIES

    return {(name, hops): print_query(IC_QUERIES[name](hops))
            for name in streams.IC_NAMES for hops in streams.IC_HOPS}


def rows_of(name: str, result: Any) -> List[tuple]:
    """An IC answer as plain tuples (ic9 prints a heap of tuples; the
    others return a table)."""
    if name == "ic9":
        return [tuple(t.values) for t in result.printed[0]["recent"]]
    return [tuple(row) for row in result.returned]


def run(seed: int, seconds: float, trace: bool, work) -> Dict[str, Any]:
    from repro.compile import compile_query_text, plan_cache, reset_plan_cache
    from repro.core.pattern import EngineMode
    from repro.graph.io import load_graph_json, save_graph_json
    from repro.ldbc import generate_snb_graph
    from repro.obs import collect

    texts = ic_texts()
    input_path = work / "snb.json"
    tally = LayerTally() if trace else None
    counting = EngineMode.counting()

    def setup() -> Tuple[Any, streams.Catalog]:
        gen_s, generated = timed(lambda: generate_snb_graph(SCALE_FACTOR, seed=streams.GRAPH_SEED))
        save_graph_json(generated, input_path)
        del generated
        load_s, graph = timed(lambda: load_graph_json(input_path))
        with open(input_path, encoding="utf-8") as fh:
            catalog = streams.Catalog(json.load(fh))
        if tally is not None:
            tally.add("ldbc.generate_s", gen_s)
            tally.add("graph.load_s", load_s)
        reset_plan_cache()
        for text in texts.values():
            if tally is not None:
                compile_traced(text, tally)
            else:
                compile_query_text(text, schema=graph.schema)
        # Warm-up: every plan once, from the first person.
        for (name, hops), text in texts.items():
            params = streams.ic_params(streams.rng_for("ic-hops-warmup", seed), name,
                                       catalog.persons[:1], catalog)
            compile_query_text(text, schema=graph.schema).run(graph, mode=counting, **params)
        return graph, catalog

    setup_s, (graph, catalog) = median_setup(setup)
    stats = None
    if tally is not None:
        from repro.graph.stats import stats_snapshot

        for _ in range(3):
            seconds_stats, stats = timed(lambda: stats_snapshot(graph))
            tally.add("graph.stats_ms", seconds_stats * 1000)

    def execute(op: Dict[str, Any]) -> Record:
        text = texts[(op["name"], op["hops"])]
        try:
            start = time.perf_counter()
            plan = compile_query_text(text, schema=graph.schema)
            if tally is None:
                result = plan.run(graph, mode=counting, **op["params"])
            else:
                with collect() as col:
                    result = plan.run(graph, mode=counting, **op["params"])
            elapsed = time.perf_counter() - start
            if tally is not None:
                tally.add_query_trace(col)
                tally.add("analysis.cost_screen_ms",
                          timed(lambda: plan.cost_for(stats))[0] * 1000)
            return Record("query", op, elapsed, rows_of(op["name"], result))
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            return Record("query", op, 0.0, error=f"{type(exc).__name__}: {exc}")

    before = plan_cache().stats()
    records, elapsed = run_rounds(streams.ic_hops_rounds(seed, catalog), seconds, execute)
    after = plan_cache().stats()
    peak_mb = peak_rss_self_mb()
    if tally is not None:
        tally.set("compile.cache_hit_ratio", hit_ratio(before, after))
        probe_graph_layer(graph, str(work / "probe-wal"), tally)

    # -- verification, after the timed phase --------------------------------
    with open(input_path, encoding="utf-8") as fh:
        model = reference.SnbModel(json.load(fh))
    problems = verify_ic_records(model, records)
    return {
        "correct": not problems, "problems": problems,
        "attempted": len(records), "failed": sum(r.error is not None for r in records),
        "e2e": end_to_end(setup_s, peak_mb, records, elapsed, ["query"]),
        "tally": tally,
        "notes": [("queries measured", len(latency_ms(records, ["query"])), "count"),
                  ("measured phase", elapsed, "s")],
    }


def verify_ic_records(model: reference.SnbModel, records: List[Record]) -> List[str]:
    """Check every answered IC query against the reference (answers are
    memoised per distinct query, since the graph does not change)."""
    problems: List[str] = []
    memo: Dict[Any, Optional[str]] = {}
    for r in records:
        if r.error is not None:
            continue
        op = r.op
        key = (op["name"], op["hops"], tuple(sorted(op["params"].items())), tuple(r.output))
        if key not in memo:
            order, limit = reference.IC_ORDER[op["name"]]
            cands = reference.ic_candidates(model, op["name"], op["hops"], op["params"])
            memo[key] = reference.check_topk(r.output, cands, order, limit)
        if memo[key] is not None:
            problems.append(f"{op['name']} h={op['hops']} {op['params']}: {memo[key]}")
    return problems
