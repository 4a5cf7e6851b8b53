"""``accum-analytics``: Figure 4 PageRank and Appendix B Q_acc on SNB SF 1.6.

A seeded, fixed sequence of two job types runs in one process:

* PageRank (the program's Figure 4 text, through the plan cache) with a
  fixed iteration count (``maxChange`` 0) on the directed projection of
  KNOWS, both directions: ACCUM map/reduce, POST_ACCUM and WHILE;
* ``Q_acc`` (``repro.ldbc.build_q_acc``) over the SNB graph: one pass
  feeding Sum/Avg/Heap/GroupBy accumulators for three grouping sets.

Patterns are single-edge; SDMC does no work here.
"""

from __future__ import annotations

import json
import pickle
import time
from typing import Any, Dict, List, Tuple

from . import reference, streams
from .harness import (Record, end_to_end, latency_ms, median_setup, peak_rss_self_mb,
                      percentile, run_rounds, timed)
from .tracing import LayerTally, compile_traced, hit_ratio, probe_graph_layer

SCALE_FACTOR = 1.6
PAGERANK_ITERATIONS = 3
DAMPING = 0.85


def _q_acc_output(result: Any) -> Dict[str, Any]:
    per_year = {key: [[tuple(t.values) for t in heap] for heap in heaps]
                for key, heaps in result.global_accum("perYear").items()}
    return {"per_year": per_year,
            "counts": dict(result.global_accum("counts")),
            "avg_length": dict(result.global_accum("avgLength"))}


def run(seed: int, seconds: float, trace: bool, work) -> Dict[str, Any]:
    from repro.algorithms import pagerank_query
    from repro.compile import compile_query_text, plan_cache, reset_plan_cache
    from repro.core.pattern import EngineMode
    from repro.graph.io import load_graph_json, save_graph_json
    from repro.gsql import print_query
    from repro.ldbc import build_q_acc, generate_snb_graph
    from repro.obs import collect

    pagerank_text = print_query(pagerank_query("Page", "LinkTo"))
    snb_path, pages_path = work / "snb.json", work / "pages.json"
    tally = LayerTally() if trace else None
    counting = EngineMode.counting()
    pr_params = {"maxChange": 0.0, "maxIteration": PAGERANK_ITERATIONS,
                 "dampingFactor": DAMPING}

    def run_pagerank(pages: Any) -> Dict[str, float]:
        plan = compile_query_text(pagerank_text, schema=pages.schema)
        scores = plan.run(pages, mode=counting, **pr_params).vertex_accum("score")
        for v in pages.vertices("Page"):
            scores.setdefault(v.vid, 1.0)  # pages that never match keep score 1
        return scores

    def setup() -> Tuple[Any, Any, Any]:
        gen_s, generated = timed(lambda: generate_snb_graph(SCALE_FACTOR, seed=streams.GRAPH_SEED))
        save_graph_json(generated, snb_path)
        del generated
        with open(snb_path, encoding="utf-8") as fh:
            projection = reference.knows_projection(json.load(fh))
        with open(pages_path, "w", encoding="utf-8") as fh:
            json.dump(projection, fh)
        load_s, graph = timed(lambda: load_graph_json(snb_path))
        pages = load_graph_json(pages_path)
        if tally is not None:
            tally.add("ldbc.generate_s", gen_s)
            tally.add("graph.load_s", load_s)
        reset_plan_cache()
        if tally is not None:
            compile_traced(pagerank_text, tally)
        else:
            compile_query_text(pagerank_text, schema=pages.schema)
        q_acc = build_q_acc()
        run_pagerank(pages)
        q_acc.run(graph)
        return graph, pages, q_acc

    setup_s, (graph, pages, q_acc) = median_setup(setup)
    stats = None
    if tally is not None:
        from repro.graph.stats import stats_snapshot

        for _ in range(3):
            seconds_stats, stats = timed(lambda: stats_snapshot(pages))
            tally.add("graph.stats_ms", seconds_stats * 1000)

    def execute(op: Dict[str, Any]) -> Record:
        kind = op["kind"]
        try:
            col = None
            start = time.perf_counter()
            if tally is None:
                raw = run_pagerank(pages) if kind == "pagerank" else q_acc.run(graph)
            else:
                with collect() as col:
                    raw = run_pagerank(pages) if kind == "pagerank" else q_acc.run(graph)
            elapsed = time.perf_counter() - start
            if col is not None:
                tally.add_query_trace(col)
                if kind == "pagerank":
                    plan = compile_query_text(pagerank_text, schema=pages.schema)
                    tally.add("analysis.cost_screen_ms",
                              timed(lambda: plan.cost_for(stats))[0] * 1000)
            # Kept pickled until verification: one bytes object per job
            # does not grow the heap the collector walks during the run.
            output = pickle.dumps(raw if kind == "pagerank" else _q_acc_output(raw))
            return Record(kind, op, elapsed, output)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            return Record(kind, op, 0.0, error=f"{type(exc).__name__}: {exc}")

    before = plan_cache().stats()
    records, elapsed = run_rounds(streams.accum_rounds(seed), seconds, execute)
    after = plan_cache().stats()
    peak_mb = peak_rss_self_mb()
    if tally is not None:
        tally.set("compile.cache_hit_ratio", hit_ratio(before, after))
        probe_graph_layer(graph, str(work / "probe-wal"), tally)

    problems = verify(snb_path, pages_path, records)
    pr_ms, qacc_ms = latency_ms(records, ["pagerank"]), latency_ms(records, ["qacc"])
    return {
        "correct": not problems, "problems": problems,
        "attempted": len(records), "failed": sum(r.error is not None for r in records),
        "e2e": end_to_end(setup_s, peak_mb, records, elapsed, ["pagerank", "qacc"]),
        "tally": tally,
        "extra": [("pagerank_ms", percentile(pr_ms, 50), "ms"),
                  ("multiagg_ms", percentile(qacc_ms, 50), "ms")],
        "notes": [("pagerank jobs", len(pr_ms), "count"),
                  ("q_acc jobs", len(qacc_ms), "count"),
                  ("measured phase", elapsed, "s")],
    }


def verify(snb_path, pages_path, records: List[Record]) -> List[str]:
    """PageRank against power iteration (abs 1e-9), itself cross-checked
    against networkx at convergence; Q_acc against its three grouping
    sets."""
    problems: List[str] = []
    with open(pages_path, encoding="utf-8") as fh:
        pages_doc = json.load(fh)
    expected = reference.pagerank_reference(pages_doc, PAGERANK_ITERATIONS, DAMPING)
    converged = reference.pagerank_reference(pages_doc, 200, DAMPING)
    nx_scores = reference.pagerank_networkx(pages_doc, DAMPING)
    worst = max(abs(converged[v] - s) for v, s in nx_scores.items())
    if worst > 1e-6:
        problems.append(f"PageRank reference disagrees with networkx by {worst:.3g}")
    with open(snb_path, encoding="utf-8") as fh:
        q_ref = reference.q_acc_reference(reference.SnbModel(json.load(fh)))
    for r in records:
        if r.error is not None:
            continue
        output = pickle.loads(r.output)
        if r.kind == "pagerank":
            if set(output) != set(expected):
                problems.append("PageRank scored a different page set")
                continue
            worst = max(abs(output[v] - s) for v, s in expected.items())
            if worst > 1e-9:
                problems.append(f"PageRank score off by {worst:.3g}")
        else:
            why = reference.check_q_acc(q_ref, output["per_year"], output["counts"],
                                        output["avg_length"])
            if why is not None:
                problems.append(f"Q_acc: {why}")
    return problems
