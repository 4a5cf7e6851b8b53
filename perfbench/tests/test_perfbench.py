"""Tests for the benchmark itself.

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests

* the same seed gives the same operation sequence;
* the independent references agree with the program at a small scale;
* the metric names and units printed match ``BENCHMARK.json``;
* without the program next to it the benchmark fails without a result.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import reference, streams
from perfbench.harness import Record

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def small_input(tmp_path_factory):
    """SNB SF 0.1 written and read back the way the workloads do it."""
    from repro.graph.io import load_graph_json, save_graph_json
    from repro.ldbc import generate_snb_graph

    path = tmp_path_factory.mktemp("snb") / "snb.json"
    save_graph_json(generate_snb_graph(0.1, seed=7), path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return path, doc, load_graph_json(path)


def _take(rounds, n):
    return json.dumps(list(itertools.islice(rounds, n)), sort_keys=True)


# -- determinism -----------------------------------------------------------------

def test_same_seed_same_sequences(small_input):
    _, doc, _ = small_input
    cat = streams.Catalog(doc)
    assert _take(streams.ic_hops_rounds(5, cat), 3) == _take(streams.ic_hops_rounds(5, cat), 3)
    assert _take(streams.ic_hops_rounds(5, cat), 3) != _take(streams.ic_hops_rounds(6, cat), 3)
    assert _take(streams.accum_rounds(5), 4) == _take(streams.accum_rounds(5), 4)
    first = _take(streams.ServeStream(5, cat).rounds(), 3)
    assert first == _take(streams.ServeStream(5, cat).rounds(), 3)
    assert first != _take(streams.ServeStream(6, cat).rounds(), 3)


def test_warmup_leaves_the_measured_sequence_unchanged(small_input):
    _, doc, _ = small_input
    cat = streams.Catalog(doc)
    warmed = streams.ServeStream(5, cat)
    warmed.warmup()
    warmed.warmup()
    assert _take(warmed.rounds(), 2) == _take(streams.ServeStream(5, cat).rounds(), 2)


def test_rounds_have_a_fixed_make_up(small_input):
    _, doc, _ = small_input
    cat = streams.Catalog(doc)
    for round_ops in itertools.islice(streams.ServeStream(3, cat).rounds(), 5):
        kinds = [op["kind"] for op in round_ops]
        assert {k: kinds.count(k) for k in streams.SERVE_ROUND} == streams.SERVE_ROUND
    for round_ops in itertools.islice(streams.ic_hops_rounds(3, cat), 3):
        assert sorted((op["name"], op["hops"]) for op in round_ops) == sorted(
            (n, h) for n in streams.IC_NAMES for h in streams.IC_HOPS)


# -- references against the program ------------------------------------------------

def test_ic_references_agree_with_the_program(small_input):
    from perfbench.ic_hops import ic_texts, rows_of
    from repro.compile import compile_query_text
    from repro.core.pattern import EngineMode

    _, doc, graph = small_input
    model = reference.SnbModel(doc)
    cat = streams.Catalog(doc)
    texts = ic_texts()
    rng = streams.rng_for("test", 1)
    for (name, hops), text in texts.items():
        for _ in range(3):
            params = streams.ic_params(rng, name, cat.persons, cat)
            result = compile_query_text(text).run(graph, mode=EngineMode.counting(), **params)
            order, limit = reference.IC_ORDER[name]
            cands = reference.ic_candidates(model, name, hops, params)
            assert reference.check_topk(rows_of(name, result), cands, order, limit) is None


def test_adhoc_text_answers_like_the_parameterised_one(small_input):
    from perfbench.ic_hops import ic_texts, rows_of
    from perfbench.serve_mixed import adhoc_text
    from repro.compile import compile_query_text

    _, doc, graph = small_input
    cat = streams.Catalog(doc)
    rng = streams.rng_for("test", 2)
    for (name, hops), text in ic_texts().items():
        params = streams.ic_params(rng, name, cat.persons, cat)
        adhoc = adhoc_text(text, name, params, serial=1)
        assert adhoc != adhoc_text(text, name, params, serial=2)
        a = compile_query_text(text).run(graph, **params)
        b = compile_query_text(adhoc).run(graph, p=params["p"])
        assert rows_of(name, a) == rows_of(name, b)


def test_pagerank_reference_agrees_with_the_program_and_networkx(small_input):
    from repro.algorithms import pagerank
    from repro.graph.io import load_graph_json

    path, doc, _ = small_input
    projection = reference.knows_projection(doc)
    pages_path = path.parent / "pages.json"
    pages_path.write_text(json.dumps(projection))
    pages = load_graph_json(pages_path)
    got = pagerank(pages, max_change=0.0, max_iteration=4)
    want = reference.pagerank_reference(projection, 4)
    assert set(got) == set(want)
    assert max(abs(got[v] - want[v]) for v in want) <= 1e-9
    converged = reference.pagerank_reference(projection, 300)
    nx_scores = reference.pagerank_networkx(projection)
    assert max(abs(converged[v] - s) for v, s in nx_scores.items()) <= 1e-6


def test_q_acc_reference_agrees_with_the_program(small_input):
    from perfbench.accum_analytics import _q_acc_output
    from repro.ldbc import build_q_acc

    _, doc, graph = small_input
    out = _q_acc_output(build_q_acc().run(graph))
    ref = reference.q_acc_reference(reference.SnbModel(doc))
    assert reference.check_q_acc(ref, out["per_year"], out["counts"], out["avg_length"]) is None
    out["counts"][next(iter(out["counts"]))] = (10 ** 6,)
    assert reference.check_q_acc(ref, out["per_year"], out["counts"], out["avg_length"])


def test_check_topk_accepts_any_choice_among_ties_only():
    key = lambda r: (-r[1],)  # noqa: E731
    cands = [("a", 3), ("b", 2), ("c", 2), ("d", 1)]
    assert reference.check_topk([("a", 3), ("c", 2)], cands, key, 2) is None
    assert reference.check_topk([("a", 3), ("b", 2)], cands, key, 2) is None
    assert reference.check_topk([("a", 3), ("d", 1)], cands, key, 2) is not None
    assert reference.check_topk([("a", 3), ("x", 2)], cands, key, 2) is not None
    assert reference.check_topk([("a", 3)], cands, key, 2) is not None


def test_durability_check_reports_a_lost_write(small_input, tmp_path):
    from perfbench.serve_mixed import check_durability
    from repro.graph.io import load_graph_json
    from repro.graph.mutation import GraphStore

    path, doc, _ = small_input
    cat = streams.Catalog(doc)
    stream = streams.ServeStream(4, cat)
    batches = [op for op in next(stream.rounds()) if op["kind"] == "ingest"]
    wal = tmp_path / "wal"
    store = GraphStore.open(str(wal), base=load_graph_json(path))
    for op in batches:
        store.apply(op["ops"])
    store.close()
    acked = [Record("ingest", op, 0.0) for op in batches]
    assert check_durability(path, wal, acked) == []
    lost = {"kind": "ingest", "ops": [{"op": "upsert_vertex", "id": "person:lost",
                                        "type": "Person", "attrs": {}}]}
    assert check_durability(path, wal, acked + [Record("ingest", lost, 0.0)])


# -- the command and BENCHMARK.json ----------------------------------------------------

def _result_line(cwd: Path, workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["ic-hops", "accum-analytics", "serve-mixed"])
def test_printed_metrics_match_benchmark_json(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert workload in [w["name"] for w in spec["workloads"]]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        doc = _result_line(ROOT, workload, trace)
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
        if section == "end_to_end":
            assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ic-hops", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
