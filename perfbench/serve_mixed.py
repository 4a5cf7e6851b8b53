"""``serve-mixed``: ``repro serve`` over HTTP on SNB SF 0.4, WAL with fsync.

One closed-loop client sends a seeded sequence of three request kinds:
parameterised IC queries whose text is warm in the plan cache, ad-hoc IC
texts with their literals inlined (each text new, so each misses the
cache) and small ingest batches.  This is the only workload that goes
through HTTP, admission and dispatch, cold parse/analyze/lower, the
cost screen's per-epoch statistics, commits that clone the graph and
WAL fsync.

After the timed phase the server gets SIGTERM and drains; the graph is
rebuilt with ``recover_graph`` from the input file and the server's WAL
directory, must pass ``fsck`` and must hold every acknowledged write.
The traced run adds an in-process replay of the same requests that
calls each layer's public functions in the order the service does.
"""

from __future__ import annotations

import http.client
import itertools
import json
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import reference, streams
from .harness import (ROOT, Record, end_to_end, latency_ms, median_setup, peak_rss_pid_mb,
                      percentile, program_env, run_rounds, timed)
from .tracing import LayerTally, compile_traced

SCALE_FACTOR = 0.4
WORKERS = 2
HEALTH_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_MSG = re.compile(r"Msg\(creationDate=(-?\d+), length=(-?\d+), author='([^']*)'\)")


# -- the client side --------------------------------------------------------------

def free_port() -> int:
    """A port nothing listens on right now (``repro serve --port 0``
    would report port 0 instead of the port it bound)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def request(port: int, method: str, path: str,
            doc: Optional[Dict[str, Any]] = None) -> Tuple[int, Dict[str, Any]]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        body = json.dumps(doc).encode("utf-8") if doc is not None else None
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"} if body else {})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode("utf-8"))
    finally:
        conn.close()


class Server:
    """One ``repro serve`` child process."""

    def __init__(self, graph_path: Path, wal_dir: Path, log_path: Path):
        self.wal_dir = wal_dir
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        for _ in range(3):
            self.port = free_port()
            self._spawn(graph_path)
            if self._wait_healthy():
                return
            self.stop()
        raise RuntimeError(f"repro serve did not come up; see {self.log_path}")

    def _spawn(self, graph_path: Path) -> None:
        cmd = [sys.executable, "-m", "repro", "serve", "--graph", str(graph_path),
               "--pool-mode", "thread", "--workers", str(WORKERS),
               "--wal-dir", str(self.wal_dir), "--port", str(self.port)]
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(),
                                         stdout=subprocess.DEVNULL, stderr=log)

    def _wait_healthy(self) -> bool:
        deadline = time.monotonic() + HEALTH_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                return False
            try:
                status, doc = request(self.port, "GET", "/healthz")
                if status == 200 and doc.get("status") == "ok":
                    return True
            except OSError:
                pass
            time.sleep(0.02)
        return False

    def peak_rss_mb(self) -> float:
        return peak_rss_pid_mb(self.proc.pid)

    def stop(self) -> Optional[int]:
        """SIGTERM, then wait for the drain; returns the exit code."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        code = self.proc.returncode
        self.proc = None
        return code


def adhoc_text(text: str, name: str, params: Dict[str, Any], serial: int) -> str:
    """The IC text with every scalar parameter inlined as a literal.

    Only the start person stays a parameter; a leading comment with the
    request's serial number makes every ad-hoc text new."""
    head, body = text.split("{", 1)
    head = re.sub(r"QUERY \w+\([^)]*\)", f"QUERY {name}_adhoc(vertex<Person> p)", head,
                  count=1)
    for key, value in params.items():
        if key == "p":
            continue
        literal = f'"{value}"' if isinstance(value, str) else str(value)
        body = re.sub(rf"(?<!AS )\b{key}\b", literal, body)
    return f"// ad-hoc request {serial}\n{head}{{{body}"


def reply_rows(name: str, doc: Dict[str, Any]) -> List[tuple]:
    result = doc["result"]
    if name == "ic9":
        out = []
        for text in result["printed"][0]["recent"]:
            match = _MSG.fullmatch(text)
            if match is None:
                raise ValueError(f"unexpected ic9 element {text!r}")
            out.append((int(match.group(1)), int(match.group(2)), match.group(3)))
        return out
    return [tuple(row) for row in result["returned"]["rows"]]


# -- the workload -------------------------------------------------------------------

def run(seed: int, seconds: float, trace: bool, work) -> Dict[str, Any]:
    from repro.graph.io import save_graph_json
    from repro.ldbc import generate_snb_graph

    from .ic_hops import ic_texts

    texts = {key: text for key, text in ic_texts().items() if key[1] in streams.SERVE_HOPS}
    input_path = work / "snb.json"
    tally = LayerTally() if trace else None
    wal_ids = itertools.count(1)
    servers: List[Server] = []

    def setup() -> Tuple[Server, streams.Catalog]:
        gen_s, generated = timed(lambda: generate_snb_graph(SCALE_FACTOR, seed=streams.GRAPH_SEED))
        save_graph_json(generated, input_path)
        del generated
        if tally is not None:
            tally.add("ldbc.generate_s", gen_s)
        with open(input_path, encoding="utf-8") as fh:
            catalog = streams.Catalog(json.load(fh))
        server = Server(input_path, work / f"wal-{next(wal_ids)}", work / "serve.log")
        servers.append(server)
        for op in streams.ServeStream(seed, catalog).warmup():
            text = texts[(op["name"], op["hops"])]
            status, doc = request(server.port, "POST", "/query",
                                  {"query": text, "params": op["params"]})
            if doc.get("outcome") != "ok":
                raise RuntimeError(f"warm-up query failed: {doc}")
        return server, catalog

    try:
        setup_s, (server, catalog) = median_setup(setup, lambda state: state[0].stop())
        stream = streams.ServeStream(seed, catalog)

        def execute(op: Dict[str, Any]) -> Record:
            kind = op["kind"]
            if kind == "ingest":
                path, body = "/ingest", {"ops": op["ops"]}
            else:
                text = texts[(op["name"], op["hops"])]
                if kind == "adhoc":
                    text = adhoc_text(text, op["name"], op["params"], op["serial"])
                    params = {"p": op["params"]["p"]}
                else:
                    params = op["params"]
                op["text"] = text
                path, body = "/query", {"query": text, "params": params}
            start = time.perf_counter()
            try:
                status, doc = request(server.port, "POST", path, body)
            except OSError as exc:
                return Record(kind, op, 0.0, error=f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
            if doc.get("outcome") != "ok":
                return Record(kind, op, elapsed, error=f"{status} {doc.get('outcome')}")
            output = None if kind == "ingest" else reply_rows(op["name"], doc)
            return Record(kind, op, elapsed, output, extra=doc.get("elapsed_ms"))

        _, before = request(server.port, "GET", "/metrics")
        records, elapsed = run_rounds(stream.rounds(), seconds / 2 if trace else seconds,
                                      execute)
        _, after = request(server.port, "GET", "/metrics")
        peak_mb = server.peak_rss_mb()
        exit_code = server.stop()
    finally:
        for s in servers:
            s.stop()

    problems: List[str] = []
    if exit_code != 0:
        problems.append(f"repro serve exited {exit_code} after SIGTERM")
    wal_dir = server.wal_dir / "default"
    acked = [r for r in records if r.kind == "ingest" and r.error is None]
    problems += check_durability(input_path, wal_dir, acked)
    wal_bytes = sum(p.stat().st_size for p in wal_dir.iterdir() if p.is_file())
    user_bytes = sum(len(json.dumps(r.op["ops"]).encode("utf-8")) for r in acked)

    if tally is not None:
        hits, misses = (after["counters"].get(f"compile.cache.{c}", 0)
                        - before["counters"].get(f"compile.cache.{c}", 0)
                        for c in ("hit", "miss"))
        tally.set("compile.cache_hit_ratio", hits / max(1, hits + misses))
        for r in records:
            if r.kind != "ingest" and r.error is None:
                tally.add("server.worker_ms", r.extra)
                tally.add("server.overhead_ms", r.seconds * 1000 - r.extra)
        replayed = replay(input_path, work / "replay-wal", texts, records, tally)
        problems += verify(input_path, replayed, "replay")

    problems += verify(input_path, records, "server")
    queries = latency_ms(records, ["query", "adhoc"])
    ingests = latency_ms(records, ["ingest"])
    return {
        "correct": not problems, "problems": problems,
        "attempted": len(records), "failed": sum(r.error is not None for r in records),
        "e2e": end_to_end(setup_s, peak_mb, records, elapsed, ["query", "adhoc"]),
        "tally": tally,
        "extra": [("ingest_p50_ms", percentile(ingests, 50), "ms"),
                  ("ingest_p95_ms", percentile(ingests, 95), "ms"),
                  ("wal_bytes_per_user_byte", wal_bytes / max(1, user_bytes), "B/B")],
        "notes": [("queries measured", len(queries), "count"),
                  ("ingests measured", len(ingests), "count"),
                  ("measured phase", elapsed, "s")],
    }


def check_durability(input_path: Path, wal_dir: Path, acked: List[Record]) -> List[str]:
    """Rebuild from the input file plus the WAL; the result must pass
    fsck and hold every acknowledged write."""
    from repro.graph.fsck import fsck_graph
    from repro.graph.io import load_graph_json
    from repro.graph.mutation import recover_graph

    graph, report = recover_graph(str(wal_dir), base=load_graph_json(input_path))
    problems = []
    check = fsck_graph(graph, wal_dir=str(wal_dir))
    if not check.ok:
        problems.append(f"fsck after recovery: {check.to_dict()['violations'][:3]}")
    if report.epoch < len(acked):  # one epoch per committed batch
        problems.append(f"recovered epoch {report.epoch} is behind the {len(acked)} "
                        f"acknowledged batches")
    for r in acked:
        for op in r.op["ops"]:
            if op["op"] == "upsert_vertex":
                if not graph.has_vertex(op["id"]) or \
                        graph.vertex(op["id"]).attrs != op.get("attrs", {}):
                    problems.append(f"acknowledged vertex {op['id']} lost")
            else:
                edges = graph.find_edges(op["source"], op["target"], op["type"])
                if not any(e.attrs == op.get("attrs", {}) for e in edges):
                    problems.append(f"acknowledged edge {op['source']}-{op['target']} lost")
    return problems


def verify(input_path: Path, records: List[Record], where: str) -> List[str]:
    """Check each answer against the reference model at the version it
    ran on: the input plus every batch acknowledged before it."""
    with open(input_path, encoding="utf-8") as fh:
        model = reference.SnbModel(json.load(fh))
    problems = []
    for r in records:
        if r.error is not None:
            continue
        if r.kind == "ingest":
            model.apply_ops(r.op["ops"])
            continue
        op = r.op
        order, limit = reference.IC_ORDER[op["name"]]
        why = reference.check_topk(
            r.output, reference.ic_candidates(model, op["name"], op["hops"], op["params"]),
            order, limit)
        if why is not None:
            problems.append(f"{where} {op['kind']} {op['name']} h={op['hops']} "
                            f"{op['params']}: {why}")
    return problems


def replay(input_path: Path, wal_dir: Path, texts: Dict[Tuple[str, int], str],
           records: List[Record], tally: LayerTally) -> List[Record]:
    """Re-issue the measured requests in process, calling each layer's
    public functions in the order the service does: plan-cache lookup
    (parse, lower and analyze on a miss), statistics for a new epoch and
    the cost screen, then the pinned run; for ingest the commit, with a
    ``Graph.clone()`` of the same version timed beside it."""
    from repro.compile import plan_cache, reset_plan_cache
    from repro.core.pattern import EngineMode
    from repro.graph.io import load_graph_json
    from repro.graph.mutation import GraphStore
    from repro.graph.stats import stats_snapshot
    from repro.obs import collect

    from .ic_hops import rows_of

    load_s, base = timed(lambda: load_graph_json(input_path))
    tally.add("graph.load_s", load_s)
    store = GraphStore.open(str(wal_dir), base=base, fsync=True)
    counting = EngineMode.counting()
    reset_plan_cache()
    for text in texts.values():
        compile_traced(text, tally)
    stats_epoch, stats = None, None
    out: List[Record] = []
    try:
        for r in records:
            if r.error is not None:
                continue  # the server refused it; the replay must match its versions
            op = r.op
            if op["kind"] == "ingest":
                tally.add("graph.clone_ms", timed(store.live.clone)[0] * 1000)
                tally.add("graph.commit_ms", timed(lambda: store.apply(op["ops"]))[0] * 1000)
                out.append(Record("ingest", op, 0.0))
                continue
            text = op["text"]
            if store.epoch != stats_epoch:
                seconds_stats, stats = timed(lambda: stats_snapshot(store.live))
                tally.add("graph.stats_ms", seconds_stats * 1000)
                stats_epoch = store.epoch
            plan = plan_cache().lookup(text) or compile_traced(text, tally)
            tally.add("analysis.cost_screen_ms", timed(lambda: plan.cost_for(stats))[0] * 1000)
            params = {"p": op["params"]["p"]} if op["kind"] == "adhoc" else op["params"]
            with store.pin() as pin:
                with collect() as col:
                    result = plan.run(pin.graph, mode=counting, **params)
            tally.add_query_trace(col)
            out.append(Record(op["kind"], op, 0.0, rows_of(op["name"], result)))
    finally:
        store.close()
    return out

