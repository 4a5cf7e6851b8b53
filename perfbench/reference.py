"""Answers computed apart from the program, in plain Python.

Everything here reads the benchmark's generated inputs (the graph JSON
documents the program is given, plus the ingest operation documents the
benchmark sends) and never imports the program.  The workloads compare
every measured output against these after the timed phase.

* :class:`SnbModel` — the SNB graph as plain dicts, with ingest applied
  op by op so a query can be checked against the version it ran on;
* :func:`ic_candidates` — the five IC queries (ic3/5/6/9/11) by BFS over
  KNOWS plus the IC filters, returning every candidate row with the
  query's ordering key and LIMIT;
* :func:`pagerank_reference` — Figure 4's update rule by power iteration;
* :func:`q_acc_reference` — the three Appendix B grouping sets;
* :func:`check_topk` — compares an ordered, limited answer with its
  candidates, accepting any order among rows whose ordering keys tie.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Row = Tuple[Any, ...]


class SnbModel:
    """The SNB graph as plain adjacency dicts."""

    def __init__(self, doc: Dict[str, Any]):
        self.vtype: Dict[str, str] = {}
        self.attrs: Dict[str, Dict[str, Any]] = {}
        #: edge type -> source -> [(target, attrs)]
        self.out: Dict[str, Dict[str, List[Tuple[str, Dict[str, Any]]]]] = defaultdict(
            lambda: defaultdict(list))
        #: edge type -> target -> [(source, attrs)]
        self.inn: Dict[str, Dict[str, List[Tuple[str, Dict[str, Any]]]]] = defaultdict(
            lambda: defaultdict(list))
        #: undirected KNOWS adjacency
        self.knows: Dict[str, set] = defaultdict(set)
        for v in doc["vertices"]:
            self.vtype[v["id"]] = v["type"]
            self.attrs[v["id"]] = dict(v.get("attrs") or {})
        for e in doc["edges"]:
            self._add_edge(e["source"], e["target"], e["type"], dict(e.get("attrs") or {}))

    def _add_edge(self, source: str, target: str, etype: str, attrs: Dict[str, Any]) -> None:
        if etype == "Knows":
            self.knows[source].add(target)
            self.knows[target].add(source)
            return
        self.out[etype][source].append((target, attrs))
        self.inn[etype][target].append((source, attrs))

    def apply_ops(self, ops: Iterable[Dict[str, Any]]) -> None:
        """Apply ingest documents (the benchmark only sends inserts)."""
        for op in ops:
            if op["op"] == "upsert_vertex":
                if op["id"] in self.vtype:
                    raise ValueError(f"benchmark ingest re-inserts {op['id']!r}")
                self.vtype[op["id"]] = op["type"]
                self.attrs[op["id"]] = dict(op.get("attrs") or {})
            elif op["op"] == "upsert_edge":
                self._add_edge(op["source"], op["target"], op["type"],
                               dict(op.get("attrs") or {}))
            else:
                raise ValueError(f"benchmark ingest never sends {op['op']!r}")

    def vertices_of(self, vtype: str) -> List[str]:
        return [vid for vid, t in self.vtype.items() if t == vtype]

    def one_out(self, etype: str, source: str) -> str:
        (target, _attrs), = self.out[etype][source]
        return target

    # -- traversal --------------------------------------------------------
    def friends(self, person: str, hops: int) -> List[str]:
        """Persons at KNOWS distance 1..hops from ``person``."""
        seen = {person}
        frontier = [person]
        found: List[str] = []
        for _ in range(hops):
            nxt = []
            for v in frontier:
                for w in self.knows.get(v, ()):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            found.extend(nxt)
            frontier = nxt
        return found


# -- the IC family ------------------------------------------------------------

#: name -> (ordering key over a row, LIMIT)
IC_ORDER: Dict[str, Tuple[Callable[[Row], Tuple], int]] = {
    "ic3": (lambda r: (-r[4], r[1]), 20),
    "ic5": (lambda r: (-r[1], r[0]), 20),
    "ic6": (lambda r: (-r[1], r[0]), 10),
    "ic9": (lambda r: (-r[0], -r[1]), 20),
    "ic11": (lambda r: (r[2], r[1]), 10),
}


def _country_name(m: SnbModel, message: str, etype: str) -> str:
    return m.attrs[m.one_out(etype, message)]["name"]


def ic_candidates(m: SnbModel, name: str, hops: int, params: Dict[str, Any]) -> List[Row]:
    """Every row the IC query could return, before ordering and LIMIT.

    The table-returning queries (all but ic9) keep each distinct
    projected row once, as the program's ``SELECT ... INTO`` documents:
    two friends with the same name and counts give one row.
    """
    rows = _ic_rows(m, name, hops, params)
    return rows if name == "ic9" else sorted(set(rows))


def _ic_rows(m: SnbModel, name: str, hops: int, params: Dict[str, Any]) -> List[Row]:
    friends = m.friends(params["p"], hops)
    if name == "ic3":
        rows = []
        for f in friends:
            x = y = 0
            for comment, _ in m.inn["CommentCreator"].get(f, ()):
                country = _country_name(m, comment, "CommentIn")
                x += country == params["countryX"]
                y += country == params["countryY"]
            if x > 0 and y > 0:
                a = m.attrs[f]
                rows.append((a["firstName"], a["lastName"], x, y, x + y))
        return rows
    if name == "ic5":
        friend_set = set(friends)
        forums = set()
        for f in friends:
            for forum, attrs in m.inn["HasMember"].get(f, ()):
                if attrs["joinDate"] > params["minDate"]:
                    forums.add(forum)
        rows = []
        for forum in forums:
            posts = 0
            for post, _ in m.out["ContainerOf"].get(forum, ()):
                for creator, _ in m.out["PostCreator"].get(post, ()):
                    posts += creator in friend_set
            rows.append((m.attrs[forum]["title"], posts))
        return rows
    if name == "ic6":
        tag_name = params["tagName"]
        posts = set()
        for f in friends:
            for post, _ in m.inn["PostCreator"].get(f, ()):
                if any(m.attrs[t]["name"] == tag_name for t, _ in m.out["HasTag"].get(post, ())):
                    posts.add(post)
        counts: Counter = Counter()
        for post in posts:
            for tag, _ in m.out["HasTag"][post]:
                if m.attrs[tag]["name"] != tag_name:
                    counts[m.attrs[tag]["name"]] += 1
        return list(counts.items())
    if name == "ic9":
        rows = []
        for f in friends:
            last = m.attrs[f]["lastName"]
            for etype in ("CommentCreator", "PostCreator"):
                for msg, _ in m.inn[etype].get(f, ()):
                    a = m.attrs[msg]
                    if a["creationDate"] < params["maxDate"]:
                        rows.append((a["creationDate"], a["length"], last))
        return rows
    if name == "ic11":
        rows = []
        for f in friends:
            best: Optional[int] = None
            for company, attrs in m.out["WorkAt"].get(f, ()):
                country = m.attrs[m.one_out("CompanyIn", company)]["name"]
                if country == params["countryName"] and attrs["workFrom"] < params["beforeYear"]:
                    best = attrs["workFrom"] if best is None else min(best, attrs["workFrom"])
            if best is not None:
                a = m.attrs[f]
                rows.append((a["firstName"], a["lastName"], best))
        return rows
    raise KeyError(name)


def check_topk(got: Sequence[Row], candidates: Sequence[Row],
               key: Callable[[Row], Tuple], limit: int) -> Optional[str]:
    """``None`` when ``got`` is a correct ordered top-``limit`` of
    ``candidates``; otherwise a one-line reason.

    The ordering keys must match the reference's exactly, position by
    position.  Among rows whose keys tie, any choice and order is
    accepted, as long as each returned row is one of the candidates with
    that key (counted with multiplicity).
    """
    expected = sorted(candidates, key=key)[:limit]
    if len(got) != len(expected):
        return f"{len(got)} rows, expected {len(expected)}"
    got_keys = [key(r) for r in got]
    if got_keys != [key(r) for r in expected]:
        return f"ordering keys {got_keys[:3]}... differ from {[key(r) for r in expected][:3]}..."
    available = Counter(tuple(row) for row in candidates)
    for row, count in Counter(tuple(row) for row in got).items():
        if available[row] < count:
            return f"row {row!r} is not an answer"
    return None


# -- PageRank (Figure 4) --------------------------------------------------------

def knows_projection(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The directed Page/LinkTo graph document: every person is a page,
    every KNOWS edge links both ways."""
    vertices = [{"id": v["id"], "type": "Page", "attrs": {}}
                for v in doc["vertices"] if v["type"] == "Person"]
    edges = []
    for e in doc["edges"]:
        if e["type"] == "Knows":
            for s, t in ((e["source"], e["target"]), (e["target"], e["source"])):
                edges.append({"source": s, "target": t, "type": "LinkTo",
                              "directed": True, "attrs": {}})
    return {"name": "KnowsProjection", "epoch": 0, "vertices": vertices, "edges": edges}


def pagerank_reference(doc: Dict[str, Any], iterations: int,
                       damping: float = 0.85) -> Dict[str, float]:
    """Figure 4 by power iteration: each round every page with an
    out-link sets ``score = 1 - d + d * sum(score(u) / outdeg(u))`` over
    its in-links, from the previous round's scores.  Pages with no
    out-link never match the pattern and keep the initial score 1."""
    out_links: Dict[str, List[str]] = defaultdict(list)
    for e in doc["edges"]:
        out_links[e["source"]].append(e["target"])
    score = {v["id"]: 1.0 for v in doc["vertices"]}
    for _ in range(iterations):
        received: Dict[str, float] = defaultdict(float)
        for u, targets in out_links.items():
            share = score[u] / len(targets)
            for t in targets:
                received[t] += share
        for u in out_links:
            score[u] = 1 - damping + damping * received[u]
    return score


def pagerank_networkx(doc: Dict[str, Any], damping: float = 0.85) -> Dict[str, float]:
    """The converged Figure 4 scores from ``networkx``, rescaled from
    probabilities to the paper's "sum equals the page count" form.

    Only pages with out-links take part (the others never change under
    Figure 4, while networkx would treat them as dangling)."""
    import networkx as nx

    g = nx.DiGraph()
    for e in doc["edges"]:
        g.add_edge(e["source"], e["target"])
    ranks = nx.pagerank(g, alpha=damping, tol=1e-13, max_iter=10_000)
    return {v: r * g.number_of_nodes() for v, r in ranks.items()}


# -- Appendix B Q_acc -------------------------------------------------------------

#: The six per-year heaps of grouping set (i): (capacity, [(field index,
#: descending?)]) over the tuple (creationDate, length, author birthday).
Q_ACC_HEAPS: List[Tuple[int, List[Tuple[int, bool]]]] = [
    (20, [(0, True), (1, True)]),    # most recent
    (20, [(0, False), (1, True)]),   # earliest
    (20, [(1, True), (0, True)]),    # longest
    (20, [(1, False), (0, True)]),   # shortest
    (10, [(2, False), (1, True)]),   # oldest authors
    (10, [(2, True), (1, True)]),    # youngest authors
]


def heap_key(spec: List[Tuple[int, bool]]) -> Callable[[Row], Tuple]:
    return lambda r: tuple(-r[i] if desc else r[i] for i, desc in spec)


def q_acc_reference(doc_model: SnbModel) -> Dict[str, Any]:
    """The three grouping sets of Q_acc over persons' liked comments
    published 2010-2012.

    Returns ``{"per_year": {year: [candidate tuples]}, "counts": {key:
    n}, "avg_length": {key: (sum, n)}}``; the heaps are checked against
    their candidates with :func:`check_topk`."""
    m = doc_model
    per_year: Dict[int, List[Row]] = defaultdict(list)
    counts: Counter = Counter()
    avg: Dict[Tuple, List[float]] = defaultdict(lambda: [0.0, 0])
    for p in m.vertices_of("Person"):
        cities = m.out["IsLocatedIn"].get(p, ())
        for comment, _ in m.out["LikesComment"].get(p, ()):
            a = m.attrs[comment]
            year = a["creationDate"] // 10000
            if not 2010 <= year <= 2012:
                continue
            month = a["creationDate"] // 100 % 100
            for author, _ in m.out["CommentCreator"].get(comment, ()):
                for city, _ in cities:
                    city_name = m.attrs[city]["name"]
                    per_year[year].append(
                        (a["creationDate"], a["length"], m.attrs[author]["birthday"]))
                    counts[(city_name, a["browserUsed"], year, month, a["length"])] += 1
                    cell = avg[(city_name, m.attrs[p]["gender"], a["browserUsed"], year, month)]
                    cell[0] += a["length"]
                    cell[1] += 1
    return {"per_year": dict(per_year), "counts": dict(counts),
            "avg_length": {k: (s, n) for k, (s, n) in avg.items()}}


def check_q_acc(ref: Dict[str, Any], per_year: Dict[Tuple, Sequence[Sequence[Row]]],
                counts: Dict[Tuple, Sequence[Any]], avg_length: Dict[Tuple, Sequence[Any]]
                ) -> Optional[str]:
    """Compare Q_acc's three grouping sets with :func:`q_acc_reference`."""
    if set(k[0] for k in per_year) != set(ref["per_year"]):
        return f"per-year groups {sorted(per_year)} differ"
    for (year,), heaps in per_year.items():
        for (cap, spec), heap in zip(Q_ACC_HEAPS, heaps):
            why = check_topk([tuple(r) for r in heap], ref["per_year"][year], heap_key(spec), cap)
            if why is not None:
                return f"year {year} heap {spec}: {why}"
    if {k: v[0] for k, v in counts.items()} != ref["counts"]:
        return "grouping set (ii) counts differ"
    if set(avg_length) != set(ref["avg_length"]):
        return "grouping set (iii) keys differ"
    for k, (s, n) in ref["avg_length"].items():
        if abs(avg_length[k][0] - s / n) > 1e-9 * max(1.0, abs(s / n)):
            return f"grouping set (iii) average for {k} differs"
    return None
