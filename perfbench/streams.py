"""Seeded operation sequences for the three workloads.

Nothing here imports the program: a sequence is a pure function of the
seed and the generated input document, so the same seed always yields
the same operations (the benchmark's own tests pin this).  Every
sequence is an endless iterator of *rounds*; a round always has the same
make-up, so a run that stops after whole rounds attempts the same mix of
operations whatever its length.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List

#: Generator seed of the SNB graphs.  The graph is the same in every
#: run; ``--seed`` draws the operations (start persons, parameters,
#: order, ingest contents), so runs on different seeds stay comparable.
GRAPH_SEED = 42

#: The IC queries and hop counts of the ``ic-hops`` workload.
IC_NAMES = ("ic3", "ic5", "ic6", "ic9", "ic11")
IC_HOPS = (2, 3, 4)

#: PageRank jobs per round and Q_acc jobs per round (``accum-analytics``).
ACCUM_ROUND = ("pagerank", "qacc", "qacc", "qacc")

#: ``serve-mixed`` round make-up: parameterised queries whose text is
#: warm in the plan cache, ad-hoc texts that miss it, ingest batches.
SERVE_ROUND = {"query": 10, "adhoc": 4, "ingest": 6}
SERVE_HOPS = (2, 3)

_FIRST = ["Alex", "Brook", "Casey", "Devon", "Emery", "Flynn", "Gale", "Hadley"]
_LAST = ["Ames", "Bell", "Cole", "Dorn", "Ezra", "Finn", "Gray", "Hale"]
_BROWSERS = ["Firefox", "Chrome", "Safari", "Internet Explorer", "Opera"]
_LANGUAGES = ["en", "de", "fr", "es", "zh"]


def rng_for(workload: str, seed: int) -> random.Random:
    """The workload's random stream (string seeding is stable across
    processes and Python versions)."""
    return random.Random(f"perfbench:{workload}:{seed}")


def _date(rng: random.Random) -> int:
    return rng.randint(2010, 2012) * 10000 + rng.randint(1, 12) * 100 + rng.randint(1, 28)


class Catalog:
    """The ids and names a sequence samples from, read off the input."""

    def __init__(self, doc: Dict[str, Any]):
        by_type: Dict[str, List[Dict[str, Any]]] = {}
        for v in doc["vertices"]:
            by_type.setdefault(v["type"], []).append(v)
        self.persons = [v["id"] for v in by_type.get("Person", [])]
        self.tags = [v["attrs"]["name"] for v in by_type.get("Tag", [])]
        self.tag_ids = [v["id"] for v in by_type.get("Tag", [])]
        self.countries = [v["attrs"]["name"] for v in by_type.get("Country", [])]
        self.country_ids = [v["id"] for v in by_type.get("Country", [])]
        self.cities = [v["id"] for v in by_type.get("City", [])]
        self.forums = [v["id"] for v in by_type.get("Forum", [])]
        self.posts = [v["id"] for v in by_type.get("Post", [])]


def ic_params(rng: random.Random, name: str, persons: List[str],
              catalog: Catalog) -> Dict[str, Any]:
    """Parameters for one IC query: a start person plus the query's own."""
    params: Dict[str, Any] = {"p": rng.choice(persons)}
    if name == "ic3":
        params["countryX"], params["countryY"] = rng.sample(catalog.countries, 2)
    elif name == "ic5":
        params["minDate"] = _date(rng)
    elif name == "ic6":
        params["tagName"] = rng.choice(catalog.tags)
    elif name == "ic9":
        params["maxDate"] = _date(rng)
    elif name == "ic11":
        params["countryName"] = rng.choice(catalog.countries)
        params["beforeYear"] = rng.randint(2000, 2012)
    else:
        raise KeyError(name)
    return params


def ic_hops_rounds(seed: int, catalog: Catalog) -> Iterator[List[Dict[str, Any]]]:
    """Each round runs all 15 (query, hops) plans once, in a seeded
    order, each from a seeded start person."""
    rng = rng_for("ic-hops", seed)
    plans = [(name, hops) for name in IC_NAMES for hops in IC_HOPS]
    while True:
        order = list(plans)
        rng.shuffle(order)
        yield [{"kind": "query", "name": name, "hops": hops,
                "params": ic_params(rng, name, catalog.persons, catalog)}
               for name, hops in order]


def accum_rounds(seed: int) -> Iterator[List[Dict[str, Any]]]:
    """Each round runs one PageRank job and three Q_acc jobs in a seeded
    order."""
    rng = rng_for("accum-analytics", seed)
    while True:
        order = list(ACCUM_ROUND)
        rng.shuffle(order)
        yield [{"kind": kind} for kind in order]


class ServeStream:
    """The ``serve-mixed`` request sequence.

    Ingest batches add a new person (with a city and two KNOWS edges),
    one comment and one post written by a random known person; later
    requests may start from persons that earlier batches created.
    """

    def __init__(self, seed: int, catalog: Catalog):
        self.seed = seed
        self.rng = rng_for("serve-mixed", seed)
        self.catalog = catalog
        self.persons = list(catalog.persons)
        self.posts = list(catalog.posts)
        self.batches = 0
        self.adhoc = 0

    def warmup(self) -> List[Dict[str, Any]]:
        """One request per parameterised text, so every one is cached
        (drawn from a stream of its own, so warming up several times
        leaves the measured sequence unchanged)."""
        rng = rng_for("serve-mixed-warmup", self.seed)
        return [{"kind": "query", "name": name, "hops": hops,
                 "params": ic_params(rng, name, self.persons, self.catalog)}
                for name in IC_NAMES for hops in SERVE_HOPS]

    def rounds(self) -> Iterator[List[Dict[str, Any]]]:
        while True:
            kinds = [k for k, n in SERVE_ROUND.items() for _ in range(n)]
            self.rng.shuffle(kinds)
            yield [self._op(kind) for kind in kinds]

    def _op(self, kind: str) -> Dict[str, Any]:
        if kind == "ingest":
            return {"kind": "ingest", "ops": self._batch()}
        name = self.rng.choice(IC_NAMES)
        op = {"kind": kind, "name": name, "hops": self.rng.choice(SERVE_HOPS),
              "params": ic_params(self.rng, name, self.persons, self.catalog)}
        if kind == "adhoc":
            self.adhoc += 1
            op["serial"] = self.adhoc
        return op

    def _batch(self) -> List[Dict[str, Any]]:
        rng, cat = self.rng, self.catalog
        self.batches += 1
        n = self.batches
        person, comment, post = f"person:b{n}", f"comment:b{n}", f"post:b{n}"
        friends = rng.sample(self.persons, 2)
        author = rng.choice(self.persons + [person])
        ops: List[Dict[str, Any]] = [
            {"op": "upsert_vertex", "id": person, "type": "Person", "attrs": {
                "firstName": rng.choice(_FIRST), "lastName": rng.choice(_LAST),
                "gender": rng.choice(["male", "female"]),
                "birthday": rng.randint(1950, 2000) * 10000 + rng.randint(1, 12) * 100
                + rng.randint(1, 28),
                "browserUsed": rng.choice(_BROWSERS), "creationDate": _date(rng)}},
            _edge(person, rng.choice(cat.cities), "IsLocatedIn"),
        ]
        for friend in friends:
            ops.append(_edge(person, friend, "Knows", directed=False,
                             creationDate=_date(rng)))
        ops += [
            {"op": "upsert_vertex", "id": comment, "type": "Comment", "attrs": {
                "creationDate": _date(rng), "length": rng.randint(5, 1500),
                "browserUsed": rng.choice(_BROWSERS)}},
            _edge(comment, author, "CommentCreator"),
            _edge(comment, rng.choice(cat.country_ids), "CommentIn"),
            _edge(comment, rng.choice(self.posts), "ReplyOf"),
            {"op": "upsert_vertex", "id": post, "type": "Post", "attrs": {
                "creationDate": _date(rng), "length": rng.randint(10, 2000),
                "browserUsed": rng.choice(_BROWSERS), "language": rng.choice(_LANGUAGES)}},
            _edge(post, author, "PostCreator"),
            _edge(post, rng.choice(cat.country_ids), "PostIn"),
            _edge(post, rng.choice(cat.tag_ids), "HasTag"),
            _edge(rng.choice(cat.forums), post, "ContainerOf"),
        ]
        self.persons.append(person)
        self.posts.append(post)
        return ops


def _edge(source: str, target: str, etype: str, directed: bool = True,
          **attrs: Any) -> Dict[str, Any]:
    return {"op": "upsert_edge", "source": source, "target": target, "type": etype,
            "directed": directed, "attrs": attrs}
