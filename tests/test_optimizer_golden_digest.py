"""Byte-level golden digest of the optimizer's output.

Seeded random 3-4-way ranking queries (chains and stars, some with
selections) over six 500-row tables are optimized under five
optimizer configurations.  For every (config, query) pair the test
pins ``result.explain()``, ``memo.describe()``, the fallback plan's
``explain(k)`` and ``repr(best_plan.cost(k))`` against
``tests/golden/optimizer_digest.json``.  Any change to enumeration,
pruning or costing -- down to the last bit of one retained plan's
cost -- shows up here.

Regenerate the golden file (only for an intended plan change) with::

    PYTHONPATH=src python -m tests.test_optimizer_golden_digest
"""

import hashlib
import json
import os

import pytest

from repro.common.errors import OptimizerError
from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.optimizer.enumerator import Optimizer, OptimizerConfig
from repro.optimizer.expressions import ScoreExpression
from repro.optimizer.query import FilterPredicate, JoinPredicate, RankQuery

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "optimizer_digest.json")

TABLES = "ABCDEF"
ROWS = 500
KEYS = 3
DOMAIN = 200
QUERY_COUNT = 80
KS = (1, 5, 10, 50, 200)

CONFIGS = {
    "default": {},
    "anyk": {"enable_anyk": True},
    "worst": {"estimation_mode": "worst"},
    "no_pipelining": {"respect_pipelining": False},
    "jstar": {"enable_jstar": True},
}


def make_database(seed=7):
    """Six tables ``id, k1..k3, s``: int join keys, a float score."""
    rng = make_rng(seed)
    db = Database()
    schema = ([("id", "int")]
              + [("k%d" % i, "int") for i in range(1, KEYS + 1)]
              + [("s", "float")])
    for name in TABLES:
        rows = []
        for row_id in range(ROWS):
            keys = [int(v) for v in rng.integers(0, DOMAIN, KEYS)]
            rows.append([row_id] + keys + [float(rng.uniform(0, 1))])
        db.create_table(name, schema, rows=rows)
    db.analyze()
    return db


def make_queries(seed=11, count=QUERY_COUNT):
    """``count`` seeded chain/star ranking queries over 3-4 tables."""
    rng = make_rng(seed)
    queries = []
    for _ in range(count):
        ways = 3 if rng.uniform() < 0.6 else 4
        tables = [TABLES[i] for i in rng.permutation(len(TABLES))[:ways]]

        def key():
            return "k%d" % (1 + int(rng.integers(0, KEYS)))

        if rng.uniform() < 0.5:
            predicates = [
                JoinPredicate("%s.%s" % (tables[i], key()),
                              "%s.%s" % (tables[i + 1], key()))
                for i in range(ways - 1)
            ]
        else:
            predicates = [
                JoinPredicate("%s.%s" % (tables[0], key()),
                              "%s.%s" % (other, key()))
                for other in tables[1:]
            ]
        weights = {
            "%s.s" % table: float(round(rng.uniform(0.1, 1.0), 3))
            for table in tables
        }
        filters = []
        if rng.uniform() < 0.3:
            filters.append(FilterPredicate(
                "%s.%s" % (tables[int(rng.integers(0, ways))], key()),
                "<=", int(rng.integers(20, DOMAIN)),
            ))
        k = KS[int(rng.integers(0, len(KS)))]
        queries.append(RankQuery(
            tables=tables, predicates=predicates,
            ranking=ScoreExpression(weights), k=k, filters=filters,
        ))
    return queries


def digest_of(optimizer, query):
    """``(cost repr, sha256)`` of everything the optimizer decided."""
    result = optimizer.optimize(query)
    k = float(query.k)
    try:
        fallback = optimizer.fallback_plan(result).explain(k=k)
    except OptimizerError as error:
        fallback = "no fallback: %s" % (error,)
    cost = repr(result.best_plan.cost(k))
    text = "\n--\n".join((result.explain(), result.memo.describe(),
                          fallback, cost))
    return cost, hashlib.sha256(text.encode("utf-8")).hexdigest()


def compute_digests():
    db = make_database()
    queries = make_queries()
    digests = {}
    for name, options in CONFIGS.items():
        optimizer = Optimizer(db.catalog, db.cost_model,
                              OptimizerConfig(**options))
        for index, query in enumerate(queries):
            cost, digest = digest_of(optimizer, query)
            digests["%s/%02d" % (name, index)] = {"cost": cost,
                                                  "sha256": digest}
    return digests


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_config_and_query(golden):
    assert len(golden) == len(CONFIGS) * QUERY_COUNT


def test_optimizer_output_matches_golden_digest(golden):
    actual = compute_digests()
    mismatched = sorted(case for case in golden
                        if actual.get(case) != golden[case])
    assert not mismatched, (
        "%d of %d optimizer outputs changed, first: %s (golden %r, now %r)"
        % (len(mismatched), len(golden), mismatched[0],
           golden[mismatched[0]], actual.get(mismatched[0]))
    )


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(compute_digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % (GOLDEN_PATH,))
