"""The four workloads: set-up, operation streams and untraced runs.

Each workload builds its tables from the seed, loads them through the
public :class:`repro.Database` API and warms it.  Closed-loop workloads
then yield an endless, seeded stream of operations
(:meth:`ClosedWorkload.ops`); :func:`run_closed` sends them one at a
time for the measured window.  ``serve_mixed`` is an open loop and
lives in :mod:`serve`.

Operations are tuples:

* ``("read", shape)`` -- the workload's read entry point for ``shape``;
* ``("shard", shape)`` -- ``Database.execute(shards=2)`` on the
  separately partitioned copy (deep_topk only);
* ``("insert", table, row)`` and ``("analyze",)`` -- writes.
"""

import multiprocessing
import weakref
from time import perf_counter

import numpy as np

from data import Dataset, Shape, answer_of, sql_of

#: ``batch_size`` for every drain the benchmark asks for.
BATCH = 256
SHARDS = 2

#: Seed of the fixed query shapes of the prepared workloads.  The
#: run's ``--seed`` draws the data, the order of operations and the
#: inserted rows; keeping the shapes fixed keeps runs comparable.
SHAPE_SEED = 0


def rng_for(seed, stream):
    """Independent generator ``stream`` of ``seed`` (data, shapes, ops)."""
    return np.random.default_rng([seed, stream])


def weights(rng, count):
    return rng.uniform(0.1, 1.0, count)


def load_tables(db, dataset, names, spans=None):
    """``create_table`` each of ``names`` then ``analyze``, timed."""
    started = perf_counter()
    for name in names:
        db.create_table(name, dataset.schema(name), rows=dataset.rows(name))
    loaded = perf_counter()
    db.analyze()
    if spans is not None:
        spans.add("storage.analyze", perf_counter() - loaded)
        spans.add("storage.load", perf_counter() - started)


class Env:
    """One set-up workload: its data, databases and prepared handles."""

    #: Every live set-up of this process, so that a run which fails
    #: part-way can still stop their shard pools (see :meth:`close`).
    live = weakref.WeakSet()

    def __init__(self, dataset, db):
        self.dataset = dataset
        self.db = db
        self.shard_db = None
        self.prepared = {}
        self.extra = {}
        Env.live.add(self)

    def databases(self):
        return [db for db in (self.db, self.shard_db) if db is not None]

    def close(self):
        """Stop every shard-pool worker process and wait for it."""
        for db in self.databases() + [self.extra.get("probe_shard_db")]:
            if db is not None:
                db.shard_pool.shutdown()
        for child in multiprocessing.active_children():
            child.join(30)


class ClosedWorkload:
    """A closed-loop workload: one client, next op after the last."""

    name = None

    def setup(self, seed, spans=None):
        raise NotImplementedError

    def ops(self, seed):
        raise NotImplementedError

    def read(self, env, shape):
        """Run one read through the public entry point; returns
        ``(answer, report)``."""
        report = env.prepared[shape.with_k(0)].execute(
            k=shape.k, batch_size=BATCH)
        return answer_of(shape, report.rows), report

    def shard_read(self, env, shape):
        report = env.shard_db.execute(env.extra[shape], shards=SHARDS,
                                      batch_size=BATCH)
        return answer_of(shape, report.rows), report

    def run_op(self, env, op):
        """Run ``op``; returns ``(answer, report)`` (``None`` for writes)."""
        kind = op[0]
        if kind == "read":
            return self.read(env, op[1])
        if kind == "shard":
            return self.shard_read(env, op[1])
        if kind == "insert":
            env.db.insert(op[1], op[2])
            return None, None
        if kind == "analyze":
            env.db.analyze()
            return None, None
        raise ValueError("unknown operation %r" % (kind,))

    def prepare(self, env, shape):
        """Prepare ``shape``'s fingerprint once; ``k`` binds per call."""
        env.prepared[shape.with_k(0)] = env.db.prepare(sql_of(shape))

    def warm(self, env, shapes):
        """Run each prepared query once, building the indexes it scans,
        and plan its other ``k`` through the plan cache."""
        ran = set()
        for shape in shapes:
            base = shape.with_k(0)
            if base in ran:
                env.prepared[base].explain(k=shape.k)
            else:
                ran.add(base)
                self.read(env, shape)


class AdhocPlan(ClosedWorkload):
    """Distinct ad-hoc SQL text on six small tables: every query misses
    the plan cache, so DP enumeration dominates."""

    name = "adhoc_plan"
    TABLES = "ABCDEF"
    ROWS = 500
    KEYS = 3
    DOMAIN = 200
    K = 10
    #: Of every five queries, three are 3-way and two are 4-way.
    WAYS = (3, 3, 3, 4, 4)

    def setup(self, seed, spans=None):
        from repro import Database

        rng = rng_for(seed, 0)
        dataset = Dataset()
        for name in self.TABLES:
            dataset.add_table(name, self.ROWS, self.KEYS, self.DOMAIN, rng)
        db = Database()
        load_tables(db, dataset, self.TABLES, spans)
        env = Env(dataset, db)
        # Warm the code paths with shapes the stream never draws.
        warm_rng = rng_for(SHAPE_SEED, 9)
        for ways in (3, 4):
            self.read(env, self._draw(warm_rng, ways))
        return env

    def _draw(self, rng, ways):
        tables = [self.TABLES[i] for i in rng.permutation(len(self.TABLES))]
        keys = ["k%d" % (1 + int(i)) for i in rng.integers(0, self.KEYS,
                                                            ways - 1)]
        return Shape(tables[:ways], keys, weights(rng, ways), self.K)

    def ops(self, seed):
        rng = rng_for(seed, 1)
        index = 0
        while True:
            yield ("read", self._draw(rng, self.WAYS[index % 5]))
            index += 1

    def read(self, env, shape):
        report = env.db.execute(sql_of(shape), batch_size=BATCH)
        return answer_of(shape, report.rows), report


def _deep_tables(dataset, rng, chain):
    """The 50k-row 2-way pair, plus the 4-way chain when ``chain``."""
    for name in "AB":
        dataset.add_table(name, DeepTopK.ROWS, 1, DeepTopK.DOMAIN, rng)
    if chain:
        for name in DeepTopK.CHAIN:
            dataset.add_table(name, DeepTopK.CHAIN_ROWS, 2,
                              DeepTopK.CHAIN_DOMAIN, rng)


class DeepTopK(ClosedWorkload):
    """Warm prepared top-k at k up to 1000: operators and storage reads
    dominate, and plan choice decides the latency."""

    name = "deep_topk"
    ROWS = 50_000
    DOMAIN = 50_000
    CHAIN = "CDEF"
    CHAIN_ROWS = 2_000
    CHAIN_DOMAIN = 800

    def setup(self, seed, spans=None):
        from repro import Database

        rng = rng_for(seed, 0)
        dataset = Dataset()
        _deep_tables(dataset, rng, chain=True)
        db = Database()
        load_tables(db, dataset, "AB" + self.CHAIN, spans)
        env = Env(dataset, db)
        shard_db = Database()
        load_tables(shard_db, dataset, "AB", spans)
        env.shard_db = shard_db
        pairs, chains, shard = self.shapes()
        for base in pairs + chains:
            self.prepare(env, base)
        env.extra[shard] = shard_db.parse(sql_of(shard))
        self.warm(env, [op[1] for op in self.cycle() if op[0] == "read"])
        for _ in range(2):
            self.shard_read(env, shard)
        return env

    def shapes(self):
        """Two weightings of the pair and of the chain, and the sharded
        pair query."""
        rng = rng_for(SHAPE_SEED, 2)
        pairs = [Shape("AB", ["k1"], weights(rng, 2), 10) for _ in "12"]
        chains = [Shape(self.CHAIN, ["k1", "k2", "k1"], weights(rng, 4), 10)
                  for _ in "12"]
        shard = Shape("AB", ["k1"], weights(rng, 2), 100)
        return pairs, chains, shard

    def cycle(self):
        """Eleven operations: each pair weighting at k=10, 100 and 1000,
        each chain weighting at k=10 and 1000, and the sharded query.
        Grouped by latency, these shares keep the median and the 90th
        percentile inside a group rather than on a boundary."""
        pairs, chains, shard = self.shapes()
        return ([("read", pair.with_k(k)) for pair in pairs
                 for k in (10, 100, 1000)]
                + [("read", chain.with_k(k)) for chain in chains
                   for k in (10, 1000)]
                + [("shard", shard)])

    def ops(self, seed):
        cycle = self.cycle()
        rng = rng_for(seed, 1)
        while True:
            for index in rng.permutation(len(cycle)):
                yield cycle[index]


class IngestMixed(ClosedWorkload):
    """Prepared top-10/100 reads on the deep_topk pair, mixed with
    single-row inserts and a periodic ``analyze``."""

    name = "ingest_mixed"
    #: Each cycle: eight reads (``k`` per read, alternating between the
    #: two weightings) and two inserts, in seeded order.  About a
    #: quarter of the reads follow a write and pay for an index rebuild
    #: and a re-plan; the k=100 share puts the median inside the k=100
    #: reads and the 90th percentile inside the reads after a write,
    #: not on the boundary between two groups.
    READS = (10, 10, 10, 100, 100, 100, 100, 100)
    INSERTS = 2
    ANALYZE_EVERY = 5

    def setup(self, seed, spans=None):
        from repro import Database

        rng = rng_for(seed, 0)
        dataset = Dataset()
        _deep_tables(dataset, rng, chain=False)
        db = Database()
        load_tables(db, dataset, "AB", spans)
        env = Env(dataset, db)
        for pair in self.shapes():
            self.prepare(env, pair)
            self.warm(env, [pair.with_k(k) for k in (10, 100)])
        return env

    def shapes(self):
        rng = rng_for(SHAPE_SEED, 3)
        return [Shape("AB", ["k1"], weights(rng, 2), 10) for _ in "12"]

    def ops(self, seed):
        pairs = self.shapes()
        rng = rng_for(seed, 1)
        # Inserted ids continue after the generated rows.
        next_id = {"A": DeepTopK.ROWS, "B": DeepTopK.ROWS}
        cycle = ([("read", pairs[i % 2].with_k(k))
                  for i, k in enumerate(self.READS)]
                 + [("insert",)] * self.INSERTS)
        inserts = 0
        while True:
            for index in rng.permutation(len(cycle)):
                if cycle[index][0] == "read":
                    yield cycle[index]
                    continue
                table = "AB"[int(rng.integers(0, 2))]
                row = [next_id[table], int(rng.integers(0, DeepTopK.DOMAIN)),
                       float(rng.random())]
                next_id[table] += 1
                yield ("insert", table, row)
                inserts += 1
                if inserts % self.ANALYZE_EVERY == 0:
                    yield ("analyze",)


def mirror(env, op):
    """Apply an insert to the reference data too (outside any timing)."""
    if op[0] == "insert":
        env.dataset.append(op[1], op[2])


class Record:
    """One operation of a closed-loop run."""

    __slots__ = ("op", "seconds", "lag", "answer", "report", "error",
                 "sizes", "after_write")

    def __init__(self, op, seconds, lag, answer, report, error, sizes,
                 after_write):
        self.op = op
        self.seconds = seconds
        self.lag = lag
        self.answer = answer
        self.report = report
        self.error = error
        self.sizes = sizes
        self.after_write = after_write

    @property
    def is_read(self):
        return self.op[0] in ("read", "shard")


def run_closed(workload, env, seed, seconds, keep_reports=False):
    """Send the seeded stream for ``seconds``; returns ``(records, wall)``.

    Answers are checked afterwards (outside the timed region) against
    the data as it stood at each read, recorded in ``sizes``.
    """
    records = []
    after_write = False
    started = perf_counter()
    deadline = started + seconds
    previous_end = started
    for op in workload.ops(seed):
        sizes = env.dataset.sizes() if op[0] in ("read", "shard") else None
        begin = perf_counter()
        if begin >= deadline:
            break
        error = None
        answer = report = None
        try:
            answer, report = workload.run_op(env, op)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            error = "%s: %s" % (type(exc).__name__, exc)
        end = perf_counter()
        mirror(env, op)
        records.append(Record(op, end - begin, begin - previous_end,
                              answer, report if keep_reports else None,
                              error, sizes, after_write))
        after_write = op[0] in ("insert", "analyze")
        previous_end = perf_counter()
    return records, perf_counter() - started


WORKLOADS = {w.name: w for w in (AdhocPlan(), DeepTopK(), IngestMixed())}
