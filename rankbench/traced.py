"""The traced run: the same operations, split across the layers.

:class:`Pipeline` runs a read from outside in -- parse, fingerprint,
plan-cache get/put, optimize, build, open / next_batch / close --
calling each layer's public function under a span of the benchmark's
own :class:`~spans.Spans`.  Its rows must equal those the public entry
point returned for the same operation in the untraced run (the
decomposition check).

Probes then send a few of the workload's own queries through the
layers its stream does not reach (the guarded path, instalment
chains, the server, the shard pool, a write), so every layer metric
exists on every workload; and :func:`regret_probe` times forced
optimizer alternatives against the default plan.
"""

import asyncio
from time import perf_counter

from data import answer_of, sql_of
from spans import median
from workloads import BATCH, SHARDS, load_tables, mirror

#: Forced alternatives of the regret probe (the default config is the
#: optimizer's own pick).
VARIANTS = (
    ("default", {}),
    ("enable_nrjn=False", {"enable_nrjn": False}),
    ("enable_hrjn=False", {"enable_hrjn": False}),
    ("rank_aware=False", {"rank_aware": False}),
    ("enable_anyk=True", {"enable_anyk": True}),
)
#: A default plan within this factor of the fastest counts as a hit.
HIT_SLACK = 1.10
#: The server scheduler's defaults: pulls per instalment, and the
#: growth after a suspension inside an atomic open.
INSTALMENT_PULLS = 2000
ESCALATION = 4.0
PROBE_QUERIES = 3


class Pipeline:
    """Outside-in execution of reads against one database."""

    def __init__(self, spans):
        self.spans = spans
        self._parsed = {}
        #: MEMO order classes per optimize call.
        self.memo_classes = []
        #: ``(tuples pulled by all operators, rows out, largest
        #: operator buffer)`` per executed read.
        self.runs = []

    def parse(self, shape, prepared):
        """Parse and fingerprint ``shape``'s text; with ``prepared`` only
        once per shape at any k, as ``Database.prepare`` does."""
        from repro.executor.plan_cache import query_fingerprint
        from repro.sql.parser import parse_query

        key = shape.with_k(0)
        if prepared and key in self._parsed:
            return self._parsed[key]
        with self.spans.span("sql.parse"):
            query = parse_query(sql_of(shape))
        with self.spans.span("plan_cache.fingerprint"):
            fingerprint = query_fingerprint(query)
        if prepared:
            self._parsed[key] = (query, fingerprint)
        return query, fingerprint

    def run(self, db, shape, prepared=True):
        """Rows of ``shape`` on ``db`` through every layer in turn."""
        query, fingerprint = self.parse(shape, prepared)
        if query.k != shape.k:
            query = _with_k(query, shape.k)
        spans = self.spans
        version = db.catalog.version
        with spans.span("plan_cache.lookup"):
            result = db.plan_cache.get(fingerprint, query.k, version)
        if result is None:
            with spans.span("optimizer.optimize"):
                result = db.optimizer().optimize(query)
            with spans.span("plan_cache.put"):
                db.plan_cache.put(fingerprint, query.k, version, result)
            self.memo_classes.append(result.memo.class_count())
        with spans.span("builder.build"):
            root = db.executor().builder.build_query(result)
        with spans.span("operators.open"):
            root.open()
        rows = []
        try:
            with spans.span("operators.drain"):
                while True:
                    batch = root.next_batch(BATCH)
                    rows.extend(batch)
                    if len(batch) < BATCH:
                        break
        finally:
            with spans.span("operators.close"):
                root.close()
        pulled = sum(sum(op.stats.pulled) for op in root.walk())
        buffer = max(op.stats.max_buffer for op in root.walk())
        self.runs.append((pulled, len(rows), buffer))
        return answer_of(shape, rows)


def _with_k(query, k):
    from repro.optimizer.query import RankQuery

    return RankQuery(tables=query.tables, predicates=query.predicates,
                     ranking=query.ranking, k=k, order_by=query.order_by,
                     select=query.select, filters=query.filters,
                     aliases=query.aliases)


def replay_closed(workload, env, records, pipeline, spans, oracle):
    """Replay the untraced run's operations through the pipeline.

    Returns ``(mismatches, wrong, seconds)``: reads whose rows differ
    from the entry point's in the untraced run, reads whose answer is
    not a correct top-k, and the replay's total time.
    """
    mismatches = wrong = 0
    total = 0.0
    after_write = False
    spans.phase = "stream"
    prepared = workload.name != "adhoc_plan"
    for record in records:
        op = record.op
        begin = perf_counter()
        if op[0] == "read":
            if after_write:
                spans.phase = "after_write"
            answer = pipeline.run(env.db, op[1], prepared=prepared)
            spans.phase = "stream"
        elif op[0] == "shard":
            answer = pipeline.run(env.shard_db, op[1])
        elif op[0] == "insert":
            with spans.span("storage.insert"):
                env.db.insert(op[1], op[2])
        else:
            with spans.span("storage.analyze"):
                env.db.analyze()
        total += perf_counter() - begin
        mirror(env, op)
        after_write = op[0] in ("insert", "analyze")
        if op[0] in ("read", "shard"):
            if record.error is None and answer != record.answer:
                mismatches += 1
            if oracle.check(op[1], answer) is not None:
                wrong += 1
    return mismatches, wrong, total


class ProbeResult:
    """Counts and ratios the probes produce beside their spans."""

    def __init__(self):
        self.wrong = 0
        self.guard_ratio = None
        self.chains = 0
        self.instalments = 0
        self.recovery_paths = 0
        self.server = {"queries": 0, "preemptions": 0, "rejected": 0,
                       "shed": 0, "waits": [], "class_waits": {}}
        self.shard_speedup = None
        self.regret = []


def _timed(spans, name, fn, repeats=3):
    """Median seconds of ``repeats`` calls of ``fn`` (each spanned);
    returns ``(seconds, last_value)``."""
    times = []
    value = None
    for _ in range(repeats):
        begin = perf_counter()
        with spans.span(name):
            value = fn()
        times.append(perf_counter() - begin)
    return median(times), value


def guard_probe(env, shapes, spans, oracle, result):
    """``execute_guarded`` against ``execute`` on the same warm queries."""
    plain = guarded = 0.0
    for shape in shapes:
        text = sql_of(shape)
        env.db.execute(text, batch_size=BATCH)
        seconds, _ = _timed(spans, "executor.execute",
                            lambda: env.db.execute(text, batch_size=BATCH))
        plain += seconds
        seconds, report = _timed(spans, "robustness.execute_guarded",
                                 lambda: env.db.execute_guarded(text))
        guarded += seconds
        if oracle.check(shape, answer_of(shape, report.rows)) is not None:
            result.wrong += 1
    result.guard_ratio = guarded / plain


def instalment_probe(env, shapes, spans, oracle, result):
    """``execute_guarded(budget=...)`` then ``resume`` until done, at
    the server's instalment budget, growing it after a suspension
    inside an atomic open as the server's scheduler does."""
    from repro.robustness.budget import ResourceBudget
    from repro.robustness.checkpoint import CheckpointPolicy

    for shape in shapes:
        text = sql_of(shape)
        pulls = INSTALMENT_PULLS
        with spans.span("robustness.instalment"):
            report = env.db.execute_guarded(
                text, budget=ResourceBudget(max_pulls=pulls),
                checkpoint=CheckpointPolicy())
        calls = 1
        while report.suspended and calls < 64:
            if report.suspension.pre_open:
                pulls = int(pulls * ESCALATION)
            with spans.span("robustness.instalment"):
                report = env.db.resume(
                    report.suspension,
                    budget=ResourceBudget(max_pulls=pulls))
            calls += 1
        result.chains += 1
        result.instalments += calls
        result.recovery_paths += sum(
            1 for event in report.recovery.events
            if event.kind not in ("resume", "suspend"))
        if report.suspended or oracle.check(
                shape, answer_of(shape, report.rows)) is not None:
            result.wrong += 1


def server_probe(env, shapes, spans, oracle, result):
    """Submit the workload's queries one at a time through a Server."""
    from repro.common.errors import OverloadError
    from repro.server import Server

    async def go():
        server = Server(env.db)
        async with server:
            for shape in shapes:
                try:
                    with spans.span("server.submit"):
                        session = await server.submit(sql_of(shape),
                                                      tenant="probe")
                except OverloadError:
                    result.server["rejected"] += 1
                    continue
                report = await session.result()
                _count_session(result, session, report)
                if oracle.check(shape,
                                answer_of(shape, report.rows)) is not None:
                    result.wrong += 1

    asyncio.run(go())


def _count_session(result, session, report):
    server = result.server
    server["queries"] += 1
    server["preemptions"] += session.stats.get("preemptions", 0)
    if session.stats.get("wait_seconds") is not None:
        server["waits"].append(session.stats["wait_seconds"])
    if report is not None and any(e.kind == "shed"
                                  for e in report.recovery.events):
        server["shed"] += 1


def shard_probe(env, shapes, spans, oracle, result):
    """``execute(shards=2)`` on a partitioned copy against the serial
    query on the workload's database."""
    from repro import Database

    copy = env.extra.get("probe_shard_db")
    if copy is None:
        copy = Database()
        names = sorted({t for shape in shapes for t in shape.tables})
        load_tables(copy, env.dataset, names)
        env.extra["probe_shard_db"] = copy
    serial = sharded = 0.0
    for shape in shapes:
        query = copy.parse(sql_of(shape))
        copy.execute(query, shards=SHARDS, batch_size=BATCH)
        seconds, report = _timed(
            spans, "shard_pool.query",
            lambda: copy.execute(query, shards=SHARDS, batch_size=BATCH))
        sharded += seconds
        if oracle.check(shape, answer_of(shape, report.rows)) is not None:
            result.wrong += 1
        text = sql_of(shape)
        env.db.execute(text, batch_size=BATCH)
        seconds, _ = _timed(spans, "shard_pool.serial",
                            lambda: env.db.execute(text, batch_size=BATCH))
        serial += seconds
    result.shard_speedup = serial / sharded
    copy.shard_pool.shutdown()


def write_probe(env, shape, spans, oracle, result, pipeline, rng, count=3):
    """Single-row inserts, each followed by one read of ``shape``."""
    table = shape.tables[0]
    for _ in range(count):
        row = env.dataset.new_row(table, rng)
        with spans.span("storage.insert"):
            env.db.insert(table, row)
        env.dataset.append(table, row)
        spans.phase = "probe_after_write"
        answer = pipeline.run(env.db, shape, prepared=False)
        spans.phase = "probe"
        if oracle.check(shape, answer) is not None:
            result.wrong += 1


def regret_probe(env, shapes, oracle, result):
    """Time every forced optimizer alternative on the same tables.

    Each variant is a ``Database(config=OptimizerConfig(...))`` over the
    workload's registered ``Table`` objects; warm, the fastest of two
    runs counts.  Records ``(shape, default_seconds, best_name,
    best_seconds)`` per shape.
    """
    from repro import Database
    from repro.optimizer.enumerator import OptimizerConfig

    names = sorted({t for shape in shapes for t in shape.tables})
    variants = []
    for label, options in VARIANTS:
        db = Database(config=OptimizerConfig(**options))
        for name in names:
            db.register_table(env.db.catalog.table(name))
        db.analyze()
        variants.append((label, db))
    for shape in shapes:
        text = sql_of(shape)
        timings = {}
        for label, db in variants:
            prepared = db.prepare(text)
            report = prepared.execute(batch_size=BATCH)
            if oracle.check(shape, answer_of(shape, report.rows)) is not None:
                result.wrong += 1
            best = None
            for _ in range(2):
                begin = perf_counter()
                prepared.execute(batch_size=BATCH)
                seconds = perf_counter() - begin
                best = seconds if best is None else min(best, seconds)
            timings[label] = best
        winner = min(timings, key=timings.get)
        result.regret.append((shape, timings["default"], winner,
                              timings[winner]))


def probe_shapes(ops, count=PROBE_QUERIES):
    """The first ``count`` distinct serial read shapes of ``ops``."""
    shapes = []
    for op in ops:
        if op[0] == "read" and op[1] not in shapes:
            shapes.append(op[1])
        if len(shapes) == count:
            break
    return shapes

