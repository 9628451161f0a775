"""``serve_mixed``: an open loop of Poisson arrivals into one Server.

About 95% of arrivals come from four dashboard tenants, each a warm
2-4-way top-5/10 shape from a fixed pool; every twentieth (at a seeded
position in each block of twenty) comes from an ``analytics`` tenant
sending a deep 4-way query (k 200-500) that admission classes as
batch.  Each request is timed from its due time, so a stall also
charges the requests queued behind it.

The measured window is split in three.  The first half runs at the
fixed reference rate (interactive and analytics latency from due
time).  The next 20% is a closed loop of eight clients through the
same server: its completions per second are the saturation throughput.
The rest walks a geometric rate ladder (rungs 10% apart) as an
adaptive staircase of short probes, starting at half the saturation
throughput and settling on the highest rate that meets the latency
limit without a growing backlog.
"""

import asyncio
import math
from time import perf_counter

import numpy as np

from data import Dataset, Shape, answer_of, sql_of
from spans import peak_rss_mb, percentile
from workloads import SHAPE_SEED, Env, load_tables, rng_for, weights

REFERENCE_QPS = 15.0
#: Shares of the measured window: the reference rate, then the
#: closed-loop saturation phase; the ladder takes the rest.
REFERENCE_SHARE = 0.5
SATURATION_SHARE = 0.2
CLIENTS = 8
#: Ladder rungs are ``REFERENCE_QPS * RUNG_RATIO ** j``.
RUNG_RATIO = 1.1
RUNGS = range(-10, 25)
PROBE_SECONDS = 0.75
FIRST_STEP = 2
#: The interactive latency limit a ladder rung must meet, and the
#: percentile it applies to.  A one-second rung holds 30-100 arrivals,
#: so p90 is the highest percentile with about ten samples beyond it;
#: p99 would rest on the single slowest request.
LIMIT_SECONDS = 0.100
LIMIT_PERCENTILE = 0.90
ANALYTICS_EVERY = 20
TENANTS = ("dash0", "dash1", "dash2", "dash3")


class Arrival:
    __slots__ = ("offset", "shape", "tenant", "analytics")

    def __init__(self, offset, shape, tenant, analytics):
        self.offset = offset
        self.shape = shape
        self.tenant = tenant
        self.analytics = analytics


class Outcome:
    """What happened to one request."""

    __slots__ = ("arrival", "lag", "latency", "first_batch", "state",
                 "answer", "shed", "rejected", "error", "queue_class",
                 "wait", "preemptions")

    def __init__(self, arrival):
        self.arrival = arrival
        self.lag = None
        self.latency = None
        self.first_batch = None
        self.state = None
        self.answer = None
        self.shed = False
        self.rejected = False
        self.error = None
        self.queue_class = None
        self.wait = None
        self.preemptions = 0

    @property
    def ok(self):
        """Completed with the full answer, unshed."""
        return (self.state == "completed" and not self.shed
                and self.error is None)


class ServeMixed:
    name = "serve_mixed"
    TABLES = "ABCD"
    ROWS = 500
    KEYS = 3
    DOMAIN = 100

    def pools(self):
        """The fixed ``(interactive, analytics)`` shape pools."""
        rng = rng_for(SHAPE_SEED, 2)
        interactive = []
        for index in range(12):
            ways = 2 + index % 3
            order = [self.TABLES[i] for i in rng.permutation(4)][:ways]
            keys = ["k%d" % (1 + int(i))
                    for i in rng.integers(0, self.KEYS, ways - 1)]
            interactive.append(Shape(order, keys, weights(rng, ways),
                                     (5, 10)[index % 2]))
        analytics = []
        for k in (200, 300, 400, 500):
            order = [self.TABLES[i] for i in rng.permutation(4)]
            keys = ["k%d" % (1 + int(i))
                    for i in rng.integers(0, self.KEYS, 3)]
            analytics.append(Shape(order, keys, weights(rng, 4), k))
        return interactive, analytics

    def setup(self, seed, spans=None):
        """Load, warm every pool shape, and fix the admission threshold.

        The interactive-cost threshold sits at the geometric mean of
        the costliest interactive plan and the cheapest analytics plan,
        as the program's own cost model estimates them.
        """
        from repro import Database

        rng = rng_for(seed, 0)
        dataset = Dataset()
        for name in self.TABLES:
            dataset.add_table(name, self.ROWS, self.KEYS, self.DOMAIN, rng)
        db = Database()
        load_tables(db, dataset, self.TABLES, spans)
        env = Env(dataset, db)
        interactive, analytics = self.pools()
        costs = {}
        for shape in interactive + analytics:
            db.execute(sql_of(shape), batch_size=256)
            result = db.prepare(sql_of(shape)).explain()
            costs[shape] = result.best_plan.cost(float(shape.k))
        top = max(costs[s] for s in interactive)
        bottom = min(costs[s] for s in analytics)
        env.extra["interactive_cost"] = math.sqrt(top * bottom)
        env.extra["misclassed"] = sum(
            1 for s in analytics if costs[s] <= env.extra["interactive_cost"])
        return env

    def arrivals(self, seed, salt, rate, seconds):
        """Poisson arrivals at ``rate`` over ``seconds``, conditioned on
        their count so every window offers exactly ``rate`` on average.
        """
        interactive, analytics = self.pools()
        rng = rng_for(seed, 100 + salt)
        count = max(1, int(round(rate * seconds)))
        offsets = np.sort(rng.uniform(0.0, seconds, count))
        out = []
        for block in range(0, count, ANALYTICS_EVERY):
            slot = block + int(rng.integers(0, ANALYTICS_EVERY))
            for index in range(block, min(block + ANALYTICS_EVERY, count)):
                if index == slot:
                    shape = analytics[int(rng.integers(0, len(analytics)))]
                    out.append(Arrival(offsets[index], shape, "analytics",
                                       True))
                else:
                    shape = interactive[int(rng.integers(
                        0, len(interactive)))]
                    tenant = TENANTS[int(rng.integers(0, len(TENANTS)))]
                    out.append(Arrival(offsets[index], shape, tenant,
                                       False))
        return out

    def server(self, env):
        from repro.server import AdmissionPolicy, Server

        return Server(env.db, admission=AdmissionPolicy(
            interactive_cost=env.extra["interactive_cost"]))


async def _request(server, outcome, due, spans):
    from repro.common.errors import OverloadError

    arrival = outcome.arrival
    begin = perf_counter()
    outcome.lag = begin - due
    try:
        if spans is not None:
            with spans.span("server.submit"):
                session = await server.submit(sql_of(arrival.shape),
                                              tenant=arrival.tenant)
        else:
            session = await server.submit(sql_of(arrival.shape),
                                          tenant=arrival.tenant)
        outcome.queue_class = session.queue_class
        async for _batch in session.batches():
            if outcome.first_batch is None:
                outcome.first_batch = perf_counter() - due
        report = await session.result()
    except OverloadError:
        outcome.rejected = True
        outcome.state = "rejected"
        return
    except Exception as exc:  # noqa: BLE001 - counted as failed
        outcome.error = "%s: %s" % (type(exc).__name__, exc)
        outcome.state = "failed"
        return
    outcome.latency = perf_counter() - due
    outcome.state = session.state
    outcome.wait = session.stats.get("wait_seconds")
    outcome.preemptions = session.stats.get("preemptions", 0)
    if report is not None:
        outcome.answer = answer_of(arrival.shape, report.rows)
        outcome.shed = any(event.kind == "shed"
                           for event in report.recovery.events)


async def _window(server, arrivals, spans=None):
    """Send ``arrivals`` on schedule; returns ``(outcomes, depths)``.

    ``depths`` is the server's queue depth at the window's midpoint
    and at its last arrival -- the backlog test compares the two.
    """
    outcomes = [Outcome(a) for a in arrivals]
    tasks = []
    start = perf_counter()
    half = arrivals[-1].offset / 2 if arrivals else 0.0
    depth_mid = None
    for outcome in outcomes:
        due = start + outcome.arrival.offset
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if depth_mid is None and outcome.arrival.offset >= half:
            depth_mid = server.stats()["depth"]
        tasks.append(asyncio.ensure_future(
            _request(server, outcome, due, spans)))
    depth_end = server.stats()["depth"]
    await asyncio.gather(*tasks)
    return outcomes, (depth_mid or 0, depth_end)


def rung_passes(outcomes, depths):
    """The ladder's test: interactive latency at ``LIMIT_PERCENTILE``
    within the limit (a refused, shed or failed request counts as
    missing it) and no growing backlog (queue depth at the window's
    last arrival no larger than at its midpoint)."""
    latencies = [o.latency if o.ok else math.inf
                 for o in outcomes if not o.arrival.analytics]
    tail = percentile(latencies, LIMIT_PERCENTILE)
    return tail is not None and tail <= LIMIT_SECONDS \
        and depths[1] <= depths[0]


async def _measure(workload, env, seed, seconds, spans):
    server = workload.server(env)
    async with server:
        reference, depths = await _window(
            server, workload.arrivals(seed, 0, REFERENCE_QPS,
                                      seconds * REFERENCE_SHARE), spans)
        rss = peak_rss_mb()
        saturation = await _saturate(server, workload, seed,
                                     seconds * SATURATION_SHARE)
        start = round(math.log(0.5 * saturation["qps"] / REFERENCE_QPS)
                      / math.log(RUNG_RATIO))
        ladder = await _staircase(
            server, workload, seed,
            seconds * (1.0 - REFERENCE_SHARE - SATURATION_SHARE), start)
    return reference, depths, saturation, ladder, rss


async def _saturate(server, workload, seed, seconds):
    """``CLIENTS`` closed-loop clients through the same server, each
    sending its next request of the mix as soon as the last completed:
    the server's saturation throughput."""
    requests = iter(workload.arrivals(seed, 99, 1000.0, seconds))
    outcomes = []
    begin = perf_counter()
    deadline = begin + seconds

    async def client():
        for arrival in requests:
            if perf_counter() >= deadline:
                return
            outcome = Outcome(arrival)
            outcomes.append(outcome)
            await _request(server, outcome, perf_counter(), None)

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    elapsed = perf_counter() - begin
    completed = sum(1 for o in outcomes if o.ok)
    return {"qps": completed / elapsed, "outcomes": outcomes,
            "seconds": elapsed}


async def _staircase(server, workload, seed, seconds, start):
    """Walk the rung grid from rung ``start``: up after a passing
    probe, down after a failing one.  The step starts at ``FIRST_STEP``
    rungs and halves at every reversal, so the probes settle around the
    highest passing rung; each probe is one ``PROBE_SECONDS`` window of
    arrivals."""
    ladder = []
    rung = min(max(start, RUNGS[0]), RUNGS[-1])
    step, last = FIRST_STEP, None
    for index in range(max(2, int(seconds / PROBE_SECONDS))):
        rate = REFERENCE_QPS * RUNG_RATIO ** rung
        arrivals = workload.arrivals(seed, 1 + index, rate, PROBE_SECONDS)
        outcomes, depths = await _window(server, arrivals)
        passed = rung_passes(outcomes, depths)
        ladder.append({"rung": rung, "rate": rate, "passed": passed,
                       "outcomes": outcomes})
        if last is not None and passed != last:
            step = max(1, step // 2)
        last = passed
        rung = min(max(rung + (step if passed else -step), RUNGS[0]),
                   RUNGS[-1])
    return ladder


def run_open(workload, env, seed, seconds, spans=None):
    """The reference window, the saturation phase and the rate ladder,
    on one server; returns ``(reference, depths, saturation, ladder,
    peak_rss_mb_after_reference)``."""
    return asyncio.run(_measure(workload, env, seed, seconds, spans))


def replay_reference(workload, env, seed, seconds, spans):
    """Only the reference window again (traced run): submit spans."""

    async def go():
        server = workload.server(env)
        async with server:
            return await _window(
                server, workload.arrivals(seed, 0, REFERENCE_QPS,
                                          seconds * REFERENCE_SHARE),
                spans)

    return asyncio.run(go())
