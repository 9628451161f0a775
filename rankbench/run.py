#!/usr/bin/env python3
"""Layered end-to-end benchmark of the rank-aware engine.

Run from the repository root::

    python3 rankbench/run.py --workload deep_topk --seed 1 --seconds 10 --trace 0
    python3 rankbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One workload runs in this process; ``all`` runs each workload in a
fresh child process, one after another.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs the workload once untraced, then
replays the same operations through the benchmark's outside-in
pipeline and layer probes and reports the per-layer metrics.  Every
answer is checked against a brute-force reference.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``rankbench/README.md``.
"""

import argparse
import gc
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from time import perf_counter

import serve
import traced
import workloads
from data import Oracle, answer_of, sql_of
from serve import CLIENTS, RUNG_RATIO, replay_reference, run_open
from spans import Spans, median, peak_rss_mb, percentile
from traced import (
    HIT_SLACK,
    Pipeline,
    ProbeResult,
    probe_shapes,
    replay_closed,
)
from workloads import rng_for, run_closed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("serve_mixed", "adhoc_plan", "deep_topk", "ingest_mixed")
#: Set-up runs at least this many times, and until this much time has
#: gone, so cheap set-ups report a median over more samples.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 15
#: Shapes the regret probe times on the 50k-row workloads (five
#: variants each); the small-table workloads time ``PROBE_QUERIES``.
BIG_REGRET_SHAPES = 2


def import_program():
    """Import ``repro`` from this checkout's ``src`` or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("rankbench: no program source at %s\n" % (SRC,))
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write("rankbench: repro imported from %s, not %s\n"
                         % (repro.__file__, SRC))
        sys.exit(2)


class Report:
    """Metrics of one run plus the counts the JSON line carries."""

    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics = []
        self.notes = []
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def add(self, name, value, unit, samples=None, note=""):
        self.metrics.append((name, value, unit, samples, note))

    def note(self, text):
        self.notes.append(text)

    def emit(self, json_names):
        print("workload %s  seed %d  trace %d" % (self.workload, self.seed,
                                                  self.trace))
        for name, value, unit, samples, note in self.metrics:
            shown = "n/a" if value is None else "%.6g" % (value,)
            count = "" if samples is None else "n=%d" % (samples,)
            print("  %-32s %14s %-6s %-8s %s" % (name, shown, unit, count,
                                                 note))
        for text in self.notes:
            print("  # " + text)
        print("  correct=%s attempted=%d failed=%d"
              % (self.correct, self.attempted, self.failed))
        metrics = {}
        for name, value, unit, _samples, _note in self.metrics:
            if name in json_names and value is not None:
                metrics[name] = {"value": value, "unit": unit}
        missing = sorted(set(json_names) - set(metrics))
        if missing:
            raise RuntimeError("metrics not measured: %s" % (missing,))
        print(json.dumps({"correct": self.correct,
                          "attempted": self.attempted,
                          "failed": self.failed, "metrics": metrics}))


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def ms(value):
    return None if value is None else 1e3 * value


def timed_setups(workload, seed):
    """Set up repeatedly; returns ``(env, seconds of each set-up)``.

    Only the last set-up is kept; each earlier one is closed and freed
    first, so peak memory reflects one set-up.
    """
    seconds = []
    env = None
    while len(seconds) < SETUP_MAX_REPEATS and (
            len(seconds) < SETUP_REPEATS or sum(seconds) < SETUP_SECONDS):
        if env is not None:
            env.close()
            env = None
            gc.collect()
        begin = perf_counter()
        env = workload.setup(seed)
        seconds.append(perf_counter() - begin)
    return env, seconds


# ----------------------------------------------------------------------
# Closed loops: adhoc_plan, deep_topk, ingest_mixed
# ----------------------------------------------------------------------
def check_closed(env, records):
    """Count reads with a wrong answer (checked against the data each
    read saw); returns ``(wrong, first_reason)``."""
    oracle = Oracle(env.dataset)
    wrong = 0
    reason = None
    for record in records:
        if not record.is_read or record.error is not None:
            continue
        why = oracle.check(record.op[1], record.answer, record.sizes)
        if why is not None:
            wrong += 1
            reason = reason or "%r: %s" % (record.op[1], why)
    return wrong, reason


def closed_end_to_end(report, records, wall, wrong):
    errors = [r for r in records if r.error is not None]
    report.attempted = len(records)
    report.failed = len(errors) + wrong
    if errors:
        report.note("first error: %s" % (errors[0].error,))
    reads = [r.seconds for r in records if r.is_read and r.error is None]
    writes = [r.seconds for r in records
              if not r.is_read and r.error is None]
    report.add("failed_frac", report.failed / report.attempted, "ratio",
               report.attempted)
    report.add("success_frac", 1.0 - report.failed / report.attempted,
               "ratio", report.attempted, "1 - failed_frac")
    report.add("query_p50_ms", ms(percentile(reads, 0.5)), "ms", len(reads))
    report.add("query_p90_ms", ms(percentile(reads, 0.9)), "ms", len(reads))
    report.add("throughput_qps", (report.attempted - report.failed) / wall,
               "1/s", report.attempted, "completed operations / %.2f s"
               % (wall,))
    report.add("write_p50_ms", ms(percentile(writes, 0.5)), "ms",
               len(writes), "insert and analyze")
    report.add("write_p90_ms", ms(percentile(writes, 0.9)), "ms",
               len(writes))
    for name in ("interactive_p50_ms", "interactive_p99_ms",
                 "batch_first_p50_ms", "batch_p50_ms", "max_rate_qps"):
        report.add(name, None, "ms" if name.endswith("ms") else "1/s",
                   None, "serve_mixed only")


def run_closed_workload(workload, seed, seconds, trace):
    report = Report(workload.name, seed, trace)
    if not trace:
        env, setups = timed_setups(workload, seed)
        records, wall = run_closed(workload, env, seed, seconds)
        env.close()
        rss = peak_rss_mb()
        wrong, reason = check_closed(env, records)
        report.add("setup_s", median(setups), "s",
                   len(setups), "median of set-ups")
        report.add("peak_rss_mb", rss, "MB")
        closed_end_to_end(report, records, wall, wrong)
    else:
        env = workload.setup(seed)
        records, wall = run_closed(workload, env, seed, seconds,
                                   keep_reports=True)
        env.close()
        wrong, reason = check_closed(env, records)
        report.attempted = len(records)
        report.failed = wrong + sum(1 for r in records if r.error)
        env = None
        gc.collect()
        traced_closed(report, workload, seed, records, wrong)
    if reason:
        report.note("first wrong answer: %s" % (reason,))
    report.correct = report.correct and wrong == 0
    return report


def traced_closed(report, workload, seed, records, wrong):
    """Replay ``records`` through the pipeline, then run the probes."""
    spans = Spans()
    env = workload.setup(seed, spans=spans)
    oracle = Oracle(env.dataset)
    pipeline = Pipeline(spans)
    if workload.name != "adhoc_plan":
        warm_pipeline(env, records, pipeline, spans)
    stats = env.db.plan_cache.stats()
    mismatches, replay_wrong, replay_total = replay_closed(
        workload, env, records, pipeline, spans, oracle)
    after = env.db.plan_cache.stats()
    untraced_total = sum(r.seconds for r in records)
    depth_errors = [row["depth_error"] for r in records
                    if r.report is not None
                    for row in r.report.estimate_accuracy()
                    if row["kind"] == "rank_join"]
    lags = [r.lag for r in records]
    probes = run_probes(workload, env, [r.op for r in records], spans,
                        oracle, pipeline, seed)
    env.close()
    report.correct = (report.correct and mismatches == 0
                      and replay_wrong == 0 and probes.wrong == 0)
    report.note("decomposition: %d of %d reads differ from the entry "
                "point's rows" % (mismatches,
                                  sum(1 for r in records if r.is_read)))
    layer_metrics(report, spans, pipeline, probes, stats, after,
                  replay_total, depth_errors)
    report.add("loadgen.lag_p99_ms", ms(percentile(lags, 0.99)), "ms",
               len(lags), "closed loop: gap between operations")
    report.add("trace.overhead_ratio", replay_total / untraced_total,
               "ratio", len(records), "traced %.3f s / untraced %.3f s"
               % (replay_total, untraced_total))


def warm_pipeline(env, records, pipeline, spans):
    """Plan every distinct read of a prepared stream through the
    pipeline on an empty plan cache, so optimize is timed on warm
    workloads too."""
    spans.phase = "warmup"
    seen = set()
    for db in env.databases():
        db.plan_cache.invalidate()
    for record in records:
        op = record.op
        if op[0] in ("read", "shard") and op[1] not in seen:
            seen.add(op[1])
            db = env.shard_db if op[0] == "shard" else env.db
            pipeline.run(db, op[1])


def run_probes(workload, env, ops, spans, oracle, pipeline, seed):
    """Every probe on the shapes of ``ops``, the run's operations."""
    spans.phase = "probe"
    result = ProbeResult()
    shapes = probe_shapes(ops)
    traced.guard_probe(env, shapes, spans, oracle, result)
    traced.instalment_probe(env, shapes, spans, oracle, result)
    if workload.name != "serve_mixed":
        traced.server_probe(env, shapes, spans, oracle, result)
    shard_shapes = [op[1] for op in ops if op[0] == "shard"][:1]
    if env.shard_db is not None:
        env.extra["probe_shard_db"] = env.shard_db
    traced.shard_probe(env, shard_shapes or shapes, spans, oracle, result)
    big = workload.name in ("deep_topk", "ingest_mixed")
    traced.regret_probe(env, shapes[:BIG_REGRET_SHAPES] if big else shapes,
                        oracle, result)
    if workload.name != "ingest_mixed":
        traced.write_probe(env, shapes[0], spans, oracle, result, pipeline,
                           rng_for(seed, 50))
    return result


SHARES = (
    ("share.parse", ("sql.parse",)),
    ("share.plan_cache", ("plan_cache.fingerprint", "plan_cache.lookup",
                          "plan_cache.put")),
    ("share.optimize", ("optimizer.optimize",)),
    ("share.build", ("builder.build",)),
    ("share.operators", ("operators.open", "operators.drain",
                         "operators.close")),
    ("share.storage", ("storage.insert", "storage.analyze")),
)


def layer_metrics(report, spans, pipeline, probes, stats, after,
                  replay_total, depth_errors):
    """Every per-layer metric from the spans and probe results."""
    lookups = spans.durations("plan_cache.lookup")
    hits = after["hits"] - stats["hits"]
    misses = after["misses"] - stats["misses"]
    memo = pipeline.memo_classes
    runs = pipeline.runs
    stream = ("stream", "after_write")
    after_write = ("after_write", "probe_after_write")

    def phase_mean(name, phases, scale=1e3):
        values = [v for p in phases for v in spans.durations(name, p)]
        return scale * sum(values) / len(values) if values else None

    report.add("sql.parse_ms", spans.mean("sql.parse"), "ms",
               len(spans.durations("sql.parse")))
    report.add("plan_cache.hit_rate", hits / max(1, hits + misses), "ratio",
               hits + misses, "replayed stream")
    report.add("plan_cache.lookup_us",
               1e6 * (spans.total("plan_cache.fingerprint") + sum(lookups))
               / max(1, len(lookups)), "us", len(lookups),
               "fingerprint + get, per get")
    report.add("plan_cache.evictions", after["evictions"] - stats["evictions"],
               "count")
    report.add("optimizer.optimize_ms", spans.mean("optimizer.optimize"),
               "ms", len(spans.durations("optimizer.optimize")))
    report.add("optimizer.memo_classes",
               sum(memo) / len(memo) if memo else None, "count", len(memo))
    report.add("optimizer.depth_error",
               sum(depth_errors) / len(depth_errors) if depth_errors else 0.0,
               "ratio", len(depth_errors), "mean over rank joins")
    regret = probes.regret
    hits_top1 = sum(1 for _s, default, _w, best in regret
                    if default <= best * HIT_SLACK)
    report.add("optimizer.top1_hit_rate", hits_top1 / len(regret), "ratio",
               len(regret))
    report.add("optimizer.regret_ratio",
               sum(default / best for _s, default, _w, best in regret)
               / len(regret), "ratio", len(regret),
               "mean default/fastest")
    for shape, default, winner, best in regret:
        report.note("regret %r: default %.2f ms, fastest %s %.2f ms"
                    % (shape, 1e3 * default, winner, 1e3 * best))
    report.add("builder.build_ms", spans.mean("builder.build"), "ms",
               len(spans.durations("builder.build")))
    for name in ("open", "drain", "close"):
        span = "operators." + name
        report.add(span + "_ms", phase_mean(span, ("stream",)), "ms",
                   len(spans.durations(span, "stream")))
    report.add("operators.open_after_write_ms",
               phase_mean("operators.open", after_write), "ms",
               sum(len(spans.durations("operators.open", phase))
                   for phase in after_write))
    pulled = sum(entry[0] for entry in runs)
    rows = sum(entry[1] for entry in runs)
    report.add("operators.pulled_per_row", pulled / max(1, rows), "ratio",
               len(runs))
    report.add("operators.buffer_max",
               max((entry[2] for entry in runs), default=0), "count",
               len(runs))
    report.add("storage.load_s", spans.total("storage.load"), "s")
    report.add("storage.insert_us", spans.mean("storage.insert", 1e6), "us",
               len(spans.durations("storage.insert")))
    report.add("storage.analyze_ms", spans.mean("storage.analyze"), "ms",
               len(spans.durations("storage.analyze")))
    report.add("robustness.guard_ratio", probes.guard_ratio, "ratio", None,
               "execute_guarded / execute, same warm queries")
    report.add("robustness.instalment_ms", spans.mean("robustness.instalment"),
               "ms", probes.instalments)
    report.add("robustness.instalments_per_query",
               probes.instalments / max(1, probes.chains), "ratio",
               probes.chains)
    report.add("robustness.recovery_paths", probes.recovery_paths, "count",
               probes.chains, "recovery actions besides suspend/resume")
    server = probes.server
    report.add("server.admit_ms", spans.mean("server.submit"), "ms",
               len(spans.durations("server.submit")))
    waits = server["waits"]
    report.add("server.queue_wait_ms",
               ms(sum(waits) / len(waits)) if waits else None, "ms",
               len(waits))
    for queue_class, values in sorted(server["class_waits"].items()):
        report.add("server.queue_wait_%s_ms" % (queue_class,),
                   ms(sum(values) / len(values)), "ms", len(values))
    report.add("server.preemptions_per_query",
               server["preemptions"] / max(1, server["queries"]), "ratio",
               server["queries"])
    report.add("server.rejected", server["rejected"], "count")
    report.add("server.shed", server["shed"], "count")
    report.add("shard_pool.query_ms", spans.mean("shard_pool.query"), "ms",
               len(spans.durations("shard_pool.query")))
    report.add("shard_pool.speedup", probes.shard_speedup, "ratio", None,
               "serial / shards=2, same queries")
    for name, layers in SHARES:
        busy = sum(spans.total(layer, phase) for layer in layers
                   for phase in stream)
        report.add(name, busy / replay_total, "ratio", None,
                   "of replayed operation time")


# ----------------------------------------------------------------------
# Open loop: serve_mixed
# ----------------------------------------------------------------------
def check_outcomes(env, outcomes):
    oracle = Oracle(env.dataset)
    wrong = 0
    reason = None
    for outcome in outcomes:
        if not outcome.ok:
            continue
        why = oracle.check(outcome.arrival.shape, outcome.answer)
        if why is not None:
            wrong += 1
            reason = reason or "%r: %s" % (outcome.arrival.shape, why)
    return wrong, reason


def run_serve(workload, seed, seconds, trace):
    report = Report(workload.name, seed, trace)
    if trace:
        env = workload.setup(seed)
        setups = None
    else:
        env, setups = timed_setups(workload, seed)
    reference, depths, saturation, ladder, rss = run_open(
        workload, env, seed, seconds)
    env.close()
    everything = (reference + saturation["outcomes"]
                  + [o for rung in ladder for o in rung["outcomes"]])
    wrong, reason = check_outcomes(env, everything)
    counted = reference + saturation["outcomes"]
    report.attempted = len(counted)
    report.failed = (sum(1 for o in counted if not o.ok)
                     + check_outcomes(env, counted)[0])
    report.correct = wrong == 0
    if reason:
        report.note("first wrong answer: %s" % (reason,))
    errors = [o.error for o in everything if o.error]
    if errors:
        report.note("first error: %s" % (errors[0],))
    if env.extra["misclassed"]:
        report.note("%d analytics shapes cost no more than the interactive "
                    "threshold" % (env.extra["misclassed"],))
    if trace:
        env = None
        gc.collect()
        traced_serve(report, workload, seed, seconds, reference)
        return report
    interactive = [o.latency for o in reference
                   if o.ok and not o.arrival.analytics]
    deep = [o for o in reference if o.ok and o.arrival.analytics]
    passed = [rung for rung in ladder if rung["passed"]]
    best = max(passed, key=lambda rung: rung["rate"]) if passed else None
    report.add("setup_s", median(setups), "s",
               len(setups), "median of set-ups")
    report.add("peak_rss_mb", rss, "MB", None, "through the reference window")
    report.add("failed_frac", report.failed / report.attempted, "ratio",
               report.attempted, "reference and closed-loop phases")
    report.add("success_frac", 1.0 - report.failed / report.attempted,
               "ratio", report.attempted, "1 - failed_frac")
    report.add("query_p50_ms", ms(percentile(interactive, 0.5)), "ms",
               len(interactive), "= interactive_p50_ms")
    report.add("query_p90_ms", ms(percentile(interactive, 0.9)), "ms",
               len(interactive), "interactive, from due time")
    report.add("throughput_qps", saturation["qps"], "1/s",
               len(saturation["outcomes"]),
               "completed/s, %d closed-loop clients through the server"
               % (CLIENTS,))
    report.add("write_p50_ms", None, "ms", None, "no writes")
    report.add("write_p90_ms", None, "ms", None, "no writes")
    report.add("interactive_p50_ms", ms(percentile(interactive, 0.5)), "ms",
               len(interactive))
    report.add("interactive_p99_ms", ms(percentile(interactive, 0.99)),
               "ms", len(interactive))
    report.add("batch_first_p50_ms",
               ms(percentile([o.first_batch for o in deep], 0.5)), "ms",
               len(deep))
    report.add("batch_p50_ms", ms(percentile([o.latency for o in deep], 0.5)),
               "ms", len(deep))
    report.add("max_rate_qps", best["rate"] if best else None, "1/s",
               len(ladder), "ladder rungs %.0f%% apart" %
               (100 * (RUNG_RATIO - 1),))
    report.note("backlog test: depth at end <= depth at midpoint; "
                "reference window depths %d -> %d" % depths)
    for rung in ladder:
        report.note("rung %.1f qps: %s (%d arrivals)"
                    % (rung["rate"], "pass" if rung["passed"] else "fail",
                       len(rung["outcomes"])))
    return report


def traced_serve(report, workload, seed, seconds, reference):
    spans = Spans()
    env = workload.setup(seed, spans=spans)
    oracle = Oracle(env.dataset)
    pipeline = Pipeline(spans)
    interactive, analytics = workload.pools()
    spans.phase = "warmup"
    env.db.plan_cache.invalidate()
    for shape in interactive + analytics:
        pipeline.run(env.db, shape)
    spans.phase = "server"
    outcomes, _depths = replay_reference(workload, env, seed, seconds, spans)
    wrong, _reason = check_outcomes(env, outcomes)
    # The same queries again, one at a time, split across the layers.
    spans.phase = "stream"
    stats = env.db.plan_cache.stats()
    replay_total = 0.0
    for outcome in reference:
        begin = perf_counter()
        answer = pipeline.run(env.db, outcome.arrival.shape)
        replay_total += perf_counter() - begin
        if oracle.check(outcome.arrival.shape, answer) is not None:
            wrong += 1
    after = env.db.plan_cache.stats()
    mismatches = 0
    spans.phase = "check"
    for shape in interactive + analytics:
        entry = answer_of(shape, env.db.execute(
            sql_of(shape), batch_size=256).rows)
        if entry != pipeline.run(env.db, shape):
            mismatches += 1
    depth_errors = []
    for shape in interactive[:3]:
        depth_errors.extend(
            row["depth_error"] for row in env.db.execute(
                sql_of(shape)).estimate_accuracy()
            if row["kind"] == "rank_join")
    probes = run_probes(workload, env,
                        [("read", o.arrival.shape) for o in reference],
                        spans, oracle, pipeline, seed)
    env.close()
    server = probes.server
    for outcome in outcomes:
        if outcome.state is None or outcome.rejected:
            server["rejected"] += int(outcome.rejected)
            continue
        server["queries"] += 1
        server["preemptions"] += outcome.preemptions
        server["shed"] += int(outcome.shed)
        if outcome.wait is not None:
            server["waits"].append(outcome.wait)
            server["class_waits"].setdefault(outcome.queue_class,
                                             []).append(outcome.wait)
    report.correct = (report.correct and wrong == 0 and mismatches == 0
                      and probes.wrong == 0)
    report.note("decomposition: %d of %d pool shapes differ from "
                "Database.execute" % (mismatches,
                                      len(interactive) + len(analytics)))
    layer_metrics(report, spans, pipeline, probes, stats, after,
                  replay_total, depth_errors)
    lags = [o.lag for o in reference if o.lag is not None]
    report.add("loadgen.lag_p99_ms", ms(percentile(lags, 0.99)), "ms",
               len(lags), "open loop: submit time - due time")
    untraced = sum(o.latency for o in reference if o.ok)
    traced_sum = sum(o.latency for o in outcomes if o.ok)
    report.add("trace.overhead_ratio", traced_sum / untraced, "ratio",
               len(outcomes), "summed latency, traced / untraced")


# ----------------------------------------------------------------------
def stop_children():
    """Stop every process the run started and wait for each to end.

    ``execute(shards=2)`` makes the program fork shard-pool workers and
    register its shared-memory segment with multiprocessing's resource
    tracker, a process of its own that otherwise outlives this one.
    The pools go first, then their workers, which hold the tracker's
    pipe open; a pool freed after the tracker stops would restart it.
    """
    for env in list(workloads.Env.live):
        env.close()
    for child in multiprocessing.active_children():
        child.join(5)
        if child.is_alive():
            child.terminate()
            child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def on_sigterm(_signum, _frame):
    sys.exit(1)


def run_one(name, seed, seconds, trace):
    if name == "serve_mixed":
        return run_serve(serve.ServeMixed(), seed, seconds, trace)
    return run_closed_workload(workloads.WORKLOADS[name], seed, seconds,
                               trace)


def run_all(args):
    """Each workload in a fresh child process, one after another."""
    combined = {}
    ok = True
    for name in NAMES:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            ok = False
            continue
        combined[name] = json.loads(lines[-1])
        ok = ok and combined[name]["correct"]
    print(json.dumps({"correct": ok, "workloads": combined}))
    return 0 if ok and len(combined) == len(NAMES) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    end_to_end, per_layer = benchmark_spec()
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        report = run_one(args.workload, args.seed, args.seconds, args.trace)
    finally:
        stop_children()
    report.emit(per_layer if args.trace else end_to_end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
