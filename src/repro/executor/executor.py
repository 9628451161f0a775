"""Plan execution with instrumentation collection.

The :class:`Executor` ties the pipeline together: logical query ->
optimizer -> plan builder -> operator tree -> rows, and snapshots every
operator's counters into an :class:`ExecutionReport` -- the measured
depths and buffer sizes the Section 5 experiments read.
"""

from repro.optimizer.builder import PlanBuilder
from repro.optimizer.enumerator import Optimizer
from repro.observability.tracer import NULL_TRACER
from repro.optimizer.plans import AnyKPlan, RankJoinPlan, ScoreMergePlan


class OperatorSnapshot:
    """Frozen instrumentation for one operator after a run.

    ``depth`` is the rank-join depth: the deepest prefix consumed from
    any input (``max(pulled)``; 0 for leaves).  The per-input detail
    stays available as ``pulled``.  The ``time_*_ns`` fields carry the
    per-phase inclusive wall-clock collected under tracing (all zero
    for untraced runs).
    """

    __slots__ = ("name", "description", "rows_out", "pulled", "max_buffer",
                 "depth", "plan", "time_open_ns", "time_next_ns",
                 "time_close_ns", "next_calls", "pull_ns")

    def __init__(self, operator):
        self.name = operator.name
        self.description = operator.describe()
        self.rows_out = operator.stats.rows_out
        self.pulled = tuple(operator.stats.pulled)
        self.max_buffer = operator.stats.max_buffer
        self.depth = max(self.pulled, default=0)
        self.plan = operator.plan
        self.time_open_ns = operator.stats.time_open_ns
        self.time_next_ns = operator.stats.time_next_ns
        self.time_close_ns = operator.stats.time_close_ns
        self.next_calls = operator.stats.next_calls
        self.pull_ns = tuple(operator.stats.pull_ns)

    @property
    def total_time_ns(self):
        return self.time_open_ns + self.time_next_ns + self.time_close_ns

    def __repr__(self):
        return "OperatorSnapshot(%s, pulled=%s, buffer=%d)" % (
            self.description, list(self.pulled), self.max_buffer,
        )


class ExecutionReport:
    """Rows plus per-operator instrumentation from one execution.

    ``result`` may be an OptimizationResult or a zero-argument callable
    producing one: forced-plan runs (:meth:`Executor.run_plan`) pass a
    thunk so the optimizer only runs if the report is actually asked
    for estimates.

    ``recovery`` is the :class:`~repro.robustness.recovery.RecoveryLog`
    of a guarded execution (``None`` for plain runs): it records
    whether the query ran straight through, continued after mid-query
    re-estimation, or fell back to the blocking sort plan.

    ``telemetry`` is the :class:`~repro.observability.Telemetry` bundle
    of a traced execution (``None`` otherwise): span tree, metrics
    registry and event log for this run.

    ``suspension`` is a
    :class:`~repro.robustness.checkpoint.SuspendedQuery` when a
    guarded, checkpointed execution hit its budget and paused instead
    of raising (``None`` otherwise); ``rows`` then holds the partial
    prefix delivered so far.

    ``feedback`` is the summary dict returned by
    :meth:`~repro.feedback.store.FeedbackStore.observe_report` when the
    serving database (or guarded executor) has an adaptive feedback
    store attached -- the fingerprint, smoothed depth error, and
    learned selectivities this execution contributed (``None``
    otherwise).
    """

    def __init__(self, query, result, rows, operators, recovery=None,
                 telemetry=None, suspension=None):
        self.query = query
        if callable(result):
            self._optimization = None
            self._optimize = result
        else:
            self._optimization = result
            self._optimize = None
        self.rows = rows
        self.operators = operators
        self.recovery = recovery
        self.telemetry = telemetry
        self.suspension = suspension
        self.feedback = None

    @property
    def suspended(self):
        """True when this report carries a resumable suspended query."""
        return self.suspension is not None

    @property
    def optimization(self):
        """The OptimizationResult (computed lazily for forced plans)."""
        if self._optimization is None and self._optimize is not None:
            self._optimization = self._optimize()
            self._optimize = None
        return self._optimization

    @property
    def best_plan(self):
        return self.optimization.best_plan

    def rank_join_snapshots(self):
        """Snapshots of the rank-join operators, outermost first.

        Every operator built from a rank-join or any-k plan node counts
        (HRJN, NRJN, J*, any-k, and per-shard rank joins), whatever its
        name.
        """
        return [snap for snap in self.operators
                if isinstance(snap.plan, (RankJoinPlan, AnyKPlan))]

    @property
    def timed(self):
        """True when any operator carries traced wall-clock timing."""
        return any(snap.total_time_ns for snap in self.operators)

    @staticmethod
    def _time_column(snap):
        return "  time=%.3fms" % (snap.total_time_ns / 1e6,)

    def explain(self):
        timed = self.timed
        lines = [self.optimization.explain(), "", "execution:"]
        for snap in self.operators:
            line = (
                "  %-50s rows_out=%-6d pulled=%-14s buffer=%d"
                % (snap.description, snap.rows_out, list(snap.pulled),
                   snap.max_buffer)
            )
            if timed:
                line += self._time_column(snap)
            lines.append(line)
        if self.recovery is not None:
            lines.append("")
            lines.append(self.recovery.describe())
        return "\n".join(lines)

    def analyze(self):
        """EXPLAIN ANALYZE: estimated vs actual, operator by operator.

        For rank-join operators the comparison is between the
        estimated depths from Algorithm Propagate (at each operator's
        propagated k) and the tuples actually pulled; for other
        operators, between the plan's estimated full cardinality and
        the rows it produced (which a top-k execution intentionally
        truncates -- the report marks those with ``<=``).  Traced runs
        add a per-operator elapsed-time column, and any run whose root
        is a rank-join plan ends with the estimate-accuracy summary
        (see :func:`repro.observability.export.estimate_accuracy`).
        """
        estimates = {}
        root_plan = self.optimization.best_plan
        if isinstance(root_plan, (RankJoinPlan, ScoreMergePlan)):
            k = self.query.k if self.query.is_ranking else (
                root_plan.cardinality
            )
            for plan, required, estimate in root_plan.propagate_depths(k):
                estimates[id(plan)] = (required, estimate)
        timed = self.timed
        lines = ["explain analyze:"]
        for snap in self.operators:
            plan = snap.plan
            if plan is None:
                line = "  %-46s actual rows=%d" % (snap.description,
                                                   snap.rows_out)
            elif (id(plan) in estimates
                    and estimates[id(plan)][1] is not None):
                required, estimate = estimates[id(plan)]
                line = (
                    "  %-46s k=%d est depth=%.0f (%.0f, %.0f) "
                    "actual depth=%d pulled=%s"
                    % (snap.description, round(required),
                       max(estimate.d_left, estimate.d_right),
                       estimate.d_left, estimate.d_right,
                       snap.depth, list(snap.pulled))
                )
            else:
                line = (
                    "  %-46s est rows<=%.0f actual rows=%d"
                    % (snap.description, plan.cardinality, snap.rows_out)
                )
            if timed:
                line += self._time_column(snap)
            lines.append(line)
        if estimates:
            lines.append("")
            lines.append(self.accuracy_summary())
        if self.feedback is not None:
            lines.append("")
            lines.append(self.feedback_summary())
        return "\n".join(lines)

    def feedback_summary(self):
        """Readable per-fingerprint view of this run's feedback.

        Shows what the adaptive store now believes about this query
        shape -- observation count, smoothed (EWMA) depth-estimate
        error across runs, and the learned selectivity of each join the
        run observed -- complementing :meth:`accuracy_summary`, which
        covers this run alone.
        """
        info = self.feedback
        error = ("%.0f%%" % (100.0 * info["depth_error"],)
                 if info.get("depth_error") is not None else "n/a")
        lines = [
            "feedback: fingerprint=%s observations=%d "
            "depth_error_ewma=%s" % (info["fingerprint"],
                                     info["observations"], error),
        ]
        for join in sorted(info.get("joins", ())):
            lines.append("  %s: learned s=%.2g"
                         % (join, info["joins"][join]))
        return "\n".join(lines)

    def estimate_accuracy(self):
        """Estimated-vs-measured rows per plan-bound operator.

        See :func:`repro.observability.export.estimate_accuracy` for
        the row schema; estimated depths are exactly the
        ``propagate_depths`` output the plan was costed with.
        """
        from repro.observability.export import estimate_accuracy

        return estimate_accuracy(self)

    def accuracy_summary(self):
        """Readable table over :meth:`estimate_accuracy`."""
        from repro.observability.export import format_accuracy

        return format_accuracy(self.estimate_accuracy())

    def __repr__(self):
        return "ExecutionReport(%d rows)" % (len(self.rows),)


class Executor:
    """One execution pipeline over one catalog: plan -> build -> drive
    -> report.

    Every entry point -- plain, prepared, guarded, resumed, scheduled
    and recovered queries -- runs through :meth:`run` or
    :meth:`resume`.  The drive stage attaches a policy for each
    argument that is present: a ``budget`` guard, depth-overrun
    recovery (``policy``), checkpoint/suspend (``checkpoint``),
    durability (``store``) and, when the executor has one, the
    ``feedback`` store.  Without a recovery policy the tree drains
    through the uninterruptible :meth:`_drain`; with one, through the
    recovering drain of
    :class:`~repro.robustness.recovery.RecoveringDrive`.

    ``metrics`` optionally names a persistent
    :class:`~repro.observability.metrics.MetricsRegistry` (the serving
    database's registry) fed with batch-drain counters; per-run
    telemetry stays separate and opt-in.  ``budget`` and ``policy``
    are the defaults a run falls back to when it passes none.
    ``feedback`` attaches a :class:`~repro.feedback.store.FeedbackStore`:
    every report is observed into it, and the catalog plans with its
    learned statistics (the store becomes the catalog's overlay when
    none is attached yet).
    """

    def __init__(self, catalog, cost_model, config=None, metrics=None,
                 shard_pool=None, budget=None, policy=None, feedback=None):
        self.catalog = catalog
        self.optimizer = Optimizer(catalog, cost_model, config)
        self.builder = PlanBuilder(catalog, shard_pool=shard_pool)
        self.metrics = metrics
        self.budget = budget
        self.policy = policy
        self.feedback = feedback
        if feedback is not None and catalog.learned is None:
            catalog.attach_learned(feedback)

    def run(self, query, budget=None, telemetry=None, result=None,
            batch_size=None, policy=None, checkpoint=None, faults=None,
            store=None, query_id=None, fingerprint=None, on_plan=None):
        """Plan ``query``, execute it, and return the report.

        *Plan.*  ``result`` short-circuits plan choice with an
        already-computed
        :class:`~repro.optimizer.enumerator.OptimizationResult` (the
        plan-cache hit path); the caller is responsible for its
        freshness.  Otherwise the optimizer runs and ``on_plan``, when
        given, receives the result (the plan-cache fill).  A guarded run
        re-estimates selectivities on the plan it runs, so it runs a
        private copy of any plan it shares with a cache.

        *Build.*  ``faults`` optionally injects a
        :class:`~repro.robustness.faults.FaultPlan` into the built
        tree -- the entry point for chaos testing.

        *Drive.*  With a
        :class:`~repro.robustness.budget.ResourceBudget` the tree runs
        under an execution guard.  Without a ``policy`` a breach raises
        :class:`~repro.common.errors.BudgetExceededError` carrying the
        partial operator snapshots, and ``batch_size`` drains the root
        batch-at-a-time via
        :meth:`~repro.operators.base.Operator.next_batch` -- output is
        identical, Python call overhead is amortised across each batch.
        With a :class:`~repro.robustness.recovery.RecoveryPolicy` the
        run recovers from rank-join depth overruns, and the report's
        ``recovery`` records the path taken.  ``checkpoint`` (a
        :class:`~repro.robustness.checkpoint.CheckpointPolicy` or an
        ``int`` row cadence) then turns on state-preserving recovery:
        transient faults restore the last checkpoint, a budget breach
        yields ``report.suspension`` (resumable via :meth:`resume`)
        instead of raising, and a fallback decision migrates the live
        rank-join state.  ``store`` (a
        :class:`~repro.robustness.durability.CheckpointStore`) makes
        every such checkpoint durable under ``query_id`` (derived from
        the query fingerprint when omitted).

        *Report.*  With a :class:`~repro.observability.Telemetry` the
        run is traced end to end: an ``execute`` (or
        ``execute_guarded``) span covering ``optimize`` -> ``build`` ->
        ``open`` -> ``next`` -> ``close`` phases (with per-operator
        spans nested), optimizer events/counters from the MEMO,
        Propagate depth-assignment events, recovery decisions, and
        per-operator counters recorded after the drain.  The report's
        ``telemetry`` attribute carries the bundle.  ``fingerprint``
        (the query's, when the caller already has it) keys the feedback
        observation.
        """
        return self._execute(
            query, result, budget, policy, telemetry, on_plan=on_plan,
            fingerprint=fingerprint, batch_size=batch_size,
            checkpoint=checkpoint, faults=faults, store=store,
            query_id=query_id,
        )

    def resume(self, suspended, budget=None, policy=None, telemetry=None,
               checkpoint=None, store=None, query_id=None):
        """Continue a :class:`~repro.robustness.checkpoint.SuspendedQuery`.

        The plan is rebuilt from the suspended optimization result
        (operator names follow the plan's shape, so the rebuilt tree
        matches the checkpoint exactly), the checkpoint is restored
        into it, and the drain continues under a *fresh* guard with
        ``budget`` (guard accounting restarts from zero).  The returned
        report's rows include everything the suspended run already
        delivered.  A resumed run is always guarded: ``policy`` and
        ``checkpoint`` default to the executor's policy (or a default
        :class:`~repro.robustness.recovery.RecoveryPolicy`) and the
        suspension's checkpoint policy.

        A *pre-open* suspension carries no checkpoint -- the breach
        fired inside an atomic ``open()`` -- so the rebuilt tree starts
        from scratch.  Each pre-open restart in a suspension chain
        multiplies the resumed pull grant by
        :data:`~repro.robustness.recovery.PRE_OPEN_ESCALATION`, so
        resuming with the same too-small budget still clears the open.

        A suspension rehydrated from a durable snapshot
        (``suspended.durable``) whose state no longer fits the rebuilt
        plan restarts from scratch instead of failing: its snapshots in
        ``store`` are discarded and the report records the
        ``"restarted"`` recovery path.
        """
        return self._execute(
            suspended.query, suspended.result, budget, policy, telemetry,
            suspended=suspended, checkpoint=checkpoint, store=store,
            query_id=query_id,
        )

    def _execute(self, query, result, budget, policy, telemetry,
                 suspended=None, **stages):
        """Resolve the run defaults, then run the pipeline under the
        root span (traced runs only)."""
        if budget is None:
            budget = self.budget
        policy = policy or self.policy
        guarded = policy is not None or suspended is not None
        if telemetry is None:
            return self._pipeline(query, result, budget, policy, guarded,
                                  None, suspended, **stages)
        span = telemetry.tracer.begin(
            "execute_guarded" if guarded else "execute",
            tables=",".join(sorted(query.tables)),
            k=query.k if query.is_ranking else None,
        )
        try:
            return self._pipeline(query, result, budget, policy, guarded,
                                  telemetry, suspended, **stages)
        finally:
            telemetry.tracer.end(span)

    def _pipeline(self, query, result, budget, policy, guarded, telemetry,
                  suspended, on_plan=None, fingerprint=None,
                  batch_size=None, checkpoint=None, faults=None,
                  store=None, query_id=None):
        tracer = NULL_TRACER if telemetry is None else telemetry.tracer
        metrics = None if telemetry is None else telemetry.metrics
        # Plan.
        shared = result is not None
        if result is None:
            with tracer.span("optimize"):
                result = self.optimizer.optimize(query, telemetry=telemetry)
            if on_plan is not None:
                on_plan(result)
                shared = True
        elif telemetry is not None:
            with tracer.span("optimize", cached=True):
                pass  # Plan served from the cache: span records it.
        if guarded and shared and suspended is None:
            result = result.private_copy()
        # Build.
        with tracer.span("build"):
            root = self.builder.build_query(result)
        if faults is not None:
            from repro.robustness.faults import inject_faults

            root = inject_faults(root, faults, metrics=metrics)
        if telemetry is not None:
            self._record_propagate(telemetry, query, result)
            telemetry.instrument(root)
        # Drive.
        recovery = suspension = None
        if not guarded:
            rows = self._drain(root, batch_size, budget, tracer, metrics)
            operators = [OperatorSnapshot(op) for op in root.walk()]
        else:
            from repro.robustness.recovery import RecoveringDrive

            drive = RecoveringDrive(self, query, result, root, budget,
                                    policy, telemetry, checkpoint, store,
                                    query_id, suspended)
            rows, operators, suspension = drive.run()
            root, result, recovery = drive.root, drive.result, drive.recovery
            self._record_shard_recoveries(root, recovery)
        # Report.
        if telemetry is not None:
            telemetry.record_operators(operators)
            self._record_parallel(telemetry, root)
        elif self.metrics is not None:
            self._record_columnar(self.metrics, root)
        report = ExecutionReport(query, result, rows, operators,
                                 recovery=recovery, telemetry=telemetry,
                                 suspension=suspension)
        if self.feedback is not None:
            # Every path reports its observations in -- including
            # suspended instalments, whose partial depths still carry
            # selectivity evidence.
            report.feedback = self.feedback.observe_report(
                query, report, fingerprint=fingerprint)
        return report

    @staticmethod
    def _record_shard_recoveries(root, recovery):
        """Record which shard streams absorbed transient worker faults.

        A :class:`~repro.executor.shard_pool.ShardStream` retries
        failed pool tasks itself (the transient-fault retry policy
        applied per shard); the merge above it never notices.  The
        report still owes the operator a paper trail, so each recovered
        shard lands in the recovery log as a ``shard_retry`` event --
        which maps to the ``direct`` path, never escalating it.
        """
        from repro.executor.shard_pool import ShardStream
        from repro.robustness.recovery import RecoveryEvent

        for operator in root.walk():
            if not isinstance(operator, ShardStream):
                continue
            if operator.retries:
                recovery.record(RecoveryEvent(
                    "shard_retry", operator.name, None, None,
                    operator.stats.rows_out,
                    "absorbed %d transient shard fault(s) over %d task(s)"
                    % (operator.retries, operator.tasks),
                ))
            if operator.degraded:
                recovery.record(RecoveryEvent(
                    "shard_pool_degraded", operator.name, None, None,
                    operator.stats.rows_out,
                    "worker pool died (%d rebuild(s)); degraded to "
                    "inline shard execution" % (operator.pool_rebuilds,),
                ))

    @staticmethod
    def _record_columnar(metrics, root):
        """Feed fused-fast-path counters into a metrics registry.

        Tracing disables fusion (the tracer hooks per-pull), so these
        counters come from the *untraced* serving path and land in the
        persistent registry, not per-run telemetry.
        """
        from repro.operators.filters import Filter, Project

        for op in root.walk():
            if isinstance(op, (Filter, Project)) and op.fused_batches:
                metrics.counter(
                    "columnar_fused_batches_total",
                    "Batches served by the fused columnar fast path",
                ).inc(op.fused_batches, operator=op.name)
                metrics.counter(
                    "columnar_fused_rows_total",
                    "Rows produced by the fused columnar fast path",
                ).inc(op.fused_rows, operator=op.name)

    @staticmethod
    def _record_parallel(telemetry, root):
        """Feed shard/merge counters for sharded parallel executions."""
        from repro.executor.shard_pool import ShardStream
        from repro.operators.merge import ScoreMerge

        metrics = telemetry.metrics
        for op in root.walk():
            if isinstance(op, ScoreMerge):
                metrics.counter(
                    "merge_rows_total",
                    "Rows emitted by rank-aware ScoreMerge operators",
                ).inc(op.stats.rows_out, merge=op.name)
                metrics.gauge(
                    "merge_fanin",
                    "Ranked shard streams under each ScoreMerge",
                ).set(len(op.children), merge=op.name)
                for index, pulled in enumerate(op.stats.pulled):
                    metrics.counter(
                        "shard_rows_merged_total",
                        "Rows each shard contributed to its merge",
                    ).inc(pulled, merge=op.name, shard=index)
            elif isinstance(op, ShardStream):
                metrics.counter(
                    "shard_tasks_total",
                    "Worker-pool task windows dispatched per shard",
                ).inc(op.tasks, shard=op.name)
                if op.retries:
                    metrics.counter(
                        "shard_retries_total",
                        "Transient shard faults absorbed by retry",
                    ).inc(op.retries, shard=op.name)
                depth_gauge = metrics.gauge(
                    "shard_depth",
                    "Worker-kernel depth per shard input",
                )
                for index, pulled in enumerate(op.stats.pulled):
                    depth_gauge.set(pulled, shard=op.name, input=index)

    @staticmethod
    def _record_propagate(telemetry, query, result):
        """Log Algorithm Propagate's depth assignments as events."""
        plan = result.best_plan
        if not isinstance(plan, (RankJoinPlan, ScoreMergePlan)):
            return
        k = query.k if query.is_ranking else plan.cardinality
        depth_gauge = telemetry.metrics.gauge(
            "propagate_estimated_depth",
            "Propagate depth estimate per rank-join input",
        )
        for node, required, estimate in plan.propagate_depths(k):
            if estimate is None:
                telemetry.events.emit(
                    "propagate_depth", plan=node.describe(),
                    required=round(float(required), 2),
                )
                continue
            telemetry.events.emit(
                "propagate_depth", plan=node.describe(),
                required=round(float(required), 2),
                d_left=round(estimate.d_left, 2),
                d_right=round(estimate.d_right, 2),
            )
            depth_gauge.set(estimate.d_left, plan=node.describe(),
                            input=0)
            depth_gauge.set(estimate.d_right, plan=node.describe(),
                            input=1)

    def run_plan(self, query, plan, k=None, result=None):
        """Execute a specific plan (bypassing plan choice).

        Used by experiments that compare alternatives the optimizer
        would have pruned.  ``k`` truncates ranked output.  Callers
        that already optimized can pass their ``result`` to reuse it;
        otherwise the report optimizes lazily, only if its estimate
        side (``optimization`` / ``analyze``) is actually consulted --
        forced-plan experiments never pay for plan choice twice.
        """
        from repro.operators.topk import Limit

        root = self.builder.build(plan)
        if k is not None:
            root = Limit(root, k)
        rows = list(root)
        operators = [OperatorSnapshot(op) for op in root.walk()]
        if result is None:
            def result(_optimizer=self.optimizer, _query=query):
                return _optimizer.optimize(_query)
        return ExecutionReport(query, result, rows, operators)

    def _drain(self, root, batch_size, budget=None, tracer=NULL_TRACER,
               metrics=None):
        """The uninterruptible drain: open, pull until exhausted, close.

        Row- or batch-at-a-time; under a ``budget`` guard a breach
        raises out of the drain.  Each lifecycle phase runs under its
        executor span (no-ops untraced).
        """
        guard = None
        if budget is not None:
            from repro.robustness.budget import ExecutionGuard

            guard = ExecutionGuard(budget, metrics=metrics).attach(root)
            guard.start()
        try:
            with tracer.span("open"):
                root.open()
            try:
                if batch_size is not None:
                    with tracer.span("next", batch_size=batch_size):
                        return self._drain_batches(root, batch_size)
                rows = []
                with tracer.span("next"):
                    while True:
                        row = root.next()
                        if row is None:
                            return rows
                        rows.append(row)
            finally:
                with tracer.span("close"):
                    root.close()
        finally:
            if guard is not None:
                guard.detach()

    def _drain_batches(self, root, batch_size):
        """Pull batches from an open ``root`` until a short batch."""
        rows = []
        batches = 0
        while True:
            batch = root.next_batch(batch_size)
            rows.extend(batch)
            batches += 1
            if len(batch) < batch_size:
                break
        if self.metrics is not None:
            self.metrics.counter(
                "executor_batches_total", "root batches drained",
            ).inc(batches)
            self.metrics.counter(
                "executor_batch_rows_total",
                "rows delivered through batch drains",
            ).inc(len(rows))
        return rows
