"""Adaptive mid-query recovery from depth mis-estimation.

The Propagate estimates that size a rank-join plan (Section 4) are only
as good as the selectivity fed to them; ``bench_robustness.py`` shows
estimated depths drift by ``sqrt`` of the selectivity error.  The
:class:`GuardedExecutor` turns that weakness into a run-time contract:

1. before execution, every rank-join operator gets a *depth limit* --
   its Propagate estimate scaled by ``RecoveryPolicy.overrun_factor``;
2. when an operator's actual pulled depth hits the limit, execution
   pauses (the guard raises the recoverable ``DepthOverrunError``
   *before* the offending pull, so the operator tree stays consistent);
3. the executor re-estimates the join selectivity from the observed
   join hits, re-runs Algorithm Propagate over the plan with the
   corrected selectivity, and compares the re-costed rank-join plan
   against the blocking sort alternative (the paper's ``k*``
   crossover):

   * still cheaper -> **continue** the same in-flight execution with
     the updated depth limits;
   * no longer cheaper (or re-estimate budget exhausted) -> **fall
     back** to the sort plan retrieved via
     :meth:`Optimizer.fallback_plan` and restart under the same
     resource budget.

Every decision is recorded in a :class:`RecoveryLog` attached to the
:class:`~repro.executor.executor.ExecutionReport` as
``report.recovery``.
"""

import math

from repro.common.errors import (
    BudgetExceededError,
    CheckpointError,
    DepthOverrunError,
    OptimizerError,
    TransientFaultError,
)
from repro.executor.executor import ExecutionReport, Executor, OperatorSnapshot
from repro.operators.filters import Project
from repro.operators.topk import Limit
from repro.optimizer.plans import RankJoinPlan, ScoreMergePlan
from repro.robustness.budget import ExecutionGuard
from repro.robustness.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    SuspendedQuery,
)
from repro.robustness.faults import inject_faults

#: Floor for re-estimated selectivities (zero would blow up the model).
_MIN_SELECTIVITY = 1e-9


class RecoveryPolicy:
    """Tunables for depth-overrun monitoring and recovery.

    Parameters
    ----------
    overrun_factor:
        A rank-join may pull up to ``factor * estimated_depth`` tuples
        per input before recovery triggers.
    max_reestimates:
        Mid-query re-estimations allowed before the executor gives up
        on the rank-join plan and falls back to the sort plan.
    min_headroom:
        Depth limits never drop below ``pulled + min_headroom`` when
        updated, so a corrected estimate cannot immediately re-trip.
    monitor_depths:
        Master switch; off degrades :class:`GuardedExecutor` to plain
        budget enforcement.
    replan:
        Allow mid-flight re-planning on a depth overrun when the
        executor has a feedback store and checkpointing is active:
        the corrected selectivity is pushed into the learned-statistics
        overlay, the enumerator re-runs, and -- when the re-enumerated
        winner is structurally compatible -- the live operator state
        migrates into the new plan (see ``docs/adaptivity.md``).
        Inert without a feedback store.
    max_replans:
        Mid-flight re-plans allowed per execution; overruns past this
        take the ordinary re-estimate/fallback route.
    """

    def __init__(self, overrun_factor=2.0, max_reestimates=2,
                 min_headroom=16, monitor_depths=True, replan=True,
                 max_replans=1):
        if overrun_factor < 1.0:
            raise OptimizerError("overrun_factor must be >= 1.0")
        if max_reestimates < 0:
            raise OptimizerError("max_reestimates must be >= 0")
        if max_replans < 0:
            raise OptimizerError("max_replans must be >= 0")
        self.overrun_factor = overrun_factor
        self.max_reestimates = max_reestimates
        self.min_headroom = min_headroom
        self.monitor_depths = monitor_depths
        self.replan = replan
        self.max_replans = max_replans

    def __repr__(self):
        return ("RecoveryPolicy(factor=%g, max_reestimates=%d)"
                % (self.overrun_factor, self.max_reestimates))


class RecoveryEvent:
    """One recovery decision taken mid-query.

    Selectivity fields are ``None`` for decisions that carry no
    selectivity evidence (checkpoint resume, suspension).
    """

    __slots__ = ("kind", "operator", "observed_selectivity",
                 "assumed_selectivity", "rows_emitted", "detail")

    def __init__(self, kind, operator, observed_selectivity,
                 assumed_selectivity, rows_emitted, detail=""):
        self.kind = kind
        self.operator = operator
        self.observed_selectivity = observed_selectivity
        self.assumed_selectivity = assumed_selectivity
        self.rows_emitted = rows_emitted
        self.detail = detail

    def describe(self):
        suffix = ": " + self.detail if self.detail else ""
        if self.observed_selectivity is None:
            return ("%s at %s after %d rows%s"
                    % (self.kind, self.operator, self.rows_emitted, suffix))
        return ("%s at %s after %d rows (selectivity %.2g -> %.2g)%s"
                % (self.kind, self.operator, self.rows_emitted,
                   self.assumed_selectivity, self.observed_selectivity,
                   suffix))

    def __repr__(self):
        return "RecoveryEvent(%s)" % (self.describe(),)


class RecoveryLog:
    """Which path a guarded execution took, and why.

    ``path`` is one of:

    * ``"direct"`` -- no depth limit tripped; the plan ran as costed;
    * ``"reestimated"`` -- one or more mid-query re-estimations, then
      the rank-join plan completed under its updated budgets;
    * ``"replanned"`` -- a depth overrun triggered a mid-flight
      re-optimization with learned statistics, and the live operator
      state migrated into the re-enumerated plan;
    * ``"resumed"`` -- a transient fault was absorbed by restoring the
      last checkpoint;
    * ``"restarted"`` -- a durable snapshot was unusable (corrupt,
      format-mismatched, or structurally incompatible with the
      re-optimized plan) and the query reran from scratch instead;
    * ``"suspended"`` -- a budget breach was turned into a
      :class:`~repro.robustness.checkpoint.SuspendedQuery`;
    * ``"shed"`` -- the serving layer degraded the query under load
      (reduced ``k`` or forced sort-fallback planning) before running
      it;
    * ``"migrated"`` -- a fallback decision kept the live rank-join
      state instead of rebuilding the sort plan;
    * ``"fallback"`` -- execution switched to the blocking sort plan
      from scratch;
    * ``"deadline"`` -- the query's deadline expired mid-flight and
      the scheduler cancelled it with partial results.

    When several apply the most drastic wins (the order above).

    ``event_log`` optionally forwards every recorded decision into an
    observability :class:`~repro.observability.events.EventLog` as
    ``recovery`` events; ``metrics`` counts them into
    ``robustness_recovery_actions_total{action}``.  ``stats`` carries
    executor-filled run totals (``pulled_total``, ``pulled_at_resume``,
    ``checkpoints``, ``resumes``) for reports and tests.
    """

    #: Ascending drasticness; record() keeps the highest seen.
    _PRECEDENCE = ("direct", "reestimated", "replanned", "resumed",
                   "restarted", "suspended", "shed", "migrated",
                   "fallback", "deadline")
    _PATH_OF = {"reestimate": "reestimated", "replan": "replanned",
                "resume": "resumed", "restart": "restarted",
                "suspend": "suspended", "migrate": "migrated",
                "fallback": "fallback", "shard_retry": "direct",
                "shard_pool_degraded": "direct",
                "shed": "shed", "deadline_cancel": "deadline"}

    def __init__(self, event_log=None, metrics=None):
        from repro.robustness.counters import RobustnessCounters

        self.path = "direct"
        self.events = []
        self.event_log = event_log
        self.counters = RobustnessCounters(metrics)
        self.stats = {}

    def record(self, event):
        self.events.append(event)
        candidate = self._PATH_OF.get(event.kind, "reestimated")
        if (self._PRECEDENCE.index(candidate)
                > self._PRECEDENCE.index(self.path)):
            self.path = candidate
        self.counters.recovery_action(event.kind)
        if self.event_log is not None:
            self.event_log.emit(
                "recovery", action=event.kind, operator=event.operator,
                observed_selectivity=event.observed_selectivity,
                assumed_selectivity=event.assumed_selectivity,
                rows_emitted=event.rows_emitted, detail=event.detail,
            )

    def describe(self):
        lines = ["recovery: path=%s" % (self.path,)]
        for event in self.events:
            lines.append("  " + event.describe())
        if self.stats.get("checkpoints"):
            lines.append("  checkpoints: taken=%d resumes=%d"
                         % (self.stats["checkpoints"],
                            self.stats.get("resumes", 0)))
        return "\n".join(lines)

    def __repr__(self):
        return "RecoveryLog(path=%s, %d events)" % (
            self.path, len(self.events),
        )


class GuardedExecutor(Executor):
    """Executor with resource budgets and adaptive depth recovery.

    Drop-in :class:`~repro.executor.executor.Executor` replacement;
    :meth:`run` additionally enforces an optional
    :class:`~repro.robustness.budget.ResourceBudget` and recovers from
    rank-join depth overruns per the :class:`RecoveryPolicy`.  The
    returned report's ``recovery`` attribute records the path taken.

    ``feedback`` optionally attaches a
    :class:`~repro.feedback.store.FeedbackStore`: every execution then
    reports its observed statistics into the store, depth-overrun
    selectivity re-estimates are learned instead of discarded, and --
    with checkpointing active -- an overrun may re-plan mid-flight
    (see :class:`RecoveryPolicy`).  The store is also attached to the
    catalog as its learned-statistics overlay when none is attached
    yet, so re-enumeration sees the corrections.
    """

    def __init__(self, catalog, cost_model, config=None, budget=None,
                 policy=None, shard_pool=None, feedback=None):
        super().__init__(catalog, cost_model, config,
                         shard_pool=shard_pool)
        self.budget = budget
        self.policy = policy or RecoveryPolicy()
        self.feedback = feedback
        if feedback is not None and catalog.learned is None:
            catalog.attach_learned(feedback)

    # ------------------------------------------------------------------
    def run(self, query, budget=None, policy=None, telemetry=None,
            checkpoint=None, faults=None, parallel=None, result=None,
            store=None, query_id=None):
        """Run ``query`` under budgets and depth recovery.

        With a :class:`~repro.observability.Telemetry`, the run is
        traced (an ``execute_guarded`` root span with optimizer,
        per-operator and fallback spans nested) and every recovery
        decision flows into the telemetry event log alongside the
        optimizer's enumeration events.

        ``checkpoint`` enables state-preserving recovery: pass a
        :class:`~repro.robustness.checkpoint.CheckpointPolicy` or an
        ``int`` shorthand (checkpoint every N delivered rows).  With
        checkpointing active, a transient fault restores the last
        checkpoint instead of failing, a budget breach yields
        ``report.suspension`` (resumable via :meth:`resume`) instead of
        raising, and a fallback decision migrates the live rank-join
        state instead of rebuilding from scratch.  Without it behaviour
        is exactly the PR 1 contract (breaches raise, fallbacks rerun).

        ``faults`` optionally injects a
        :class:`~repro.robustness.faults.FaultPlan` into the built
        tree -- the executor-level entry point for chaos testing.

        ``result`` optionally supplies an already-optimized
        :class:`~repro.optimizer.enumerator.OptimizationResult` for the
        query, skipping the optimizer call -- the serving layer plans
        once at admission (possibly degraded under load) and executes
        that exact plan across budget instalments.

        ``store`` (a
        :class:`~repro.robustness.durability.CheckpointStore`) makes
        every checkpoint taken under this run durable: the manager's
        persist hook writes each snapshot to disk under ``query_id``
        (derived from the query fingerprint when omitted), so a
        killed process can continue the query from its last durable
        checkpoint.  Inert without a checkpoint policy.
        """
        if telemetry is None:
            return self._run_guarded(query, budget, policy, None,
                                     checkpoint, faults, parallel, result,
                                     store=store, query_id=query_id)
        span = telemetry.tracer.begin(
            "execute_guarded", tables=",".join(sorted(query.tables)),
        )
        try:
            return self._run_guarded(query, budget, policy, telemetry,
                                     checkpoint, faults, parallel, result,
                                     store=store, query_id=query_id)
        finally:
            telemetry.tracer.end(span)

    @staticmethod
    def _checkpoint_policy(checkpoint):
        """Normalise the ``checkpoint`` argument to a policy or None."""
        if checkpoint is None:
            return None
        if isinstance(checkpoint, CheckpointPolicy):
            return checkpoint
        return CheckpointPolicy(every_rows=int(checkpoint))

    @staticmethod
    def _durable_persist(store, query_id, query, policy):
        """The manager persist hook writing checkpoints to ``store``."""
        if store is None:
            return None
        if query_id is None:
            from repro.robustness.durability import default_query_id

            query_id = default_query_id(query)

        def persist(checkpoint, pre_open=False):
            store.save_checkpoint(query_id, query, checkpoint,
                                  policy=policy, pre_open=pre_open)

        return persist

    def _run_guarded(self, query, budget, policy, telemetry,
                     checkpoint=None, faults=None, parallel=None,
                     result=None, store=None, query_id=None):
        policy = policy or self.policy
        if budget is None:
            budget = self.budget
        shared = result is not None
        if result is None:
            if telemetry is not None:
                with telemetry.tracer.span("optimize"):
                    result = self.optimizer.optimize(query,
                                                     telemetry=telemetry)
            else:
                result = self.optimizer.optimize(query)
        if parallel not in (None, "auto"):
            from repro.executor.database import forced_parallel_result

            result = forced_parallel_result(
                self.catalog, self.optimizer.model, result, parallel,
            )
        if shared:
            # Recovery re-estimates selectivities on the plan nodes it
            # runs; a handed-in result is shared with the plan cache, so
            # the run (and any suspension of it) owns a copy.  Names the
            # builder already drew for the shared plan carry over.
            owned = result.private_copy()
            self.builder.adopt_rank_join_names(result.best_plan,
                                               owned.best_plan)
            result = owned
        metrics = telemetry.metrics if telemetry is not None else None
        events = telemetry.events if telemetry is not None else None
        recovery = RecoveryLog(event_log=events, metrics=metrics)
        root = self.builder.build_query(result)
        if faults is not None:
            root = inject_faults(root, faults, metrics=metrics)
        if telemetry is not None:
            Executor._record_propagate(telemetry, query, result)
            telemetry.instrument(root)
        guard = ExecutionGuard(budget, metrics=metrics).attach(root)
        self._install_depth_limits(guard, root, result, policy)
        manager = None
        checkpoint_policy = self._checkpoint_policy(checkpoint)
        if checkpoint_policy is not None:
            manager = CheckpointManager(
                root, checkpoint_policy, guard=guard, events=events,
                metrics=metrics,
                persist=self._durable_persist(store, query_id, query,
                                              checkpoint_policy))
        rows = []
        ctx = {"root": root, "result": result}
        guard.start()
        try:
            suspension = self._drain_guarded(
                query, ctx, guard, policy, recovery, manager,
                rows, opened=False, telemetry=telemetry,
            )
        finally:
            ctx["root"].close()
            guard.detach()
        report = self._finish(query, ctx["result"], ctx["root"], guard,
                              recovery, manager, telemetry, rows,
                              suspension)
        self._retire_durable(store, query_id, query, report)
        return report

    @staticmethod
    def _retire_durable(store, query_id, query, report):
        """Completed runs retire their durable snapshots.

        Once the query has delivered its full result there is nothing
        left to recover, and a stale snapshot lingering in the state
        directory would wrongly re-run the query on the next resume
        over it.  Suspended runs keep theirs -- that snapshot *is* the
        recovery state.
        """
        if store is None or report.suspension is not None:
            return
        from repro.robustness.durability import default_query_id

        store.discard(query_id or default_query_id(query))

    def _drain_guarded(self, query, ctx, guard, policy, recovery,
                       manager, rows, opened, telemetry=None):
        """Drain the tree under recovery; returns a suspension or None.

        ``ctx`` is a ``{"root": ..., "result": ...}`` dict the drain
        may *rewrite* when a mid-flight re-plan migrates execution into
        a new tree -- the caller closes ``ctx["root"]`` and builds the
        report from ``ctx["result"]``, so both always name the tree
        actually running.  ``rows`` is mutated in place (a checkpoint
        restore truncates it back to the snapshot).  The caller owns
        close/detach.
        """
        reestimates = 0
        replans = 0
        migrated = False
        while True:
            root = ctx["root"]
            try:
                # An overrun can fire while *opening* (e.g. an operator
                # materialising input up front); a failed open unwinds
                # cleanly, so recovery simply re-opens and carries on.
                if not opened:
                    root.open()
                    opened = True
                row = root.next()
            except DepthOverrunError as overrun:
                if self._replan_eligible(policy, manager, replans, opened):
                    if self._try_replan(query, ctx, guard, policy,
                                        recovery, manager, rows, overrun,
                                        telemetry):
                        replans += 1
                        continue
                allow_migrate = (
                    manager is not None
                    and manager.policy.migrate_on_fallback
                    and not migrated
                )
                decision = self._recover(
                    guard, ctx["result"], overrun, policy,
                    reestimates, len(rows), recovery, allow_migrate,
                )
                if decision == "migrate":
                    # The live tree keeps every tuple it consumed; with
                    # depth limits lifted, draining it to completion is
                    # the sort plan's answer without a single reread
                    # (the stream is already ranked).
                    migrated = True
                    guard.depth_limits.clear()
                    continue
                if decision == "fallback":
                    return None
                reestimates += 1
                continue
            except TransientFaultError:
                if manager is None or not manager.can_resume():
                    raise
                pulled_at = guard.total_pulled
                restored = manager.restore()
                rows[:] = restored
                recovery.stats["pulled_at_resume"] = pulled_at
                recovery.record(RecoveryEvent(
                    "resume", root.name, None, None, len(rows),
                    "restored checkpoint #%d after a transient fault"
                    % (manager.latest.sequence,),
                ))
                opened = root._opened
                continue
            except BudgetExceededError as breach:
                if manager is None or not manager.policy.suspend_on_budget:
                    raise
                if not opened:
                    # The breach fired inside open() -- an operator
                    # performing one atomic step up front (NRJN
                    # materialises its whole inner there).  The failed
                    # open unwound the tree, but operator *stats* kept
                    # the aborted open's pulls, so a state snapshot now
                    # would be inconsistent and a restore would
                    # double-count depth accounting.  Suspend without a
                    # checkpoint: resuming restarts the query under the
                    # new (larger) budget.
                    recovery.record(RecoveryEvent(
                        "suspend", root.name, None, None, 0,
                        "%s (pre-open: no state to checkpoint)"
                        % (breach,),
                    ))
                    if manager.persist is not None:
                        # No checkpoint exists, but the suspension must
                        # still survive a crash: persist a pre-open
                        # snapshot that restarts the query on recovery.
                        manager.persist(None, pre_open=True)
                    return SuspendedQuery(
                        query, ctx["result"], None, reason=str(breach),
                        executor=self, policy=manager.policy,
                        pre_open=True,
                    )
                # Breaches are raised before the offending pull, so the
                # tree is consistent right now: checkpoint it and hand
                # back a resumable handle instead of losing the work.
                taken = manager.checkpoint(rows, reason="suspend")
                recovery.record(RecoveryEvent(
                    "suspend", root.name, None, None, len(rows),
                    str(breach),
                ))
                return SuspendedQuery(
                    query, ctx["result"], taken, reason=str(breach),
                    executor=self, policy=manager.policy,
                )
            if row is None:
                return None
            rows.append(row)
            if manager is not None:
                manager.maybe_checkpoint(rows)

    def _finish(self, query, result, root, guard, recovery, manager,
                telemetry, rows, suspension):
        """Build the report (running the from-scratch fallback if due)."""
        self._record_shard_recoveries(root, recovery)
        if recovery.path == "fallback":
            rows, operators = self._run_fallback(query, result, guard,
                                                 telemetry)
        else:
            operators = [OperatorSnapshot(op) for op in root.walk()]
        recovery.stats["pulled_total"] = guard.total_pulled
        if manager is not None:
            recovery.stats["checkpoints"] = manager.checkpoints_taken
            recovery.stats["resumes"] = manager.resumes
        if telemetry is not None:
            telemetry.record_operators(operators)
        report = ExecutionReport(query, result, rows, operators,
                                 recovery=recovery, telemetry=telemetry,
                                 suspension=suspension)
        if self.feedback is not None:
            # Guarded, server, and resumed instalment runs all land
            # here, so every path reports its observations in --
            # including suspended queries, whose partial depths still
            # carry selectivity evidence.
            report.feedback = self.feedback.observe_report(query, report)
        return report

    @staticmethod
    def _record_shard_recoveries(root, recovery):
        """Record which shard streams absorbed transient worker faults.

        A :class:`~repro.executor.shard_pool.ShardStream` retries
        failed pool tasks itself (the PR 1 transient-fault policy
        applied per shard); the merge above it never notices.  The
        report still owes the operator a paper trail, so each recovered
        shard lands in the recovery log as a ``shard_retry`` event --
        which maps to the ``direct`` path, never escalating it.
        """
        from repro.executor.shard_pool import ShardStream

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

    def resume(self, suspended, budget=None, policy=None, telemetry=None,
               checkpoint=None, store=None, query_id=None):
        """Continue a :class:`SuspendedQuery` from its checkpoint.

        The plan is rebuilt from the suspended optimization result (the
        builder memoises operator names per plan node, so the rebuilt
        tree matches the checkpoint exactly), the checkpoint is
        restored into it, and the drain continues under a *fresh* guard
        with ``budget`` (pass a larger one; guard accounting restarts
        from zero).  The returned report's rows include everything the
        suspended run already delivered.

        A *pre-open* suspension (``suspended.pre_open``) carries no
        checkpoint -- the breach fired inside an atomic ``open()`` --
        so the rebuilt tree simply starts from scratch under the new
        budget.
        """
        policy = policy or self.policy
        if budget is None:
            budget = self.budget
        query, result = suspended.query, suspended.result
        metrics = telemetry.metrics if telemetry is not None else None
        events = telemetry.events if telemetry is not None else None
        recovery = RecoveryLog(event_log=events, metrics=metrics)
        root = self.builder.build_query(result)
        if telemetry is not None:
            telemetry.instrument(root)
        guard = ExecutionGuard(budget, metrics=metrics).attach(root)
        self._install_depth_limits(guard, root, result, policy)
        checkpoint_policy = (self._checkpoint_policy(checkpoint)
                             or suspended.policy or CheckpointPolicy())
        manager = CheckpointManager(
            root, checkpoint_policy, guard=guard, events=events,
            metrics=metrics,
            persist=self._durable_persist(store, query_id, query,
                                          checkpoint_policy))
        if suspended.checkpoint is None:
            rows = []
            recovery.record(RecoveryEvent(
                "resume", root.name, None, None, 0,
                "restarting pre-open suspension (was: %s)"
                % (suspended.reason,),
            ))
            manager.counters.resume("pre_open_restart")
        else:
            manager.adopt(suspended.checkpoint)
            rows = manager.restore(root=root, kind="suspended")
            recovery.record(RecoveryEvent(
                "resume", root.name, None, None, len(rows),
                "resumed suspended query (was: %s)" % (suspended.reason,),
            ))
        ctx = {"root": root, "result": result}
        guard.start()
        try:
            suspension = self._drain_guarded(
                query, ctx, guard, policy, recovery, manager,
                rows, opened=root._opened, telemetry=telemetry,
            )
        finally:
            ctx["root"].close()
            guard.detach()
        report = self._finish(query, ctx["result"], ctx["root"], guard,
                              recovery, manager, telemetry, rows,
                              suspension)
        self._retire_durable(store, query_id, query, report)
        return report

    # ------------------------------------------------------------------
    # Depth limits from Algorithm Propagate
    # ------------------------------------------------------------------
    def _query_k(self, result):
        query = result.query
        if query.is_ranking:
            return float(query.k)
        return max(1.0, result.best_plan.cardinality)

    def _propagated_limits(self, result):
        """``{id(plan): (d_left, d_right)}`` for every rank-join node."""
        plan = result.best_plan
        if not isinstance(plan, (RankJoinPlan, ScoreMergePlan)):
            return {}
        limits = {}
        for node, _required, estimate in plan.propagate_depths(
                self._query_k(result)):
            if estimate is not None:
                limits[id(node)] = (estimate.d_left, estimate.d_right)
        return limits

    def _install_depth_limits(self, guard, root, result, policy):
        if not policy.monitor_depths:
            return
        estimates = self._propagated_limits(result)
        if not estimates:
            return
        for operator in root.walk():
            if operator.plan is not None and id(operator.plan) in estimates:
                d_left, d_right = estimates[id(operator.plan)]
                # NRJN rescans its inner in full regardless of k (it is
                # materialised on open): only the ranked outer depth is
                # model-bounded.
                right_limit = (None if self._full_inner(operator.plan)
                               else self._scaled(d_right, policy))
                guard.set_depth_limit(operator, (
                    self._scaled(d_left, policy), right_limit,
                ))

    @staticmethod
    def _scaled(depth, policy):
        return int(math.ceil(depth * policy.overrun_factor)) \
            + policy.min_headroom

    @staticmethod
    def _full_inner(plan):
        """True when the plan's right input is consumed in full."""
        return getattr(plan, "operator", None) == "nrjn"

    # ------------------------------------------------------------------
    # Mid-flight re-planning
    # ------------------------------------------------------------------
    def _replan_eligible(self, policy, manager, replans, opened):
        """Cheap gate before attempting a mid-flight re-plan."""
        return (self.feedback is not None
                and policy.replan
                and replans < policy.max_replans
                and manager is not None
                and opened)

    def _try_replan(self, query, ctx, guard, policy, recovery, manager,
                    rows, overrun, telemetry=None):
        """Re-optimize with learned stats and migrate the live state.

        On success the running tree's full checkpointed state -- every
        consumed prefix, hash table, candidate queue, and threshold --
        is restored into a tree built from the *re-enumerated* plan,
        ``ctx`` is rewritten to the new root/result, and the guard's
        depth limits are re-derived from the corrected estimates.
        Returns True exactly then.

        Returns False (falling through to the ordinary
        re-estimate/fallback recovery) when the overrun carries no
        usable selectivity observation, the remaining plan cost does
        not justify the enumeration overhead (``declined``), or the
        re-enumerated winner is structurally incompatible with the live
        tree so its state cannot migrate (``incompatible``) -- the
        learned correction persists in the store either way, so the
        *next* optimization of this shape plans correctly even when
        this one could not.
        """
        operator = overrun.operator
        plan = operator.plan
        observed = self._observed_selectivity(operator)
        if (observed is None or plan is None
                or not isinstance(plan, RankJoinPlan)
                or len(plan.predicates) != 1):
            return False
        assumed = getattr(plan, "selectivity", float("nan"))
        # Push the hard evidence into the learned overlay *before* the
        # overhead gate: even a declined re-plan must not discard it.
        if not self.feedback.learn_join(plan.predicates, observed,
                                        source="replan", force=True):
            return False
        plan.selectivity = min(1.0, observed)
        k = self._query_k(ctx["result"])
        remaining = ctx["result"].best_plan.cost(k)
        if remaining < self.optimizer.model.replan_overhead(
                len(query.tables)):
            self.feedback.note_replan("declined")
            return False
        manager.checkpoint(rows, reason="replan")
        new_result = self.optimizer.optimize(query)
        # Reuse the live tree's operator names (and so score columns)
        # wherever the re-enumerated plan matches the running one --
        # post-migration rows must be byte-identical to a serial run's.
        self.builder.adopt_rank_join_names(
            ctx["result"].best_plan, new_result.best_plan)
        new_root = self.builder.build_query(new_result)
        old_root = ctx["root"]
        if not self._trees_compatible(old_root, new_root):
            self.feedback.note_replan("incompatible")
            return False
        try:
            restored = manager.restore(root=new_root, kind="replan",
                                       strict_names=False)
        except CheckpointError:
            self.feedback.note_replan("incompatible")
            return False
        guard.detach()
        old_root.close()
        if telemetry is not None:
            telemetry.instrument(new_root)
        guard.attach(new_root)
        guard.depth_limits.clear()
        self._update_depth_limits(guard, new_result, policy)
        rows[:] = restored
        ctx["root"] = new_root
        ctx["result"] = new_result
        self.feedback.note_replan("migrated")
        recovery.record(RecoveryEvent(
            "replan", operator.name, observed, assumed, len(rows),
            "re-enumerated with learned stats; live state migrated",
        ))
        return True

    @staticmethod
    def _strip_transparent(operator):
        """Descend through checkpoint-transparent wrappers."""
        while operator.checkpoint_transparent:
            operator = operator.children[0]
        return operator

    def _trees_compatible(self, old, new):
        """True when live state can migrate from ``old`` into ``new``.

        A lockstep walk (through checkpoint-transparent wrappers, which
        a fault-injected tree has and a rebuilt one does not) requiring
        the same operator class, child count, and plan description at
        every node.  ``describe()`` encodes the operator kind, join
        predicates, and score-expression orientation -- but not
        selectivity -- so a re-enumeration that flipped the join order
        or switched physical operators is rejected, while one that
        merely re-costed the same shape passes.
        """
        old = self._strip_transparent(old)
        new = self._strip_transparent(new)
        if type(old) is not type(new):
            return False
        if len(old.children) != len(new.children):
            return False
        if (old.plan is None) != (new.plan is None):
            return False
        if old.plan is not None and old.plan.describe() != \
                new.plan.describe():
            return False
        return all(self._trees_compatible(a, b)
                   for a, b in zip(old.children, new.children))

    # ------------------------------------------------------------------
    # Mid-query recovery
    # ------------------------------------------------------------------
    def _observed_selectivity(self, operator):
        observe = getattr(operator, "observed_selectivity", None)
        if observe is not None:
            observed = observe()
        else:
            pairs = 1.0
            for pulled in operator.stats.pulled:
                pairs *= max(1, pulled)
            observed = operator.stats.rows_out / pairs
        if observed is None:
            return None
        return max(observed, _MIN_SELECTIVITY)

    def _recover(self, guard, result, overrun, policy, reestimates,
                 rows_emitted, recovery, allow_migrate=False):
        """Handle one depth overrun.

        Returns ``"continue"`` (re-estimated limits installed),
        ``"fallback"`` (rebuild the sort plan from scratch), or --
        when ``allow_migrate`` and a fallback would otherwise fire --
        ``"migrate"`` (keep the live rank-join state and drain it).
        """
        operator = overrun.operator
        plan = operator.plan
        observed = self._observed_selectivity(operator)
        assumed = getattr(plan, "selectivity", float("nan"))
        if (self.feedback is not None and observed is not None
                and isinstance(plan, RankJoinPlan)):
            # PR 1 computed this correction and threw it away with the
            # query; now it lands in the store even when no re-plan
            # happens, so the next optimization of this join benefits.
            self.feedback.learn_join(plan.predicates, observed,
                                     source="overrun")
        if (observed is None or plan is None
                or not isinstance(plan, RankJoinPlan)):
            # Nothing to re-estimate from: treat as a fallback trigger.
            return self._fall_back(recovery, overrun, observed or 0.0,
                                   assumed, rows_emitted,
                                   "no observation to re-estimate from",
                                   allow_migrate)
        if reestimates >= policy.max_reestimates:
            if self._can_fall_back(result):
                return self._fall_back(recovery, overrun, observed,
                                       assumed, rows_emitted,
                                       "re-estimate budget exhausted",
                                       allow_migrate)
            # No blocking alternative retained: the rank-join plan is
            # all there is, so widen its limits and press on.
            plan.selectivity = min(1.0, observed)
            self._update_depth_limits(guard, result, policy)
            return "continue"
        # Replace the wrong estimate with the observed evidence, then
        # re-run Algorithm Propagate over the whole plan.
        plan.selectivity = min(1.0, observed)
        k = self._query_k(result)
        rank_cost = result.best_plan.cost(k)
        fallback_cost = None
        try:
            fallback_cost = self.optimizer.fallback_plan(result).cost(k)
        except OptimizerError:
            pass  # No blocking alternative retained: must continue.
        if fallback_cost is not None and rank_cost > fallback_cost:
            return self._fall_back(
                recovery, overrun, observed, assumed, rows_emitted,
                "re-costed rank join %.1f > sort plan %.1f"
                % (rank_cost, fallback_cost), allow_migrate)
        self._update_depth_limits(guard, result, policy)
        recovery.record(RecoveryEvent(
            "reestimate", operator.name, observed, assumed, rows_emitted,
            "continuing with re-propagated depth limits",
        ))
        return "continue"

    def _can_fall_back(self, result):
        try:
            self.optimizer.fallback_plan(result)
        except OptimizerError:
            return False
        return True

    def _fall_back(self, recovery, overrun, observed, assumed,
                   rows_emitted, detail, allow_migrate=False):
        if allow_migrate:
            recovery.record(RecoveryEvent(
                "migrate", overrun.operator.name, observed, assumed,
                rows_emitted,
                detail + "; migrating live rank-join state",
            ))
            return "migrate"
        recovery.record(RecoveryEvent(
            "fallback", overrun.operator.name, observed, assumed,
            rows_emitted, detail,
        ))
        return "fallback"

    def _update_depth_limits(self, guard, result, policy):
        """Re-propagate and raise every guarded operator's limits.

        New limits are floored at the depth already pulled plus
        headroom, so a limit that re-estimation would *shrink* cannot
        trip again on the very next pull.
        """
        estimates = self._propagated_limits(result)
        if self._root_of(guard) is None:
            return
        for operator in self._root_of(guard).walk():
            if operator.plan is None:
                continue
            estimate = estimates.get(id(operator.plan))
            if estimate is None:
                continue
            limits = []
            for child_index, depth in enumerate(estimate):
                if child_index == 1 and self._full_inner(operator.plan):
                    limits.append(None)
                    continue
                floor = (operator.stats.pulled[child_index]
                         + policy.min_headroom)
                limits.append(max(self._scaled(depth, policy), floor))
            guard.set_depth_limit(operator, limits)

    @staticmethod
    def _root_of(guard):
        return guard._root

    # ------------------------------------------------------------------
    # Sort-plan fallback
    # ------------------------------------------------------------------
    def _run_fallback(self, query, result, guard, telemetry=None):
        """Execute the blocking sort alternative under the same guard.

        The guard keeps its clock and pull counters, so the fallback
        still answers to the original deadline and pull budget.
        """
        fallback = self.optimizer.fallback_plan(result)
        root = self.builder.build(fallback)
        if query.is_ranking:
            root = Limit(root, query.k)
        if query.select is not None:
            root = Project(root, query.select)
        guard.depth_limits.clear()
        guard.attach(root)
        if telemetry is not None:
            telemetry.instrument(root)
        try:
            if telemetry is not None:
                with telemetry.tracer.span("fallback"):
                    rows = list(root)
            else:
                rows = list(root)
        finally:
            guard.detach()
        operators = [OperatorSnapshot(op) for op in root.walk()]
        return rows, operators
