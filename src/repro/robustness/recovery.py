"""Adaptive mid-query recovery from depth mis-estimation.

The Propagate estimates that size a rank-join plan (Section 4) are only
as good as the selectivity fed to them; ``bench_robustness.py`` shows
estimated depths drift by ``sqrt`` of the selectivity error.  A
guarded run -- any executor run with a :class:`RecoveryPolicy`, driven
by :class:`RecoveringDrive` -- turns that weakness into a run-time
contract:

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
from repro.executor.executor import Executor, OperatorSnapshot
from repro.operators.filters import Project
from repro.operators.topk import Limit
from repro.optimizer.plans import RankJoinPlan, ScoreMergePlan
from repro.robustness.budget import ExecutionGuard, ResourceBudget
from repro.robustness.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    SuspendedQuery,
)

#: Floor for re-estimated selectivities (zero would blow up the model).
_MIN_SELECTIVITY = 1e-9

#: Pull-grant multiplier per pre-open restart of a resumed query: an
#: operator with an atomic open (NRJN inner materialisation) makes no
#: progress within a too-small grant, so each restart grows it
#: geometrically until the open clears instead of livelocking.
PRE_OPEN_ESCALATION = 4


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
    """An :class:`~repro.executor.executor.Executor` whose runs are
    always guarded.

    The constructor presets the run defaults -- a
    :class:`RecoveryPolicy` (default one when omitted), an optional
    :class:`~repro.robustness.budget.ResourceBudget` and an optional
    :class:`~repro.feedback.store.FeedbackStore` -- so :meth:`run`
    enforces the budget and recovers from rank-join depth overruns
    without further arguments; the report's ``recovery`` attribute
    records the path taken.  Planning, building and driving are the
    one executor pipeline; see :class:`RecoveringDrive` for the
    recovering drain.
    """

    def __init__(self, catalog, cost_model, config=None, budget=None,
                 policy=None, shard_pool=None, feedback=None):
        super().__init__(catalog, cost_model, config,
                         shard_pool=shard_pool, budget=budget,
                         policy=policy or RecoveryPolicy(),
                         feedback=feedback)


class RecoveringDrive:
    """The drive stage of one guarded run.

    Set up by :meth:`Executor.run <repro.executor.executor.Executor.run>`
    and :meth:`~repro.executor.executor.Executor.resume` over a built
    tree: an :class:`~repro.robustness.budget.ExecutionGuard` with
    Propagate depth limits, an optional checkpoint manager (durable
    when a ``store`` is wired), and the :class:`RecoveryLog`.  A
    ``suspended`` query is restored into the tree first.  :meth:`run`
    then drains under recovery.

    ``root``, ``result`` and ``rows`` always name the tree actually
    running, its plan, and the rows delivered so far: a mid-flight
    re-plan migrates into a new tree, a checkpoint restore truncates
    the rows.
    """

    def __init__(self, executor, query, result, root, budget, policy,
                 telemetry, checkpoint=None, store=None, query_id=None,
                 suspended=None):
        self.executor = executor
        self.optimizer = executor.optimizer
        self.feedback = executor.feedback
        self.query = query
        self.result = result
        self.root = root
        self.policy = policy or RecoveryPolicy()
        self.telemetry = telemetry
        metrics = telemetry.metrics if telemetry is not None else None
        events = telemetry.events if telemetry is not None else None
        self.recovery = RecoveryLog(event_log=events, metrics=metrics)
        self.pre_open_restarts = 0
        checkpoint = self._checkpoint_policy(checkpoint)
        if suspended is not None:
            self.pre_open_restarts = suspended.pre_open_restarts
            budget = _escalated(budget, self.pre_open_restarts)
            checkpoint = (checkpoint or suspended.policy
                          or CheckpointPolicy())
        self.guard = ExecutionGuard(budget, metrics=metrics).attach(root)
        self._update_depth_limits()
        self.manager = None
        if checkpoint is not None:
            self.manager = CheckpointManager(
                root, checkpoint, guard=self.guard, events=events,
                metrics=metrics, persist=self._durable_persist(store,
                                                               query_id))
        self.store = store
        self.query_id = query_id
        self.suspended = suspended
        self.rows = []

    @staticmethod
    def _checkpoint_policy(checkpoint):
        """Normalise the ``checkpoint`` argument to a policy or None."""
        if checkpoint is None:
            return None
        if isinstance(checkpoint, CheckpointPolicy):
            return checkpoint
        return CheckpointPolicy(every_rows=int(checkpoint))

    def _durable_persist(self, store, query_id):
        """The manager persist hook writing checkpoints to ``store``."""
        if store is None:
            return None
        if query_id is None:
            from repro.robustness.durability import default_query_id

            query_id = default_query_id(self.query)

        def persist(checkpoint, pre_open=False):
            store.save_checkpoint(
                query_id, self.query, checkpoint,
                policy=self.manager.policy, pre_open=pre_open,
                pre_open_restarts=self.pre_open_restarts)

        return persist

    # ------------------------------------------------------------------
    def run(self):
        """Drain under recovery; returns ``(rows, operators, suspension)``.

        Runs the from-scratch sort fallback when recovery chose it,
        fills the recovery log's run totals, and retires the query's
        durable snapshots once it completes.
        """
        guard = self.guard
        try:
            if self.suspended is not None:
                self._restore(self.suspended)
            guard.start()
            suspension = self._drain_guarded()
        finally:
            self.root.close()
            guard.detach()
        recovery = self.recovery
        if recovery.path == "fallback":
            rows, operators = self._run_fallback()
        else:
            rows = self.rows
            operators = [OperatorSnapshot(op) for op in self.root.walk()]
        recovery.stats["pulled_total"] = guard.total_pulled
        if self.manager is not None:
            recovery.stats["checkpoints"] = self.manager.checkpoints_taken
            recovery.stats["resumes"] = self.manager.resumes
        if self.store is not None and suspension is None:
            # Nothing is left to recover once the query delivered its
            # full result, and a stale snapshot would wrongly re-run it
            # on the next resume.  Suspended runs keep theirs: that
            # snapshot *is* the recovery state.
            self._discard_durable()
        return rows, operators, suspension

    def _discard_durable(self):
        from repro.robustness.durability import default_query_id

        self.store.discard(self.query_id or default_query_id(self.query))

    def _restore(self, suspended):
        """Restore a suspension's checkpoint into the fresh tree.

        A pre-open suspension has nothing to restore: the tree starts
        from scratch.  A durable checkpoint that no longer fits the
        rebuilt plan (the catalog changed underneath it) is discarded
        and the query restarts from scratch in a freshly built tree.
        """
        if suspended.checkpoint is None:
            self.recovery.record(RecoveryEvent(
                "resume", self.root.name, None, None, 0,
                "restarting pre-open suspension (was: %s)"
                % (suspended.reason,),
            ))
            self.manager.counters.resume("pre_open_restart")
            return
        self.manager.adopt(suspended.checkpoint)
        try:
            self.rows = self.manager.restore(root=self.root,
                                             kind="suspended")
        except CheckpointError:
            if not suspended.durable:
                raise
            if self.store is not None:
                self._discard_durable()
                self.store.instruments.recovery("restarted")
            self.manager.latest = None
            self._swap_root(self.executor.builder.build_query(self.result),
                            self.result)
            self.recovery.record(RecoveryEvent(
                "restart", "durability", None, None, 0,
                "durable snapshot unusable; restarted from scratch",
            ))
            return
        self.recovery.record(RecoveryEvent(
            "resume", self.root.name, None, None, len(self.rows),
            "resumed suspended query (was: %s)" % (suspended.reason,),
        ))

    def _swap_root(self, new_root, result):
        """Run ``new_root`` (built from ``result``) from here on."""
        self.guard.detach()
        if self.telemetry is not None:
            self.telemetry.instrument(new_root)
        self.guard.attach(new_root)
        self.guard.depth_limits.clear()
        self.root, self.result = new_root, result
        if self.manager is not None:
            self.manager.root = new_root
        self._update_depth_limits()

    def _drain_guarded(self):
        """Drain the tree under recovery; returns a suspension or None.

        Delivered rows accumulate in ``self.rows``.  The caller owns
        close/detach.
        """
        guard, manager = self.guard, self.manager
        recovery, rows = self.recovery, self.rows
        reestimates = 0
        replans = 0
        migrated = False
        opened = self.root._opened
        while True:
            root = self.root
            try:
                # An overrun can fire while *opening* (e.g. an operator
                # materialising input up front); a failed open unwinds
                # cleanly, so recovery simply re-opens and carries on.
                if not opened:
                    root.open()
                    opened = True
                row = root.next()
            except DepthOverrunError as overrun:
                if self._replan_eligible(replans, opened):
                    if self._try_replan(overrun):
                        replans += 1
                        continue
                allow_migrate = (
                    manager is not None
                    and manager.policy.migrate_on_fallback
                    and not migrated
                )
                decision = self._recover(overrun, reestimates, len(rows),
                                         allow_migrate)
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
                rows[:] = manager.restore()
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
                return self._suspend(breach, opened)
            if row is None:
                return None
            rows.append(row)
            if manager is not None:
                manager.maybe_checkpoint(rows)

    def _suspend(self, breach, opened):
        """Turn a budget breach into a :class:`SuspendedQuery`."""
        manager = self.manager
        if not opened:
            # The breach fired inside open() -- an operator performing
            # one atomic step up front (NRJN materialises its whole
            # inner there).  The failed open unwound the tree, but
            # operator *stats* kept the aborted open's pulls, so a state
            # snapshot now would be inconsistent and a restore would
            # double-count depth accounting.  Suspend without a
            # checkpoint: resuming restarts the query under a grown
            # budget.
            self.pre_open_restarts += 1
            self.recovery.record(RecoveryEvent(
                "suspend", self.root.name, None, None, 0,
                "%s (pre-open: no state to checkpoint)" % (breach,),
            ))
            if manager.persist is not None:
                # No checkpoint exists, but the suspension must still
                # survive a crash: persist a pre-open snapshot that
                # restarts the query on recovery.
                manager.persist(None, pre_open=True)
            taken = None
        else:
            # Breaches are raised before the offending pull, so the
            # tree is consistent right now: checkpoint it and hand back
            # a resumable handle instead of losing the work.
            taken = manager.checkpoint(self.rows, reason="suspend")
            self.recovery.record(RecoveryEvent(
                "suspend", self.root.name, None, None, len(self.rows),
                str(breach),
            ))
        return SuspendedQuery(
            self.query, self.result, taken, reason=str(breach),
            executor=self.executor, policy=manager.policy,
            pre_open=not opened,
            pre_open_restarts=self.pre_open_restarts,
        )

    # ------------------------------------------------------------------
    # Depth limits from Algorithm Propagate
    # ------------------------------------------------------------------
    def _query_k(self):
        if self.query.is_ranking:
            return float(self.query.k)
        return max(1.0, self.result.best_plan.cardinality)

    def _propagated_limits(self):
        """``{id(plan): (d_left, d_right)}`` for every rank-join node."""
        plan = self.result.best_plan
        if not isinstance(plan, (RankJoinPlan, ScoreMergePlan)):
            return {}
        limits = {}
        for node, _required, estimate in plan.propagate_depths(
                self._query_k()):
            if estimate is not None:
                limits[id(node)] = (estimate.d_left, estimate.d_right)
        return limits

    def _update_depth_limits(self):
        """Propagate and (re)install every guarded operator's limits.

        Each limit is the operator's estimated depth scaled by the
        policy, floored at the depth already pulled plus headroom, so a
        limit that re-estimation would *shrink* cannot trip again on
        the very next pull.  NRJN rescans its inner in full regardless
        of k (it is materialised on open): only its ranked outer depth
        is model-bounded.
        """
        policy = self.policy
        if not policy.monitor_depths:
            return
        estimates = self._propagated_limits()
        if not estimates:
            return
        for operator in self.root.walk():
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
                limits.append(max(self._scaled(depth), floor))
            self.guard.set_depth_limit(operator, limits)

    def _scaled(self, depth):
        policy = self.policy
        return int(math.ceil(depth * policy.overrun_factor)) \
            + policy.min_headroom

    @staticmethod
    def _full_inner(plan):
        """True when the plan's right input is consumed in full."""
        return getattr(plan, "operator", None) == "nrjn"

    # ------------------------------------------------------------------
    # Mid-flight re-planning
    # ------------------------------------------------------------------
    def _replan_eligible(self, replans, opened):
        """Cheap gate before attempting a mid-flight re-plan."""
        return (self.feedback is not None
                and self.policy.replan
                and replans < self.policy.max_replans
                and self.manager is not None
                and opened)

    def _try_replan(self, overrun):
        """Re-optimize with learned stats and migrate the live state.

        On success the running tree's full checkpointed state -- every
        consumed prefix, hash table, candidate queue, and threshold --
        is restored into a tree built from the *re-enumerated* plan,
        which becomes the running ``root``/``result``, and the guard's
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
        remaining = self.result.best_plan.cost(self._query_k())
        if remaining < self.optimizer.model.replan_overhead(
                len(self.query.tables)):
            self.feedback.note_replan("declined")
            return False
        manager = self.manager
        manager.checkpoint(self.rows, reason="replan")
        new_result = self.optimizer.optimize(self.query)
        # Names follow the plan's shape, so wherever the re-enumerated
        # plan matches the running one its operator names (and score
        # columns) match too -- post-migration rows stay byte-identical
        # to a serial run's.
        new_root = self.executor.builder.build_query(new_result)
        if not self._trees_compatible(self.root, new_root):
            self.feedback.note_replan("incompatible")
            return False
        try:
            restored = manager.restore(root=new_root, kind="replan")
        except CheckpointError:
            self.feedback.note_replan("incompatible")
            return False
        self.root.close()
        self._swap_root(new_root, new_result)
        self.rows[:] = restored
        self.feedback.note_replan("migrated")
        self.recovery.record(RecoveryEvent(
            "replan", operator.name, observed, assumed, len(self.rows),
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
    @staticmethod
    def _observed_selectivity(operator):
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

    def _recover(self, overrun, reestimates, rows_emitted,
                 allow_migrate=False):
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
            return self._fall_back(overrun, observed or 0.0, assumed,
                                   rows_emitted,
                                   "no observation to re-estimate from",
                                   allow_migrate)
        if reestimates >= self.policy.max_reestimates:
            if self._can_fall_back():
                return self._fall_back(overrun, observed, assumed,
                                       rows_emitted,
                                       "re-estimate budget exhausted",
                                       allow_migrate)
            # No blocking alternative retained: the rank-join plan is
            # all there is, so widen its limits and press on.
            plan.selectivity = min(1.0, observed)
            self._update_depth_limits()
            return "continue"
        # Replace the wrong estimate with the observed evidence, then
        # re-run Algorithm Propagate over the whole plan.
        plan.selectivity = min(1.0, observed)
        k = self._query_k()
        rank_cost = self.result.best_plan.cost(k)
        fallback_cost = None
        try:
            fallback_cost = self.optimizer.fallback_plan(
                self.result).cost(k)
        except OptimizerError:
            pass  # No blocking alternative retained: must continue.
        if fallback_cost is not None and rank_cost > fallback_cost:
            return self._fall_back(
                overrun, observed, assumed, rows_emitted,
                "re-costed rank join %.1f > sort plan %.1f"
                % (rank_cost, fallback_cost), allow_migrate)
        self._update_depth_limits()
        self.recovery.record(RecoveryEvent(
            "reestimate", operator.name, observed, assumed, rows_emitted,
            "continuing with re-propagated depth limits",
        ))
        return "continue"

    def _can_fall_back(self):
        try:
            self.optimizer.fallback_plan(self.result)
        except OptimizerError:
            return False
        return True

    def _fall_back(self, overrun, observed, assumed, rows_emitted, detail,
                   allow_migrate=False):
        if allow_migrate:
            self.recovery.record(RecoveryEvent(
                "migrate", overrun.operator.name, observed, assumed,
                rows_emitted,
                detail + "; migrating live rank-join state",
            ))
            return "migrate"
        self.recovery.record(RecoveryEvent(
            "fallback", overrun.operator.name, observed, assumed,
            rows_emitted, detail,
        ))
        return "fallback"

    # ------------------------------------------------------------------
    # Sort-plan fallback
    # ------------------------------------------------------------------
    def _run_fallback(self):
        """Execute the blocking sort alternative under the same guard.

        The guard keeps its clock and pull counters, so the fallback
        still answers to the original deadline and pull budget.
        Returns ``(rows, operators)``.
        """
        query, guard, telemetry = self.query, self.guard, self.telemetry
        root = self.executor.builder.build(
            self.optimizer.fallback_plan(self.result))
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


def _escalated(budget, pre_open_restarts):
    """``budget`` with its pull grant grown for a pre-open restart chain."""
    if budget is None or budget.max_pulls is None or not pre_open_restarts:
        return budget
    return ResourceBudget(
        max_pulls=budget.max_pulls
        * PRE_OPEN_ESCALATION ** pre_open_restarts,
        max_buffer=budget.max_buffer,
        deadline_seconds=budget.deadline_seconds,
    )
