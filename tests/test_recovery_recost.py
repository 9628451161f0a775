"""Recovery re-costs plans after a selectivity re-estimate.

Pins the recovery path a wrong join-selectivity estimate takes under a
tight depth guard: the executor observes the real selectivity, re-runs
``cost(k)`` and Algorithm Propagate with it, and either continues under
widened depth limits (``"reestimated"``) or falls back to the sort
plan.  A cost or depth memo that outlived ``Optimizer.optimize`` would
answer the re-costing with the stale pre-estimate numbers and turn
these paths into fallbacks.

It also pins that a guarded run re-estimates on a copy of the plan it
owns: the plan-cache result it was handed (the serving layer's path)
keeps its catalog selectivity and costs.
"""

import pytest

from repro.optimizer.plans import RankJoinPlan
from repro.robustness.budget import ResourceBudget
from repro.robustness.recovery import GuardedExecutor, RecoveryPolicy
from tests.test_robustness_guards import SQL, make_db


def wrong_selectivity_db(factor):
    db = make_db()
    real = db.catalog.join_selectivity("A", "A.c2", "B", "B.c1")
    db.set_join_selectivity("A.c2", "B.c1", min(1.0, real * factor))
    return db


def policy(max_reestimates):
    return RecoveryPolicy(overrun_factor=1.1, min_headroom=4,
                          max_reestimates=max_reestimates)


def rank_joins(plan):
    found = [plan] if isinstance(plan, RankJoinPlan) else []
    for child in plan.children:
        found.extend(rank_joins(child))
    return found


@pytest.mark.parametrize("factor, max_reestimates, path, kinds", [
    (4.0, 1, "reestimated", ["reestimate"]),
    (8.0, 1, "reestimated", ["reestimate"]),
    (8.0, 2, "reestimated", ["reestimate"]),
    (16.0, 1, "fallback", ["reestimate", "fallback"]),
    (16.0, 2, "reestimated", ["reestimate", "reestimate"]),
])
def test_recovery_path_after_recost(factor, max_reestimates, path, kinds):
    db = wrong_selectivity_db(factor)
    report = db.execute_guarded(SQL, policy=policy(max_reestimates))
    assert report.recovery.path == path
    assert [event.kind for event in report.recovery.events] == kinds
    events = report.recovery.events
    assert events[0].observed_selectivity < events[0].assumed_selectivity / 2
    # Each later overrun starts from the previous re-estimate.
    for before, after in zip(events, events[1:]):
        assert after.assumed_selectivity == before.observed_selectivity


class TestCachedResultIsolation:
    """A guarded run must not rewrite the plan cache's shared plan."""

    def setup_method(self):
        self.db = wrong_selectivity_db(4.0)
        self.query = self.db.parse(SQL)
        self.executor = self.db._executor_for(self.query)
        self.cached = self.db._cached_optimization(self.executor,
                                                   self.query)
        self.k = float(self.query.k)
        self.assumed = self.db.catalog.join_selectivity(
            "A", "A.c2", "B", "B.c1")
        self.explain = self.cached.best_plan.explain(k=self.k)
        self.cost = repr(self.cached.best_plan.cost(self.k))

    def guarded(self):
        return GuardedExecutor(self.db.catalog, self.db.cost_model,
                               self.db.config)

    def assert_cache_untouched(self):
        assert self.cached.best_plan.explain(k=self.k) == self.explain
        assert repr(self.cached.best_plan.cost(self.k)) == self.cost
        for plan in rank_joins(self.cached.best_plan):
            assert plan.selectivity == self.assumed
        hit = self.db._cached_optimization(self.executor, self.query)
        assert hit is self.cached

    def test_reestimate_leaves_cached_plan_unchanged(self):
        report = self.guarded().run(self.query, result=self.cached,
                                    policy=policy(1))
        assert report.recovery.path == "reestimated"
        observed = report.recovery.events[0].observed_selectivity
        # The run itself re-costed with the observation ...
        assert [plan.selectivity
                for plan in rank_joins(report.optimization.best_plan)] \
            == [pytest.approx(observed)]
        # ... while the cached plan still speaks the catalog's estimate.
        self.assert_cache_untouched()

    def test_suspension_carries_the_reestimated_copy(self):
        guarded = self.guarded()
        report = guarded.run(self.query, result=self.cached,
                             policy=policy(1), checkpoint=2,
                             budget=ResourceBudget(max_pulls=422))
        assert report.suspended
        assert [event.kind for event in report.recovery.events] \
            == ["reestimate", "suspend"]
        observed = report.recovery.events[0].observed_selectivity
        carried = report.suspension.result
        assert carried is not self.cached
        assert [plan.selectivity for plan in rank_joins(carried.best_plan)] \
            == [pytest.approx(observed)]
        self.assert_cache_untouched()
        resumed = guarded.resume(report.suspension, policy=policy(1))
        assert not resumed.suspended
        assert resumed.rows == self.db.execute_guarded(SQL).rows
        assert [plan.selectivity
                for plan in rank_joins(resumed.optimization.best_plan)] \
            == [pytest.approx(observed)]
        self.assert_cache_untouched()
