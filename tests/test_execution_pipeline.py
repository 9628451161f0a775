"""One execution pipeline per database.

Plain, prepared, guarded, resumed and sharded queries all run through
the database's one executor -- one plan cache, one plan builder, one
drive loop.  These tests pin what that sharing must not change:

* operator names (and so ``_score_*`` result columns) follow the
  plan's shape, never the builder's history;
* a resumed chain always makes progress, even when every resume passes
  the same too-small budget;
* threads running different entry points on one database get exactly
  the serial answers.
"""

import sys
import threading

import pytest

from repro.common.rng import make_rng
from repro.executor.database import Database
from repro.robustness.budget import ResourceBudget
from repro.robustness.checkpoint import CheckpointPolicy

from tests import test_checkpoint_recovery
from tests.test_anyk_equivalence import make_multiway_db, multiway_query
from tests.test_checkpoint_recovery import SQL, make_db


def ranked_sql(k, weights=(0.3, 0.7)):
    return """
    WITH Ranked AS (
      SELECT A.c1 AS x, B.c2 AS y,
             rank() OVER (ORDER BY (%g*A.c1 + %g*B.c2)) AS rank
      FROM A, B WHERE A.c2 = B.c1)
    SELECT x, y, rank FROM Ranked WHERE rank <= %d
    """ % (weights[0], weights[1], k)


def row_dicts(rows):
    """Rows as qualified-name -> value dicts (names included)."""
    return [dict(row._values) for row in rows]


def chain():
    """A select-less 3-way chain: rows carry every ``_score_*``."""
    return multiway_query("ABC", [("A.c2", "B.c2"), ("B.c3", "C.c3")])


class TestNamesFollowPlanShape:
    def test_rows_identical_on_fresh_and_used_database(self):
        fresh = make_multiway_db().execute(chain())
        used = make_multiway_db()
        used.execute(multiway_query("AB", [("A.c2", "B.c2")], k=7))
        used.execute(multiway_query("BCD", [("B.c3", "C.c3"),
                                            ("C.c2", "D.c2")]))
        again = used.execute(chain())
        assert any(name.startswith("_score_")
                   for name in again.rows[0]._values)
        assert row_dicts(again.rows) == row_dicts(fresh.rows)

    def test_guarded_and_plain_runs_name_alike(self):
        db = make_multiway_db()
        plain = db.execute(chain())
        guarded = db.execute_guarded(chain())
        assert row_dicts(guarded.rows) == row_dicts(plain.rows)

    def test_durable_snapshot_from_used_database_resumes(self, tmp_path):
        state_dir = str(tmp_path / "state")
        clean = make_db(hrjn_only=True).execute_guarded(SQL)
        writer = make_db(hrjn_only=True)
        writer.execute(ranked_sql(9, (0.6, 0.4)))
        writer.execute_guarded(ranked_sql(3))
        first = writer.execute_guarded(
            SQL, budget=ResourceBudget(max_pulls=15), checkpoint=2,
            state_dir=state_dir,
        )
        assert first.suspended and not first.suspension.pre_open
        resumed = make_db(hrjn_only=True).resume(state_dir)
        assert resumed.recovery.path == "resumed"
        assert row_dicts(resumed.rows) == row_dicts(clean.rows)


class TestPreOpenResumeProgress:
    def test_same_small_budget_resume_completes(self):
        """NRJN materialises its inner inside ``open()``; resuming with
        the same 50-pull budget must still clear it, not livelock."""
        nrjn_db = test_checkpoint_recovery.TestPreOpenSuspension()._nrjn_db
        clean = nrjn_db().execute_guarded(SQL)
        db = nrjn_db()
        report = db.execute_guarded(
            SQL, budget=ResourceBudget(max_pulls=50), checkpoint=2,
        )
        assert report.suspension.pre_open
        calls = 1
        while report.suspended:
            report = db.resume(report.suspension,
                               budget=ResourceBudget(max_pulls=50))
            calls += 1
            assert calls <= 10, "same-budget resumes never cleared open"
        assert report.rows == clean.rows

    def test_durable_pre_open_suspension_keeps_its_restart_count(
            self, tmp_path):
        nrjn_db = test_checkpoint_recovery.TestPreOpenSuspension()._nrjn_db
        state_dir = str(tmp_path / "state")
        first = nrjn_db().execute_guarded(
            SQL, budget=ResourceBudget(max_pulls=50),
            checkpoint=CheckpointPolicy(), state_dir=state_dir,
        )
        assert first.suspension.pre_open_restarts == 1
        loaded = nrjn_db().load_suspended(state_dir)
        assert loaded.pre_open and loaded.pre_open_restarts == 1


# ----------------------------------------------------------------------
# Concurrent entry points on one database
# ----------------------------------------------------------------------
ROUNDS = 3
#: One thread per k: more threads than the two cores CI machines have.
KS = (5, 8, 6)


@pytest.fixture
def fast_switching():
    """Switch threads as often as the interpreter allows."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def entry_points(db, k):
    """Rows of ``execute``, a guarded suspend/resume chain and
    ``execute(shards=2)`` at ``k``."""
    sql = ranked_sql(k)
    plain = db.execute(sql).rows
    report = db.execute_guarded(sql, budget=ResourceBudget(max_pulls=15),
                                checkpoint=2)
    hops = 0
    while report.suspended:
        report = db.resume(report.suspension,
                           budget=ResourceBudget(max_pulls=15))
        hops += 1
    sharded = db.execute(sql, shards=2).rows
    return row_dicts(plain), row_dicts(report.rows), hops, \
        row_dicts(sharded)


def test_concurrent_entry_points_match_serial(fast_switching):
    db = make_db(hrjn_only=True)
    # Partition up front: the threads must not race the catalog change.
    db.execute(ranked_sql(KS[0]), shards=2)
    serial = [entry_points(db, k) for k in KS]
    assert all(hops >= 1 for _, _, hops, _ in serial)

    barrier = threading.Barrier(len(KS), timeout=120)
    outcomes = [[] for _ in KS]
    errors = []

    def work(slot):
        try:
            for _ in range(ROUNDS):
                barrier.wait()
                outcomes[slot].append(entry_points(db, KS[slot]))
        except BaseException as error:  # surfaced in the main thread
            errors.append(error)
            barrier.abort()

    threads = [threading.Thread(target=work, args=(slot,))
               for slot in range(len(KS))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    db.shard_pool.shutdown()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for slot, rounds in enumerate(outcomes):
        assert len(rounds) == ROUNDS
        for outcome in rounds:
            assert outcome == serial[slot]


def test_concurrent_builds_on_one_builder_name_alike(fast_switching):
    """Many threads building on the shared builder at once: each tree
    gets the names a serial build gives it."""
    db = make_multiway_db()
    results = [db.explain(chain()),
               db.explain(multiway_query("ABCD", [("A.c2", "B.c2"),
                                                  ("B.c3", "C.c3"),
                                                  ("C.c2", "D.c2")]))]
    builder = db.executor().builder

    def names(result):
        return [op.name for op in builder.build_query(result).walk()]

    serial = [names(result) for result in results]
    threads_per_result = 2
    barrier = threading.Barrier(threads_per_result * len(results),
                                timeout=120)
    mismatches = []
    errors = []

    def work(index):
        try:
            barrier.wait()
            for _ in range(200):
                got = names(results[index])
                if got != serial[index]:
                    mismatches.append(got)
        except BaseException as error:  # surfaced in the main thread
            errors.append(error)
            barrier.abort()

    threads = [threading.Thread(target=work, args=(index,))
               for index in range(len(results))
               for _ in range(threads_per_result)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert not mismatches, mismatches[:3]


def test_builder_keeps_no_per_build_state():
    db = Database()
    rng = make_rng(1)
    db.create_table("A", [("c1", "float"), ("c2", "int")], rows=[
        [float(rng.uniform(0, 1)), int(rng.integers(0, 5))]
        for _ in range(40)])
    db.create_table("B", [("c1", "int"), ("c2", "float")], rows=[
        [int(rng.integers(0, 5)), float(rng.uniform(0, 1))]
        for _ in range(40)])
    db.analyze()
    builder = db.executor().builder
    before = dict(vars(builder))
    db.execute(ranked_sql(4))
    db.execute_guarded(ranked_sql(6))
    assert vars(builder) == before
