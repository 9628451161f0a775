"""Concurrent ``optimize`` calls on one shared optimizer.

The serving layer optimizes on the event-loop thread (admission) while
guarded instalments optimize on the executor thread, both through the
same ``Database`` optimizer.  Whatever an ``optimize`` call remembers
while it enumerates must therefore belong to that call alone: two
threads optimizing different queries side by side must get exactly
the plans, MEMOs and costs a serial run produces.
"""

import sys
import threading

import pytest

from tests.test_optimizer_golden_digest import make_database, make_queries

ROUNDS = 3
PER_THREAD = 4


def fingerprint(result):
    k = float(result.query.k)
    return (result.explain(), result.memo.describe(),
            repr(result.best_plan.cost(k)))


@pytest.fixture(scope="module")
def db():
    return make_database()


@pytest.fixture
def fast_switching():
    """Switch threads as often as the interpreter allows."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def test_concurrent_optimize_matches_serial(db, fast_switching):
    queries = make_queries(count=2 * PER_THREAD)
    batches = [queries[:PER_THREAD], queries[PER_THREAD:]]
    optimizer = db.optimizer()
    serial = [[fingerprint(optimizer.optimize(query)) for query in batch]
              for batch in batches]

    barrier = threading.Barrier(len(batches))
    outcomes = [[] for _ in batches]
    errors = []

    def work(slot):
        try:
            for _ in range(ROUNDS):
                barrier.wait()
                outcomes[slot].append([
                    fingerprint(optimizer.optimize(query))
                    for query in batches[slot]
                ])
        except BaseException as error:  # surfaced in the main thread
            errors.append(error)
            barrier.abort()

    threads = [threading.Thread(target=work, args=(slot,))
               for slot in range(len(batches))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    for slot, rounds in enumerate(outcomes):
        assert len(rounds) == ROUNDS
        for fingerprints in rounds:
            assert fingerprints == serial[slot]
