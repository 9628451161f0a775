"""The enumeration memo: values computed once per ``optimize`` call.

The rank-aware dominance test (:class:`~repro.optimizer.memo.Memo`)
compares ``cost(k_min)`` and ``cost(n_a)`` of both plans on every
insert, and ``RankJoinPlan.cost`` re-runs the depth model and
Propagate down its whole subtree each time.  Within one
:meth:`~repro.optimizer.enumerator.Optimizer.optimize` call these are
pure functions of immutable inputs, so the call remembers them here:

* ``costs`` -- ``(plan, k) -> cost``;
* ``depths`` -- ``(plan, k) -> DepthEstimate`` of rank-join nodes;
* ``order_keys`` -- ``id(expression) -> (expression, order_key)``
  (the expression is held so its id cannot be reused);
* ``interesting`` -- ``frozenset(tables) -> [InterestingOrder]``.

The memo is a side table owned by the call, reached through a context
variable, and never stored on the optimizer, the plans or the
expressions:

* the optimizer is shared between threads (the server's event loop
  and its instalment thread optimize concurrently), and a context
  variable is private to each thread;
* the plan cache keeps every cached result's whole MEMO alive, so
  per-plan memo dicts would multiply its memory;
* plan nodes are only immutable *during* ``optimize``: after it
  returns, recovery re-costs a run-owned copy under an observed
  selectivity, which a memo that outlived the call would answer with
  stale numbers.

Outside an active memo every lookup falls through to a fresh
computation, so callers see the same values either way.
"""

import contextvars
from contextlib import contextmanager

#: The memo of the ``optimize`` call running in this context, if any.
ACTIVE = contextvars.ContextVar("repro_enumeration_memo", default=None)


class EnumerationMemo:
    """The per-call tables (see the module docstring)."""

    __slots__ = ("costs", "depths", "order_keys", "interesting")

    def __init__(self):
        self.costs = {}
        self.depths = {}
        self.order_keys = {}
        self.interesting = {}


@contextmanager
def enumeration_memo():
    """Run the enclosed block under a fresh :class:`EnumerationMemo`.

    Each entry gets its own memo, even when nested inside another
    (an inner call may plan a different query); leaving the block
    discards it.
    """
    token = ACTIVE.set(EnumerationMemo())
    try:
        yield
    finally:
        ACTIVE.reset(token)
