"""Generated tables, query shapes and brute-force reference answers.

Every workload draws its tables from a :class:`Dataset`: per table an
``id`` column (the row's position), integer join keys ``k1``..``kn`` and
one float score column ``s``.  Queries are :class:`Shape` values -- a
chain of tables joined on key columns, one weight per table, and ``k``
-- rendered to the engine's SQL dialect by :func:`sql_of`.

Reference answers never touch the engine's rank-join code: they join
the generated numpy columns by sorting and repeating indices, score
every full join result, and keep the top ``k`` (:func:`reference`).
:func:`check_answer` compares an engine answer with it: the score
sequence must match, every answer strictly above the k-th score must
match as a multiset, and the answers tied at the k-th score must be a
sub-multiset of the reference's tie group.
"""

import collections

import numpy as np

#: Relative tolerance when comparing engine scores with numpy scores.
SCORE_TOL = 1e-9


class Dataset:
    """Column data of every table, kept in step with engine inserts."""

    def __init__(self):
        self.tables = {}
        self.key_domains = {}

    def add_table(self, name, rows, keys, domain, rng):
        """Generate ``rows`` rows with ``keys`` join keys in ``domain``.

        Sampling is stratified, so one seed differs from the next in
        which rows meet, not in the shape of the data: every key value
        occurs equally often (up to one) and each score falls in its
        own ``1/rows`` slice of ``[0, 1)``.
        """
        columns = {"id": np.arange(rows, dtype=np.int64)}
        for index in range(1, keys + 1):
            columns["k%d" % index] = rng.permutation(
                np.arange(rows, dtype=np.int64) % domain)
        columns["s"] = (rng.permutation(rows) + rng.random(rows)) / rows
        self.tables[name] = columns
        self.key_domains[name] = domain

    def schema(self, name):
        columns = self.tables[name]
        return [(column, "float" if column == "s" else "int")
                for column in columns]

    def rows(self, name):
        """Engine rows (lists of Python scalars) for ``name``."""
        columns = self.tables[name]
        return [list(row) for row in zip(*(columns[c].tolist()
                                           for c in columns))]

    def new_row(self, name, rng):
        """A row for ``name`` with the next id, random keys and score."""
        row = []
        for column, values in self.tables[name].items():
            if column == "id":
                row.append(len(values))
            elif column == "s":
                row.append(float(rng.random()))
            else:
                row.append(int(rng.integers(0, self.key_domains[name])))
        return row

    def append(self, name, row):
        """Mirror an engine insert of ``row`` into ``name``."""
        columns = self.tables[name]
        for column, value in zip(list(columns), row):
            columns[column] = np.append(columns[column], value)

    def sizes(self):
        """Row count per table: the data version a read saw."""
        return tuple(sorted((name, len(columns["id"]))
                            for name, columns in self.tables.items()))

    def prefix(self, sizes):
        """A view holding only the first rows given by ``sizes``.

        Tables only grow by appends, so this is the data as it stood
        when :meth:`sizes` returned ``sizes``.
        """
        view = Dataset()
        view.key_domains = self.key_domains
        for name, count in sizes:
            view.tables[name] = {column: values[:count] for column, values
                                 in self.tables[name].items()}
        return view


class Shape:
    """A chain join query: ``tables[i].keys[i] = tables[i+1].keys[i]``.

    ``keys[i]`` names the key column joining table ``i`` to table
    ``i + 1``; ``weights`` has one positive weight per table.
    """

    __slots__ = ("tables", "keys", "weights", "k")

    def __init__(self, tables, keys, weights, k):
        self.tables = tuple(tables)
        self.keys = tuple(keys)
        self.weights = tuple(float(w) for w in weights)
        self.k = int(k)

    def with_k(self, k):
        return Shape(self.tables, self.keys, self.weights, k)

    def __eq__(self, other):
        return (isinstance(other, Shape)
                and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        return (self.tables, self.keys, self.weights, self.k)

    def __repr__(self):
        return "Shape(%s, k=%d)" % ("-".join(self.tables), self.k)


def sql_of(shape):
    """The shape as SQL text in the engine's ranked-WITH dialect."""
    tables = shape.tables
    ids = ", ".join("%s.id AS i%d" % (t, i) for i, t in enumerate(tables))
    score = " + ".join("%.6f*%s.s" % (w, t)
                       for w, t in zip(shape.weights, tables))
    where = " AND ".join(
        "%s.%s = %s.%s" % (tables[i], key, tables[i + 1], key)
        for i, key in enumerate(shape.keys))
    outer = ", ".join("i%d" % i for i in range(len(tables)))
    return ("WITH Ranked AS (SELECT %s, rank() OVER (ORDER BY (%s)) "
            "AS rank FROM %s WHERE %s) SELECT %s, rank FROM Ranked "
            "WHERE rank <= %d" % (ids, score, ", ".join(tables), where,
                                  outer, shape.k))


def answer_of(shape, rows):
    """Engine result rows as a list of id tuples in table order."""
    names = ["%s.id" % t for t in shape.tables]
    return [tuple(row[name] for name in names) for row in rows]


def _rounded_weights(shape):
    # The SQL text carries each weight with six decimals; score with
    # exactly the weights the engine parsed.
    return [float("%.6f" % w) for w in shape.weights]


def full_join(dataset, shape):
    """``(ids, scores)`` of every join result, by sort-and-repeat."""
    first = dataset.tables[shape.tables[0]]
    index = [np.arange(len(first["id"]))]
    for position, key in enumerate(shape.keys):
        left = dataset.tables[shape.tables[position]][key][index[-1]]
        right = dataset.tables[shape.tables[position + 1]][key]
        order = np.argsort(right, kind="stable")
        ordered = right[order]
        lo = np.searchsorted(ordered, left, side="left")
        hi = np.searchsorted(ordered, left, side="right")
        counts = hi - lo
        keep = np.repeat(np.arange(len(left)), counts)
        starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
        matched = order[np.arange(len(keep)) + starts]
        index = [column[keep] for column in index] + [matched]
    weights = _rounded_weights(shape)
    scores = np.zeros(len(index[0]))
    for w, name, rows in zip(weights, shape.tables, index):
        scores = scores + w * dataset.tables[name]["s"][rows]
    ids = np.stack([dataset.tables[name]["id"][rows]
                    for name, rows in zip(shape.tables, index)], axis=1)
    return ids, scores


class Reference:
    """Top-``k`` reference answer for one shape over one data version."""

    __slots__ = ("scores", "above", "ties", "kth")

    def __init__(self, ids, scores, k):
        if len(scores) > k:
            top = np.argpartition(-scores, k - 1)[:k]
        else:
            top = np.arange(len(scores))
        top = top[np.argsort(-scores[top], kind="stable")]
        self.scores = scores[top]
        self.kth = self.scores[-1] if len(top) else None
        self.above = collections.Counter()
        self.ties = collections.Counter()
        if self.kth is None:
            return
        tol = SCORE_TOL * max(1.0, abs(self.kth))
        for row, score in zip(ids[top], self.scores):
            if score > self.kth + tol:
                self.above[tuple(row.tolist())] += 1
        # Every full result tied with the k-th score may legitimately
        # fill the tail of the answer.
        for row in ids[np.abs(scores - self.kth) <= tol]:
            self.ties[tuple(row.tolist())] += 1


def reference(dataset, shape):
    ids, scores = full_join(dataset, shape)
    return Reference(ids, scores, shape.k)


def score_of(dataset, shape, answer):
    weights = _rounded_weights(shape)
    return [sum(w * float(dataset.tables[t]["s"][i])
                for w, t, i in zip(weights, shape.tables, ids))
            for ids in answer]


def check_answer(dataset, shape, answer, ref):
    """None when ``answer`` is a correct top-k, else a reason string."""
    if len(answer) != len(ref.scores):
        return "returned %d rows, expected %d" % (len(answer),
                                                  len(ref.scores))
    if not answer:
        return None
    scores = score_of(dataset, shape, answer)
    tol = SCORE_TOL * max(1.0, abs(ref.kth))
    for position, (got, want) in enumerate(zip(scores, ref.scores)):
        if abs(got - want) > tol:
            return "score %d is %.12g, expected %.12g" % (position, got,
                                                          want)
    above = collections.Counter()
    tied = collections.Counter()
    for ids, score in zip(answer, scores):
        if score > ref.kth + tol:
            above[ids] += 1
        else:
            tied[ids] += 1
    if above != ref.above:
        return "answers above the k-th score differ from the reference"
    if tied - ref.ties:
        return "answers tied at the k-th score are not join results"
    return None


class Oracle:
    """Reference answers cached per (shape, data version)."""

    def __init__(self, dataset):
        self.dataset = dataset
        self._cache = {}

    def check(self, shape, answer, sizes=None):
        """Check ``answer`` against the data as of ``sizes`` (default:
        now); returns None when correct, else the reason."""
        sizes = sizes or self.dataset.sizes()
        data = self.dataset.prefix(sizes)
        key = (shape, sizes)
        ref = self._cache.get(key)
        if ref is None:
            ref = self._cache[key] = reference(data, shape)
        return check_answer(data, shape, answer, ref)
