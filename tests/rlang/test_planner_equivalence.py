"""Planner equivalence against an independent row-at-a-time reference.

Every query runs through the planner twice — rewrites off
(``sqldf(..., optimize=False)``) and projection/predicate pushdown on
(the default) — and both results must equal a brute-force Python
evaluation of the query's meaning: same column names, same row order,
same values (NaN equal to NaN, float aggregates to 1e-12 relative).

The generator emits each query's SQL text together with its meaning as
a :class:`Ref`, a plain description the reference below evaluates over
lists of row dicts. The reference uses no rlang parser, AST or kernel,
so a bug the planner shares with itself cannot hide. The semantics it
encodes:

- WHERE keeps rows whose predicate is true; NaN compares false.
- GROUP BY and DISTINCT put all NaN values of a column in one group;
  ``-0.0`` and ``0.0`` are one value. Groups come in first-occurrence
  order.
- SUM/AVG/MIN/MAX of no rows, or of rows holding NaN, are NaN.
- ORDER BY sorts each key in its own direction, NaN above every number;
  rows tied on every key keep input order, reversed when the leading
  key is DESC.

Frames carry NaN and ``-0.0`` values, and every query also runs over an
empty ``t``. A seeded generator covers 20 shapes (filters, joins,
aggregates, DISTINCT, ORDER BY, LIMIT); targeted cases pin the rest:
GROUP BY / ORDER BY may reference SELECT aliases, and unknown-column
errors list the available columns.
"""

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest

from repro.rlang import DataFrame, SQLError, data_frame, sqldf

# ------------------------------------------------------------- the data

_T_DTYPES = {"x": np.int64, "y": np.float64, "k": np.int64, "grp": object}
_U_ROWS = [
    {"k": k, "label": label, "w": k + 0.5}
    for k, label in enumerate(["zero", "one", "two", "three", "four"])
]


def make_rows(seed=0, n=40):
    """Rows of ``t``: ``y`` mixes rounded floats with NaN, ``-0.0``
    and ``0.0``."""
    rng = random.Random(seed)
    specials = [math.nan, -0.0, 0.0]
    return [
        {"x": rng.randint(0, 9),
         "y": rng.choice(specials) if rng.random() < 0.25
         else round(rng.uniform(-5, 5), 3),
         "k": rng.randint(0, 3),
         "grp": rng.choice("abcd")}
        for _ in range(n)
    ]


def to_frame(rows, dtypes):
    return DataFrame({
        name: np.array([row[name] for row in rows], dtype=dtype)
        for name, dtype in dtypes.items()
    })


def make_tables(seed=0, n=40):
    """``{name: rows}`` for the reference and ``{name: DataFrame}`` for
    the planner, built from the same rows."""
    data = {"t": make_rows(seed, n), "u": _U_ROWS}
    frames = {
        "t": to_frame(data["t"], _T_DTYPES),
        "u": to_frame(_U_ROWS, {"k": np.int64, "label": object,
                                "w": np.float64}),
    }
    return data, frames


# -------------------------------------------------------- the reference

def _is_nan(value):
    return isinstance(value, float) and math.isnan(value)


def _sort_key(value):
    return (1, 0.0) if _is_nan(value) else (0, value)


def _group_key(value):
    return ("nan",) if _is_nan(value) else value


def _reduce(func):
    def aggregate(col):
        def over(rows):
            values = [row[col] for row in rows]
            if not values or any(_is_nan(v) for v in values):
                return math.nan
            return func(values)
        return over
    return aggregate


SUM = _reduce(sum)
AVG = _reduce(lambda values: sum(values) / len(values))
MIN = _reduce(min)
MAX = _reduce(max)


def COUNT(rows):
    return len(rows)


def col(name):
    return lambda row: row[name]


def first(name):
    """A bare column in an aggregate query: the group's first value."""
    return lambda rows: rows[0][name]


@dataclass
class Ref:
    """A query's meaning.

    ``items`` map a source row (plain queries) or a group's rows
    (``group`` set; ``[]`` = the whole table is one group) to an output
    value. ``order`` keys see the source row, or for aggregate queries
    the output row as a dict.
    """

    names: list
    items: list
    join: bool = False                  # t JOIN u USING (k)
    where: Optional[Callable] = None
    group: Optional[list] = None
    having: Optional[Callable] = None
    order: tuple = ()                   # ((key, descending), ...)
    distinct: bool = False
    limit: Optional[int] = None


def _ordered(rows, order):
    rows = list(rows)
    if order and order[0][1]:
        rows.reverse()
    for key, desc in reversed(order):
        rows.sort(key=lambda row: _sort_key(key(row)), reverse=desc)
    return rows


def reference(ref: Ref, data) -> list:
    """Evaluate ``ref`` row at a time; returns the output row tuples."""
    rows = data["t"]
    if ref.join:
        rows = [{**left, **right} for left in rows for right in data["u"]
                if left["k"] == right["k"]]
    if ref.where is not None:
        rows = [row for row in rows if ref.where(row)]
    if ref.group is not None:
        groups = {}
        for row in rows:
            key = tuple(_group_key(row[c]) for c in ref.group)
            groups.setdefault(key, []).append(row)
        parts = list(groups.values()) if ref.group else [rows]
        if ref.having is not None:
            parts = [part for part in parts if ref.having(part)]
        out = [tuple(item(part) for item in ref.items) for part in parts]
        out = [tuple(row.values()) for row in _ordered(
            [dict(zip(ref.names, row)) for row in out], ref.order)]
    else:
        out = [tuple(item(row) for item in ref.items)
               for row in _ordered(rows, ref.order)]
    if ref.distinct:
        seen, unique = set(), []
        for row in out:
            key = tuple(_group_key(v) for v in row)
            if key not in seen:
                seen.add(key)
                unique.append(row)
        out = unique
    return out if ref.limit is None else out[:ref.limit]


def _same(got, want):
    if _is_nan(want) or _is_nan(got):
        return _is_nan(want) and _is_nan(got)
    if isinstance(want, float) or isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
    return got == want


def assert_matches(frame, ref, rows):
    assert frame.names == ref.names
    assert frame.nrow == len(rows), (frame.nrow, len(rows))
    for j, name in enumerate(ref.names):
        got = frame[name].tolist()
        want = [row[j] for row in rows]
        bad = [i for i, (g, w) in enumerate(zip(got, want))
               if not _same(g, w)]
        assert not bad, f"column {name!r} rows {bad}: {got} != {want}"


def check(sql, ref, seed=0, n=40):
    """Both planner settings equal the reference, on the seeded frames
    and on an empty ``t``."""
    for rows in (n, 0):
        data, frames = make_tables(seed, rows)
        want = reference(ref, data)
        assert_matches(sqldf(sql, frames, optimize=False), ref, want)
        assert_matches(sqldf(sql, frames), ref, want)


# ------------------------------------------------------ randomized suite

#: (SQL template over filter column ``c``, meaning)
_FILTERS = [
    ("", None),
    (" WHERE {c} > 4", lambda c: lambda r: r[c] > 4),
    (" WHERE y <= 0.0", lambda c: lambda r: r["y"] <= 0.0),
    (" WHERE {c} BETWEEN 2 AND 7", lambda c: lambda r: 2 <= r[c] <= 7),
    (" WHERE grp IN ('a', 'c')", lambda c: lambda r: r["grp"] in ("a", "c")),
    (" WHERE NOT grp = 'b'", lambda c: lambda r: r["grp"] != "b"),
    (" WHERE {c} > 2 AND y < 3.0",
     lambda c: lambda r: r[c] > 2 and r["y"] < 3.0),
    (" WHERE {c} = 1 OR k = 2", lambda c: lambda r: r[c] == 1 or r["k"] == 2),
    (" WHERE grp LIKE 'a%'", lambda c: lambda r: r["grp"].startswith("a")),
    (" WHERE {c} != 5", lambda c: lambda r: r[c] != 5),
]
#: (SQL, ORDER BY keys, LIMIT)
_TAILS = [
    ("", (), None),
    (" ORDER BY x, y", ((col("x"), False), (col("y"), False)), None),
    (" ORDER BY y DESC", ((col("y"), True),), None),
    (" LIMIT 7", (), 7),
    (" ORDER BY x LIMIT 5", ((col("x"), False),), 5),
    (" LIMIT 0", (), 0),
]


def _generated_queries(seed=2026, count=20):
    """20 seeded random ``(sql, Ref)`` pairs over filters, joins,
    aggregates and DISTINCT."""
    rng = random.Random(seed)
    queries = []
    while len(queries) < count:
        kind = rng.choice(("select", "join", "agg", "distinct"))
        where_sql, where = rng.choice(_FILTERS)
        tail, order, limit = rng.choice(_TAILS)
        c = "k" if kind == "join" else "x"
        where_sql = where_sql.format(c=c)
        where = where(c) if where else None
        if kind == "select":
            cols = rng.sample(["x", "y", "k", "grp"], rng.randint(1, 3))
            queries.append((
                f"SELECT {', '.join(cols)} FROM t{where_sql}{tail}",
                Ref(cols, [col(c) for c in cols], where=where,
                    order=order, limit=limit)))
        elif kind == "join":
            cols = ["grp", "label", "y", "w"]
            queries.append((
                f"SELECT {', '.join(cols)} FROM t JOIN u USING (k)"
                f"{where_sql}{tail}",
                Ref(cols, [col(c) for c in cols], join=True, where=where,
                    order=order, limit=limit)))
        elif kind == "agg":
            order_sql = rng.choice(["", " ORDER BY grp"])
            queries.append((
                f"SELECT grp, COUNT(*) AS n, SUM(y) AS s FROM t{where_sql} "
                f"GROUP BY grp{order_sql}",
                Ref(["grp", "n", "s"], [first("grp"), COUNT, SUM("y")],
                    where=where, group=["grp"],
                    order=((col("grp"), False),) if order_sql else ())))
        else:
            queries.append((
                f"SELECT DISTINCT grp, k FROM t{where_sql}{tail}",
                Ref(["grp", "k"], [col("grp"), col("k")], where=where,
                    order=order, distinct=True, limit=limit)))
    return queries


_GENERATED = dict(_generated_queries())


@pytest.mark.parametrize("sql", list(_GENERATED))
def test_generated_query_equivalence(sql):
    check(sql, _GENERATED[sql])


def test_generated_queries_cover_the_plan_space():
    sqls = [sql for sql, _ref in _generated_queries()]
    assert len(sqls) == 20
    assert any("JOIN" in s for s in sqls)
    assert any("GROUP BY" in s for s in sqls)
    assert any("LIMIT" in s for s in sqls)
    assert any("WHERE" in s for s in sqls)


def test_frames_carry_nan_and_signed_zero():
    ys = [row["y"] for row in make_rows()]
    assert any(_is_nan(y) for y in ys)
    assert any(y == 0.0 and math.copysign(1.0, y) < 0 for y in ys)
    assert any(y == 0.0 and math.copysign(1.0, y) > 0 for y in ys)


# ------------------------------------------------------- targeted shapes

_TARGETED = {
    "SELECT * FROM t":
        Ref(["x", "y", "k", "grp"], [col(c) for c in ("x", "y", "k",
                                                      "grp")]),
    "SELECT x + k AS xk, y * 2 AS y2 FROM t WHERE y > 0 ORDER BY xk":
        Ref(["xk", "y2"], [lambda r: r["x"] + r["k"], lambda r: r["y"] * 2],
            where=lambda r: r["y"] > 0,
            order=((lambda r: r["x"] + r["k"], False),)),
    "SELECT grp, AVG(y) AS m FROM t GROUP BY grp HAVING AVG(y) > -1.0":
        Ref(["grp", "m"], [first("grp"), AVG("y")], group=["grp"],
            having=lambda rows: AVG("y")(rows) > -1.0),
    "SELECT grp, MIN(y) AS lo, MAX(y) AS hi FROM t GROUP BY grp "
    "ORDER BY grp DESC":
        Ref(["grp", "lo", "hi"], [first("grp"), MIN("y"), MAX("y")],
            group=["grp"], order=((col("grp"), True),)),
    "SELECT COUNT(*) AS n FROM t WHERE x IN (1, 2, 3)":
        Ref(["n"], [COUNT], where=lambda r: r["x"] in (1, 2, 3), group=[]),
    # queries referencing no columns at all: projection pushdown must
    # not prune every column (a zero-column frame loses its row count)
    "SELECT COUNT(*) AS n FROM t": Ref(["n"], [COUNT], group=[]),
    "SELECT 1 AS one FROM t": Ref(["one"], [lambda r: 1]),
    "SELECT 1 AS one FROM t LIMIT 4": Ref(["one"], [lambda r: 1], limit=4),
    "SELECT label, SUM(x) AS s FROM t JOIN u USING (k) GROUP BY label":
        Ref(["label", "s"], [first("label"), SUM("x")], join=True,
            group=["label"]),
    "SELECT DISTINCT grp FROM t ORDER BY grp LIMIT 2":
        Ref(["grp"], [col("grp")], order=((col("grp"), False),),
            distinct=True, limit=2),
    "SELECT x, y FROM t WHERE x NOT BETWEEN 3 AND 8 ORDER BY y":
        Ref(["x", "y"], [col("x"), col("y")],
            where=lambda r: not 3 <= r["x"] <= 8,
            order=((col("y"), False),)),
    # multi-key ORDER BY with a DESC key: each key keeps its direction
    "SELECT x, k FROM t ORDER BY x DESC, k":
        Ref(["x", "k"], [col("x"), col("k")],
            order=((col("x"), True), (col("k"), False))),
    "SELECT grp, x, y FROM t ORDER BY grp, y DESC, x":
        Ref(["grp", "x", "y"], [col("grp"), col("x"), col("y")],
            order=((col("grp"), False), (col("y"), True),
                   (col("x"), False))),
    "SELECT grp, k, COUNT(*) AS n FROM t GROUP BY grp, k "
    "ORDER BY grp DESC, k":
        Ref(["grp", "k", "n"], [first("grp"), first("k"), COUNT],
            group=["grp", "k"],
            order=((col("grp"), True), (col("k"), False))),
    # NaN and -0.0 as GROUP BY / DISTINCT keys
    "SELECT y, COUNT(*) AS n FROM t GROUP BY y ORDER BY n DESC, y":
        Ref(["y", "n"], [first("y"), COUNT], group=["y"],
            order=((col("n"), True), (col("y"), False))),
    "SELECT DISTINCT y FROM t ORDER BY y DESC":
        Ref(["y"], [col("y")], order=((col("y"), True),), distinct=True),
    "SELECT grp, y, w FROM t JOIN u USING (k) WHERE y < 1.0 "
    "ORDER BY w DESC, grp LIMIT 12":
        Ref(["grp", "y", "w"], [col("grp"), col("y"), col("w")], join=True,
            where=lambda r: r["y"] < 1.0,
            order=((col("w"), True), (col("grp"), False)), limit=12),
}


@pytest.mark.parametrize("sql", list(_TARGETED))
def test_targeted_query_equivalence(sql):
    check(sql, _TARGETED[sql], seed=7)


def test_self_join_shared_scan():
    sql = "SELECT grp FROM t JOIN u USING (k) ORDER BY grp LIMIT 9"
    ref = Ref(["grp"], [col("grp")], join=True,
              order=((col("grp"), False),), limit=9)
    data, frames = make_tables(seed=3, n=12)
    frames["t2"] = frames["t"]
    want = reference(ref, data)
    assert_matches(sqldf(sql, frames, optimize=False), ref, want)
    assert_matches(sqldf(sql, frames), ref, want)


# ------------------------------------- satellites that failed at first

def test_order_by_desc_then_asc_keeps_each_direction():
    """A DESC key once reversed its whole tie groups, so every less
    significant key came out descending too."""
    frames = {"t": data_frame(a=[1, 2, 1, 2, 1], b=[3, 1, 1, 2, 2])}
    out = sqldf("SELECT a, b FROM t ORDER BY a DESC, b", frames)
    assert out["a"].tolist() == [2, 2, 1, 1, 1]
    assert out["b"].tolist() == [1, 2, 1, 2, 3]
    out = sqldf("SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b "
                "ORDER BY a DESC, b", frames)
    assert out["a"].tolist() == [2, 2, 1, 1, 1]
    assert out["b"].tolist() == [1, 2, 1, 2, 3]


def test_full_ties_keep_the_single_key_order():
    """Rows tied on every key keep input order, reversed when the
    leading key is DESC — what a single-key sort has always given."""
    frames = {"t": data_frame(a=[1, 1, 1, 0], b=[5, 5, 5, 5],
                              i=[0, 1, 2, 3])}
    desc = sqldf("SELECT i FROM t ORDER BY a DESC, b", frames)
    assert desc["i"].tolist() == [2, 1, 0, 3]
    assert sqldf("SELECT i FROM t ORDER BY a DESC",
                 frames)["i"].tolist() == [2, 1, 0, 3]
    assert sqldf("SELECT i FROM t ORDER BY a, b DESC",
                 frames)["i"].tolist() == [3, 0, 1, 2]


def test_nan_keys_form_one_group_and_one_distinct_row():
    nan = float("nan")
    frames = {"t": data_frame(y=[nan, 1.0, nan, -0.0, 0.0, nan])}
    out = sqldf("SELECT y, COUNT(*) AS n FROM t GROUP BY y", frames)
    assert out["n"].tolist() == [3, 1, 2]
    assert math.isnan(out["y"][0])
    out = sqldf("SELECT DISTINCT y FROM t", frames)
    assert out.nrow == 3 and math.isnan(out["y"][0])


def test_nan_join_keys_match_nothing():
    nan = float("nan")
    frames = {"l": data_frame(key=[nan, 1.0], a=[1, 2]),
              "r": data_frame(key=[nan, 1.0, nan], b=[3, 4, 5])}
    out = sqldf("SELECT key, a, b FROM l JOIN r USING (key)", frames)
    assert out["a"].tolist() == [2] and out["b"].tolist() == [4]


# -------------------------------------------------------- alias satellite

def test_group_by_select_alias():
    """GROUP BY may reference a SELECT alias (satellite)."""
    data, frames = make_tables(seed=11)
    out = sqldf(
        "SELECT x * 2 AS dbl, COUNT(*) AS n FROM t GROUP BY dbl "
        "ORDER BY dbl", frames)
    counts = {}
    for row in data["t"]:
        counts[row["x"] * 2] = counts.get(row["x"] * 2, 0) + 1
    np.testing.assert_array_equal(out["dbl"], sorted(counts))
    np.testing.assert_array_equal(
        out["n"], [counts[d] for d in sorted(counts)])


def test_order_by_select_alias():
    """ORDER BY may reference a SELECT alias (satellite)."""
    data, frames = make_tables(seed=11)
    out = sqldf("SELECT x * -1 AS neg FROM t ORDER BY neg", frames)
    assert out["neg"].tolist() == sorted(-row["x"] for row in data["t"])
    # and the same through the unoptimized planner
    out2 = sqldf("SELECT x * -1 AS neg FROM t ORDER BY neg", frames,
                 optimize=False)
    assert out2["neg"].tolist() == out["neg"].tolist()


def test_order_by_alias_descending():
    data, frames = make_tables(seed=11)
    out = sqldf("SELECT x + 1 AS xx FROM t ORDER BY xx DESC LIMIT 3",
                frames)
    assert out["xx"].tolist() == sorted(
        (row["x"] + 1 for row in data["t"]), reverse=True)[:3]


# -------------------------------------------- unknown-column diagnostics

def test_unknown_column_lists_available():
    _data, frames = make_tables()
    with pytest.raises(SQLError) as exc:
        sqldf("SELECT nope FROM t", frames)
    msg = str(exc.value)
    assert "nope" in msg
    for name in ("x", "y", "k", "grp"):
        assert name in msg


def test_unknown_column_in_where_lists_available():
    _data, frames = make_tables()
    with pytest.raises(SQLError) as exc:
        sqldf("SELECT x FROM t WHERE missing > 1", frames)
    assert "missing" in str(exc.value)
    assert "grp" in str(exc.value)


def test_unknown_group_by_alias_lists_available():
    _data, frames = make_tables()
    with pytest.raises(SQLError) as exc:
        sqldf("SELECT grp, COUNT(*) AS n FROM t GROUP BY ghost", frames)
    assert "ghost" in str(exc.value)


def test_unknown_table_lists_registered():
    with pytest.raises(SQLError) as exc:
        sqldf("SELECT x FROM nowhere", make_tables()[1])
    msg = str(exc.value)
    assert "nowhere" in msg and "t" in msg and "u" in msg


def test_column_only_in_unreferenced_table_still_errors():
    _data, frames = make_tables()
    with pytest.raises(SQLError):
        sqldf("SELECT label FROM t", frames)  # label lives in u
