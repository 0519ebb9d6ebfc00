"""Differential testing: sqldf vs a brute-force Python reference.

Random small frames and random query fragments are evaluated both by the
vectorised engine and by naive row-at-a-time Python; any disagreement is
a bug in one of them. A token fuzz closes the file: every query, valid
or not, either runs or raises :class:`SQLError`.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rlang import SQLError, data_frame, sqldf


@st.composite
def small_frame(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    xs = draw(st.lists(st.integers(min_value=-20, max_value=20),
                       min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(min_value=-20, max_value=20),
                       min_size=n, max_size=n))
    gs = draw(st.lists(st.sampled_from(["a", "b", "c"]),
                       min_size=n, max_size=n))
    return {"x": xs, "y": ys, "g": gs}


@given(small_frame(),
       st.integers(min_value=-20, max_value=20),
       st.sampled_from([">", ">=", "<", "<=", "=", "!="]))
@settings(max_examples=60, deadline=None)
def test_where_matches_reference(columns, threshold, op):
    frames = {"t": data_frame(**columns)}
    out = sqldf(f"SELECT x FROM t WHERE x {op} {threshold}", frames)

    py_op = {">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
             "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
             "=": lambda a, b: a == b, "!=": lambda a, b: a != b}[op]
    expect = [x for x in columns["x"] if py_op(x, threshold)]
    assert out["x"].tolist() == expect


@given(small_frame())
@settings(max_examples=60, deadline=None)
def test_compound_predicate_matches_reference(columns):
    frames = {"t": data_frame(**columns)}
    out = sqldf("SELECT x, y FROM t "
                "WHERE (x > 0 AND y < 5) OR NOT g = 'a'", frames)
    expect = [(x, y) for x, y, g in zip(
        columns["x"], columns["y"], columns["g"])
        if (x > 0 and y < 5) or not g == "a"]
    assert list(zip(out["x"].tolist(), out["y"].tolist())) == expect


@given(small_frame())
@settings(max_examples=60, deadline=None)
def test_group_aggregates_match_reference(columns):
    frames = {"t": data_frame(**columns)}
    out = sqldf("SELECT g, COUNT(*) AS n, SUM(x) AS sx, MIN(y) AS my "
                "FROM t GROUP BY g ORDER BY g", frames)
    groups: dict = {}
    for x, y, g in zip(columns["x"], columns["y"], columns["g"]):
        groups.setdefault(g, []).append((x, y))
    expect = sorted(
        (g, len(rows), sum(x for x, _ in rows), min(y for _, y in rows))
        for g, rows in groups.items())
    got = list(zip(out["g"].tolist(), out["n"].tolist(),
                   out["sx"].tolist(), out["my"].tolist()))
    assert got == expect


@given(small_frame(), st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_order_limit_matches_reference(columns, limit):
    frames = {"t": data_frame(**columns)}
    out = sqldf(f"SELECT x FROM t ORDER BY x DESC, y ASC LIMIT {limit}",
                frames)
    ordered = sorted(zip(columns["x"], columns["y"]),
                     key=lambda xy: (-xy[0], xy[1]))
    assert out["x"].tolist() == [x for x, _y in ordered[:limit]]


@given(small_frame())
@settings(max_examples=40, deadline=None)
def test_distinct_matches_reference(columns):
    frames = {"t": data_frame(**columns)}
    out = sqldf("SELECT DISTINCT x, g FROM t", frames)
    seen = []
    for x, g in zip(columns["x"], columns["g"]):
        if (x, g) not in seen:
            seen.append((x, g))
    assert list(zip(out["x"].tolist(), out["g"].tolist())) == seen


@given(small_frame(), small_frame())
@settings(max_examples=40, deadline=None)
def test_join_matches_reference(left_cols, right_cols):
    frames = {
        "l": data_frame(x=left_cols["x"], g=left_cols["g"]),
        "r": data_frame(g=right_cols["g"], y=right_cols["y"]),
    }
    out = sqldf("SELECT g, x, y FROM l JOIN r USING (g)", frames)
    expect = [
        (gl, x, y)
        for x, gl in zip(left_cols["x"], left_cols["g"])
        for y, gr in zip(right_cols["y"], right_cols["g"])
        if gl == gr
    ]
    got = list(zip(out["g"].tolist(), out["x"].tolist(),
                   out["y"].tolist()))
    assert got == expect


# ------------------------------------------------------------ token fuzz

_NAN = float("nan")
_FUZZ_FRAMES = {
    "t": data_frame(x=[1, 2, 3, 2], y=[0.5, _NAN, -0.0, 2.0],
                    g=["a", "b", "a", "c"], k=[0, 1, 1, 2]),
    "u": data_frame(k=[0.0, 1.0, _NAN], z=[1.0, 2.0, 3.0]),
}
_EMPTY_FRAMES = {
    "t": data_frame(x=np.array([], dtype=np.int64), y=np.array([]),
                    g=np.array([], dtype=object),
                    k=np.array([], dtype=np.int64)),
    "u": _FUZZ_FRAMES["u"],
}
_OPERANDS = ["x", "y", "g", "k", "z", "1", "0", "2.5", "'a'", "'b%'"]
_TOKENS = _OPERANDS + [
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "AS", "AND", "OR", "NOT", "ASC", "DESC", "IN", "DISTINCT", "BETWEEN",
    "LIKE", "JOIN", "USING", "t", "u", "COUNT", "SUM", "AVG", "MIN", "MAX",
    "(", ")", ",", "*", "+", "-", "/", "%", "=", "!=", "<>", "<", "<=",
    ">", ">=",
]

#: expressions mixing strings, numbers, NaN columns and aggregates
_exprs = st.recursive(
    st.sampled_from(_OPERANDS),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["-", "NOT "]), inner).map("".join),
        st.tuples(st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]),
                  inner).map(lambda p: f"{p[0]}({p[1]})"),
        st.tuples(inner, st.sampled_from(
            ["+", "-", "*", "/", "%", "=", "!=", "<", ">=", "AND", "OR"]),
            inner).map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
        st.tuples(inner, inner, inner).map(
            lambda p: f"{p[0]} BETWEEN {p[1]} AND {p[2]}"),
        inner.map(lambda e: f"{e} IN (1, 'a')"),
        inner.map(lambda e: f"{e} LIKE 'a%'"),
    ),
    max_leaves=6,
)


@st.composite
def _shaped_queries(draw):
    sql = f"SELECT {draw(st.sampled_from(['', 'DISTINCT ']))}" + \
        ", ".join(draw(st.lists(_exprs, min_size=1, max_size=3))) + \
        " FROM t"
    clauses = [
        " JOIN u USING (k)",
        " WHERE " + draw(_exprs),
        " GROUP BY " + draw(st.sampled_from(["x", "y", "g", "k"])),
        " HAVING " + draw(_exprs),
        " ORDER BY " + draw(_exprs)
        + draw(st.sampled_from(["", " DESC"])) + ", g",
        f" LIMIT {draw(st.integers(0, 3))}",
    ]
    for clause in clauses:
        if draw(st.booleans()):
            sql += clause
    return sql


_token_streams = st.lists(st.sampled_from(_TOKENS), max_size=14).map(
    lambda tokens: " ".join(["SELECT", *tokens]))


def _runs_or_raises_sqlerror(sql):
    for frames in (_FUZZ_FRAMES, _EMPTY_FRAMES):
        for optimize in (True, False):
            with warnings.catch_warnings():
                # division by zero and NaN arithmetic warn, not fail
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    sqldf(sql, frames, optimize=optimize)
                except SQLError:
                    pass


@given(st.one_of(_shaped_queries(), _token_streams))
@settings(max_examples=300, deadline=None)
def test_every_query_runs_or_raises_sqlerror(sql):
    _runs_or_raises_sqlerror(sql)
