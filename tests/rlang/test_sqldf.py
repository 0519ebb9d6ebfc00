"""Tests for the SQL engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rlang import SQLError, data_frame, sqldf


@pytest.fixture
def frames():
    return {
        "t": data_frame(
            x=[1, 2, 3, 4, 5],
            y=[10.0, 20.0, 30.0, 40.0, 50.0],
            grp=["a", "b", "a", "b", "a"],
        )
    }


def test_select_star(frames):
    out = sqldf("SELECT * FROM t", frames)
    assert out == frames["t"]


def test_select_columns(frames):
    out = sqldf("SELECT y, x FROM t", frames)
    assert out.names == ["y", "x"]
    np.testing.assert_array_equal(out["x"], [1, 2, 3, 4, 5])


def test_where_comparison(frames):
    out = sqldf("SELECT x FROM t WHERE y > 25", frames)
    np.testing.assert_array_equal(out["x"], [3, 4, 5])


def test_where_and_or_not(frames):
    out = sqldf(
        "SELECT x FROM t WHERE (y > 15 AND grp = 'a') OR x = 1", frames)
    np.testing.assert_array_equal(out["x"], [1, 3, 5])
    out2 = sqldf("SELECT x FROM t WHERE NOT grp = 'a'", frames)
    np.testing.assert_array_equal(out2["x"], [2, 4])


def test_arithmetic_expressions(frames):
    out = sqldf("SELECT x * 2 + 1 AS z FROM t WHERE x <= 2", frames)
    np.testing.assert_array_equal(out["z"], [3, 5])


def test_unary_minus_and_modulo(frames):
    out = sqldf("SELECT -x AS neg, x % 2 AS parity FROM t", frames)
    np.testing.assert_array_equal(out["neg"], [-1, -2, -3, -4, -5])
    np.testing.assert_array_equal(out["parity"], [1, 0, 1, 0, 1])


def test_order_by_limit_top_n(frames):
    """The paper's 'highlight top 10' query shape (Fig. 9)."""
    out = sqldf("SELECT x, y FROM t ORDER BY y DESC LIMIT 2", frames)
    np.testing.assert_array_equal(out["y"], [50.0, 40.0])


def test_order_by_expression(frames):
    out = sqldf("SELECT x FROM t ORDER BY y * -1", frames)
    np.testing.assert_array_equal(out["x"], [5, 4, 3, 2, 1])


def test_order_by_multiple_keys():
    frames = {"t": data_frame(a=[1, 1, 2, 2], b=[4, 3, 2, 1])}
    out = sqldf("SELECT a, b FROM t ORDER BY a ASC, b ASC", frames)
    np.testing.assert_array_equal(out["b"], [3, 4, 1, 2])


def test_aggregates_whole_table(frames):
    out = sqldf(
        "SELECT COUNT(*) AS n, SUM(y) AS total, AVG(x) AS mean_x, "
        "MIN(y) AS lo, MAX(y) AS hi FROM t", frames)
    assert out.nrow == 1
    assert out["n"][0] == 5
    assert out["total"][0] == 150.0
    assert out["mean_x"][0] == 3.0
    assert out["lo"][0] == 10.0 and out["hi"][0] == 50.0


def test_group_by(frames):
    out = sqldf(
        "SELECT grp, SUM(y) AS total FROM t GROUP BY grp "
        "ORDER BY grp", frames)
    np.testing.assert_array_equal(out["grp"], ["a", "b"])
    np.testing.assert_array_equal(out["total"], [90.0, 60.0])


def test_group_by_having(frames):
    out = sqldf(
        "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp "
        "HAVING COUNT(*) > 2", frames)
    np.testing.assert_array_equal(out["grp"], ["a"])
    assert out["n"][0] == 3


def test_in_list(frames):
    out = sqldf("SELECT x FROM t WHERE x IN (1, 4)", frames)
    np.testing.assert_array_equal(out["x"], [1, 4])
    out2 = sqldf("SELECT x FROM t WHERE x NOT IN (1, 2, 3)", frames)
    np.testing.assert_array_equal(out2["x"], [4, 5])


def test_string_literal_with_escape():
    frames = {"t": data_frame(s=["it's", "plain"])}
    out = sqldf("SELECT s FROM t WHERE s = 'it''s'", frames)
    assert out.nrow == 1


def test_implicit_alias(frames):
    out = sqldf("SELECT x + 1 bump FROM t LIMIT 1", frames)
    assert out.names == ["bump"]


def test_default_output_names(frames):
    out = sqldf("SELECT SUM(x), COUNT(*) FROM t", frames)
    assert out.names == ["sum_x", "count_*"]


def test_empty_where_result(frames):
    out = sqldf("SELECT x FROM t WHERE x > 100", frames)
    assert out.nrow == 0


def test_empty_group_result(frames):
    out = sqldf("SELECT grp, SUM(x) AS s FROM t WHERE x > 100 "
                "GROUP BY grp", frames)
    assert out.nrow == 0


def test_limit_zero(frames):
    assert sqldf("SELECT x FROM t LIMIT 0", frames).nrow == 0


# ------------------------------------------------------------------ errors
@pytest.mark.parametrize("bad", [
    "SELECT FROM t",
    "SELECT * FROM",
    "SELECT * FROM missing_table",
    "SELECT * FROM t WHERE",
    "SELECT * FROM t LIMIT -1",
    "SELECT * FROM t GARBAGE",
    "SELECT SUM(*) FROM t",
    "SELECT x FROM t ORDER BY SUM(y) GROUP BY x",
    "SELECT * FROM t GROUP BY grp",
    "SELECT bad~char FROM t",
])
def test_malformed_queries_raise(bad, frames):
    with pytest.raises(SQLError):
        sqldf(bad, frames)


@pytest.mark.parametrize("sql, op", [
    ("SELECT x FROM t WHERE grp > 1", ">"),
    ("SELECT grp + 1 AS g1 FROM t", "+"),
    ("SELECT - 'a' AS neg FROM t", "-"),
    ("SELECT x FROM t WHERE grp BETWEEN 1 AND 3", "BETWEEN"),
    ("SELECT AVG(grp) AS m FROM t", "AVG"),
    ("SELECT SUM(grp) AS s FROM t", "SUM"),
    ("SELECT SUM(grp) AS s FROM t WHERE x > 99", "SUM"),
    ("SELECT grp, MIN(grp) - 1 AS m FROM t GROUP BY grp", "-"),
])
def test_type_mismatches_raise_sqlerror_naming_the_operator(sql, op,
                                                            frames):
    """Strings in arithmetic, ordering comparisons with numbers and
    SUM/AVG are query errors, not TypeError or string concatenation."""
    for optimize in (True, False):
        with pytest.raises(SQLError) as exc:
            sqldf(sql, frames, optimize=optimize)
        assert f"operator {op} " in str(exc.value)


def test_aggregate_order_by_must_use_output_column(frames):
    with pytest.raises(SQLError):
        sqldf("SELECT grp, SUM(y) AS s FROM t GROUP BY grp "
              "ORDER BY y + 1", frames)


# --------------------------------------------------------------- property
@given(st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    min_size=1, max_size=50))
@settings(max_examples=40, deadline=None)
def test_property_top_k_matches_numpy(values):
    frames = {"t": data_frame(v=np.array(values, dtype=np.float64))}
    out = sqldf("SELECT v FROM t ORDER BY v DESC LIMIT 5", frames)
    expect = np.sort(np.array(values))[::-1][:5]
    np.testing.assert_array_equal(out["v"], expect)


@given(st.lists(st.integers(min_value=-100, max_value=100),
                min_size=1, max_size=60),
       st.integers(min_value=-100, max_value=100))
@settings(max_examples=40, deadline=None)
def test_property_where_matches_numpy_mask(values, threshold):
    arr = np.array(values)
    frames = {"t": data_frame(v=arr)}
    out = sqldf(f"SELECT v FROM t WHERE v >= {threshold}", frames)
    np.testing.assert_array_equal(out["v"], arr[arr >= threshold])


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=60))
@settings(max_examples=40, deadline=None)
def test_property_group_counts_match_counter(groups):
    from collections import Counter
    frames = {"t": data_frame(g=groups)}
    out = sqldf("SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY g",
                frames)
    expect = Counter(groups)
    assert dict(zip(out["g"], out["n"])) == dict(expect)
