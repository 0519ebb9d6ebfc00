"""SQL queries over data frames — the `sqldf` stand-in (§IV-E.3).

"It converts the SQL queries into operations upon R data frames since R
data frames are similar as tables." Supported surface:

    SELECT [DISTINCT] expr [AS alias], ... | *
    FROM <frame> [JOIN <frame> USING (col, ...)] ...
    [WHERE predicate]
    [GROUP BY col, ...]
    [HAVING predicate]
    [ORDER BY expr [ASC|DESC], ...]
    [LIMIT n]

Expressions: column refs, numeric/string literals, arithmetic
(+ - * / %), comparisons (= != <> < <= > >=), AND/OR/NOT, parentheses,
[NOT] IN (...), [NOT] BETWEEN ... AND ..., [NOT] LIKE 'pat%', and the
aggregates COUNT(*|expr), SUM, AVG, MIN, MAX. Everything is evaluated
vectorised over NumPy columns; joins are hash equi-joins.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass, field
from typing import Any, Optional, Union

import numpy as np

from repro.rlang.frame import DataFrame

__all__ = ["SQLError", "parse", "sqldf"]


class SQLError(Exception):
    """Lex, parse, or execution errors."""


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?
      |\d+(?:[eE][+-]?\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|<>|!=|=|<|>|\+|-|\*|/|%|\(|\)|,)
""", re.VERBOSE)

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "LIMIT", "AS", "AND", "OR", "NOT", "ASC", "DESC", "IN",
    "DISTINCT", "BETWEEN", "LIKE", "JOIN", "USING",
}

_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


@dataclass
class _Token:
    kind: str   # "number" | "string" | "ident" | "keyword" | "op"
    value: Any


def _tokenize(sql: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise SQLError(f"bad character {sql[pos]!r} at position {pos}")
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        text = match.group()
        if match.lastgroup == "number":
            value = float(text) if any(c in text for c in ".eE") \
                else int(text)
            tokens.append(_Token("number", value))
        elif match.lastgroup == "string":
            tokens.append(_Token("string", text[1:-1].replace("''", "'")))
        elif match.lastgroup == "ident":
            upper = text.upper()
            if upper in _KEYWORDS:
                tokens.append(_Token("keyword", upper))
            else:
                tokens.append(_Token("ident", text))
        else:
            tokens.append(_Token("op", text))
    return tokens


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass
class Column:
    name: str


@dataclass
class Literal:
    value: Any


@dataclass
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass
class UnaryOp:
    op: str  # "NOT" | "-"
    operand: "Expr"


@dataclass
class Aggregate:
    func: str
    arg: Optional["Expr"]  # None for COUNT(*)


@dataclass
class InList:
    expr: "Expr"
    options: list[Any]
    negated: bool = False


@dataclass
class Between:
    expr: "Expr"
    low: "Expr"
    high: "Expr"
    negated: bool = False


@dataclass
class Like:
    expr: "Expr"
    pattern: str            # SQL pattern with % and _
    negated: bool = False


Expr = Union[Column, Literal, BinOp, UnaryOp, Aggregate, InList,
             Between, Like]


@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str]


@dataclass
class Join:
    table: str
    using: list[str]


@dataclass
class Query:
    items: list[SelectItem]        # empty means SELECT *
    star: bool
    table: str
    joins: list[Join] = field(default_factory=list)
    distinct: bool = False
    where: Optional[Expr] = None
    group_by: list[str] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[tuple[Expr, bool]] = field(default_factory=list)
    limit: Optional[int] = None


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise SQLError("unexpected end of query")
        self.pos += 1
        return token

    def accept(self, kind: str, value: Any = None) -> Optional[_Token]:
        token = self.peek()
        if token and token.kind == kind and (
                value is None or token.value == value):
            self.pos += 1
            return token
        return None

    def expect(self, kind: str, value: Any = None) -> _Token:
        token = self.accept(kind, value)
        if token is None:
            have = self.peek()
            raise SQLError(
                f"expected {value or kind}, got "
                f"{have.value if have else 'end of query'!r}")
        return token

    # -- grammar --------------------------------------------------------
    def parse(self) -> Query:
        self.expect("keyword", "SELECT")
        distinct = bool(self.accept("keyword", "DISTINCT"))
        star = False
        items: list[SelectItem] = []
        if self.accept("op", "*"):
            star = True
        else:
            items.append(self.select_item())
            while self.accept("op", ","):
                items.append(self.select_item())
        self.expect("keyword", "FROM")
        table = self.expect("ident").value
        query = Query(items=items, star=star, table=table,
                      distinct=distinct)
        while self.accept("keyword", "JOIN"):
            join_table = self.expect("ident").value
            self.expect("keyword", "USING")
            self.expect("op", "(")
            using = [self.expect("ident").value]
            while self.accept("op", ","):
                using.append(self.expect("ident").value)
            self.expect("op", ")")
            query.joins.append(Join(join_table, using))
        if self.accept("keyword", "WHERE"):
            query.where = self.expr()
        if self.accept("keyword", "GROUP"):
            self.expect("keyword", "BY")
            query.group_by.append(self.expect("ident").value)
            while self.accept("op", ","):
                query.group_by.append(self.expect("ident").value)
        if self.accept("keyword", "HAVING"):
            query.having = self.expr()
        if self.accept("keyword", "ORDER"):
            self.expect("keyword", "BY")
            query.order_by.append(self.order_item())
            while self.accept("op", ","):
                query.order_by.append(self.order_item())
        if self.accept("keyword", "LIMIT"):
            token = self.expect("number")
            if not isinstance(token.value, int) or token.value < 0:
                raise SQLError("LIMIT must be a non-negative integer")
            query.limit = token.value
        if self.peek() is not None:
            raise SQLError(f"trailing input: {self.peek().value!r}")
        return query

    def select_item(self) -> SelectItem:
        expr = self.expr()
        alias = None
        if self.accept("keyword", "AS"):
            alias = self.expect("ident").value
        else:
            maybe = self.peek()
            if maybe and maybe.kind == "ident":
                alias = self.next().value
        return SelectItem(expr, alias)

    def order_item(self) -> tuple[Expr, bool]:
        expr = self.expr()
        desc = False
        if self.accept("keyword", "DESC"):
            desc = True
        else:
            self.accept("keyword", "ASC")
        return expr, desc

    # expression precedence: OR < AND < NOT < comparison < add < mul < unary
    def expr(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        left = self.and_expr()
        while self.accept("keyword", "OR"):
            left = BinOp("OR", left, self.and_expr())
        return left

    def and_expr(self) -> Expr:
        left = self.not_expr()
        while self.accept("keyword", "AND"):
            left = BinOp("AND", left, self.not_expr())
        return left

    def not_expr(self) -> Expr:
        if self.accept("keyword", "NOT"):
            return UnaryOp("NOT", self.not_expr())
        return self.comparison()

    def comparison(self) -> Expr:
        left = self.additive()
        token = self.peek()
        if token and token.kind == "op" and token.value in (
                "=", "!=", "<>", "<", "<=", ">", ">="):
            op = self.next().value
            if op == "<>":
                op = "!="
            return BinOp(op, left, self.additive())
        if token and token.kind == "keyword" and token.value in (
                "IN", "NOT", "BETWEEN", "LIKE"):
            negated = False
            if self.accept("keyword", "NOT"):
                negated = True
            if self.accept("keyword", "BETWEEN"):
                low = self.additive()
                self.expect("keyword", "AND")
                high = self.additive()
                return Between(left, low, high, negated)
            if self.accept("keyword", "LIKE"):
                pattern = self.next()
                if pattern.kind != "string":
                    raise SQLError("LIKE needs a string pattern")
                return Like(left, pattern.value, negated)
            self.expect("keyword", "IN")
            self.expect("op", "(")
            options = [self.literal_value()]
            while self.accept("op", ","):
                options.append(self.literal_value())
            self.expect("op", ")")
            return InList(left, options, negated)
        return left

    def literal_value(self) -> Any:
        token = self.next()
        if token.kind in ("number", "string"):
            return token.value
        raise SQLError(f"expected literal in IN list, got {token.value!r}")

    def additive(self) -> Expr:
        left = self.multiplicative()
        while True:
            token = self.peek()
            if token and token.kind == "op" and token.value in ("+", "-"):
                op = self.next().value
                left = BinOp(op, left, self.multiplicative())
            else:
                return left

    def multiplicative(self) -> Expr:
        left = self.unary()
        while True:
            token = self.peek()
            if token and token.kind == "op" and token.value in (
                    "*", "/", "%"):
                op = self.next().value
                left = BinOp(op, left, self.unary())
            else:
                return left

    def unary(self) -> Expr:
        if self.accept("op", "-"):
            return UnaryOp("-", self.unary())
        if self.accept("op", "+"):
            return self.unary()
        return self.primary()

    def primary(self) -> Expr:
        token = self.next()
        if token.kind == "number" or token.kind == "string":
            return Literal(token.value)
        if token.kind == "op" and token.value == "(":
            inner = self.expr()
            self.expect("op", ")")
            return inner
        if token.kind == "ident":
            name = token.value
            if name.upper() in _AGGREGATES and self.accept("op", "("):
                if self.accept("op", "*"):
                    self.expect("op", ")")
                    if name.upper() != "COUNT":
                        raise SQLError(f"{name}(*) is not valid")
                    return Aggregate("COUNT", None)
                arg = self.expr()
                self.expect("op", ")")
                return Aggregate(name.upper(), arg)
            return Column(name)
        raise SQLError(f"unexpected token {token.value!r}")


# --------------------------------------------------------------------------
# Executor
# --------------------------------------------------------------------------

def _has_aggregate(expr: Optional[Expr]) -> bool:
    if expr is None:
        return False
    if isinstance(expr, Aggregate):
        return True
    if isinstance(expr, BinOp):
        return _has_aggregate(expr.left) or _has_aggregate(expr.right)
    if isinstance(expr, (UnaryOp,)):
        return _has_aggregate(expr.operand)
    if isinstance(expr, (InList, Between, Like)):
        return _has_aggregate(expr.expr)
    return False


def _like_to_mask(values: np.ndarray, pattern: str) -> np.ndarray:
    """SQL LIKE: % = any run, _ = one char. Anchored full match."""
    import re as _re
    regex = _re.compile(
        "".join(".*" if ch == "%" else "." if ch == "_"
                else _re.escape(ch) for ch in pattern) + r"\Z")
    return np.array(
        [bool(regex.match(str(v))) for v in values], dtype=bool)


_OPERATORS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod,
}

#: arithmetic takes numbers only: no string concatenation or repetition
_ARITHMETIC = {"+", "-", "*", "/", "%", "SUM", "AVG"}


def _type_name(values: np.ndarray) -> str:
    if values.dtype.kind == "O" and len(values):
        return type(values[0]).__name__  # str, or None from no rows
    return values.dtype.name


def _apply(op: str, func, *operands: np.ndarray):
    """``func(*operands)``, with a type mismatch raised as SQLError
    naming ``op`` (numpy and Python would raise TypeError, or silently
    concatenate strings)."""
    if op not in _ARITHMETIC or all(
            v.dtype.kind in "biuf" for v in operands):
        try:
            return func(*operands)
        except TypeError:
            pass
    types = " and ".join(_type_name(v) for v in operands)
    raise SQLError(f"operator {op} cannot apply to {types}")


_REDUCERS = {"SUM": np.sum, "AVG": np.mean, "MIN": np.min, "MAX": np.max}


def _eval(expr: Expr, frame: DataFrame, n: int) -> np.ndarray:
    """Evaluate a non-aggregate expression to a length-n array."""
    if isinstance(expr, Literal):
        if isinstance(expr.value, str):
            return np.repeat(np.array([expr.value], dtype=object), n)
        return np.full(n, expr.value)
    if isinstance(expr, Column):
        return frame[expr.name]
    if isinstance(expr, UnaryOp):
        value = _eval(expr.operand, frame, n)
        if expr.op == "NOT":
            return ~value.astype(bool)
        return _apply("-", operator.neg, value)
    if isinstance(expr, InList):
        value = _eval(expr.expr, frame, n)
        mask = np.zeros(n, dtype=bool)
        for option in expr.options:
            mask |= (value == option)
        return ~mask if expr.negated else mask
    if isinstance(expr, Between):
        mask = _apply(
            "BETWEEN", lambda v, lo, hi: (v >= lo) & (v <= hi),
            _eval(expr.expr, frame, n), _eval(expr.low, frame, n),
            _eval(expr.high, frame, n))
        return ~mask if expr.negated else mask
    if isinstance(expr, Like):
        value = _eval(expr.expr, frame, n)
        mask = _like_to_mask(value, expr.pattern)
        return ~mask if expr.negated else mask
    if isinstance(expr, BinOp):
        left = _eval(expr.left, frame, n)
        right = _eval(expr.right, frame, n)
        if expr.op == "AND":
            return left.astype(bool) & right.astype(bool)
        if expr.op == "OR":
            return left.astype(bool) | right.astype(bool)
        return _apply(expr.op, _OPERATORS[expr.op], left, right)
    if isinstance(expr, Aggregate):
        raise SQLError("aggregate used outside an aggregating context")
    raise SQLError(f"cannot evaluate {expr!r}")  # pragma: no cover


def _eval_aggregate(expr: Expr, frame: DataFrame, n: int) -> Any:
    """Evaluate an expression that may contain aggregates to a scalar."""
    if isinstance(expr, Aggregate):
        if expr.func == "COUNT" and expr.arg is None:
            return n
        values = _eval(expr.arg, frame, n)
        if expr.func == "COUNT":
            return int(len(values))
        # no rows: NaN, after the same operand type check
        return _apply(expr.func, _REDUCERS[expr.func] if n
                      else lambda _values: float("nan"), values)
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Column):
        # A bare column in an aggregate context = the group key value.
        values = frame[expr.name]
        if len(values) == 0:
            return None
        return values[0]
    if isinstance(expr, UnaryOp):
        value = _eval_aggregate(expr.operand, frame, n)
        return _eval(UnaryOp(expr.op, Literal(value)), DataFrame(), 1)[0]
    if isinstance(expr, BinOp):
        left = _eval_aggregate(expr.left, frame, n)
        right = _eval_aggregate(expr.right, frame, n)
        return _eval(BinOp(expr.op, Literal(left), Literal(right)),
                     DataFrame(), 1)[0]
    raise SQLError(f"cannot aggregate {expr!r}")  # pragma: no cover


def _item_name(item: SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, Column):
        return item.expr.name
    if isinstance(item.expr, Aggregate):
        arg = item.expr.arg.name if isinstance(item.expr.arg, Column) \
            else ("*" if item.expr.arg is None else "expr")
        return f"{item.expr.func.lower()}_{arg}"
    return f"col{index}"


#: stands in for NaN inside row keys: NaN != NaN, and ``hash(nan)``
#: follows object identity, so raw NaN keys would never meet
_NAN_KEY = object()


def _row_keys(frame: DataFrame, names: list[str]):
    """Iterate one hashable key per row over ``names``, NaN as
    ``_NAN_KEY``."""
    if not names:
        return itertools.repeat((), frame.nrow)
    columns = []
    for name in names:
        values = frame[name]
        keys = values.tolist()
        if values.dtype.kind in "fcO":
            keys = [_NAN_KEY if v != v else v for v in keys]
        columns.append(keys)
    return zip(*columns)


def _hash_join(left: DataFrame, right: DataFrame,
               using: list[str]) -> DataFrame:
    """Inner equi-join on shared columns (``JOIN ... USING (cols)``).

    Result columns: the key columns once, then the remaining columns of
    each side; non-key name collisions are an error (no qualifiers in
    this dialect). The right side builds the hash index and the left
    side probes it, so pairs come out left-major, right rows in input
    order within a key. A NaN key matches nothing.
    """
    for key in using:
        if key not in left or key not in right:
            raise SQLError(f"USING column {key!r} missing from a side")
    left_rest = [c for c in left.names if c not in using]
    right_rest = [c for c in right.names if c not in using]
    clash = set(left_rest) & set(right_rest)
    if clash:
        raise SQLError(
            f"ambiguous non-key columns in join: {sorted(clash)}")

    index: dict[tuple, list[int]] = {}
    for j, key in enumerate(_row_keys(right, using)):
        if _NAN_KEY not in key:
            index.setdefault(key, []).append(j)
    pairs: list[tuple[int, int]] = []
    for i, key in enumerate(_row_keys(left, using)):
        pairs.extend((i, j) for j in index.get(key, ()))

    li = np.array([p[0] for p in pairs], dtype=np.int64)
    ri = np.array([p[1] for p in pairs], dtype=np.int64)
    out = DataFrame()
    for name in using + left_rest:
        out[name] = left[name][li]
    for name in right_rest:
        out[name] = right[name][ri]
    return out


def _distinct_rows(frame: DataFrame) -> DataFrame:
    """Drop duplicate rows, keeping the first occurrence; all NaN
    values of a column count as one value."""
    seen: set[tuple] = set()
    keep: list[int] = []
    for i, row in enumerate(_row_keys(frame, frame.names)):
        if row not in seen:
            seen.add(row)
            keep.append(i)
    return frame.subset(np.array(keep, dtype=np.int64))


def _group_frames(frame: DataFrame, keys: list[str]) -> list[DataFrame]:
    """Rows grouped by ``keys`` in first-occurrence order; all NaN
    values of a key column form one group."""
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(_row_keys(frame, keys)):
        groups.setdefault(key, []).append(i)
    return [frame.subset(np.array(rows)) for rows in groups.values()]


def parse(sql: str) -> Query:
    """Parse ``sql`` into a :class:`Query` AST."""
    return _Parser(_tokenize(sql)).parse()


def sqldf(sql: str, frames: dict[str, DataFrame],
          optimize: bool = True) -> DataFrame:
    """Run ``sql`` against the named data frames; returns a DataFrame.

    The query lowers through the logical planner
    (:mod:`repro.rlang.plan` / :mod:`repro.rlang.exec`), runs
    projection/predicate pushdown when ``optimize`` is on, and executes
    with the vectorized kernels above. ``optimize`` never changes the
    result: the equivalence suite checks both settings against a
    row-at-a-time Python reference that shares no code with this
    package.
    """
    from repro.rlang.exec import run_query  # lazy: avoids import cycle

    return run_query(parse(sql), frames, optimize=optimize)
