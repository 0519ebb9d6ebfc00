"""Partitioning, sorting, merging, and payload size estimation.

The partition fold and the merge order are part of the golden numbers
(they decide which reducer owns a key and in what order equal keys are
reduced). Both are specified by independent oracles in
``tests/mapreduce/oracles.py`` — an exact big-int evaluation of the
31-fold and a stable ``sorted()`` of the concatenated runs — and the
timings they produce are pinned by ``tests/mapreduce/test_shuffle_pins.py``.

Float keys follow the rule SQL ``GROUP BY`` follows (DESIGN.md §15):
``-0.0`` is ``0.0`` and every NaN is one key that sorts after every
number of its type, so the groups a job produces do not depend on how
many reducers share the key space. The rule covers scalar float keys,
not floats nested in tuple keys.
"""

from __future__ import annotations

import functools
import heapq
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "estimate_size",
    "group_sorted",
    "group_sorted_stream",
    "hash_partition",
    "merge_sorted_streams",
    "sort_run",
]

#: ``& _FOLD_MASK`` == ``% 2**31`` for non-negative values — the fold's
#: modulus. Because 2**31 divides 2**64, uint64 wraparound in the
#: vectorized path is congruent to the byte loop's per-step masking.
_FOLD_MASK = 0x7FFFFFFF
#: below this key length the plain byte loop beats numpy call overhead
_VECTOR_MIN_BYTES = 32

#: scalar float key types (Python and NumPy) the float-key rule covers
_FLOAT_TYPES = frozenset(
    {float, np.float16, np.float32, np.float64, np.longdouble})


#: growing cache of [31**0, 31**1, ...] mod 2**64 (natural uint64 wrap)
_POW31 = np.ones(1, dtype=np.uint64)


def _powers31(n: int) -> np.ndarray:
    """First ``n`` powers of 31 as uint64 (cached, grown geometrically)."""
    global _POW31
    if len(_POW31) < n:
        m = len(_POW31)
        grown = np.empty(max(n, 2 * m), dtype=np.uint64)
        grown[:m] = _POW31
        thirty_one = np.uint64(31)
        with np.errstate(over="ignore"):  # uint64 wrap is the point
            for i in range(m, len(grown)):
                grown[i] = grown[i - 1] * thirty_one
        _POW31 = grown
    return _POW31[:n]


def _fold31(data: bytes) -> int:
    """``h = (h * 31 + b) & 0x7FFFFFFF`` over ``data``, vectorized.

    The loop computes ``sum(b_i * 31**(n-1-i)) mod 2**31``; the numpy
    path evaluates the same polynomial in uint64 (wraparound mod 2**64
    is congruent mod 2**31) and masks once — bit-identical to the
    reference fold without per-byte Python iteration.
    """
    n = len(data)
    if n < _VECTOR_MIN_BYTES:
        h = 0
        for b in data:
            h = (h * 31 + b) & _FOLD_MASK
        return h
    arr = np.frombuffer(data, dtype=np.uint8)
    total = np.multiply(
        arr, _powers31(n)[::-1], dtype=np.uint64).sum(dtype=np.uint64)
    return int(total) & _FOLD_MASK


@functools.lru_cache(maxsize=8192)
def _str_fold(key: str) -> int:
    """Memoized encode + fold for str keys (hot in wordcount-shaped
    jobs, where the same few thousand words repeat per split)."""
    return _fold31(key.encode())


def hash_partition(key: Any, n_partitions: int) -> int:
    """Deterministic partitioner (Python's hash is salted for str — use a
    stable fold instead so runs are reproducible)."""
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    if isinstance(key, bytes):
        h = _fold31(key)
    elif isinstance(key, str):
        h = _str_fold(key)
    elif isinstance(key, (int, np.integer)):
        h = int(key) & 0x7FFFFFFF
    elif isinstance(key, tuple):
        h = 0
        for item in key:
            h = (h * 1000003 + hash_partition(item, 0x7FFFFFFF)) \
                & 0x7FFFFFFF
    else:
        if type(key) in _FLOAT_TYPES and key == 0:
            key = abs(key)  # -0.0 is 0.0: both land on one reducer
        h = hash_partition(repr(key), 0x7FFFFFFF)
    return h % n_partitions


def _record_order(record: tuple[Any, Any]):
    """Sort key of one (key, value) record — a total order over mixed
    key types: by type name, then value; a NaN float key sorts after
    every number of its type."""
    key = record[0]
    cls = type(key)
    if cls in _FLOAT_TYPES:
        if key != key:
            return (cls.__name__, True, 0.0)
        return (cls.__name__, False, key)
    return (cls.__name__, key)


def sort_run(records: Iterable[tuple[Any, Any]]) -> list[tuple[Any, Any]]:
    """Stable sort of (key, value) records by key."""
    return sorted(records, key=_record_order)


def merge_sorted_streams(
        runs: Sequence[Iterable[tuple[Any, Any]]]
) -> Iterator[tuple[Any, Any]]:
    """Streaming k-way merge of key-sorted runs (reduce-side merge).

    ``heapq.merge`` is stable across runs: equal keys come out in run
    order, then record order — the order of a stable sort of the
    concatenated runs — while holding one record per run in memory
    instead of every record at once.
    """
    return heapq.merge(*runs, key=_record_order)


def group_sorted(
        records: list[tuple[Any, Any]]
) -> Iterator[tuple[Any, list[Any]]]:
    """Group a key-sorted record list into (key, [values])."""
    return group_sorted_stream(records)


def group_sorted_stream(
        records: Iterable[tuple[Any, Any]]
) -> Iterator[tuple[Any, list[Any]]]:
    """Group a key-sorted record *iterable* into (key, [values]).

    Consumes a lazy merge without materializing the merged record list
    first. Keys group by ``==``, except that all NaN keys are one key.
    """
    it = iter(records)
    try:
        key, value = next(it)
    except StopIteration:
        return
    values = [value]
    for k, v in it:
        if k == key or (k != k and key != key):
            values.append(v)
        else:
            yield key, values
            key, values = k, [v]
    yield key, values


#: bytes charged for a container reached through a reference cycle
_CYCLE_COST = 8


def estimate_size(obj: Any) -> int:
    """Serialized-size estimate for shuffle/spill accounting (bytes).

    Container recursion is cycle-guarded: a container reached again on
    its *own* recursion path charges a fixed :data:`_CYCLE_COST` instead
    of recursing forever. Shared (acyclic) substructure is still counted
    at every appearance, matching the reference estimate.
    """
    return _estimate_size(obj, None)


def _estimate_size(obj: Any, path) -> int:
    if obj is None:
        return 1
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, np.integer)):
        return 8
    if isinstance(obj, (float, np.floating)):
        return 8
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    is_seq = isinstance(obj, (list, tuple, set, frozenset))
    if is_seq or isinstance(obj, dict):
        oid = id(obj)
        if path is None:
            path = {oid}
        elif oid in path:
            return _CYCLE_COST
        else:
            path.add(oid)
        try:
            if is_seq:
                return 8 + sum(_estimate_size(item, path) for item in obj)
            return 8 + sum(
                _estimate_size(k, path) + _estimate_size(v, path)
                for k, v in obj.items())
        finally:
            path.discard(oid)
    # Fallback: repr length is a tolerable proxy for odd objects.
    return len(repr(obj))
