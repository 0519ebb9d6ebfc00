"""Reference shuffle semantics, written from their specifications.

These are the independent oracles the shuffle tests (and the
partitioner bench) compare ``repro.mapreduce.shuffle`` against. None of
them shares code with the production module: the 31-fold is an exact
Python big-int polynomial rather than the masked byte loop or the
numpy uint64 evaluation, and the merge order is a stable ``sorted()``
of the concatenated runs.
"""

from __future__ import annotations

import numpy as np

#: the partitioner's hash modulus (31-bit, non-negative)
FOLD_MODULUS = 2 ** 31


def fold31(data: bytes) -> int:
    """``sum(b_i * 31**(n-1-i)) mod 2**31``, evaluated exactly (Horner
    over unbounded ints, one reduction at the end)."""
    h = 0
    for b in data:
        h = h * 31 + b
    return h % FOLD_MODULUS


def key_hash(key) -> int:
    """The partitioner's key hash, by its rules: bytes and str fold
    their (UTF-8) bytes, ints reduce mod 2**31, tuples combine their
    items' hashes (each reduced mod 2**31 - 1) with multiplier 1000003,
    and anything else folds its ``repr`` — floats after mapping -0.0
    to 0.0, so equal keys always share a partition."""
    if isinstance(key, bytes):
        return fold31(key)
    if isinstance(key, str):
        return fold31(key.encode())
    if isinstance(key, (int, np.integer)):
        return int(key) % FOLD_MODULUS
    if isinstance(key, tuple):
        h = 0
        for item in key:
            h = (h * 1000003 + key_hash(item) % (FOLD_MODULUS - 1)) \
                % FOLD_MODULUS
        return h
    if isinstance(key, (float, np.floating)) and key == 0:
        key = abs(key)
    return fold31(repr(key).encode()) % (FOLD_MODULUS - 1)


def partition(key, n_partitions: int) -> int:
    """The reducer that owns ``key`` among ``n_partitions``."""
    return key_hash(key) % n_partitions


def merged(runs):
    """The reduce-side merge order: a stable sort of the concatenated
    runs by key (equal keys keep run order, then record order)."""
    return sorted((kv for run in runs for kv in run), key=lambda kv: kv[0])
