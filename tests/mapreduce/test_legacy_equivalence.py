"""The shuffle against independent oracles.

``hash_partition`` is checked against an exact big-int evaluation of
its 31-fold and its int/tuple/repr rules (:mod:`tests.mapreduce.oracles`),
the streaming merge against a stable ``sorted()`` of the concatenated
runs, and ``estimate_size`` against a table of hand-computed sizes.
Whole default-knob wordcount jobs — the worlds of
``test_shuffle_pins.py``, which pins their timings — are checked for
exactly-once output (``collections.Counter`` of the input words), byte
conservation (``shuffle.bytes`` is the size of the records the reducers
received) and group counts. Test names keep their historical
``*_legacy*`` ids.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.mapreduce.shuffle import (
    estimate_size,
    hash_partition,
    merge_sorted_streams,
    sort_run,
)

from tests.mapreduce.oracles import merged, partition
from tests.mapreduce.test_shuffle_pins import TEXT, run_wordcount, wc_reduce


# ------------------------------------------------------ pure functions

def random_key(rng):
    kind = rng.randrange(6)
    if kind == 0:   # bytes across the vectorization threshold
        return bytes(rng.randrange(256)
                     for _ in range(rng.randrange(0, 200)))
    if kind == 1:   # str (memoized encode path)
        return "".join(chr(rng.randrange(32, 0x2FF))
                       for _ in range(rng.randrange(0, 120)))
    if kind == 2:
        return rng.randrange(-2**40, 2**40)
    if kind == 3:   # tuple (mixed-modulus fold)
        return tuple(random_key(rng) for _ in range(rng.randrange(0, 4))
                     ) or ("empty",)
    if kind == 4:
        return rng.random() * 1e6   # repr fallback
    return rng.choice([True, False, None])


@pytest.mark.parametrize("seed", [3, 71, 20240806])
def test_hash_partition_matches_legacy_fold(seed):
    rng = random.Random(seed)
    for _ in range(500):
        key = random_key(rng)
        n = rng.choice([1, 2, 7, 64, 1009])
        assert hash_partition(key, n) == partition(key, n), key


def test_hash_partition_vector_path_exact_on_long_keys():
    # Long keys exercise the uint64-wraparound congruence argument.
    for n in [31, 32, 33, 1000, 65536]:
        key = bytes((i * 37 + 11) % 256 for i in range(n))
        assert hash_partition(key, 0x7FFFFFFF) == \
            partition(key, 0x7FFFFFFF)


@pytest.mark.parametrize("seed", [5, 13])
def test_streaming_merge_matches_legacy_merge(seed):
    rng = random.Random(seed)
    for _ in range(50):
        runs = [
            sort_run([(rng.choice("abcde"), rng.randrange(10))
                      for _ in range(rng.randrange(0, 12))])
            for _ in range(rng.randrange(0, 6))
        ]
        assert list(merge_sorted_streams(runs)) == merged(runs)


def test_streaming_merge_equal_key_order_matches_legacy():
    # Equal keys must come out in run order then record order.
    runs = [[("k", 0), ("k", 1)], [("k", 2)], [("a", 9), ("k", 3)]]
    assert list(merge_sorted_streams(runs)) == merged(runs) == [
        ("a", 9), ("k", 0), ("k", 1), ("k", 2), ("k", 3)]


#: (object, size by the estimate's rules): None/bool 1 byte, bytes and
#: str their (UTF-8) length, numbers 8, arrays their nbytes, containers
#: 8 plus their items (dicts: keys and values), anything else its repr
SIZE_TABLE = [
    (None, 1),
    (True, 1),
    (b"", 0),
    (b"xy", 2),
    (bytearray(b"abc"), 3),
    ("s", 1),
    ("été", 5),
    (7, 8),
    (np.int32(-3), 8),
    (1.5, 8),
    (np.float32(2.5), 8),
    (np.zeros((2, 3), dtype=np.float32), 24),
    ([], 8),
    ((), 8),
    ([b"ab", b"cd"], 8 + 2 + 2),
    ((1, "xyz", None), 8 + 8 + 3 + 1),
    ({"k": 1}, 8 + 1 + 8),
    ({1: [b"abcd", 2.0]}, 8 + 8 + (8 + 4 + 8)),
    (frozenset({b"q"}), 8 + 1),
    ([[[]]], 8 + 8 + 8),
    (range(3), len("range(0, 3)")),
]


def test_estimate_size_matches_legacy_on_acyclic_structures():
    for obj, size in SIZE_TABLE:
        assert estimate_size(obj) == size, obj


def test_estimate_size_shared_substructure_counted_like_legacy():
    shared = [b"payload"]            # 8 + 7
    obj = [shared, shared]  # a DAG, not a cycle: both copies count
    assert estimate_size(obj) == 8 + 2 * (8 + 7)


# ------------------------------------------------- whole wordcount jobs

@pytest.mark.parametrize("conf", [
    {},                                    # plain wordcount
    {"combiner": wc_reduce},               # map-side combiner
    {"n_reducers": 1},                     # single fat partition
])
def test_default_knobs_pin_legacy_reduce_timings(conf):
    received = []

    def recording_reduce(ctx, key, values):
        received.extend((key, value) for value in values)
        wc_reduce(ctx, key, values)

    result = run_wordcount(reducer=recording_reduce, **conf)
    words = TEXT.split()
    n_reducers = conf.get("n_reducers", 3)

    # Exactly-once output: every word counted once, in its own partition.
    records = [kv for part in result.outputs.values() for kv in part]
    assert dict(records) == Counter(words)
    assert len(records) == len(set(words))
    for p, part in result.outputs.items():
        assert [k for k, _v in part] == sorted(k for k, _v in part)
        assert all(partition(k, n_reducers) == p for k, _v in part)
    assert result.counters.value("reduce", "groups") == len(set(words))

    # Byte conservation: the shuffle moved exactly the records the
    # reducers received, each a word plus an 8-byte int.
    shuffled = result.counters.value("shuffle", "bytes")
    assert shuffled == sum(len(k) + 8 for k, _v in received)
    if "combiner" not in conf:
        assert shuffled == sum(len(w) + 8 for w in words)
    else:
        assert shuffled < sum(len(w) + 8 for w in words)
