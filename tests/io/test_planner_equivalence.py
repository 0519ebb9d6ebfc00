"""The read path against independent oracles.

Every byte a read returns must be the stored payload's bytes at the
requested offsets, whatever the window, granularity or cache: the
oracle is a plain slice of the ``payload`` the world stored. The pure
planning helpers are checked against their definitions — ``chop_range``
tiles its range in ``granularity`` pieces, ``coalesce_extents`` returns
maximal, sorted, non-adjacent runs per device covering exactly the
input bytes.

The worlds (seeds, windows, granularities) are those of
``test_dataplane_pins.py``, which pins their simulated clocks; test
names keep their historical ``*_matches_legacy`` ids.
"""

import random

import pytest

from repro.io.planner import chop_range, coalesce_extents

from tests.io.conftest import make_pfs_world, payload
from tests.io.test_dataplane_pins import (
    cached_fetch_range_world,
    concurrent_read_extents_world,
    fetch_range_world,
    random_extent_workload,
    read_extents_world,
)


def expected_bytes(stored, extents):
    """The oracle: stored bytes of each extent, in file-offset order."""
    return b"".join(stored[e.file_offset:e.file_offset + e.length]
                    for e in sorted(extents, key=lambda e: e.file_offset))


# ------------------------------------------------------------ pure helpers
@pytest.mark.parametrize("seed", range(5))
def test_chop_matches_legacy(seed):
    """Pieces tile ``[offset, offset + length)`` in order; all but the
    last are exactly ``granularity`` bytes; ``None`` keeps it whole."""
    rng = random.Random(seed)
    for _ in range(50):
        offset = rng.randrange(0, 10_000)
        length = rng.randrange(1, 5_000)
        granularity = rng.choice([None, 1, 7, 64, 1024])
        pieces = chop_range(offset, length, granularity)
        if granularity is None:
            assert pieces == [(offset, length)]
            continue
        pos = offset
        for pos_i, n in pieces:
            assert pos_i == pos
            pos += n
        assert pos == offset + length
        assert all(n == granularity for _pos, n in pieces[:-1])
        assert 1 <= pieces[-1][1] <= granularity
        assert len(pieces) == -(-length // granularity)


@pytest.mark.parametrize("seed", range(5))
def test_coalesce_matches_legacy(seed):
    """Per device: runs sorted by object offset, never touching (each is
    maximal), covering exactly the input extents' object bytes."""
    rng = random.Random(100 + seed)
    _env, pfs, _client = make_pfs_world(stripe_size=50, stripe_count=4)
    inode = pfs.store_file("/f", payload(5_000, seed=seed))
    extents = random_extent_workload(rng, inode, 5_000)
    per_device = coalesce_extents(list(extents))

    assert set(per_device) == {e.ost_index for e in extents}
    for device, runs in per_device.items():
        assert all(run.ost_index == device for run in runs)
        for prev, run in zip(runs, runs[1:]):
            assert prev.object_offset + prev.length < run.object_offset
        covered = {b for run in runs
                   for b in range(run.object_offset,
                                  run.object_offset + run.length)}
        wanted = {b for e in extents if e.ost_index == device
                  for b in range(e.object_offset,
                                 e.object_offset + e.length)}
        assert covered == wanted
        assert sum(run.length for run in runs) == len(wanted)


# ----------------------------------------------------------- read_extents
@pytest.mark.parametrize("seed", [1, 7, 42, 20180710])
@pytest.mark.parametrize("window", [None, 0, 1, 2, 3])
def test_read_extents_matches_legacy(seed, window):
    """``PFSClient.read_extents`` returns the stored bytes of every
    requested extent, ordered by file offset, at any window."""
    _now, data, stored, extents = read_extents_world(seed, window)
    assert data == expected_bytes(stored, extents)


@pytest.mark.parametrize("seed", [3, 11])
def test_concurrent_read_extents_matches_legacy(seed):
    """Racing calls on the same OSTs each get exactly their own bytes."""
    finishes, stored, workloads = concurrent_read_extents_world(seed)
    assert sorted(i for i, _t, _data in finishes) == \
        list(range(len(workloads)))
    for index, _t, data in finishes:
        extents, _window = workloads[index]
        assert data == expected_bytes(stored, extents)


# ------------------------------------------------------------ fetch_range
@pytest.mark.parametrize("seed", [2, 13, 99])
@pytest.mark.parametrize("granularity,window", [
    (None, 1), (64, 1), (64, 3), (64, 0), (200, 2),
])
def test_fetch_range_matches_legacy(seed, granularity, window):
    """``ReadPlanner.fetch_range`` returns the stored range, whole or
    chopped, serial or windowed."""
    _now, outs, stored, ranges = fetch_range_world(
        seed, granularity, window)
    assert outs == [stored[off:off + n] for off, n in ranges]


@pytest.mark.parametrize("window", [1, 2])
def test_fetch_range_with_cache_matches_legacy(window):
    """Join-in-flight: a racing duplicate read and a later re-read are
    served from the cache — every distinct piece crosses the PFS exactly
    once — and every read still returns the stored bytes."""
    finishes, stats, fetched, stored = cached_fetch_range_world(window)
    assert len(finishes) == 4
    for _t, off, data in finishes:
        n = 512 if off == 0 else 488
        assert data == stored[off:off + n]
    distinct = chop_range(0, 512, 128) + chop_range(512, 488, 128)
    assert sorted(fetched) == sorted(distinct)
    # the duplicate and the re-read each avoided one fetch per piece
    assert stats.hits + stats.overlap_hits == 2 * len(chop_range(0, 512, 128))
    assert stats.misses == len(distinct)
