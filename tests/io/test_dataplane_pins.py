"""Pinned simulated timings and bytes of the data-plane worlds.

Each world drives the production read or write path — the PFS client's
coalesced ``read_extents``, the planner's chopped ``fetch_range`` (with
and without the read-ahead cache), ``DFSClient.write``,
``PFSClient.write`` and ``MPIFile.write_at_all`` — on a small cluster
with fixed seeds, windows and replication factors. Its simulated clock
(to 1e-9), a sha256 of the bytes it returned or stored, and its
counters are compared with the literal tables below.

The tables are captures of the current data path, so a change to any
entry is a change of simulated behaviour (event order, fan-out shape or
transfer physics), never a refactor. The byte-level correctness of the
same worlds is checked against independent oracles in
``test_planner_equivalence.py`` and ``test_write_equivalence.py``; the
world drivers here are shared with them.
"""

import hashlib
import random

import pytest

from repro.cluster import Cluster
from repro.hdfs import HDFS
from repro.io.planner import ReadPlanner
from repro.pfs import PFS, PFSClient, StripeLayout
from repro.pfs.mpiio import MPIFile
from repro.sim import Environment
from repro.sim.cache import ReadAheadCache

from tests.io.conftest import make_pfs_world, payload, run, small_spec


def digest(data: bytes) -> str:
    """First 16 hex digits of the sha256 of ``data``."""
    return hashlib.sha256(data).hexdigest()[:16]


# ------------------------------------------------------------ world drivers
def random_extent_workload(rng, inode, size):
    """A shuffled list of stripe-mapped extents over disjoint subranges.

    Callers (MPI-IO aggregation domains, virtual-block reads) only ever
    pass non-overlapping ranges, so the workload honours that invariant.
    """
    cuts = sorted(rng.sample(range(1, size), rng.randrange(2, 12)))
    bounds = list(zip([0, *cuts], [*cuts, size]))
    extents = []
    for lo, hi in rng.sample(bounds, rng.randrange(1, len(bounds) + 1)):
        extents.extend(inode.layout.map_range(lo, hi - lo))
    rng.shuffle(extents)
    return extents


def read_extents_world(seed, window):
    """One coalesced ``read_extents`` call; returns
    ``(now, data, stored, extents)``."""
    size = 3_000
    rng = random.Random(seed)
    env, pfs, client = make_pfs_world(stripe_size=64, stripe_count=4)
    stored = payload(size, seed=seed)
    inode = pfs.store_file("/f", stored)
    extents = random_extent_workload(rng, inode, size)
    data = run(env, client.read_extents(
        inode, list(extents), max_inflight=window))
    return env.now, data, stored, extents


def concurrent_read_extents_world(seed):
    """Four ``read_extents`` calls racing on the same OSTs; returns
    ``(finishes, stored, workloads)`` with ``finishes`` a list of
    ``(call index, finish time, data)`` in completion order."""
    size = 2_000
    rng = random.Random(seed)
    env, pfs, client = make_pfs_world(stripe_size=50, stripe_count=4)
    stored = payload(size, seed=seed)
    inode = pfs.store_file("/f", stored)
    workloads = [
        (random_extent_workload(rng, inode, size),
         rng.choice([None, 0, 1, 2]))
        for _ in range(4)
    ]
    finishes = []

    def one(index, extents, window):
        data = yield env.process(client.read_extents(
            inode, list(extents), max_inflight=window))
        finishes.append((index, env.now, data))

    for index, (extents, window) in enumerate(workloads):
        env.process(one(index, extents, window))
    env.run()
    return finishes, stored, workloads


def fetch_range_world(seed, granularity, window):
    """Five sequential ``ReadPlanner.fetch_range`` calls; returns
    ``(now, outs, stored, ranges)``."""
    size = 1_500
    rng = random.Random(seed)
    ranges = [(rng.randrange(0, size - 1),) for _ in range(5)]
    ranges = [(off, rng.randrange(1, size - off)) for (off,) in ranges]
    env, pfs, client = make_pfs_world(stripe_size=64, stripe_count=4)
    stored = payload(size, seed=seed)
    pfs.store_file("/f", stored)
    planner = ReadPlanner(
        env, scheme="scidp", granularity=granularity,
        request_overhead=0.0008, max_inflight=window)
    fetch = lambda pos, n: client.read("/f", pos, n)  # noqa: E731
    outs = [run(env, planner.fetch_range("/f", off, n, fetch))
            for off, n in ranges]
    return env.now, outs, stored, ranges


def cached_fetch_range_world(window):
    """Two racing identical range reads (join-in-flight), a disjoint
    range, and a late re-read (cache hit), through one cache. Returns
    ``(finishes, cache stats, fetched pieces, stored)`` with
    ``finishes`` a list of ``(finish time, offset, data)``."""
    size = 1_000
    env, pfs, client = make_pfs_world(stripe_size=64, stripe_count=4)
    stored = payload(size, seed=5)
    pfs.store_file("/f", stored)
    cache = ReadAheadCache(env, capacity_bytes=1 << 20)
    planner = ReadPlanner(
        env, scheme="scidp", granularity=128, request_overhead=0.0008,
        max_inflight=window, cache=cache)
    fetched = []

    def fetch(pos, n):
        fetched.append((pos, n))
        return client.read("/f", pos, n)

    finishes = []

    def one(off, n):
        data = yield env.process(planner.fetch_range("/f", off, n, fetch))
        finishes.append((env.now, off, data))

    env.process(one(0, 512))
    env.process(one(0, 512))
    env.process(one(512, 488))

    def late():
        yield env.timeout(10.0)
        yield env.process(one(0, 512))

    env.process(late())
    env.run()
    return finishes, cache.stats, fetched, stored


def make_hdfs_world(replication=3, block_size=100, n_nodes=5):
    """Writer node + datanodes; returns (env, hdfs, client)."""
    env = Environment()
    cluster = Cluster(env)
    nodes = [cluster.add_node(f"n{i}", small_spec(), role="compute")
             for i in range(n_nodes)]
    hdfs = HDFS(env, cluster.network, block_size=block_size,
                replication=replication)
    for node in nodes:
        hdfs.add_datanode(node)
    return env, hdfs, hdfs.client(nodes[0])


def hdfs_write_world(replication, n_bytes):
    """One default-knob ``DFSClient.write``; returns
    ``(now, hdfs, client, data)``."""
    data = payload(n_bytes, seed=n_bytes)
    env, hdfs, client = make_hdfs_world(replication=replication)
    run(env, client.write("/f", data))
    return env.now, hdfs, client, data


def concurrent_hdfs_writes_world(seed):
    """Three writers racing on the same datanodes and links; returns
    ``(finishes, hdfs, jobs)`` with ``finishes`` a list of
    ``(path, finish time)``."""
    rng = random.Random(seed)
    jobs = [(f"/f{i}", payload(rng.randrange(1, 500), seed=seed * 10 + i))
            for i in range(3)]
    env, hdfs, _client = make_hdfs_world(replication=2)
    clients = [hdfs.client(dn.node) for dn in hdfs.datanodes[:3]]
    finishes = []

    def one(client, path, data):
        yield env.process(client.write(path, data))
        finishes.append((path, env.now))

    for client, (path, data) in zip(clients, jobs):
        env.process(one(client, path, data))
    env.run()
    return finishes, hdfs, jobs


def pfs_write_world(seed, offset, n_bytes):
    """A default-knob ``PFSClient.write`` at ``offset`` into a pre-stored
    file; returns ``(now, stored after, base before, data, client)``."""
    data = payload(n_bytes, seed=seed)
    env, pfs, client = make_pfs_world(stripe_size=100, stripe_count=4)
    base = payload(offset + n_bytes, seed=seed + 100)
    pfs.store_file("/f", base)
    run(env, client.write("/f", data, offset=offset))
    return env.now, pfs.read_file_sync("/f"), base, data, client


def pfs_create_world():
    """A ``PFSClient.write`` that creates its file; returns
    ``(now, stored, data)``."""
    data = payload(333, seed=7)
    env, pfs, client = make_pfs_world(stripe_size=64, stripe_count=4)
    run(env, client.write("/new", data))
    return env.now, pfs.read_file_sync("/new"), data


def make_mpi_world(n_ranks=4):
    env = Environment()
    cluster = Cluster(env)
    ranks = [cluster.add_node(f"c{i}", small_spec(), role="compute")
             for i in range(n_ranks)]
    oss0 = cluster.add_node("oss0", small_spec(n_disks=2), role="storage")
    oss1 = cluster.add_node("oss1", small_spec(n_disks=2), role="storage")
    pfs = PFS(env, cluster.network, oss0, [oss0, oss1],
              default_layout=StripeLayout(stripe_size=64, stripe_count=4))
    return env, pfs, [PFSClient(pfs, node) for node in ranks]


def write_at_all_world(seed):
    """One two-phase collective write over a pre-stored base file, some
    ranks idle; returns ``(now, stored after, base, requests)``."""
    rng = random.Random(seed)
    total = 2000
    cuts = sorted(rng.sample(range(1, total), 3))
    bounds = list(zip([0, *cuts], [*cuts, total]))
    data = payload(total, seed=seed)
    requests = [
        None if rng.random() < 0.25 else (lo, data[lo:hi])
        for lo, hi in bounds
    ]
    if all(req is None for req in requests):
        requests[0] = (bounds[0][0], data[bounds[0][0]:bounds[0][1]])
    env, pfs, clients = make_mpi_world(n_ranks=len(requests))
    base = payload(total, seed=seed + 500)
    pfs.store_file("/out", base)
    handle = MPIFile.open(clients, "/out")
    run(env, handle.write_at_all(requests))
    return env.now, pfs.read_file_sync("/out"), base, requests


# ------------------------------------------------------------ pinned tables
#: (seed, window) -> (clock, digest of the returned bytes)
READ_EXTENTS_PINS = {
    (1, 0): (0.704, '1d80f8a572f431f7'),
    (1, 1): (2.741, '1d80f8a572f431f7'),
    (1, 2): (1.3969999999999998, '1d80f8a572f431f7'),
    (1, 3): (1.3359999999999999, '1d80f8a572f431f7'),
    (1, None): (0.704, '1d80f8a572f431f7'),
    (20180710, 0): (0.768, 'cabca481b79025d2'),
    (20180710, 1): (3.0, 'cabca481b79025d2'),
    (20180710, 2): (1.528, 'cabca481b79025d2'),
    (20180710, 3): (1.464, 'cabca481b79025d2'),
    (20180710, None): (0.768, 'cabca481b79025d2'),
    (42, 0): (0.256, '37e6980b6c45b161'),
    (42, 1): (1.024, '37e6980b6c45b161'),
    (42, 2): (0.512, '37e6980b6c45b161'),
    (42, 3): (0.512, '37e6980b6c45b161'),
    (42, None): (0.256, '37e6980b6c45b161'),
    (7, 0): (0.696, '4d2fa2d171c50d4f'),
    (7, 1): (2.6790000000000003, '4d2fa2d171c50d4f'),
    (7, 2): (1.512, '4d2fa2d171c50d4f'),
    (7, 3): (1.302, '4d2fa2d171c50d4f'),
    (7, None): (0.696, '4d2fa2d171c50d4f'),
}

#: seed -> [(call index, finish time, digest)] in completion order
CONCURRENT_READ_PINS = {
    11:
        [(3, 0.5640000000000001, '6f97468177012b3e'),
         (2, 0.715, 'cc1d406a7ddf6e62'),
         (1, 1.5390000000000001, 'aac52e424e4b3905'),
         (0, 1.734, '28b4600e1ef947c6')],
    3:
        [(2, 0.638, '0b4e6bdc1263ff37'), (3, 1.086, '8dbac2ed63ef1682'),
         (0, 1.0950000000000002, 'a9bbd3772e6f3b80'),
         (1, 1.2530000000000001, 'b2cbcde3599c4907')],
}

#: (seed, granularity, window) -> (clock, digest of all five reads)
FETCH_RANGE_PINS = {
    (13, 200, 2): (0.5321000000000001, '2eea906c16d8a808'),
    (13, 64, 0): (0.46550000000000014, '2eea906c16d8a808'),
    (13, 64, 1): (1.2187999999999992, '2eea906c16d8a808'),
    (13, 64, 3): (0.5580000000000002, '2eea906c16d8a808'),
    (13, None, 1): (0.4655000000000001, '2eea906c16d8a808'),
    (2, 200, 2): (1.1895999999999995, '4c44255f57f26285'),
    (2, 64, 0): (1.0345, '4c44255f57f26285'),
    (2, 64, 1): (2.7173999999999974, '4c44255f57f26285'),
    (2, 64, 3): (1.2085999999999995, '4c44255f57f26285'),
    (2, None, 1): (1.0345, '4c44255f57f26285'),
    (99, 200, 2): (0.45380000000000004, '20686369b5b22658'),
    (99, 64, 0): (0.3915, '20686369b5b22658'),
    (99, 64, 1): (1.0469, '20686369b5b22658'),
    (99, 64, 3): (0.528, '20686369b5b22658'),
    (99, None, 1): (0.3915, '20686369b5b22658'),
}

#: window -> ([(finish time, offset, digest)], hits, overlap hits)
CACHED_FETCH_PINS = {
    1:
        ([(0.5172000000000001, 0, '6e741d6219ef9ed0'),
          (0.5172000000000001, 512, '2f9772bdb78fbdfa'),
          (0.5172000000000001, 0, '6e741d6219ef9ed0'),
          (10.0, 0, '6e741d6219ef9ed0')],
         4, 4),
    2:
        ([(0.2586, 0, '6e741d6219ef9ed0'), (0.2586, 512, '2f9772bdb78fbdfa'),
          (0.2586, 0, '6e741d6219ef9ed0'), (10.0, 0, '6e741d6219ef9ed0')],
         4, 4),
}

#: (replication, n_bytes) -> (clock, replica placements, digest)
HDFS_WRITE_PINS = {
    (1, 1): (0.0015999999999999999, [('n0',)], 'a8100ae6aa1940d0'),
    (1, 100): (0.10060000000000001, [('n0',)], 'e109d89bee268440'),
    (1, 350):
        (0.35150000000000003, [('n0',), ('n0',), ('n0',), ('n0',)],
         '8b25234ceff69370'),
    (1, 730):
        (0.7327,
         [('n0',), ('n0',), ('n0',), ('n0',), ('n0',), ('n0',), ('n0',),
          ('n0',)],
         'cbcc9e8976df1dc0'),
    (2, 1): (0.0027, [('n0', 'n1')], 'a8100ae6aa1940d0'),
    (2, 100): (0.2106, [('n0', 'n1')], 'e109d89bee268440'),
    (2, 350):
        (0.7365000000000002,
         [('n0', 'n1'), ('n0', 'n2'), ('n0', 'n3'), ('n0', 'n4')],
         '8b25234ceff69370'),
    (2, 730):
        (1.5357000000000003,
         [('n0', 'n1'), ('n0', 'n2'), ('n0', 'n3'), ('n0', 'n4'), ('n0', 'n1'),
          ('n0', 'n2'), ('n0', 'n3'), ('n0', 'n4')],
         'cbcc9e8976df1dc0'),
    (3, 1): (0.0038, [('n0', 'n1', 'n2')], 'a8100ae6aa1940d0'),
    (3, 100): (0.3206, [('n0', 'n1', 'n2')], 'e109d89bee268440'),
    (3, 350):
        (1.1214999999999997,
         [('n0', 'n1', 'n2'), ('n0', 'n3', 'n4'), ('n0', 'n1', 'n2'),
          ('n0', 'n3', 'n4')],
         '8b25234ceff69370'),
    (3, 730):
        (2.3387000000000002,
         [('n0', 'n1', 'n2'), ('n0', 'n3', 'n4'), ('n0', 'n1', 'n2'),
          ('n0', 'n3', 'n4'), ('n0', 'n1', 'n2'), ('n0', 'n3', 'n4'),
          ('n0', 'n1', 'n2'), ('n0', 'n3', 'n4')],
         'cbcc9e8976df1dc0'),
}

#: seed -> ([(path, finish time)], {path: digest})
CONCURRENT_HDFS_WRITE_PINS = {
    1:
        ([('/f0', 0.1696), ('/f1', 0.6753999999999999), ('/f2', 0.9501)],
         {'/f0': '835cc13b78ff28f9',
          '/f1': '7b9be404ec2e8831',
          '/f2': '11d2c034f0a43ee4'}),
    17:
        ([('/f1', 0.4485000000000001), ('/f0', 0.5892000000000001),
          ('/f2', 0.8964)],
         {'/f0': '93c2eb26bd4771d8',
          '/f1': 'b00e7c2efd004774',
          '/f2': '2cfd344f7d40e6a7'}),
    5:
        ([('/f1', 0.307), ('/f0', 0.7024), ('/f2', 0.7995)],
         {'/f0': '80834191074fd143',
          '/f1': '3efe8ea27018cc06',
          '/f2': '6cc47db41f931174'}),
}

#: (seed, offset, n_bytes) -> (clock, digest of the stored file)
PFS_WRITE_PINS = {
    (1, 0, 50): (0.0555, 'd405c6135cfd64e6'),
    (2, 0, 1000): (0.4005000000000001, '8110a3863ae81583'),
    (3, 37, 613): (0.26180000000000003, 'e0f19bf9b5bd8b22'),
    (4, 250, 901): (0.3024, '4ce01bdfca7aedd8'),
    (5, 99, 1): (0.0016, 'dfdc41a9dc12a141'),
}

#: the file-creating PFS write: (clock, digest)
PFS_CREATE_PIN = (0.1618, '46895383d44a7bff')

#: seed -> (clock, digest of the stored file)
WRITE_AT_ALL_PINS = {
    2: (0.6651, '049fed4adf7060a1'),
    31: (0.3875, '129fed6f74f1ac4a'),
    9: (0.5859, 'f5be2fa33b51e79f'),
}


# ------------------------------------------------------------ observations
def observe_read_extents(seed, window):
    now, data, _stored, _extents = read_extents_world(seed, window)
    return now, digest(data)


def observe_concurrent_read(seed):
    finishes, _stored, _workloads = concurrent_read_extents_world(seed)
    return [(i, t, digest(data)) for i, t, data in finishes]


def observe_fetch_range(seed, granularity, window):
    now, outs, _stored, _ranges = fetch_range_world(
        seed, granularity, window)
    return now, digest(b"".join(outs))


def observe_cached_fetch(window):
    finishes, stats, _fetched, _stored = cached_fetch_range_world(window)
    return ([(t, off, digest(data)) for t, off, data in finishes],
            stats.hits, stats.overlap_hits)


def observe_hdfs_write(replication, n_bytes):
    now, hdfs, _client, _data = hdfs_write_world(replication, n_bytes)
    placements = [tuple(b.locations)
                  for b in hdfs.namenode.get_block_locations("/f")]
    return now, placements, digest(hdfs.read_file_sync("/f"))


def observe_concurrent_hdfs_writes(seed):
    finishes, hdfs, jobs = concurrent_hdfs_writes_world(seed)
    return finishes, {path: digest(hdfs.read_file_sync(path))
                      for path, _data in jobs}


def observe_pfs_write(seed, offset, n_bytes):
    now, stored, _base, _data, _client = pfs_write_world(
        seed, offset, n_bytes)
    return now, digest(stored)


def observe_pfs_create():
    now, stored, _data = pfs_create_world()
    return now, digest(stored)


def observe_write_at_all(seed):
    now, stored, _base, _requests = write_at_all_world(seed)
    return now, digest(stored)


def assert_clock(got, want):
    assert got == pytest.approx(want, abs=1e-9)


# ------------------------------------------------------------------ tests
@pytest.mark.parametrize("seed,window", sorted(
    READ_EXTENTS_PINS, key=repr))
def test_read_extents_pinned(seed, window):
    now, sha = observe_read_extents(seed, window)
    want_now, want_sha = READ_EXTENTS_PINS[seed, window]
    assert sha == want_sha
    assert_clock(now, want_now)


@pytest.mark.parametrize("seed", sorted(CONCURRENT_READ_PINS))
def test_concurrent_read_extents_pinned(seed):
    got = observe_concurrent_read(seed)
    want = CONCURRENT_READ_PINS[seed]
    assert [(i, sha) for i, _t, sha in got] \
        == [(i, sha) for i, _t, sha in want]
    for (_i, t, _sha), (_j, want_t, _want_sha) in zip(got, want):
        assert_clock(t, want_t)


@pytest.mark.parametrize("seed,granularity,window", sorted(
    FETCH_RANGE_PINS, key=repr))
def test_fetch_range_pinned(seed, granularity, window):
    now, sha = observe_fetch_range(seed, granularity, window)
    want_now, want_sha = FETCH_RANGE_PINS[seed, granularity, window]
    assert sha == want_sha
    assert_clock(now, want_now)


@pytest.mark.parametrize("window", sorted(CACHED_FETCH_PINS))
def test_cached_fetch_range_pinned(window):
    finishes, hits, overlaps = observe_cached_fetch(window)
    want_finishes, want_hits, want_overlaps = CACHED_FETCH_PINS[window]
    assert (hits, overlaps) == (want_hits, want_overlaps)
    assert [(off, sha) for _t, off, sha in finishes] \
        == [(off, sha) for _t, off, sha in want_finishes]
    for (t, _off, _sha), (want_t, _o, _s) in zip(finishes, want_finishes):
        assert_clock(t, want_t)


@pytest.mark.parametrize("replication,n_bytes", sorted(HDFS_WRITE_PINS))
def test_hdfs_write_pinned(replication, n_bytes):
    now, placements, sha = observe_hdfs_write(replication, n_bytes)
    want_now, want_placements, want_sha = \
        HDFS_WRITE_PINS[replication, n_bytes]
    assert sha == want_sha
    assert placements == want_placements
    assert_clock(now, want_now)


@pytest.mark.parametrize("seed", sorted(CONCURRENT_HDFS_WRITE_PINS))
def test_concurrent_hdfs_writes_pinned(seed):
    finishes, stored = observe_concurrent_hdfs_writes(seed)
    want_finishes, want_stored = CONCURRENT_HDFS_WRITE_PINS[seed]
    assert stored == want_stored
    assert [p for p, _t in finishes] == [p for p, _t in want_finishes]
    for (_p, t), (_q, want_t) in zip(finishes, want_finishes):
        assert_clock(t, want_t)


@pytest.mark.parametrize("seed,offset,n_bytes", sorted(PFS_WRITE_PINS))
def test_pfs_write_pinned(seed, offset, n_bytes):
    now, sha = observe_pfs_write(seed, offset, n_bytes)
    want_now, want_sha = PFS_WRITE_PINS[seed, offset, n_bytes]
    assert sha == want_sha
    assert_clock(now, want_now)


def test_pfs_create_write_pinned():
    now, sha = observe_pfs_create()
    want_now, want_sha = PFS_CREATE_PIN
    assert sha == want_sha
    assert_clock(now, want_now)


@pytest.mark.parametrize("seed", sorted(WRITE_AT_ALL_PINS))
def test_write_at_all_pinned(seed):
    now, sha = observe_write_at_all(seed)
    want_now, want_sha = WRITE_AT_ALL_PINS[seed]
    assert sha == want_sha
    assert_clock(now, want_now)
