"""The write path against independent oracles.

What a writer stores must read back as the payload it was handed: on
every HDFS replica of every block, in the PFS file at the write offset
(the bytes around it untouched), and in the collective file after
``write_at_all`` overlays each rank's request on the base file. HDFS
byte conservation: the datanodes together hold ``len(data) x
replication`` bytes.

The default-knob worlds are those of ``test_dataplane_pins.py``, which
pins their simulated clocks and replica placements; test names keep
their historical ``*_matches_legacy`` ids. The non-default knobs are
checked against the default path below.
"""

import pytest

from tests.io.conftest import make_pfs_world, payload, run
from tests.io.test_dataplane_pins import (
    concurrent_hdfs_writes_world,
    hdfs_write_world,
    make_hdfs_world,
    pfs_create_world,
    pfs_write_world,
    write_at_all_world,
)


def assert_replicas_hold(hdfs, path, data, replication):
    """Every replica of every block of ``path`` holds its payload slice,
    in file order, on ``replication`` distinct datanodes."""
    pos = 0
    for block in hdfs.namenode.get_block_locations(path):
        chunk = data[pos:pos + block.length]
        assert len(set(block.locations)) == len(block.locations) \
            == replication
        for name in block.locations:
            assert hdfs.datanode(name).read_sync(block.block_id) == chunk
        pos += block.length
    assert pos == len(data)


# ------------------------------------------------------------- HDFS writes
@pytest.mark.parametrize("replication", [1, 2, 3])
@pytest.mark.parametrize("n_bytes", [1, 100, 350, 730])
def test_hdfs_write_matches_legacy(replication, n_bytes):
    """Default-knob ``DFSClient.write``: every replica reads back as the
    payload and the datanodes hold ``len(data) x replication`` bytes."""
    _now, hdfs, client, data = hdfs_write_world(replication, n_bytes)
    assert hdfs.read_file_sync("/f") == data
    assert_replicas_hold(hdfs, "/f", data, replication)
    assert sum(dn.used_bytes for dn in hdfs.datanodes) \
        == n_bytes * replication
    assert client.bytes_written == n_bytes


@pytest.mark.parametrize("seed", [1, 5, 17])
def test_concurrent_hdfs_writes_match_legacy(seed):
    """Writers racing on the same datanodes and links each store
    exactly their own payload."""
    finishes, hdfs, jobs = concurrent_hdfs_writes_world(seed)
    assert sorted(path for path, _t in finishes) == \
        sorted(path for path, _data in jobs)
    for path, data in jobs:
        assert_replicas_hold(hdfs, path, data, replication=2)
    assert sum(dn.used_bytes for dn in hdfs.datanodes) \
        == 2 * sum(len(data) for _path, data in jobs)


# -------------------------------------------------------------- PFS writes
@pytest.mark.parametrize("seed,offset,n_bytes", [
    (1, 0, 50), (2, 0, 1000), (3, 37, 613), (4, 250, 901), (5, 99, 1),
])
def test_pfs_write_matches_legacy(seed, offset, n_bytes):
    """Default-knob ``PFSClient.write``, including odd offsets that
    start mid-stripe: the payload lands at ``offset``, the prefix keeps
    the base bytes, and the client counts the payload bytes."""
    _now, stored, base, data, client = pfs_write_world(
        seed, offset, n_bytes)
    assert stored == base[:offset] + data
    assert client.bytes_written == n_bytes


def test_pfs_write_creates_file_like_legacy():
    _now, stored, data = pfs_create_world()
    assert stored == data


# ------------------------------------------------------------ MPI-IO writes
@pytest.mark.parametrize("seed", [2, 9, 31])
def test_write_at_all_matches_legacy(seed):
    """``MPIFile.write_at_all``: each rank's request lands at its
    offset; ranges no rank wrote keep the base file's bytes."""
    _now, stored, base, requests = write_at_all_world(seed)
    expected = bytearray(base)
    for request in requests:
        if request is not None:
            offset, chunk = request
            expected[offset:offset + len(chunk)] = chunk
    assert stored == bytes(expected)


# ----------------------------------------------- non-default knob sanity
def test_packet_pipeline_is_faster_and_byte_identical():
    """The non-default pipeline must beat store-and-forward at
    replication 3 while storing the same bytes in the same placements."""
    data = payload(600, seed=13)

    def drive(packet_bytes):
        env, hdfs, _client = make_hdfs_world(replication=3)
        client = hdfs.client(hdfs.datanode(list(hdfs._datanodes)[0]).node,
                             packet_bytes=packet_bytes)
        run(env, client.write("/f", data))
        locations = [tuple(b.locations) for b
                     in hdfs.namenode.get_block_locations("/f")]
        return env.now, locations, hdfs.read_file_sync("/f")

    slow_now, slow_locs, slow_bytes = drive(packet_bytes=None)
    fast_now, fast_locs, fast_bytes = drive(packet_bytes=25)
    assert fast_bytes == slow_bytes == data
    assert fast_locs == slow_locs
    assert fast_now < slow_now


def test_parallel_blocks_faster_and_byte_identical():
    data = payload(700, seed=21)

    def drive(window):
        env, hdfs, _client = make_hdfs_world(replication=2)
        client = hdfs.client(hdfs.datanode(list(hdfs._datanodes)[0]).node,
                             packet_bytes=25, write_parallel_blocks=window)
        run(env, client.write("/f", data))
        return env.now, hdfs.read_file_sync("/f")

    serial_now, serial_bytes = drive(window=1)
    fanned_now, fanned_bytes = drive(window=0)
    assert fanned_bytes == serial_bytes == data
    assert fanned_now < serial_now


def test_pfs_chunked_windowed_write_byte_identical():
    """Chunked + windowed stripe pushes store exactly the same bytes."""
    data = payload(1357, seed=23)

    def drive(write_chunk, window):
        env, pfs, _client = make_pfs_world(stripe_size=100, stripe_count=4)
        client = pfs.client(_client.node, write_max_inflight=window,
                            write_chunk=write_chunk)
        run(env, client.write("/f", data, offset=41))
        return pfs.read_file_sync("/f")

    assert drive(None, 0) == drive(64, 3)
