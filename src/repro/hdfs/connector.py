"""PFS-backed HDFS connector — the unified-file-system baseline.

Models IBM's HDFS Transparency / Seagate's Lustre connector (Fig. 1(b)):
an HDFS-compatible facade whose storage is the PFS. Every "block" read or
write crosses the network to the storage servers and is issued in
RPC-sized requests, each paying a distributed-lock round trip — the
access-pattern mismatch the paper blames for the connector losing Fig. 2
by ~221% ("reading from PFS is not optimal since the PFS is optimized in
favor of HPC workloads instead of BD analysis").
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.node import Node
from repro.hdfs.block import DEFAULT_BLOCK_SIZE, BlockInfo
from repro.hdfs.namenode import HDFSError
from repro.io.planner import ReadPlanner
from repro.io.write import WritePlanner
from repro.pfs.client import PFSClient
from repro.pfs.filesystem import PFS
from repro.pfs.server import PFSError

__all__ = ["ConnectorClient", "PFSConnector"]

#: Lustre client RPC size: reads are chopped into requests of this size.
CONNECTOR_RPC_SIZE = 1024 * 1024
#: Per-request distributed lock (LDLM-style) round trip.
CONNECTOR_LOCK_LATENCY = 0.002


class PFSConnector:
    """HDFS-compatible namespace whose data lives on a PFS."""

    def __init__(self, pfs: PFS,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 rpc_size: int = CONNECTOR_RPC_SIZE,
                 lock_latency: float = CONNECTOR_LOCK_LATENCY,
                 write_max_inflight: Optional[int] = None,
                 write_chunk: Optional[int] = None):
        self.pfs = pfs
        self.env = pfs.env
        self.network = pfs.network
        self.block_size = block_size
        self.rpc_size = rpc_size
        self.lock_latency = lock_latency
        #: stripe-push window/granularity for the backing PFS clients
        #: (None/None = the PFS client defaults: one push per stripe
        #: extent, all in flight at once)
        self.write_max_inflight = write_max_inflight
        self.write_chunk = write_chunk
        # Synthetic block ids must be resolvable by ANY client of this
        # connector (the scheduler enumerates splits with one client,
        # map tasks read with others), so the registry lives here.
        self._next_block_id = -1
        self._block_registry: dict[int, tuple[str, int]] = {}
        self._blocks_by_path: dict[str, list[BlockInfo]] = {}

    # HDFS-facade metadata: blocks are synthesized from the PFS file size;
    # they carry no locations (nothing is node-local behind a connector).
    def get_blocks(self, path: str) -> list[BlockInfo]:
        norm = self.pfs.mds.normalize(path)
        inode = self.pfs.mds.lookup(norm)
        cached = self._blocks_by_path.get(norm)
        if cached is not None and sum(b.length for b in cached) == inode.size:
            return list(cached)
        blocks = []
        pos = 0
        while pos < inode.size:
            length = min(self.block_size, inode.size - pos)
            block = BlockInfo(
                block_id=self._next_block_id,
                length=length,
                locations=[],
            )
            self._block_registry[block.block_id] = (norm, pos)
            self._next_block_id -= 1
            blocks.append(block)
            pos += length
        self._blocks_by_path[norm] = blocks
        return list(blocks)

    def resolve_block(self, block_id: int) -> tuple[str, int]:
        try:
            return self._block_registry[block_id]
        except KeyError:
            raise HDFSError(
                f"unknown connector block {block_id}") from None

    def exists(self, path: str) -> bool:
        return self.pfs.mds.exists(path)

    def listdir(self, path: str) -> list[str]:
        return self.pfs.mds.listdir(path)

    def store_file_sync(self, path: str, data: bytes, **_kwargs) -> None:
        self.pfs.store_file(path, data)

    def read_file_sync(self, path: str) -> bytes:
        return self.pfs.read_file_sync(path)

    def client(self, node: Node) -> "ConnectorClient":
        return ConnectorClient(self, node)


class ConnectorClient:
    """DFSClient-shaped access that actually talks to the PFS.

    The RPC-granular, lock-per-request access pattern is expressed as a
    :class:`repro.io.planner.ReadPlanner` configuration: granularity =
    the Lustre RPC size, per-request overhead = the distributed-lock
    round trip, serial window — the connector's mismatch with BD access
    patterns is literally just a bad planner config.
    """

    def __init__(self, connector: PFSConnector, node: Node):
        self.connector = connector
        self.node = node
        self.env = connector.env
        self._pfs_client = PFSClient(
            connector.pfs, node,
            write_max_inflight=connector.write_max_inflight,
            write_chunk=connector.write_chunk)
        #: the shared read planner (RPC chopping + lock latency)
        self.planner = ReadPlanner(
            self.env, scheme="connector",
            granularity=connector.rpc_size,
            request_overhead=connector.lock_latency,
            max_inflight=1)
        #: write accounting under the ``connector`` scheme (the inner
        #: PFS pushes additionally account under ``pfs``, mirroring the
        #: read side)
        self.write_planner = WritePlanner(self.env, scheme="connector")
        self.bytes_read = 0.0
        self.bytes_written = 0.0

    def get_block_locations(self, path: str):
        """Synthesized block list (one metadata RPC). DES process."""
        yield from self.connector.pfs.mds.rpc()
        return self.connector.get_blocks(path)

    def stat(self, path: str):
        """Lookup the backing PFS inode (one metadata RPC). DES process."""
        yield from self.connector.pfs.mds.rpc()
        try:
            return self.connector.pfs.mds.lookup(path)
        except PFSError as exc:
            raise HDFSError(str(exc)) from exc

    def _read_range(self, path: str, offset: int, length: int,
                    max_inflight: Optional[int] = None):
        """RPC-granular read with a lock round trip per request."""
        data = yield from self.planner.fetch_range(
            path, offset, length,
            lambda pos, n: self._pfs_client.read(path, pos, n),
            max_inflight)
        self.bytes_read += len(data)
        return data

    def read_block(self, block: BlockInfo, offset: int = 0,
                   length: int = -1, max_inflight: Optional[int] = None):
        """Read one synthesized block. DES process."""
        path, base = self.connector.resolve_block(block.block_id)
        if length < 0:
            length = block.length - offset
        if offset + length > block.length:
            raise HDFSError("read past end of block")
        data = yield self.env.process(
            self._read_range(path, base + offset, length, max_inflight))
        return data

    def read(self, path: str, offset: int = 0,
             length: Optional[int] = None,
             max_inflight: Optional[int] = None):
        """Read a byte range (default: the whole file). DES process."""
        yield from self.connector.pfs.mds.rpc()
        try:
            inode = self.connector.pfs.mds.lookup(path)
        except PFSError as exc:
            raise HDFSError(str(exc)) from exc
        if length is None:
            length = inode.size - offset
        data = yield self.env.process(
            self._read_range(path, offset, length, max_inflight))
        return data

    def read_extents(self, path: str, extents,
                     max_inflight: Optional[int] = None):
        """Fetch ``(offset, length)`` ranges, each RPC-chopped. DES
        process; returns the requested bytes ordered by file offset."""
        parts = []
        for offset, length in sorted(extents):
            parts.append((yield self.env.process(
                self._read_range(path, offset, length, max_inflight))))
        return b"".join(parts)

    def write(self, path: str, data: bytes, **_kwargs):
        """Write a file through the connector (RPC-granular). DES process."""
        pos = 0
        requests = 0
        while pos < len(data):
            chunk = data[pos:pos + self.connector.rpc_size]
            yield self.env.timeout(self.connector.lock_latency)
            yield self.env.process(
                self._pfs_client.write(path, chunk, offset=pos))
            pos += len(chunk)
            requests += 1
        self.bytes_written += len(data)
        self.write_planner.account(len(data), requests=requests)

    def listdir(self, path: str):
        """Directory listing (one metadata RPC). DES process."""
        yield from self.connector.pfs.mds.rpc()
        return self.connector.listdir(path)

    def exists(self, path: str):
        """Existence check (one metadata RPC). DES process."""
        yield from self.connector.pfs.mds.rpc()
        return self.connector.exists(path)

    def delete(self, path: str):
        """Remove a file (one metadata RPC). DES process."""
        yield from self.connector.pfs.mds.rpc()
        self.connector.pfs.unlink(path)
