"""HDFS assembly: NameNode + DataNodes on a cluster."""

from __future__ import annotations

from typing import Optional

from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.hdfs.block import DEFAULT_BLOCK_SIZE
from repro.hdfs.client import DFSClient
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import HDFSError, NameNode
from repro.sim import Environment

__all__ = ["HDFS"]


class HDFS:
    """One HDFS instance.

    ``store_file_sync`` is the zero-time setup path: blocks are spread
    round-robin over DataNodes (as a balanced cluster would hold them)
    without charging simulated time — used to set up experiment inputs.
    """

    def __init__(self, env: Environment, network: Network,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 replication: int = 1,
                 packet_bytes: Optional[int] = None,
                 write_parallel_blocks: int = 1):
        self.env = env
        self.network = network
        self.namenode = NameNode(env, block_size, replication)
        #: replication pipeline packet size inherited by clients;
        #: None = whole-block store-and-forward
        self.packet_bytes = packet_bytes
        #: concurrent block pipelines per client write; 1 = sequential
        self.write_parallel_blocks = write_parallel_blocks
        self._datanodes: dict[str, DataNode] = {}
        self._rr = 0

    def add_datanode(self, node: Node) -> DataNode:
        datanode = DataNode(self.env, node)
        self.namenode.register_datanode(datanode.name)
        self._datanodes[datanode.name] = datanode
        return datanode

    def datanode(self, name: str) -> DataNode:
        try:
            return self._datanodes[name]
        except KeyError:
            raise HDFSError(f"unknown datanode {name!r}") from None

    @property
    def datanodes(self) -> list[DataNode]:
        return list(self._datanodes.values())

    def client(self, node: Node,
               packet_bytes: Optional[int] = None,
               write_parallel_blocks: Optional[int] = None) -> DFSClient:
        """A client on ``node``; write knobs default to the filesystem's."""
        return DFSClient(self, node, packet_bytes=packet_bytes,
                         write_parallel_blocks=write_parallel_blocks)

    # -- sync metadata (StorageFacade surface, shared with the connector)
    def listdir(self, path: str) -> list[str]:
        return self.namenode.listdir(path)

    def get_blocks(self, path: str):
        return self.namenode.get_block_locations(path)

    # -- setup helpers -------------------------------------------------------
    def store_file_sync(self, path: str, data: bytes,
                        block_size: Optional[int] = None,
                        replication: Optional[int] = None) -> None:
        """Place a file instantly, blocks balanced round-robin."""
        entry = self.namenode.create_file(path, block_size, replication)
        names = self.namenode.datanodes
        if not names:
            raise HDFSError("no datanodes registered")
        pos = 0
        while pos < len(data):
            chunk = data[pos:pos + entry.block_size]
            block = self.namenode.add_block(entry.path, len(chunk))
            # Override writer-affinity placement with pure round-robin so
            # pre-loaded data is balanced like a real ingested dataset.
            block.locations = []
            repl = min(entry.replication, len(names))
            for r in range(repl):
                block.locations.append(names[(self._rr + r) % len(names)])
            self._rr += 1
            for name in block.locations:
                self._datanodes[name].store_sync(block.block_id, chunk)
            pos += len(chunk)
        self.namenode.complete_file(entry.path)

    def decommission(self, name: str):
        """Gracefully drain a datanode. DES process.

        Every replica it holds is copied to another live datanode (disk
        read, network transfer, disk write), the block map is updated,
        and the node is removed from placement — the standard HDFS
        decommissioning flow. Returns the number of blocks moved.
        """
        source = self.datanode(name)
        blocks = self.namenode.blocks_on(name)
        self.namenode.unregister_datanode(name)
        moved = 0
        for block in blocks:
            holders = set(block.locations)
            candidates = [
                dn for dn in self._datanodes.values()
                if dn.alive and dn.name != name
                and self.namenode.has_datanode(dn.name)
                and dn.name not in holders
            ]
            if not candidates:
                raise HDFSError(
                    f"no live target to re-replicate block "
                    f"{block.block_id}")
            target = min(candidates, key=lambda dn: dn.used_bytes)
            data = yield self.env.process(
                source.read(block.block_id, 0, block.length))
            yield self.network.transfer(source.node, target.node,
                                        len(data))
            yield self.env.process(target.write(block.block_id, data))
            block.locations = [target.name if loc == name else loc
                               for loc in block.locations]
            source.drop(block.block_id)
            moved += 1
        return moved

    def read_file_sync(self, path: str) -> bytes:
        """Assemble a file with no simulated time (verification path)."""
        parts = []
        for block in self.namenode.get_block_locations(path):
            if block.is_virtual:
                raise HDFSError(
                    "virtual blocks hold no HDFS data; read via SciDP")
            datanode = self._datanodes[block.locations[0]]
            parts.append(datanode.read_sync(block.block_id))
        return b"".join(parts)
