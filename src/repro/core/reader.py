"""PFS Reader: per-task direct PFS access (§III-A.3).

Each map task spawns one reader; readers on different tasks/nodes run in
parallel, which is where SciDP's aggregate bandwidth comes from (Fig. 6).
Two behaviours the paper calls out are modelled exactly:

- **Whole-block single request**: "The original Hadoop reads 64KB data at
  a time ... SciDP reads the entire block in a single I/O request to
  maximize the bandwidth." ``granularity=None`` issues one request;
  setting it to 64 KiB reproduces Hadoop's streaming behaviour for the
  ablation bench.
- **Decompression inside the read**: Fig. 6's SciDP bandwidth divides by
  an I/O time that "includes both the actual data access time and the
  decompression time".

The request machinery — granularity chopping, the bounded in-flight
window, and the read-ahead-cache join-in-flight protocol — is the
shared :class:`repro.io.planner.ReadPlanner` (``scidp`` scheme); this
class keeps only what is reader-specific: hyperslab reassembly,
decompression, and the fetched/delivered byte accounting.
``max_inflight=1`` restores the serial behaviour exactly.
"""

from __future__ import annotations

import zlib
from typing import Optional

import numpy as np

from repro import costs
from repro.hdfs.block import VirtualBlock
from repro.io.plan import block_raw_bytes
from repro.io.planner import ReadPlanner
from repro.obs.trace import tracer_of
from repro.pfs.client import PFSClient
from repro.sim.cache import ReadAheadCache

__all__ = ["PFSReader"]


class PFSReader:
    """Reads dummy blocks' data straight from the PFS."""

    def __init__(self, client: PFSClient,
                 granularity: Optional[int] = None,
                 request_overhead: float = costs.PFS_REQUEST_OVERHEAD,
                 track: Optional[str] = None,
                 max_inflight: Optional[int] = None,
                 cache: Optional[ReadAheadCache] = None):
        if max_inflight is None:
            max_inflight = costs.PFS_MAX_INFLIGHT
        self.client = client
        self.env = client.env
        #: the shared planner: chopping, window, cache join-in-flight
        self.planner = ReadPlanner(
            client.env, scheme="scidp", granularity=granularity,
            request_overhead=request_overhead, max_inflight=max_inflight,
            cache=cache)
        #: trace swimlane for this reader's spans (the owning task's)
        self.track = track or f"{client.node.name}.pfs"
        #: stored (possibly compressed) bytes fetched
        self.bytes_fetched = 0
        #: raw bytes delivered after decompression
        self.bytes_delivered = 0

    def _fetch(self, path: str):
        """The piece-fetch thunk handed to the planner."""
        return lambda pos, n: self.client.read(path, pos, n)

    # -- public API ----------------------------------------------------------
    def read_block(self, block: VirtualBlock):
        """DES process returning bytes (flat) or ndarray (scientific)."""
        fetched0, delivered0 = self.bytes_fetched, self.bytes_delivered
        with tracer_of(self.env).span(
                "pfs.read_block", cat="storage", track=self.track,
                path=block.source_path) as span:
            if block.hyperslab is None:
                data = yield from self._read_flat(block)
            else:
                data = yield from self._read_hyperslab(block)
            span.set(fetched=int(self.bytes_fetched - fetched0),
                     delivered=int(self.bytes_delivered - delivered0))
        return data

    def prefetch_block(self, block: VirtualBlock):
        """Fetch a block's stored bytes (into the cache) without
        decompressing or assembling — the map runtime's double-buffered
        read-ahead. DES process; advisory, the data is discarded."""
        with tracer_of(self.env).span(
                "pfs.prefetch_block", cat="storage", track=self.track,
                path=block.source_path):
            if block.hyperslab is None:
                ranges = [(block.offset, block.length)]
            else:
                ranges = [(chunk["offset"], chunk["nbytes"])
                          for chunk in block.hyperslab["chunks"]]
            pieces = self.planner.plan(ranges).pieces
            yield from self.planner.fetch_pieces(
                block.source_path, pieces, self._fetch(block.source_path),
                prefetching=True)

    def _read_flat(self, block: VirtualBlock):
        data = yield self.env.process(self.planner.fetch_range(
            block.source_path, block.offset, block.length,
            self._fetch(block.source_path)))
        self.bytes_fetched += len(data)
        self.bytes_delivered += len(data)
        return data

    def _read_hyperslab(self, block: VirtualBlock):
        slab = block.hyperslab
        dtype = np.dtype(slab["dtype"])
        start = tuple(slab["start"])
        count = tuple(slab["count"])
        out = np.empty(count, dtype=dtype)
        chunks = slab["chunks"]
        fetch = self._fetch(block.source_path)

        if self.planner.max_inflight == 1 or len(chunks) == 1:
            # Serial (or single-request) path: fetch chunk by chunk, one
            # range at a time.
            stored_chunks = []
            for chunk in chunks:
                stored_chunks.append((yield self.env.process(
                    self.planner.fetch_range(
                        block.source_path, chunk["offset"],
                        chunk["nbytes"], fetch))))
        else:
            # Pipelined path: every chunk's request pieces share one
            # bounded in-flight window across the whole block.
            spans = []
            pieces: list[tuple[int, int]] = []
            for chunk in chunks:
                chopped = self.planner.plan(
                    [(chunk["offset"], chunk["nbytes"])]).pieces
                spans.append((len(pieces), len(pieces) + len(chopped)))
                pieces.extend(chopped)
            parts = yield from self.planner.fetch_pieces(
                block.source_path, pieces, fetch)
            stored_chunks = [
                parts[lo] if hi - lo == 1 else b"".join(parts[lo:hi])
                for lo, hi in spans
            ]

        raw_total = 0
        for chunk, stored in zip(chunks, stored_chunks):
            self.bytes_fetched += len(stored)
            raw = zlib.decompress(stored) if slab["compressed"] else stored
            if len(raw) != chunk["raw_nbytes"]:
                raise ValueError(
                    f"chunk payload mismatch for {block.source_path}: "
                    f"{len(raw)} != {chunk['raw_nbytes']}")
            raw_total += len(raw)
            chunk_start = tuple(chunk["start"])
            chunk_count = tuple(chunk["count"])
            arr = np.frombuffer(raw, dtype=dtype).reshape(chunk_count)
            src, dst = [], []
            for cs, cc, bs, bc in zip(chunk_start, chunk_count,
                                      start, count):
                lo = max(cs, bs)
                hi = min(cs + cc, bs + bc)
                src.append(slice(lo - cs, hi - cs))
                dst.append(slice(lo - bs, hi - bs))
            out[tuple(dst)] = arr[tuple(src)]

        if slab["compressed"] and raw_total:
            yield self.env.timeout(
                raw_total / costs.DECOMPRESS_BYTES_PER_SEC)
        self.bytes_delivered += out.nbytes
        return out

    # -- diagnostics -----------------------------------------------------------
    @staticmethod
    def block_raw_bytes(block: VirtualBlock) -> int:
        """Uncompressed payload size of a dummy block.

        Delegates to the shared byte-counting helper
        :func:`repro.io.plan.block_raw_bytes`, so reader-side and
        planner-side byte accounting can never drift.
        """
        return block_raw_bytes(block)
