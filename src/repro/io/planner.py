"""The one read planner: chopping, coalescing, fan-out, cache joining.

Every storage backend routes its data path through this module. What
used to be four private copies of the same machinery — granularity
chopping in ``PFSReader``, per-OST run coalescing in ``PFSClient``,
RPC-size chopping in ``ConnectorClient._read_range``, and per-backend
bounded fan-out — now lives here once, so a new backend is a thin
adapter and the datapath counters stay comparable across schemes.

Timing discipline
-----------------
The fan-out shape decides the DES event order, so it is part of the
simulated physics. There are two shapes:

- :meth:`ReadPlanner.fetch_pieces` (and :meth:`ReadPlanner.fetch_range`
  on top of it) — the reader / connector shape: a serial window
  (``max_inflight == 1``) or a single piece loops inline in the calling
  process, anything else rides :func:`~repro.sim.pipeline.bounded_fanout`.
  ``PFSClient`` drives its coalesced runs (and its stripe pushes)
  through ``bounded_fanout`` directly.
- :func:`fan_out_blocks` — the DFS client shape, shared by HDFS reads
  and writes: windowed only for a window other than 1 (or ``None``)
  over multiple blocks, otherwise a serial process-per-block loop
  (stock ``DFSInputStream`` / output-stream streaming).

Changing either shape changes event creation order and is a behaviour
change, not a refactor: ``tests/io/test_dataplane_pins.py`` pins the
clocks and bytes of seeded read and write worlds, and
``tests/bench/test_perf_smoke.py`` the figure benches, to 1e-9.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.io.plan import Extent, ReadPlan
from repro.obs.metrics import metrics_of
from repro.sim.cache import ReadAheadCache
from repro.sim.pipeline import bounded_fanout

__all__ = [
    "ReadPlanner",
    "chop_range",
    "coalesce_extents",
    "fan_out_blocks",
]


def chop_range(offset: int, length: int,
               granularity: Optional[int]) -> list[tuple[int, int]]:
    """(pos, nbytes) request pieces for one byte range.

    ``granularity=None`` keeps the range whole (SciDP's single
    whole-block request); otherwise pieces are at most ``granularity``
    bytes (Hadoop's 64 KiB streaming, the connector's RPC size).
    """
    if granularity is None:
        return [(offset, length)]
    pieces = []
    pos = offset
    end = offset + length
    while pos < end:
        piece = min(granularity, end - pos)
        pieces.append((pos, piece))
        pos += piece
    return pieces


def coalesce_extents(extents: list[Extent]) -> dict[int, list[Extent]]:
    """Group extents by device and merge object-adjacent runs into one
    bulk request.

    Real clients build one bulk RPC per device per contiguous object
    range; this is what makes large aligned reads cheap (one seek) and
    scattered small reads expensive (a seek each) — the asymmetry behind
    Fig. 6.
    """
    per_device: dict[int, list[Extent]] = {}
    for ext in sorted(extents, key=lambda e: (e.ost_index, e.object_offset)):
        runs = per_device.setdefault(ext.ost_index, [])
        if runs:
            last = runs[-1]
            if last.object_offset + last.length == ext.object_offset:
                runs[-1] = Extent(
                    ost_index=last.ost_index,
                    object_offset=last.object_offset,
                    file_offset=last.file_offset,
                    length=last.length + ext.length)
                continue
        runs.append(ext)
    return per_device


def fan_out_blocks(env, factories: Sequence[Callable],
                   max_inflight: Optional[int]):
    """Drive whole-block read or push factories, DFS-client style. DES
    process returning the results in input order.

    A window other than 1 over multiple blocks keeps that many blocks
    in flight (0 = all); ``1`` or ``None`` streams them serially, one
    process per block — the stock HDFS input/output stream behaviour.
    """
    factories = list(factories)
    if max_inflight not in (None, 1) and len(factories) > 1:
        results = yield from bounded_fanout(env, factories, max_inflight)
        return results
    results = []
    for factory in factories:
        results.append((yield env.process(factory())))
    return results


class ReadPlanner:
    """Plans and drives one backend's read requests.

    One planner per client instance, tagged with the backend ``scheme``
    (``hdfs``, ``pfs``, ``scidp``, ``connector``) so the metrics
    registry can report per-scheme read rows uniformly.

    ``fetch`` callbacks passed to the drive methods are thunks
    ``fetch(pos, nbytes)`` returning a DES generator that performs the
    backend's actual timed transfer.
    """

    def __init__(self, env, scheme: str = "",
                 granularity: Optional[int] = None,
                 request_overhead: float = 0.0,
                 max_inflight: int = 1,
                 cache: Optional[ReadAheadCache] = None):
        if granularity is not None and granularity < 1:
            raise ValueError("granularity must be >= 1")
        if max_inflight < 0:
            raise ValueError("max_inflight must be >= 0 (0 = unbounded)")
        self.env = env
        self.scheme = scheme
        self.granularity = granularity
        #: per-request software overhead charged before each piece fetch
        self.request_overhead = request_overhead
        #: in-flight request window; 1 = serial, 0 = unbounded
        self.max_inflight = max_inflight
        #: optional node-level read-ahead cache of stored byte ranges
        self.cache = cache

    # -- planning ----------------------------------------------------------
    def plan(self, ranges: Sequence[tuple[int, int]]) -> ReadPlan:
        """Chop logical ``(offset, length)`` ranges into request pieces."""
        pieces: list[tuple[int, int]] = []
        for offset, length in ranges:
            pieces.extend(chop_range(offset, length, self.granularity))
        return ReadPlan(pieces=tuple(pieces), granularity=self.granularity)

    def plan_runs(self, extents: Sequence[Extent]) -> dict[int, list[Extent]]:
        """Coalesce mapped extents into per-device bulk-request runs."""
        return coalesce_extents(list(extents))

    # -- accounting --------------------------------------------------------
    def account(self, nbytes: int, requests: int = 1,
                cache_hits: int = 0) -> None:
        """Roll a completed read into the per-scheme metrics counters.

        Pure-Python counters: no simulated events, so instrumentation
        never shifts timings.
        """
        registry = metrics_of(self.env)
        if registry is None:
            return
        prefix = f"io.read.{self.scheme or 'unknown'}"
        if nbytes:
            registry.counter(f"{prefix}.bytes").inc(nbytes)
        if requests:
            registry.counter(f"{prefix}.requests").inc(requests)
        if cache_hits:
            registry.counter(f"{prefix}.cache_hits").inc(cache_hits)

    def account_skipped(self, nbytes: int, chunks: int = 1) -> None:
        """Roll bytes a scan *proved it need not read* (projection or
        zone-map pruning) into ``io.read.<scheme>.skipped_bytes`` /
        ``.skipped_chunks`` — the denominators behind the planner's
        bytes-scanned reduction claims."""
        registry = metrics_of(self.env)
        if registry is None:
            return
        prefix = f"io.read.{self.scheme or 'unknown'}"
        if nbytes:
            registry.counter(f"{prefix}.skipped_bytes").inc(nbytes)
        if chunks:
            registry.counter(f"{prefix}.skipped_chunks").inc(chunks)

    # -- piece fetch with cache join-in-flight ----------------------------
    def fetch_piece(self, path: str, pos: int, nbytes: int,
                    fetch: Callable, prefetching: bool = False):
        """Fetch one request-sized piece, through the cache when present.

        DES (sub)process — drive with ``yield from`` or ``env.process``.
        The cache protocol (hit → bytes; join an in-flight fetch; else
        reserve, fetch, fill) is the join-in-flight semantics the map
        runtime's double-buffered prefetch relies on.
        """
        cache = self.cache
        if cache is not None:
            key = (path, pos, nbytes)
            data = cache.get(key)
            if data is not None:
                self.account(len(data), requests=0, cache_hits=1)
                return data
            waiter = cache.join(key)
            if waiter is not None:
                data = yield waiter
                self.account(len(data), requests=0, cache_hits=1)
                return data
            reservation = cache.reserve(key)
            try:
                yield self.env.timeout(self.request_overhead)
                data = yield self.env.process(fetch(pos, nbytes))
            except BaseException as exc:
                reservation.abort(exc)
                raise
            reservation.fill(data, prefetched=prefetching)
            self.account(len(data))
            return data
        yield self.env.timeout(self.request_overhead)
        data = yield self.env.process(fetch(pos, nbytes))
        self.account(len(data))
        return data

    # -- range / piece drivers --------------------------------------------
    def fetch_range(self, path: str, offset: int, length: int,
                    fetch: Callable,
                    max_inflight: Optional[int] = None):
        """Fetch one byte range, whole or chopped to the granularity,
        under :meth:`fetch_pieces`' window. DES process."""
        parts = yield from self.fetch_pieces(
            path, chop_range(offset, length, self.granularity), fetch,
            max_inflight=max_inflight)
        return b"".join(parts)

    def fetch_pieces(self, path: str, pieces: Sequence[tuple[int, int]],
                     fetch: Callable, prefetching: bool = False,
                     max_inflight: Optional[int] = None):
        """Fetch pre-chopped pieces under one shared window. DES process.

        The reader discipline: a serial window or a single piece loops
        inline, everything else rides one bounded fan-out across the
        whole piece list. Returns the parts in input order.
        """
        window = self.max_inflight if max_inflight is None else max_inflight
        if window == 1 or len(pieces) == 1:
            parts = []
            for pos, n in pieces:
                parts.append((yield from self.fetch_piece(
                    path, pos, n, fetch, prefetching=prefetching)))
            return parts
        parts = yield from bounded_fanout(
            self.env,
            [lambda pos=pos, n=n: self.fetch_piece(
                path, pos, n, fetch, prefetching=prefetching)
             for pos, n in pieces],
            window)
        return parts
