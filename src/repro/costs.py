"""Calibration constants for the performance layer.

Single source of truth for every simulated compute rate. Device rates
(disk, NIC) live in :mod:`repro.cluster.spec`; these are the *software*
costs. Values are anchored to figures stated in the paper or to ordinary
hardware behaviour, and each experiment's sensitivity to them is noted in
EXPERIMENTS.md.

The paper's anchors:

- §IV-B: converted text is ~33x the compressed netCDF size; converting
  14 GB takes over an hour → conversion ≈ a few MB/s.
- §V-D (Fig. 7): baselines' R ``read.table`` Convert dominates the task;
  SciDP's binary→R conversion is "a very short time".
- §V-D: Read ≈ 2 s/task for the baselines, 0.035 s/level for SciDP;
  Plot ≈ equal across parallel solutions.
- netCDF-4/zlib behaviour: decompression ~400 MB/s, compression slower.
"""

from __future__ import annotations

MB = 1024.0 * 1024.0

#: zlib inflate throughput (decompressing SCNC chunks), bytes/s.
DECOMPRESS_BYTES_PER_SEC = 400 * MB

#: zlib deflate throughput (the conversion path compresses nothing, but
#: synthetic data generation and any re-chunking pay this), bytes/s.
COMPRESS_BYTES_PER_SEC = 80 * MB

#: R ``read.table``: sequential text→typed-columns parsing, bytes of text
#: per second. R is famously slow here (~10-20 MB/s without colClasses);
#: 12 MB/s also reproduces the paper's Fig. 5 solution ordering and its
#: 284.63x naive-vs-SciDP extreme (we measure ~269x at this rate).
TEXT_PARSE_BYTES_PER_SEC = 12 * MB

#: Binary ndarray → R data.frame conversion (SciDP path): a typed copy.
BINARY_CONVERT_BYTES_PER_SEC = 2000 * MB

#: netCDF/scientific-format → text dump rate (offline conversion step the
#: baselines need; §V-A measures >1 h for 14 GB ⇒ ~4 MB/s of source data).
FORMAT_CONVERT_BYTES_PER_SEC = 4 * MB

#: SQL engine throughput for the Anlys workload, rows/s. A top-k scan is
#: a single vectorised pass; Fig. 9 requires the highlight query to be
#: nearly free next to the ~0.06 s plot, which 5e7 rows/s delivers for a
#: 1.56M-row level.
SQL_ROWS_PER_SEC = 5.0e7

#: Per-SQL-query fixed planning cost, seconds.
SQL_QUERY_OVERHEAD = 0.002

#: Hadoop's streaming read granularity (§III-A.3: "The original Hadoop
#: reads 64KB data at a time"); SciDP reads the whole block in one
#: request. Used by the read-granularity ablation.
HADOOP_STREAM_READ_BYTES = 64 * 1024

#: Per-read-request software overhead at the PFS client (RPC handling),
#: seconds. Multiplies up under 64 KB streaming, vanishes for SciDP's
#: single whole-block request.
PFS_REQUEST_OVERHEAD = 0.0008

#: Default bounded in-flight window for a PFS Reader's chunk and
#: granularity-chopped range requests. 1 = strictly serial (the
#: pre-pipelining behaviour); Lustre clients default to a handful of
#: RPCs in flight per target.
PFS_MAX_INFLIGHT = 4

#: Default per-OST-run fan-out bound in ``PFSClient.read_extents``.
#: 0 = unbounded (every coalesced run issued at once under one
#: ``AllOf``); large collective reads can bound it to model client RPC
#: slot limits.
PFS_CLIENT_MAX_INFLIGHT = 0

#: Default node read-ahead cache capacity (bytes) when a job enables
#: prefetch without sizing ``readahead_cache_bytes`` itself.
READAHEAD_CACHE_BYTES = 256 * 1024 * 1024

#: HDFS write-pipeline packet size (real DataNode pipelines stream
#: 64 KB packets down the replication chain, so hop N→N+1 overlaps hop
#: N−1→N). Clients default to ``None`` = whole-block
#: store-and-forward (each hop waits for the whole block); this is the
#: size to use when enabling it.
HDFS_PACKET_BYTES = 64 * 1024

#: Default window of concurrent in-flight blocks in ``DFSClient.write``.
#: 1 = strictly sequential blocks (the stock output-stream behaviour);
#: >1 or 0 pushes that many block pipelines at once.
HDFS_WRITE_PARALLEL_BLOCKS = 1

#: Default bounded fan-out window for ``PFSClient.write`` stripe pushes.
#: 0 = unbounded (every extent pushed at once under one ``AllOf``).
PFS_WRITE_MAX_INFLIGHT = 0

#: Chunk granularity for PFS write pushes when chunking is enabled
#: (Lustre's native 1 MB bulk RPC). Clients default to ``None`` = one
#: push per stripe extent.
PFS_WRITE_CHUNK_BYTES = 1024 * 1024


# --------------------------------------------------------------------------
# Experiment scaling
# --------------------------------------------------------------------------
# The experiments run on data scaled down by a factor S from the paper's
# 98 GB (memory + wall-clock budget). Dividing every *throughput* constant
# by S makes a byte of scaled data take exactly as long as S bytes of real
# data, while fixed latencies (seeks, RPCs, task startup) stay at their
# true magnitude — time-equivalent to running the full-size dataset.
# Device bandwidths are scaled the same way by the bench harness when it
# builds NodeSpecs (see repro.bench.calibration.scaled_spec).

_RATE_NAMES = [
    "DECOMPRESS_BYTES_PER_SEC",
    "COMPRESS_BYTES_PER_SEC",
    "TEXT_PARSE_BYTES_PER_SEC",
    "BINARY_CONVERT_BYTES_PER_SEC",
    "FORMAT_CONVERT_BYTES_PER_SEC",
    "SQL_ROWS_PER_SEC",
]
#: mutated only by tests that recalibrate; captured at import
_BASE_RATES = {name: globals()[name] for name in _RATE_NAMES}
_SCALE = 1.0


def set_scale(factor: float) -> None:
    """Scale all software throughput constants for data shrunk by
    ``factor``. Call before building an experiment world; pair with
    :func:`repro.bench.calibration.scaled_spec` for the devices."""
    global _SCALE
    if factor <= 0:
        raise ValueError("scale factor must be > 0")
    _SCALE = float(factor)
    for name in _RATE_NAMES:
        globals()[name] = _BASE_RATES[name] / _SCALE


def get_scale() -> float:
    return _SCALE


def reset_scale() -> None:
    """Restore unscaled constants (test isolation)."""
    set_scale(1.0)
