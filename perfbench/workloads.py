"""The four benchmark workloads.

Each workload is a closed loop with one client: the benchmark builds a
fresh world (set-up), then runs the workload's operations one after
another, each only after the previous one returned. Every call into the
program goes through public functions (``build_world``,
``generate_nuwrf``, ``run_solution``, ``JobRunner.run`` via the Fig. 2
drivers, ``SQLSession.query``), so every layer is measured from outside.

A workload object provides:

- ``setup(metrics)`` -> world: build the inputs; ``metrics`` attaches a
  metrics registry (traced runs only);
- ``operations(world)`` -> ``[(name, fn)]``: the operations, in order;
- ``inspect(world, name, raw)`` -> ``(record, problems)``: the operation's
  simulated outputs (what the digests cover) and the failed output
  checks;
- ``input_files(world)`` -> ``{path: bytes}``: every stored input file,
  hashed after set-up;
- ``setup_problems(world)``: checks on the built inputs;
- ``counts(world, raws)`` and ``job_counters(raws)``: per-layer counts
  taken from public results, and each MapReduce job's counter groups.

Sizes are fixed here, not by the command line, so every run of a
workload does the same work; only ``--seed`` changes the data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import costs

MB = 1024 * 1024

#: fig5-paths: NU-WRF files in the text-converted world
FIG5_FILES = 12
#: scidp-analysis: NU-WRF files in the binary-only world
ANALYSIS_FILES = 24
#: hadoop-pfs: the Fig. 2 jobs at the fig2 experiment's 1/64 device
#: scale, on a third of its terasort records and a fifth of its grep
#: lines, so a repetition takes seconds
FIG2_SCALE = 64
TERASORT_RECORDS = 60_000
GREP_LINES = 60_000
GREP_PATTERN = b"storm"
DFSIO_FILES = 8
DFSIO_BYTES = 64 * MB // FIG2_SCALE
#: sql-scan: zone-mapped NU-WRF tables and the query stream over them
SQL_SHAPE = (8, 96, 96)
SQL_FILES = 6
SQL_ROUNDS = 2

SOLUTIONS = ("naive", "vanilla", "porthadoop", "scihadoop", "scidp")
ANALYSES = ("none", "highlight", "top1pct")


def f32(value) -> float:
    """``value`` rounded to the nearest float32, as a Python float."""
    return float(np.float32(value))


def job_record(result, sim_s: float) -> dict:
    """The simulated outputs of one MapReduce job."""
    return {
        "sim_s": sim_s,
        "counters": result.counters.as_dict(),
        "map_phase_means": result.phase_means("map"),
        "reduce_phase_means": result.phase_means("reduce"),
    }


def mapreduce_counts(registry, counters: list) -> dict:
    """MapReduce and SciDP counts from the jobs' counter groups
    (``counters`` holds one ``Counters.as_dict()`` per job) and the
    registry's per-task duration histograms, which see each committed
    task once."""
    def total(group: str, name: str) -> int:
        return sum(c.get(group, {}).get(name, 0) for c in counters)

    committed = (registry.latency("task.map.duration").count
                 + registry.latency("task.reduce.duration").count)
    wasted = (total("job", "failed_map_attempts")
              + total("job", "failed_reduce_attempts")
              + total("job", "speculative_losses"))
    attempts = committed + wasted
    return {
        "mapreduce.shuffle_bytes": total("shuffle", "bytes"),
        "mapreduce.spilled_bytes": total("shuffle", "spilled_bytes"),
        "mapreduce.merge_passes": total("shuffle", "merge_passes"),
        "mapreduce.task_attempts": attempts,
        # no attempt made means none was wasted
        "mapreduce.useful_attempt_ratio": (
            committed / attempts if attempts else 1.0),
        "core.bytes_fetched": total("scidp", "bytes_fetched"),
    }


def registry_counts(registry) -> dict:
    """Byte and request counts from the metrics registry."""
    counters = registry.as_dict()["counters"]

    def total(prefix: str, suffix: str) -> float:
        return sum(value for name, value in counters.items()
                   if name.startswith(prefix) and name.endswith(suffix))

    return {
        "pfs.bytes_read": total("io.read.pfs.", ".bytes"),
        "pfs.bytes_written": total("io.write.pfs.", ".bytes"),
        "hdfs.bytes_read": total("io.read.hdfs.", ".bytes"),
        "hdfs.bytes_written": total("io.write.hdfs.", ".bytes"),
        "io.read_requests": total("io.read.", ".requests"),
        "io.skipped_bytes": total("io.read.", ".skipped_bytes"),
    }


class _NuwrfWorkload:
    """Shared by the two workloads built on ``build_world``."""

    n_files: int
    with_text: bool

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, metrics: bool):
        from repro.obs.metrics import attach_metrics
        from repro.workloads.solutions import build_world

        world = build_world(n_timesteps=self.n_files,
                            with_text=self.with_text, seed=self.seed)
        if metrics:
            attach_metrics(world.env)
        return world

    @staticmethod
    def env(world):
        return world.env

    @staticmethod
    def network(world):
        return world.cluster.network

    def frames_expected(self, world) -> int:
        return self.n_files * world.config.shape[0]

    def input_files(self, world) -> dict:
        paths = list(world.manifest["files"]) + list(world.text_files)
        return {path: world.pfs.read_file_sync(path) for path in paths}

    def setup_problems(self, world) -> list[str]:
        stored = sum(world.pfs.mds.lookup(path).size
                     for path in world.manifest["files"])
        if stored != world.manifest["stored_bytes"]:
            return [f"stored bytes {stored} != manifest bytes "
                    f"{world.manifest['stored_bytes']}"]
        return []

    def solution_record(self, world, result):
        record = {
            "sim_s": result.total_time,
            "copy_s": result.copy_time,
            "process_s": result.process_time,
            "phase_means": result.phase_means,
            "reduce_phase_means": result.reduce_phase_means,
            "counters": result.counters,
            "frames": result.frames,
        }
        problems = []
        if result.frames != self.frames_expected(world):
            problems.append(f"frames {result.frames} != files x levels "
                            f"{self.frames_expected(world)}")
        return record, problems

    def base_counts(self, world) -> dict:
        text_bytes = sum(world.pfs.mds.lookup(path).size
                         for path in world.text_files)
        return {"formats.stored_bytes": world.manifest["stored_bytes"],
                "formats.text_bytes": text_bytes}


class Fig5Paths(_NuwrfWorkload):
    """The five Table I data paths on one text-converted world."""

    name = "fig5-paths"
    n_files = FIG5_FILES
    with_text = True

    def operations(self, world):
        from repro.workloads.solutions import run_solution

        return [(solution, (lambda s=solution: run_solution(world, s)))
                for solution in SOLUTIONS]

    def inspect(self, world, name, raw):
        return self.solution_record(world, raw)

    def counts(self, world, raws) -> dict:
        out = self.base_counts(world)
        out["rlang.frames_plotted"] = sum(r.frames for r in raws.values())
        return out

    @staticmethod
    def job_counters(raws) -> list:
        return [r.counters for r in raws.values()]


class ScidpAnalysis(_NuwrfWorkload):
    """SciDP img-only / highlight / top1pct through MapReduce, and the
    img-only pass through the sparklike engine, on a binary-only world."""

    name = "scidp-analysis"
    n_files = ANALYSIS_FILES
    with_text = False

    def operations(self, world):
        from repro.workloads.solutions import run_solution

        ops = [(f"scidp:{analysis}",
                (lambda a=analysis: run_solution(world, "scidp", a)))
               for analysis in ANALYSES]
        ops.append(("spark:none", lambda: spark_img_only(world)))
        return ops

    def inspect(self, world, name, raw):
        if name.startswith("spark:"):
            frames, sim_s, metrics = raw
            record = {"sim_s": sim_s, "frames": frames,
                      "metrics": metrics}
            problems = []
            if frames != self.frames_expected(world):
                problems.append(f"spark frames {frames} != files x levels "
                                f"{self.frames_expected(world)}")
            return record, problems
        return self.solution_record(world, raw)

    def counts(self, world, raws) -> dict:
        out = self.base_counts(world)
        frames, _sim_s, metrics = raws["spark:none"]
        out["rlang.frames_plotted"] = frames + sum(
            r.frames for r in self._solutions(raws))
        out["sparklike.tasks"] = metrics["tasks"]
        return out

    def job_counters(self, raws) -> list:
        return [r.counters for r in self._solutions(raws)]

    @staticmethod
    def _solutions(raws) -> list:
        return [raw for name, raw in raws.items()
                if name.startswith("scidp:")]


def spark_img_only(world):
    """Img-only plotting through the sparklike engine's SciDP source
    (the ext-spark experiment's user code). Returns
    ``(frames, simulated seconds, engine metrics)``."""
    from repro.sparklike import Context
    from repro.workloads.pipeline import plot_seconds

    env = world.env
    ctx = Context(env, world.nodes, world.hdfs, world.cluster.network,
                  scidp=world.scidp, executor_cores=8, task_startup=0.05)
    resolution = world.config.shape[1:]

    def plot_partition(task, records):
        from repro.rlang.plot import image2d

        out = []
        for key, value in records:
            levels = value if value.ndim == 3 else value[None, ...]
            for z in range(levels.shape[0]):
                png = image2d(levels[z], resolution=resolution)
                task.charge(plot_seconds(levels[z].size), "plot")
                out.append(((key, z), len(png)))
        return out

    t0 = env.now
    frames = (ctx.scidp_variable(world.nc_dir, variables=[world.variable])
              .map_partitions(plot_partition)
              .count())
    return frames, env.now - t0, dict(ctx.metrics)


@dataclass
class _Fig2World:
    """8 Hadoop nodes with HDFS, plus Lustre behind the HDFS connector
    (the Fig. 2 testbed: replication 1, stripe size = block size)."""

    env: Any
    cluster: Any
    nodes: list
    hdfs: Any
    connector: Any
    #: storage tag -> {path: generated bytes}
    inputs: dict = field(default_factory=dict)


def build_fig2_world() -> _Fig2World:
    from repro.cluster import Cluster, DiskSpec, LinkSpec, NodeSpec
    from repro.hdfs import HDFS, PFSConnector
    from repro.pfs import PFS, StripeLayout
    from repro.sim import Environment

    scale = FIG2_SCALE
    costs.set_scale(scale)
    block_size = 64 * MB // scale
    env = Environment()
    cluster = Cluster(env)
    node_spec = NodeSpec(
        cpus=8, memory=4 * 1024**3,
        disks=(DiskSpec(bandwidth=120 * MB / scale, seek_latency=0.008),),
        nic=LinkSpec(bandwidth=1.125e9 / scale, latency=0.0001))
    nodes = [cluster.add_node(f"n{i}", node_spec, role="compute")
             for i in range(8)]
    oss_spec = NodeSpec(
        cpus=8, memory=4 * 1024**3,
        disks=tuple(DiskSpec(bandwidth=160 * MB / scale,
                             seek_latency=0.008) for _ in range(4)),
        nic=LinkSpec(bandwidth=1.125e9 / scale, latency=0.0001))
    oss_nodes = [cluster.add_node(f"oss{i}", oss_spec, role="storage")
                 for i in range(2)]
    pfs = PFS(env, cluster.network, oss_nodes[0], oss_nodes,
              default_layout=StripeLayout(stripe_size=block_size,
                                          stripe_count=8))
    hdfs = HDFS(env, cluster.network, block_size=block_size, replication=1)
    for node in nodes:
        hdfs.add_datanode(node)
    connector = PFSConnector(pfs, block_size=block_size,
                             rpc_size=max(256, 512 * 1024 // scale))
    return _Fig2World(env, cluster, nodes, hdfs, connector)


def _run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


class HadoopPFS:
    """The Fig. 2 jobs on native HDFS and on the Lustre connector."""

    name = "hadoop-pfs"
    JOBS = ("terasort", "grep", "dfsio-write", "dfsio-read")

    def __init__(self, seed: int):
        self.seed = seed

    def storages(self, world):
        # the connector deployment is diskless: map spills cross to Lustre
        return (("hdfs", world.hdfs, False),
                ("conn", world.connector, True))

    def setup(self, metrics: bool):
        from repro.obs.metrics import attach_metrics
        from repro.workloads.grep import generate_text
        from repro.workloads.terasort import teragen

        world = build_fig2_world()
        if metrics:
            attach_metrics(world.env)
        for tag, storage, _diskless in self.storages(world):
            tera = f"/{tag}/terasort-in/part-0"
            text = f"/{tag}/grep-in/a.txt"
            world.inputs[tag] = {
                tera: teragen(storage, tera, TERASORT_RECORDS,
                              seed=self.seed),
                text: generate_text(storage, text, GREP_LINES,
                                    seed=self.seed),
            }
        return world

    @staticmethod
    def env(world):
        return world.env

    @staticmethod
    def network(world):
        return world.cluster.network

    def input_files(self, world) -> dict:
        out = {}
        for tag, storage, _diskless in self.storages(world):
            for path in world.inputs[tag]:
                out[f"{tag}:{path}"] = storage.read_file_sync(path)
        return out

    def setup_problems(self, world) -> list[str]:
        problems = []
        for tag, storage, _diskless in self.storages(world):
            for path, data in world.inputs[tag].items():
                if storage.read_file_sync(path) != data:
                    problems.append(f"{tag}:{path} differs from the "
                                    f"generated bytes")
        return problems

    def operations(self, world):
        from repro.workloads.dfsio import run_dfsio_read, run_dfsio_write
        from repro.workloads.grep import run_grep
        from repro.workloads.terasort import run_terasort

        env, nodes, net = world.env, world.nodes, world.cluster.network

        def terasort(tag, storage, diskless):
            return _run(env, run_terasort(
                env, nodes, storage, net, f"/{tag}/terasort-in",
                output_path=f"/{tag}/terasort-out",
                diskless_spill=diskless))

        def grep(tag, storage, diskless):
            (result, matches), sim_s = _run(env, run_grep(
                env, nodes, storage, net, f"/{tag}/grep-in",
                pattern=GREP_PATTERN, output_path=f"/{tag}/grep-out",
                diskless_spill=diskless))
            return result, sim_s, matches

        def dfsio_write(tag, storage, _diskless):
            result, sim_s, _bw = _run(env, run_dfsio_write(
                env, nodes, storage, net, DFSIO_FILES, DFSIO_BYTES,
                control_path=f"/{tag}/dfsio-control-w"))
            return result, sim_s

        def dfsio_read(tag, storage, _diskless):
            result, sim_s, _bw = _run(env, run_dfsio_read(
                env, nodes, storage, net, DFSIO_FILES, DFSIO_BYTES,
                control_path=f"/{tag}/dfsio-control-r"))
            return result, sim_s

        drivers = {"terasort": terasort, "grep": grep,
                   "dfsio-write": dfsio_write, "dfsio-read": dfsio_read}
        ops = []
        # Fig. 2 order: each job on HDFS, then on the connector
        for job in self.JOBS:
            for tag, storage, diskless in self.storages(world):
                ops.append((f"{job}:{tag}",
                            (lambda d=drivers[job], t=tag, s=storage,
                             dl=diskless: d(t, s, dl))))
        return ops

    def inspect(self, world, name, raw):
        job, tag = name.split(":")
        result, sim_s = raw[0], raw[1]
        record = job_record(result, sim_s)
        problems = []
        if job == "terasort":
            from repro.workloads.terasort import validate_sorted

            data = world.inputs[tag][f"/{tag}/terasort-in/part-0"]
            want = sorted(line.split(b"\t", 1)[0]
                          for line in data.splitlines())
            got = sorted(k for recs in result.outputs.values()
                         for k, _v in recs)
            record["records_out"] = len(got)
            if not validate_sorted(result):
                problems.append("terasort partition not key-sorted")
            if got != want:
                problems.append(f"terasort keys out ({len(got)}) != keys "
                                f"in ({len(want)})")
        elif job == "grep":
            matches = raw[2]
            data = world.inputs[tag][f"/{tag}/grep-in/a.txt"]
            record["matches"] = matches
            if matches != data.count(GREP_PATTERN):
                problems.append(f"grep matches {matches} != "
                                f"{data.count(GREP_PATTERN)}")
        else:
            moved = sum(v for _k, v in result.map_records)
            record["bytes"] = moved
            if moved != DFSIO_FILES * DFSIO_BYTES:
                problems.append(f"{job} moved {moved} bytes != "
                                f"{DFSIO_FILES * DFSIO_BYTES}")
        return record, problems

    def counts(self, world, raws) -> dict:
        return {}

    @staticmethod
    def job_counters(raws) -> list:
        return [raw[0].counters.as_dict() for raw in raws.values()]


class SQLScan:
    """A stream of SQLSession queries over zone-mapped scinc tables.

    Per table and round, five queries: two selective ones that zone maps
    or a dimension predicate prune to one chunk (about 2 ms each), two
    unselective aggregates that decode every chunk of the two variables
    they name (about 5 ms), and a per-level GROUP BY profile over every
    chunk (about 80 ms). The mix is fixed so the percentiles land inside
    one query kind whatever the seed: p50 among the unselective
    aggregates, p90 among the profiles. The seed moves the data and the
    query parameters.
    """

    name = "sql-scan"

    def __init__(self, seed: int):
        from repro.workloads.nuwrf import NUWRFConfig, synthesize_timestep

        self.seed = seed
        self.config = NUWRFConfig(shape=SQL_SHAPE, timesteps=SQL_FILES,
                                  seed=seed, chunk_stats=True)
        # the brute-force oracle's inputs: the synthesized arrays
        self.arrays = []
        for step in range(SQL_FILES):
            ds = synthesize_timestep(self.config, step)
            self.arrays.append({
                name: ds.variables[name].data
                for name in ("QR", "QC", "QV", "T", "W")})
        rng = np.random.default_rng(seed)
        self.queries = []  # (name, sql, oracle)
        for rnd in range(SQL_ROUNDS):
            for i, arrays in enumerate(self.arrays):
                self.queries.extend(
                    self._table_queries(rng, f"r{rnd}.t{i}", f"t{i}",
                                        arrays))

    @staticmethod
    def _table_queries(rng, prefix, t, a):
        qr, qc, qv, temp, w = a["QR"], a["QC"], a["QV"], a["T"], a["W"]
        maxima = sorted((float(qr[z].max()) for z in range(qr.shape[0])),
                        reverse=True)
        # Thresholds are float32 values, so the float32 columns compare
        # the same way in the engine and in the oracle.
        # Between the two largest per-level maxima: one chunk can match.
        qr_top = f32((maxima[0] + maxima[1]) / 2.0)
        z = int(rng.integers(0, qr.shape[0]))
        t_thr = f32(np.quantile(temp[z], rng.uniform(0.5, 0.9)))
        qc_thr = f32(np.quantile(qc, rng.uniform(0.3, 0.7)))
        qr_thr = f32(np.quantile(qr, rng.uniform(0.3, 0.7)))

        def selective():
            zz, yy, xx = np.nonzero(qr > qr_top)
            return {"altitude": zz, "longitude": yy, "latitude": xx,
                    "QR": qr[qr > qr_top]}

        def level():
            yy, xx = np.nonzero(temp[z] > t_thr)
            return {"longitude": yy, "latitude": xx,
                    "T": temp[z][temp[z] > t_thr]}

        def totals(mask, summed, other, fold):
            return {"n": np.array([mask.sum()]),
                    "total": np.array([summed[mask].astype(
                        np.float64).sum()]),
                    "other": np.array([fold(other[mask])])}

        def profile():
            return {"altitude": np.arange(qr.shape[0]),
                    "qv_mean": qv.astype(np.float64).mean(axis=(1, 2)),
                    "t_max": temp.max(axis=(1, 2))}

        return [
            (f"{prefix}.selective",
             f"SELECT altitude, longitude, latitude, QR FROM {t} "
             f"WHERE QR > {qr_top!r}", selective),
            (f"{prefix}.level",
             f"SELECT longitude, latitude, T FROM {t} "
             f"WHERE altitude = {z} AND T > {t_thr!r}", level),
            (f"{prefix}.qc_totals",
             f"SELECT COUNT(*) AS n, SUM(QC) AS total, MIN(W) AS other "
             f"FROM {t} WHERE QC > {qc_thr!r}",
             lambda: totals(qc > qc_thr, qc, w, np.min)),
            (f"{prefix}.qr_totals",
             f"SELECT COUNT(*) AS n, SUM(QR) AS total, MAX(QV) AS other "
             f"FROM {t} WHERE QR > {qr_thr!r}",
             lambda: totals(qr > qr_thr, qr, qv, np.max)),
            (f"{prefix}.profile",
             f"SELECT altitude, AVG(QV) AS qv_mean, MAX(T) AS t_max "
             f"FROM {t} GROUP BY altitude ORDER BY altitude", profile),
        ]

    def setup(self, metrics: bool):
        from repro.bench.worlds import build_scidp_world
        from repro.rlang.session import SQLSession
        from repro.workloads.nuwrf import generate_nuwrf

        env, nodes, scidp = build_scidp_world(2, metrics=metrics)
        manifest = generate_nuwrf(scidp.pfs, self.config)
        session = SQLSession(env, scidp.storage, nodes[0])
        for i, path in enumerate(manifest["files"]):
            session.register_scinc(f"t{i}", f"pfs://{path.lstrip('/')}")
        return _SQLWorld(env, scidp, manifest, session)

    @staticmethod
    def env(world):
        return world.env

    @staticmethod
    def network(world):
        return world.scidp.network

    def input_files(self, world) -> dict:
        return {path: world.scidp.pfs.read_file_sync(path)
                for path in world.manifest["files"]}

    def setup_problems(self, world) -> list[str]:
        stored = sum(world.scidp.pfs.mds.lookup(path).size
                     for path in world.manifest["files"])
        if stored != world.manifest["stored_bytes"]:
            return [f"stored bytes {stored} != manifest bytes "
                    f"{world.manifest['stored_bytes']}"]
        return []

    def operations(self, world):
        env, session = world.env, world.session

        def query(sql):
            t0 = env.now
            proc = env.process(session.query(sql))
            env.run()
            return proc.value, env.now - t0, list(session.last_scan_info)

        return [(name, (lambda s=sql: query(s)))
                for name, sql, _oracle in self.queries]

    def inspect(self, world, name, raw):
        frame, sim_s, scans = raw
        digest = hashlib.sha256()
        for col in frame.names:
            values = np.ascontiguousarray(frame[col])
            digest.update(f"{col}:{values.dtype.str}:".encode())
            digest.update(values.tobytes())
        record = {
            "sim_s": sim_s,
            "rows": frame.nrow,
            "result": digest.hexdigest(),
            "scans": [[s.chunks_read, s.chunks_pruned, s.bytes_read,
                       s.bytes_skipped, s.variables_pruned] for s in scans],
        }
        oracle = dict((n, o) for n, _sql, o in self.queries)[name]()
        return record, compare_frame(frame, oracle)

    def counts(self, world, raws) -> dict:
        scans = [s for _frame, _sim_s, infos in raws.values() for s in infos]
        read = sum(s.chunks_read for s in scans)
        pruned = sum(s.chunks_pruned for s in scans)
        return {
            "formats.stored_bytes": world.manifest["stored_bytes"],
            "rlang.queries": len(raws),
            "rlang.chunks_read": read,
            "rlang.prune_ratio": pruned / (read + pruned)
            if read + pruned else 0.0,
        }

    @staticmethod
    def job_counters(raws) -> list:
        return []


@dataclass
class _SQLWorld:
    env: Any
    scidp: Any
    manifest: dict
    session: Any


def compare_frame(frame, oracle: dict) -> list[str]:
    """Columns must match the oracle: integers and selected values
    exactly, float64 oracle sums and means of float32 data to 1e-5
    relative (the queries only sum non-negative fields, so the float32
    accumulation error stays relative to the result)."""
    if list(frame.names) != list(oracle):
        return [f"columns {list(frame.names)} != {list(oracle)}"]
    problems = []
    for col, want in oracle.items():
        got = np.asarray(frame[col])
        want = np.asarray(want)
        if got.shape != want.shape:
            problems.append(f"{col}: {got.shape[0]} rows != "
                            f"{want.shape[0]}")
        elif want.dtype.kind == "f" and want.dtype.itemsize == 8:
            if not np.allclose(got, want, rtol=1e-5, atol=0.0):
                problems.append(f"{col}: values differ from the oracle")
        elif not np.array_equal(got, want):
            problems.append(f"{col}: values differ from the oracle")
    return problems


WORKLOADS = {cls.name: cls
             for cls in (Fig5Paths, ScidpAnalysis, HadoopPFS, SQLScan)}
