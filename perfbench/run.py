"""The repository benchmark: a host-time ledger over four SciDP workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig5-paths --seed 1 --seconds 25 \\
        --trace 0

``--workload`` takes one name, a comma-separated list run in that order
in one process, or ``all``. Each workload is a closed loop with one
client, run from this single process with no extra threads:

1. a warm-up repetition, checked but not timed into the metrics;
2. repetitions until ``--seconds`` is used up (at least three). Each
   builds a fresh world (``setup_s``), hashes every stored input file,
   then runs the workload's operations (``run_s``); every operation's
   host latency is one ``query_p50_ms`` / ``query_p90_ms`` sample.

Host times are corrected for the host's speed: a fixed probe
(:func:`reference_kernel`) runs before and after every repetition, and
the repetition's times are scaled to the speed at which the probe takes
``REF_SECONDS``. The raw times and the scale stay in the result file.

Every operation's output is checked: its simulated outputs (simulated
seconds, phase means, counters, frames, query results) must give the
same digest in every repetition, and for the golden seed the digests
in ``golden.json``; workload checks (frames = files x levels, stored
bytes = manifest bytes, a brute-force numpy oracle for every SQL query,
terasort order, grep counts, DFSIO bytes) apply on every seed. A
failed check or a raised exception counts against ``fail_frac`` and
makes the command exit 1.

``--trace 1`` alternates plain and profiled repetitions. Profiled
repetitions attach a metrics registry and fold cProfile self time by
``repro.<pkg>.<module>`` (see ``layers.py``); the run then reports the
per-layer metrics of ``BENCHMARK.json`` and checks itself: the folded
self times add up to the profiled wall time within the ``run_s`` bound,
and profiled repetitions give the same digests as plain ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Every run also writes its
samples, spans, digests and provenance to ``perfbench/results/``;
``compare.py`` reads those files.
"""

from __future__ import annotations

import os

# One process, no extra threads: pin the numerical libraries' thread
# pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
GOLDEN = BENCH_DIR / "golden.json"
#: repetitions measured even when ``--seconds`` runs out first
MIN_REPS = 3
#: what :func:`reference_kernel` takes at the reference host speed
#: (about its median on the 2-vCPU Intel Xeon host the bounds were set
#: on)
REF_SECONDS = 0.1


def _import_program():
    """Put the repository's ``src`` on the path and import the program."""
    src = REPO / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}; run "
                         f"from a checkout of the repository")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))


def load_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------
# provenance
# --------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD's commit from ``.git`` files (no git process; a checkout
    without ``.git`` reports ``unknown``)."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int, trace: bool) -> dict:
    from repro.campaign import code_fingerprint

    return {
        "git_sha": git_sha(),
        "code_fingerprint": code_fingerprint(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "trace": trace,
    }


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def digest(record) -> str:
    """sha256 of a record's canonical JSON (floats at full precision)."""
    def plain(obj):
        if hasattr(obj, "item"):
            return obj.item()
        raise TypeError(f"unserializable {type(obj).__name__}")

    text = json.dumps(record, sort_keys=True, default=plain)
    return hashlib.sha256(text.encode()).hexdigest()


def files_digest(files: dict) -> str:
    outer = hashlib.sha256()
    for path in sorted(files):
        outer.update(path.encode() + b"\0")
        outer.update(hashlib.sha256(files[path]).digest())
    return outer.hexdigest()


def reference_kernel() -> float:
    """Seconds a fixed piece of work takes now: the host-speed probe.

    The host's speed drifts by up to a third over minutes (other
    tenants), which would swamp the bounds. The probe mixes what the
    program spends its time on -- generator coroutines driven through a
    heap, dict updates, numpy and zlib -- and runs before and after
    every repetition; the repetition's times are scaled by
    ``REF_SECONDS`` over the probe's mean.
    """
    start = time.perf_counter()
    heap, counts = [], {}

    def proc(i):
        t = 0.0
        for k in range(20):
            t = yield t + (i * 7 + k) % 13

    procs = [proc(i) for i in range(600)]
    for i, p in enumerate(procs):
        heapq.heappush(heap, (next(p), i))
    while heap:
        t, i = heapq.heappop(heap)
        counts[i] = counts.get(i, 0) + 1
        try:
            heapq.heappush(heap, (procs[i].send(t), i))
        except StopIteration:
            pass
    data = numpy.random.default_rng(0).random(300_000).astype(numpy.float32)
    zlib.decompress(zlib.compress(data.tobytes(), 4))
    numpy.sort(data)
    return time.perf_counter() - start


def quantile(values: list, q: float) -> float:
    """Nearest-rank quantile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class _Plain:
    """Stand-in for :class:`layers.LayerProfiler` on plain repetitions."""

    @staticmethod
    def call(fn, *args):
        return fn(*args)


class WorkloadRun:
    """All repetitions of one workload in this process."""

    def __init__(self, name: str, seed: int, trace: bool, golden,
                 repro_root: str):
        from workloads import WORKLOADS

        self.name = name
        self.repro_root = repro_root
        self.trace = trace
        self.golden = golden
        self.workload = WORKLOADS[name](seed)
        self.warmup: dict = {}
        self.reference = None   # the warm-up's digests
        self.self_check: dict = {}
        self.metrics: dict = {}
        self.warmup_sim_s: dict = {}
        self.reps: list[dict] = []
        self.spans: list[dict] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.t0 = time.perf_counter()

    # -- one repetition ----------------------------------------------------
    def fail(self, where: str, message: str) -> None:
        self.failed += 1
        self.problems.append(f"{self.name} {where}: {message}")
        print(f"FAIL {self.name} {where}: {message}", file=sys.stderr)

    def span(self, name: str, rep: int, start: float, end: float,
             parent=None) -> int:
        self.spans.append({"id": len(self.spans), "name": name, "rep": rep,
                           "parent": parent, "start": start - self.t0,
                           "end": end - self.t0})
        return len(self.spans) - 1

    def digest_problems(self, key: str, value: str) -> list[str]:
        """Same digest as the warm-up and, on the golden seed, as the
        committed golden."""
        problems = []
        if self.reference is not None and self.reference.get(key) != value:
            problems.append("digest differs from the warm-up repetition")
        if self.golden is not None:
            want = self.golden["files"] if key == "files" \
                else self.golden["ops"].get(key, {}).get("digest")
            if want != value:
                problems.append("digest differs from golden.json")
        return problems

    def rep(self, index: int, profiled: bool) -> dict:
        from layers import LayerProfiler

        from repro import costs

        wl = self.workload
        prof = LayerProfiler(self.repro_root) if profiled else _Plain()
        gc.collect()
        probe = reference_kernel()
        rep_start = time.perf_counter()
        self.attempted += 1
        try:
            world = prof.call(wl.setup, profiled)
        except Exception:
            self.fail(f"rep {index} setup", traceback.format_exc())
            costs.reset_scale()
            raise
        setup_end = time.perf_counter()
        rep_span = self.span("rep", index, rep_start, rep_start)
        self.span("setup", index, rep_start, setup_end, rep_span)

        digests = {"files": files_digest(wl.input_files(world))}
        problems = self.digest_problems("files", digests["files"]) \
            + wl.setup_problems(world)
        if problems:
            self.fail(f"rep {index} setup", "; ".join(problems))

        env, network = wl.env(world), wl.network(world)
        seq0, net0 = env._seq, network.bytes_moved
        latencies, raws, sim_s = [], {}, []
        for name, fn in wl.operations(world):
            self.attempted += 1
            start = time.perf_counter()
            try:
                raw = prof.call(fn)
                end = time.perf_counter()
                record, problems = wl.inspect(world, name, raw)
            except Exception:
                self.fail(f"rep {index} {name}", traceback.format_exc())
                continue
            latencies.append(end - start)
            self.span(name, index, start, end, rep_span)
            raws[name] = raw
            sim_s.append(record["sim_s"])
            digests[name] = digest(record)
            problems = self.digest_problems(name, digests[name]) + problems
            if problems:
                self.fail(f"rep {index} {name}", "; ".join(problems))
            if index == 0:
                self.warmup_sim_s[name] = record["sim_s"]
        events = env._seq - seq0
        probe = (probe + reference_kernel()) / 2.0
        rep = {
            "index": index,
            "profiled": profiled,
            "setup_s": setup_end - rep_start,
            "run_s": sum(latencies),
            "latencies": latencies,
            "events": events,
            "sim_s": sum(sim_s) / len(sim_s) if sim_s else 0.0,
            "digests": digests,
            # host-speed correction for this repetition's times
            "scale": REF_SECONDS / probe,
        }
        rep["wall_s"] = rep["setup_s"] + rep["run_s"]
        self.spans[rep_span]["end"] = time.perf_counter() - self.t0
        if profiled:
            rep["profiled_s"] = prof.seconds
            rep["modules"] = prof.fold()
            rep["counts"] = self.counts(world, raws, events, net0)
        costs.reset_scale()
        return rep

    def counts(self, world, raws, events, net0) -> dict:
        from workloads import mapreduce_counts, registry_counts

        from repro.obs.metrics import metrics_of

        wl = self.workload
        registry = metrics_of(wl.env(world))
        out = {"sim.events": events,
               "cluster.net_bytes": wl.network(world).bytes_moved - net0}
        out.update(registry_counts(registry))
        out.update(mapreduce_counts(registry, wl.job_counters(raws)))
        out.update(wl.counts(world, raws))
        return out

    # -- the loop ----------------------------------------------------------
    def run(self, seconds: float) -> None:
        warm = self.rep(0, profiled=False)
        self.reference = warm["digests"]
        self.warmup = warm
        start = time.perf_counter()
        while True:
            index = len(self.reps) + 1
            # traced runs alternate plain and profiled repetitions
            profiled = self.trace and index % 2 == 0
            self.reps.append(self.rep(index, profiled))
            elapsed = time.perf_counter() - start
            per_rep = elapsed / len(self.reps)
            if len(self.reps) >= MIN_REPS and elapsed + per_rep > seconds:
                break

    # -- results -----------------------------------------------------------
    def plain_reps(self) -> list[dict]:
        return [r for r in self.reps if not r["profiled"]]

    def end_to_end(self) -> dict:
        """Every end-to-end metric: (value, unit, samples). Times are
        host seconds scaled to the reference host speed, repetition by
        repetition (see :func:`reference_kernel`)."""
        reps = self.plain_reps()
        latencies = [x * r["scale"] for r in reps for x in r["latencies"]]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        def median(key):
            return (statistics.median(r[key] * r["scale"] for r in reps),
                    "s", len(reps))

        return {
            "setup_s": median("setup_s"),
            "run_s": median("run_s"),
            "wall_s": median("wall_s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
            "query_p50_ms": (1e3 * quantile(latencies, 0.50), "ms",
                             len(latencies)),
            "query_p90_ms": (1e3 * quantile(latencies, 0.90), "ms",
                             len(latencies)),
            # not in the result line: the correction applied above
            "host_speed": (statistics.median(r["scale"] for r in reps),
                           "x", len(reps)),
        }

    def per_layer(self, spec: dict, bound: float) -> dict:
        """Every per-layer metric (value, unit, samples), from the
        profiled repetitions; self-checks fail the run."""
        from layers import LAYERS, UNATTRIBUTED, layer_of

        profiled = [r for r in self.reps if r["profiled"]]
        plain = self.plain_reps()
        rows = []
        for rep in profiled:
            row = dict(rep["counts"])
            layers = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0.0)
            for module, seconds in rep["modules"].items():
                row[f"{module}.self_s"] = seconds
                layers[layer_of(module)] += seconds
            for layer, seconds in layers.items():
                row[f"{layer}.self_s"] = seconds
            total = sum(rep["modules"].values())
            gap = abs(total - rep["profiled_s"]) / rep["profiled_s"]
            if gap > bound:
                self.fail(f"rep {rep['index']} ledger",
                          f"self times sum to {total:.4f} s, profiled "
                          f"wall {rep['profiled_s']:.4f} s "
                          f"({gap:.1%} > {bound:.0%})")
            rows.append(row)
        self.self_check = {
            "ledger_gaps": [
                abs(sum(r["modules"].values()) - r["profiled_s"])
                / r["profiled_s"] for r in profiled],
            "digests_equal_traced_untraced": all(
                r["digests"] == self.reference for r in self.reps),
        }
        out = {}
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name == "trace_overhead":
                value = (statistics.median(r["wall_s"] for r in profiled)
                         / statistics.median(r["wall_s"] for r in plain))
                samples = len(profiled)
            elif name == "sim.events_per_s":
                value = statistics.median(r["events"] / r["run_s"]
                                          for r in plain)
                samples = len(plain)
            elif name == "sim.sim_s":
                value, samples = self.warmup["sim_s"], 1
            elif name == "fail_frac":
                value, samples = self.failed / self.attempted, \
                    self.attempted
            else:
                value = statistics.median(row.get(name, 0.0)
                                          for row in rows)
                samples = len(rows)
            out[name] = (value, metric["unit"], samples)
        return out

    def document(self) -> dict:
        return {
            "workload": self.name,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "warmup": self.warmup,
            "reps": self.reps,
            "spans": self.spans,
        }


def run_workloads(spec, names, seed, seconds, trace, golden_doc,
                  repro_root) -> tuple:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, metrics = [], {}
    for name in names:
        golden = None
        if golden_doc is not None and golden_doc["seed"] == seed:
            golden = golden_doc["workloads"].get(name)
        run = WorkloadRun(name, seed, trace, golden, repro_root)
        run.run(seconds)
        if trace:
            found = run.per_layer(spec, bounds["run_s"])
        else:
            found = run.end_to_end()
        found["fail_frac"] = (run.failed / run.attempted, "ratio",
                              run.attempted)
        run.metrics = found
        metrics[name] = found
        runs.append(run)
    return runs, metrics


def write_golden(path: Path, seed: int, runs) -> None:
    doc = {"seed": seed, "workloads": {}}
    for run in runs:
        ref = run.reference
        doc["workloads"][run.name] = {
            "files": ref["files"],
            "ops": {name: {"sim_s": run.warmup_sim_s[name], "digest": value}
                    for name, value in ref.items() if name != "files"},
        }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="SciDP host-time benchmark (see module docstring)")
    parser.add_argument("--workload", required=True,
                        help="a workload name, a comma-separated list, "
                             "or 'all'")
    parser.add_argument("--seed", type=int, default=20180710)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", type=Path, default=GOLDEN,
                        help="golden digests checked on their seed")
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's digests as the golden")
    parser.add_argument("--out", type=Path, default=RESULTS_DIR,
                        help="directory for the run's result document")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _import_program()
    import repro

    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" \
        else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; have "
                     f"{sorted(WORKLOADS)}")
    golden_doc = None
    if not args.write_golden:
        golden_doc = json.loads(args.golden.read_text())

    spec = load_spec()
    prov = provenance(args.seed, bool(args.trace))
    try:
        runs, metrics = run_workloads(spec, names, args.seed, args.seconds,
                                      bool(args.trace), golden_doc,
                                      os.path.dirname(repro.__file__)
                                      + os.sep)
    except Exception:
        traceback.print_exc()
        return 1
    if args.write_golden:
        write_golden(args.golden, args.seed, runs)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    doc = {"provenance": prov, "workloads": [r.document() for r in runs],
           "metrics": metrics,
           "self_check": {r.name: r.self_check for r in runs}}
    args.out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = args.out / (f"{'+'.join(names)}-seed{args.seed}-"
                      f"trace{args.trace}-{stamp}-{os.getpid()}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n")

    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]
    printed = {}
    for run in runs:
        for name, (value, unit, samples) in run.metrics.items():
            print(f"{run.name:15s} {name:34s} {value:14.6g} {unit:6s} "
                  f"n={samples}")
        for name in wanted:
            value, unit, _samples = run.metrics[name]
            key = name if len(runs) == 1 else f"{run.name}:{name}"
            printed[key] = {"value": value, "unit": unit}
    print(f"results: {out}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": printed}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
