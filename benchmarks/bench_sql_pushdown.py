"""SQL planner pushdown vs a full scan — the BENCH_sql trajectory.

Runs the Fig. 9-style selective-query comparison across two planner
configurations (pushdown off = full scan, pushdown on) over zone-mapped
NU-WRF scinc files on the simulated PFS. The configurations sweep as
campaign points (``workers=0``) and the comparison document is folded
from the workspace records. Gates: identical result frames, the full
scan's simulated seconds equal the pinned value to 1e-9, its bytes
equal the sum of every chunk's stored bytes in the scanned headers, and
pushdown scans >= 10x fewer PFS bytes. All timings are simulated, so
every number is deterministic on any runner. CI uploads
``bench_results/BENCH_sql.json`` next to the other BENCH_* artifacts.
"""

from repro.bench.sqlbench import MIN_BYTES_REDUCTION

from benchmarks._worlds import run_campaign_doc, write_bench_json

#: simulated seconds of the full scan (``planner``, pushdown off) on the
#: bench world: (8, 48, 48), 2 timesteps
FULL_SCAN_SIM_SECONDS = 0.07174930750000005


def _run_sql():
    doc, _report, _ws = run_campaign_doc("sql", workers=0)
    return doc


def test_sql_pushdown_trajectory(benchmark, record_table):
    doc = benchmark.pedantic(_run_sql, rounds=1, iterations=1)

    assert doc["identical_results"], \
        "engine configurations disagreed on the query results"
    full = doc["configs"]["planner"]
    assert abs(full["sim_seconds"] - FULL_SCAN_SIM_SECONDS) < 1e-9, \
        f"full-scan timing drifted: {full['sim_seconds']!r}s"
    # Full-scan oracle: every stored chunk of every scanned file moves.
    assert full["bytes_scanned"] == doc["full_scan_bytes"], \
        f"full scan read {full['bytes_scanned']} bytes, the headers " \
        f"hold {doc['full_scan_bytes']}"

    assert doc["bytes_reduction"] >= MIN_BYTES_REDUCTION, \
        f"pushdown below the {MIN_BYTES_REDUCTION}x bytes gate: " \
        f"{doc['bytes_reduction']:.2f}x"
    # Pruning must also translate into simulated wall-clock.
    assert doc["speedup"] > 1.0

    columns = ["engine config", "sim seconds", "MB scanned",
               "chunks read", "chunks pruned", "vars pruned"]
    rows = [
        (name, round(entry["sim_seconds"], 5),
         round(entry["bytes_scanned"] / 1e6, 4),
         entry["chunks_read"], entry["chunks_pruned"],
         entry["variables_pruned"])
        for name, entry in doc["configs"].items()
    ]
    note = (f"Fig. 9-style selective QR scan, {doc['timesteps']} NU-WRF "
            f"timesteps of shape {tuple(doc['shape'])}; bytes reduction "
            f"{doc['bytes_reduction']:.1f}x (gate >= "
            f"{MIN_BYTES_REDUCTION:.0f}x), full scan "
            f"{full['sim_seconds']:.6f}s over {doc['full_scan_bytes']} "
            f"stored chunk bytes; simulated time, deterministic")
    record_table("sql", columns, rows, note)

    write_bench_json("sql", "sql", columns, rows, note, doc)
