"""The benchmark's own tests. Run from the repository root::

    python3 -m pytest perfbench -q

The end-to-end cases run the benchmark command at its minimum length
(``--seconds 0``: a warm-up and three repetitions per workload), so the
module takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

from compare import verdict  # noqa: E402
from layers import UNATTRIBUTED, fold  # noqa: E402

ROOT = "/src/repro/"


def run_bench(tmp_path, *args, cwd=REPO):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--seconds", "0", "--out", str(tmp_path / "results"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def last_json(lines):
    return json.loads(lines[-1])


# -- layers.fold ------------------------------------------------------------

def test_fold_charges_c_calls_to_the_calling_repro_module():
    engine = ("/src/repro/sim/engine.py", 10, "step")
    text = ("/src/repro/formats/text.py", 5, "parse")
    helper = ("/lib/numpy/helper.py", 1, "wrap")
    compress = ("~", 0, "<built-in method zlib.compress>")
    bench = ("/perfbench/run.py", 1, "rep")
    stats = {
        bench: (1, 1, 0.5, 6.5, {}),
        engine: (1, 1, 1.0, 3.0, {bench: (1, 1, 1.0, 3.0)}),
        text: (1, 1, 2.0, 3.0, {bench: (1, 1, 2.0, 3.0)}),
        # numpy helper called from both repro modules, 1:3 by cumtime
        helper: (2, 2, 0.4, 2.0, {engine: (1, 1, 0.1, 0.5),
                                  text: (1, 1, 0.3, 1.5)}),
        # the C call's self time splits by direct caller
        compress: (2, 2, 1.6, 1.6, {helper: (1, 1, 1.2, 1.2),
                                    text: (1, 1, 0.4, 0.4)}),
    }
    out = fold(stats, ROOT)
    assert out["sim.engine"] == pytest.approx(1.0 + 0.1 + 1.2 * 0.25)
    assert out["formats.text"] == pytest.approx(
        2.0 + 0.3 + 0.4 + 1.2 * 0.75)
    assert out[UNATTRIBUTED] == pytest.approx(0.5)
    total = sum(s[2] for s in stats.values())
    assert sum(out.values()) == pytest.approx(total)


def test_fold_breaks_cycles_of_non_repro_frames():
    a = ("/lib/a.py", 1, "a")
    b = ("/lib/b.py", 1, "b")
    c = ("~", 0, "<built-in method len>")
    stats = {
        a: (1, 1, 0.1, 1.0, {b: (1, 1, 0.1, 1.0)}),
        b: (1, 1, 0.1, 1.0, {a: (1, 1, 0.1, 1.0)}),
        c: (1, 1, 0.2, 0.2, {a: (1, 1, 0.2, 0.2)}),
    }
    out = fold(stats, ROOT)
    assert out == {UNATTRIBUTED: pytest.approx(0.4)}


# -- compare.verdict ---------------------------------------------------------

def test_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert verdict(base, [1.01, 1.00, 0.99, 1.02, 1.00], 0.1, True) \
        == "unchanged"
    assert verdict(base, [1.20, 1.21, 1.19, 1.22, 1.18], 0.1, True) \
        == "worse"
    assert verdict(base, [0.80, 0.81, 0.79, 0.82, 0.78], 0.1, True) \
        == "better"
    # higher-is-better metrics read the other way round
    assert verdict(base, [0.80, 0.81, 0.79, 0.82, 0.78], 0.1, False) \
        == "worse"
    noisy = [0.6, 1.4, 0.7, 1.3, 1.0]
    assert verdict(base, noisy, 0.1, True) == "unresolved"
    # a spread wider than the bound still resolves when every run wins
    assert verdict([2.0, 3.0, 2.5], [1.0, 1.5, 1.2], 0.1, True) == "better"


# -- the command --------------------------------------------------------------

def test_corrupted_golden_exits_nonzero(tmp_path):
    golden = json.loads((BENCH / "golden.json").read_text())
    ops = golden["workloads"]["sql-scan"]["ops"]
    first = sorted(ops)[0]
    ops[first]["digest"] = "0" * 64
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    code, lines, stderr = run_bench(tmp_path, "--workload", "sql-scan",
                                    "--golden", str(bad))
    assert code == 1
    result = last_json(lines)
    assert result["correct"] is False
    # one failure per repetition: the warm-up and three measured
    assert result["failed"] == 4
    assert "golden.json" in stderr


def test_workload_order_changes_no_digest(tmp_path):
    """All four workloads in one process, in reverse order, still match
    the golden digests recorded in forward order."""
    names = json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]
    order = ",".join(w["name"] for w in reversed(names))
    code, lines, stderr = run_bench(tmp_path, "--workload", order)
    assert code == 0, stderr
    assert last_json(lines)["failed"] == 0


def test_other_seed_passes_its_checks_traced(tmp_path):
    code, lines, stderr = run_bench(tmp_path, "--workload", "sql-scan",
                                    "--seed", "7", "--trace", "1")
    assert code == 0, stderr
    result = last_json(lines)
    assert result["failed"] == 0
    assert result["metrics"]["rlang.queries"]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", bare)
    code, lines, _stderr = run_bench(tmp_path, "--workload", "sql-scan",
                                     cwd=bare)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
