"""Unit tests for the write planner: planning, block fan-out,
write-behind."""

import pytest

from repro.io.plan import Extent, WritePlan
from repro.io.planner import fan_out_blocks
from repro.io.write import (
    WriteBehindFlusher,
    WritePlanner,
    chop_extents,
    coalesce_payload_runs,
)
from repro.obs.metrics import attach_metrics
from repro.sim import Environment

from tests.io.conftest import run


def ext(ost, obj_off, file_off, length):
    return Extent(ost_index=ost, object_offset=obj_off,
                  file_offset=file_off, length=length)


# ----------------------------------------------------------- pure planning
def test_coalesce_merges_only_payload_contiguous_runs():
    # object-adjacent AND payload-adjacent: merges
    merged = coalesce_payload_runs([ext(0, 0, 0, 10), ext(0, 10, 10, 5)])
    assert merged == [ext(0, 0, 0, 15)]
    # object-adjacent but the payload skips ahead (stripe interleaving):
    # must NOT merge, one push would carry discontiguous payload bytes
    kept = coalesce_payload_runs([ext(0, 0, 0, 10), ext(0, 10, 50, 10)])
    assert kept == [ext(0, 0, 0, 10), ext(0, 10, 50, 10)]
    # payload-adjacent but different devices: must not merge either
    kept = coalesce_payload_runs([ext(0, 0, 0, 10), ext(1, 0, 10, 10)])
    assert len(kept) == 2


def test_coalesce_preserves_payload_order():
    extents = [ext(1, 0, 0, 8), ext(0, 0, 8, 8), ext(1, 8, 16, 8)]
    assert coalesce_payload_runs(extents) == extents


def test_chop_extents_none_is_identity():
    extents = [ext(0, 0, 0, 100), ext(1, 0, 100, 37)]
    assert chop_extents(extents, None) == extents


def test_chop_extents_splits_to_granularity():
    pieces = chop_extents([ext(0, 5, 50, 100)], 40)
    assert pieces == [
        ext(0, 5, 50, 40), ext(0, 45, 90, 40), ext(0, 85, 130, 20)]
    assert sum(p.length for p in pieces) == 100


def test_plan_extents_default_passthrough():
    env = Environment()
    planner = WritePlanner(env, scheme="pfs")
    extents = [ext(0, 0, 0, 10), ext(0, 10, 10, 10)]
    plan = planner.plan_extents(extents)
    assert isinstance(plan, WritePlan)
    # chunk=None: no merging, no chopping — the legacy push-per-extent
    # shape, bit-identical timings depend on it
    assert list(plan.extents) == extents
    assert plan.chunk is None
    assert plan.n_requests == 2


def test_plan_extents_with_chunk_merges_then_chops():
    env = Environment()
    planner = WritePlanner(env, scheme="pfs", chunk=16)
    plan = planner.plan_extents([ext(0, 0, 0, 10), ext(0, 10, 10, 10)])
    assert list(plan.extents) == [ext(0, 0, 0, 16), ext(0, 16, 16, 4)]


def test_planner_validates_knobs():
    env = Environment()
    with pytest.raises(ValueError):
        WritePlanner(env, chunk=0)
    with pytest.raises(ValueError):
        WritePlanner(env, max_inflight=-1)


# -------------------------------------------------------------- accounting
def test_account_feeds_scheme_counters():
    env = Environment()
    registry = attach_metrics(env)
    planner = WritePlanner(env, scheme="hdfs")
    planner.account(100)
    planner.account(250, requests=3)
    planner.account(0, requests=0)  # no-op, no zero-count counters
    rows = {row["scheme"]: row for row in registry.scheme_write_rows()}
    assert rows["hdfs"]["bytes"] == 350
    assert rows["hdfs"]["requests"] == 4


def test_account_without_registry_is_noop():
    env = Environment()
    WritePlanner(env, scheme="hdfs").account(100)  # must not raise


# ------------------------------------------------------- fan-out disciplines
def make_factory(env, duration, log, label):
    def factory():
        log.append(("start", label, env.now))
        yield env.timeout(duration)
        log.append(("end", label, env.now))
        return label
    return factory


def test_fan_out_blocks_default_is_serial():
    env = Environment()
    log = []
    factories = [make_factory(env, 1.0, log, i) for i in range(3)]
    results = run(env, fan_out_blocks(env, factories, max_inflight=1))
    assert results == [0, 1, 2]
    assert env.now == pytest.approx(3.0)  # strictly one block at a time


def test_fan_out_blocks_windowed_overlaps():
    env = Environment()
    log = []
    factories = [make_factory(env, 1.0, log, i) for i in range(4)]
    results = run(env, fan_out_blocks(env, factories, max_inflight=2))
    assert results == [0, 1, 2, 3]
    assert env.now == pytest.approx(2.0)


# ------------------------------------------------------------- write-behind
class FakeStore:
    """In-memory storage client with DES-process write/exists/delete."""

    def __init__(self, env, write_time=1.0):
        self.env = env
        self.write_time = write_time
        self.files = {}
        self.log = []

    def exists(self, path):
        yield self.env.timeout(0.0)
        return path in self.files

    def delete(self, path):
        yield self.env.timeout(0.0)
        self.log.append(("delete", path))
        del self.files[path]

    def write(self, path, payload):
        yield self.env.timeout(self.write_time)
        self.log.append(("write", path, bytes(payload)))
        self.files[path] = bytes(payload)


class FailingStore(FakeStore):
    def write(self, path, payload):
        yield self.env.timeout(0.1)
        raise RuntimeError("disk on fire")


def test_flusher_overlaps_flush_with_submitter():
    env = Environment()
    store = FakeStore(env, write_time=5.0)
    flusher = WriteBehindFlusher(env)

    def task():
        flusher.submit(store, "/out/a", b"aa")
        # submit is pure Python: the task keeps the clock while the
        # flush happens in the background
        assert env.now == 0.0
        yield env.timeout(1.0)

    def job():
        yield env.process(task())
        yield from flusher.drain()

    run(env, job())
    assert store.files["/out/a"] == b"aa"
    assert env.now == pytest.approx(5.0)  # flush overlapped the task
    assert flusher.submitted == 1
    assert flusher.bytes_submitted == 2


def test_flusher_serializes_same_path_last_write_wins():
    env = Environment()
    store = FakeStore(env, write_time=1.0)
    flusher = WriteBehindFlusher(env)

    def job():
        flusher.submit(store, "/out/a", b"first")
        flusher.submit(store, "/out/a", b"second")
        yield from flusher.drain()

    run(env, job())
    # the retry's payload deterministically lands last, after an
    # idempotent replace of the first attempt's file
    assert store.files["/out/a"] == b"second"
    assert ("delete", "/out/a") in store.log
    assert store.log[-1] == ("write", "/out/a", b"second")


def test_flusher_replaces_preexisting_file():
    env = Environment()
    store = FakeStore(env)
    store.files["/out/a"] = b"stale"
    flusher = WriteBehindFlusher(env)

    def job():
        flusher.submit(store, "/out/a", b"fresh")
        yield from flusher.drain()

    run(env, job())
    assert store.files["/out/a"] == b"fresh"
    assert store.log[0] == ("delete", "/out/a")


def test_flusher_bounded_window():
    env = Environment()
    store = FakeStore(env, write_time=1.0)
    flusher = WriteBehindFlusher(env, max_inflight=2)

    def job():
        for i in range(4):
            flusher.submit(store, f"/out/{i}", b"x")
        yield from flusher.drain()

    run(env, job())
    assert env.now == pytest.approx(2.0)  # 4 flushes / window 2
    assert len(store.files) == 4


def test_flusher_drain_reraises_flush_failure():
    env = Environment()
    store = FailingStore(env)
    flusher = WriteBehindFlusher(env)

    def job():
        flusher.submit(store, "/out/a", b"x")
        yield from flusher.drain()

    with pytest.raises(RuntimeError, match="disk on fire"):
        run(env, job())


def test_flusher_submit_returns_completion_event():
    env = Environment()
    store = FakeStore(env, write_time=2.0)
    flusher = WriteBehindFlusher(env)
    seen = []

    def job():
        done = flusher.submit(store, "/out/a", b"x")
        yield done
        seen.append(env.now)
        yield from flusher.drain()

    run(env, job())
    assert seen == [pytest.approx(2.0)]
