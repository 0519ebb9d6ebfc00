"""Pinned timings, outputs and counters of default-knob shuffle jobs.

A wordcount job runs on a four-node HDFS cluster with every shuffle
knob at its default (barrier copy phase, unbounded fetch fan-out,
single-attempt fetches, one unbounded merge pass) in three shapes:
plain, with a map-side combiner, and with a single reducer. Each job's
end-to-end and per-reduce-task timings (to 1e-9), a sha256 of its
reduce outputs, its output paths and its shuffle byte and group
counters are compared with the literal table below.

The table is a capture of the current shuffle, so a change to any
entry is a change of simulated behaviour (partition assignment, merge
order, fetch event order), never a refactor. The outputs of the same
jobs are checked against independent oracles in
``test_legacy_equivalence.py``, which shares the job driver here.
"""

import hashlib

import pytest

from repro.cluster import Cluster
from repro.hdfs import HDFS
from repro.mapreduce import JobConf, JobRunner, TextInputFormat
from repro.sim import Environment

from tests.mapreduce.conftest import run, small_spec

TEXT = (b"the quick brown fox\njumps over the lazy dog\n"
        b"the dog barks\nfox and dog\n") * 25


def wc_map(ctx, _offset, line):
    for word in line.split():
        ctx.emit(word, 1)
    ctx.charge(1e-6 * len(line))


def wc_reduce(ctx, key, values):
    ctx.emit(key, sum(values))
    ctx.charge(1e-7 * len(values))


#: the job shapes: extra JobConf settings per pinned job
CONFS = {
    "plain": {},
    "combiner": {"combiner": wc_reduce},
    "one-reducer": {"n_reducers": 1},
}


def run_wordcount(reducer=wc_reduce, **conf):
    """Run wordcount over :data:`TEXT` on a fresh world; returns the
    :class:`~repro.mapreduce.JobResult`."""
    env = Environment()
    cluster = Cluster(env)
    nodes = [cluster.add_node(f"n{i}", small_spec(), role="compute")
             for i in range(4)]
    hdfs = HDFS(env, cluster.network, block_size=200, replication=1)
    for node in nodes:
        hdfs.add_datanode(node)
    hdfs.store_file_sync("/in/text.txt", TEXT)
    settings = dict(
        name="wordcount", mapper=wc_map, reducer=reducer,
        input_format=TextInputFormat(), n_reducers=3,
        input_paths=["/in"], map_slots_per_node=2,
        task_startup=0.01, output_path="/out")
    settings.update(conf)
    runner = JobRunner(env, nodes, hdfs, cluster.network,
                       JobConf(**settings))
    return run(env, runner.run())


def observe(result):
    """The pinned view of one job result."""
    reduces = sorted(result.stats_for("reduce"), key=lambda s: s.task_id)
    return {
        "duration": result.duration,
        "end": result.end,
        "reduces": [(s.task_id, s.start, s.end) for s in reduces],
        "outputs": hashlib.sha256(
            repr(sorted(result.outputs.items())).encode()
        ).hexdigest()[:16],
        "output_paths": list(result.output_paths),
        "shuffle_bytes": result.counters.value("shuffle", "bytes"),
        "reduce_groups": result.counters.value("reduce", "groups"),
    }


#: job shape -> pinned observation
PINS = {
    'combiner':
        {'duration': 0.04130437500000002,
         'end': 0.04130437500000002,
         'reduces': [('wordcount-r-0010',
                      0.028704875000000005,
                      0.04130437500000002),
                     ('wordcount-r-0011',
                      0.028704875000000005,
                      0.041291275000000016),
                     ('wordcount-r-0012',
                      0.028704875000000005,
                      0.041237375000000014)],
         'outputs': '95e99c7eb9d308a3',
         'output_paths': ['/out/part-r-00000',
                          '/out/part-r-00001',
                          '/out/part-r-00002'],
         'shuffle_bytes': 1080,
         'reduce_groups': 10},
    'one-reducer':
        {'duration': 0.04232920000000002,
         'end': 0.04232920000000002,
         'reduces': [('wordcount-r-0010',
                      0.029427300000000007,
                      0.04232920000000002)],
         'outputs': 'e0ebca2c9de59e26',
         'output_paths': ['/out/part-r-00000'],
         'shuffle_bytes': 4375,
         'reduce_groups': 10},
    'plain':
        {'duration': 0.042124700000000015,
         'end': 0.042124700000000015,
         'reduces': [('wordcount-r-0010',
                      0.029427300000000007,
                      0.042124700000000015),
                     ('wordcount-r-0011',
                      0.029427300000000007,
                      0.042080300000000015),
                     ('wordcount-r-0012',
                      0.029427300000000007,
                      0.042019200000000013)],
         'outputs': '95e99c7eb9d308a3',
         'output_paths': ['/out/part-r-00000',
                          '/out/part-r-00001',
                          '/out/part-r-00002'],
         'shuffle_bytes': 4375,
         'reduce_groups': 10},
}


@pytest.mark.parametrize("shape", sorted(PINS))
def test_default_knob_job_pinned(shape):
    got = observe(run_wordcount(**CONFS[shape]))
    want = PINS[shape]
    for key in ("outputs", "output_paths", "shuffle_bytes",
                "reduce_groups"):
        assert got[key] == want[key], key
    assert got["duration"] == pytest.approx(want["duration"], abs=1e-9)
    assert got["end"] == pytest.approx(want["end"], abs=1e-9)
    assert [t for t, _s, _e in got["reduces"]] \
        == [t for t, _s, _e in want["reduces"]]
    for (_t, start, end), (_u, want_start, want_end) in zip(
            got["reduces"], want["reduces"]):
        assert start == pytest.approx(want_start, abs=1e-9)
        assert end == pytest.approx(want_end, abs=1e-9)
