"""Fold a deterministic profile into per-layer self time.

A layer is one ``repro`` package (``repro.sim``, ``repro.rlang``, ...).
:class:`LayerProfiler` wraps :mod:`cProfile` around the benchmark's own
calls into the program; :func:`fold` turns the profile into self seconds
per ``repro.<pkg>.<module>``.

cProfile records self time for every function, C functions included,
and for each function the share of that time spent under each direct
caller. Time in a function outside ``repro`` (a numpy call, ``zlib``,
a stdlib helper) is charged to the ``repro`` module that called it: the
edge's self time goes to the caller's attribution, and the attribution
of a non-``repro`` function is the mix of its callers' attributions,
weighted by the cumulative time each caller spent in it. Time with no
``repro`` frame above it -- the benchmark's own code and the profiler's
enable/disable calls -- is ``unattributed``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from collections import defaultdict

#: the program's layers, one per ``repro`` package
LAYERS = ("workloads", "formats", "sim", "cluster", "pfs", "hdfs", "io",
          "core", "mapreduce", "rlang", "sparklike", "obs")

UNATTRIBUTED = "unattributed"


def module_of(filename: str, repro_root: str):
    """``"<pkg>.<module>"`` for a file under ``repro_root``, else None."""
    if not filename.startswith(repro_root):
        return None
    rel = filename[len(repro_root):].lstrip(os.sep)
    if not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "__init__"


def fold(stats: dict, repro_root: str) -> dict[str, float]:
    """Self seconds per ``<pkg>.<module>`` (plus ``unattributed``).

    ``stats`` is ``pstats.Stats(...).stats``: function key ->
    ``(cc, nc, tottime, cumtime, callers)`` with ``callers`` mapping a
    caller key to ``(nc, cc, tottime, cumtime)`` for that edge.
    """
    modules = {func: module_of(func[0], repro_root) for func in stats}
    memo: dict = {}
    in_progress: set = set()

    def attribution(func) -> dict[str, float]:
        """Share of each module in the time charged to ``func``."""
        module = modules.get(func)
        if module is not None:
            return {module: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[3] for edge in callers.values())
        if total <= 0.0 or func in in_progress:
            # no caller, or a cycle of non-repro frames (recursion)
            return {UNATTRIBUTED: 1.0}
        in_progress.add(func)
        mix: dict[str, float] = defaultdict(float)
        for caller, edge in callers.items():
            weight = edge[3] / total
            if weight > 0.0:
                for name, share in attribution(caller).items():
                    mix[name] += weight * share
        in_progress.discard(func)
        memo[func] = dict(mix)
        return memo[func]

    out: dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        module = modules[func]
        if module is not None:
            out[module] += tottime
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        if not callers or edge_total <= 0.0:
            out[UNATTRIBUTED] += tottime
            continue
        # the edges split the function's self time by direct caller
        for caller, edge in callers.items():
            seconds = tottime * edge[2] / edge_total
            for name, share in attribution(caller).items():
                out[name] += seconds * share
    return dict(out)


def layer_of(module: str) -> str:
    """The layer a ``<pkg>.<module>`` name belongs to; modules of
    ``repro`` outside the twelve layers count as unattributed."""
    pkg = module.split(".", 1)[0]
    return pkg if pkg in LAYERS else UNATTRIBUTED


class LayerProfiler:
    """One cProfile session across several calls.

    ``seconds`` is the wall time spent inside profiled calls, profiler
    overhead included: the total the folded self times must add up to.
    """

    def __init__(self, repro_root: str):
        self.repro_root = repro_root
        self.profile = cProfile.Profile()
        self.seconds = 0.0

    def call(self, fn, *args):
        start = time.perf_counter()
        self.profile.enable()
        try:
            return fn(*args)
        finally:
            self.profile.disable()
            self.seconds += time.perf_counter() - start

    def fold(self) -> dict[str, float]:
        """Self seconds per ``<pkg>.<module>`` over every call so far."""
        return fold(pstats.Stats(self.profile).stats, self.repro_root)
