"""Shared pieces of the benchmark: statistics, outcome tally, provenance.

Nothing here imports ``repro``; the workloads do, after ``run.py`` has
put the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: checkout root (the directory that holds ``perfbench/`` and ``src/``)
ROOT = Path(__file__).resolve().parent.parent
#: spans, model artifacts and server logs of the last runs (git-ignored)
OUT_DIR = ROOT / "perfbench" / "out"

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3


def now() -> float:
    return time.perf_counter()


#: ``prctl`` option that makes orphaned descendants this process's children
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process: the workers
    of a stopped server and the resource tracker of a finished spawn then
    become children that :func:`reap_children` can wait for."""
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def children() -> list[int]:
    """Pids of this process's children, running or ended."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # ended while we looked
        # the field after the parenthesised command name is the state,
        # then the parent pid; the name itself may hold spaces
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def reap_children(grace: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The multiprocessing resource tracker (started by the spawn-based
    process backends) is closed first, so it unlinks what it tracks;
    whatever is still running after ``grace`` seconds is killed."""
    from multiprocessing import resource_tracker

    with contextlib.suppress(Exception):
        resource_tracker._resource_tracker._stop()
    deadline = now() + grace
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return  # no child left, running or ended
        if now() > deadline:
            for pid in children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        time.sleep(0.02)


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_report(values, q: float) -> dict:
    """Median and the ``q``-th percentile of a timing sample, with the
    sample count and how many samples lie beyond the percentile."""
    arr = np.asarray(values, dtype=np.float64)
    return {
        "n": int(arr.size),
        "p50": percentile(arr, 50),
        f"p{q:g}": percentile(arr, q),
        "beyond_tail": int(np.count_nonzero(arr > percentile(arr, q))),
    }


class Tally:
    """Operations attempted and failed, for the result line.

    An operation fails when it answers with an error status or its
    output disagrees with the oracle; one that raises stops the run.  ``inject_wrong`` corrupts
    the first answer handed to :meth:`labels_ok` (the self-test's proof
    that a wrong label is counted).
    """

    def __init__(self, inject_wrong: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._inject = inject_wrong

    def op(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, why: str, n: int = 1) -> None:
        self.failed += n
        if len(self.notes) < 20:
            self.notes.append(why)

    def labels_ok(self, got: dict, want, rows: np.ndarray) -> bool:
        """Compare predicted answers (``got``: field → array over the
        checked rows) with the ``brute_predict`` oracle's on ``rows``."""
        labels = np.asarray(got["labels"], dtype=np.int64).copy()
        if self._inject and labels.size:
            labels[0] = labels[0] + 1
            self._inject = False
        checks = (
            ("labels", labels, want.labels[rows]),
            ("would_be_core", got["would_be_core"], want.would_be_core[rows]),
            ("nearest_core", got["nearest_core"], want.nearest_core[rows]),
            ("n_neighbors", got["n_neighbors"], want.n_neighbors[rows]),
        )
        for name, a, b in checks:
            if not np.array_equal(np.asarray(a), np.asarray(b)):
                return False
        return True

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def provenance(workload: str, seed: int, trace: bool) -> dict:
    """Where a result came from: code identity, host and library versions."""
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # checkouts without .git
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "host": platform.node(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def emit(meta: dict, details: dict, tally: Tally, metrics: dict) -> None:
    """Print the human-readable lines and, last, the result object."""
    print("# meta " + json.dumps(meta, sort_keys=True))
    print("# details " + json.dumps(details, sort_keys=True, default=float))
    if tally.notes:
        print("# failures " + json.dumps(tally.notes))
    print(
        f"# failed_frac {tally.failed_frac:.6f} "
        f"({tally.failed} of {tally.attempted} operations)"
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))


# -- the metrics BENCHMARK.json declares, with their units ---------------

#: measured with tracing off; every workload reports each of them
END_TO_END = {
    "setup_s": "s",
    "build_p50_ms": "ms",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
}

#: measured by the traced run; a layer the workload does not exercise
#: reports 0
PER_LAYER = {
    "microcluster.build_s": "s",
    "microcluster.reach_s": "s",
    "microcluster.n_mcs": "count",
    "core.clustering_s": "s",
    "core.queries_run": "count",
    "core.query_save_frac": "ratio",
    "core.dist_calcs": "count",
    "core.postprocess_s": "s",
    "unionfind.unions": "count",
    "distributed.fit_d_s": "s",
    "distributed.partition_s": "s",
    "distributed.local_max_s": "s",
    "distributed.merge_s": "s",
    "distributed.rank_skew": "ratio",
    "distributed.bytes_sent": "bytes",
    "distributed.messages": "count",
    "serving.predict_qps": "1/s",
    "serving.predict_ms_per_kq": "ms",
    "serving.nodes_per_query": "count",
    "serving.dist_calcs_per_query": "count",
    "serving.kernel_ms": "ms",
    "fleet.overhead_ms": "ms",
    "frontdoor.overhead_ms": "ms",
    "fleet.shard_skew": "ratio",
    "frontdoor.rejected": "count",
    "frontdoor.goodput": "ratio",
    "serving.cache_hit_ratio": "ratio",
    "bench.gen_lag_p99_ms": "ms",
    "streaming.updates_per_s": "1/s",
    "streaming.visible_tail_ms": "ms",
    "streaming.insert_ms": "ms",
    "streaming.delete_ms": "ms",
    "streaming.compact_ms": "ms",
    "streaming.probes_per_batch": "count",
    "streaming.repaired_rows_per_batch": "count",
    "serving.refresh_ms": "ms",
    "serving.index_rebuild_ms": "ms",
    "yardstick.ckdtree_predict_qps": "1/s",
    "yardstick.ckdtree_count_s": "s",
    "selftime.api_s": "s",
    "selftime.microcluster_s": "s",
    "selftime.core_s": "s",
    "selftime.index_s": "s",
    "selftime.serving_s": "s",
    "selftime.streaming_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.trace_overhead_frac": "ratio",
    "bench.failed_frac": "ratio",
}


def with_units(values: dict, declared: dict, *, default_zero: bool) -> dict:
    """``name -> (value, unit)`` for every declared metric.  An
    undeclared name is a programming error; a missing one is too, unless
    ``default_zero`` (a layer the workload does not exercise)."""
    unknown = set(values) - set(declared)
    missing = set(declared) - set(values)
    if unknown or (missing and not default_zero):
        raise KeyError(f"undeclared {sorted(unknown)} / missing {sorted(missing)}")
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in declared.items()}


def ckdtree_yardstick(points, core_mask, queries, eps: float) -> dict:
    """The compiled reference on the same host, points and queries:
    nearest core plus ε-count per query, and ε-counts of every point."""
    from scipy.spatial import cKDTree

    t0 = now()
    cores = cKDTree(points[core_mask]) if core_mask.any() else None
    if cores is not None:
        cores.query(queries, k=1, distance_upper_bound=eps)
    cKDTree(points).query_ball_point(queries, r=eps, return_length=True)
    predict_s = now() - t0
    t0 = now()
    cKDTree(points).query_ball_point(points, r=eps, return_length=True)
    return {
        "yardstick.ckdtree_predict_qps": queries.shape[0] / predict_s,
        "yardstick.ckdtree_count_s": now() - t0,
    }


def self_time_metrics(spans) -> dict:
    from spans import SELF_TIME_LAYERS

    own = spans.self_times()
    return {f"selftime.{layer}_s": own.get(layer, 0.0) for layer in SELF_TIME_LAYERS}
