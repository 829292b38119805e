"""Classical union-find DBSCAN over a brute-force index (Algorithm 1).

This is the reproduction's ground truth: ``O(n^2)`` distance work,
streamed in row blocks so the full matrix never materialises.  Two
passes:

1. every point's ε-neighborhood is computed; the neighbor count decides
   core status and the *lists of core points* are retained (only core
   points ever initiate merges, so non-core lists can be dropped —
   keeps the memory at ``O(sum of core degrees)``);
2. points are visited in index order and merged exactly as Algorithm 1
   does — core neighbors always, non-core neighbors only while still
   unassigned (first-come border semantics).

Noise = not core and never assigned.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import DBSCANParams
from repro.core.result import ClusteringResult
from repro.geometry.distance import chunked_pairwise_apply
from repro.geometry.metrics import EUCLIDEAN, Metric, get_metric
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer
from repro.unionfind.unionfind import UnionFind

__all__ = ["brute_dbscan"]


def brute_dbscan(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    chunk_rows: int = 1024,
    metric: str | Metric = EUCLIDEAN,
) -> ClusteringResult:
    """Exact classical DBSCAN; the oracle every algorithm is tested against."""
    params = DBSCANParams(eps=eps, min_pts=min_pts)
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {pts.shape}")
    n = pts.shape[0]
    counters = Counters()
    timers = PhaseTimer()

    core = np.zeros(n, dtype=bool)
    core_neighbor_lists: dict[int, np.ndarray] = {}
    metric_obj = get_metric(metric)
    eps_raw = metric_obj.threshold(params.eps)

    with timers.phase("neighborhood_queries"):

        def collect(offset: int, block: np.ndarray) -> None:
            counters.dist_calcs += block.size
            mask = block < eps_raw
            counts = mask.sum(axis=1)
            for r in range(block.shape[0]):
                row = offset + r
                counters.queries_run += 1
                if counts[r] >= min_pts:
                    core[row] = True
                    core_neighbor_lists[row] = np.flatnonzero(mask[r])

        if metric_obj is EUCLIDEAN:
            chunked_pairwise_apply(pts, pts, collect, chunk_rows=chunk_rows)
        else:
            for start in range(0, n, chunk_rows):
                block = metric_obj.raw_pairwise(pts[start : start + chunk_rows], pts)
                collect(start, block)

    uf = UnionFind(n, counters=counters)
    assigned = np.zeros(n, dtype=bool)
    with timers.phase("cluster_formation"):
        for row in range(n):
            if not core[row]:
                continue
            for q in core_neighbor_lists[row]:
                qi = int(q)
                if qi == row:
                    continue
                if core[qi] or not assigned[qi]:
                    uf.union(row, qi)
                    assigned[qi] = True
            assigned[row] = True

    noise_mask = ~core & ~assigned
    labels = uf.labels(noise_mask=noise_mask)
    return ClusteringResult(
        labels=labels,
        core_mask=core,
        params=params,
        algorithm="brute_dbscan",
        counters=counters,
        timers=timers,
    )
