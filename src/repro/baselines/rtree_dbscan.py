"""R-DBSCAN — classical DBSCAN over a single flat R-tree.

This is the paper's first baseline (Table II): traditional DBSCAN whose
ε-queries go through one R-tree indexing the entire dataset.  Every
point is queried exactly once (``n`` queries, no savings); the contrast
with μDBSCAN isolates the contribution of (a) skipped queries and
(b) the two-level search-space reduction.
"""

from __future__ import annotations

import numpy as np

from repro.baselines._expand import finalize_result, union_pass
from repro.core.params import DBSCANParams
from repro.core.result import ClusteringResult
from repro.index.rtree import PointRTree
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer

__all__ = ["rtree_dbscan"]


def rtree_dbscan(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    max_entries: int = 32,
    bulk: bool = True,
) -> ClusteringResult:
    """Exact DBSCAN with a single R-tree index (baseline "R-DBSCAN")."""
    params = DBSCANParams(eps=eps, min_pts=min_pts)
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {pts.shape}")
    n = pts.shape[0]
    counters = Counters()
    timers = PhaseTimer()

    with timers.phase("tree_construction"):
        index = PointRTree(pts, max_entries=max_entries, counters=counters, bulk=bulk)

    core = np.zeros(n, dtype=bool)
    core_neighbor_lists: dict[int, np.ndarray] = {}
    with timers.phase("neighborhood_queries"):
        for row in range(n):
            nbrs = index.query_ball(pts[row], params.eps)
            counters.queries_run += 1
            if nbrs.shape[0] >= min_pts:
                core[row] = True
                core_neighbor_lists[row] = nbrs

    with timers.phase("cluster_formation"):
        uf, assigned = union_pass(n, core, core_neighbor_lists, counters)

    return finalize_result(
        "rtree_dbscan",
        params,
        core,
        uf,
        assigned,
        counters,
        timers,
        extras={"tree_height": index.height() if n else 0},
    )
