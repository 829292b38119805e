"""G-DBSCAN — the groups method (Kumar & Reddy 2016), reimplemented.

The method accelerates neighbor search *without a spatial index*:

1. **Group formation** — a single leader-style scan assigns each point
   to the first group whose master lies strictly within ``eps/2``;
   otherwise the point founds a new group with itself as master.  Any
   two points of a group are strictly within ``eps`` of each other.
2. **Noise pruning / restricted queries** — the ε-neighborhood of ``p``
   is contained in the groups whose master is strictly within
   ``1.5 eps`` of ``p`` (triangle inequality through the member's
   master).  If those groups hold fewer than ``MinPts`` points, ``p``
   cannot be core and its query is skipped entirely; otherwise the
   query is an exact scan of just those groups.
3. The shared Algorithm-1 union pass produces the exact clustering.

Masters are scanned linearly (that is the published method's nature),
so group formation is ``O(n * g)`` — cheap when ε is large and groups
are few, painful on datasets with many fine groups.  This is exactly
the behaviour Table II shows: G-DBSCAN wins on dense low-group data
and collapses on clustered datasets such as DGB.
"""

from __future__ import annotations

import numpy as np

from repro.baselines._expand import finalize_result, union_pass
from repro.core.params import DBSCANParams
from repro.core.result import ClusteringResult
from repro.geometry.distance import sq_dists_to_point
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer

__all__ = ["g_dbscan"]


def _form_groups(
    pts: np.ndarray, eps: float, counters: Counters
) -> tuple[np.ndarray, list[list[int]]]:
    """Leader scan: returns (master row per group, member rows per group)."""
    n, d = pts.shape
    masters = np.empty((max(n, 1), d), dtype=np.float64)
    master_rows: list[int] = []
    members: list[list[int]] = []
    half_sq = (eps * 0.5) ** 2
    g = 0
    for row in range(n):
        p = pts[row]
        if g:
            counters.dist_calcs += g
            sq = sq_dists_to_point(masters[:g], p)
            best = int(np.argmin(sq))
            if sq[best] < half_sq:
                members[best].append(row)
                continue
        masters[g] = p
        master_rows.append(row)
        members.append([row])
        g += 1
    return masters[:g], members


def g_dbscan(points: np.ndarray, eps: float, min_pts: int) -> ClusteringResult:
    """Exact DBSCAN via the groups method (baseline "G-DBSCAN")."""
    params = DBSCANParams(eps=eps, min_pts=min_pts)
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {pts.shape}")
    n = pts.shape[0]
    counters = Counters()
    timers = PhaseTimer()

    with timers.phase("group_formation"):
        masters, member_lists = _form_groups(pts, params.eps, counters)
        groups = [np.asarray(m, dtype=np.int64) for m in member_lists]
        group_sizes = np.asarray([grp.shape[0] for grp in groups], dtype=np.int64)

    core = np.zeros(n, dtype=bool)
    core_neighbor_lists: dict[int, np.ndarray] = {}
    search_sq = (1.5 * params.eps) ** 2
    eps_sq = params.eps_sq

    with timers.phase("neighborhood_queries"):
        for row in range(n):
            p = pts[row]
            counters.dist_calcs += masters.shape[0]
            msq = sq_dists_to_point(masters, p)
            near = np.flatnonzero(msq < search_sq)
            if int(group_sizes[near].sum()) < min_pts:
                counters.queries_saved += 1  # noise-pruned, cannot be core
                continue
            candidates = np.concatenate([groups[int(gi)] for gi in near])
            counters.queries_run += 1
            counters.dist_calcs += int(candidates.shape[0])
            sq = sq_dists_to_point(pts[candidates], p)
            nbrs = candidates[sq < eps_sq]
            if nbrs.shape[0] >= min_pts:
                core[row] = True
                core_neighbor_lists[row] = nbrs

    with timers.phase("cluster_formation"):
        uf, assigned = union_pass(n, core, core_neighbor_lists, counters)

    return finalize_result(
        "g_dbscan",
        params,
        core,
        uf,
        assigned,
        counters,
        timers,
        extras={"n_groups": len(groups)},
    )
