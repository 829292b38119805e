"""GridDBSCAN — exact grid-based DBSCAN (Kumari et al., ICDCN 2017).

The data space is cut into hypercube cells of edge
``w = (eps / sqrt(d)) * (1 - 1e-9)`` so the cell diagonal is strictly
below ``eps``:

* **all-core cells** — a cell holding ``>= MinPts`` points makes every
  one of its points core with *no* neighborhood query (all cell-mates
  are mutual ε-neighbors); this is where GridDBSCAN's "up to 15% of
  queries saved" comes from;
* remaining points are queried against the points of the cells within
  Chebyshev reach ``ceil(eps / w)`` of their own — the grid's
  search-space reduction;
* merging: all-core cells union internally and pairwise (two all-core
  cells merge iff some cross pair is strictly within ε); queried cores
  merge through their lists exactly like Algorithm 1.

The per-cell neighbor-cell lists are materialised up front, as real
grid implementations do — their size grows with the ``(2
ceil(sqrt(d))+1)^d`` stencil, which is the memory blow-up with
dimensionality that the paper's Table IV (and its GridDBSCAN memory
errors in Table II) demonstrates.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import DBSCANParams
from repro.core.result import ClusteringResult
from repro.geometry.distance import pairwise_sq_dists, sq_dists_to_point
from repro.index.grid import UniformGrid
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer
from repro.unionfind.unionfind import UnionFind

__all__ = ["grid_dbscan"]

#: shrink factor keeping the cell diagonal strictly below eps
_DIAG_SAFETY = 1.0 - 1e-9


def grid_dbscan(points: np.ndarray, eps: float, min_pts: int) -> ClusteringResult:
    """Exact DBSCAN on a ε/√d grid (baseline "GridDBSCAN")."""
    params = DBSCANParams(eps=eps, min_pts=min_pts)
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {pts.shape}")
    n, d = pts.shape
    counters = Counters()
    timers = PhaseTimer()
    eps_sq = params.eps_sq

    with timers.phase("grid_construction"):
        width = params.eps / np.sqrt(d) * _DIAG_SAFETY if n else params.eps
        grid = UniformGrid(pts, width, counters=counters)
        reach = int(np.ceil(params.eps / grid.cell_width))
        cells = grid.cells()
        # materialised neighbor-cell lists: the memory hog in high d
        neighbor_keys = {
            key: grid.neighbor_cell_keys(key, reach) for key in cells
        }

    core = np.zeros(n, dtype=bool)
    all_core_cells: list[tuple[int, ...]] = []
    with timers.phase("core_detection"):
        for key, rows in cells.items():
            if rows.shape[0] >= min_pts:
                core[rows] = True
                all_core_cells.append(key)
                counters.queries_saved += int(rows.shape[0])

        neighbor_lists: dict[int, np.ndarray] = {}
        for key, rows in cells.items():
            if rows.shape[0] >= min_pts:
                continue
            candidates = np.concatenate([cells[k] for k in neighbor_keys[key]])
            for row in rows:
                row = int(row)
                counters.queries_run += 1
                counters.dist_calcs += int(candidates.shape[0])
                sq = sq_dists_to_point(pts[candidates], pts[row])
                nbrs = candidates[sq < eps_sq]
                neighbor_lists[row] = nbrs
                if nbrs.shape[0] >= min_pts:
                    core[row] = True

    uf = UnionFind(n, counters=counters)
    assigned = np.zeros(n, dtype=bool)
    with timers.phase("merging"):
        # (a) intra-cell unions for all-core cells
        for key in all_core_cells:
            rows = cells[key]
            first = int(rows[0])
            for row in rows[1:]:
                uf.union(first, int(row))
            assigned[rows] = True
        # (b) cross merges between neighboring all-core cells
        all_core_set = set(all_core_cells)
        for key in all_core_cells:
            rows_a = cells[key]
            for other in neighbor_keys[key]:
                if other <= key or other not in all_core_set:
                    continue  # each unordered pair once
                rows_b = cells[other]
                if uf.connected(int(rows_a[0]), int(rows_b[0])):
                    continue
                counters.dist_calcs += int(rows_a.shape[0] * rows_b.shape[0])
                cross = pairwise_sq_dists(pts[rows_a], pts[rows_b])
                if float(cross.min()) < eps_sq:
                    uf.union(int(rows_a[0]), int(rows_b[0]))
        # (c) queried cores expand exactly like Algorithm 1
        for row in sorted(neighbor_lists):
            if not core[row]:
                continue
            for q in neighbor_lists[row]:
                qi = int(q)
                if qi == row:
                    continue
                if core[qi] or not assigned[qi]:
                    uf.union(row, qi)
                    assigned[qi] = True
            assigned[row] = True
        # (d) queried borders attach themselves to any adjacent core
        for row, nbrs in neighbor_lists.items():
            if core[row] or assigned[row]:
                continue
            core_nbrs = nbrs[core[nbrs]]
            if core_nbrs.size:
                uf.union(int(core_nbrs[0]), row)
                assigned[row] = True

    noise_mask = ~core & ~assigned
    labels = uf.labels(noise_mask=noise_mask)
    return ClusteringResult(
        labels=labels,
        core_mask=core,
        params=params,
        algorithm="grid_dbscan",
        counters=counters,
        timers=timers,
        extras={
            "n_cells": grid.n_cells,
            "reach": reach,
            "n_all_core_cells": len(all_core_cells),
            "neighbor_list_entries": sum(len(v) for v in neighbor_keys.values()),
        },
    )
