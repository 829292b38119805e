"""Micro-cluster construction — Algorithm 3 (BUILD-MICRO-CLUSTERS).

Points are scanned once.  For each point ``p``:

1. Search for an existing MC whose *center* is strictly within ``eps``
   of ``p`` → join it (nearest such center, lowest ``mc_id`` on exact
   ties, for determinism; the paper takes the first encountered, which
   depends on tree layout — either choice yields a valid MC partition).
2. Otherwise, if some center lies within ``2 eps``, defer ``p`` to the
   ``unassignedList``.  Creating a new MC here would carve out a ball
   heavily overlapping an existing one; deferral keeps the MC count
   ``m`` low, which is what makes the ``n log m`` term of the paper's
   complexity analysis small.  Deferred points usually get absorbed by
   MCs created later in the scan.
3. Otherwise create a new MC centered at ``p``.

A second pass re-processes the ``unassignedList``: join a center within
``eps`` if one exists by now, else create an MC (no deferral the second
time — every point must land somewhere).

The first-level R-tree stores each MC as the fixed box ``center ± eps``:
every member is strictly within ``eps`` of the center, so the box bounds
the MC forever and never needs widening on insertion.

The sweep is batched (docs/ALGORITHM.md, "Grid-hash builder"): centers
are hashed into an ε-cell :class:`~repro.index.grid.CenterGrid`; scan
points are processed in row-order blocks; per block one gather + one
vectorized distance/box-predicate pass computes every point's verdict
against the centers existing *before* the block, and a short exact
fixup walk replays intra-block MC creations in scan order.  The
first-level tree is STR bulk-loaded once at the end.  Labels,
``point_mc``, MC membership order and every counter are those of the
per-point scan described above — ``tests/test_builder.py`` checks them
against a per-point reference kept there.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.metrics import EUCLIDEAN, Metric
from repro.geometry.regions import sphere_intersects_rects_block
from repro.index.bulk import str_bulk_load_point_boxes
from repro.index.grid import CenterGrid
from repro.index.rtree import RTree
from repro.instrumentation.counters import Counters
from repro.microcluster.microcluster import MicroCluster

__all__ = ["build_micro_clusters", "DEFAULT_BUILDER_BLOCK_SIZE"]

#: rows per vectorized sweep block of the grid builder — bounds the
#: transient (block x candidate-centers) distance matrices
DEFAULT_BUILDER_BLOCK_SIZE = 4096


class _CenterArray:
    """Growing preallocated ``(m, d)`` array of MC centers.

    Algorithm 3 needs the centers of every candidate MC at every block;
    restacking them from the ``MicroCluster`` objects costs a
    Python-level loop each time, while one amortised-doubling buffer
    answers with a zero-copy prefix view."""

    def __init__(self, dim: int) -> None:
        self._buf = np.empty((64, dim), dtype=np.float64)
        self._m = 0

    def append(self, center: np.ndarray) -> None:
        if self._m == self._buf.shape[0]:
            grown = np.empty((2 * self._m, self._buf.shape[1]), dtype=np.float64)
            grown[: self._m] = self._buf
            self._buf = grown
        self._buf[self._m] = center
        self._m += 1

    def view(self, m: int) -> np.ndarray:
        """Zero-copy ``(m, d)`` view of the first ``m`` centers — bulk
        callers slice this instead of re-fancy-indexing full prefixes."""
        return self._buf[:m]


def build_micro_clusters(
    points: np.ndarray,
    eps: float,
    *,
    max_entries: int = 64,
    counters: Counters | None = None,
    defer_2eps: bool = True,
    metric: Metric = EUCLIDEAN,
    block_size: int = DEFAULT_BUILDER_BLOCK_SIZE,
) -> tuple[list[MicroCluster], RTree, np.ndarray]:
    """Run Algorithm 3 over ``points``.

    Parameters
    ----------
    points:
        ``(n, d)`` dataset.
    eps:
        DBSCAN ε (MC radius).
    max_entries:
        First-level R-tree node capacity.
    defer_2eps:
        The 2ε ``unassignedList`` rule.  ``False`` disables deferral
        (ablation 1 in DESIGN.md §5): every unassignable point
        immediately founds a new MC.
    block_size:
        Rows per vectorized sweep block; bounds the transient
        (block x candidate-centers) matrices, never changes the result.

    Returns
    -------
    ``(mcs, first_level_tree, point_mc)`` where ``mcs`` is the list of
    frozen micro-clusters, ``first_level_tree`` indexes their
    ``center ± eps`` boxes by ``mc_id``, and ``point_mc[i]`` is the MC id
    of dataset point ``i``.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {pts.shape}")
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    counters = counters if counters is not None else Counters()
    n, dim = pts.shape
    cover = metric.l2_cover_factor(dim)
    eps_raw = metric.threshold(eps)
    two_eps_raw = metric.threshold(2.0 * eps)
    search_radius = (2.0 * eps if defer_2eps else eps) * cover

    tree = RTree(dim, max_entries=max_entries, counters=counters)
    point_mc = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return [], tree, point_mc

    centers = _CenterArray(dim)
    center_rows: list[int] = []
    members: list[list[int]] = []  # per MC, rows in scan assignment order
    deferred: list[int] = []
    grid = CenterGrid(pts.min(axis=0), eps, dim)

    def block_candidates(
        block: np.ndarray, bpts: np.ndarray, m_pre: int, radius: float, reach: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row verdict inputs against the centers existing *before*
        this block: candidate count, best (lowest) raw distance and the
        id achieving it (lowest id on exact ties).

        Candidate sets are the centers whose ε-box the ball of
        ``radius`` touches (the first-level tree's leaf-level
        ball-vs-box predicate): the grid gather is a conservative
        superset (every such center lies within ``reach`` cells, plus
        one safety ring for floor-rounding slack), and the predicate
        then keeps exactly the candidates.
        """
        B = block.shape[0]
        cnt = np.zeros(B, dtype=np.int64)
        best_raw = np.full(B, np.inf)
        best_id = np.full(B, -1, dtype=np.int64)
        if m_pre == 0:
            return cnt, best_raw, best_id
        pre_centers = centers.view(m_pre)
        # the grid holds only the centers inserted before this block
        for rows_u, ids in grid.gather(bpts, reach):
            sub = bpts[rows_u]
            cand_centers = pre_centers[ids]
            raw = metric.raw_pairwise_stable(sub, cand_centers)
            hit = sphere_intersects_rects_block(
                sub, radius, cand_centers - eps, cand_centers + eps
            )
            c_u = hit.sum(axis=1)
            masked = np.where(hit, raw, np.inf)
            j = np.argmin(masked, axis=1)  # first minimum = lowest id
            has = c_u > 0
            cnt[rows_u] = c_u
            best_raw[rows_u] = np.where(has, masked[np.arange(rows_u.size), j], np.inf)
            best_id[rows_u] = np.where(has, ids[j], -1)
        return cnt, best_raw, best_id

    def sweep(rows: np.ndarray, radius: float, defer: bool) -> None:
        """One Algorithm-3 pass over ``rows`` in order, blockwise."""
        # every true candidate center is within radius + eps of the
        # point on each axis; +1 ring absorbs floor-rounding slack
        reach = int(np.ceil((radius + eps) / grid.cell_width)) + 1
        for start in range(0, rows.shape[0], block_size):
            block = rows[start : start + block_size]
            bpts = pts[block]
            m_pre = len(center_rows)
            cnt, best_raw, best_id = block_candidates(
                block, bpts, m_pre, radius, reach
            )
            # exact scan-order fixup: walk the block in row order; each
            # created MC is immediately made visible (count, distance,
            # nearest-center) to every later row of the block, exactly
            # as in a per-point scan
            for i in range(block.shape[0]):
                row = int(block[i])
                c = int(cnt[i])
                counters.dist_calcs += c
                if c and best_raw[i] < eps_raw:
                    mc_id = int(best_id[i])
                    members[mc_id].append(row)
                    point_mc[row] = mc_id
                elif defer and c and best_raw[i] < two_eps_raw:
                    deferred.append(row)
                    counters.deferred_points += 1
                else:
                    mc_id = len(center_rows)
                    center_rows.append(row)
                    members.append([row])
                    centers.append(pts[row])
                    point_mc[row] = mc_id
                    counters.micro_clusters += 1
                    if i + 1 < block.shape[0]:
                        rest = bpts[i + 1 :]
                        # the tree's leaf test against the newborn box...
                        clamped = np.clip(rest, pts[row] - eps, pts[row] + eps)
                        diff = rest - clamped
                        sq = np.einsum("ij,ij->i", diff, diff)
                        hit = sq <= radius * radius
                        if hit.any():
                            cnt[i + 1 :][hit] += 1
                            # ...and the raw distances; strict < keeps
                            # the lower (earlier) id on exact ties
                            raw_new = metric.raw_to_point(rest, pts[row])
                            sub_raw = best_raw[i + 1 :]
                            sub_id = best_id[i + 1 :]
                            better = hit & (raw_new < sub_raw)
                            sub_raw[better] = raw_new[better]
                            sub_id[better] = mc_id
            if len(center_rows) > m_pre:
                grid.insert(m_pre, centers.view(len(center_rows))[m_pre:])

    # ---- pass 1: scan, join / defer / create --------------------------
    sweep(np.arange(n, dtype=np.int64), search_radius, defer_2eps)
    # ---- pass 2: place deferred points --------------------------------
    if deferred:
        sweep(np.asarray(deferred, dtype=np.int64), eps * cover, False)

    m = len(center_rows)
    mcs = [
        MicroCluster.from_member_rows(
            mc_id,
            center_rows[mc_id],
            np.asarray(members[mc_id], dtype=np.int64),
            pts,
            eps,
            metric=metric,
        )
        for mc_id in range(m)
    ]
    if m:
        str_bulk_load_point_boxes(tree, centers.view(m), eps)
    return mcs, tree, point_mc
