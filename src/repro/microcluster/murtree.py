"""The two-level μR-tree (paper Fig. 1) and its restricted ε-queries.

Level 1 is an R-tree over micro-clusters (boxes ``center ± eps``).
Level 2 is, per MC, one cached contiguous block: the concatenated
member coordinates of every MC reachable from it (Lemma 3).  The paper
keeps an AuxR-tree per MC there; with the paper's ``r`` in the
tens-to-hundreds, one numpy distance pass over the cached block beats
a Python-level tree walk, and the *search-space* reduction, which is
what the design contributes, is the same.  Only this module knows the
level-2 layout.

A neighborhood query for point ``x ∈ MC(p)`` (paper §IV-B2) is one
exact strict-< distance test against ``MC(p)``'s cached reachable
block.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.metrics import EUCLIDEAN, Metric, get_metric
from repro.index.rtree import RTree
from repro.instrumentation.counters import Counters
from repro.microcluster.builder import build_micro_clusters
from repro.microcluster.microcluster import MicroCluster
from repro.microcluster.reachability import compute_reachable

__all__ = ["MuRTree"]


class MuRTree:
    """Two-level micro-cluster index over a fixed dataset.

    Parameters
    ----------
    points:
        ``(n, d)`` dataset, held by reference.
    eps:
        DBSCAN ε — fixes the MC radius and all derived thresholds.
    defer_2eps:
        Passed to the builder (ablation 1 in DESIGN.md §5).
    max_entries:
        First-level R-tree node capacity.
    """

    def __init__(
        self,
        points: np.ndarray,
        eps: float,
        *,
        defer_2eps: bool = True,
        max_entries: int = 64,
        counters: Counters | None = None,
        metric: str | Metric = EUCLIDEAN,
    ) -> None:
        self.metric = get_metric(metric)
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError(f"points must be (n, d), got shape {self.points.shape}")
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.eps = float(eps)
        self.counters = counters if counters is not None else Counters()

        self.mcs: list[MicroCluster]
        self.level1: RTree
        self.point_mc: np.ndarray
        self.mcs, self.level1, self.point_mc = build_micro_clusters(
            self.points,
            self.eps,
            max_entries=max_entries,
            counters=self.counters,
            defer_2eps=defer_2eps,
            metric=self.metric,
        )
        self._reachable_done = False

    @classmethod
    def from_prebuilt(
        cls,
        points: np.ndarray,
        eps: float,
        mcs: list[MicroCluster],
        level1: RTree,
        point_mc: np.ndarray,
        *,
        counters: Counters | None = None,
        metric: str | Metric = EUCLIDEAN,
    ) -> "MuRTree":
        """Wrap an externally-built micro-cluster structure.

        A loaded model (``repro.serving``) restores its MCs, reach lists
        and first-level tree from stored arrays; this constructor reuses
        them instead of re-running Algorithm 3.  Every MC must already
        be frozen.
        """
        self = cls.__new__(cls)
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.eps = float(eps)
        self.counters = counters if counters is not None else Counters()
        self.metric = get_metric(metric)
        self.mcs = mcs
        self.level1 = level1
        self.point_mc = np.asarray(point_mc, dtype=np.int64)
        if any(not mc.frozen for mc in mcs):
            raise ValueError("all micro-clusters must be frozen")
        # restored reach lists only need their level-2 blocks; without
        # them compute_reachability() runs Algorithm 5
        self._reachable_done = False
        if all(mc.reach_ids is not None for mc in mcs):
            self._cache_reachable_blocks()
        return self

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def n_micro_clusters(self) -> int:
        return len(self.mcs)

    @property
    def avg_mc_size(self) -> float:
        """The paper's ``r`` — average points per micro-cluster."""
        if not self.mcs:
            return 0.0
        return len(self) / len(self.mcs)

    def compute_reachability(self) -> None:
        """Populate every MC's reachable list (Algorithm 5); idempotent.

        This also materialises each MC's concatenated reachable-point
        block (part of the paper's "finding reachable groups" phase
        cost, and the μR-tree's extra memory footprint)."""
        if self._reachable_done:
            return
        compute_reachable(self.mcs, self.eps, self.counters, metric=self.metric)
        self._cache_reachable_blocks()

    def _cache_reachable_blocks(self) -> None:
        """Level 2: concatenate each MC's reachable members once."""
        for mc in self.mcs:
            assert mc.reach_ids is not None
            rows = [self.mcs[int(w)].member_rows for w in mc.reach_ids]
            rows = [r for r in rows if r is not None and r.size]
            mc.reach_rows = (
                np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
            )
            mc.reach_points = np.ascontiguousarray(
                self.points[mc.reach_rows], dtype=np.float64
            )
        self._reachable_done = True

    # ------------------------------------------------------------------
    # queries

    def query_ball(
        self, row: int, radius: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact ε-neighborhood of dataset point ``row``.

        Returns ``(rows, raw_dists)``: global indices of points strictly
        within ``radius`` (default: the tree's ε) of the point, and their
        *raw* metric values (squared distances for Euclidean) — callers
        split on ``metric.threshold(eps/2)`` for the dynamic wndq-core
        rule without recomputing.

        The query point itself is included (distance 0).
        """
        radius = self.eps if radius is None else float(radius)
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        mc = self.mcs[int(self.point_mc[row])]
        if mc.reach_points is None:
            raise RuntimeError("call compute_reachability() before querying")
        self.counters.dist_calcs += int(mc.reach_rows.shape[0])
        raw = self.metric.raw_to_point(mc.reach_points, self.points[row])
        mask = raw < self.metric.threshold(radius)
        return mc.reach_rows[mask], raw[mask]

    def reachable_block(self, mc_id: int) -> np.ndarray:
        """Global rows of every point in ``mc_id``'s reachable MCs — by
        Lemma 3 the complete ε-candidate set of each of its members."""
        rows = self.mcs[mc_id].reach_rows
        if rows is None:
            raise RuntimeError("call compute_reachability() before querying")
        return rows
