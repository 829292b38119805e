"""Median-split kd-tree over points.

Used in two roles:

* an alternative :class:`~repro.index.base.NeighborIndex` (the test
  suite cross-checks it against the brute oracle and the R-tree), and
* the reference geometry for the distributed partitioner's recursive
  widest-axis median splits (Fig. 4 of the paper) — the partitioner in
  ``repro.distributed.partition`` re-implements the *sampling* median
  on top of the distributed backends, but its splits are validated
  against this tree.

The tree is static: built once over a fixed array with an explicit
node arena (no per-node Python objects beyond slots), leaf buckets of
``leaf_size`` points, and strict-< ε-ball queries.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.distance import sq_dists_to_point
from repro.instrumentation.counters import Counters

__all__ = ["KDTree"]


class _KDNode:
    __slots__ = ("axis", "threshold", "left", "right", "rows", "low", "high")

    def __init__(self) -> None:
        self.axis = -1
        self.threshold = 0.0
        self.left: _KDNode | None = None
        self.right: _KDNode | None = None
        self.rows: np.ndarray | None = None  # leaf bucket
        self.low: np.ndarray | None = None
        self.high: np.ndarray | None = None


class KDTree:
    """Static kd-tree with widest-spread axis, median threshold splits."""

    def __init__(
        self,
        points: np.ndarray,
        leaf_size: int = 32,
        counters: Counters | None = None,
    ) -> None:
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError(f"points must be (n, d), got shape {self.points.shape}")
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        self.leaf_size = leaf_size
        self.counters = counters if counters is not None else Counters()
        n = self.points.shape[0]
        self._root = self._build(np.arange(n, dtype=np.int64)) if n else None

    def __len__(self) -> int:
        return self.points.shape[0]

    def _build(self, rows: np.ndarray) -> _KDNode:
        node = _KDNode()
        pts = self.points[rows]
        node.low = pts.min(axis=0)
        node.high = pts.max(axis=0)
        if rows.shape[0] <= self.leaf_size:
            node.rows = rows
            return node
        spread = node.high - node.low
        axis = int(np.argmax(spread))
        if spread[axis] == 0.0:
            # all points identical in every axis: cannot split further
            node.rows = rows
            return node
        values = pts[:, axis]
        median = float(np.median(values))
        left_mask = values < median
        # a degenerate median (all values on one side) falls back to a
        # midpoint split, which must separate since spread > 0
        if not left_mask.any() or left_mask.all():
            midpoint = float(node.low[axis] + spread[axis] * 0.5)
            left_mask = values <= midpoint
            if not left_mask.any() or left_mask.all():
                node.rows = rows
                return node
            median = midpoint
        node.axis = axis
        node.threshold = median
        node.left = self._build(rows[left_mask])
        node.right = self._build(rows[~left_mask])
        return node

    def height(self) -> int:
        """Longest root-to-leaf path (0 for an empty tree)."""

        def depth(node: _KDNode | None) -> int:
            if node is None:
                return 0
            if node.rows is not None:
                return 1
            return 1 + max(depth(node.left), depth(node.right))

        return depth(self._root)

    def query_ball(self, q: np.ndarray, eps: float) -> np.ndarray:
        """Row indices strictly within ``eps`` of ``q``."""
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        if self._root is None:
            return np.empty(0, dtype=np.int64)
        q = np.asarray(q, dtype=np.float64)
        eps_sq = eps * eps
        hits: list[np.ndarray] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.counters.nodes_visited += 1
            # prune: distance from q to the node's bounding box
            clamped = np.clip(q, node.low, node.high)
            diff = q - clamped
            if float(np.dot(diff, diff)) > eps_sq:
                continue
            if node.rows is not None:
                rows = node.rows
                self.counters.dist_calcs += int(rows.shape[0])
                sq = sq_dists_to_point(self.points[rows], q)
                sel = rows[sq < eps_sq]
                if sel.size:
                    hits.append(sel)
            else:
                assert node.left is not None and node.right is not None
                stack.append(node.left)
                stack.append(node.right)
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(hits)

    def count_ball(self, q: np.ndarray, eps: float) -> int:
        return int(self.query_ball(q, eps).shape[0])
