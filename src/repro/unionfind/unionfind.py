"""Array-backed union-find with path halving and union by rank.

This is the merging workhorse of the reference algorithms (Algorithm
1's ``UNION`` in the oracles and baselines); μDBSCAN itself resolves
edge arrays with ``repro.unionfind.components``.  Elements
are dense integers ``0..n-1``; ``find`` uses iterative path halving so
deep recursions can't overflow, and ``union`` attaches by rank.
"""

from __future__ import annotations

import numpy as np

from repro.instrumentation.counters import Counters
from repro.unionfind.components import dense_labels

__all__ = ["UnionFind"]


class UnionFind:
    """Disjoint sets over ``0..n-1``.

    Parameters
    ----------
    n:
        Number of elements; each starts in its own singleton set.
    counters:
        Optional shared counters; each effective merge bumps ``unions``.
    """

    def __init__(self, n: int, counters: Counters | None = None) -> None:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        # plain Python containers: find/union are called once per merge
        # candidate from interpreted loops, where list indexing is several
        # times cheaper than numpy scalar indexing
        self._parent = list(range(n))
        self._rank = bytearray(n)
        self._n_sets = n
        self.counters = counters if counters is not None else Counters()

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def n_sets(self) -> int:
        """Current number of disjoint sets."""
        return self._n_sets

    def find(self, x: int) -> int:
        """Representative of ``x``'s set (with path halving)."""
        parent = self._parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of ``x`` and ``y``; True when they were distinct."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self._rank[rx] < self._rank[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        if self._rank[rx] == self._rank[ry]:
            self._rank[rx] += 1
        self._n_sets -= 1
        self.counters.unions += 1
        return True

    def connected(self, x: int, y: int) -> bool:
        """Whether ``x`` and ``y`` are currently in the same set."""
        return self.find(x) == self.find(y)

    def roots(self) -> np.ndarray:
        """Representative of every element, fully compressed (vectorized)."""
        parent = np.asarray(self._parent, dtype=np.int64)
        # pointer jumping: O(log n) rounds of full-array jumps
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        self._parent = parent.tolist()  # keep the compression
        return parent

    def labels(self, noise_mask: np.ndarray | None = None) -> np.ndarray:
        """Dense cluster labels ``0..k-1``; ``-1`` where ``noise_mask``.

        Elements that are noise are labelled ``-1`` regardless of their
        set; remaining sets are renumbered densely in order of first
        appearance, so labels are deterministic given the structure.
        """
        return dense_labels(self.roots(), noise_mask=noise_mask)
