"""Uniform grid index — the substrate of GridDBSCAN and HPDBSCAN.

Both grid baselines hash points to hypercube cells and restrict
neighborhood searches to the cells a ball can touch.  Two cell widths
matter in the literature:

* ``eps / sqrt(d)`` (GridDBSCAN): the cell diagonal is then ``<= eps``,
  so any cell with ``>= MinPts`` points makes all of its points core
  without a query — the all-core shortcut.
* ``eps`` (HPDBSCAN): fewer cells, 3^d neighbor stencil, no all-core
  shortcut.

The number of *materialized* (occupied) cells is what the paper's
Table IV memory comparison hinges on — it grows exponentially with the
dimension for fixed data, which this class exposes via ``n_cells``.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Iterator

import numpy as np

from repro.geometry.distance import sq_dists_to_point
from repro.instrumentation.counters import Counters

__all__ = ["UniformGrid", "CenterGrid"]

#: grid cells per super-cell edge: :meth:`CenterGrid.gather` groups
#: points at this coarser resolution so each gathered candidate set is
#: shared by enough rows to amortise its Python-level overhead
_SUPER = 4
_SUPER_SHIFT = 2  # arithmetic shift = floor division by _SUPER

#: cell coordinates are clamped to ±this before the int64 cast, so a
#: query at 1e300 (or ±inf) still gets a valid, far-away cell; clamping
#: is 1-Lipschitz, so it never shrinks a cell-distance bound
_COORD_LIMIT = float(2**52)

#: element budget of the (super-cells x occupied cells x d) window test
#: in one :meth:`CenterGrid.gather` chunk
_WINDOW_ELEMS = 4_000_000


class UniformGrid:
    """Hash-grid over a fixed point array.

    Parameters
    ----------
    points:
        ``(n, d)`` array, held by reference.
    cell_width:
        Edge length of the hypercube cells.
    counters:
        Optional shared work counters.
    """

    def __init__(
        self,
        points: np.ndarray,
        cell_width: float,
        counters: Counters | None = None,
    ) -> None:
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError(f"points must be (n, d), got shape {self.points.shape}")
        if cell_width <= 0.0:
            raise ValueError(f"cell_width must be positive, got {cell_width}")
        self.cell_width = float(cell_width)
        self.counters = counters if counters is not None else Counters()
        n, d = self.points.shape
        self.dim = d
        if n:
            self._origin = self.points.min(axis=0)
            coords = np.floor((self.points - self._origin) / self.cell_width).astype(
                np.int64
            )
        else:
            self._origin = np.zeros(d)
            coords = np.empty((0, d), dtype=np.int64)
        self._coords = coords
        buckets: dict[tuple[int, ...], list[int]] = defaultdict(list)
        for i in range(n):
            buckets[tuple(coords[i])].append(i)
        self._cells: dict[tuple[int, ...], np.ndarray] = {
            key: np.asarray(rows, dtype=np.int64) for key, rows in buckets.items()
        }

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def n_cells(self) -> int:
        """Occupied cells (memory-consumption proxy for Table IV)."""
        return len(self._cells)

    def cell_of(self, i: int) -> tuple[int, ...]:
        """Cell key of indexed point ``i``."""
        return tuple(self._coords[i])

    def cells(self) -> dict[tuple[int, ...], np.ndarray]:
        """Mapping cell key -> row indices (live view, do not mutate)."""
        return self._cells

    def cell_members(self, key: tuple[int, ...]) -> np.ndarray:
        """Rows in a cell (empty array when unoccupied)."""
        return self._cells.get(key, np.empty(0, dtype=np.int64))

    def neighbor_cell_keys(
        self, key: tuple[int, ...], reach: int
    ) -> list[tuple[int, ...]]:
        """Occupied cells within Chebyshev distance ``reach`` of ``key``
        (including ``key`` itself).

        The stencil enumerates ``(2*reach + 1) ** d`` offsets — the
        exponential-in-``d`` cost the paper criticizes in grid methods.
        Enumeration is over the stencil or the occupied set, whichever
        is smaller, so low-dimensional queries stay fast without
        changing the returned set.
        """
        if reach < 0:
            raise ValueError(f"reach must be >= 0, got {reach}")
        stencil_size = (2 * reach + 1) ** self.dim
        self.counters.nodes_visited += min(stencil_size, len(self._cells))
        if stencil_size <= len(self._cells):
            out = []
            for offset in itertools.product(range(-reach, reach + 1), repeat=self.dim):
                cand = tuple(k + o for k, o in zip(key, offset))
                if cand in self._cells:
                    out.append(cand)
            return out
        center = np.asarray(key, dtype=np.int64)
        return [
            cand
            for cand in self._cells
            if np.max(np.abs(np.asarray(cand, dtype=np.int64) - center)) <= reach
        ]

    def candidates_near(self, q: np.ndarray, radius: float) -> np.ndarray:
        """Rows of all points in cells a ball ``B(q, radius)`` may touch."""
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        q = np.asarray(q, dtype=np.float64)
        reach = int(np.ceil(radius / self.cell_width))
        key = tuple(np.floor((q - self._origin) / self.cell_width).astype(np.int64))
        keys = self.neighbor_cell_keys(key, reach)
        if not keys:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([self._cells[k] for k in keys])

    def query_ball(self, q: np.ndarray, eps: float) -> np.ndarray:
        """Row indices strictly within ``eps`` of ``q``."""
        rows = self.candidates_near(q, eps)
        if rows.size == 0:
            return rows
        self.counters.dist_calcs += int(rows.size)
        sq = sq_dists_to_point(self.points[rows], q)
        return rows[sq < eps * eps]

    def count_ball(self, q: np.ndarray, eps: float) -> int:
        return int(self.query_ball(q, eps).shape[0])


class CenterGrid:
    """Incremental hash-grid over micro-cluster centers.

    The grid-hash builder appends centers as Algorithm 3 creates them
    and, per block of scan points, gathers every center whose ε-box a
    search ball could touch — a conservative superset shortlist, exactly
    like the first-level R-tree's role, but answerable for a whole block
    with array ops instead of one Python tree walk per point.  Serving
    builds one over a fitted model's centers and routes whole query
    batches through the same :meth:`gather`.

    Unlike :class:`UniformGrid` (fixed point set, built once), this
    structure grows: ``insert()`` buckets new centers by cell, and the
    occupied-cell views used by the gather are rebuilt lazily only when
    the cell population changed since the last block.
    """

    def __init__(self, origin: np.ndarray, cell_width: float, dim: int) -> None:
        if cell_width <= 0.0:
            raise ValueError(f"cell_width must be positive, got {cell_width}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.origin = np.asarray(origin, dtype=np.float64).reshape(dim)
        self.cell_width = float(cell_width)
        self.dim = dim
        self._cells: dict[tuple[int, ...], list[int]] = {}
        self._n = 0
        self._occ_coords: np.ndarray | None = None
        self._occ_buckets: list[np.ndarray] | None = None

    def __len__(self) -> int:
        return self._n

    @property
    def n_cells(self) -> int:
        return len(self._cells)

    def coords(self, points: np.ndarray) -> np.ndarray:
        """Integer cell coordinates of ``points``, ``(k, d)`` int64.

        Centers *are* scan points, so using one formula (and one origin)
        for both sides keeps the point-cell/center-cell relationship
        consistent to within the ±1 rounding slack the gather's safety
        ring absorbs.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        with np.errstate(over="ignore", invalid="ignore"):
            cells = np.floor((pts - self.origin) / self.cell_width)
        # NaN rows get cell 0: every distance from them is NaN, so no
        # caller's strict test can ever accept a candidate they gather
        np.nan_to_num(cells, copy=False, nan=0.0)
        np.clip(cells, -_COORD_LIMIT, _COORD_LIMIT, out=cells)
        return cells.astype(np.int64)

    def insert(self, first_id: int, centers: np.ndarray) -> None:
        """Bucket centers ``first_id .. first_id + k - 1`` by cell."""
        centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        if centers.shape[0] == 0:
            return
        cc = self.coords(centers)
        for i in range(cc.shape[0]):
            self._cells.setdefault(tuple(cc[i]), []).append(first_id + i)
        self._n += centers.shape[0]
        self._occ_coords = None
        self._occ_buckets = None

    def occupied(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(coords, buckets)`` over occupied cells — ``coords`` is the
        ``(n_cells, d)`` int64 stack and ``buckets[i]`` the center ids in
        cell ``i`` (ascending: ids are appended in creation order)."""
        if self._occ_coords is None or self._occ_buckets is None:
            if self._cells:
                self._occ_coords = np.asarray(list(self._cells), dtype=np.int64)
                self._occ_buckets = [
                    np.asarray(ids, dtype=np.int64) for ids in self._cells.values()
                ]
            else:
                self._occ_coords = np.empty((0, self.dim), dtype=np.int64)
                self._occ_buckets = []
        return self._occ_coords, self._occ_buckets

    def gather(
        self, points: np.ndarray, reach: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Group ``points`` by super-cell and yield ``(rows, ids)`` per
        group: the ``points`` rows hashed to one super-cell and the
        ascending ids of every center whose cell lies within ``reach``
        cells (per axis) of that super-cell.

        A center within per-axis distance ``r`` of a point sits at most
        ``ceil(r / cell_width)`` cells from it, so ``reach`` set to that
        (plus one safety ring for floor-rounding slack) makes ``ids`` a
        superset of every such center for every row of the group.
        Groups without a candidate center are skipped.
        """
        occ, buckets = self.occupied()
        sc = self.coords(points) >> _SUPER_SHIFT
        if not buckets or sc.shape[0] == 0:
            return
        # stable lexicographic sort: each super-cell's rows become one
        # contiguous run of ``order``, kept in ascending row order
        order = np.lexsort(sc.T[::-1])
        sorted_sc = sc[order]
        bounds = np.r_[
            0,
            np.flatnonzero((sorted_sc[1:] != sorted_sc[:-1]).any(axis=1)) + 1,
            sc.shape[0],
        ]
        uniq = sorted_sc[bounds[:-1]]
        # occupied center cells inside each super-cell's search window
        lo = uniq * _SUPER - reach
        hi = uniq * _SUPER + (_SUPER - 1) + reach
        step = max(1, _WINDOW_ELEMS // max(1, occ.size))
        for c0 in range(0, uniq.shape[0], step):
            inside = (
                (occ[None, :, :] >= lo[c0 : c0 + step, None, :])
                & (occ[None, :, :] <= hi[c0 : c0 + step, None, :])
            ).all(axis=2)
            for u_off, row in enumerate(inside):
                cells = np.flatnonzero(row)
                if cells.size == 0:
                    continue
                if cells.size == 1:
                    ids = buckets[cells[0]]
                else:
                    ids = np.sort(np.concatenate([buckets[c] for c in cells]))
                u = c0 + u_off
                yield order[bounds[u] : bounds[u + 1]], ids
