"""The micro-cluster record and its classification.

Definitions (paper §IV-B, Fig. 2) with this repo's strict-inequality
semantics (DESIGN.md §6):

* ``MC(p)``: center point ``p`` plus every assigned point ``q`` with
  ``dist(q, p) < eps``.  The center is a member of its own MC.
* inner circle ``IC``: members with ``dist(q, p) < eps / 2`` — the
  center included (distance 0), so all IC pairwise distances are
  strictly below ``eps`` and Lemma 1 holds with no boundary cases.
* **DMC** (dense): ``|IC| >= MinPts``  → every IC point is core
  without a neighborhood query (Lemma 1).
* **CMC** (core): ``|MC| >= MinPts``   → the center is core (Lemma 2).
* **SMC** (sparse): everything else.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.geometry.mbr import mbr_of_points
from repro.geometry.metrics import EUCLIDEAN, Metric

__all__ = ["MicroCluster", "MCKind"]


class MCKind(enum.Enum):
    """Micro-cluster classification (paper Fig. 2)."""

    DMC = "dense"
    CMC = "core"
    SMC = "sparse"


class MicroCluster:
    """One micro-cluster.

    Built incrementally (members appended as Algorithm 3 assigns
    points), then *frozen* once construction finishes — freezing
    materialises the member-index array, a contiguous copy of the member
    coordinates (for vectorized ε-queries), the tight member MBR and the
    inner-circle rows.

    Attributes
    ----------
    mc_id:
        Dense id of this MC (row in the owning ``MuRTree``'s list).
    center_row:
        Global dataset index of the center point.
    center:
        The center's coordinate vector (view into the dataset).
    """

    __slots__ = (
        "mc_id",
        "center_row",
        "center",
        "_pending_rows",
        "member_rows",
        "member_points",
        "mbr_low",
        "mbr_high",
        "ic_rows",
        "reach_ids",
        "reach_rows",
        "reach_points",
    )

    def __init__(self, mc_id: int, center_row: int, center: np.ndarray) -> None:
        self.mc_id = mc_id
        self.center_row = int(center_row)
        self.center = np.asarray(center, dtype=np.float64)
        self._pending_rows: list[int] | None = [int(center_row)]
        self.member_rows: np.ndarray | None = None
        self.member_points: np.ndarray | None = None
        self.mbr_low: np.ndarray | None = None
        self.mbr_high: np.ndarray | None = None
        self.ic_rows: np.ndarray | None = None
        self.reach_ids: np.ndarray | None = None
        #: cached concatenation of the reachable MCs' member rows/points
        #: (the μR-tree's level 2 — one vectorized scan per ε-query)
        self.reach_rows: np.ndarray | None = None
        self.reach_points: np.ndarray | None = None

    # ------------------------------------------------------------------
    # construction phase

    def add_member(self, row: int) -> None:
        """Assign dataset point ``row`` to this MC (pre-freeze only)."""
        if self._pending_rows is None:
            raise RuntimeError("cannot add members to a frozen MicroCluster")
        self._pending_rows.append(int(row))

    @property
    def frozen(self) -> bool:
        return self._pending_rows is None

    def freeze(self, points: np.ndarray, eps: float, metric: Metric = EUCLIDEAN) -> None:
        """Finalize membership and precompute query-side structures."""
        if self._pending_rows is None:
            raise RuntimeError("MicroCluster already frozen")
        rows = np.asarray(self._pending_rows, dtype=np.int64)
        self._pending_rows = None
        self._finalize(rows, points, eps, metric)

    def _finalize(
        self, rows: np.ndarray, points: np.ndarray, eps: float, metric: Metric
    ) -> None:
        self.member_rows = rows
        self.member_points = np.ascontiguousarray(points[rows], dtype=np.float64)
        self.mbr_low, self.mbr_high = mbr_of_points(self.member_points)
        raw = metric.raw_to_point(self.member_points, self.center)
        self.ic_rows = rows[raw < metric.threshold(eps * 0.5)]

    @classmethod
    def from_member_rows(
        cls,
        mc_id: int,
        center_row: int,
        member_rows: np.ndarray,
        points: np.ndarray,
        eps: float,
        metric: Metric = EUCLIDEAN,
    ) -> "MicroCluster":
        """Construct a frozen MC whose membership is known up front.

        Batch builders resolve whole assignment arrays before any
        ``MicroCluster`` exists; this skips the per-row ``add_member``
        path and freezes in one shot.  ``member_rows`` must lead with
        ``center_row`` (the center is always its MC's first member) and
        preserve the scan's assignment order — the frozen structures are
        then bit-identical to an incrementally-built-and-frozen MC.
        """
        rows = np.asarray(member_rows, dtype=np.int64)
        if rows.shape[0] == 0 or int(rows[0]) != int(center_row):
            raise ValueError("member_rows must start with center_row")
        mc = cls(mc_id, center_row, points[int(center_row)])
        mc._pending_rows = None
        mc._finalize(rows, points, eps, metric)
        return mc

    # ------------------------------------------------------------------
    # classification (valid after freeze)

    def __len__(self) -> int:
        if self.member_rows is not None:
            return int(self.member_rows.shape[0])
        assert self._pending_rows is not None
        return len(self._pending_rows)

    @property
    def ic_size(self) -> int:
        """|inner circle| (center included)."""
        if self.ic_rows is None:
            raise RuntimeError("inner circle is only available after freeze()")
        return int(self.ic_rows.shape[0])

    def kind(self, min_pts: int) -> MCKind:
        """DMC / CMC / SMC classification for the given ``MinPts``."""
        if self.ic_rows is None:
            raise RuntimeError("classification is only available after freeze()")
        if self.ic_size >= min_pts:
            return MCKind.DMC
        if len(self) >= min_pts:
            return MCKind.CMC
        return MCKind.SMC
