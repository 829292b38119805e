"""Reachable micro-clusters — Algorithm 5 (FIND-REACHABLE-MC).

``MC(q)`` is *reachable* from ``MC(p)`` when their centers are at most
``3 eps`` apart.  Lemma 3: the ε-neighborhood of any member of ``MC(p)``
lies entirely inside the union of ``MC(p)``'s reachable MCs, so every
neighborhood query afterwards touches only the reachable list — this is
the paper's first search-space reduction.

The list is symmetric and includes the MC itself (center distance 0).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.metrics import EUCLIDEAN, Metric
from repro.geometry.regions import sphere_intersects_rects_block
from repro.instrumentation.counters import Counters
from repro.microcluster.microcluster import MicroCluster

__all__ = ["compute_reachable"]

#: center rows per ``m × m`` sweep block — bounds the transient
#: (block x m) matrices
_BLOCK_ROWS = 4096


def compute_reachable(
    mcs: list[MicroCluster],
    eps: float,
    counters: Counters | None = None,
    metric: Metric = EUCLIDEAN,
) -> None:
    """Populate ``mc.reach_ids`` for every MC (ids sorted ascending).

    With the ``m`` centers as one matrix, an ``m × m`` sweep (chunked
    to bound memory) shortlists, per MC, the candidate MCs whose
    ``center ± eps`` box touches the ball ``B(center, 3 eps)`` — the
    first-level tree's leaf-level ball-vs-box predicate, charged to
    ``dist_calcs`` per candidate — and keeps those passing the exact
    ``<= 3 eps`` center-distance test.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    counters = counters if counters is not None else Counters()
    m = len(mcs)
    if m == 0:
        return
    centers = np.ascontiguousarray(np.stack([mc.center for mc in mcs]))
    cover = metric.l2_cover_factor(centers.shape[1])
    radius = 3.0 * eps * cover
    limit_raw = metric.threshold(3.0 * eps)
    lows = centers - eps
    highs = centers + eps
    for start in range(0, m, _BLOCK_ROWS):
        sub = centers[start : start + _BLOCK_ROWS]
        hit = sphere_intersects_rects_block(sub, radius, lows, highs)
        counters.dist_calcs += int(hit.sum())
        raw = metric.raw_pairwise_stable(sub, centers)
        ok = hit & (raw <= limit_raw)
        for i in range(sub.shape[0]):
            mcs[start + i].reach_ids = np.flatnonzero(ok[i]).astype(np.int64)
