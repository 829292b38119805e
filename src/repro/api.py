"""The stable public surface of the library — five verbs.

Everything a user of the reproduction needs, importable from the
package root::

    from repro import fit, fit_distributed, load_model, stream, suggest_eps

    eps = suggest_eps(points, min_pts=60)
    result = fit(points, eps=eps, min_pts=60)
    result = fit_distributed(points, eps=eps, min_pts=60, n_ranks=4)
    model = load_model("model.mudb")

    clusterer = stream(eps=eps, min_pts=60, window=100_000)
    clusterer.partial_fit(batch)          # exact, incremental
    labels = clusterer.labels_

The facade commits to the unified parameter vocabulary (``eps``,
``min_pts``, ``n_ranks``, ``backend``) documented in docs/API.md.

Deep imports (``repro.core.mudbscan.mu_dbscan``,
``repro.distributed.mudbscan_d.mu_dbscan_d``,
``repro.serving.model.load_model`` …) remain supported — the facade
adds names, it removes none.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.mudbscan import mu_dbscan
from repro.core.result import ClusteringResult
from repro.distributed.mudbscan_d import mu_dbscan_d
from repro.neighbors import suggest_eps
from repro.serving.model import FittedModel, load_model
from repro.streaming.incremental import StreamingMuDBSCAN

__all__ = ["fit", "fit_distributed", "load_model", "stream", "suggest_eps"]


def fit(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    **opts: Any,
) -> ClusteringResult:
    """Cluster ``points`` with μDBSCAN (exact DBSCAN semantics).

    A direct alias of :func:`repro.core.mudbscan.mu_dbscan`; every
    keyword it accepts (``metric``, ``max_entries``, ``tracer``, the
    ablation switches …) passes through unchanged.
    """
    return mu_dbscan(points, eps, min_pts, **opts)


def fit_distributed(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    n_ranks: int,
    **opts: Any,
) -> ClusteringResult:
    """Cluster ``points`` with μDBSCAN-D on ``n_ranks`` ranks.

    A direct alias of :func:`repro.distributed.mudbscan_d.mu_dbscan_d`;
    ``backend`` ("thread" / "process"), ``sample_size``, ``seed``,
    ``tracer`` and the local μDBSCAN knobs pass through unchanged.
    """
    return mu_dbscan_d(points, eps, min_pts, n_ranks, **opts)


def stream(
    eps: float,
    min_pts: int,
    **opts: Any,
) -> StreamingMuDBSCAN:
    """Create an incremental clusterer for a live data stream.

    Returns a :class:`~repro.streaming.StreamingMuDBSCAN` with the
    sklearn-style maintenance surface: ``partial_fit(X)`` to insert,
    ``delete(ids)`` / ``expire(n)`` to remove, ``labels_`` / ``ids_`` /
    ``core_sample_mask_`` to read the current exact clustering, and
    ``to_fitted_model()`` to snapshot for serving.  The clustering is
    exact after every update — identical (up to relabeling) to
    :func:`fit` on the live window.

    Shares the batch vocabulary: ``metric`` and ``max_entries`` pass
    through, plus the streaming knobs ``window``, ``compact_every``,
    ``compact_dirty_fraction`` (docs/STREAMING.md).
    """
    return StreamingMuDBSCAN(eps, min_pts, **opts)


# load_model and suggest_eps need no wrapper — their canonical
# signatures already use the unified vocabulary; re-exported here so
# the four facade verbs live in one module.
_ = (load_model, suggest_eps, FittedModel)
