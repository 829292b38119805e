"""repro — a full reproduction of *μDBSCAN: An Exact Scalable DBSCAN
Algorithm for Big Data Exploiting Spatial Locality* (IEEE CLUSTER 2019).

Quickstart::

    import numpy as np
    from repro import fit

    points = np.random.default_rng(0).normal(size=(10_000, 3))
    result = fit(points, eps=0.25, min_pts=5)
    print(result.summary())
    print(f"queries saved: {result.counters.query_save_fraction:.0%}")

Layout:

* :mod:`repro.core` — μDBSCAN itself (Algorithms 2-8), the only batch
  clustering engine: every fit path is exact.
* :mod:`repro.microcluster` — micro-clusters and the two-level μR-tree.
* :mod:`repro.index` — R-tree / kd-tree / grid / brute spatial indexes.
* :mod:`repro.baselines` — the sequential comparison algorithms.
* :mod:`repro.distributed` — μDBSCAN-D and the distributed baselines on
  a simulated MPI substrate.
* :mod:`repro.data` — synthetic stand-ins for the paper's datasets.
* :mod:`repro.streaming` — exact incremental clustering of a live window.
* :mod:`repro.validation` — the exactness checker and quality metrics.
* :mod:`repro.instrumentation` — counters, timers, memory, tables.
* :mod:`repro.serving` — model persistence + online prediction serving
  (``fit_model`` → ``save_model`` → ``QueryEngine`` / ``mudbscan serve``).
* :mod:`repro.observability` — metrics registry, tracing and
  Prometheus exposition (off by default; see docs/OBSERVABILITY.md).

The stable surface is the five facade verbs — ``fit``,
``fit_distributed``, ``stream``, ``load_model``, ``suggest_eps`` —
plus the names in ``__all__``; see docs/API.md.
"""

from repro._version import __version__
from repro.core.extras import ExtraKeys
from repro.core.mudbscan import mu_dbscan, MuDBSCAN
from repro.core.params import DBSCANParams
from repro.core.result import ClusteringResult
from repro.baselines import brute_dbscan, rtree_dbscan, g_dbscan, grid_dbscan
from repro.validation.exactness import check_exact, assert_exact
from repro.validation.definition import validate_definition
from repro.neighbors import suggest_eps, k_distances
from repro.streaming import StreamingMuDBSCAN
from repro.geometry.metrics import get_metric
from repro.serving import (
    FittedModel,
    QueryEngine,
    fit_model,
    load_model,
    predict_model,
    save_model,
)
from repro import api
from repro.api import fit, fit_distributed, stream

__all__ = [
    "__version__",
    "api",
    "fit",
    "fit_distributed",
    "stream",
    "ExtraKeys",
    "mu_dbscan",
    "MuDBSCAN",
    "DBSCANParams",
    "ClusteringResult",
    "brute_dbscan",
    "rtree_dbscan",
    "g_dbscan",
    "grid_dbscan",
    "check_exact",
    "assert_exact",
    "validate_definition",
    "suggest_eps",
    "k_distances",
    "StreamingMuDBSCAN",
    "get_metric",
    "FittedModel",
    "QueryEngine",
    "fit_model",
    "save_model",
    "load_model",
    "predict_model",
]
