"""The μDBSCAN driver — Algorithm 2.

Orchestrates the four steps and reports per-phase timings under the
names of the paper's Table III:

1. ``tree_construction``          — Algorithm 3,
2. ``finding_reachable_groups``   — Algorithm 5 + the level-2 blocks,
3. ``clustering``                 — Algorithms 4 and 6,
4. ``post_processing``            — Algorithms 7 and 8.

Exactness (Theorem 1) is asserted against brute-force DBSCAN by the
test suite; the counters record the query savings the paper reports in
Table II.
"""

from __future__ import annotations

import contextlib
from typing import Any

import numpy as np

from repro.core.extras import ExtraKeys
from repro.core.params import DBSCANParams
from repro.core.postprocess import postprocess_core, postprocess_noise
from repro.core.process_mcs import process_micro_clusters
from repro.core.remaining import process_remaining_points
from repro.core.result import ClusteringResult
from repro.core.state import MuDBSCANState
from repro.geometry.metrics import EUCLIDEAN, Metric
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer
from repro.microcluster.microcluster import MCKind
from repro.microcluster.murtree import MuRTree
from repro.observability.adapters import publish_run
from repro.observability.profiler import PhaseProfiler, current_profiler, maybe_profile
from repro.observability.registry import get_registry
from repro.observability.tracing import Tracer, maybe_span

__all__ = ["mu_dbscan", "run_mu_dbscan_state", "fit_state", "MuDBSCAN"]


def run_mu_dbscan_state(
    points: np.ndarray,
    params: DBSCANParams,
    *,
    defer_2eps: bool = True,
    dynamic_wndq: bool = True,
    max_entries: int = 64,
    metric: str | Metric = EUCLIDEAN,
    counters: Counters | None = None,
    timers: PhaseTimer | None = None,
    process_mask: np.ndarray | None = None,
    state_factory=MuDBSCANState,
    progress_cb=None,
) -> tuple[MuDBSCANState, PhaseTimer]:
    """Run μDBSCAN and return the raw state (flags + merge components).

    This is the entry point the distributed driver uses: the local step
    of μDBSCAN-D needs the core flags and the merge components of the
    local-plus-halo point set, not just final labels.  ``process_mask``
    restricts Algorithm 6 to the masked (owned) rows, and
    ``state_factory`` lets μDBSCAN-D substitute its ownership-aware
    state subclass.

    ``progress_cb(consumed, eligible)`` is forwarded to Algorithm 6's
    consumption loop — distributed ranks hang their monitoring
    heartbeats on it.

    Each phase also passes through :func:`maybe_profile`, so with a
    profiler active on this thread (see
    :class:`~repro.observability.profiler.PhaseProfiler`) the run
    yields a per-phase memory split-up; off, the hook is one
    thread-local read per phase.
    """
    counters = counters if counters is not None else Counters()
    timers = timers if timers is not None else PhaseTimer()

    with timers.phase("tree_construction"), maybe_span(
        "tree_construction"
    ) as span, maybe_profile("tree_construction", span=span):
        murtree = MuRTree(
            points,
            params.eps,
            defer_2eps=defer_2eps,
            max_entries=max_entries,
            counters=counters,
            metric=metric,
        )
    with timers.phase("finding_reachable_groups"), maybe_span(
        "finding_reachable_groups"
    ) as span, maybe_profile("finding_reachable_groups", span=span):
        murtree.compute_reachability()

    state = state_factory(murtree, params, counters)
    with timers.phase("clustering"), maybe_span("clustering") as span, maybe_profile(
        "clustering", span=span
    ):
        process_micro_clusters(state)
        process_remaining_points(
            state,
            dynamic_wndq=dynamic_wndq,
            process_mask=process_mask,
            progress_cb=progress_cb,
        )
    with timers.phase("post_processing"), maybe_span(
        "post_processing"
    ) as span, maybe_profile("post_processing", span=span):
        postprocess_core(state)
        postprocess_noise(state)
        state.components()  # fold the last edges; charges counters.unions

    eligible = state.n if process_mask is None else int(np.count_nonzero(process_mask))
    counters.queries_saved += eligible - counters.queries_run
    return state, timers


def fit_state(
    points: np.ndarray,
    params: DBSCANParams,
    **knobs: Any,
) -> tuple[MuDBSCANState, PhaseTimer, dict]:
    """One sequential fit as :func:`mu_dbscan` and ``fit_model`` run it.

    Runs :func:`run_mu_dbscan_state` (``knobs`` pass through) under a
    ``fit`` span, publishes the work counters and phase timings to the
    active metrics registry, and returns the state, its timers and the
    result extras (MC count and size, wndq-core count, DMC/CMC/SMC
    split, metric).
    """
    with maybe_span(
        "fit",
        n=int(points.shape[0]),
        eps=params.eps,
        min_pts=params.min_pts,
        engine="exact",
    ):
        state, timers = run_mu_dbscan_state(points, params, **knobs)
    publish_run(get_registry(), state.counters, timers, algorithm="mu_dbscan")
    murtree = state.murtree
    kind_counts = {kind.name: 0 for kind in MCKind}
    for mc in murtree.mcs:
        kind_counts[mc.kind(params.min_pts).name] += 1
    extras = {
        ExtraKeys.N_MICRO_CLUSTERS: murtree.n_micro_clusters,
        ExtraKeys.AVG_MC_SIZE: murtree.avg_mc_size,
        ExtraKeys.N_WNDQ_CORE: len(state.wndq_corelist),
        ExtraKeys.MC_KIND_COUNTS: kind_counts,
        ExtraKeys.METRIC: murtree.metric.name,
    }
    return state, timers, extras


def mu_dbscan(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    defer_2eps: bool = True,
    dynamic_wndq: bool = True,
    max_entries: int = 64,
    metric: str | Metric = EUCLIDEAN,
    timers: PhaseTimer | None = None,
    tracer: Tracer | None = None,
    profiler: PhaseProfiler | None = None,
) -> ClusteringResult:
    """Cluster ``points`` with μDBSCAN (exact DBSCAN semantics).

    Parameters
    ----------
    points:
        ``(n, d)`` float array.
    eps, min_pts:
        DBSCAN density parameters (strict-< ε, self counted — see
        DESIGN.md §6).
    defer_2eps, dynamic_wndq, max_entries:
        Design knobs; the defaults reproduce the paper's algorithm, the
        alternatives are the DESIGN.md §5 ablations.
    metric:
        ``"euclidean"`` (default), ``"manhattan"`` or ``"chebyshev"``,
        or a :class:`~repro.geometry.metrics.Metric` instance.
    timers:
        Optional externally-constructed :class:`PhaseTimer` — pass one
        built on ``time.thread_time`` to make a sequential run directly
        comparable to μDBSCAN-D's per-rank CPU timings.
    tracer:
        Optional :class:`~repro.observability.tracing.Tracer`; when
        given (or when one is already active on this thread) the run
        produces a ``fit`` span with the four phases nested under it.
        Work counters and phase timings are also published to the
        active :class:`~repro.observability.registry.MetricsRegistry`
        (the default registry is disabled, so this costs nothing unless
        one is installed).
    profiler:
        Optional :class:`~repro.observability.profiler.PhaseProfiler`;
        when given (or when one is already active on this thread) each
        phase records its tracemalloc delta/peak and RSS — the Table
        IV-style memory split-up — into the profiler and, when a tracer
        runs alongside, onto the phase spans.  The profile also lands
        in ``extras["memory_profile"]``.

    Returns
    -------
    :class:`~repro.core.result.ClusteringResult` with dense labels
    (``-1`` = noise), the core mask, work counters (query savings) and
    per-phase timings.
    """
    params = DBSCANParams(eps=eps, min_pts=min_pts)
    pts = np.asarray(points)
    activation = tracer.activate() if tracer is not None else contextlib.nullcontext()
    profiler = profiler if profiler is not None else current_profiler()
    profiling = (
        profiler.activate() if profiler is not None else contextlib.nullcontext()
    )
    with activation, profiling:
        state, timers, extras = fit_state(
            pts,
            params,
            defer_2eps=defer_2eps,
            dynamic_wndq=dynamic_wndq,
            max_entries=max_entries,
            metric=metric,
            timers=timers,
        )
    if profiler is not None:
        extras[ExtraKeys.MEMORY_PROFILE] = profiler.as_dict()
    return ClusteringResult(
        labels=state.labels(),
        core_mask=state.core.copy(),
        params=params,
        algorithm="mu_dbscan",
        counters=state.counters,
        timers=timers,
        extras=extras,
    )


class MuDBSCAN:
    """Estimator-style wrapper around :func:`mu_dbscan`.

    Mirrors the scikit-learn DBSCAN surface (``fit`` / ``fit_predict``
    plus ``labels_`` and ``core_sample_mask_``) so downstream users can
    drop it into existing pipelines.  Configuration is introspectable
    sklearn-style: ``get_params()`` returns a dict that round-trips
    through ``MuDBSCAN(**params)``, and ``repr()`` shows the
    non-default settings.
    """

    #: constructor keywords in declaration order (get_params/__repr__)
    _PARAM_NAMES = (
        "eps",
        "min_pts",
        "defer_2eps",
        "dynamic_wndq",
        "max_entries",
        "metric",
    )

    def __init__(
        self,
        eps: float,
        min_pts: int,
        *,
        defer_2eps: bool = True,
        dynamic_wndq: bool = True,
        max_entries: int = 64,
        metric: str | Metric = EUCLIDEAN,
    ) -> None:
        # validate eagerly so misuse fails at construction
        self.params = DBSCANParams(eps=eps, min_pts=min_pts)
        self.defer_2eps = defer_2eps
        self.dynamic_wndq = dynamic_wndq
        self.max_entries = max_entries
        self.metric = metric
        self.result_: ClusteringResult | None = None

    def get_params(self) -> dict:
        """Constructor configuration; ``MuDBSCAN(**params)`` round-trips."""
        out = {
            name: getattr(self, name)
            for name in self._PARAM_NAMES
            if name not in ("eps", "min_pts")
        }
        out["eps"] = self.params.eps
        out["min_pts"] = self.params.min_pts
        return {name: out[name] for name in self._PARAM_NAMES}

    def __repr__(self) -> str:
        import inspect

        defaults = {
            name: p.default
            for name, p in inspect.signature(type(self).__init__).parameters.items()
        }
        params = self.get_params()
        parts = []
        for name in self._PARAM_NAMES:
            value = params[name]
            default = defaults.get(name, inspect.Parameter.empty)
            if name in ("eps", "min_pts") or value != default:
                parts.append(f"{name}={value!r}")
        return f"{type(self).__name__}({', '.join(parts)})"

    def fit(self, points: np.ndarray) -> "MuDBSCAN":
        """Cluster ``points``; results land in ``labels_`` etc."""
        self.result_ = mu_dbscan(
            points,
            self.params.eps,
            self.params.min_pts,
            defer_2eps=self.defer_2eps,
            dynamic_wndq=self.dynamic_wndq,
            max_entries=self.max_entries,
            metric=self.metric,
        )
        return self

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        """Cluster ``points`` and return the labels."""
        return self.fit(points).labels_

    def _require_fitted(self) -> ClusteringResult:
        if self.result_ is None:
            raise RuntimeError("call fit() before reading results")
        return self.result_

    @property
    def labels_(self) -> np.ndarray:
        return self._require_fitted().labels

    @property
    def core_sample_mask_(self) -> np.ndarray:
        return self._require_fitted().core_mask

    @property
    def n_clusters_(self) -> int:
        return self._require_fitted().n_clusters
