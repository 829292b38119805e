"""Adapters publishing the legacy instrumentation into the registry.

The four pre-existing measurement pieces — :class:`Counters`,
:class:`PhaseTimer`, :class:`LatencyWindow` and the backends'
byte/message accounting — keep their own APIs (every algorithm and
test already speaks them).  These adapters are the one-way bridge into
:class:`~repro.observability.registry.MetricsRegistry`:

* the **collector** classes snapshot a live object at scrape time
  (register with :meth:`MetricsRegistry.register_collector`) — zero
  hot-path cost, which is how the serving engine exposes its counters
  and window percentiles without touching the request path;
* the **publish** functions push a finished run's numbers in one shot
  (fit results, per-rank communication volumes) — how batch runs land
  in a ``--metrics-out`` artifact.

Metric names follow the catalog in docs/OBSERVABILITY.md
(``mudbscan_<subsystem>_<quantity>[_total|_seconds]``).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.instrumentation.counters import Counters
from repro.instrumentation.latency import LatencyWindow
from repro.instrumentation.timers import PhaseTimer
from repro.observability.registry import FamilySnapshot, MetricsRegistry, Sample

__all__ = [
    "CountersCollector",
    "LatencyWindowCollector",
    "PhaseTimerCollector",
    "publish_comm_stats",
    "publish_run",
]

_LabelsIn = Mapping[str, str] | None


def _labels(labels: _LabelsIn) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((labels or {}).items()))


class CountersCollector:
    """Scrape-time view of a live :class:`Counters` as counter families."""

    def __init__(
        self,
        counters: Counters,
        namespace: str = "mudbscan_work",
        labels: _LabelsIn = None,
    ) -> None:
        self.counters = counters
        self.namespace = namespace
        self.label_set = _labels(labels)

    def __call__(self) -> Iterable[FamilySnapshot]:
        snap = self.counters.as_dict()
        fraction = snap.pop("query_save_fraction")
        for key, value in sorted(snap.items()):
            name = f"{self.namespace}_{key}_total"
            yield FamilySnapshot(
                name,
                "counter",
                f"accumulated {key.replace('_', ' ')}",
                [Sample(name, self.label_set, float(value))],
            )
        name = f"{self.namespace}_query_save_fraction"
        yield FamilySnapshot(
            name,
            "gauge",
            "fraction of neighborhood queries avoided",
            [Sample(name, self.label_set, float(fraction))],
        )


class PhaseTimerCollector:
    """Scrape-time view of a :class:`PhaseTimer` as one labelled gauge."""

    def __init__(
        self,
        timers: PhaseTimer,
        name: str = "mudbscan_phase_seconds",
        labels: _LabelsIn = None,
    ) -> None:
        self.timers = timers
        self.name = name
        self.label_set = _labels(labels)

    def __call__(self) -> Iterable[FamilySnapshot]:
        samples = [
            Sample(self.name, self.label_set + (("phase", phase),), seconds)
            for phase, seconds in sorted(self.timers.as_dict().items())
        ]
        yield FamilySnapshot(
            self.name, "gauge", "accumulated seconds per named phase", samples
        )


class LatencyWindowCollector:
    """Scrape-time percentiles of a :class:`LatencyWindow`.

    The window is a bounded ring, so these are *windowed* quantile
    gauges (plus the lifetime observation counter) — the cumulative
    histogram the engine also feeds is the series to rate()/aggregate;
    the window gauges are the human-friendly p50/p99 readouts.
    """

    def __init__(
        self,
        window: LatencyWindow,
        namespace: str = "mudbscan_serving_latency_window",
        labels: _LabelsIn = None,
    ) -> None:
        self.window = window
        self.namespace = namespace
        self.label_set = _labels(labels)

    def __call__(self) -> Iterable[FamilySnapshot]:
        stats = self.window.stats()
        name = f"{self.namespace}_observations_total"
        yield FamilySnapshot(
            name,
            "counter",
            "lifetime latency observations",
            [Sample(name, self.label_set, float(stats["count"]))],
        )
        for key in ("mean", "p50", "p99", "max"):
            value = stats[key]
            if value is None:
                continue
            name = f"{self.namespace}_{key}_seconds"
            yield FamilySnapshot(
                name,
                "gauge",
                f"{key} latency over the recent window",
                [Sample(name, self.label_set, float(value))],
            )


def publish_run(
    registry: MetricsRegistry,
    counters: Counters,
    timers: PhaseTimer,
    *,
    algorithm: str = "mu_dbscan",
    engine: str = "exact",
) -> None:
    """Push one finished run's counters + phase timings into ``registry``.

    Called by the fit path after the state machine completes (no-op on
    a disabled registry), so ``--metrics-out`` and the run-report
    renderer read the same numbers the :class:`ClusteringResult`
    carries.  Phase seconds accumulate across runs into the same
    labelled series; re-use one registry per run for per-run reports.
    ``engine`` tags every family with the producing clustering engine
    — ``"exact"`` for batch fits, ``"streaming"`` for the incremental
    clusterer — so batch and streaming runs stay separable in one
    registry.
    """
    if not registry.enabled:
        return
    phase_gauge = registry.gauge(
        "mudbscan_phase_seconds",
        "accumulated seconds per named phase",
        labels=("algorithm", "engine", "phase"),
    )
    for phase, seconds in timers.as_dict().items():
        phase_gauge.labels(algorithm=algorithm, engine=engine, phase=phase).inc(seconds)
    counts = counters.as_dict()
    fraction = counts.pop("query_save_fraction")
    for key, value in counts.items():
        registry.counter(
            f"mudbscan_work_{key}_total",
            f"accumulated {key.replace('_', ' ')}",
            labels=("algorithm", "engine"),
        ).labels(algorithm=algorithm, engine=engine).inc(float(value))
    registry.gauge(
        "mudbscan_work_query_save_fraction",
        "fraction of neighborhood queries avoided",
        labels=("algorithm", "engine"),
    ).labels(algorithm=algorithm, engine=engine).set(float(fraction))
    registry.counter(
        "mudbscan_runs_total",
        "completed clustering runs",
        labels=("algorithm", "engine"),
    ).labels(algorithm=algorithm, engine=engine).inc()


def publish_comm_stats(
    registry: MetricsRegistry,
    *,
    backend: str,
    per_rank: Iterable[tuple[int, int, int]],
) -> None:
    """Push μDBSCAN-D communication volume (``(rank, bytes, messages)``
    triples) into per-rank labelled counters plus run totals."""
    if not registry.enabled:
        return
    bytes_fam = registry.counter(
        "mudbscan_comm_bytes_sent_total",
        "payload bytes pushed into the network, per rank",
        labels=("backend", "rank"),
    )
    msg_fam = registry.counter(
        "mudbscan_comm_messages_sent_total",
        "point-to-point messages sent, per rank",
        labels=("backend", "rank"),
    )
    for rank, nbytes, messages in per_rank:
        bytes_fam.labels(backend=backend, rank=str(rank)).inc(float(nbytes))
        msg_fam.labels(backend=backend, rank=str(rank)).inc(float(messages))
