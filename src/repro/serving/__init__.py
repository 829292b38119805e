"""Model persistence + online prediction serving.

The fit→save→serve pipeline the production story needs:

* :mod:`repro.serving.model` — :class:`FittedModel`, the frozen
  versioned artifact of a μDBSCAN run (binary save/load with checksum;
  loading never re-runs Algorithm 3 — serving indexes are rebuilt from
  stored state).
* :mod:`repro.serving.predict` — exact online assignment of new points
  (nearest-core-within-ε rule, Lemma-3 2ε pruning through a batched
  ε-grid route, vectorized per-group blocks) plus the brute-force
  oracle the tests compare against.
* :mod:`repro.serving.engine` — thread-safe :class:`QueryEngine` with
  request micro-batching, LRU answer caching and latency/hit-rate
  instrumentation.
* :mod:`repro.serving.service` — the stdlib HTTP JSON endpoint behind
  ``mudbscan serve``.
* :mod:`repro.serving.fleet` — the sharded multi-worker fleet: spatial
  kd-routing with a 2ε exactness halo, shared-memory model loading,
  hot model swap, and the async admission-controlled front door.
* :mod:`repro.serving.streaming` — :class:`StreamingEngine`, applying a
  live insert/delete stream to a served :class:`FittedModel` in place
  (no refit, no swap) with staleness/compaction gauges on ``/metrics``.
* :mod:`repro.serving.loadgen` — the open-loop load-test harness
  behind ``mudbscan loadtest`` and ``perf_smoke --fleet``.

See docs/SERVING.md for the artifact format and the exactness argument.
"""

from repro.serving.model import (
    FORMAT_VERSION,
    FittedModel,
    ModelFormatError,
    fit_model,
    load_model,
    save_model,
)
from repro.serving.predict import PredictResult, brute_predict, predict_model
from repro.serving.engine import PredictRow, QueryEngine
from repro.serving.service import make_server, serve_forever, shutdown_gracefully
from repro.serving.fleet import (
    Fleet,
    FleetConfig,
    FrontDoor,
    ShardedPredictor,
    plan_shards,
    start_in_thread,
)
from repro.serving.streaming import StreamingEngine

__all__ = [
    "FORMAT_VERSION",
    "FittedModel",
    "ModelFormatError",
    "fit_model",
    "load_model",
    "save_model",
    "PredictResult",
    "predict_model",
    "brute_predict",
    "PredictRow",
    "QueryEngine",
    "make_server",
    "serve_forever",
    "shutdown_gracefully",
    "Fleet",
    "FleetConfig",
    "FrontDoor",
    "ShardedPredictor",
    "plan_shards",
    "start_in_thread",
    "StreamingEngine",
]
