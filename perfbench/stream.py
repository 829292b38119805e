"""Workload ``stream``: streaming writes beside reads of the served model.

A drifting 3-D stream goes through
``StreamingEngine(StreamingMuDBSCAN(eps=0.08, min_pts=20, window=4000))``.
Each cycle calls ``apply(inserts=500 rows, deletes=25 random live ids)``
-- window expiry and the in-place refresh of the served model happen
inside that call -- and then reads 64 rows near the stream head with
``predict_model``.  The micro-cluster index and the served model are
used the other way round from ``batch``: continually maintained and
rebuilt, so a change that makes them faster to query but slower to
maintain shows here.

End-to-end: ``build_p50_ms`` is one ``apply()`` (from the call until the
served model reflects it), ``read_p50_ms`` / ``read_tail_ms`` (p75) one
64-row read, which pays the lazy rebuild of the serving index.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

import common
import gen
from common import now
from spans import layer_targets

EPS = 0.08
MIN_PTS = 20
WINDOW = 4000
INSERTS = 500
DELETES = 25
READ_ROWS = 64
READ_JITTER = 0.02
READ_TAIL = 75
#: cycles in each pass of the traced run
TRACED_CYCLES = 20


class _Stream:
    """One live stream with its served model; keeps every cycle's
    outputs for the checks that run after the clock stops."""

    def __init__(self, seed: int, scale: float, spans=None) -> None:
        from repro.serving.streaming import StreamingEngine
        from repro.streaming import StreamingMuDBSCAN

        self.seed, self.spans = seed, spans
        self.window = max(500, int(WINDOW * scale))
        self.inserts = max(60, int(INSERTS * scale))
        self.deletes = max(3, int(DELETES * scale))
        stream = StreamingMuDBSCAN(eps=EPS, min_pts=MIN_PTS, window=self.window)
        for lo in range(0, self.window, self.inserts):
            stream.partial_fit(gen.drift(seed, lo, min(self.inserts, self.window - lo)))
        self.engine = StreamingEngine(stream)
        self.head = self.window
        self.cycle_no = 0
        self.applies: list[float] = []
        self.reads: list[float] = []
        self.updates = 0
        self.checks: list[tuple] = []
        self.mismatched_snapshots = 0
        self.repaired: list[int] = []

    def cycle(self, counters=None) -> None:
        from repro.serving import predict_model

        stream, model = self.engine.stream, self.engine.model
        r = gen.rng(self.seed, gen.DELETE, self.cycle_no)
        live = stream.ids_
        survivors = live[max(0, live.size + self.inserts - self.window):]
        dels = r.choice(survivors, size=self.deletes, replace=False)
        rows = gen.drift(self.seed, self.head, self.inserts)
        expired0 = stream.n_expired_total
        q = gen.near_rows(gen.rng(self.seed, gen.READ, self.cycle_no), rows,
                          READ_ROWS, READ_JITTER)
        self.head += self.inserts
        self.cycle_no += 1

        t0 = now()
        stats = self.engine.apply(inserts=rows, deletes=dels)
        t1 = now()
        with self.spans.span("serving.predict") if self.spans else nullcontext():
            ans = predict_model(model, q, counters=counters)
        t2 = now()

        self.applies.append(t1 - t0)
        self.reads.append(t2 - t1)
        self.updates += rows.shape[0] + dels.size + stream.n_expired_total - expired0
        self.repaired.append(int(stats.get("repaired_rows", 0)))
        if not (np.array_equal(model.points, stream.window_points)
                and np.array_equal(model.core_mask, stream.core_sample_mask_)):
            self.mismatched_snapshots += 1
        # refresh replaces the model's arrays, so these stay a snapshot
        self.checks.append((model.points, model.labels, model.core_mask, q, ans))

    def check(self, tally) -> None:
        """Every read against ``brute_predict`` on the window it read,
        each served snapshot against the stream, and the final window
        against a batch refit."""
        from repro.serving import brute_predict

        tally.op(2 * len(self.applies) + 1)  # applies, reads, final parity
        if self.mismatched_snapshots:
            tally.fail("served model does not reflect the stream",
                       self.mismatched_snapshots)
        for i, (pts, labels, core, q, ans) in enumerate(self.checks):
            want = brute_predict(pts, labels, core, EPS, MIN_PTS, q)
            got = {f: getattr(ans, f) for f in
                   ("labels", "would_be_core", "nearest_core", "n_neighbors")}
            if not tally.labels_ok(got, want, np.arange(q.shape[0])):
                tally.fail(f"read {i} differs from brute_predict")
        parity = self.engine.check_parity()
        if not parity.ok:
            tally.fail(f"window parity failed: {parity}")


def run(seed: int, seconds: float, scale: float, tally) -> tuple[dict, dict]:
    setups = []
    for _ in range(common.SETUP_REPEATS):
        t0 = now()
        s = _Stream(seed, scale)
        setups.append(now() - t0)

    deadline = now() + seconds
    t0 = now()
    while not s.applies or now() < deadline:
        s.cycle()
    wall = now() - t0
    s.check(tally)
    apply_ms = np.array(s.applies) * 1e3
    details = {
        "setup_s_samples": setups,
        "cycles": len(s.applies),
        "updates_per_s": s.updates / wall,
        "visible_ms": common.tail_report(apply_ms, READ_TAIL),
        "read_ms": common.tail_report(np.array(s.reads) * 1e3, READ_TAIL),
    }
    metrics = {
        "setup_s": common.median(setups),
        "build_p50_ms": common.median(apply_ms),
        "read_p50_ms": common.median(s.reads) * 1e3,
        "read_tail_ms": common.percentile(s.reads, READ_TAIL) * 1e3,
    }
    return metrics, details


def run_traced(seed: int, seconds: float, scale: float, tally, spans) -> tuple[dict, dict]:
    """The same cycles from the same start, untraced then traced."""
    from repro.instrumentation.counters import Counters

    plain = _Stream(seed, scale)
    t0 = now()
    for _ in range(TRACED_CYCLES):
        plain.cycle()
    untraced_s = now() - t0
    plain.check(tally)

    traced = _Stream(seed, scale, spans)
    counters = traced.engine.stream.counters
    before = counters.to_dict()
    serving = Counters()
    nodes = 0
    with spans.patched(layer_targets()):
        t0 = now()
        for _ in range(TRACED_CYCLES):
            traced.cycle(serving)
            nodes += traced.engine.model.serving_counters.nodes_visited
        traced_s = now() - t0
    traced.check(tally)

    delta = {k: v - before[k] for k, v in counters.to_dict().items() if k != "extra"}
    model = traced.engine.model
    n = TRACED_CYCLES
    k = n * READ_ROWS
    queries = np.vstack([c[3] for c in plain.checks])
    saved, ran = delta["queries_saved"], delta["queries_run"]

    def mean_ms(name):
        d = spans.durations(name)
        return sum(d) / len(d) * 1e3 if d else 0.0

    values = {
        "microcluster.build_s": spans.total("microcluster.build"),
        "microcluster.reach_s": spans.total("microcluster.reach"),
        "microcluster.n_mcs": model.n_micro_clusters,
        "core.clustering_s": spans.total("core.clustering"),
        "core.queries_run": ran,
        "core.query_save_frac": saved / (saved + ran) if saved + ran else 0.0,
        "core.dist_calcs": delta["dist_calcs"],
        "core.postprocess_s": spans.total("core.postprocess"),
        "unionfind.unions": delta["unions"],
        "serving.predict_qps": k / sum(plain.reads),
        "serving.predict_ms_per_kq": sum(plain.reads) * 1e3 / (k / 1000.0),
        "serving.nodes_per_query": nodes / k,
        "serving.dist_calcs_per_query": serving.dist_calcs / k,
        "serving.kernel_ms": common.median(plain.reads) * 1e3,
        "streaming.updates_per_s": plain.updates / untraced_s,
        "streaming.visible_tail_ms": common.percentile(plain.applies, READ_TAIL) * 1e3,
        "streaming.insert_ms": mean_ms("streaming.insert"),
        "streaming.delete_ms": mean_ms("streaming.delete"),
        "streaming.compact_ms": spans.total("streaming.compact") * 1e3 / n,
        "streaming.probes_per_batch": ran / n,
        "streaming.repaired_rows_per_batch": sum(traced.repaired) / n,
        "serving.refresh_ms": mean_ms("serving.refresh"),
        "serving.index_rebuild_ms": mean_ms("serving.index_rebuild"),
        **common.ckdtree_yardstick(model.points, model.core_mask, queries, EPS),
        **common.self_time_metrics(spans),
        "bench.trace_overhead_s": traced_s - untraced_s,
        "bench.trace_overhead_frac": (traced_s - untraced_s) / untraced_s,
    }
    details = {"untraced_s": untraced_s, "traced_s": traced_s, "cycles": n,
               "counter_delta": delta}
    return values, details
