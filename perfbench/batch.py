"""Workload ``batch``: offline fit, distributed fit and bulk predict.

20k points of 3-D blobs with 20% noise (ε=0.08, MinPts=60); the blob
layout is fixed and the run seed draws the points and queries.  The timed
loop repeats ``repro.fit``, ``repro.fit_distributed`` (2 ranks, process
backend) and 1024-row ``predict_model`` batches on fresh held-out
queries.  Post-processing dominates this fit, and it is the only
workload that runs ``repro.distributed``; its predict has no HTTP.

End-to-end: ``setup_s`` is data generation plus the ``fit_model`` and
serving index the predict batches read, ``build_p50_ms`` one
``repro.fit``, ``read_p50_ms`` / ``read_tail_ms`` one 1024-row predict
batch (p75 tail).  The traced run also measures the serving stack with
the ``serve`` workload's traffic (see ``serve.py``).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

import common
import gen
import serve
from common import now
from spans import Spans, layer_targets

EPS = 0.08
MIN_PTS = 60
N_POINTS = 20_000
N_RANKS = 2
BATCH_ROWS = 1024
#: predict batches after each fit and after each distributed fit
READS_PER_FIT = 8
#: rows of every predict batch checked against ``brute_predict``
CHECK_ROWS = 32
READ_TAIL = 75
#: predict batches in each pass of the traced run
TRACED_READS = 4


def _setup(seed: int, n: int):
    from repro.serving import fit_model

    pts = gen.blobs(seed, n)
    model = fit_model(pts, EPS, MIN_PTS)
    model.murtree  # the serving index, built before any timed read
    return pts, model


def _check_rows(seed: int, batch: int, k: int) -> np.ndarray:
    r = gen.rng(seed, gen.CHECK, batch)
    return np.sort(r.choice(k, size=min(CHECK_ROWS, k), replace=False))


class _Ops:
    """The three timed operations, with their outputs kept for the
    correctness checks that run after the clock stops."""

    def __init__(self, seed: int, pts, model, tally, spans=None) -> None:
        self.seed, self.pts, self.model, self.tally = seed, pts, model, tally
        self.spans = spans
        self.fits: list[tuple[float, object]] = []
        self.fit_ds: list[tuple[float, object]] = []
        self.reads: list[tuple[float, int, np.ndarray, object]] = []
        self.n_batches = 0

    def _span(self, name):
        return self.spans.span(name) if self.spans else nullcontext()

    def fit(self) -> None:
        import repro

        self.tally.op()
        with self._span("api.fit"):
            t0 = now()
            res = repro.fit(self.pts, EPS, MIN_PTS)
            self.fits.append((now() - t0, res))

    def fit_d(self) -> None:
        import repro

        self.tally.op()
        with self._span("api.fit_distributed"):
            t0 = now()
            res = repro.fit_distributed(
                self.pts, EPS, MIN_PTS, n_ranks=N_RANKS, backend="process"
            )
            self.fit_ds.append((now() - t0, res))

    def read(self, counters=None) -> None:
        from repro.serving import predict_model

        b = self.n_batches
        self.n_batches += 1
        q = gen.blob_queries(self.seed, b, BATCH_ROWS)
        self.tally.op()
        with self._span("serving.predict"):
            t0 = now()
            ans = predict_model(self.model, q, counters=counters)
            self.reads.append((now() - t0, b, q, ans))

    def check(self) -> None:
        """Fits against the brute-force oracle, predicts against
        ``brute_predict`` on a seeded sample of every batch."""
        from repro.baselines import brute_dbscan
        from repro.serving import brute_predict
        from repro.validation.exactness import check_exact

        oracle = brute_dbscan(self.pts, EPS, MIN_PTS)
        first = self.fits[0][1] if self.fits else None
        if first is not None and not check_exact(first, oracle, points=self.pts).ok:
            self.tally.fail("fit: not exact against brute_dbscan", len(self.fits))
        elif first is not None:
            want = first.fingerprint()
            for _, res in self.fits[1:]:
                if res.fingerprint() != want:
                    self.tally.fail("fit: fingerprint differs from the first fit")
            if self.model.to_result().fingerprint() != want:
                self.tally.fail("predict model: fingerprint differs from fit")
        for _, res in self.fit_ds:
            if not check_exact(res, oracle, points=self.pts).ok:
                self.tally.fail("fit_distributed: not exact against brute_dbscan")
        m = self.model
        for _, b, q, ans in self.reads:
            rows = _check_rows(self.seed, b, q.shape[0])
            want = brute_predict(m.points, m.labels, m.core_mask, EPS, MIN_PTS, q[rows])
            got = {f: getattr(ans, f)[rows] for f in
                   ("labels", "would_be_core", "nearest_core", "n_neighbors")}
            if not self.tally.labels_ok(got, want, np.arange(rows.size)):
                self.tally.fail(f"predict batch {b}: differs from brute_predict")


def run(seed: int, seconds: float, scale: float, tally) -> tuple[dict, dict]:
    n = max(600, int(N_POINTS * scale))
    setups = []
    for _ in range(common.SETUP_REPEATS):
        t0 = now()
        pts, model = _setup(seed, n)
        setups.append(now() - t0)

    ops = _Ops(seed, pts, model, tally)
    cycle = [ops.fit] + [ops.read] * READS_PER_FIT + [ops.fit_d] + [ops.read] * READS_PER_FIT
    deadline = now() + seconds
    i = 0
    # every operation runs at least once, then the cycle repeats until
    # the measuring time is up
    while i < len(cycle) or now() < deadline:
        cycle[i % len(cycle)]()
        i += 1
    ops.check()

    fit_s = [w for w, _ in ops.fits]
    read_s = [w for w, *_ in ops.reads]
    rows = sum(q.shape[0] for _, _, q, _ in ops.reads)
    details = {
        "setup_s_samples": setups,
        "fit_s": common.median(fit_s),
        "fit_d_s": common.median([w for w, _ in ops.fit_ds]),
        "predict_qps": rows / sum(read_s),
        "n_fits": len(fit_s),
        "n_fit_ds": len(ops.fit_ds),
        "read": common.tail_report(np.array(read_s) * 1e3, READ_TAIL),
        "n_micro_clusters": model.n_micro_clusters,
    }
    metrics = {
        "setup_s": common.median(setups),
        "build_p50_ms": common.median(fit_s) * 1e3,
        "read_p50_ms": common.median(read_s) * 1e3,
        "read_tail_ms": common.percentile(read_s, READ_TAIL) * 1e3,
    }
    return metrics, details


def _sequence(ops: _Ops, counters=None) -> float:
    """Fit, distributed fit and predict batches; returns the seconds of
    the in-process part (the ranks of the distributed fit run untraced
    in other processes, so their time would only add noise)."""
    t0 = now()
    ops.fit()
    t1 = now()
    ops.fit_d()
    t2 = now()
    for _ in range(TRACED_READS):
        ops.read(counters)
    return (t1 - t0) + (now() - t2)


def run_traced(seed: int, seconds: float, scale: float, tally, spans) -> tuple[dict, dict]:
    """One untraced and one traced pass of fit, distributed fit and
    predict batches on the same inputs; per-layer metrics come from the
    traced pass."""
    from repro.core.extras import ExtraKeys
    from repro.distributed.mudbscan_d import LOCAL_PHASES
    from repro.instrumentation.counters import Counters

    n = max(600, int(N_POINTS * scale))
    pts, model = _setup(seed, n)
    ops = _Ops(seed, pts, model, tally)
    untraced_s = _sequence(ops)

    ops.spans, ops.n_batches = spans, 0  # the same inputs again, traced
    serving = Counters()
    level1 = model.murtree.level1.counters
    nodes0 = level1.nodes_visited
    with spans.patched(layer_targets()):
        traced_s = _sequence(ops, serving)
    nodes = level1.nodes_visited - nodes0
    ops.check()

    plain_reads = ops.reads[:TRACED_READS]  # same queries as the traced pass
    fit = ops.fits[-1][1]
    fit_d_wall, fit_d = ops.fit_ds[-1]
    per_rank = [
        sum(phases.get(p, 0.0) for p in LOCAL_PHASES)
        for phases in fit_d.extras[ExtraKeys.PER_RANK_PHASES]
    ]
    queries = np.vstack([q for _, _, q, _ in plain_reads])
    k = queries.shape[0]
    read_s = sum(w for w, *_ in plain_reads)
    values = {
        "microcluster.build_s": spans.total("microcluster.build"),
        "microcluster.reach_s": spans.total("microcluster.reach"),
        "microcluster.n_mcs": fit.extras[ExtraKeys.N_MICRO_CLUSTERS],
        "core.clustering_s": spans.total("core.clustering"),
        "core.queries_run": fit.counters.queries_run,
        "core.query_save_frac": fit.counters.query_save_fraction,
        "core.dist_calcs": fit.counters.dist_calcs,
        "core.postprocess_s": spans.total("core.postprocess"),
        "unionfind.unions": fit.counters.unions,
        "distributed.fit_d_s": fit_d_wall,
        "distributed.partition_s": fit_d.timers.get("partitioning")
        + fit_d.timers.get("halo_exchange"),
        "distributed.local_max_s": max(per_rank),
        "distributed.merge_s": fit_d.timers.get("merging"),
        "distributed.rank_skew": max(per_rank) / (sum(per_rank) / len(per_rank)),
        "distributed.bytes_sent": fit_d.extras[ExtraKeys.BYTES_SENT_TOTAL],
        "distributed.messages": fit_d.extras[ExtraKeys.MESSAGES_SENT_TOTAL],
        "serving.predict_qps": k / read_s,
        "serving.predict_ms_per_kq": read_s * 1e3 / (k / 1000.0),
        "serving.nodes_per_query": nodes / k,
        "serving.dist_calcs_per_query": serving.dist_calcs / k,
        **common.ckdtree_yardstick(pts, model.core_mask, queries, EPS),
        **common.self_time_metrics(spans),
        "bench.trace_overhead_s": traced_s - untraced_s,
        "bench.trace_overhead_frac": (traced_s - untraced_s) / untraced_s,
    }
    # the serving stack (front door, fleet, cache, generator) is measured
    # here because the serve workload is not one the benchmark gates
    stack, stack_details = serve.run_traced(seed, seconds, scale, tally, Spans())
    values.update({name: stack[name] for name in serve.STACK_METRICS})
    details = {"serve": stack_details, "untraced_s": untraced_s, "traced_s": traced_s,
               "fit_phases": fit.timers.as_dict()}
    return values, details
