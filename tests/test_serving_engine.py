"""QueryEngine: caching, micro-batching, stats, latency tracking."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.instrumentation.latency import LatencyWindow
from repro.serving.engine import PredictRow, QueryEngine
from repro.serving.model import fit_model
from repro.serving.predict import brute_predict, predict_model


@pytest.fixture
def model(small_blobs):
    return fit_model(small_blobs, 0.08, 6)


class TestPredictBatch:
    def test_matches_predict_model(self, model, small_blobs):
        with QueryEngine(model) as engine:
            got = engine.predict(small_blobs[:32])
        want = predict_model(model, small_blobs[:32])
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.would_be_core, want.would_be_core)
        np.testing.assert_array_equal(got.nearest_core, want.nearest_core)
        np.testing.assert_array_equal(got.n_neighbors, want.n_neighbors)

    def test_single_point_shape(self, model, small_blobs):
        with QueryEngine(model) as engine:
            res = engine.predict(small_blobs[0])
        assert len(res) == 1

    def test_cached_rows_identical(self, model, small_blobs):
        """A cache hit returns the same answer as the cold path."""
        q = small_blobs[:8]
        with QueryEngine(model) as engine:
            first = engine.predict(q)
            second = engine.predict(q)  # all rows now cached
            assert engine.counters.extra["serve_cache_hits"] == 8
        np.testing.assert_array_equal(first.labels, second.labels)
        np.testing.assert_array_equal(first.n_neighbors, second.n_neighbors)


class TestCache:
    def test_hit_and_miss_counters(self, model, small_blobs):
        with QueryEngine(model) as engine:
            engine.predict(small_blobs[:5])
            assert engine.counters.extra["serve_cache_misses"] == 5
            assert engine.counters.extra.get("serve_cache_hits", 0) == 0
            engine.predict(small_blobs[:5])
            assert engine.counters.extra["serve_cache_hits"] == 5
            assert engine.cache_len() == 5

    def test_lru_eviction(self, model, small_blobs):
        with QueryEngine(model, cache_size=4) as engine:
            engine.predict(small_blobs[:4])  # fills the cache
            assert engine.cache_len() == 4
            engine.predict(small_blobs[0])  # refresh row 0 -> most recent
            engine.predict(small_blobs[4:6])  # evicts rows 1 and 2
            assert engine.cache_len() == 4
            hits_before = engine.counters.extra["serve_cache_hits"]
            engine.predict(small_blobs[0])  # still cached
            assert engine.counters.extra["serve_cache_hits"] == hits_before + 1
            misses_before = engine.counters.extra["serve_cache_misses"]
            engine.predict(small_blobs[1])  # was evicted
            assert engine.counters.extra["serve_cache_misses"] == misses_before + 1

    def test_cache_disabled(self, model, small_blobs):
        with QueryEngine(model, cache_size=0) as engine:
            engine.predict(small_blobs[:3])
            engine.predict(small_blobs[:3])
            assert engine.cache_len() == 0
            assert "serve_cache_hits" not in engine.counters.extra

    def test_keys_are_exact_across_the_eps_boundary(self):
        """Two queries 1 ulp apart on either side of the ε boundary get
        distinct cache entries and their own correct answers."""
        pts = np.column_stack([-0.01 * np.arange(6), np.zeros(6)])
        model = fit_model(pts, 0.5, 3)  # one clump, all core
        on_eps = np.array([0.5, 0.0])  # exactly ε from row 0: not a neighbor
        inside = np.array([np.nextafter(0.5, 0.0), 0.0])  # 1 ulp inside
        want = brute_predict(
            pts, model.labels, model.core_mask, 0.5, 3, np.stack([on_eps, inside])
        )
        assert want.labels.tolist() == [-1, 0]
        with QueryEngine(model) as engine:
            for i, q in enumerate((on_eps, inside, on_eps, inside)):
                got = engine.predict(q)
                assert got.labels[0] == want.labels[i % 2]
                assert got.n_neighbors[0] == want.n_neighbors[i % 2]
                assert got.nearest_core[0] == want.nearest_core[i % 2]
            assert engine.counters.extra["serve_cache_misses"] == 2
            assert engine.counters.extra["serve_cache_hits"] == 2


class TestMicroBatching:
    def test_submit_resolves_to_row(self, model, small_blobs):
        with QueryEngine(model) as engine:
            row = engine.submit(small_blobs[0]).result(timeout=5.0)
        assert isinstance(row, PredictRow)
        want = predict_model(model, small_blobs[0])
        assert row.label == want.labels[0]
        assert row.n_neighbors == want.n_neighbors[0]

    def test_concurrent_submits_coalesce(self, model, small_blobs):
        """Requests arriving together are answered in shared batches."""
        n_req = 24
        with QueryEngine(model, max_wait_ms=50.0, cache_size=0) as engine:
            barrier = threading.Barrier(n_req)
            futures = [None] * n_req

            def fire(i):
                barrier.wait()
                futures[i] = engine.submit(small_blobs[i % len(small_blobs)])

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(n_req)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            rows = [f.result(timeout=5.0) for f in futures]
            batches = engine.counters.extra["serve_batches"]
            assert engine.counters.extra["serve_batched_rows"] == n_req
        assert batches < n_req  # coalescing actually happened
        want = predict_model(
            model, np.stack([small_blobs[i % len(small_blobs)] for i in range(n_req)])
        )
        for i, row in enumerate(rows):
            assert row.label == want.labels[i]

    def test_max_batch_splits(self, model, small_blobs):
        with QueryEngine(model, max_batch=4, max_wait_ms=100.0) as engine:
            futs = [engine.submit(small_blobs[i]) for i in range(10)]
            for f in futs:
                f.result(timeout=5.0)
            assert engine.counters.extra["serve_batches"] >= 3  # ceil(10/4)

    def test_predict_one(self, model, small_blobs):
        with QueryEngine(model) as engine:
            row = engine.predict_one(small_blobs[3], timeout=5.0)
        want = predict_model(model, small_blobs[3])
        assert row.label == int(want.labels[0])
        assert row.n_neighbors == int(want.n_neighbors[0])

    def test_submit_rejects_wrong_dim(self, model):
        with QueryEngine(model) as engine:
            with pytest.raises(ValueError, match="coordinates"):
                engine.submit(np.zeros(5))

    def test_submit_after_close_raises(self, model, small_blobs):
        engine = QueryEngine(model)
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit(small_blobs[0])

    def test_close_idempotent(self, model):
        engine = QueryEngine(model)
        engine.close()
        engine.close()  # second close is a no-op


class TestStats:
    def test_stats_shape(self, model, small_blobs):
        with QueryEngine(model) as engine:
            engine.predict(small_blobs[:10])
            engine.predict_one(small_blobs[0])
            stats = engine.stats()
        assert stats["requests"] == 11
        assert stats["model"]["n"] == model.n
        assert stats["model"]["eps"] == model.params.eps
        assert stats["cache"]["capacity"] == engine.cache_size
        lat = stats["latency_seconds"]
        assert lat["count"] == 11
        assert lat["p50"] is not None and lat["p99"] >= lat["p50"] >= 0.0

    def test_validation(self, model):
        with pytest.raises(ValueError, match="max_batch"):
            QueryEngine(model, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            QueryEngine(model, max_wait_ms=-1.0)
        with pytest.raises(ValueError, match="cache_size"):
            QueryEngine(model, cache_size=-1)


class TestLatencyWindow:
    def test_percentiles_nearest_rank(self):
        w = LatencyWindow(capacity=100)
        for v in range(1, 101):  # 0.01 .. 1.00
            w.record(v / 100.0)
        assert w.percentile(50) == pytest.approx(0.50)
        assert w.percentile(99) == pytest.approx(0.99)
        assert w.percentile(100) == pytest.approx(1.00)
        assert w.percentile(0) == pytest.approx(0.01)
        assert w.mean() == pytest.approx(0.505)

    def test_ring_overwrite(self):
        w = LatencyWindow(capacity=4)
        for v in [9.0, 9.0, 9.0, 9.0, 1.0, 2.0, 3.0, 4.0]:
            w.record(v)
        assert len(w) == 4
        assert w.total_recorded == 8
        assert w.percentile(100) == pytest.approx(4.0)  # the 9s are gone

    def test_empty_window(self):
        w = LatencyWindow()
        assert len(w) == 0
        assert np.isnan(w.percentile(50))
        assert w.stats()["count"] == 0
        assert w.stats()["p99"] is None

    def test_rejects_bad_input(self):
        w = LatencyWindow()
        with pytest.raises(ValueError, match="negative"):
            w.record(-0.1)
        with pytest.raises(ValueError, match="percentile"):
            w.percentile(101.0)
        with pytest.raises(ValueError, match="capacity"):
            LatencyWindow(capacity=0)

    def test_thread_safety_smoke(self):
        w = LatencyWindow(capacity=64)
        stop = time.perf_counter() + 0.2

        def writer():
            while time.perf_counter() < stop:
                w.record(0.001)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        while time.perf_counter() < stop:
            w.stats()  # concurrent reads must never raise
        for t in threads:
            t.join()
        assert w.total_recorded > 0


class TestReadinessAndSwap:
    def test_ready_flips_on_warmup_and_close(self, model):
        engine = QueryEngine(model)
        try:
            assert not engine.ready
            engine.warmup()
            assert engine.ready
        finally:
            engine.close()
        assert not engine.ready  # closed engines are never ready

    def test_stats_carry_version_and_swaps(self, model, small_blobs):
        with QueryEngine(model) as engine:
            engine.predict(small_blobs[:4])
            s = engine.stats()
            assert s["model"]["version"] == model.version_token()
            assert s["swaps"] == 0
            assert s["ready"] is False

    def test_flush_cache_reports_evicted_count(self, model, small_blobs):
        with QueryEngine(model, cache_size=64) as engine:
            engine.predict(small_blobs[:16])
            n = engine.cache_len()
            assert n > 0
            assert engine.flush_cache() == n
            assert engine.cache_len() == 0
            assert engine.flush_cache() == 0

    def test_swap_serves_fresh_answers_at_same_coords(self, small_blobs):
        """Cache entries keyed against model A must never answer for
        model B: after a swap, identical coordinates get B's labels."""
        a = fit_model(small_blobs, 0.08, 6)
        # same points, min_pts above n: every query is noise under B
        b = fit_model(small_blobs, 0.08, small_blobs.shape[0] + 1)
        q = small_blobs[:16]
        with QueryEngine(a) as engine:
            before = engine.predict(q)
            engine.predict(q)  # second hit comes from the cache
            assert engine.stats()["cache"]["hits"] >= q.shape[0]
            token = engine.swap_model(b)
            assert token == b.version_token() == engine.model_version
            got = engine.predict(q)
            want = predict_model(b, q)
            np.testing.assert_array_equal(got.labels, want.labels)
            assert engine.stats()["swaps"] == 1
            assert engine.ready  # swap re-warms
        # the two models genuinely disagree, so staleness would show
        assert not np.array_equal(before.labels, want.labels)

    def test_swap_under_concurrent_reads(self, small_blobs):
        """Readers racing a swap always get a self-consistent answer
        from exactly one of the two models."""
        a = fit_model(small_blobs, 0.08, 6)
        b = fit_model(small_blobs, 0.08, small_blobs.shape[0] + 1)
        q = small_blobs[:8]
        want_a = predict_model(a, q).labels
        want_b = predict_model(b, q).labels
        with QueryEngine(a, cache_size=0) as engine:
            stop = threading.Event()
            bad: list = []

            def reader():
                while not stop.is_set():
                    labels = engine.predict(q).labels
                    if not (
                        np.array_equal(labels, want_a)
                        or np.array_equal(labels, want_b)
                    ):
                        bad.append(labels)

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for t in threads:
                t.start()
            time.sleep(0.05)
            engine.swap_model(b)
            time.sleep(0.05)
            stop.set()
            for t in threads:
                t.join()
            assert bad == []
            np.testing.assert_array_equal(engine.predict(q).labels, want_b)
