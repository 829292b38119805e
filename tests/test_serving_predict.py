"""Predict parity: the pruned online assignment vs the brute oracle.

The acceptance bar: for every dataset in the registry, ``predict``
agrees with brute-force DBSCAN-predict (nearest-core-within-ε rule)
for on-manifold, off-manifold and exactly-ε-boundary query points, at
1-point and 512-point batch sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.registry import REGISTRY, dataset_names
from repro.instrumentation.counters import Counters
from repro.serving.engine import QueryEngine
from repro.serving.model import FittedModel, fit_model
from repro.serving.predict import PredictResult, brute_predict, predict_model

#: keep each registry dataset to roughly this many points for the sweep
_TARGET_N = 240


def _registry_workload(name: str):
    spec = REGISTRY[name]
    scale = min(1.0, _TARGET_N / spec.base_n)
    pts = spec.generate(scale=scale)
    return pts, spec


def _query_suite(pts: np.ndarray, eps: float, seed: int = 99) -> np.ndarray:
    """On-manifold + off-manifold + exactly-ε-boundary queries."""
    rng = np.random.default_rng(seed)
    n, d = pts.shape
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.maximum(hi - lo, 1.0)
    take = rng.choice(n, size=min(24, n), replace=False)
    on_manifold = pts[take] + rng.normal(0.0, 0.05 * eps, (take.size, d))
    off_manifold = hi + span * rng.uniform(1.0, 2.0, (12, d))  # far outside
    # exactly at distance ε of a dataset point along the first axis —
    # under strict-< semantics that point is NOT an ε-neighbor
    boundary = pts[take[:12]].copy()
    boundary[:, 0] += eps
    exact_copies = pts[take[:8]]  # distance-0 duplicates
    return np.vstack([on_manifold, off_manifold, boundary, exact_copies])


_METRICS = ("euclidean", "manhattan", "chebyshev")
_FIELDS = ("labels", "would_be_core", "nearest_core", "nearest_core_dist", "n_neighbors")


def _concat(parts: list[PredictResult]) -> PredictResult:
    return PredictResult(
        **{f: np.concatenate([getattr(p, f) for p in parts]) for f in _FIELDS}
    )


def _assert_same(a: PredictResult, b: PredictResult) -> None:
    """Every field equal, distances included (both sides compare the
    same stable raw values, so even those match bit for bit)."""
    for f in _FIELDS:
        np.testing.assert_array_equal(getattr(a, f), getattr(b, f), err_msg=f)


@pytest.mark.parametrize("name", dataset_names())
def test_registry_parity(name):
    pts, spec = _registry_workload(name)
    model = fit_model(pts, spec.eps, spec.min_pts)
    queries = _query_suite(pts, spec.eps)
    oracle = brute_predict(
        pts, model.labels, model.core_mask, spec.eps, spec.min_pts, queries
    )
    # 512-point batch (the whole suite in one call)
    _assert_same(predict_model(model, queries), oracle)
    # 1-point batches: every query answered alone
    for i in range(queries.shape[0]):
        got = predict_model(model, queries[i])
        assert got.labels[0] == oracle.labels[i], f"{name} query {i}"
        assert got.would_be_core[0] == oracle.would_be_core[i]
        assert got.nearest_core[0] == oracle.nearest_core[i]
        assert got.n_neighbors[0] == oracle.n_neighbors[i]


@pytest.mark.parametrize("metric", ["manhattan", "chebyshev"])
@pytest.mark.parametrize("name", dataset_names())
def test_registry_parity_other_metrics(name, metric):
    """The same sweep under L1 and L∞ — the grid gather bounds centers
    per axis, which every metric's distance dominates."""
    pts, spec = _registry_workload(name)
    model = fit_model(pts, spec.eps, spec.min_pts, metric=metric)
    queries = _query_suite(pts, spec.eps)
    oracle = brute_predict(
        pts, model.labels, model.core_mask, spec.eps, spec.min_pts, queries,
        metric=metric,
    )
    _assert_same(predict_model(model, queries), oracle)
    _assert_same(
        _concat([predict_model(model, queries[i : i + 7])
                 for i in range(0, queries.shape[0], 7)]),
        oracle,
    )


class TestGridRoute:
    """The batched ε-grid route against the brute oracle on inputs
    built to stress it: lattices whose pair distances sit exactly on ε,
    far-away and non-finite queries, and degenerate batches."""

    @staticmethod
    def _lattice(metric: str, seed: int = 5):
        """Points on an ε/2 lattice (exactly representable: ε = 1/4),
        so stored pairs and query offsets hit distance ε exactly."""
        rng = np.random.default_rng(seed)
        eps = 0.25
        axis = np.arange(8) * (eps / 2)
        grid = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
        pts = grid[rng.random(grid.shape[0]) < 0.6]
        model = fit_model(pts, eps, 6, metric=metric)
        # queries on an ε/4 lattice over a box wider than the data
        q_axis = np.arange(-4, 33) * (eps / 4)
        q_grid = np.stack(np.meshgrid(q_axis, q_axis, q_axis), axis=-1).reshape(-1, 3)
        queries = q_grid[rng.choice(q_grid.shape[0], size=1024, replace=False)]
        return model, pts, eps, queries

    @pytest.mark.parametrize("metric", _METRICS)
    def test_eps_boundary_lattice(self, metric):
        model, pts, eps, queries = self._lattice(metric)
        oracle = brute_predict(
            pts, model.labels, model.core_mask, eps, 6, queries, metric=metric
        )
        # the lattice really does put queries on the boundary
        raw = model.metric.raw_pairwise_stable(queries, pts)
        assert np.any(raw == model.metric.threshold(eps))
        for batch in (1024, 7, 1):
            n = queries.shape[0] if batch > 1 else 128
            got = _concat([predict_model(model, queries[i : i + batch])
                           for i in range(0, n, batch)])
            want = PredictResult(**{f: getattr(oracle, f)[:n] for f in _FIELDS})
            _assert_same(got, want)

    @pytest.mark.parametrize("metric", _METRICS)
    def test_far_and_non_finite_queries(self, small_blobs, metric):
        model = fit_model(small_blobs, 0.08, 6, metric=metric)
        far = np.array(
            [[1e300, -1e300], [-1e300, 1e300], [1e18, -1e18], [-1e17, 3.0],
             [np.inf, 0.0], [-np.inf, np.inf], [np.nan, 0.5], [0.5, np.nan]]
        )
        queries = np.vstack([far, small_blobs[:16], far])
        got = predict_model(model, queries)
        want = brute_predict(
            small_blobs, model.labels, model.core_mask, 0.08, 6, queries,
            metric=metric,
        )
        _assert_same(got, want)
        assert np.all(got.labels[:8] == -1) and np.all(got.n_neighbors[:8] == 0)

    def test_empty_model_and_empty_batch(self, small_blobs):
        empty = fit_model(np.empty((0, 3)), 0.5, 4)
        res = predict_model(empty, np.zeros((3, 3)))
        assert res.labels.tolist() == [-1, -1, -1]
        assert res.n_neighbors.tolist() == [0, 0, 0]
        assert len(predict_model(empty, np.empty((0, 3)))) == 0
        model = fit_model(small_blobs, 0.08, 6)
        counters = Counters()
        res = predict_model(model, np.empty((0, 2)), counters=counters)
        assert len(res) == 0 and res.labels.dtype == np.int64
        assert counters.queries_run == 0 and counters.dist_calcs == 0

    def test_loaded_model_never_builds_the_murtree(self, small_blobs):
        loaded = FittedModel.from_bytes(fit_model(small_blobs, 0.08, 6).to_bytes())
        predict_model(loaded, small_blobs[:40])
        with QueryEngine(loaded) as engine:
            engine.predict(small_blobs[40:60])
        assert loaded._murtree is None
        assert loaded.serving_counters.nodes_visited == 0

    def test_invalidation_drops_every_serving_index(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        model.center_grid, model.murtree, model.version_token()
        model.invalidate_serving_index()
        assert model._center_grid is None
        assert model._murtree is None
        assert model._version_token is None

    def test_dist_calcs_count_the_blocks_computed(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        counters = Counters()
        # far outside: no group gathers a center, nothing is computed
        predict_model(model, np.full((3, 2), 50.0), counters=counters)
        assert counters.queries_run == 3 and counters.dist_calcs == 0
        q = small_blobs[:64]
        predict_model(model, q, counters=counters)
        assert counters.queries_run == 3 + 64
        # pruned: fewer pairs than scoring every query against every
        # point plus every center
        brute_pairs = q.shape[0] * (model.n + model.n_micro_clusters)
        assert 0 < counters.dist_calcs < brute_pairs


class TestSemantics:
    def test_boundary_point_is_not_neighbor(self):
        """A query exactly ε away from every cluster point is noise."""
        pts = np.zeros((10, 2))
        pts[:, 0] = np.linspace(0, 0.001, 10)  # tight clump at origin
        eps, min_pts = 0.5, 3
        model = fit_model(pts, eps, min_pts)
        assert model.core_mask.all()
        at_eps = np.array([[pts[:, 0].max() + eps, 0.0]])
        res = predict_model(model, at_eps)
        # nearest clump point sits at exactly eps -> strict < excludes it;
        # the rest sit farther -> noise, zero neighbors... except points
        # closer than the max-x one:
        oracle = brute_predict(
            pts, model.labels, model.core_mask, eps, min_pts, at_eps
        )
        assert res.labels[0] == oracle.labels[0]
        assert res.n_neighbors[0] == oracle.n_neighbors[0]
        # and strictly inside by a hair joins the cluster
        inside = at_eps - np.array([[1e-9, 0.0]])
        assert predict_model(model, inside).labels[0] == 0

    def test_self_counted_in_would_be_core(self):
        """would_be_core counts the query itself, like fitted points."""
        pts = np.zeros((4, 2)) + np.arange(4)[:, None] * 0.01
        model = fit_model(pts, 1.0, 5)  # 4 points: nobody is core
        assert not model.core_mask.any()
        res = predict_model(model, np.array([[0.0, 0.0]]))
        # 4 stored neighbors + itself = 5 >= MinPts
        assert res.n_neighbors[0] == 4
        assert bool(res.would_be_core[0])
        assert res.labels[0] == -1  # no core in range -> still unassigned

    def test_tie_breaks_by_distance_then_index(self):
        """Two equidistant cores from different clusters: lowest row wins."""
        left = np.zeros((5, 2)) - np.array([1.0, 0.0])
        right = np.zeros((5, 2)) + np.array([1.0, 0.0])
        pts = np.vstack([left, right])
        # eps=1.5: the clumps (separation 2.0) stay distinct clusters,
        # but BOTH cores sit within eps of the origin, at distance 1.0
        model = fit_model(pts, 1.5, 3)
        assert model.core_mask.all()
        assert set(np.unique(model.labels)) == {0, 1}
        res = predict_model(model, np.array([[0.0, 0.0]]))
        oracle = brute_predict(
            pts, model.labels, model.core_mask, 1.5, 3, np.array([[0.0, 0.0]])
        )
        assert res.labels[0] == oracle.labels[0] == model.labels[0]
        assert res.nearest_core[0] == oracle.nearest_core[0] == 0

    def test_noise_area_query(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        far = np.full((1, 2), 1e6)
        res = predict_model(model, far)
        assert res.labels[0] == -1
        assert res.nearest_core[0] == -1
        assert not np.isfinite(res.nearest_core_dist[0])

    def test_counters_charged(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        before = model.serving_counters.dist_calcs
        predict_model(model, small_blobs[:16])
        assert model.serving_counters.queries_run == 16
        assert model.serving_counters.dist_calcs > before

    def test_block_size_invariance(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        q = small_blobs[::3]
        a = predict_model(model, q, block_size=4)
        b = predict_model(model, q, block_size=1024)
        _assert_same(a, b)

    def test_dataset_points_predict_their_own_cluster(self, medium_blobs_3d):
        """Core points re-queried must land in their own cluster, and
        their nearest core is themselves at distance 0."""
        model = fit_model(medium_blobs_3d, 0.35, 8)
        core_rows = np.flatnonzero(model.core_mask)[:64]
        res = predict_model(model, medium_blobs_3d[core_rows])
        np.testing.assert_array_equal(res.labels, model.labels[core_rows])
        np.testing.assert_array_equal(res.nearest_core, core_rows)
        np.testing.assert_allclose(res.nearest_core_dist, 0.0)
        assert res.would_be_core.all()

    def test_chebyshev_parity(self, small_blobs):
        model = fit_model(small_blobs, 0.1, 5, metric="chebyshev")
        queries = _query_suite(small_blobs, 0.1)
        got = predict_model(model, queries)
        want = brute_predict(
            small_blobs, model.labels, model.core_mask, 0.1, 5, queries,
            metric="chebyshev",
        )
        _assert_same(got, want)

    def test_manhattan_parity(self, small_blobs):
        model = fit_model(small_blobs, 0.1, 5, metric="manhattan")
        queries = _query_suite(small_blobs, 0.1)
        got = predict_model(model, queries)
        want = brute_predict(
            small_blobs, model.labels, model.core_mask, 0.1, 5, queries,
            metric="manhattan",
        )
        _assert_same(got, want)

    def test_rejects_wrong_dim(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        with pytest.raises(ValueError, match="queries must be"):
            predict_model(model, np.zeros((3, 5)))

    def test_empty_query_batch(self, small_blobs):
        model = fit_model(small_blobs, 0.08, 6)
        res = predict_model(model, np.empty((0, 2)))
        assert len(res) == 0
