"""End-to-end tests of μDBSCAN — Theorem 1's guarantees, executable."""

import numpy as np
import pytest

from repro import MuDBSCAN, brute_dbscan, check_exact, mu_dbscan
from repro.core.params import DBSCANParams
from repro.data.synthetic import blobs_with_noise, gaussian_blobs, uniform_box
from repro.geometry.distance import sq_dists_to_point


class TestExactness:
    """The paper's central claim: μDBSCAN == classical DBSCAN."""

    @pytest.mark.parametrize(
        "n,d,eps,min_pts,seed",
        [
            (300, 2, 0.08, 5, 0),
            (300, 2, 0.15, 3, 1),
            (400, 3, 0.2, 6, 2),
            (250, 4, 0.35, 4, 3),
            (200, 1, 0.05, 5, 4),
        ],
    )
    def test_exact_on_blob_mixtures(self, n, d, eps, min_pts, seed):
        pts = blobs_with_noise(n, d, 4, noise_fraction=0.3, seed=seed)
        ref = brute_dbscan(pts, eps, min_pts)
        res = mu_dbscan(pts, eps, min_pts)
        report = check_exact(res, ref, points=pts)
        assert report.ok, str(report)

    def test_exact_on_pure_noise(self):
        pts = uniform_box(200, 3, seed=9)
        ref = brute_dbscan(pts, 0.05, 5)
        res = mu_dbscan(pts, 0.05, 5)
        assert check_exact(res, ref, points=pts).ok
        assert res.n_noise > 0

    def test_exact_on_single_dense_blob(self):
        pts = gaussian_blobs(200, 2, 1, spread=0.01, seed=5)
        ref = brute_dbscan(pts, 0.1, 5)
        res = mu_dbscan(pts, 0.1, 5)
        assert check_exact(res, ref, points=pts).ok
        assert res.n_clusters == 1

    def test_exact_on_filament(self, line_points):
        ref = brute_dbscan(line_points, 0.03, 4)
        res = mu_dbscan(line_points, 0.03, 4)
        assert check_exact(res, ref, points=line_points).ok

    def test_exact_with_duplicates(self, rng):
        base = rng.random((150, 2))
        pts = np.vstack([base, base[:30]])
        ref = brute_dbscan(pts, 0.1, 4)
        res = mu_dbscan(pts, 0.1, 4)
        assert check_exact(res, ref, points=pts).ok

    def test_exact_min_pts_one(self, small_blobs):
        # MinPts=1: every point is core, no noise
        ref = brute_dbscan(small_blobs, 0.05, 1)
        res = mu_dbscan(small_blobs, 0.05, 1)
        assert check_exact(res, ref, points=small_blobs).ok
        assert res.n_noise == 0
        assert res.core_mask.all()

    def test_exact_huge_eps_one_cluster(self, small_blobs):
        ref = brute_dbscan(small_blobs, 10.0, 3)
        res = mu_dbscan(small_blobs, 10.0, 3)
        assert check_exact(res, ref, points=small_blobs).ok
        assert res.n_clusters == 1

    def test_exact_tiny_eps_all_noise(self, small_blobs):
        ref = brute_dbscan(small_blobs, 1e-9, 3)
        res = mu_dbscan(small_blobs, 1e-9, 3)
        assert check_exact(res, ref, points=small_blobs).ok

    @pytest.mark.parametrize("defer_2eps", [True, False])
    @pytest.mark.parametrize("dynamic_wndq", [True, False])
    def test_exact_under_ablations(self, small_blobs, defer_2eps, dynamic_wndq):
        ref = brute_dbscan(small_blobs, 0.08, 5)
        res = mu_dbscan(
            small_blobs, 0.08, 5, defer_2eps=defer_2eps, dynamic_wndq=dynamic_wndq
        )
        assert check_exact(res, ref, points=small_blobs).ok

    def test_eps_boundary_pair_is_two_cores(self):
        """Two points 0.05 apart in x whose direct-form squared distance
        (0.0024999999999955) is just below ε² = 0.0025: each is the
        other's ε-neighbor, so with MinPts=2 both are core and form one
        cluster.  The BLAS norm-expansion kernel rounds the pair onto
        the wrong side of ε², so the direct form is the reference here.
        """
        pts = np.array([[1000.0375, 1000.0, 1000.0], [1000.0875, 1000.0, 1000.0]])
        eps, min_pts = 0.05, 2
        counts = [
            int(np.count_nonzero(sq_dists_to_point(pts, p) < eps * eps)) for p in pts
        ]
        assert counts == [2, 2]
        res = mu_dbscan(pts, eps, min_pts)
        assert res.core_mask.tolist() == [True, True]
        assert res.labels.tolist() == [0, 0]


class TestQuerySavings:
    """Table II's '% queries saved' mechanism."""

    def test_queries_saved_on_dense_data(self):
        pts = gaussian_blobs(500, 2, 3, spread=0.02, seed=1)
        res = mu_dbscan(pts, 0.1, 5)
        assert res.counters.queries_saved > 0
        assert res.counters.queries_run + res.counters.queries_saved == 500
        assert res.counters.query_save_fraction > 0.3

    def test_dynamic_wndq_saves_more(self):
        pts = gaussian_blobs(500, 2, 3, spread=0.02, seed=1)
        with_dyn = mu_dbscan(pts, 0.1, 5, dynamic_wndq=True)
        without = mu_dbscan(pts, 0.1, 5, dynamic_wndq=False)
        assert (
            with_dyn.counters.queries_saved >= without.counters.queries_saved
        )

    def test_no_savings_on_sparse_noise(self):
        pts = uniform_box(200, 3, seed=2)
        res = mu_dbscan(pts, 0.01, 5)
        # nothing is dense enough for wndq-cores
        assert res.counters.query_save_fraction == pytest.approx(0.0)

    def test_wndq_cores_are_actually_core(self, medium_blobs_3d):
        res = mu_dbscan(medium_blobs_3d, 0.15, 5)
        assert res.extras["n_wndq_core"] <= res.n_core


class TestResultRecord:
    def test_extras_populated(self, small_blobs):
        res = mu_dbscan(small_blobs, 0.08, 5)
        assert res.extras["n_micro_clusters"] > 0
        assert res.extras["avg_mc_size"] > 0
        kinds = res.extras["mc_kind_counts"]
        assert set(kinds) == {"DMC", "CMC", "SMC"}
        assert sum(kinds.values()) == res.extras["n_micro_clusters"]

    def test_phase_timers_cover_all_steps(self, small_blobs):
        res = mu_dbscan(small_blobs, 0.08, 5)
        split = res.timers.as_dict()
        assert set(split) == {
            "tree_construction",
            "finding_reachable_groups",
            "clustering",
            "post_processing",
        }
        assert all(v >= 0 for v in split.values())

    def test_labels_shape_and_range(self, small_blobs):
        res = mu_dbscan(small_blobs, 0.08, 5)
        assert res.labels.shape == (small_blobs.shape[0],)
        assert res.labels.min() >= -1
        if res.n_clusters:
            assert set(np.unique(res.labels[res.labels >= 0])) == set(
                range(res.n_clusters)
            )


class TestEstimatorAPI:
    def test_fit_predict_roundtrip(self, small_blobs):
        est = MuDBSCAN(eps=0.08, min_pts=5)
        labels = est.fit_predict(small_blobs)
        np.testing.assert_array_equal(labels, est.labels_)
        assert est.n_clusters_ == est.result_.n_clusters
        assert est.core_sample_mask_.dtype == bool

    def test_fit_attributes(self, small_blobs):
        est = MuDBSCAN(eps=0.08, min_pts=6).fit(small_blobs)
        assert est.labels_.shape == (small_blobs.shape[0],)
        assert est.core_sample_mask_.dtype == bool
        assert est.n_clusters_ >= 1

    def test_unfitted_access_raises(self):
        est = MuDBSCAN(eps=0.1, min_pts=5)
        with pytest.raises(RuntimeError, match="fit"):
            _ = est.labels_

    def test_bad_params_fail_at_construction(self):
        with pytest.raises(ValueError, match="eps"):
            MuDBSCAN(eps=0.0, min_pts=5)
        with pytest.raises(ValueError, match="min_pts"):
            MuDBSCAN(eps=1.0, min_pts=0)

    def test_get_params_round_trip(self, small_blobs):
        est = MuDBSCAN(
            eps=0.08, min_pts=6, defer_2eps=False, dynamic_wndq=False,
            max_entries=16, metric="manhattan",
        )
        params = est.get_params()
        assert list(params) == [
            "eps", "min_pts", "defer_2eps", "dynamic_wndq", "max_entries", "metric",
        ]
        clone = MuDBSCAN(**params)
        assert clone.get_params() == params
        a = est.fit_predict(small_blobs)
        b = clone.fit_predict(small_blobs)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            a, mu_dbscan(small_blobs, 0.08, 6, metric="manhattan").labels
        )

    def test_repr_shows_non_defaults_only(self):
        plain = repr(MuDBSCAN(eps=0.08, min_pts=6))
        assert plain == "MuDBSCAN(eps=0.08, min_pts=6)"
        tuned = repr(MuDBSCAN(eps=0.08, min_pts=6, defer_2eps=False))
        assert tuned == "MuDBSCAN(eps=0.08, min_pts=6, defer_2eps=False)"


class TestParams:
    def test_eps_sq_helpers(self):
        p = DBSCANParams(eps=2.0, min_pts=3)
        assert p.eps_sq == 4.0
        assert p.half_eps_sq == 1.0

    def test_frozen(self):
        p = DBSCANParams(eps=1.0, min_pts=2)
        with pytest.raises(AttributeError):
            p.eps = 2.0

    def test_nan_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            DBSCANParams(eps=float("nan"), min_pts=3)


class TestPinnedGateWorkload:
    """``repro.fit`` on the perf-smoke default workload (20k 3-d blobs
    + 20% noise, ε=0.08, MinPts=60) is pinned to recorded outputs.

    The fingerprint and Table II counters were captured from the
    union-find implementation the edge-array connectivity replaced;
    any change to clustering or counted work shows up here.
    """

    PINS = {
        0: (
            "0ab6264dc9d0607213bf298420b307303d43a8e5156fd2b74cf4bc538a5aa166",
            {"queries_run": 7708, "queries_saved": 12292, "dist_calcs": 43345239, "unions": 16993},
        ),
        1: (
            "62482afff24bbba42f2ee6bea9052b08de4625e51d42377117c10076152f8c19",
            {"queries_run": 7558, "queries_saved": 12442, "dist_calcs": 44355674, "unions": 17059},
        ),
    }

    @pytest.mark.parametrize("seed", sorted(PINS))
    def test_fingerprint_and_counters(self, seed):
        from repro import fit

        pts = blobs_with_noise(20_000, 3, 8, noise_fraction=0.2, seed=seed)
        res = fit(pts, eps=0.08, min_pts=60)
        fingerprint, counters = self.PINS[seed]
        assert res.fingerprint() == fingerprint
        assert {k: getattr(res.counters, k) for k in counters} == counters


class TestExecutionPathParity:
    """The fit's entry points — ``mu_dbscan``, ``repro.fit``,
    ``fit_model`` and the ``MuDBSCAN`` estimator — run one code path:
    the same labels, cores, Table II counters and extras, exact against
    the brute-force oracle."""

    COUNTERS = (
        "queries_run", "queries_saved", "dist_calcs", "unions",
        "micro_clusters", "deferred_points",
    )

    @pytest.mark.parametrize("seed", [3, 101])
    def test_all_paths_agree(self, seed):
        from repro import fit, fit_model

        pts = blobs_with_noise(1500, 2, 5, noise_fraction=0.25, seed=seed)
        ref = mu_dbscan(pts, 0.06, 8)
        assert check_exact(ref, brute_dbscan(pts, 0.06, 8), points=pts).ok
        model = fit_model(pts, 0.06, 8)
        est = MuDBSCAN(0.06, 8).fit(pts)
        for case, res in (("fit", fit(pts, 0.06, 8)), ("estimator", est.result_)):
            assert res.fingerprint() == ref.fingerprint(), case
            assert res.extras == ref.extras, case
            for name in self.COUNTERS:
                assert getattr(res.counters, name) == getattr(ref.counters, name), (
                    case, name,
                )
        np.testing.assert_array_equal(model.labels, ref.labels)
        np.testing.assert_array_equal(model.core_mask, ref.core_mask)
        for name in self.COUNTERS:
            assert getattr(model.counters, name) == getattr(ref.counters, name), name
        assert {k: v for k, v in model.extras.items() if k != "fit_seconds"} == ref.extras
