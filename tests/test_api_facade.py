"""The stable public facade."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import ExtraKeys, brute_dbscan, check_exact, fit, fit_distributed
from repro.core.mudbscan import mu_dbscan
from repro.data.registry import dataset_names, load_dataset
from repro.distributed.mudbscan_d import mu_dbscan_d

METRICS = ("euclidean", "manhattan", "chebyshev")

#: registry sweep scale for parity tests — a few hundred points each
PARITY_SCALE = 0.05


class TestFacade:
    def test_root_exports(self):
        for name in ("fit", "fit_distributed", "load_model", "suggest_eps",
                     "api", "ExtraKeys"):
            assert hasattr(repro, name), name
            assert name in repro.__all__

    def test_fit_matches_mu_dbscan(self, small_blobs):
        via_facade = fit(small_blobs, eps=0.08, min_pts=6)
        direct = mu_dbscan(small_blobs, eps=0.08, min_pts=6)
        np.testing.assert_array_equal(via_facade.labels, direct.labels)
        np.testing.assert_array_equal(via_facade.core_mask, direct.core_mask)
        assert via_facade.algorithm == "mu_dbscan"

    def test_fit_distributed_matches_mu_dbscan_d(self, medium_blobs_3d):
        via_facade = fit_distributed(medium_blobs_3d, 0.25, 10, n_ranks=2)
        direct = mu_dbscan_d(medium_blobs_3d, 0.25, 10, n_ranks=2)
        np.testing.assert_array_equal(via_facade.labels, direct.labels)
        assert via_facade.extras[ExtraKeys.N_RANKS] == 2

    def test_fit_forwards_options(self, small_blobs):
        res = fit(small_blobs, eps=0.08, min_pts=6, dynamic_wndq=False)
        baseline = mu_dbscan(small_blobs, eps=0.08, min_pts=6)
        np.testing.assert_array_equal(res.labels, baseline.labels)
        # the ablation really reached Algorithm 6: more queries run
        assert res.counters.queries_run > baseline.counters.queries_run

    def test_fit_forwards_builder_options(self, small_blobs):
        baseline = mu_dbscan(small_blobs, eps=0.08, min_pts=6)
        res = fit(small_blobs, eps=0.08, min_pts=6, defer_2eps=False, max_entries=4)
        # the micro-cluster builder saw both: no deferral, and a node
        # capacity below the first-level tree's floor is rejected there
        assert res.counters.deferred_points == 0 < baseline.counters.deferred_points
        np.testing.assert_array_equal(res.labels, baseline.labels)
        with pytest.raises(ValueError, match="max_entries"):
            fit(small_blobs, eps=0.08, min_pts=6, max_entries=3)

    @pytest.mark.parametrize(
        "keyword",
        ["engine", "engine_options", "sample_fraction", "selection",
         "link_factor", "seed", "minpts", "min_samples",
         "builder", "builder_block_size", "batch_queries", "block_size",
         "aux_index", "filtration", "aux_bulk"],
    )
    def test_retired_keywords_are_unknown(self, small_blobs, keyword):
        from repro import MuDBSCAN, fit_model, stream

        for call in (
            lambda: fit(small_blobs, 0.08, 6, **{keyword: 1}),
            lambda: fit_model(small_blobs, 0.08, 6, **{keyword: 1}),
            lambda: MuDBSCAN(0.08, 6, **{keyword: 1}),
            lambda: stream(0.08, 6, **{keyword: 1}),
        ):
            with pytest.raises(TypeError, match=keyword):
                call()

    def test_deep_imports_still_work(self):
        from repro.core.mudbscan import mu_dbscan as deep_fit
        from repro.distributed.mudbscan_d import mu_dbscan_d as deep_fit_d
        from repro.serving.model import load_model as deep_load

        assert callable(deep_fit) and callable(deep_fit_d) and callable(deep_load)

    def test_extras_keys_name_real_entries(self, small_blobs):
        res = fit(small_blobs, eps=0.08, min_pts=6)
        assert ExtraKeys.N_MICRO_CLUSTERS in res.extras
        assert ExtraKeys.AVG_MC_SIZE in res.extras
        # module-level aliases mirror the class attributes
        from repro.core import extras as extras_mod

        assert extras_mod.N_MICRO_CLUSTERS == ExtraKeys.N_MICRO_CLUSTERS


class TestFitParity:
    """``fit`` is ``mu_dbscan`` — bit-identical fingerprints — and exact
    against the brute-force oracle."""

    @pytest.mark.parametrize("name", dataset_names())
    def test_registry_fingerprints(self, name):
        pts, spec = load_dataset(name, scale=PARITY_SCALE, seed=0)
        via_facade = fit(pts, spec.eps, spec.min_pts)
        direct = mu_dbscan(pts, spec.eps, spec.min_pts)
        assert via_facade.fingerprint() == direct.fingerprint()
        np.testing.assert_array_equal(via_facade.labels, direct.labels)
        np.testing.assert_array_equal(via_facade.core_mask, direct.core_mask)
        assert via_facade.counters.dist_calcs == direct.counters.dist_calcs
        assert via_facade.algorithm == direct.algorithm == "mu_dbscan"
        assert via_facade.extras == direct.extras
        oracle = brute_dbscan(pts, spec.eps, spec.min_pts)
        assert check_exact(via_facade, oracle, points=pts).ok

    @pytest.mark.parametrize("metric", METRICS)
    def test_metric_fingerprints(self, small_blobs, metric):
        via_facade = fit(small_blobs, eps=0.08, min_pts=6, metric=metric)
        direct = mu_dbscan(small_blobs, eps=0.08, min_pts=6, metric=metric)
        np.testing.assert_array_equal(via_facade.labels, direct.labels)
        np.testing.assert_array_equal(via_facade.core_mask, direct.core_mask)
        assert via_facade.counters.dist_calcs == direct.counters.dist_calcs
        oracle = brute_dbscan(small_blobs, 0.08, 6, metric=metric)
        assert check_exact(
            via_facade, oracle, points=small_blobs, metric=metric
        ).ok
