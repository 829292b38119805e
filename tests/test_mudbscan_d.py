"""End-to-end tests of μDBSCAN-D — exact clustering on simulated ranks."""

import numpy as np
import pytest

from repro import brute_dbscan, check_exact, mu_dbscan
from repro.data.synthetic import blobs_with_noise, uniform_box
from repro.distributed.mudbscan_d import LOCAL_PHASES, mu_dbscan_d, parallel_time


class TestExactness:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_exact_across_rank_counts(self, p):
        pts = blobs_with_noise(600, 2, 5, noise_fraction=0.3, seed=100)
        ref = brute_dbscan(pts, 0.08, 5)
        res = mu_dbscan_d(pts, 0.08, 5, n_ranks=p)
        report = check_exact(res, ref, points=pts)
        assert report.ok, f"p={p}: {report}"

    def test_exact_on_3d(self):
        pts = blobs_with_noise(800, 3, 6, noise_fraction=0.25, seed=101)
        ref = brute_dbscan(pts, 0.12, 6)
        res = mu_dbscan_d(pts, 0.12, 6, n_ranks=4)
        assert check_exact(res, ref, points=pts).ok

    def test_exact_on_pure_noise(self):
        pts = uniform_box(300, 2, seed=102)
        ref = brute_dbscan(pts, 0.02, 5)
        res = mu_dbscan_d(pts, 0.02, 5, n_ranks=4)
        assert check_exact(res, ref, points=pts).ok

    def test_exact_cluster_spanning_all_partitions(self):
        # one dense band crossing the whole space: every rank holds a
        # slice of the same cluster, stressing the merge step
        rng = np.random.default_rng(103)
        t = np.linspace(0, 1, 500)
        pts = np.column_stack([t, 0.5 + rng.normal(0, 0.005, 500)])
        ref = brute_dbscan(pts, 0.03, 5)
        assert ref.n_clusters == 1
        res = mu_dbscan_d(pts, 0.03, 5, n_ranks=8)
        assert check_exact(res, ref, points=pts).ok

    def test_matches_sequential_mudbscan(self):
        pts = blobs_with_noise(500, 2, 4, noise_fraction=0.2, seed=104)
        seq = mu_dbscan(pts, 0.1, 5)
        dist = mu_dbscan_d(pts, 0.1, 5, n_ranks=4)
        assert check_exact(dist, seq, points=pts).ok

    def test_deterministic(self):
        pts = blobs_with_noise(400, 2, 4, noise_fraction=0.3, seed=105)
        a = mu_dbscan_d(pts, 0.1, 5, n_ranks=4)
        b = mu_dbscan_d(pts, 0.1, 5, n_ranks=4)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_local_knobs_pass_through(self):
        pts = blobs_with_noise(300, 2, 3, noise_fraction=0.2, seed=106)
        ref = brute_dbscan(pts, 0.1, 5)
        default = mu_dbscan_d(pts, 0.1, 5, n_ranks=2)
        res = mu_dbscan_d(pts, 0.1, 5, n_ranks=2, dynamic_wndq=False, defer_2eps=False)
        assert check_exact(res, ref, points=pts).ok
        # both ablations reached every rank's local μDBSCAN
        assert res.counters.queries_run > default.counters.queries_run
        assert res.counters.deferred_points == 0 < default.counters.deferred_points
        with pytest.raises(RuntimeError, match="builder"):
            mu_dbscan_d(pts, 0.1, 5, n_ranks=2, builder="grid")


class TestReporting:
    @pytest.fixture(scope="class")
    def result(self):
        pts = blobs_with_noise(600, 2, 5, noise_fraction=0.25, seed=107)
        return mu_dbscan_d(pts, 0.08, 5, n_ranks=4)

    def test_per_rank_phase_records(self, result):
        phases = result.extras["per_rank_phases"]
        assert len(phases) == 4
        for rank_phases in phases:
            for name in LOCAL_PHASES + ("partitioning", "halo_exchange", "merging"):
                assert name in rank_phases

    def test_parallel_time_composition(self, result):
        pt = parallel_time(result)
        assert pt > 0
        assert parallel_time(result, include_partitioning=True) >= pt

    def test_comm_volume_tracked(self, result):
        assert result.extras["bytes_sent_total"] > 0
        assert result.extras["messages_sent_total"] > 0

    def test_query_savings_survive_distribution(self, result):
        assert result.counters.query_save_fraction > 0.1

    def test_halo_fraction_reported(self, result):
        for stats in result.extras["per_rank_stats"]:
            assert stats["n_halo"] >= 0
            assert stats["n_owned"] > 0

    def test_power_of_two_required(self):
        pts = uniform_box(50, 2, seed=1)
        with pytest.raises(RuntimeError, match="power-of-two"):
            mu_dbscan_d(pts, 0.1, 5, n_ranks=3)
