"""Unit tests for the two-level μR-tree and reachability."""

import numpy as np
import pytest

from repro.geometry.distance import neighbors_within, sq_dist
from repro.microcluster.murtree import MuRTree


@pytest.fixture
def murtree(small_blobs) -> MuRTree:
    tree = MuRTree(small_blobs, eps=0.08)
    tree.compute_reachability()
    return tree


class TestMuRTree:
    def test_query_ball_exact(self, small_blobs, murtree):
        for row in range(0, small_blobs.shape[0], 17):
            rows, sq = murtree.query_ball(row)
            expected = neighbors_within(small_blobs, small_blobs[row], 0.08)
            np.testing.assert_array_equal(np.sort(rows), np.sort(expected))

    def test_cached_blocks_materialised(self, small_blobs):
        tree = MuRTree(small_blobs, eps=0.08)
        tree.compute_reachability()
        for mc in tree.mcs:
            assert mc.reach_rows is not None and mc.reach_points is not None
            assert mc.reach_points.shape == (mc.reach_rows.shape[0], 2)
            # the block is exactly the union of reachable members
            expected = np.sort(
                np.concatenate([tree.mcs[int(w)].member_rows for w in mc.reach_ids])
            )
            np.testing.assert_array_equal(np.sort(mc.reach_rows), expected)

    def test_returned_sq_dists_correct(self, small_blobs, murtree):
        rows, sq = murtree.query_ball(0)
        for r, s in zip(rows, sq):
            assert s == pytest.approx(sq_dist(small_blobs[0], small_blobs[int(r)]))

    def test_query_without_reachability_raises(self, small_blobs):
        tree = MuRTree(small_blobs, eps=0.08)
        with pytest.raises(RuntimeError, match="compute_reachability"):
            tree.query_ball(0)

    def test_custom_radius_query(self, small_blobs, murtree):
        # any radius up to eps is exact (reachability covers eps)
        rows, _ = murtree.query_ball(3, radius=0.04)
        expected = neighbors_within(small_blobs, small_blobs[3], 0.04)
        np.testing.assert_array_equal(np.sort(rows), np.sort(expected))

    def test_avg_mc_size(self, murtree, small_blobs):
        assert murtree.avg_mc_size == pytest.approx(
            small_blobs.shape[0] / murtree.n_micro_clusters
        )

    def test_postprocessing_candidates_superset_of_ball(self, small_blobs, murtree):
        for row in range(0, small_blobs.shape[0], 31):
            block = murtree.reachable_block(int(murtree.point_mc[row]))
            cands = set(block.tolist())
            ball = set(neighbors_within(small_blobs, small_blobs[row], 0.08).tolist())
            assert ball <= cands

    def test_invalid_args(self, small_blobs):
        with pytest.raises(ValueError, match="eps"):
            MuRTree(small_blobs, eps=-1.0)
        tree = MuRTree(small_blobs, eps=0.08)
        tree.compute_reachability()
        with pytest.raises(ValueError, match="radius"):
            tree.query_ball(0, radius=0.0)


class TestReachability:
    def test_reach_lists_symmetric(self, murtree):
        for mc in murtree.mcs:
            for w in mc.reach_ids:
                assert mc.mc_id in murtree.mcs[int(w)].reach_ids

    def test_reach_includes_self(self, murtree):
        for mc in murtree.mcs:
            assert mc.mc_id in mc.reach_ids

    def test_reach_is_exactly_3eps(self, murtree):
        eps = murtree.eps
        centers = np.stack([mc.center for mc in murtree.mcs])
        for mc in murtree.mcs:
            reach = set(mc.reach_ids.tolist())
            for other in murtree.mcs:
                d_sq = sq_dist(mc.center, other.center)
                if d_sq <= (3 * eps) ** 2:
                    assert other.mc_id in reach
                else:
                    assert other.mc_id not in reach

    def test_idempotent(self, small_blobs):
        tree = MuRTree(small_blobs, eps=0.08)
        tree.compute_reachability()
        first = [mc.reach_ids.copy() for mc in tree.mcs]
        tree.compute_reachability()
        for a, mc in zip(first, tree.mcs):
            np.testing.assert_array_equal(a, mc.reach_ids)
