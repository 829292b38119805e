"""Unit-level tests of μDBSCAN's individual steps (Algorithms 4, 6, 7, 8)."""

import numpy as np
import pytest

from repro.core.params import DBSCANParams
from repro.core.postprocess import postprocess_core, postprocess_noise
from repro.core.process_mcs import process_micro_clusters
from repro.core.remaining import process_remaining_points
from repro.core.state import MuDBSCANState
from repro.instrumentation.counters import Counters
from repro.microcluster.microcluster import MCKind
from repro.microcluster.murtree import MuRTree


def _make_state(points: np.ndarray, eps: float, min_pts: int) -> MuDBSCANState:
    tree = MuRTree(points, eps)
    tree.compute_reachability()
    return MuDBSCANState(tree, DBSCANParams(eps=eps, min_pts=min_pts), Counters())


class TestProcessMicroClusters:
    def test_dmc_marks_inner_circle_wndq(self):
        # 6 points within 0.05 of origin (IC for eps=0.5), 1 farther out
        pts = np.vstack([np.random.default_rng(0).normal(0, 0.01, (6, 2)),
                         [[0.4, 0.0]]])
        state = _make_state(pts, eps=0.5, min_pts=5)
        mc = state.murtree.mcs[0]
        assert len(state.murtree.mcs) == 1
        assert mc.kind(5) is MCKind.DMC
        process_micro_clusters(state)
        for row in mc.ic_rows:
            assert state.wndq[row] and state.core[row]
        # the outer member is assigned (union with center) but not core
        assert state.assigned.all()
        assert not state.core[6]

    def test_cmc_marks_only_center(self):
        # ring: 5 points at distance 0.4 from center, center at origin
        angles = np.linspace(0, 2 * np.pi, 5, endpoint=False)
        ring = 0.4 * np.column_stack([np.cos(angles), np.sin(angles)])
        pts = np.vstack([[[0.0, 0.0]], ring])
        state = _make_state(pts, eps=0.5, min_pts=5)
        assert len(state.murtree.mcs) == 1
        mc = state.murtree.mcs[0]
        assert mc.kind(5) is MCKind.CMC
        process_micro_clusters(state)
        assert state.wndq[mc.center_row]
        assert state.wndq.sum() == 1
        assert state.assigned.all()

    def test_smc_untouched(self):
        pts = np.array([[0.0, 0.0], [0.3, 0.0]])
        state = _make_state(pts, eps=0.5, min_pts=5)
        process_micro_clusters(state)
        assert not state.wndq.any()
        assert not state.assigned.any()
        assert state.n_components == 2


class TestProcessRemaining:
    def test_all_points_queried_when_no_wndq(self, small_blobs):
        state = _make_state(small_blobs, eps=0.01, min_pts=5)
        process_remaining_points(state)
        assert state.counters.queries_run == small_blobs.shape[0]

    def test_wndq_points_skipped(self):
        pts = np.random.default_rng(1).normal(0, 0.01, (30, 2))
        state = _make_state(pts, eps=0.5, min_pts=5)
        process_micro_clusters(state)
        n_wndq = int(state.wndq.sum())
        assert n_wndq > 0
        process_remaining_points(state)
        assert state.counters.queries_run == 30 - n_wndq

    def test_process_mask_restricts(self, small_blobs):
        state = _make_state(small_blobs, eps=0.01, min_pts=5)
        mask = np.zeros(small_blobs.shape[0], dtype=bool)
        mask[:50] = True
        process_remaining_points(state, process_mask=mask)
        assert state.counters.queries_run == 50

    def test_noise_list_stores_neighborhoods(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0], [10.05, 10.0]])
        state = _make_state(pts, eps=0.2, min_pts=3)
        process_remaining_points(state)
        assert set(state.noise_nbrs) == {0, 1, 2}
        np.testing.assert_array_equal(np.sort(state.noise_nbrs[1]), [1, 2])

    def test_dynamic_wndq_promotes_unprocessed(self):
        # a tight clump: the first queried point promotes the others
        pts = np.random.default_rng(2).normal(0, 0.001, (10, 2))
        state = _make_state(pts, eps=1.0, min_pts=10)
        # skip Algorithm 4 to exercise the dynamic path directly
        process_remaining_points(state, dynamic_wndq=True)
        assert state.counters.queries_run == 1  # only the first point
        assert state.core.all()


class TestPostprocessCore:
    def test_wndq_cores_from_adjacent_mcs_get_connected(self):
        # Two dense 1-d clumps whose centers sit just over eps apart
        # (so they become distinct micro-clusters, both DMC) while their
        # inner-circle points still bridge the gap with dist < eps.
        # Every point ends up wndq-core, so only Algorithm 7 can create
        # the cross-MC connection.
        xs_a = [0.0, 0.01, 0.02, 0.03, 0.04, -0.01, -0.02, -0.03]
        xs_b = [0.101, 0.106, 0.111, 0.116, 0.121, 0.126, 0.131, 0.141]
        pts = np.array([[x, 0.0] for x in xs_a + xs_b])
        state = _make_state(pts, eps=0.1, min_pts=5)
        assert len(state.murtree.mcs) == 2
        process_micro_clusters(state)
        assert state.wndq.all(), "both clumps should be DMC inner circles"
        process_remaining_points(state)
        postprocess_core(state)
        # bridge: 0.04 <-> 0.101 at distance 0.061 < eps
        assert len(set(state.components().tolist())) == 1

    def test_counts_distance_work(self, small_blobs):
        state = _make_state(small_blobs, eps=0.08, min_pts=5)
        process_micro_clusters(state)
        before = state.counters.dist_calcs
        postprocess_core(state)
        if state.wndq_corelist:
            assert state.counters.dist_calcs >= before


class TestPostprocessNoise:
    def test_rescues_border_marked_before_core_was_known(self):
        # p is processed first (no core known yet -> provisional noise);
        # its neighbor later turns core; Algorithm 8 must rescue p.
        state_pts = np.vstack(
            [
                [[0.0, 0.0]],                       # p: only 2 neighbors
                [[0.05, 0.0]],                      # q: will be core
                np.random.default_rng(4).normal(
                    [0.1, 0.0], 0.004, (5, 2)
                ),                                   # q's support clump
            ]
        )
        state = _make_state(state_pts, eps=0.07, min_pts=5)
        process_micro_clusters(state)
        process_remaining_points(state)
        postprocess_core(state)
        postprocess_noise(state)
        noise = state.final_noise_mask()
        assert not noise[0], "p has a core neighbor and must not stay noise"

    def test_assigned_noise_entries_not_remerged(self):
        """A rescued border must not glue two clusters (the Alg. 8 guard)."""
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        state = _make_state(pts, eps=0.5, min_pts=1)
        # synthetic state: row 0 noise-listed with a stored neighbor that
        # is now core, but row 0 was meanwhile assigned elsewhere
        state.noise_nbrs[0] = np.array([1])
        state.core[1] = True
        state.assigned[0] = True
        before = state.n_components
        postprocess_noise(state)
        assert state.n_components == before


class TestEdgeBuffer:
    def test_incremental_folds_match_one_pass(self, rng):
        pts = rng.random((60, 2))
        edges = rng.integers(0, 60, size=(70, 2))
        one_pass = _make_state(pts, eps=0.05, min_pts=5)
        one_pass.union(edges[:, 0], edges[:, 1])
        folded = _make_state(pts, eps=0.05, min_pts=5)
        for chunk in np.array_split(edges, 5):
            folded.union(int(chunk[0, 0]), chunk[:1, 1])
            folded.union(chunk[1:, 0], chunk[1:, 1])
            folded.components()
        np.testing.assert_array_equal(folded.labels(), one_pass.labels())
        for state in (one_pass, folded):
            assert state.counters.unions == 60 - state.n_components
            assert state.assigned[edges.ravel()].all()
            assert state.assigned.sum() == np.unique(edges).size
