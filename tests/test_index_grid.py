"""Unit tests for the uniform grid index."""

import numpy as np
import pytest

from repro.geometry.distance import neighbors_within
from repro.index.grid import CenterGrid, UniformGrid


class TestUniformGrid:
    def test_query_matches_brute(self, rng):
        pts = rng.random((300, 2))
        grid = UniformGrid(pts, cell_width=0.1)
        for _ in range(20):
            q = rng.random(2)
            got = np.sort(grid.query_ball(q, 0.15))
            expected = np.sort(neighbors_within(pts, q, 0.15))
            np.testing.assert_array_equal(got, expected)

    def test_query_point_outside_data_extent(self, rng):
        pts = rng.random((100, 2))
        grid = UniformGrid(pts, cell_width=0.1)
        got = np.sort(grid.query_ball(np.array([5.0, 5.0]), 0.2))
        assert got.shape == (0,)
        got2 = np.sort(grid.query_ball(np.array([-0.05, 0.5]), 0.2))
        expected = np.sort(neighbors_within(pts, np.array([-0.05, 0.5]), 0.2))
        np.testing.assert_array_equal(got2, expected)

    def test_cells_partition_points(self, rng):
        pts = rng.random((200, 3))
        grid = UniformGrid(pts, cell_width=0.25)
        all_rows = np.concatenate(list(grid.cells().values()))
        assert np.sort(all_rows).tolist() == list(range(200))

    def test_cell_of_consistent(self, rng):
        pts = rng.random((50, 2))
        grid = UniformGrid(pts, cell_width=0.2)
        for i in range(50):
            assert i in grid.cell_members(grid.cell_of(i)).tolist()

    def test_n_cells_grows_with_dimension(self, rng):
        # same marginal data, higher dimension -> exponentially more
        # occupied cells (the Table IV effect)
        counts = []
        for d in (1, 2, 3):
            pts = rng.random((2000, d))
            counts.append(UniformGrid(pts, cell_width=0.2).n_cells)
        assert counts[0] < counts[1] < counts[2]

    def test_neighbor_cell_keys_includes_self(self, rng):
        pts = rng.random((100, 2))
        grid = UniformGrid(pts, cell_width=0.3)
        key = grid.cell_of(0)
        assert key in grid.neighbor_cell_keys(key, 1)

    def test_neighbor_cell_keys_reach_zero(self, rng):
        pts = rng.random((100, 2))
        grid = UniformGrid(pts, cell_width=0.3)
        key = grid.cell_of(0)
        assert grid.neighbor_cell_keys(key, 0) == [key]

    def test_neighbor_keys_enumeration_paths_agree(self):
        # high-d: stencil enumeration infeasible, occupied-scan kicks in;
        # both paths must return the same set
        rng = np.random.default_rng(5)
        pts = rng.random((60, 8))
        grid = UniformGrid(pts, cell_width=0.4)
        key = grid.cell_of(0)
        via_scan = set(grid.neighbor_cell_keys(key, 3))  # stencil 7^8 >> cells
        center = np.asarray(key)
        expected = {
            k
            for k in grid.cells()
            if np.max(np.abs(np.asarray(k) - center)) <= 3
        }
        assert via_scan == expected

    def test_empty_grid(self):
        grid = UniformGrid(np.empty((0, 2)), cell_width=1.0)
        assert grid.n_cells == 0
        assert grid.query_ball(np.zeros(2), 1.0).shape == (0,)

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="cell_width"):
            UniformGrid(np.zeros((2, 2)), cell_width=0.0)
        grid = UniformGrid(np.zeros((2, 2)), cell_width=1.0)
        with pytest.raises(ValueError, match="radius"):
            grid.candidates_near(np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="reach"):
            grid.neighbor_cell_keys((0, 0), -1)


class TestCenterGridGather:
    @staticmethod
    def _grid(centers, cell_width):
        grid = CenterGrid(centers.min(axis=0), cell_width, centers.shape[1])
        grid.insert(0, centers)
        return grid

    def test_groups_partition_rows_and_cover_near_centers(self, rng):
        centers = rng.random((200, 3))
        points = np.vstack([rng.random((300, 3)), rng.uniform(-1, 2, (50, 3))])
        grid = self._grid(centers, 0.05)
        r = 0.1  # per-axis radius: ceil(r / cell) + 1 safety ring
        reach = int(np.ceil(r / grid.cell_width)) + 1
        seen = np.zeros(points.shape[0], dtype=int)
        for rows, ids in grid.gather(points, reach):
            seen[rows] += 1
            assert np.all(np.diff(ids) > 0), "ids ascending and unique"
            near = np.flatnonzero(
                (np.abs(points[rows][:, None, :] - centers[None]) <= r)
                .all(axis=2)
                .any(axis=0)
            )
            assert set(near) <= set(ids)
        # a row is yielded at most once; rows with no center in reach of
        # their super-cell are skipped
        assert seen.max() == 1

    def test_far_and_non_finite_points(self):
        centers = np.array([[0.0, 0.0], [1.0, 1.0]])
        grid = self._grid(centers, 0.5)
        points = np.array(
            [[1e300, -1e300], [np.inf, 0.0], [-1e18, 1e18], [np.nan, 0.0],
             [0.1, 0.1]]
        )
        with np.errstate(all="raise"):
            groups = list(grid.gather(points, 3))
            cells = grid.coords(points)
        assert np.all(np.abs(cells) <= 2**52)
        gathered = {int(r) for rows, _ in groups for r in rows}
        assert {0, 1, 2} & gathered == set()  # far rows reach no center
        assert 4 in gathered

    def test_empty_inputs(self):
        grid = CenterGrid(np.zeros(2), 1.0, 2)
        assert list(grid.gather(np.ones((3, 2)), 2)) == []  # no centers
        grid.insert(0, np.zeros((1, 2)))
        assert list(grid.gather(np.empty((0, 2)), 2)) == []  # no points
