"""Unit tests for the union-find structure and edge-array connectivity."""

import numpy as np
import pytest

from repro.instrumentation.counters import Counters
from repro.unionfind.components import dense_labels, edge_components
from repro.unionfind.unionfind import UnionFind


class TestUnionFind:
    def test_initial_singletons(self):
        uf = UnionFind(5)
        assert uf.n_sets == 5
        assert all(uf.find(i) == i for i in range(5))

    def test_union_reduces_set_count(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert uf.n_sets == 3
        assert not uf.union(0, 1)  # already merged
        assert uf.n_sets == 3

    def test_transitivity(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(3, 4)
        assert uf.connected(0, 2)
        assert uf.connected(3, 4)
        assert not uf.connected(2, 3)

    def test_roots_vectorized_matches_find(self, rng):
        uf = UnionFind(200)
        for _ in range(150):
            a, b = rng.integers(0, 200, size=2)
            uf.union(int(a), int(b))
        roots = uf.roots()
        for i in range(200):
            assert roots[i] == uf.find(i)

    def test_labels_dense_and_deterministic(self):
        uf = UnionFind(6)
        uf.union(4, 5)
        uf.union(0, 1)
        labels = uf.labels()
        # first-appearance order: element 0's set gets label 0
        assert labels[0] == labels[1] == 0
        assert labels[2] == 1
        assert labels[3] == 2
        assert labels[4] == labels[5] == 3

    def test_labels_with_noise_mask(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        noise = np.array([False, False, True, False])
        labels = uf.labels(noise_mask=noise)
        assert labels[2] == -1
        assert labels[0] == labels[1] == 0
        assert labels[3] == 1

    def test_counters_count_effective_unions(self):
        counters = Counters()
        uf = UnionFind(4, counters=counters)
        uf.union(0, 1)
        uf.union(0, 1)
        uf.union(2, 3)
        assert counters.unions == 2

    def test_long_chain_no_recursion_error(self):
        n = 50_000
        uf = UnionFind(n)
        for i in range(n - 1):
            uf.union(i, i + 1)
        assert uf.n_sets == 1
        assert uf.find(0) == uf.find(n - 1)

    def test_zero_elements(self):
        uf = UnionFind(0)
        assert len(uf) == 0
        assert uf.labels().shape == (0,)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="n must be"):
            UnionFind(-1)


class TestEdgeComponents:
    @pytest.mark.parametrize("n_edges", [0, 40, 150, 400])
    def test_matches_union_find(self, rng, n_edges):
        n = 200
        edges = rng.integers(0, n, size=(n_edges, 2))
        uf = UnionFind(n)
        for a, b in edges:
            uf.union(int(a), int(b))
        n_comp, comp = edge_components(n, edges[:, 0], edges[:, 1])
        assert n_comp == uf.n_sets
        assert comp.dtype == np.int64
        noise = rng.random(n) < 0.2
        np.testing.assert_array_equal(
            dense_labels(comp, noise_mask=noise), uf.labels(noise_mask=noise)
        )

    def test_dense_labels_first_appearance(self):
        labels = dense_labels(np.array([7, 3, 7, 9, 3, 2]), noise_mask=np.array([0, 0, 0, 1, 0, 0]))
        np.testing.assert_array_equal(labels, [0, 1, 0, -1, 1, 2])

    def test_dense_labels_all_noise_and_empty(self):
        np.testing.assert_array_equal(
            dense_labels(np.array([1, 2]), noise_mask=np.array([True, True])), [-1, -1]
        )
        assert dense_labels(np.empty(0, dtype=np.int64)).shape == (0,)
