"""Tests for fragment resolution (the distributed merge, §V-C)."""

import numpy as np
import pytest

from repro.distributed.merging import resolve_fragments
from repro.distributed.protocol import LocalFragment
from repro.unionfind.unionfind import UnionFind


def _frag(gids, core, assigned, intra=(), cross=()):
    return LocalFragment(
        owned_gids=np.asarray(gids, dtype=np.int64),
        core=np.asarray(core, dtype=bool),
        assigned=np.asarray(assigned, dtype=bool),
        intra_edges=np.asarray(list(intra), dtype=np.int64).reshape(-1, 2),
        cross_pairs=np.asarray(list(cross), dtype=np.int64).reshape(-1, 2),
    )


def _replay_resolve(frags, n_global):
    """Reference: the per-pair union-find replay of the cross pairs."""
    core = np.zeros(n_global, dtype=bool)
    assigned = np.zeros(n_global, dtype=bool)
    for f in frags:
        core[f.owned_gids] = f.core
        assigned[f.owned_gids] = f.assigned
    uf = UnionFind(n_global)
    for f in frags:
        for a, b in f.intra_edges:
            uf.union(int(a), int(b))
    for f in frags:
        for a, b in f.cross_pairs:
            a, b = int(a), int(b)
            if core[a] and core[b]:
                uf.union(a, b)
            elif core[a] and not assigned[b]:
                uf.union(a, b)
                assigned[b] = True
            elif core[b] and not assigned[a]:
                uf.union(a, b)
                assigned[a] = True
    return uf.labels(noise_mask=~core & ~assigned), assigned, uf.n_sets


class TestResolveFragments:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_pair_replay(self, seed):
        """One ordered claim pass + one components call resolve exactly
        like replaying every pair through a union-find: competing border
        claims, duplicates and pre-assigned borders included."""
        from repro.instrumentation.counters import Counters

        rng = np.random.default_rng(seed)
        n = 80
        owner = rng.integers(0, 3, size=n)
        core = rng.random(n) < 0.4
        assigned = core | (rng.random(n) < 0.2)
        frags = []
        for r in range(3):
            gids = np.flatnonzero(owner == r)
            intra = rng.choice(gids, size=(gids.size // 3, 2)) if gids.size else ()
            cross = rng.integers(0, n, size=(40, 2))
            cross = cross[owner[cross[:, 0]] == r]
            cross = np.vstack([cross, cross[: cross.shape[0] // 4]])  # duplicates
            frags.append(_frag(gids, core[gids], assigned[gids], intra=intra, cross=cross))
        counters = Counters()
        out = resolve_fragments(frags, n, counters=counters)
        labels, claimed, n_sets = _replay_resolve(frags, n)
        np.testing.assert_array_equal(out.labels, labels)
        np.testing.assert_array_equal(out.assigned_mask, claimed)
        assert counters.unions == n - n_sets
        assert out.n_cross_pairs == sum(f.cross_pairs.shape[0] for f in frags)

    def test_two_rank_merge_with_noise(self):
        frags = [
            _frag([0, 1, 2], [True, True, False], [True, True, False],
                  intra=[(0, 1)], cross=[(1, 3)]),
            _frag([3, 4, 5], [True, False, False], [True, True, False],
                  intra=[(3, 4)]),
        ]
        labels = resolve_fragments(frags, 6).labels
        assert labels[0] == labels[1] == labels[3] == labels[4] == 0
        assert labels[2] == -1 and labels[5] == -1

    def test_core_core_pair_merges(self):
        frags = [
            _frag([0, 1], [True, True], [True, True], intra=[(0, 1)], cross=[(1, 2)]),
            _frag([2, 3], [True, True], [True, True], intra=[(2, 3)]),
        ]
        out = resolve_fragments(frags, 4)
        assert len(set(out.labels)) == 1  # one cluster

    def test_border_claim_first_come(self):
        # point 1 is non-core; cores 0 and 2 both claim it
        frags = [
            _frag([0], [True], [True], cross=[(0, 1)]),
            _frag([1], [False], [False]),
            _frag([2], [True], [True], cross=[(2, 1)]),
        ]
        out = resolve_fragments(frags, 3)
        labels = out.labels
        assert labels[1] == labels[0]  # first claim wins
        assert labels[2] != labels[0]
        assert out.assigned_mask[1]

    def test_locally_assigned_border_not_reclaimed(self):
        # point 1 already assigned locally to core 0's cluster
        frags = [
            _frag([0, 1], [True, False], [True, True], intra=[(1, 0)]),
            _frag([2], [True], [True], cross=[(2, 1)]),
        ]
        out = resolve_fragments(frags, 3)
        labels = out.labels
        assert labels[1] == labels[0]
        assert labels[2] != labels[0]

    def test_noncore_pair_is_noop(self):
        frags = [
            _frag([0], [False], [False], cross=[(0, 1)]),
            _frag([1], [False], [False]),
        ]
        out = resolve_fragments(frags, 2)
        assert (out.labels == -1).all()

    def test_noise_rescue_via_remote_core(self):
        frags = [
            _frag([0], [False], [False], cross=[(0, 1)]),
            _frag([1], [True], [True]),
        ]
        out = resolve_fragments(frags, 2)
        assert out.labels[0] == out.labels[1] >= 0

    def test_overlapping_ownership_rejected(self):
        frags = [
            _frag([0, 1], [True, True], [True, True]),
            _frag([1, 2], [True, True], [True, True]),
        ]
        with pytest.raises(ValueError, match="owned twice"):
            resolve_fragments(frags, 3)

    def test_missing_ownership_rejected(self):
        frags = [_frag([0], [True], [True])]
        with pytest.raises(ValueError, match="unowned"):
            resolve_fragments(frags, 2)

    def test_overlap_reported_before_gap(self):
        # two all-noise ranks that both own id 1 and leave id 3 unowned
        frags = [
            _frag([0, 1], [False, False], [False, False]),
            _frag([1, 2], [False, False], [False, False]),
        ]
        with pytest.raises(ValueError, match="owned twice"):
            resolve_fragments(frags, 4)

    def test_gap_count_reported(self):
        frags = [_frag([0, 1, 2], [False] * 3, [False] * 3)]
        with pytest.raises(ValueError, match=r"\b1 ids unowned"):
            resolve_fragments(frags, 4)

    def test_deterministic_order(self):
        # same fragments, two runs -> identical labels
        frags = [
            _frag([0, 1], [True, False], [True, False], cross=[(0, 2), (0, 1)]),
            _frag([2, 3], [True, False], [True, False], cross=[(2, 1)]),
        ]
        a = resolve_fragments(frags, 4).labels
        b = resolve_fragments(frags, 4).labels
        np.testing.assert_array_equal(a, b)

    def test_fragment_validation(self):
        with pytest.raises(ValueError, match="align"):
            LocalFragment(
                owned_gids=np.array([0, 1]),
                core=np.array([True]),
                assigned=np.array([True, False]),
                intra_edges=np.empty((0, 2)),
                cross_pairs=np.empty((0, 2)),
            )
