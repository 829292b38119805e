"""The local step of μDBSCAN-D — restricted μDBSCAN over owned + halo.

Runs the full sequential μDBSCAN machinery on the concatenation of a
rank's owned points and its ε-halo, with two ownership-aware twists
implemented by :class:`DistributedMuDBSCANState`:

* every merge edge is routed by ownership as it is emitted: an
  owned↔owned edge goes to the local edge buffer (whose components
  become the fragment's ``intra_edges``); an owned↔halo edge is
  *deferred* as a cross pair for the global merge (the halo endpoint's
  true core/assignment status lives at its owner), kept in emission
  order; a halo↔halo edge is dropped (both owners will handle it).
  Halo rows therefore stay local singletons.
* Algorithm 7 also tests halo candidates that are not locally core
  (``postprocess_unknown_mask``) and emits their ε-relations as cross
  pairs: a halo point that looks non-core here may be core globally,
  and the missing core-core edge would otherwise be lost by *both*
  ranks (each seeing the other's endpoint as non-core).  The merge
  applies the pair under global flags, so the widening never creates
  an illegal union.

After the run, every still-unassigned provisionally-noise owned point
emits pairs to its halo neighbors: one of them may be core globally,
which turns the point into that cluster's border (Algorithm 8's rescue,
distributed).
"""

from __future__ import annotations

import numpy as np

from repro.core.mudbscan import run_mu_dbscan_state
from repro.core.params import DBSCANParams
from repro.core.state import MuDBSCANState
from repro.distributed.protocol import LocalFragment
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer
from repro.microcluster.murtree import MuRTree

__all__ = ["DistributedMuDBSCANState", "run_local_mu_dbscan"]


class DistributedMuDBSCANState(MuDBSCANState):
    """Ownership-aware μDBSCAN state (see module docstring)."""

    def __init__(
        self,
        murtree: MuRTree,
        params: DBSCANParams,
        counters: Counters,
        owned: np.ndarray,
        gids: np.ndarray,
    ) -> None:
        super().__init__(murtree, params, counters)
        if owned.shape != (self.n,) or gids.shape != (self.n,):
            raise ValueError(
                f"owned/gids must cover all {self.n} local points, got "
                f"{owned.shape} / {gids.shape}"
            )
        self.owned = np.asarray(owned, dtype=bool)
        self.gids = np.asarray(gids, dtype=np.int64)
        #: ``(owned gid, halo gid)`` pair arrays in emission order
        self._cross: list[np.ndarray] = []

    def union(self, x: int | np.ndarray, ys: np.ndarray) -> None:
        xs = np.broadcast_to(np.int64(x), ys.shape)
        xo = self.owned[xs]
        yo = self.owned[ys]
        local = xo & yo
        if local.all():
            super().union(x, ys)
            return
        if local.any():
            super().union(xs[local], ys[local])
        cross = xo != yo
        if cross.any():
            owned_row = np.where(xo, xs, ys)[cross]
            halo_row = np.where(xo, ys, xs)[cross]
            self._cross.append(
                np.column_stack([self.gids[owned_row], self.gids[halo_row]])
            )
        # halo-halo: both owners will see this relation themselves

    def cross_pairs(self) -> np.ndarray:
        """The emitted cross pairs, deduplicated keeping first occurrence.

        Duplicates are common (Algorithms 6 and 7 both touch the same
        owned-halo edges); keeping the first occurrence keeps border
        claims in emission order while the exchanged volume shrinks.
        """
        if not self._cross:
            return np.empty((0, 2), dtype=np.int64)
        pairs = np.concatenate(self._cross)
        _, first = np.unique(pairs, axis=0, return_index=True)
        return pairs[np.sort(first)]

    def postprocess_unknown_mask(self, candidates: np.ndarray) -> np.ndarray:
        # halo points not locally proven core: their ε-relations become
        # cross pairs, never local merges
        return ~self.owned[candidates] & ~self.core[candidates]


def _emit_noise_rescue_pairs(state: DistributedMuDBSCANState) -> None:
    """Distributed Algorithm 8: unresolved noise may border a remote core.

    Every still-unassigned, non-core noise-listed row is paired with
    each of its halo neighbors, in noise-list order.
    """
    live = state.pending_noise()
    owner, flat = state.stored_neighbors(live)
    halo = ~state.owned[flat]
    state.union(live[owner[halo]], flat[halo])


def _extract_intra_edges(state: DistributedMuDBSCANState) -> np.ndarray:
    """(gid, gid of its component's first row) for every owned point
    merged locally.

    Owned rows only ever merge with owned rows, so the first row of an
    owned row's component is itself owned and its gid well-defined.
    """
    comp = state.components()
    _, first_row = np.unique(comp, return_index=True)
    rows = np.flatnonzero(state.owned)
    roots = first_row[comp[rows]]
    merged = roots != rows
    if not merged.any():
        return np.empty((0, 2), dtype=np.int64)
    return np.column_stack([state.gids[rows[merged]], state.gids[roots[merged]]])


def run_local_mu_dbscan(
    owned_points: np.ndarray,
    owned_gids: np.ndarray,
    halo_points: np.ndarray,
    halo_gids: np.ndarray,
    params: DBSCANParams,
    *,
    timers: PhaseTimer | None = None,
    **mu_kwargs,
) -> LocalFragment:
    """Run μDBSCAN locally and package the rank's fragment.

    Only the rank's owned rows are queried (``process_mask``); halo
    points stay query-free.  ``mu_kwargs`` (the ablation switches,
    ``max_entries``, ``metric``, ``progress_cb``) pass through to
    :func:`~repro.core.mudbscan.run_mu_dbscan_state`.
    """
    n_owned = owned_points.shape[0]
    if halo_points.shape[0]:
        all_points = np.vstack([owned_points, halo_points])
        all_gids = np.concatenate(
            [np.asarray(owned_gids, dtype=np.int64), np.asarray(halo_gids, dtype=np.int64)]
        )
    else:
        all_points = np.asarray(owned_points, dtype=np.float64)
        all_gids = np.asarray(owned_gids, dtype=np.int64)
    owned_mask = np.zeros(all_points.shape[0], dtype=bool)
    owned_mask[:n_owned] = True

    counters = Counters()

    def factory(murtree: MuRTree, p: DBSCANParams, c: Counters) -> MuDBSCANState:
        return DistributedMuDBSCANState(murtree, p, c, owned_mask, all_gids)

    state, timers = run_mu_dbscan_state(
        all_points,
        params,
        counters=counters,
        timers=timers,
        process_mask=owned_mask,
        state_factory=factory,
        **mu_kwargs,
    )
    assert isinstance(state, DistributedMuDBSCANState)
    _emit_noise_rescue_pairs(state)

    return LocalFragment(
        owned_gids=all_gids[:n_owned],
        core=state.core[:n_owned].copy(),
        assigned=state.assigned[:n_owned].copy(),
        intra_edges=_extract_intra_edges(state),
        cross_pairs=state.cross_pairs(),
        counters=counters,
        stats={
            "phase_seconds": timers.as_dict(),
            "n_micro_clusters": state.murtree.n_micro_clusters,
            "n_halo": int(halo_points.shape[0]),
            "n_owned": int(n_owned),
            "n_wndq_core": len(state.wndq_corelist),
        },
    )
