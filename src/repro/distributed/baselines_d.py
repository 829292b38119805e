"""Distributed baselines of Table V, on the same execution backends.

* :func:`pdsdbscan_d` — PDSDBSCAN-D (Patwary et al. 2012): spatial
  partitioning + classical R-tree DBSCAN per rank (a query for every
  owned point, no savings) + disjoint-set merging.  Exact.
* :func:`grid_dbscan_d` — GridDBSCAN-D (Kumari et al. 2017): same
  pipeline with ε/√d-grid local clustering (all-core-cell query saves).
  Exact.
* :func:`hpdbscan_like` — HPDBSCAN-flavoured: ε-grid local clustering
  with *approximate merging* — only locally-visible core-core links are
  exchanged (no border claims, no noise rescue, no halo-core probing).
  Clusters whose connecting edge is invisible to both sides stay split
  and boundary borders degrade to noise: this reproduces the
  cluster-count drift the paper reports for HPDBSCAN (~27% on FOF56M)
  while keeping its speed (it skips the entire probe traffic).
* :func:`rp_dbscan_like` — RP-DBSCAN-flavoured (Song & Lee 2018):
  *random* partitioning (no spatial partitioning phase at all), per-rank
  ε/√d cell summaries aggregated into a global cell dictionary, and
  ρ-approximate cell-graph clustering: core cells are found exactly from
  aggregated counts, but cell-to-cell connectivity uses center distance
  — the ρ-style approximation.  Approximate by construction.

The exact baselines reuse μDBSCAN-D's fragment/merge protocol, so any
difference in their outputs would localise to the local step.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from repro.core.extras import ExtraKeys
from repro.core.params import DBSCANParams
from repro.core.result import ClusteringResult
from repro.distributed.halo import exchange_halo
from repro.distributed.merging import resolve_fragments
from repro.distributed.partition import kd_partition
from repro.distributed.protocol import LocalFragment
from repro.distributed.backends.base import Communicator
from repro.distributed.backends.thread import run_mpi
from repro.geometry.distance import pairwise_sq_dists, sq_dists_to_point
from repro.index.grid import UniformGrid
from repro.index.rtree import PointRTree
from repro.instrumentation.counters import Counters
from repro.instrumentation.timers import PhaseTimer
from repro.unionfind.unionfind import UnionFind

__all__ = ["pdsdbscan_d", "grid_dbscan_d", "hpdbscan_like", "rp_dbscan_like"]

_DIAG_SAFETY = 1.0 - 1e-9

LocalStep = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray, DBSCANParams, PhaseTimer],
    LocalFragment,
]


# ---------------------------------------------------------------------------
# shared driver for the spatially-partitioned algorithms


def _spatial_driver(
    points: np.ndarray,
    params: DBSCANParams,
    n_ranks: int,
    local_step: LocalStep,
    algorithm: str,
    sample_size: int = 256,
    seed: int = 0,
) -> ClusteringResult:
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {pts.shape}")
    n_global = pts.shape[0]

    def rank_main(comm: Communicator) -> dict[str, Any]:
        timers = PhaseTimer(clock=time.thread_time)
        blocks = np.array_split(np.arange(n_global, dtype=np.int64), comm.size)
        my_gids = blocks[comm.rank]
        with timers.phase("partitioning"):
            part = kd_partition(
                comm, pts[my_gids], my_gids, sample_size=sample_size, seed=seed
            )
        with timers.phase("halo_exchange"):
            halo = exchange_halo(
                comm, part.points, part.gids,
                part.all_box_lows, part.all_box_highs, params.eps,
            )
        fragment = local_step(
            part.points, part.gids, halo.points, halo.gids, params, timers
        )
        with timers.phase("merging"):
            fragments = comm.gather(fragment, root=0)
            outcome = (
                resolve_fragments(fragments, n_global) if comm.rank == 0 else None
            )
            comm.barrier()
        return {
            "labels": outcome.labels if outcome is not None else None,
            "core_mask": outcome.core_mask if outcome is not None else None,
            "phase_seconds": timers.as_dict(),
            "counters": fragment.counters,
            "stats": fragment.stats,
            "bytes_sent": comm.bytes_sent,
        }

    rank_results = run_mpi(n_ranks, rank_main)
    counters = Counters()
    timers = PhaseTimer()
    for rr in rank_results:
        counters.merge(rr["counters"])
        rank_timer = PhaseTimer()
        for name, secs in rr["phase_seconds"].items():
            rank_timer.add(name, secs)
        timers.merge_max(rank_timer)
    return ClusteringResult(
        labels=rank_results[0]["labels"],
        core_mask=rank_results[0]["core_mask"],
        params=params,
        algorithm=algorithm,
        counters=counters,
        timers=timers,
        extras={
            ExtraKeys.N_RANKS: n_ranks,
            ExtraKeys.PER_RANK_PHASES: [rr["phase_seconds"] for rr in rank_results],
            ExtraKeys.PER_RANK_STATS: [rr["stats"] for rr in rank_results],
            ExtraKeys.BYTES_SENT_TOTAL: sum(rr["bytes_sent"] for rr in rank_results),
        },
    )


# ---------------------------------------------------------------------------
# fragment assembly shared by the classical/grid local steps


def _fragment_from_lists(
    n_owned: int,
    n_local: int,
    gids: np.ndarray,
    owned_mask: np.ndarray,
    core: np.ndarray,
    neighbor_lists: dict[int, np.ndarray],
    counters: Counters,
    stats: dict[str, Any],
    presets: list[tuple[int, int]] | None = None,
    emit_core_halo: bool = True,
    emit_rescue: bool = True,
) -> LocalFragment:
    """Algorithm-1 union pass restricted to owned points + pair emission.

    ``presets`` are extra owned-owned unions (grid cell merges) applied
    before the scan.  ``core`` covers all local rows but is only exact
    for owned ones.  ``emit_core_halo=False`` / ``emit_rescue=False``
    produce the HPDBSCAN-style approximate fragment.
    """
    uf = UnionFind(n_local, counters=counters)
    assigned = np.zeros(n_local, dtype=bool)
    pairs: list[tuple[int, int]] = []

    if presets:
        for a, b in presets:
            uf.union(a, b)
            assigned[a] = True
            assigned[b] = True

    for row in range(n_owned):
        if not core[row]:
            continue
        nbrs = neighbor_lists.get(row)
        if nbrs is None:
            continue  # shortcut core; its merges came through presets
        for q in nbrs:
            qi = int(q)
            if qi == row:
                continue
            if owned_mask[qi]:
                if core[qi] or not assigned[qi]:
                    uf.union(row, qi)
                    assigned[qi] = True
            elif emit_core_halo or core[qi]:
                pairs.append((int(gids[row]), int(gids[qi])))
        assigned[row] = True

    # borders whose only adjacent cores never ran a query (all-core-cell
    # shortcut cores carry no neighbor list): attach them from their own
    # side, like sequential GridDBSCAN's border pass
    for row in range(n_owned):
        if core[row] or assigned[row]:
            continue
        nbrs = neighbor_lists.get(row)
        if nbrs is None:
            continue
        owned_cores = [int(q) for q in nbrs if owned_mask[int(q)] and core[int(q)]]
        if owned_cores:
            uf.union(owned_cores[0], row)
            assigned[row] = True

    # owned non-core points that nothing local claimed: a remote core may
    # still adopt them (or prove they are not noise)
    if emit_rescue:
        for row in range(n_owned):
            if core[row] or assigned[row]:
                continue
            nbrs = neighbor_lists.get(row)
            if nbrs is None:
                continue
            for q in nbrs:
                qi = int(q)
                if not owned_mask[qi]:
                    pairs.append((int(gids[row]), int(gids[qi])))

    edges = [
        (int(gids[row]), int(gids[uf.find(row)]))
        for row in range(n_owned)
        if uf.find(row) != row
    ]
    return LocalFragment(
        owned_gids=gids[:n_owned],
        core=core[:n_owned].copy(),
        assigned=assigned[:n_owned].copy(),
        intra_edges=(
            np.asarray(edges, dtype=np.int64) if edges else np.empty((0, 2), np.int64)
        ),
        cross_pairs=(
            np.asarray(list(dict.fromkeys(pairs)), dtype=np.int64)
            if pairs
            else np.empty((0, 2), np.int64)
        ),
        counters=counters,
        stats=stats,
    )


def _stack_local(
    owned_points: np.ndarray,
    owned_gids: np.ndarray,
    halo_points: np.ndarray,
    halo_gids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    n_owned = owned_points.shape[0]
    if halo_points.shape[0]:
        all_points = np.vstack([owned_points, halo_points])
        all_gids = np.concatenate(
            [np.asarray(owned_gids, np.int64), np.asarray(halo_gids, np.int64)]
        )
    else:
        all_points = np.asarray(owned_points, dtype=np.float64)
        all_gids = np.asarray(owned_gids, dtype=np.int64)
    owned_mask = np.zeros(all_points.shape[0], dtype=bool)
    owned_mask[:n_owned] = True
    return all_points, all_gids, owned_mask, n_owned


# ---------------------------------------------------------------------------
# PDSDBSCAN-D


def _classical_local_step(
    owned_points: np.ndarray,
    owned_gids: np.ndarray,
    halo_points: np.ndarray,
    halo_gids: np.ndarray,
    params: DBSCANParams,
    timers: PhaseTimer,
) -> LocalFragment:
    all_points, all_gids, owned_mask, n_owned = _stack_local(
        owned_points, owned_gids, halo_points, halo_gids
    )
    counters = Counters()
    with timers.phase("tree_construction"):
        index = PointRTree(all_points, counters=counters)
    core = np.zeros(all_points.shape[0], dtype=bool)
    neighbor_lists: dict[int, np.ndarray] = {}
    with timers.phase("clustering"):
        for row in range(n_owned):
            nbrs = index.query_ball(all_points[row], params.eps)
            counters.queries_run += 1
            neighbor_lists[row] = nbrs
            if nbrs.shape[0] >= params.min_pts:
                core[row] = True
    with timers.phase("post_processing"):
        fragment = _fragment_from_lists(
            n_owned, all_points.shape[0], all_gids, owned_mask,
            core, neighbor_lists, counters,
            stats={"n_owned": n_owned, "n_halo": int(halo_points.shape[0])},
        )
    return fragment


def pdsdbscan_d(
    points: np.ndarray, eps: float, min_pts: int, n_ranks: int, **kwargs: Any
) -> ClusteringResult:
    """Exact distributed DBSCAN with per-point R-tree queries (PDSDBSCAN-D)."""
    params = DBSCANParams(eps=eps, min_pts=min_pts)
    return _spatial_driver(
        points, params, n_ranks, _classical_local_step, "pdsdbscan_d", **kwargs
    )


# ---------------------------------------------------------------------------
# GridDBSCAN-D and the HPDBSCAN-like approximation


def _grid_local_step(
    owned_points: np.ndarray,
    owned_gids: np.ndarray,
    halo_points: np.ndarray,
    halo_gids: np.ndarray,
    params: DBSCANParams,
    timers: PhaseTimer,
    *,
    cell_diag_eps: bool = True,
    emit_core_halo: bool = True,
    emit_rescue: bool = True,
    query_halo: bool = False,
) -> LocalFragment:
    """Grid-based local clustering.

    ``cell_diag_eps=True`` is GridDBSCAN-D (ε/√d cells, all-core-cell
    shortcut); with it off plus both emissions off this becomes the
    HPDBSCAN-like local step (ε cells, every owned point queried,
    approximate merge traffic).  ``query_halo`` additionally computes
    halo points' core flags from their (truncated) local neighborhoods
    — HPDBSCAN merges on those locally-visible flags, which is exactly
    where its approximation loses cross-rank edges: a halo core whose
    witnesses lie outside the halo looks non-core here.
    """
    all_points, all_gids, owned_mask, n_owned = _stack_local(
        owned_points, owned_gids, halo_points, halo_gids
    )
    n_local, d = all_points.shape
    counters = Counters()
    eps_sq = params.eps_sq

    with timers.phase("tree_construction"):
        width = params.eps / np.sqrt(d) * _DIAG_SAFETY if cell_diag_eps else params.eps
        grid = UniformGrid(all_points, width, counters=counters)
        reach = int(np.ceil(params.eps / grid.cell_width))
        cells = grid.cells()
        neighbor_keys = {key: grid.neighbor_cell_keys(key, reach) for key in cells}

    core = np.zeros(n_local, dtype=bool)
    all_core_cells: list[tuple[int, ...]] = []
    neighbor_lists: dict[int, np.ndarray] = {}
    presets: list[tuple[int, int]] = []
    pairs_from_cells: list[tuple[int, int]] = []

    with timers.phase("clustering"):
        if cell_diag_eps:
            for key, rows in cells.items():
                if rows.shape[0] >= params.min_pts:
                    core[rows] = True
                    all_core_cells.append(key)
                    counters.queries_saved += int(np.count_nonzero(owned_mask[rows]))
        for key, rows in cells.items():
            if cell_diag_eps and rows.shape[0] >= params.min_pts:
                continue
            query_rows = rows if query_halo else rows[owned_mask[rows]]
            if query_rows.size == 0:
                continue
            candidates = np.concatenate([cells[k] for k in neighbor_keys[key]])
            for row in query_rows:
                row = int(row)
                counters.dist_calcs += int(candidates.shape[0])
                sq = sq_dists_to_point(all_points[candidates], all_points[row])
                nbrs = candidates[sq < eps_sq]
                if owned_mask[row]:
                    counters.queries_run += 1
                    neighbor_lists[row] = nbrs
                if nbrs.shape[0] >= params.min_pts:
                    core[row] = True

    with timers.phase("post_processing"):
        all_core_set = set(all_core_cells)
        for key in all_core_cells:
            rows = cells[key]
            owned_rows = rows[owned_mask[rows]]
            halo_rows = rows[~owned_mask[rows]]
            if owned_rows.size:
                anchor = int(owned_rows[0])
                for row in owned_rows[1:]:
                    presets.append((anchor, int(row)))
                for row in halo_rows:
                    pairs_from_cells.append(
                        (int(all_gids[anchor]), int(all_gids[int(row)]))
                    )
            for other in neighbor_keys[key]:
                if other <= key or other not in all_core_set:
                    continue
                rows_b = cells[other]
                counters.dist_calcs += int(rows.shape[0] * rows_b.shape[0])
                cross = pairwise_sq_dists(all_points[rows], all_points[rows_b])
                close = np.argwhere(cross < eps_sq)
                if close.size == 0:
                    continue
                # prefer an owned-owned connecting edge; else one owned-halo
                linked = False
                for ia, ib in close:
                    ra, rb = int(rows[ia]), int(rows_b[ib])
                    if owned_mask[ra] and owned_mask[rb]:
                        presets.append((ra, rb))
                        linked = True
                        break
                if not linked:
                    for ia, ib in close:
                        ra, rb = int(rows[ia]), int(rows_b[ib])
                        if owned_mask[ra] != owned_mask[rb]:
                            o, h = (ra, rb) if owned_mask[ra] else (rb, ra)
                            pairs_from_cells.append(
                                (int(all_gids[o]), int(all_gids[h]))
                            )
                            linked = True
                            break
                # halo-halo only: both owners will see it themselves
        fragment = _fragment_from_lists(
            n_owned, n_local, all_gids, owned_mask, core, neighbor_lists, counters,
            stats={
                "n_owned": n_owned,
                "n_halo": int(halo_points.shape[0]),
                "n_cells": grid.n_cells,
                "n_all_core_cells": len(all_core_cells),
            },
            presets=presets,
            emit_core_halo=emit_core_halo,
            emit_rescue=emit_rescue,
        )
        if pairs_from_cells:
            merged = np.vstack(
                [fragment.cross_pairs, np.asarray(pairs_from_cells, dtype=np.int64)]
            )
            fragment.cross_pairs = np.asarray(
                list(dict.fromkeys(map(tuple, merged.tolist()))), dtype=np.int64
            )
    return fragment


def grid_dbscan_d(
    points: np.ndarray, eps: float, min_pts: int, n_ranks: int, **kwargs: Any
) -> ClusteringResult:
    """Exact distributed GridDBSCAN (ε/√d cells, all-core shortcut)."""
    params = DBSCANParams(eps=eps, min_pts=min_pts)
    return _spatial_driver(
        points, params, n_ranks, _grid_local_step, "grid_dbscan_d", **kwargs
    )


def hpdbscan_like(
    points: np.ndarray, eps: float, min_pts: int, n_ranks: int, **kwargs: Any
) -> ClusteringResult:
    """HPDBSCAN-flavoured: ε-grid local clustering, approximate merging.

    Fast — it exchanges only locally-visible core-core links — but
    clusters split across ranks whose connecting cores are not mutually
    visible stay split, and boundary borders fall to noise.  Quantify
    the drift with :func:`repro.validation.metrics.cluster_count_drift`.
    """
    params = DBSCANParams(eps=eps, min_pts=min_pts)

    def step(op, og, hp, hg, prm, timers):  # noqa: ANN001 — LocalStep shape
        return _grid_local_step(
            op, og, hp, hg, prm, timers,
            cell_diag_eps=False, emit_core_halo=False, emit_rescue=False,
            query_halo=True,
        )

    return _spatial_driver(points, params, n_ranks, step, "hpdbscan_like", **kwargs)


# ---------------------------------------------------------------------------
# RP-DBSCAN-like (random partitioning, cell dictionary, ρ-approximate)


def rp_dbscan_like(
    points: np.ndarray, eps: float, min_pts: int, n_ranks: int, seed: int = 0
) -> ClusteringResult:
    """RP-DBSCAN-flavoured approximate distributed DBSCAN.

    Random (pseudo) partitioning — there is deliberately *no* spatial
    partitioning phase (RP-DBSCAN's selling point) — then a two-round
    cell-dictionary protocol:

    1. every rank summarises its random subset into sub-cells of edge
       ``eps / (2 sqrt(d))`` (diagonal ε/2) and the counts are
       aggregated into a global dictionary (first allgather);
    2. each rank approximates ``|N_eps(p)|`` for *its* points as the
       total count of sub-cells whose center lies within ε of ``p`` —
       the ρ-approximation: points in boundary sub-cells may be counted
       or missed (effective ρ coarser than the paper's 0.99); sub-cells
       owning a core point are exchanged (second allgather) and every
       rank builds the identical cell graph (centers within ε connect),
       labelling its points by their sub-cell's component, with points
       outside core sub-cells attaching to the nearest core sub-cell
       within ε, else noise.

    The result is close to, but not exactly, DBSCAN — quantify with
    :func:`repro.validation.metrics.adjusted_rand_index`.  The price of
    skipping spatial partitioning shows up as every rank scanning the
    *global* dictionary for every point.
    """
    params = DBSCANParams(eps=eps, min_pts=min_pts)
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {pts.shape}")
    n_global, d = pts.shape
    width = params.eps / (2.0 * np.sqrt(d)) * _DIAG_SAFETY

    def rank_main(comm: Communicator) -> dict[str, Any]:
        timers = PhaseTimer(clock=time.thread_time)
        counters = Counters()
        # pseudo-random partition: strided, no spatial locality on purpose
        my_gids = np.arange(comm.rank, n_global, comm.size, dtype=np.int64)
        my_pts = pts[my_gids]

        with timers.phase("tree_construction"):
            coords = np.floor(my_pts / width).astype(np.int64)
            local_cells: dict[tuple[int, ...], int] = {}
            for c in map(tuple, coords.tolist()):
                local_cells[c] = local_cells.get(c, 0) + 1

        with timers.phase("clustering"):
            gathered = comm.allgather(local_cells)
            global_cells: dict[tuple[int, ...], int] = {}
            for summary in gathered:
                for key, cnt in summary.items():
                    global_cells[key] = global_cells.get(key, 0) + cnt
            all_keys = np.asarray(list(global_cells), dtype=np.int64).reshape(
                len(global_cells), d
            )
            all_counts = np.asarray(
                [global_cells[tuple(k)] for k in all_keys], dtype=np.int64
            )
            all_centers = (all_keys.astype(np.float64) + 0.5) * width

            # rho-approximate core test per owned point
            my_core = np.zeros(my_gids.shape[0], dtype=bool)
            for i in range(my_pts.shape[0]):
                counters.dist_calcs += int(all_centers.shape[0])
                sq = np.einsum(
                    "ij,ij->i", all_centers - my_pts[i], all_centers - my_pts[i]
                )
                approx = int(all_counts[sq <= params.eps_sq].sum())
                if approx >= params.min_pts:
                    my_core[i] = True

        with timers.phase("merging"):
            my_core_cells = sorted({tuple(c) for c in coords[my_core].tolist()})
            gathered_cores = comm.allgather(my_core_cells)
            core_cell_set = sorted({key for batch in gathered_cores for key in batch})
            labels_of_cell: dict[tuple[int, ...], int] = {}
            core_keys = (
                np.asarray(core_cell_set, dtype=np.int64).reshape(-1, d)
                if core_cell_set
                else np.empty((0, d), dtype=np.int64)
            )
            core_centers = (core_keys.astype(np.float64) + 0.5) * width
            if core_cell_set:
                uf = UnionFind(len(core_cell_set), counters=counters)
                for i in range(len(core_cell_set)):
                    rest = core_centers[i + 1 :]
                    counters.dist_calcs += int(rest.shape[0])
                    sq = np.einsum(
                        "ij,ij->i", rest - core_centers[i], rest - core_centers[i]
                    )
                    for j in np.flatnonzero(sq <= params.eps_sq):
                        uf.union(i, int(j) + i + 1)
                roots = uf.roots()
                dense: dict[int, int] = {}
                for i, key in enumerate(core_cell_set):
                    r = int(roots[i])
                    if r not in dense:
                        dense[r] = len(dense)
                    labels_of_cell[key] = dense[r]

            my_labels = np.full(my_gids.shape[0], -1, dtype=np.int64)
            for i, key in enumerate(map(tuple, coords.tolist())):
                if key in labels_of_cell:
                    my_labels[i] = labels_of_cell[key]
                elif core_keys.shape[0]:
                    counters.dist_calcs += int(core_keys.shape[0])
                    sq = np.einsum(
                        "ij,ij->i", core_centers - my_pts[i], core_centers - my_pts[i]
                    )
                    j = int(np.argmin(sq))
                    if sq[j] <= params.eps_sq:
                        my_labels[i] = labels_of_cell[tuple(core_keys[j])]
        return {
            "gids": my_gids,
            "labels": my_labels,
            "core": my_core,
            "phase_seconds": timers.as_dict(),
            "counters": counters,
            "bytes_sent": comm.bytes_sent,
        }

    rank_results = run_mpi(n_ranks, rank_main)
    labels = np.full(n_global, -1, dtype=np.int64)
    core_mask = np.zeros(n_global, dtype=bool)
    counters = Counters()
    timers = PhaseTimer()
    for rr in rank_results:
        labels[rr["gids"]] = rr["labels"]
        core_mask[rr["gids"]] = rr["core"]
        counters.merge(rr["counters"])
        rank_timer = PhaseTimer()
        for name, secs in rr["phase_seconds"].items():
            rank_timer.add(name, secs)
        timers.merge_max(rank_timer)
    # cells' labels are global, but label ids may skip values; renumber
    pos = labels >= 0
    if pos.any():
        _, dense_labels = np.unique(labels[pos], return_inverse=True)
        labels[pos] = dense_labels
    return ClusteringResult(
        labels=labels,
        core_mask=core_mask & (labels >= 0),
        params=params,
        algorithm="rp_dbscan_like",
        counters=counters,
        timers=timers,
        extras={
            ExtraKeys.N_RANKS: n_ranks,
            ExtraKeys.PER_RANK_PHASES: [rr["phase_seconds"] for rr in rank_results],
            ExtraKeys.BYTES_SENT_TOTAL: sum(rr["bytes_sent"] for rr in rank_results),
        },
    )
