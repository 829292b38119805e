"""Step 4 of μDBSCAN — Algorithms 7 & 8 (final connections), as edges.

Algorithms 4 and 6 leave their merges in the state's edge buffer;
nothing here unions pairs one at a time.  Step 4 turns the buffer into
clusters in three moves: edges → components → more edges → components.

**POST-PROCESSING-CORE** (Alg. 7): a wndq-core point never ran its
query, so merges with *other* core points discovered later may be
missing.  For each wndq-core ``p`` we take the points of its MC's
reachable MCs, keep the core ones, and merge every one strictly within
ε of ``p``.  By Lemma 3 this candidate set contains every possible core
neighbor, and by Lemma 4 all cores are known by now, so after this pass
every core-core ε-edge is merged — maximality for cores.  The pass is
distance computations only (cheaper than a neighborhood query, as the
paper stresses).

The paper skips a distance computation when two cores already share a
cluster; per-pair ``find`` calls are the wrong trade-off in Python.
This pass instead works on components:

1. one connected-components pass over the Algorithm 4/6 edges gives
   every point its component id ``comp``;
2. the wndq-cores of one MC share a candidate block, and the block's
   full (wndq × core-candidate) distance matrix is computed in one
   vectorized pass (so ``dist_calcs`` counts every pair);
3. the block's ε-hits are reduced to component pairs — per row
   component, which candidate components any of its rows reach — and
   each new pair becomes one core–core edge.

A few deduplicated edges per block replace one union per ε-edge.  The
final labels come from one more pass over the component graph
(:meth:`MuDBSCANState.components`).

**POST-PROCESSING-NOISE** (Alg. 8): a provisional-noise point ``p``
stored its ε-neighborhood; if any of those neighbors is core *now*,
``p`` is a border point of that core's cluster, not noise.  No new
queries are needed: the rescues are one vectorized "first stored core
neighbor" edge array.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.core.state import MuDBSCANState

__all__ = ["postprocess_core", "postprocess_noise"]


def _link_component_pairs(
    state: MuDBSCANState,
    comp: np.ndarray,
    rows: np.ndarray,
    cands: np.ndarray,
    hit: np.ndarray,
) -> None:
    """One edge per (row component, candidate component) that ``hit``
    (rows × cands, ε-adjacency) joins for the first time in this block.

    Every emitted edge has two core endpoints: a row of the component
    and the first hit candidate of the other component.
    """
    row_comp = comp[rows]
    cand_comp = comp[cands]
    uniq, first_row, inv = np.unique(row_comp, return_index=True, return_inverse=True)
    inv = inv.reshape(-1)
    for g in range(uniq.size):
        # usually one component: every wndq row of a DMC/CMC joined its
        # center in Algorithm 4
        reach = hit[inv == g].any(axis=0) if uniq.size > 1 else hit.any(axis=0)
        reached = cand_comp[reach]
        new = reached != uniq[g]
        _, first = np.unique(reached[new], return_index=True)
        state.union(int(rows[first_row[g]]), cands[reach][new][first])


def postprocess_core(state: MuDBSCANState) -> None:
    """Run Algorithm 7 over the wndq-core list: per-MC blocks reduced to
    component edges.

    Two candidate classes per MC block:

    * *proven cores* (``state.core``) — safe to chain through: every
      node is a core, so component pairs are density connections;
    * *unknown candidates* (``postprocess_unknown_mask``; only the
      distributed state has any) — halo points whose core status lives
      at a remote rank.  They must not glue local components, so each
      ε-adjacent candidate is paired with its first adjacent block row
      (the distributed state turns the edge into a cross pair, judged
      at the global merge under the real flags).
    """
    if not state.wndq_corelist:
        return
    murtree = state.murtree
    eps_raw = state.eps_raw
    metric = murtree.metric
    points = murtree.points
    counters = state.counters
    comp = state.components()
    by_mc: dict[int, list[int]] = defaultdict(list)
    for row in state.wndq_corelist:
        by_mc[int(murtree.point_mc[row])].append(row)

    for mc_id, rows_list in by_mc.items():
        candidates = murtree.reachable_block(mc_id)
        rows = np.asarray(rows_list, dtype=np.int64)

        core_cand = candidates[state.core[candidates]]
        if core_cand.size:
            counters.dist_calcs += int(rows.size) * int(core_cand.size)
            hit = metric.raw_pairwise(points[rows], points[core_cand]) < eps_raw
            _link_component_pairs(state, comp, rows, core_cand, hit)

        unknown_cand = candidates[state.postprocess_unknown_mask(candidates)]
        if unknown_cand.size:
            counters.dist_calcs += int(rows.size) * int(unknown_cand.size)
            hit = metric.raw_pairwise(points[rows], points[unknown_cand]) < eps_raw
            cols = np.flatnonzero(hit.any(axis=0))
            first_row = np.argmax(hit[:, cols], axis=0)  # first adjacent block row
            state.union(rows[first_row], unknown_cand[cols])


def postprocess_noise(state: MuDBSCANState) -> None:
    """Run Algorithm 8 over the noise list (rescue mislabelled borders).

    The stored neighborhoods are re-checked against the *final* core
    flags in one vectorized pass: every still-unassigned, non-core
    noise-listed row with a core neighbor gets one edge to its first
    stored core neighbor, in noise-list order.  A row assigned earlier
    is skipped — a second merge could connect two *different* clusters
    through a non-core point, which is not a density connection.  The
    rescues are independent of each other (a rescue touches the
    rescued row and a core, hence never noise-listed, neighbor), so the
    upfront skip mask is exactly the one a row-by-row loop evaluates.
    """
    live = state.pending_noise()
    owner, flat = state.stored_neighbors(live)
    hits = np.flatnonzero(state.core[flat])
    _, first = np.unique(owner[hits], return_index=True)
    first = hits[first]
    state.union(flat[first], live[owner[first]])
