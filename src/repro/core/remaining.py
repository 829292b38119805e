"""Step 3 of μDBSCAN — Algorithm 6 (PROCESS-REM-POINTS).

Every point *not* tagged wndq-core gets its exact ε-neighborhood query
(restricted to filtered reachable MCs, §IV-B2).  Then:

* ``|N| < MinPts`` — the point is border if some already-known core is
  in its neighborhood (merge with the first one), otherwise it goes to
  the ``noiseList`` *with its neighborhood stored*, because a neighbor
  may still turn core later (Algorithm 8 re-checks).
* ``|N| >= MinPts`` — the point is core; merge with every core
  neighbor, and with every non-core neighbor that is not yet assigned
  (an already-assigned border stays with its first cluster — classical
  DBSCAN's order semantics).
* dynamic wndq-core (step iii): if additionally
  ``|N_{eps/2}| >= MinPts``, every point of the inner half-ball is core
  by the Lemma-1 argument with this point as the pivot — mark the
  non-core ones wndq-core and merge them, saving their upcoming
  queries.

The dynamic rule can never contradict an earlier verdict: a point ``q``
already found non-core has ``|N_eps(q)| < MinPts``, while
``q ∈ N_{eps/2}(p)`` implies ``N_eps(q) ⊇ N_{eps/2}(p)``, so the rule's
precondition cannot hold for it.

Batched execution (``batch_queries=True``, the default in ``cached``
mode)
----------------------------------------------------------------------
Every member of a micro-cluster shares the MC's cached reachable block
(Lemma 3), so issuing one Python-level :meth:`MuRTree.query_ball` per
point re-gathers the same candidates ``|MC|`` times.  The batched path
splits *computing* neighborhoods from *consuming* verdicts:

1. group the still-pending rows by MC (``point_mc``);
2. walk the pending rows in the **original global row order**; when a
   row's answer is not yet available, answer the next batch of its
   MC's still-live rows with one :meth:`MuRTree.query_ball_block` call
   (lazy sub-blocks growing geometrically — see ``_process_batched``);
   then apply exactly the per-point verdict logic above on the
   precomputed neighbor lists.

Because the consumption order, the merge-edge order and every flag update
are identical to the per-point path, the batched path is
*state-for-state* equivalent: same cores, same labels, same
``noiseList``.  Two details make the counters match too:

* a row that the dynamic rule promotes mid-run is still skipped at its
  turn (its precomputed answer is simply discarded), so
  ``queries_run`` counts exactly the queries the per-point path runs;
* the block query is issued with ``count_work=False`` and its
  ``per_row_cost`` is charged to ``dist_calcs`` lazily, once per row
  actually consumed — discarded answers cost nothing, exactly like a
  query that was never issued.

The verdicts themselves are order-independent (core status is a
property of the geometry), which is why precomputing them is sound;
only the *skip* decision is dynamic, and it is re-checked at
consumption time.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.state import MuDBSCANState
from repro.microcluster.murtree import DEFAULT_BLOCK_SIZE, BlockQueryResult
from repro.observability.tracing import current_tracer

__all__ = ["process_remaining_points"]

#: first lazy sub-block per MC, and the geometric growth factor for the
#: following ones — small first batches bound the work discarded when a
#: core row dynamically promotes the rest of its MC (see
#: ``_process_batched``)
_FIRST_SUB_BLOCK = 8
_SUB_BLOCK_GROWTH = 4

#: detailed ``mc_batch`` spans emitted per clustering pass when a tracer
#: is active; batches beyond the cap roll into one ``mc_batch_summary``
#: span (count + rows + seconds) — a 20k-point run issues thousands of
#: sub-blocks, and one span object per block is what pushed enabled-mode
#: tracing overhead above the perf-smoke gate
_SPAN_CAP = 32

#: consumed-row granularity of the optional ``progress_cb`` — coarse
#: enough that a heartbeat can ride it without measurable cost
_PROGRESS_EVERY = 256


def process_remaining_points(
    state: MuDBSCANState,
    dynamic_wndq: bool = True,
    process_mask: np.ndarray | None = None,
    *,
    batch_queries: bool = True,
    block_size: int = DEFAULT_BLOCK_SIZE,
    progress_cb=None,
) -> None:
    """Run Algorithm 6.

    ``dynamic_wndq=False`` disables step (iii) (ablation 3 in
    DESIGN.md §5) — exactness is unaffected, only the query count grows.

    ``process_mask`` limits the pass to the masked rows — μDBSCAN-D
    queries only *owned* points (halo points exist to complete owned
    neighborhoods; their own verdicts belong to their owner rank).

    ``batch_queries`` selects the MC-batched neighborhood engine (see
    module docstring); it requires the ``cached`` aux index, where the
    reachable block is shared MC-wide — other modes fall back to the
    per-point path.  ``block_size`` bounds the transient distance
    matrix to ``block_size x |reachable block|`` doubles.

    ``progress_cb(consumed, eligible)``, when given, is invoked every
    ``_PROGRESS_EVERY`` consumed rows (and once at the end) — the hook
    distributed ranks hang their monitoring heartbeats on.
    """
    if batch_queries and state.murtree.aux_index == "cached":
        _process_batched(state, dynamic_wndq, process_mask, block_size, progress_cb)
    else:
        _process_per_point(state, dynamic_wndq, process_mask, progress_cb)


def _apply_verdict(
    state: MuDBSCANState,
    row: int,
    nbrs: np.ndarray,
    is_core: bool,
    inner: np.ndarray | None,
) -> None:
    """Consume one queried row's ε-neighborhood (see module docstring).

    ``inner`` is the row's ε/2-neighborhood, or None when the dynamic
    wndq rule is off or cannot fire.  Every merge is one buffered edge
    array.
    """
    if not is_core:
        if not state.assigned[row]:
            core_nbrs = nbrs[state.core[nbrs]]
            if core_nbrs.size:
                # border of the 1st core
                state.union(core_nbrs[0], np.array([row], dtype=np.int64))
            else:
                state.noise_nbrs[row] = nbrs.copy()  # provisional noise
        # an already-assigned border keeps its first cluster; merging it
        # with a second core would connect two clusters through a
        # non-core point
        return
    state.core[row] = True
    if inner is not None and inner.shape[0] >= state.params.min_pts:
        # promoted rows are core from here on, so the merge below
        # includes them
        state.mark_wndq_cores(inner[~state.core[inner]])
    merge = nbrs[(state.core[nbrs] | ~state.assigned[nbrs]) & (nbrs != row)]
    state.union(row, merge)
    state.assigned[row] = True


def _process_per_point(
    state: MuDBSCANState,
    dynamic_wndq: bool,
    process_mask: np.ndarray | None,
    progress_cb=None,
) -> None:
    """The reference one-query-per-point path (paper Algorithm 6)."""
    params = state.params
    min_pts = params.min_pts
    counters = state.counters
    consumed = 0
    total = state.n if process_mask is None else int(np.count_nonzero(process_mask))
    for row in range(state.n):
        if process_mask is not None and not process_mask[row]:
            continue
        if state.wndq[row]:
            continue  # the saved query — the algorithm's headline win
        nbrs, raw = state.murtree.query_ball(row)
        state.queried[row] = True
        counters.queries_run += 1
        consumed += 1
        if progress_cb is not None and consumed % _PROGRESS_EVERY == 0:
            progress_cb(consumed, total)

        is_core = nbrs.shape[0] >= min_pts
        inner = nbrs[raw < state.half_eps_raw] if dynamic_wndq and is_core else None
        _apply_verdict(state, row, nbrs, is_core, inner)
    if progress_cb is not None:
        progress_cb(consumed, total)


def _process_batched(
    state: MuDBSCANState,
    dynamic_wndq: bool,
    process_mask: np.ndarray | None,
    block_size: int,
    progress_cb=None,
) -> None:
    """MC-batched Algorithm 6: precompute per-MC, consume in row order."""
    murtree = state.murtree
    min_pts = state.params.min_pts
    counters = state.counters

    eligible = ~state.wndq
    if process_mask is not None:
        eligible &= process_mask
    pending = np.flatnonzero(eligible)
    if pending.size == 0:
        return

    # ---- group the pending rows by MC (shared reachable block) --------
    mc_ids = murtree.point_mc[pending]
    order = np.argsort(mc_ids, kind="stable")
    sorted_rows = pending[order]
    sorted_mcs = mc_ids[order]
    group_starts = np.flatnonzero(
        np.concatenate([[True], sorted_mcs[1:] != sorted_mcs[:-1]])
    )
    groups: dict[int, np.ndarray] = {
        int(sorted_mcs[s]): sorted_rows[s:e]
        for s, e in zip(group_starts, np.append(group_starts[1:], sorted_rows.size))
    }

    # ---- per-row verdicts, original global row order ------------------
    # Sub-blocks are computed lazily, when a not-yet-answered row comes
    # up, over the next still-live (un-promoted) members of its MC.  The
    # sub-block size starts small and grows geometrically: in dense MCs
    # the first consumed core row typically promotes the rest of the MC
    # (its inner half-ball), so an eagerly-precomputed full-MC block
    # would mostly be discarded — a small first batch bounds that waste,
    # while promotion-free MCs quickly reach full-width blocks and keep
    # the vectorized amortisation.  (A promotion landing between a
    # sub-block's build and the row's turn still discards its answer,
    # like the per-point path skips — the wndq re-check decides.)
    wndq = state.wndq
    point_mc = murtree.point_mc
    half_radius = state.params.eps * 0.5
    # resolved once: per-batch spans only exist when a tracer is active,
    # so the loop pays a single None check per block when tracing is off.
    # Even with a tracer, only the first _SPAN_CAP blocks get their own
    # span; the rest roll into one mc_batch_summary span at the end —
    # span-per-block was the dominant cost of enabled-mode tracing.
    tracer = current_tracer()
    spans_left = _SPAN_CAP if tracer is not None else 0
    rolled_batches = 0
    rolled_rows = 0
    rolled_seconds = 0.0
    consumed = 0
    blocks: list[BlockQueryResult] = []
    blk_id = np.full(state.n, -1, dtype=np.int64)
    local_ix = np.zeros(state.n, dtype=np.int64)
    pos: dict[int, int] = {}
    sub_size: dict[int, int] = {}
    for row in pending:
        row = int(row)
        if wndq[row]:
            continue  # promoted mid-run by the dynamic rule: query saved
        b = blk_id[row]
        if b < 0:
            mc_id = int(point_mc[row])
            seg = groups[mc_id][pos.get(mc_id, 0) :]
            k = sub_size.get(mc_id, _FIRST_SUB_BLOCK)
            sub = seg[~wndq[seg]][:k]  # sub[0] == row: earlier live rows
            # of the MC were answered by previous sub-blocks
            pos[mc_id] = pos.get(mc_id, 0) + int(np.searchsorted(seg, sub[-1])) + 1
            sub_size[mc_id] = k * _SUB_BLOCK_GROWTH
            b = len(blocks)
            blk_id[sub] = b
            local_ix[sub] = np.arange(sub.size)
            if spans_left > 0:
                spans_left -= 1
                with tracer.span("mc_batch", mc=mc_id, rows=int(sub.size)):
                    blocks.append(
                        murtree.query_ball_block(
                            mc_id,
                            sub,
                            half_radius=half_radius,
                            block_size=block_size,
                            count_work=False,
                            validate=False,  # rows were grouped by point_mc
                        )
                    )
            else:
                if tracer is not None:
                    t0 = time.perf_counter()
                blocks.append(
                    murtree.query_ball_block(
                        mc_id,
                        sub,
                        half_radius=half_radius,
                        block_size=block_size,
                        count_work=False,
                        validate=False,  # rows were grouped by point_mc above
                    )
                )
                if tracer is not None:
                    rolled_seconds += time.perf_counter() - t0
                    rolled_batches += 1
                    rolled_rows += int(sub.size)
        block = blocks[b]
        i = int(local_ix[row])
        nbrs = block.nbrs(i)
        state.queried[row] = True
        counters.queries_run += 1
        counters.dist_calcs += block.per_row_cost
        consumed += 1
        if progress_cb is not None and consumed % _PROGRESS_EVERY == 0:
            progress_cb(consumed, int(pending.size))

        is_core = block.n_eps[i] >= min_pts
        inner = None
        if dynamic_wndq and is_core and block.n_half[i] >= min_pts:
            inner = block.inner(i)  # materialised only when the rule fires
        _apply_verdict(state, row, nbrs, is_core, inner)
    if tracer is not None and rolled_batches:
        # the capped remainder, as one span: counters say how many
        # blocks it stands for and how long their queries took in total
        with tracer.span(
            "mc_batch_summary",
            batches=rolled_batches,
            rows=rolled_rows,
        ) as summary:
            summary.set_attr("query_seconds", rolled_seconds)
    if progress_cb is not None:
        progress_cb(consumed, int(pending.size))
