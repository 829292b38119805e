"""Step 3 of μDBSCAN — Algorithm 6 (PROCESS-REM-POINTS).

Every point *not* tagged wndq-core gets its exact ε-neighborhood query
(restricted to its MC's reachable MCs, §IV-B2).  Then:

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
"""

from __future__ import annotations

import numpy as np

from repro.core.state import MuDBSCANState

__all__ = ["process_remaining_points"]

#: consumed-row granularity of the optional ``progress_cb`` — coarse
#: enough that a heartbeat can ride it without measurable cost
_PROGRESS_EVERY = 256


def process_remaining_points(
    state: MuDBSCANState,
    dynamic_wndq: bool = True,
    process_mask: np.ndarray | None = None,
    *,
    progress_cb=None,
) -> None:
    """Run Algorithm 6.

    ``dynamic_wndq=False`` disables step (iii) (ablation 3 in
    DESIGN.md §5) — exactness is unaffected, only the query count grows.

    ``process_mask`` limits the pass to the masked rows — μDBSCAN-D
    queries only *owned* points (halo points exist to complete owned
    neighborhoods; their own verdicts belong to their owner rank).

    ``progress_cb(consumed, eligible)``, when given, is invoked every
    ``_PROGRESS_EVERY`` consumed rows (and once at the end) — the hook
    distributed ranks hang their monitoring heartbeats on.
    """
    min_pts = state.params.min_pts
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

        if nbrs.shape[0] < min_pts:
            if not state.assigned[row]:
                core_nbrs = nbrs[state.core[nbrs]]
                if core_nbrs.size:
                    # border of the 1st core
                    state.union(core_nbrs[0], np.array([row], dtype=np.int64))
                else:
                    state.noise_nbrs[row] = nbrs.copy()  # provisional noise
            # an already-assigned border keeps its first cluster; merging
            # it with a second core would connect two clusters through a
            # non-core point
            continue
        state.core[row] = True
        if dynamic_wndq:
            inner = nbrs[raw < state.half_eps_raw]
            if inner.shape[0] >= min_pts:
                # promoted rows are core from here on, so the merge
                # below includes them
                state.mark_wndq_cores(inner[~state.core[inner]])
        merge = nbrs[(state.core[nbrs] | ~state.assigned[nbrs]) & (nbrs != row)]
        state.union(row, merge)  # every merge is one buffered edge array
        state.assigned[row] = True
    if progress_cb is not None:
        progress_cb(consumed, total)

