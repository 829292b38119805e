"""Step 1b of μDBSCAN — Algorithm 4 (PROCESS-MICRO-CLUSTERS).

Each micro-cluster is classified and yields preliminary clusters:

* **DMC** — every inner-circle point is core *without a query*
  (Lemma 1: IC pairwise distances are < ε, so each IC point already has
  ``|IC| >= MinPts`` neighbors).  All members merge with the center;
  members outside the IC ride along as provisional borders (they are
  within ε of the core center, hence at least border).
* **CMC** — the center alone is provably core (Lemma 2: the whole MC
  lies in its ε-ball).  All members merge with the center.
* **SMC** — nothing can be concluded; members await Algorithm 6.

Each DMC/CMC contributes one ``(center, members)`` edge array.
"""

from __future__ import annotations

import numpy as np

from repro.core.state import MuDBSCANState
from repro.microcluster.microcluster import MCKind

__all__ = ["process_micro_clusters"]


def process_micro_clusters(state: MuDBSCANState) -> None:
    """Run Algorithm 4 over every micro-cluster."""
    min_pts = state.params.min_pts
    for mc in state.murtree.mcs:
        kind = mc.kind(min_pts)
        if kind is MCKind.SMC:
            continue
        assert mc.member_rows is not None and mc.ic_rows is not None
        if kind is MCKind.DMC:
            state.mark_wndq_cores(mc.ic_rows)
        else:  # CMC
            state.mark_wndq_cores(np.array([mc.center_row], dtype=np.int64))
        center = mc.center_row
        members = mc.member_rows
        state.union(center, members[members != center])
        state.assigned[center] = True
