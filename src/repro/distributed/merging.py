"""Global merge of local clusterings (paper §V-C).

Each rank's fragment is exchanged (one allgather — the only collective
of the merge, mirroring the paper's all-to-all of cross pairs), then
every rank deterministically replays:

1. all intra-rank unions (owned↔owned, already legal),
2. the cross pairs in (rank, emission) order, interpreted under the
   *global* core flags:

   * both endpoints core  → union (a core-core ε-edge),
   * exactly one core     → border claim: the non-core endpoint joins
     the core's cluster iff it is not yet assigned anywhere (classical
     DBSCAN's first-come border rule),
   * neither core         → no-op (e.g. a noise-rescue probe whose halo
     endpoint turned out non-core).

The cross-pair verdicts read only the flags, so they are decided in one
ordered pass (``_claim_pass``); the intra edges plus the accepted pairs
then go through one connected-components call.  No neighborhood query
is executed here, which is why the paper's merge phase stays below ~4%
of the run (Table VII).
"""

from __future__ import annotations

import numpy as np

from repro.distributed.protocol import LocalFragment
from repro.instrumentation.counters import Counters
from repro.unionfind.components import dense_labels, edge_components

__all__ = ["resolve_fragments", "MergeOutcome"]


class MergeOutcome:
    """Global labels plus the masks the result record needs."""

    __slots__ = ("labels", "core_mask", "assigned_mask", "n_cross_pairs")

    def __init__(
        self,
        labels: np.ndarray,
        core_mask: np.ndarray,
        assigned_mask: np.ndarray,
        n_cross_pairs: int,
    ) -> None:
        self.labels = labels
        self.core_mask = core_mask
        self.assigned_mask = assigned_mask
        self.n_cross_pairs = n_cross_pairs


def _claim_pass(
    fragments: list[LocalFragment], core: np.ndarray, assigned: np.ndarray
) -> np.ndarray:
    """The cross pairs the merge accepts, in (rank, emission) order.

    Judging a pair reads only the ``core`` / ``assigned`` flags, never
    cluster membership, so one ordered pass over the flags decides every
    pair: core-core pairs are all accepted, and of the border claims on
    one still-unassigned point only the first is.  ``assigned`` is
    updated in place for the claimed points.
    """
    pairs = np.concatenate(
        [np.empty((0, 2), dtype=np.int64)] + [frag.cross_pairs for frag in fragments]
    )
    a, b = pairs[:, 0], pairs[:, 1]
    ca, cb = core[a], core[b]
    border = np.where(ca, b, a)
    claim = (ca != cb) & ~assigned[border]
    _, first = np.unique(border[claim], return_index=True)
    won = np.flatnonzero(claim)[first]
    assigned[border[won]] = True
    accept = ca & cb
    accept[won] = True
    return pairs[accept]


def resolve_fragments(
    fragments: list[LocalFragment],
    n_global: int,
    counters: Counters | None = None,
) -> MergeOutcome:
    """Deterministically merge per-rank fragments into global labels."""
    counters = counters if counters is not None else Counters()
    core = np.zeros(n_global, dtype=bool)
    assigned = np.zeros(n_global, dtype=bool)
    seen = np.zeros(n_global, dtype=bool)
    for frag in fragments:
        if np.any(seen[frag.owned_gids]):
            raise ValueError("fragments overlap: a global id is owned twice")
        seen[frag.owned_gids] = True
        core[frag.owned_gids] = frag.core
        assigned[frag.owned_gids] = frag.assigned
    if not bool(seen.all()):
        missing = int(n_global - np.count_nonzero(seen))
        raise ValueError(f"fragments do not cover the dataset: {missing} ids unowned")

    accepted = _claim_pass(fragments, core, assigned)
    edges = np.concatenate([accepted] + [frag.intra_edges for frag in fragments])
    n_comp, comp = edge_components(n_global, edges[:, 0], edges[:, 1])
    counters.unions += n_global - n_comp
    labels = dense_labels(comp, noise_mask=~core & ~assigned)
    return MergeOutcome(
        labels=labels,
        core_mask=core,
        assigned_mask=assigned,
        n_cross_pairs=sum(frag.cross_pairs.shape[0] for frag in fragments),
    )
