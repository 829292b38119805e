"""Mutable run state shared by μDBSCAN's four steps.

Algorithms 4, 6, 7 and 8 communicate through per-point flag arrays, the
merge-edge buffer, the ``wndqCorelist`` and the ``noiseList`` — this
module is that shared state, so each step lives in its own module
without circular imports.

Merges are not applied one pair at a time.  Each step appends
``(x, others)`` edge arrays to an append-only buffer, and
:meth:`MuDBSCANState.components` folds the pending edges into the
point-to-component map with one connected-components pass.  A merge
changes no flag other than ``assigned``, and no step reads cluster
membership before Algorithm 7, so deferring the connectivity leaves
every verdict and the final partition as they are.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import DBSCANParams
from repro.instrumentation.counters import Counters
from repro.microcluster.murtree import MuRTree
from repro.unionfind.components import dense_labels, edge_components

__all__ = ["MuDBSCANState"]


class MuDBSCANState:
    """Per-run working state of μDBSCAN.

    Flag semantics (all over global dataset rows):

    * ``core``     — known to be a core point.
    * ``wndq``     — declared core *without* a neighborhood query
      (Algorithm 4 statically, Algorithm 6 step (iii) dynamically);
      implies ``core``.  The ε-query of such a point is skipped.
    * ``queried``  — its ε-neighborhood query was executed.
    * ``assigned`` — has been merged into some cluster (the guard that
      keeps already-placed border points from being re-merged, which is
      what preserves classical DBSCAN's first-come border semantics).
    """

    def __init__(
        self,
        murtree: MuRTree,
        params: DBSCANParams,
        counters: Counters,
    ) -> None:
        n = len(murtree)
        self.murtree = murtree
        self.params = params
        self.counters = counters
        # metric-raw thresholds (squared for Euclidean): compare against
        # the raw values murtree.query_ball returns
        self.eps_raw = murtree.metric.threshold(params.eps)
        self.half_eps_raw = murtree.metric.threshold(params.eps * 0.5)
        self.core = np.zeros(n, dtype=bool)
        self.wndq = np.zeros(n, dtype=bool)
        self.queried = np.zeros(n, dtype=bool)
        self.assigned = np.zeros(n, dtype=bool)
        #: rows declared core without a query, in declaration order
        self.wndq_corelist: list[int] = []
        #: provisional-noise row -> its stored ε-neighborhood
        self.noise_nbrs: dict[int, np.ndarray] = {}
        #: merge edges not yet folded into ``_comp``: ``(x, ys)`` with
        #: ``x`` a row or an array aligned with ``ys``
        self._edges: list[tuple[int | np.ndarray, np.ndarray]] = []
        self._comp = np.arange(n, dtype=np.int64)
        self._n_comp = n

    @property
    def n(self) -> int:
        return len(self.murtree)

    def mark_wndq_cores(self, rows: np.ndarray) -> None:
        """Declare ``rows`` core without a query and queue them, in
        order, for Algorithm 7's connection repair."""
        rows = rows[~self.wndq[rows]]
        self.wndq[rows] = True
        self.core[rows] = True
        self.wndq_corelist.extend(rows.tolist())

    def union(self, x: int | np.ndarray, ys: np.ndarray) -> None:
        """Merge row ``x`` with every row of ``ys`` — or, when ``x`` is an
        array aligned with ``ys``, each ``x[i]`` with ``ys[i]``.

        The edges are buffered, not applied; their endpoints become
        assigned at once.  The one sink of every merge: the distributed
        state overrides it to route edges by ownership.
        """
        if ys.size:
            self._edges.append((x, ys))
            self.assigned[x] = True
            self.assigned[ys] = True

    def components(self) -> np.ndarray:
        """Component id of every row under all merges so far.

        Pending edges are mapped onto the current components and folded
        in with one connected-components pass over the component graph,
        so a later call only pays for the edges added since.  Each fold
        charges its effective merges to ``counters.unions``; after the
        last fold that total is ``n - n_components``, the count a
        union-find would report.
        """
        if self._edges:
            src = np.concatenate(
                [np.broadcast_to(np.int64(x), ys.shape) for x, ys in self._edges]
            )
            dst = np.concatenate([ys for _, ys in self._edges])
            self._edges = []
            comp = self._comp
            n_comp, relabel = edge_components(self._n_comp, comp[src], comp[dst])
            self.counters.unions += self._n_comp - n_comp
            self._comp = relabel[comp]
            self._n_comp = n_comp
        return self._comp

    @property
    def n_components(self) -> int:
        """Number of components (clusters and singletons) so far."""
        self.components()
        return self._n_comp

    def labels(self) -> np.ndarray:
        """Dense cluster labels, ``-1`` for noise."""
        return dense_labels(self.components(), noise_mask=self.final_noise_mask())

    def postprocess_unknown_mask(self, candidates: np.ndarray) -> np.ndarray:
        """Algorithm-7 candidates of *unknown* core status.

        Empty sequentially — every local point's status is known.  The
        distributed state returns its non-locally-core halo candidates,
        which get forwarded to the global merge instead of merged.
        """
        return np.zeros(candidates.shape[0], dtype=bool)

    def pending_noise(self) -> np.ndarray:
        """Noise-listed rows not rescued and not promoted to core, in
        noise-list order."""
        rows = np.fromiter(self.noise_nbrs, dtype=np.int64, count=len(self.noise_nbrs))
        return rows[~self.assigned[rows] & ~self.core[rows]]

    def stored_neighbors(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The stored ε-neighborhoods of noise-listed ``rows``, flattened
        in order: ``(owner, nbr)`` with ``owner`` indexing ``rows``."""
        lists = [self.noise_nbrs[r] for r in rows.tolist()]
        lens = np.fromiter((l.shape[0] for l in lists), dtype=np.int64, count=rows.size)
        flat = np.concatenate(lists) if lists else np.empty(0, dtype=np.int64)
        return np.repeat(np.arange(rows.size), lens), flat

    def final_noise_mask(self) -> np.ndarray:
        """Noise = provisionally-noise points that were never rescued
        and never promoted to core."""
        mask = np.zeros(self.n, dtype=bool)
        mask[self.pending_noise()] = True
        return mask
