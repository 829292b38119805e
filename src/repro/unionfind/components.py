"""Vectorized connectivity: edge arrays → components → dense labels.

The exact fit and the distributed merge never union pairs one by one.
They collect their merges as ``(src, dst)`` edge arrays and resolve them
with one :func:`scipy.sparse.csgraph.connected_components` call.  The
partition equals the one a union-find would reach, since components
do not depend on union order.  :func:`dense_labels` then renumbers
component ids by first appearance.  Every cluster labelling in the
repository goes through it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import connected_components

__all__ = ["dense_labels", "edge_components"]


def edge_components(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the undirected graph on ``0..n-1``.

    Returns ``(n_components, comp)`` where ``comp[i]`` is the component
    id of node ``i``.  Duplicate edges and self-loops are harmless.
    """
    graph = sparse.coo_matrix(
        (np.ones(src.shape[0], dtype=np.int8), (src, dst)), shape=(n, n)
    )
    n_comp, comp = connected_components(graph, directed=False)
    return int(n_comp), comp.astype(np.int64, copy=False)


def dense_labels(comp: np.ndarray, noise_mask: np.ndarray | None = None) -> np.ndarray:
    """Relabel component ids to ``0..k-1`` by first appearance.

    Elements under ``noise_mask`` get ``-1`` whatever their component,
    and they do not take part in the numbering.
    """
    comp = np.asarray(comp, dtype=np.int64)
    out = np.full(comp.shape[0], -1, dtype=np.int64)
    keep = (
        np.ones(comp.shape[0], dtype=bool)
        if noise_mask is None
        else ~np.asarray(noise_mask, dtype=bool)
    )
    vals = comp[keep]
    if not vals.size:
        return out
    uniq, first, inv = np.unique(vals, return_index=True, return_inverse=True)
    rank = np.empty(uniq.shape[0], dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(uniq.shape[0])
    out[keep] = rank[inv.reshape(-1)]
    return out
