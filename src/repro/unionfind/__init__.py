"""Disjoint sets and edge-array connectivity.

The paper follows Patwary et al. in replacing DBSCAN's sequential
cluster-expansion with union-find merges: every density connection is a
``UNION``, and clusters are the final components.  The exact fit and
the distributed merge collect those merges as edge arrays and resolve
them in one connected-components pass (``repro.unionfind.components``);
the scalar :class:`UnionFind` serves the oracles and baselines.
"""

from repro.unionfind.components import dense_labels, edge_components
from repro.unionfind.unionfind import UnionFind

__all__ = ["UnionFind", "dense_labels", "edge_components"]
