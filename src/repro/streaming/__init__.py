"""Streaming μDBSCAN — exact clustering under a live update stream.

§VII of the paper: *"This approach can also be adopted to fast
clustering of data streams."*  Micro-clusters are the natural unit of
online maintenance (Theorem 1: correctness holds for *any* valid MC
partition), and :class:`~repro.streaming.incremental.StreamingMuDBSCAN`
exploits that to keep an **exact** DBSCAN clustering under inserts,
deletes and sliding-window expiry — updating only the micro-clusters,
core flags and union-find components the batch touches, never
re-running the batch pipeline.

Stable entry point: :func:`repro.api.stream`.  See docs/STREAMING.md
for the maintenance invariants.
"""

from repro.streaming.incremental import StreamingMuDBSCAN

__all__ = ["StreamingMuDBSCAN"]
