"""Outside-in tracing: spans around calls into the program's layers.

The program is not edited.  :meth:`Spans.patched` swaps each named
function or method for a wrapper that records a span, and restores the
original on exit.  Spans stay in memory and are written as JSONL when
the run ends.  A span's name is ``<layer>.<what>``; a layer's self time
is its spans' durations minus the time their child spans cover.

Only the calling thread is traced; work in other processes (the ranks
of ``fit_distributed``, fleet workers, the HTTP server) is measured
through the counters and timers the program returns instead.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class Spans:
    def __init__(self) -> None:
        #: (span id, parent id or -1, name, start s, end s)
        self.records: list[tuple[int, int, str, float, float]] = []
        self._stack: list[int] = []
        self._started = 0

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._started
        self._started += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.records.append((sid, parent, name, t0, t1))

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Trace every ``(owner, attribute, span name)`` in ``targets``
        (an owner is a module or a class) for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------

    def total(self, name: str) -> float:
        """Seconds spent in spans called ``name`` (outermost calls only,
        so recursion is not counted twice)."""
        names = {sid: n for sid, _, n, _, _ in self.records}
        return sum(
            t1 - t0 for _, parent, n, t0, t1 in self.records
            if n == name and names.get(parent) != name
        )

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for _, _, n, t0, t1 in self.records if n == name]

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer (the span name's first component)."""
        child = defaultdict(float)
        for _, parent, _, t0, t1 in self.records:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, t0, t1 in self.records:
            out[name.split(".", 1)[0]] += (t1 - t0) - child[sid]
        return dict(out)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in sorted(self.records):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_s": t0, "end_s": t1,
                }) + "\n")


def layer_targets():
    """The program's layer entry points the traced run wraps."""
    import repro.core.mudbscan as mud
    from repro.index.rtree import RTree
    from repro.microcluster.murtree import MuRTree
    from repro.serving.model import FittedModel
    from repro.serving.streaming import StreamingEngine
    from repro.streaming.incremental import StreamingMuDBSCAN

    return [
        (MuRTree, "__init__", "microcluster.build"),
        (MuRTree, "compute_reachability", "microcluster.reach"),
        (mud, "process_micro_clusters", "core.clustering"),
        (mud, "process_remaining_points", "core.clustering"),
        (mud, "postprocess_core", "core.postprocess"),
        (mud, "postprocess_noise", "core.postprocess"),
        (RTree, "query_ball_candidates", "index.query"),
        (StreamingMuDBSCAN, "partial_fit", "streaming.insert"),
        (StreamingMuDBSCAN, "delete", "streaming.delete"),
        (StreamingMuDBSCAN, "compact", "streaming.compact"),
        (StreamingMuDBSCAN, "to_fitted_model", "streaming.snapshot"),
        (StreamingEngine, "apply", "serving.apply"),
        (StreamingEngine, "refresh", "serving.refresh"),
        (FittedModel, "_rebuild_murtree", "serving.index_rebuild"),
    ]


#: layers whose self time the traced run reports
SELF_TIME_LAYERS = ("api", "microcluster", "core", "index", "serving", "streaming")
