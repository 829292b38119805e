"""Shared helpers for the benchmark harness.

* dataset materialisation with caching (one generation per session),
* the bench scale convention: ``REPRO_SCALE`` (default ``0.5``) scales
  every registry dataset; ``REPRO_RANKS`` (default ``8``) sets the
  simulated rank count where the paper used 32 nodes,
* a session-global report registry the conftest prints at exit.

Numbers here are *shape* reproductions: the paper ran C++/MPI on a
32-node Xeon cluster, we run pure Python on one box with simulated
ranks (see DESIGN.md §2), so absolute seconds are incomparable but
ratios, orderings and trends are the reproduction targets.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from repro.data.registry import REGISTRY, load_dataset
from repro.instrumentation.report import format_table

#: dataset size multiplier (paper sizes are millions-to-billions; the
#: registry's base sizes are laptop scale already)
SCALE = float(os.environ.get("REPRO_SCALE", "0.5"))
#: simulated rank count standing in for the paper's 32 nodes
RANKS = int(os.environ.get("REPRO_RANKS", "8"))

_REPORTS: list[tuple[str, Callable[[], str]]] = []


def register_report(title: str, render: Callable[[], str]) -> None:
    """Queue a report table for printing at session end."""
    _REPORTS.append((title, render))


def render_all_reports() -> str:
    blocks = []
    for title, render in _REPORTS:
        try:
            body = render()
        except Exception as exc:  # pragma: no cover - defensive
            body = f"<report failed: {exc!r}>"
        if body:
            blocks.append(f"{'=' * 72}\n{title}\n{'=' * 72}\n{body}")
    _REPORTS.clear()
    return "\n\n".join(blocks)


@lru_cache(maxsize=None)
def dataset(name: str, scale: float = SCALE) -> tuple[np.ndarray, Any]:
    """Materialise (and cache) a registry dataset at the bench scale."""
    pts, spec = load_dataset(name, scale=scale)
    return pts, spec


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``fn`` once, returning ``(result, wall_seconds)``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def paper_value(name: str, key: str) -> Any:
    """Published number for a dataset (None when the paper has none)."""
    return REGISTRY[name].paper.get(key)


def fmt_paper_runtime(value: Any) -> str:
    if value is None:
        return "-"
    if value == float("inf"):
        return ">12h/err"
    return f"{value}"


def simple_table(headers: list[str], rows: list[list[Any]], title: str) -> str:
    return format_table(headers, rows, title=title)


def assert_bench(benchmark, check: Callable[[], None]) -> None:
    """Run a shape assertion through the benchmark fixture.

    ``--benchmark-only`` skips tests without the fixture; the tables'
    shape checks (who wins, what grows) are reproduction results, not
    micro-benchmarks, but they must run in the bench session — so they
    get a single no-op-timed round.
    """
    benchmark.pedantic(check, rounds=1, iterations=1)


def cpu_timer():
    """A PhaseTimer on the thread-CPU clock — the same clock thread-backend
    ranks use, so sequential-vs-distributed speedups compare like with
    like (wall time on a shared box includes descheduled time)."""
    import time as _time

    from repro.instrumentation.timers import PhaseTimer

    return PhaseTimer(clock=_time.thread_time)
