"""Ablation benches — DESIGN.md §5's design-choice isolation (beyond the
paper's tables, but directly motivated by its §IV design arguments).

1. 2ε deferral (Alg. 3 unassignedList) on/off → micro-cluster count.
2. Two-level μR-tree vs a flat R-tree for the same queries → distance
   work per query.
3. Dynamic wndq-core marking (Alg. 6 step iii) on/off → query count.

(Ablation 4, per-point reachable-MC filtration, left with the
per-reachable-MC level-2 layouts it applied to; see DESIGN.md §5.)
"""

from __future__ import annotations

import pytest

import common
from repro import mu_dbscan, rtree_dbscan

DATASETS = ["DGB0.5M3D", "HHP0.5M5D"]

_rows: dict[tuple[str, str], dict] = {}


@pytest.mark.parametrize("dataset_name", DATASETS)
def test_ablation_defer_2eps(benchmark, dataset_name: str) -> None:
    pts, spec = common.dataset(dataset_name)
    on = mu_dbscan(pts, spec.eps, spec.min_pts, defer_2eps=True)
    off = benchmark.pedantic(
        lambda: mu_dbscan(pts, spec.eps, spec.min_pts, defer_2eps=False),
        rounds=1, iterations=1,
    )
    _rows[(dataset_name, "defer_2eps")] = {
        "on": on.extras["n_micro_clusters"],
        "off": off.extras["n_micro_clusters"],
    }
    assert on.extras["n_micro_clusters"] <= off.extras["n_micro_clusters"]


@pytest.mark.parametrize("dataset_name", DATASETS)
def test_ablation_dynamic_wndq(benchmark, dataset_name: str) -> None:
    pts, spec = common.dataset(dataset_name)
    on = mu_dbscan(pts, spec.eps, spec.min_pts, dynamic_wndq=True)
    off = benchmark.pedantic(
        lambda: mu_dbscan(pts, spec.eps, spec.min_pts, dynamic_wndq=False),
        rounds=1, iterations=1,
    )
    _rows[(dataset_name, "dynamic_wndq")] = {
        "on": on.counters.queries_run,
        "off": off.counters.queries_run,
    }
    assert on.counters.queries_run <= off.counters.queries_run


@pytest.mark.parametrize("dataset_name", DATASETS)
def test_ablation_two_level_vs_flat_rtree(benchmark, dataset_name: str) -> None:
    """μR-tree vs a single flat R-tree doing the same n queries."""
    pts, spec = common.dataset(dataset_name)
    mu = mu_dbscan(pts, spec.eps, spec.min_pts)
    flat = benchmark.pedantic(
        lambda: rtree_dbscan(pts, spec.eps, spec.min_pts), rounds=1, iterations=1
    )
    _rows[(dataset_name, "two_level")] = {
        "on": mu.counters.queries_run,
        "off": flat.counters.queries_run,
    }
    assert mu.counters.queries_run < flat.counters.queries_run


def _render() -> str:
    headers = ["dataset", "ablation", "with", "without", "metric"]
    metric = {
        "defer_2eps": "micro-clusters",
        "dynamic_wndq": "queries run",
        "two_level": "queries run (vs flat R-tree)",
    }
    rows = []
    for (name, ablation), vals in sorted(_rows.items()):
        rows.append([name, ablation, vals["on"], vals["off"], metric[ablation]])
    return common.simple_table(
        headers, rows, title="Ablations - design choices isolated (DESIGN.md §5)"
    )


common.register_report("Ablations", _render)
