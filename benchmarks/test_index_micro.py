"""Index microbenchmarks — the query-substrate comparison behind it all.

Not a paper table, but the engineering ground truth the paper's design
arguments rest on: how expensive is one exact ε-query under each index,
and how does the μR-tree's restricted search compare?  Reported per
1000 queries on the DGB galaxy stand-in.
"""

from __future__ import annotations

import numpy as np
import pytest

import common
from repro.index.brute import BruteIndex
from repro.index.grid import UniformGrid
from repro.index.kdtree import KDTree
from repro.index.rtree import PointRTree
from repro.microcluster.murtree import MuRTree

DATASET = "DGB0.5M3D"
N_QUERIES = 1000

_times: dict[str, tuple[float, int]] = {}


def _queries(pts: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(0)
    return rng.choice(pts.shape[0], size=min(N_QUERIES, pts.shape[0]), replace=False)


@pytest.fixture(scope="module")
def workload():
    pts, spec = common.dataset(DATASET)
    return pts, spec.eps, _queries(pts)


def _record(benchmark, name: str) -> None:
    _times[name] = (benchmark.stats["mean"], N_QUERIES)


def test_micro_brute(benchmark, workload):
    pts, eps, rows = workload
    index = BruteIndex(pts)
    benchmark.pedantic(
        lambda: [index.query_ball(pts[r], eps) for r in rows], rounds=1, iterations=1
    )
    _record(benchmark, "brute")


def test_micro_rtree(benchmark, workload):
    pts, eps, rows = workload
    index = PointRTree(pts)
    benchmark.pedantic(
        lambda: [index.query_ball(pts[r], eps) for r in rows], rounds=1, iterations=1
    )
    _record(benchmark, "rtree")


def test_micro_kdtree(benchmark, workload):
    pts, eps, rows = workload
    index = KDTree(pts)
    benchmark.pedantic(
        lambda: [index.query_ball(pts[r], eps) for r in rows], rounds=1, iterations=1
    )
    _record(benchmark, "kdtree")


def test_micro_grid(benchmark, workload):
    pts, eps, rows = workload
    index = UniformGrid(pts, cell_width=eps)
    benchmark.pedantic(
        lambda: [index.query_ball(pts[r], eps) for r in rows], rounds=1, iterations=1
    )
    _record(benchmark, "grid")


def test_micro_murtree_cached(benchmark, workload):
    pts, eps, rows = workload
    tree = MuRTree(pts, eps)
    tree.compute_reachability()
    benchmark.pedantic(
        lambda: [tree.query_ball(int(r)) for r in rows], rounds=1, iterations=1
    )
    _record(benchmark, "murtree(cached)")


# ---------------------------------------------------------------------------
# Point R-tree construction: STR bulk load vs one-by-one Guttman
# inserts over a fixed point set — the static packing should win, this
# case quantifies by how much.

AUX_BUILD_N = 20_000

_build_times: dict[str, float] = {}


@pytest.fixture(scope="module")
def aux_workload(workload):
    pts, _, _ = workload
    rng = np.random.default_rng(1)
    keep = rng.choice(pts.shape[0], size=min(AUX_BUILD_N, pts.shape[0]), replace=False)
    return pts[keep]


def test_micro_aux_build_bulk(benchmark, aux_workload):
    pts = aux_workload
    benchmark.pedantic(lambda: PointRTree(pts, bulk=True), rounds=1, iterations=1)
    _build_times["bulk (STR)"] = benchmark.stats["mean"]


def test_micro_aux_build_incremental(benchmark, aux_workload):
    pts = aux_workload
    benchmark.pedantic(lambda: PointRTree(pts, bulk=False), rounds=1, iterations=1)
    _build_times["incremental"] = benchmark.stats["mean"]


def _render_build() -> str:
    if not _build_times:
        return ""
    rows = [
        [name, f"{secs:.3f} s"]
        for name, secs in sorted(_build_times.items(), key=lambda kv: kv[1])
    ]
    if len(_build_times) == 2:
        fast, slow = sorted(_build_times.values())
        rows.append(["speedup", f"{slow / fast:.2f}x"])
    return common.simple_table(
        ["point R-tree build", "seconds"],
        rows,
        title=f"point R-tree construction on a {AUX_BUILD_N}-point {DATASET} subsample",
    )


common.register_report("R-tree bulk loading", _render_build)


def _render() -> str:
    if not _times:
        return ""
    rows = [
        [name, f"{secs * 1e6 / n:.1f} us"]
        for name, (secs, n) in sorted(
            _times.items(), key=lambda kv: kv[1][0] / kv[1][1]
        )
    ]
    return common.simple_table(
        ["index", "per eps-query"],
        rows,
        title=(
            f"index microbenchmark - exact eps-queries on {DATASET} "
            f"(~{N_QUERIES} member-point queries)"
        ),
    )


common.register_report("Index microbenchmark", _render)
