"""Execution-backend tests: thread/process parity, failure hygiene.

The backend contract (docs/DISTRIBUTED.md): for the same seed, every
backend produces identical labels, core masks and communication
accounting, and a failing rank is reported in the parent without
leaking rank threads, worker processes or shared-memory segments.

The crashing/echoing rank functions live at module top level — the
process backend spawns fresh interpreters that import them by
qualified name, which is itself part of the contract under test
(rank callables must be picklable).
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import brute_dbscan, check_exact, fit_distributed, mu_dbscan
from repro.core.params import DBSCANParams
from repro.core.mudbscan import run_mu_dbscan_state
from repro.data.synthetic import blobs_with_noise, uniform_box
from repro.distributed.backends import BACKENDS, launch
from repro.distributed.backends.thread import World, WorldShutdownError, run_mpi
from repro.distributed.local import (
    DistributedMuDBSCANState,
    _extract_intra_edges,
    run_local_mu_dbscan,
)
from repro.distributed.mudbscan_d import mu_dbscan_d

SHM_DIR = Path("/dev/shm")


def _shm_segments() -> set[str]:
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.glob("psm_*")}


def _no_rank_threads() -> bool:
    return not any(t.name.startswith("simmpi-rank-") for t in threading.enumerate())


def _no_rank_processes() -> bool:
    return not any(p.name.startswith("mpi-proc-rank-") for p in mp.active_children())


# ---------------------------------------------------------------------------
# rank functions for the process backend (must be top-level picklables)


def _echo_rank(comm):
    partner = comm.rank ^ 1
    if partner < comm.size:
        comm.send((comm.rank, np.arange(4)), dest=partner, tag=7)
        got = comm.recv(source=partner, tag=7)
    else:
        got = (comm.rank, np.arange(4))
    total = comm.allreduce(comm.rank)
    return (got[0], float(got[1].sum()), total, comm.bytes_sent, comm.messages_sent)


def _shared_sum_rank(comm, shared):
    return float(shared["data"].sum()) + comm.rank


def _crash_rank(comm):
    if comm.rank == 1:
        raise ValueError("injected crash")
    try:
        comm.barrier()  # peers must not hang on the dead rank
    except Exception:
        pass
    return comm.rank


def _crash_with_shared_rank(comm, shared):
    if comm.rank == 0:
        raise RuntimeError("boom with shared memory mapped")
    try:
        comm.barrier()
    except Exception:
        pass
    return float(shared["data"][0])


def _ordered_tags_rank(comm):
    """Out-of-tag-order receive: exercises the process stash path."""
    if comm.rank == 0:
        for i in range(6):
            comm.send(("a", i), dest=1, tag=1)
            comm.send(("b", i), dest=1, tag=2)
        return None
    b = [comm.recv(source=0, tag=2) for _ in range(6)]
    a = [comm.recv(source=0, tag=1) for _ in range(6)]
    return a + b


def _large_swap_rank(comm):
    """Pairwise swap of >pipe-buffer payloads: buffered sends must not deadlock."""
    partner = comm.rank ^ 1
    payload = np.full(200_000, float(comm.rank))
    comm.send(payload, dest=partner, tag=3)
    got = comm.recv(source=partner, tag=3)
    return float(got[0])


# ---------------------------------------------------------------------------


class TestLaunchApi:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            launch(2, _echo_rank, backend="mpi4py")

    def test_registry_names(self):
        assert set(BACKENDS) == {"thread", "process"}

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_echo_roundtrip(self, backend):
        results = launch(2, _echo_rank, backend=backend)
        assert [r[0] for r in results] == [1, 0]
        assert all(r[1] == 6.0 and r[2] == 1 for r in results)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_shared_arrays_visible_to_every_rank(self, backend):
        data = np.arange(10, dtype=np.float64)
        results = launch(
            2, _shared_sum_rank, backend=backend, shared={"data": data}
        )
        assert results == [45.0, 46.0]

    def test_process_stash_preserves_tag_fifo(self):
        results = launch(2, _ordered_tags_rank, backend="process")
        assert results[1] == [("a", i) for i in range(6)] + [("b", i) for i in range(6)]

    def test_process_large_matched_swap_does_not_deadlock(self):
        results = launch(2, _large_swap_rank, backend="process")
        assert results == [1.0, 0.0]


class TestBackendParity:
    """Same labels / core mask / bytes / messages on every backend."""

    WORKLOADS = {
        "blobs": (lambda: blobs_with_noise(600, 2, 5, noise_fraction=0.3, seed=100), 0.08, 5),
        "uniform": (lambda: uniform_box(300, 2, seed=102), 0.02, 5),
    }

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_thread_process_identical(self, workload, p):
        make, eps, min_pts = self.WORKLOADS[workload]
        pts = make()
        a = mu_dbscan_d(pts, eps, min_pts, n_ranks=p, backend="thread")
        b = mu_dbscan_d(pts, eps, min_pts, n_ranks=p, backend="process")
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.core_mask, b.core_mask)
        assert a.extras["bytes_sent_total"] == b.extras["bytes_sent_total"]
        assert a.extras["messages_sent_total"] == b.extras["messages_sent_total"]
        assert a.extras["backend"] == "thread" and b.extras["backend"] == "process"

    def test_process_matches_sequential_mudbscan(self):
        pts = blobs_with_noise(500, 2, 4, noise_fraction=0.2, seed=104)
        seq = mu_dbscan(pts, 0.1, 5)
        dist = mu_dbscan_d(pts, 0.1, 5, n_ranks=4, backend="process")
        assert check_exact(dist, seq, points=pts).ok

    def test_process_counters_match_thread(self):
        pts = blobs_with_noise(400, 2, 4, noise_fraction=0.25, seed=105)
        a = mu_dbscan_d(pts, 0.09, 5, n_ranks=2, backend="thread")
        b = mu_dbscan_d(pts, 0.09, 5, n_ranks=2, backend="process")
        assert a.counters.as_dict() == b.counters.as_dict()


class TestThreadFailureHygiene:
    def test_failure_leaves_no_rank_threads(self):
        def main(comm):
            if comm.rank == 2:
                raise ValueError("fault")
            comm.recv(source=2)  # would block forever without shutdown poison

        with pytest.raises(RuntimeError, match="rank 2 failed"):
            run_mpi(4, main)
        deadline = time.monotonic() + 5.0
        while not _no_rank_threads() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _no_rank_threads(), "stray simmpi-rank-* threads after failure"

    def test_failure_error_is_the_original_not_the_shutdown(self):
        def main(comm):
            if comm.rank == 3:
                raise KeyError("root cause")
            comm.recv(source=3)

        with pytest.raises(RuntimeError, match="rank 3 failed") as excinfo:
            run_mpi(4, main)
        assert isinstance(excinfo.value.__cause__, KeyError)

    def test_shutdown_unblocks_direct_recv(self):
        world = World(2)
        from repro.distributed.backends.thread import ThreadCommunicator

        comm = ThreadCommunicator(world, 0)
        hit = []

        def blocked():
            try:
                comm.recv(source=1)
            except WorldShutdownError:
                hit.append(True)

        t = threading.Thread(target=blocked, daemon=True)
        t.start()
        time.sleep(0.05)
        world.shutdown()
        t.join(timeout=5)
        assert hit == [True]
        with pytest.raises(WorldShutdownError):
            comm.send("late", dest=1)


class TestProcessFailureHygiene:
    def test_crash_reports_rank_and_leaves_no_orphans(self):
        before = _shm_segments()
        with pytest.raises(RuntimeError, match="rank 1 failed") as excinfo:
            launch(4, _crash_rank, backend="process")
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert _no_rank_processes(), "orphan worker processes after failure"
        leaked = _shm_segments() - before
        assert not leaked, f"leaked shared-memory segments: {leaked}"

    def test_crash_with_shared_memory_unlinks_segments(self):
        before = _shm_segments()
        data = np.arange(50_000, dtype=np.float64)
        with pytest.raises(RuntimeError, match="rank 0 failed"):
            launch(2, _crash_with_shared_rank, backend="process", shared={"data": data})
        assert _no_rank_processes()
        leaked = _shm_segments() - before
        assert not leaked, f"leaked shared-memory segments: {leaked}"

    def test_success_leaves_no_segments_or_workers(self):
        before = _shm_segments()
        launch(2, _shared_sum_rank, backend="process", shared={"data": np.ones(8)})
        assert _no_rank_processes()
        assert not (_shm_segments() - before)


class TestIntraEdgeExtraction:
    """Fragments built from the local edge components stay exact."""

    def _build_state(self, seed: int) -> DistributedMuDBSCANState:
        pts = blobs_with_noise(400, 2, 4, noise_fraction=0.3, seed=seed)
        eps = 0.09
        params = DBSCANParams(eps=eps, min_pts=5)
        cut = float(np.median(pts[:, 0]))
        owned_idx = np.flatnonzero(pts[:, 0] < cut)
        halo_src = np.flatnonzero(pts[:, 0] >= cut)
        halo_idx = halo_src[np.abs(pts[halo_src, 0] - cut) < eps]
        all_points = np.vstack([pts[owned_idx], pts[halo_idx]])
        all_gids = np.concatenate([owned_idx, halo_idx]).astype(np.int64)
        owned_mask = np.zeros(all_points.shape[0], dtype=bool)
        owned_mask[: owned_idx.size] = True

        def factory(murtree, p, c):
            return DistributedMuDBSCANState(murtree, p, c, owned_mask, all_gids)

        state, _ = run_mu_dbscan_state(
            all_points, params, process_mask=owned_mask, state_factory=factory
        )
        assert isinstance(state, DistributedMuDBSCANState)
        return state

    @pytest.mark.parametrize("seed", [91, 92, 93])
    def test_intra_edges_rebuild_owned_components(self, seed):
        """Each owned row points at its component's first row, so the
        edges rebuild exactly the local components; halo rows stay
        singletons."""
        state = self._build_state(seed)
        edges = _extract_intra_edges(state)
        assert edges.dtype == np.int64
        comp = state.components()
        halo = np.flatnonzero(~state.owned)
        assert np.unique(comp[halo]).size == halo.size
        assert not np.isin(comp[halo], comp[state.owned]).any()
        row_of = {int(g): r for r, g in enumerate(state.gids)}
        rebuilt = np.arange(state.n)
        for a, b in edges:
            ra, rb = row_of[int(a)], row_of[int(b)]
            assert state.owned[ra] and state.owned[rb]
            assert comp[ra] == comp[rb] and rb < ra
            rebuilt[ra] = rb
        owned = np.flatnonzero(state.owned)
        _, first_row = np.unique(comp, return_index=True)
        np.testing.assert_array_equal(rebuilt[owned], first_row[comp[owned]])

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("n_ranks", [2, 4])
    @pytest.mark.parametrize("seed", [91, 92, 93])
    def test_fit_distributed_exact_against_oracle(self, seed, n_ranks, backend):
        pts = blobs_with_noise(400, 2, 4, noise_fraction=0.3, seed=seed)
        res = fit_distributed(pts, 0.09, 5, n_ranks=n_ranks, backend=backend)
        report = check_exact(res, brute_dbscan(pts, 0.09, 5), points=pts)
        assert report.ok, str(report)

    def test_empty_when_nothing_merged(self):
        pts = uniform_box(60, 2, seed=7)  # sparse: everything is noise
        params = DBSCANParams(eps=0.001, min_pts=5)
        frag = run_local_mu_dbscan(
            pts, np.arange(60, dtype=np.int64), np.empty((0, 2)), np.empty(0, dtype=np.int64), params
        )
        assert frag.intra_edges.shape == (0, 2)
