"""Seeded input generators.

The benchmark makes its own inputs instead of calling ``repro.data``,
so that a change to the program's generators cannot move the
instrument.  Every generator takes the run seed plus a stream tag and
draws from ``np.random.default_rng([seed, tag, ...])``: the same seed
gives byte-identical inputs, and the streams are independent.
"""

from __future__ import annotations

import numpy as np

#: stream tags, one per independent input stream
FIT, QUERY, HALO, SERVE, DRIFT, DELETE, READ, CHECK = range(8)


def rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


# -- batch: 3-D Gaussian blobs in a uniform background -----------------

BLOB_CENTERS = 8
BLOB_SPREAD = 0.05
#: the blob centers are one fixed layout; with per-seed centers, how
#: much the blobs overlapped moved the predict cost by a third from
#: seed to seed.  The run seed draws the points and the queries.
BLOB_LAYOUT_SEED = 1


def _blob_centers(dim: int) -> np.ndarray:
    return rng(BLOB_LAYOUT_SEED, FIT, 0).uniform(0.0, 1.0, (BLOB_CENTERS, dim))


def blobs(seed: int, n: int, dim: int = 3, noise: float = 0.2) -> np.ndarray:
    """``n`` points: blobs of spread 0.05 in the unit box, ``noise``
    of them uniform background, shuffled."""
    r = rng(seed, FIT, 1)
    centers = _blob_centers(dim)
    n_noise = int(round(n * noise))
    which = np.arange(n - n_noise) % BLOB_CENTERS
    pts = np.vstack([
        centers[which] + r.normal(0.0, BLOB_SPREAD, (which.size, dim)),
        r.uniform(0.0, 1.0, (n_noise, dim)),
    ])
    r.shuffle(pts, axis=0)
    return pts


def blob_queries(seed: int, batch: int, n: int, dim: int = 3) -> np.ndarray:
    """Held-out predict batch ``batch``: 7/8 fresh draws from the same
    blobs (near data), 1/8 uniform over a box twice the data's width
    (mostly misses)."""
    r = rng(seed, QUERY, batch)
    centers = _blob_centers(dim)
    n_miss = n // 8
    which = r.integers(0, BLOB_CENTERS, n - n_miss)
    q = np.vstack([
        centers[which] + r.normal(0.0, BLOB_SPREAD, (which.size, dim)),
        r.uniform(-0.5, 1.5, (n_miss, dim)),
    ])
    r.shuffle(q, axis=0)
    return q


# -- serve: 14-D clustered catalogue (halos in a periodic box) ---------

#: parameters of the repo's FOF28M14D stand-in (14-D galaxy halos)
HALO_PARAMS = {"dim": 14, "box": 60.0, "halo_scale": 1.2, "mean_occupancy": 50.0,
        "field_fraction": 0.10, "pareto_alpha": 1.3}


def halos(seed: int, n: int) -> np.ndarray:
    """Halo catalogue: Pareto halo occupancies, Plummer radial profiles,
    a uniform field component, wrapped into a periodic box."""
    p = HALO_PARAMS
    r = rng(seed, HALO)
    dim, box = p["dim"], p["box"]
    n_field = int(round(n * p["field_fraction"]))
    n_halo = n - n_field
    n_halos = max(1, int(round(n_halo / p["mean_occupancy"])))
    raw = r.pareto(p["pareto_alpha"], n_halos) + 1.0
    occ = np.maximum(1, np.round(raw / raw.mean() * p["mean_occupancy"])).astype(int)
    while occ.sum() > n_halo:
        occ[int(np.argmax(occ))] -= 1
    np.add.at(occ, r.integers(0, n_halos, n_halo - int(occ.sum())), 1)
    owner = np.repeat(np.arange(n_halos), occ)
    centers = r.uniform(0.0, box, (n_halos, dim))
    u = r.random(n_halo)
    radii = p["halo_scale"] / np.sqrt(np.clip(u ** (-2.0 / 3.0) - 1.0, 1e-12, None))
    dirs = r.normal(size=(n_halo, dim))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    pts = np.vstack([
        centers[owner] + dirs * radii[:, None],
        r.uniform(0.0, box, (n_field, dim)),
    ])
    pts = np.mod(pts, box)
    r.shuffle(pts, axis=0)
    return pts


def near_rows(r: np.random.Generator, anchors: np.ndarray, n: int,
              sigma: float) -> np.ndarray:
    """``n`` fresh rows: random anchors plus Gaussian jitter, so no row
    ever repeats another."""
    pick = r.integers(0, anchors.shape[0], n)
    return anchors[pick] + r.normal(0.0, sigma, (n, anchors.shape[1]))


# -- stream: drifting 3-D stream that breaks into bounded clusters -----

def drift(seed: int, lo: int, n: int) -> np.ndarray:
    """Rows ``lo .. lo+n`` of a stream advancing along x; every 600
    arrivals the center jumps by more than ε, so the live window holds
    several disconnected clusters of bounded size."""
    r = rng(seed, DRIFT, lo)
    idx = np.arange(lo, lo + n)
    x = idx * 0.0006 + (idx // 600) * 0.5 + r.normal(0.0, 0.02, n)
    return np.column_stack([x, r.normal(0.0, 0.06, (n, 2))])
