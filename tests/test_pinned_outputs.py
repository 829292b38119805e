"""Fit outputs pinned to recorded values.

``tests/data/fit_pins.json`` holds, for every registry dataset × metric
at the parity scale, the result fingerprint (labels + core mask +
parameters) and the Table II work counters of the default fit, plus the
two clustering ablations and μDBSCAN-D at 2 and 4 ranks.  The values
were recorded when the fit still carried a second implementation of
each algorithm step (per-point Algorithm 3 scan, tree-probe Algorithm
5, MC-batched Algorithm 6) and every pair agreed on them, so they pin
the single remaining path to what both used to produce.

Regenerate only on purpose, for a change that is meant to alter the
clustering or the counted work::

    PYTHONPATH=src python tests/test_pinned_outputs.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.mudbscan import mu_dbscan
from repro.data.registry import dataset_names, load_dataset
from repro.distributed.mudbscan_d import mu_dbscan_d

PINS_PATH = Path(__file__).parent / "data" / "fit_pins.json"

#: registry sweep scale, the facade parity tests' (a few hundred points)
PARITY_SCALE = 0.05
METRICS = ("euclidean", "manhattan", "chebyshev")
COUNTERS = (
    "queries_run",
    "queries_saved",
    "dist_calcs",
    "unions",
    "micro_clusters",
    "deferred_points",
)
ABLATION_DATASETS = ("DGB0.5M3D", "MPAGD8M3D")
ABLATIONS = ("defer_2eps", "dynamic_wndq")
DISTRIBUTED_DATASET = "DGB0.5M3D"
RANKS = (2, 4)


def _pin(res) -> dict:
    return {
        "fingerprint": res.fingerprint(),
        **{name: int(getattr(res.counters, name)) for name in COUNTERS},
    }


def _load(name: str):
    return load_dataset(name, scale=PARITY_SCALE, seed=0)


def registry_case(name: str, metric: str) -> dict:
    pts, spec = _load(name)
    return _pin(mu_dbscan(pts, spec.eps, spec.min_pts, metric=metric))


def ablation_case(name: str, knob: str) -> dict:
    pts, spec = _load(name)
    return _pin(mu_dbscan(pts, spec.eps, spec.min_pts, **{knob: False}))


def distributed_case(ranks: int) -> dict:
    pts, spec = _load(DISTRIBUTED_DATASET)
    return _pin(mu_dbscan_d(pts, spec.eps, spec.min_pts, n_ranks=ranks))


def compute_pins() -> dict:
    return {
        "registry": {
            f"{name}/{metric}": registry_case(name, metric)
            for name in dataset_names()
            for metric in METRICS
        },
        "ablations": {
            f"{name}/{knob}=False": ablation_case(name, knob)
            for name in ABLATION_DATASETS
            for knob in ABLATIONS
        },
        "distributed": {
            f"{DISTRIBUTED_DATASET}/ranks={r}": distributed_case(r) for r in RANKS
        },
    }


def _pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_the_registry():
    pins = _pins()
    assert sorted(pins["registry"]) == sorted(
        f"{name}/{metric}" for name in dataset_names() for metric in METRICS
    )


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("name", dataset_names())
def test_registry_pins(name, metric):
    assert registry_case(name, metric) == _pins()["registry"][f"{name}/{metric}"]


@pytest.mark.parametrize("knob", ABLATIONS)
@pytest.mark.parametrize("name", ABLATION_DATASETS)
def test_ablation_pins(name, knob):
    assert ablation_case(name, knob) == _pins()["ablations"][f"{name}/{knob}=False"]


@pytest.mark.parametrize("ranks", RANKS)
def test_distributed_pins(ranks):
    key = f"{DISTRIBUTED_DATASET}/ranks={ranks}"
    assert distributed_case(ranks) == _pins()["distributed"][key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_pinned_outputs.py --write")
    PINS_PATH.write_text(json.dumps(compute_pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")
