"""Correctness checks and clustering-quality metrics.

:mod:`repro.validation.exactness` encodes the paper's definition of an
*exact* DBSCAN variant (§III): same core points, same core-point
cluster membership, same cluster count — plus the noise condition and a
border-validity check.  :mod:`repro.validation.metrics` quantifies the
quality gap of the *approximate* baselines (HPDBSCAN-like,
RP-DBSCAN-like) against an exact clustering.
"""

from repro.validation.exactness import (
    ExactnessReport,
    WindowParityReport,
    assert_exact,
    assert_window_parity,
    canonical_labels,
    check_exact,
    check_window_parity,
)
from repro.validation.definition import DefinitionReport, validate_definition
from repro.validation.metrics import (
    rand_index,
    adjusted_rand_index,
    normalized_mutual_info,
    cluster_count_drift,
    label_sets_equal,
)

__all__ = [
    "ExactnessReport",
    "DefinitionReport",
    "validate_definition",
    "check_exact",
    "assert_exact",
    "WindowParityReport",
    "canonical_labels",
    "check_window_parity",
    "assert_window_parity",
    "rand_index",
    "adjusted_rand_index",
    "normalized_mutual_info",
    "cluster_count_drift",
    "label_sets_equal",
]
