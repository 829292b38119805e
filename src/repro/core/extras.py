"""Documented keys of ``ClusteringResult.extras``.

``extras`` is the algorithm-specific side channel of every
:class:`~repro.core.result.ClusteringResult`.  Its keys used to be
bare string literals scattered across examples, benches and docs;
these module-level constants are the documented spellings — use
``result.extras[ExtraKeys.N_MICRO_CLUSTERS]`` (or the module-level
aliases) instead of retyping the literal.

The constants are plain ``str`` values, so existing string lookups
keep working unchanged; what the constants buy is one greppable
definition site and typo-safety at the call site.
"""

from __future__ import annotations

__all__ = [
    "ExtraKeys",
    "AVG_MC_SIZE",
    "BACKEND",
    "BYTES_SENT_TOTAL",
    "ENGINE",
    "ENGINE_OPTIONS",
    "FIT_SECONDS",
    "MC_KIND_COUNTS",
    "MEMORY_PROFILE",
    "MESSAGES_SENT_TOTAL",
    "METRIC",
    "N_CROSS_PAIRS",
    "N_MICRO_CLUSTERS",
    "N_RANKS",
    "N_WNDQ_CORE",
    "PER_RANK_MEMORY",
    "PER_RANK_PHASES",
    "PER_RANK_RUSAGE",
    "PER_RANK_STATS",
]


class ExtraKeys:
    """Namespace of every documented ``extras`` key (see docs/API.md)."""

    # -- sequential μDBSCAN (mu_dbscan / fit_model) --------------------
    #: number of micro-clusters built (the paper's *m*)
    N_MICRO_CLUSTERS = "n_micro_clusters"
    #: mean points per micro-cluster (the paper's *r*)
    AVG_MC_SIZE = "avg_mc_size"
    #: points core-certified without their own ε-query (wndq mechanism)
    N_WNDQ_CORE = "n_wndq_core"
    #: DMC / CMC / SMC classification counts
    MC_KIND_COUNTS = "mc_kind_counts"
    #: distance metric the run used (metric name string)
    METRIC = "metric"
    #: total fit seconds (FittedModel artifacts)
    FIT_SECONDS = "fit_seconds"
    #: per-phase memory records (Table IV split-up) when a profiler ran
    MEMORY_PROFILE = "memory_profile"

    # -- engine provenance (streaming snapshots) -----------------------
    #: which engine produced the result ("streaming")
    ENGINE = "engine"
    #: the engine's construction options (provenance dict)
    ENGINE_OPTIONS = "engine_options"

    # -- distributed drivers (mu_dbscan_d and baselines) ---------------
    #: world size of the run
    N_RANKS = "n_ranks"
    #: execution backend name ("thread" / "process")
    BACKEND = "backend"
    #: per-rank phase-seconds dicts, rank order
    PER_RANK_PHASES = "per_rank_phases"
    #: per-rank stats dicts (n_owned / n_halo / ...), rank order
    PER_RANK_STATS = "per_rank_stats"
    #: owned↔halo merge pairs resolved by the global merge
    N_CROSS_PAIRS = "n_cross_pairs"
    #: payload bytes pushed into the network, summed over ranks
    BYTES_SENT_TOTAL = "bytes_sent_total"
    #: point-to-point messages sent, summed over ranks
    MESSAGES_SENT_TOTAL = "messages_sent_total"
    #: per-rank phase → memory record tables when a profiler ran
    PER_RANK_MEMORY = "per_rank_memory"
    #: per-rank rusage dicts (max_rss_kb / user_cpu_s / system_cpu_s)
    PER_RANK_RUSAGE = "per_rank_rusage"


# module-level aliases for flat imports:
#   from repro.core.extras import N_MICRO_CLUSTERS
N_MICRO_CLUSTERS = ExtraKeys.N_MICRO_CLUSTERS
AVG_MC_SIZE = ExtraKeys.AVG_MC_SIZE
N_WNDQ_CORE = ExtraKeys.N_WNDQ_CORE
MC_KIND_COUNTS = ExtraKeys.MC_KIND_COUNTS
METRIC = ExtraKeys.METRIC
FIT_SECONDS = ExtraKeys.FIT_SECONDS
MEMORY_PROFILE = ExtraKeys.MEMORY_PROFILE
ENGINE = ExtraKeys.ENGINE
ENGINE_OPTIONS = ExtraKeys.ENGINE_OPTIONS
N_RANKS = ExtraKeys.N_RANKS
BACKEND = ExtraKeys.BACKEND
PER_RANK_PHASES = ExtraKeys.PER_RANK_PHASES
PER_RANK_STATS = ExtraKeys.PER_RANK_STATS
N_CROSS_PAIRS = ExtraKeys.N_CROSS_PAIRS
BYTES_SENT_TOTAL = ExtraKeys.BYTES_SENT_TOTAL
MESSAGES_SENT_TOTAL = ExtraKeys.MESSAGES_SENT_TOTAL
PER_RANK_MEMORY = ExtraKeys.PER_RANK_MEMORY
PER_RANK_RUSAGE = ExtraKeys.PER_RANK_RUSAGE
