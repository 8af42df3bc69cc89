"""The paper's contribution: Dynamic Miss-Counting rule mining.

Public entry points:

- :func:`~repro.core.dmc_imp.find_implication_rules` — DMC-imp
  (Algorithm 4.2): every canonical implication rule with confidence
  ``>= minconf``.
- :func:`~repro.core.dmc_sim.find_similarity_rules` — DMC-sim
  (Algorithm 5.1): every column pair with similarity ``>= minsim``.
- :mod:`~repro.core.pipeline` — the pass driver both of them (and the
  streaming carrier) run, keyed by task.
- :func:`~repro.core.partitioned.find_implication_rules_partitioned` /
  :func:`~repro.core.partitioned.find_similarity_rules_partitioned` —
  the Section 7 divide-and-conquer extension.

Lower-level pieces (the scan engine, policies, thresholds, stats) are
exported for experimentation and for the benchmark harness.
"""

from repro.core.candidates import CandidateArray
from repro.core.dmc_imp import PruningOptions, find_implication_rules
from repro.core.dmc_sim import find_similarity_rules
from repro.core.miss_counting import (
    BitmapConfig,
    miss_counting_scan,
    zero_miss_scan,
)
from repro.core.partitioned import (
    find_implication_rules_partitioned,
    find_similarity_rules_partitioned,
)
from repro.core.policies import (
    HundredPercentPolicy,
    IdentityPolicy,
    ImplicationPolicy,
    PairPolicy,
    SimilarityPolicy,
)
from repro.core.rules import (
    ImplicationRule,
    RuleSet,
    SimilarityRule,
    canonical_before,
)
from repro.core.stats import PhaseTimer, PipelineStats, ScanStats
from repro.core.thresholds import (
    as_fraction,
    confidence_holds,
    confidence_removal_cutoff,
    density_prunable,
    max_hits_prunable,
    max_misses,
    max_possible_hits,
    min_hits,
    pair_max_misses,
    similarity_holds,
    similarity_removal_cutoff,
)
from repro.core.topk import (
    top_k_implication_rules,
    top_k_similarity_rules,
)

__all__ = [
    "BitmapConfig",
    "CandidateArray",
    "HundredPercentPolicy",
    "IdentityPolicy",
    "ImplicationPolicy",
    "ImplicationRule",
    "PairPolicy",
    "PhaseTimer",
    "PipelineStats",
    "PruningOptions",
    "RuleSet",
    "ScanStats",
    "SimilarityPolicy",
    "SimilarityRule",
    "as_fraction",
    "canonical_before",
    "confidence_holds",
    "confidence_removal_cutoff",
    "density_prunable",
    "find_implication_rules",
    "find_implication_rules_partitioned",
    "find_similarity_rules",
    "find_similarity_rules_partitioned",
    "max_hits_prunable",
    "max_misses",
    "max_possible_hits",
    "min_hits",
    "miss_counting_scan",
    "pair_max_misses",
    "similarity_holds",
    "similarity_removal_cutoff",
    "top_k_implication_rules",
    "top_k_similarity_rules",
    "zero_miss_scan",
]
