"""DMC-sim: the full similarity-rule pipeline (Algorithm 5.1).

The pass sequence is DMC-imp's (:mod:`repro.core.pipeline`); the
similarity task swaps in the identical-column pass, the similarity
cutoff (best case ``ones/(ones+1)``) and the similarity policy, which
adds the Section 5.1 column-density pruning (as negative pair budgets)
and the Section 5.2 maximum-hits pruning (as the dynamic check).
"""

from __future__ import annotations

from typing import Optional

from repro.core.pipeline import PruningOptions, mine_matrix
from repro.core.rules import RuleSet
from repro.core.stats import PipelineStats
from repro.matrix.binary_matrix import BinaryMatrix


def find_similarity_rules(
    matrix: BinaryMatrix,
    minsim,
    options: Optional[PruningOptions] = None,
    stats: Optional[PipelineStats] = None,
    observer=None,
) -> RuleSet:
    """Mine every column pair with similarity ``>= minsim``.

    This is the library's primary similarity-mining entry point; see
    :func:`repro.core.pipeline.mine_matrix`.
    """
    return mine_matrix(matrix, "similarity", minsim, options, stats, observer)
