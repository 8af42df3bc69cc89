"""DMC-imp: the full implication-rule pipeline (Algorithm 4.2).

The pass sequence — pre-scan, 100% rules, removal of the columns whose
miss budget is zero, <100% rules — is shared with DMC-sim and lives in
:mod:`repro.core.pipeline`; this module names the implication task.
:class:`PruningOptions` and :func:`second_pass_scan` are re-exported
from there.
"""

from __future__ import annotations

from typing import Optional

from repro.core.pipeline import PruningOptions, mine_matrix, second_pass_scan
from repro.core.rules import RuleSet
from repro.core.stats import PipelineStats
from repro.matrix.binary_matrix import BinaryMatrix

__all__ = ["PruningOptions", "find_implication_rules", "second_pass_scan"]


def find_implication_rules(
    matrix: BinaryMatrix,
    minconf,
    options: Optional[PruningOptions] = None,
    stats: Optional[PipelineStats] = None,
    observer=None,
) -> RuleSet:
    """Mine every canonical rule with confidence ``>= minconf``.

    This is the library's primary implication-mining entry point; see
    :func:`repro.core.pipeline.mine_matrix`.
    """
    return mine_matrix(
        matrix, "implication", minconf, options, stats, observer
    )
