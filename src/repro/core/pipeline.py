"""The DMC pass sequence, written once for both tasks and every carrier.

Algorithm 4.2 (DMC-imp) and Algorithm 5.1 (DMC-sim) run the same
steps:

1. Pre-scan: count ``ones(c_i)`` and bucket rows by density (Section
   4.1) so the second scan reads sparsest rows first.
2. Extract the 100% rules with the simplified zero-miss scan and its
   bitmap tail.
3. Remove every column below the task's cutoff — such columns can
   only take part in 100% rules, which step 2 already found.  (The
   cutoffs are exact; see DESIGN.md on the paper's off-by-one.)
4. Extract the remaining rules with DMC-base + DMC-bitmap over the
   restricted columns and merge them with step 2's output.

The tasks differ only in their two policies and the cutoff, which
:data:`TASKS` holds.  :func:`run_passes` runs steps 2-4 over a *row
source*: :class:`MatrixRows` hides an in-memory matrix, and the
streaming carrier (:mod:`repro.matrix.stream`) hides its on-disk
spill behind the same two methods.  Step 1 belongs to the carrier,
because only it knows how the rows arrive.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from repro.core.miss_counting import (
    BitmapConfig,
    miss_counting_scan,
    zero_miss_scan,
)
from repro.core.policies import (
    HundredPercentPolicy,
    IdentityPolicy,
    ImplicationPolicy,
    PairPolicy,
    SimilarityPolicy,
)
from repro.core.rules import RuleSet
from repro.core.stats import PipelineStats, ScanStats
from repro.core.thresholds import (
    as_fraction,
    confidence_removal_cutoff,
    similarity_removal_cutoff,
)
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.reorder import scan_order
from repro.observe.progress import NULL_OBSERVER


@dataclass(frozen=True)
class PruningOptions:
    """Toggles for the paper's optimizations (ablation benchmarks).

    Every toggle is semantics-preserving: disabling one changes time and
    memory, never the mined rules.
    """

    #: Section 4.1 — scan sparsest density buckets first.
    row_reordering: bool = True
    #: Section 4.3 — split mining into a 100%-rule pass plus a
    #: low-frequency column removal before the <100% pass.
    hundred_percent_pass: bool = True
    #: Section 4.2 — switch to DMC-bitmap near the end of the scan
    #: (None disables the switch entirely).
    bitmap: Optional[BitmapConfig] = field(default_factory=BitmapConfig)
    #: Section 5.1 — drop pairs whose cardinality ratio is below minsim
    #: (similarity mining only).
    density_pruning: bool = True
    #: Section 5.2 — drop pairs whose best achievable similarity is
    #: below minsim (similarity mining only).
    max_hits_pruning: bool = True
    #: Optional :class:`repro.runtime.guards.MemoryGuard` enforcing a
    #: hard counter-array budget on every scan (duck-typed here to keep
    #: the core free of runtime imports).
    memory_guard: Optional[object] = None
    #: Second-pass engine: ``"serial"`` runs the row-at-a-time scan of
    #: :mod:`repro.core.miss_counting`; ``"vector"`` runs the blocked
    #: numpy engine of :mod:`repro.core.vector`.  Both produce the
    #: identical rule set; the zero-miss 100%-rule pass always runs
    #: serial (its id-set layout is already near-optimal).  ``None``
    #: leaves the choice to :func:`repro.api.resolve_engine`, which
    #: picks ``"vector"`` for ``engine="auto"`` on an in-memory matrix
    #: without a ``memory_budget`` and ``"serial"`` everywhere else; a
    #: pipeline called directly with ``None`` runs serial.
    scan_engine: Optional[str] = None
    #: Rows per block for ``scan_engine="vector"`` (None = the engine's
    #: :data:`repro.core.vector.DEFAULT_BLOCK_ROWS`).
    vector_block_rows: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scan_engine not in (None, "serial", "vector"):
            raise ValueError(
                f"unknown scan_engine {self.scan_engine!r}; "
                "use 'serial', 'vector' or None"
            )


def second_pass_scan(options: PruningOptions):
    """Return the miss-counting scan callable ``options`` selects.

    The returned callable has :func:`repro.core.miss_counting.
    miss_counting_scan`'s signature — ``(matrix, policy, order=...,
    stats=..., bitmap=..., rules=..., guard=..., observer=...)`` — so
    the DMC pipelines call it without knowing which engine is under it.
    """
    if options.scan_engine != "vector":
        return miss_counting_scan
    from repro.core.vector import vector_scan

    def scan(matrix, policy, **kwargs):
        return vector_scan(
            matrix, policy,
            block_rows=options.vector_block_rows, **kwargs,
        )

    return scan


def vector_exact(
    matrix: BinaryMatrix, task: str, threshold, options: PruningOptions
) -> bool:
    """Whether the vector scan's int64 array twins are exact for the
    <100% pass of mining ``matrix`` (column removal only lowers the
    counts the check depends on)."""
    policy = mining_task(task).partial_policy(
        matrix.column_ones(), as_fraction(threshold), options
    )
    return policy.vector_ready()


class _Implication:
    """DMC-imp (Algorithm 4.2)."""

    def zero_miss_policy(self, ones):
        return HundredPercentPolicy(ones)

    def partial_policy(self, ones, minconf, options):
        return ImplicationPolicy(ones, minconf)

    def removal_cutoff(self, minconf):
        return confidence_removal_cutoff(minconf)


class _Similarity:
    """DMC-sim (Algorithm 5.1), with the Section 5.1/5.2 prunings."""

    def zero_miss_policy(self, ones):
        return IdentityPolicy(ones)

    def partial_policy(self, ones, minsim, options):
        return SimilarityPolicy(
            ones,
            minsim,
            use_density_pruning=options.density_pruning,
            use_max_hits_pruning=options.max_hits_pruning,
        )

    def removal_cutoff(self, minsim):
        return similarity_removal_cutoff(minsim)


#: The paper's two rule tasks (Sections 4 and 5), keyed by name.  Each
#: sets the driver's three task-specific steps: ``zero_miss_policy(ones)``
#: for the 100% pass, ``partial_policy(ones, threshold, options)`` for
#: the <100% pass, and ``removal_cutoff(threshold)`` — a column with at
#: most that many ones is removed between the two.
TASKS = {
    "implication": _Implication(),
    "similarity": _Similarity(),
}


def mining_task(task: str):
    """The :data:`TASKS` entry for ``task``; ValueError when unknown."""
    try:
        return TASKS[task]
    except KeyError:
        raise ValueError(
            f"unknown task {task!r}; expected one of {tuple(TASKS)}"
        ) from None


@contextmanager
def phase(stats: PipelineStats, observer, name: str):
    """Open one pipeline phase on both the stats timer and the observer."""
    with stats.timer.phase(name), observer.phase(name):
        yield


class MatrixRows:
    """The row source over an in-memory :class:`BinaryMatrix`.

    Scans follow :func:`repro.matrix.reorder.scan_order`; column
    removal restricts the matrix (ids preserved) and re-orders it.
    Build it inside the pre-scan phase: the scan order is pre-scan
    work.
    """

    def __init__(
        self, matrix: BinaryMatrix, options: PruningOptions, observer
    ) -> None:
        self.matrix = matrix
        self.options = options
        self.observer = observer
        self.order = scan_order(matrix, sparsest_first=options.row_reordering)

    def restrict(self, keep: Sequence[int], ones) -> Sequence[int]:
        """Drop every column outside ``keep``; return the new ``ones``
        (recounted from the restricted matrix, so ``ones`` is unused)."""
        self.matrix = self.matrix.restrict_columns(keep)
        self.order = scan_order(
            self.matrix, sparsest_first=self.options.row_reordering
        )
        return self.matrix.column_ones()

    def scan(
        self,
        policy: PairPolicy,
        stats: ScanStats,
        rules: RuleSet,
        zero_miss: bool = False,
    ) -> None:
        """One scan of every row under ``policy``, appending to ``rules``."""
        scan = zero_miss_scan if zero_miss else second_pass_scan(self.options)
        scan(
            self.matrix,
            policy,
            order=self.order,
            stats=stats,
            bitmap=self.options.bitmap,
            rules=rules,
            guard=self.options.memory_guard,
            observer=self.observer,
        )


def run_passes(
    rows,
    ones: Sequence[int],
    task: str,
    threshold: Fraction,
    options: PruningOptions,
    stats: PipelineStats,
    observer,
) -> RuleSet:
    """Run the passes after the pre-scan over the row source ``rows``.

    ``ones`` are the pre-scan's column counts.  With
    ``options.hundred_percent_pass`` the sequence is ``100%-rules`` →
    column removal → ``<100%-rules`` (skipped at threshold 1);
    without it, one ``combined`` scan under the <100% policy.  Fills
    ``stats.columns_total``, ``rules_hundred_percent``,
    ``columns_removed`` and ``rules_partial``.
    """
    spec = mining_task(task)
    stats.columns_total = len(ones)
    rules = RuleSet()

    if not options.hundred_percent_pass:
        # Ablation: one combined pass over every column.
        with phase(stats, observer, "combined"):
            policy = spec.partial_policy(ones, threshold, options)
            rows.scan(policy, stats.partial_scan, rules)
        stats.rules_partial = len(rules)
        return rules

    with phase(stats, observer, "100%-rules"):
        rows.scan(
            spec.zero_miss_policy(ones), stats.hundred_percent_scan, rules,
            zero_miss=True,
        )
        stats.rules_hundred_percent = len(rules)

    if threshold == 1:
        return rules

    with phase(stats, observer, "<100%-rules"):
        cutoff = spec.removal_cutoff(threshold)
        keep = [c for c in range(len(ones)) if ones[c] > cutoff]
        stats.columns_removed = len(ones) - len(keep)
        restricted = rows.restrict(keep, ones)
        policy = spec.partial_policy(restricted, threshold, options)
        rows.scan(policy, stats.partial_scan, rules)
        stats.rules_partial = len(rules) - stats.rules_hundred_percent

    return rules


def mine_matrix(
    matrix: BinaryMatrix,
    task: str,
    threshold,
    options: Optional[PruningOptions] = None,
    stats: Optional[PipelineStats] = None,
    observer=None,
) -> RuleSet:
    """Mine every ``task`` rule at ``threshold`` from an in-memory matrix.

    The result is exact: no false positives, no false negatives
    (within the paper's canonical-direction convention, Section 2).
    ``observer`` (a :class:`repro.observe.RunObserver` or any
    :class:`repro.observe.ProgressObserver`) watches phases, rows and
    the bitmap switch; it never changes the mined rules.
    """
    mining_task(task)
    threshold = as_fraction(threshold)
    if options is None:
        options = PruningOptions()
    if stats is None:
        stats = PipelineStats()
    if observer is None:
        observer = NULL_OBSERVER

    with phase(stats, observer, "pre-scan"):
        ones = matrix.column_ones()
        rows = MatrixRows(matrix, options, observer)
    return run_passes(rows, ones, task, threshold, options, stats, observer)
