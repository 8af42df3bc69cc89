"""Resource guards: memory watchdog, disk preflight, I/O retry policy.

Three failure modes threaten a long scan in production:

- the counter array outgrowing memory — the paper's own DMC-bitmap
  switch (Section 4.4) only fires near the *end* of a scan, so an
  adversarial row order can still OOM mid-scan;
- transient I/O errors on the spill-bucket files (network filesystems,
  overloaded disks) aborting pass 2 outright; and
- the disk filling up mid-pass — which is *not* transient: retrying an
  ``ENOSPC`` just burns the backoff budget before dying anyway.

:class:`MemoryGuard` watches the candidate array's modelled bytes on
every row of a scan and reacts when a hard budget is exceeded: either
force the DMC-bitmap tail immediately (``action="bitmap"`` — graceful
degradation, exactness preserved because the tail is position
independent) or raise :class:`MemoryBudgetExceeded`
(``action="raise"``) so the caller can fall back to the partitioned
algorithm.  :func:`mine_with_memory_budget` packages the fallback.

:func:`retry_io` retries a transient-failure-prone operation with
exponential backoff — but classifies errnos first: ``ENOSPC`` /
``EDQUOT`` / ``EROFS`` are terminal for the storage path and surface
immediately as a typed :class:`~repro.runtime.storage.StorageFull`,
while ``EIO`` / ``EAGAIN`` / other ``OSError``\\ s stay retryable.

:func:`ensure_disk_space` is the preflight half of the same idea: check
``disk_usage`` against the estimated spill footprint *before* pass 1,
so a run that cannot fit degrades early instead of dying mid-pass.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional, Tuple

from repro.runtime.storage import (
    LOCAL_STORAGE,
    StorageFull,
    terminal_io_error,
)

#: Exception types retried by :func:`retry_io` by default.
TRANSIENT_ERRORS = (OSError,)

#: Safety factor applied to spill-footprint estimates by
#: :func:`ensure_disk_space` — bucket files carry the same tokens as
#: the input but the estimate is approximate, and filling a disk to the
#: last byte hurts every other tenant of the filesystem.
DISK_HEADROOM = 1.25


class MemoryBudgetExceeded(MemoryError):
    """The counter array grew past a :class:`MemoryGuard`'s hard budget."""


def backoff_delay(attempt: int, base_delay: float) -> float:
    """The exponential-backoff sleep before retry ``attempt`` (0-based).

    One schedule shared by every retry loop in the runtime —
    :func:`retry_io` for spill/checkpoint I/O and the job scheduler of
    :mod:`repro.service` for worker-pool failures — so their latency
    behavior is documented in one place: ``base_delay * 2**attempt``.
    """
    return base_delay * (2 ** attempt)


class MemoryGuard:
    """A watchdog over the candidate (counter) array's modelled memory.

    Parameters
    ----------
    budget_bytes:
        Hard budget on :meth:`repro.core.candidates.CandidateArray.
        memory_bytes`.
    action:
        ``"bitmap"`` — ask the scan to hand over to the DMC-bitmap tail
        at the current row (the scan finishes within the tail's packed
        representation instead of growing further);
        ``"raise"`` — raise :class:`MemoryBudgetExceeded`.

    The same instance may guard several scans of one pipeline; it
    records the high-water mark it observed, the row index of the first
    trip and the total number of trips.
    """

    def __init__(self, budget_bytes: int, action: str = "bitmap") -> None:
        if action not in ("bitmap", "raise"):
            raise ValueError(
                f"unknown guard action {action!r}; use 'bitmap' or 'raise'"
            )
        if budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        self.budget_bytes = budget_bytes
        self.action = action
        self.high_water_bytes = 0
        self.tripped_at: Optional[int] = None
        self.trips = 0

    def observe(self, memory_bytes: int) -> None:
        """Record a memory sample (suitable as a CandidateArray
        ``on_memory`` listener — catches spikes between row boundaries)."""
        if memory_bytes > self.high_water_bytes:
            self.high_water_bytes = memory_bytes

    def tripping(self, memory_bytes: int, position: int) -> Optional[str]:
        """Check the budget at a row boundary.

        Returns ``None`` (within budget) or ``"bitmap"`` (degrade now);
        raises :class:`MemoryBudgetExceeded` when ``action="raise"``.
        """
        self.observe(memory_bytes)
        if memory_bytes <= self.budget_bytes:
            return None
        self.trips += 1
        if self.tripped_at is None:
            self.tripped_at = position
        if self.action == "raise":
            raise MemoryBudgetExceeded(
                f"counter array at {memory_bytes} bytes exceeds the "
                f"{self.budget_bytes}-byte budget at scan row {position}"
            )
        return "bitmap"

    def __repr__(self) -> str:
        return (
            f"MemoryGuard(budget={self.budget_bytes}, "
            f"action={self.action!r}, trips={self.trips})"
        )


def retry_io(
    operation: Callable,
    attempts: int = 3,
    base_delay: float = 0.01,
    retry_on: Tuple[type, ...] = TRANSIENT_ERRORS,
    on_retry: Optional[Callable[[BaseException], None]] = None,
    on_giveup: Optional[Callable[[BaseException], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
):
    """Run ``operation`` with exponential backoff on *transient* errors.

    Retries only exceptions matching ``retry_on`` (``OSError`` by
    default — a :class:`repro.runtime.faults.SimulatedCrash` is *not*
    an ``OSError`` and always propagates immediately), and only when
    the errno is curable: a terminal errno (``ENOSPC`` / ``EDQUOT`` /
    ``EROFS``, see :func:`repro.runtime.storage.terminal_io_error`) is
    re-raised immediately as :class:`~repro.runtime.storage.
    StorageFull` so the caller degrades instead of backing off against
    a disk that will still be full afterwards.

    ``on_retry`` is invoked with the error before each backoff sleep;
    ``on_giveup`` with the error that is about to propagate (terminal
    or retries exhausted) — both let callers count errors into their
    stats and metrics.
    """
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    for attempt in range(attempts):
        try:
            return operation()
        except retry_on as error:
            if terminal_io_error(error):
                if on_giveup is not None:
                    on_giveup(error)
                if isinstance(error, StorageFull):
                    raise
                raise StorageFull(
                    getattr(error, "errno", None),
                    f"terminal storage fault (not retried): {error}",
                ) from error
            if attempt == attempts - 1:
                if on_giveup is not None:
                    on_giveup(error)
                raise
            if on_retry is not None:
                on_retry(error)
            sleep(backoff_delay(attempt, base_delay))


def estimate_spill_bytes(source=None, matrix=None) -> Optional[int]:
    """Estimate the spill-bucket footprint of a pass-1 scan, in bytes.

    - A file-backed source spills the same tokens its file carries, so
      the file's size is the estimate.
    - An in-memory matrix (or a :class:`~repro.matrix.stream.
      MatrixSource`) spills one decimal token plus a separator per set
      bit; eight bytes per ``nnz`` covers column ids into the tens of
      millions.
    - Anything else is unknowable without scanning: returns ``None``
      (the preflight is skipped rather than guessed).
    """
    if matrix is None and source is not None:
        matrix = getattr(source, "_matrix", None)
    if matrix is not None:
        nnz = getattr(matrix, "nnz", None)
        if nnz is not None:
            return int(nnz) * 8
    path = getattr(source, "path", None)
    if isinstance(path, str):
        try:
            return os.path.getsize(path)
        except OSError:
            return None
    return None


def ensure_disk_space(
    directory: str,
    required_bytes: Optional[int],
    storage=None,
    headroom: float = DISK_HEADROOM,
) -> int:
    """Preflight guard: fail *now* if ``directory`` cannot fit a spill.

    Checks the filesystem's free bytes against ``required_bytes *
    headroom`` and raises :class:`~repro.runtime.storage.StorageFull`
    when they do not fit — the caller degrades to an in-memory or
    partitioned engine before pass 1 writes a single bucket, instead of
    dying (or degrading with work wasted) mid-pass.  ``required_bytes=
    None`` (unknown footprint) passes trivially.  Returns the free
    bytes observed.
    """
    storage = storage if storage is not None else LOCAL_STORAGE
    probe = directory
    while probe and not os.path.isdir(probe):
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    try:
        free = storage.disk_usage(probe or os.curdir).free
    except OSError:
        return -1  # unknowable filesystem: do not block the run
    if required_bytes is not None and free < required_bytes * headroom:
        raise StorageFull(
            None,
            f"preflight: {directory} has {free} bytes free but the "
            f"spill needs ~{int(required_bytes * headroom)} "
            f"(estimate {required_bytes} x {headroom:.2f} headroom)",
        )
    return free


def mine_with_memory_budget(
    matrix,
    threshold,
    kind: str = "implication",
    budget_bytes: int = 50 * 2 ** 20,
    n_partitions: int = 4,
    n_workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    task_retries: int = 2,
    ledger_dir: Optional[str] = None,
    storage=None,
    stats=None,
    observer=None,
    options=None,
):
    """Mine with a hard memory budget, degrading to partitioned mining.

    Runs the standard DMC pipeline under a ``action="raise"``
    :class:`MemoryGuard`; if the counter array would exceed
    ``budget_bytes``, the run is abandoned and redone with the
    divide-and-conquer algorithm of :mod:`repro.core.partitioned`,
    whose working set is bounded by the partition size.  Both paths
    produce the exact rule set.

    ``stats`` (a :class:`repro.core.stats.PipelineStats`) and
    ``observer`` (a :class:`repro.observe.ProgressObserver`) follow
    whichever engine actually completes; on fallback the stats are
    reset so they describe the partitioned run only, and the observer
    records the attempt as a ``dmc-attempt`` span alongside the
    fallback's phases.  ``task_timeout`` / ``task_retries`` /
    ``ledger_dir`` tune the supervised runtime of the fallback (see
    :func:`repro.core.partitioned.find_rules_partitioned`).
    ``options`` (a :class:`~repro.core.dmc_imp.PruningOptions`) seeds
    the DMC attempt — its ``memory_guard`` is replaced by this budget's
    guard, and its ``scan_engine`` / ``vector_block_rows`` carry over
    to the partitioned fallback.

    Returns ``(rules, engine)`` where ``engine`` is ``"dmc"`` or
    ``"partitioned"``.
    """
    from dataclasses import replace

    from repro.core.partitioned import find_rules_partitioned
    from repro.core.pipeline import PruningOptions, mine_matrix
    from repro.observe.progress import NULL_OBSERVER

    if observer is None:
        observer = NULL_OBSERVER
    guard = MemoryGuard(budget_bytes, action="raise")
    if options is None:
        options = PruningOptions()
    options = replace(options, memory_guard=guard)
    try:
        with observer.span("dmc-attempt", budget_bytes=budget_bytes):
            rules = mine_matrix(
                matrix, kind, threshold, options, stats, observer
            )
        return rules, "dmc"
    except MemoryBudgetExceeded:
        pass
    if stats is not None:
        # The aborted attempt's numbers would double-count; report the
        # partitioned run only (the guard keeps the attempt's high water).
        stats.__init__()
    with observer.span(
        "partitioned-fallback", budget_exceeded=True,
        tripped_at=guard.tripped_at,
    ):
        rules = find_rules_partitioned(
            matrix, kind, threshold, n_partitions=n_partitions,
            n_workers=n_workers, task_timeout=task_timeout,
            task_retries=task_retries, ledger_dir=ledger_dir,
            storage=storage, stats=stats, observer=observer,
            scan_engine=options.scan_engine,
            vector_block_rows=options.vector_block_rows,
        )
    return rules, "partitioned"
