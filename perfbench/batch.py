"""Batch workloads: rule-producing ``repro.mine()`` runs on the Table-1
stand-ins, implication then similarity, in memory.

Untraced run (end-to-end metrics): set the workload up several times
and report the median set-up, then mine both tasks in rounds until the
run's seconds are used, each mine on a fresh copy of the matrix so
every timed mine pays the per-matrix caches a user mining once pays.
A task's time is the median of its rounds, each scaled to the
reference CPU speed (see ``common.timed``): the host's CPU speed swings
by up to 1.5x in phases of a second or more.  Peak
memory is the process's peak RSS during the mine calls above
the post-setup baseline.  Every mine's rule digest is checked
afterwards against the brute-force oracle.

Traced run (per-layer metrics): one untraced mine per task for the
digest and the overhead base, then the same pipeline rebuilt from the
layers' public calls with a span around each, its digest required to
equal the untraced mine's; then the export, the references (serial
DMC and the sparse ``AᵀA`` floor) and the oracle.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from common import (
    MB,
    Report,
    SpanRecorder,
    build_instance,
    cpu_probe,
    import_program,
    peak_rss_bytes,
    reset_peak_rss,
    rules_digest,
    timed,
)


@dataclass(frozen=True)
class BatchWorkload:
    """One in-memory workload: a registry stand-in at a scale."""

    name: str
    dataset: str
    scale: float
    minconf: Fraction = Fraction(4, 5)
    minsim: Fraction = Fraction(1, 2)

    def tasks(self):
        """``(prefix, task, threshold)`` in the order they are mined."""
        return (
            ("imp", "implication", self.minconf),
            ("sim", "similarity", self.minsim),
        )


BATCH_WORKLOADS = {
    w.name: w
    for w in (
        BatchWorkload("wlog-dense", "Wlog", 2),
        BatchWorkload("news-sparse", "News", 2),
    )
}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def fresh_copy(matrix):
    """The same matrix as a new object, its lazy caches empty."""
    from repro.matrix.binary_matrix import BinaryMatrix

    return BinaryMatrix(
        (row for _, row in matrix.iter_rows()),
        n_columns=matrix.n_columns,
        vocabulary=matrix.vocabulary,
    )


def warm_up(repro, matrix, workload) -> None:
    """Mine both tasks once on the first rows, so the modules the
    pipeline imports on first use are loaded before anything is timed."""
    from repro.matrix.binary_matrix import BinaryMatrix

    head = BinaryMatrix(
        (row for row_id, row in matrix.iter_rows() if row_id < 100),
        n_columns=matrix.n_columns,
    )
    for _, task, threshold in workload.tasks():
        repro.mine(head, task=task, threshold=threshold)


def oracle_rules(matrix, task, threshold):
    from repro.baselines.bruteforce import (
        implication_rules_bruteforce,
        similarity_rules_bruteforce,
    )

    if task == "implication":
        return implication_rules_bruteforce(matrix, threshold)
    return similarity_rules_bruteforce(matrix, threshold)


def run_batch(
    workload: BatchWorkload,
    seed: int,
    seconds: float,
    trace: bool,
    tamper: Optional[Callable] = None,
) -> Report:
    """Run one batch workload; ``tamper`` (self-tests only) rewrites
    each mined rule set before its witness is taken."""
    repro = import_program()
    report = Report()
    if trace:
        _traced(repro, workload, seed, report, tamper)
        return report

    setups = []
    for _ in range(SETUP_REPEATS):
        with timed() as timing:
            matrix = build_instance(workload.dataset, workload.scale, seed)
        setups.append(timing.scaled)
    report.put("setup_s", statistics.median(setups), "s")

    warm_up(repro, matrix, workload)
    baseline = reset_peak_rss()
    peaks = []
    mined = {prefix: [] for prefix, _, _ in workload.tasks()}
    started = time.perf_counter()
    while True:
        for prefix, task, threshold in workload.tasks():
            fresh = fresh_copy(matrix)
            reset_peak_rss()
            try:
                with timed() as timing:
                    result = repro.mine(fresh, task=task,
                                        threshold=threshold)
            except Exception as error:  # every failure is counted
                report.operation(False, f"{prefix} mine: {error!r}")
                continue
            peaks.append(peak_rss_bytes() - baseline)
            rules = result.rules if tamper is None else tamper(result.rules)
            mined[prefix].append((timing, rules_digest(rules), len(rules)))
            del result, rules, fresh
        if time.perf_counter() - started >= seconds:
            break

    for prefix, task, threshold in workload.tasks():
        expected = oracle_rules(matrix, task, threshold)
        digest = rules_digest(expected)
        for _, got, count in mined[prefix]:
            report.witness(
                got == digest,
                f"{prefix}: {count} rules, oracle has {len(expected)}",
            )
        if mined[prefix]:
            timings = [m[0] for m in mined[prefix]]
            report.put(f"{prefix}_mine_s",
                       statistics.median(t.scaled for t in timings), "s")
            report.notes.append(
                f"{prefix}_mine_s samples (reference speed / as timed): "
                + " ".join(f"{t.scaled:.4f}/{t.seconds:.4f}"
                           for t in timings)
            )
    if peaks:
        report.put("peak_mb", max(peaks) / MB, "MB")
    report.notes.append(
        "peak_mb samples: " + " ".join(f"{p / MB:.1f}" for p in peaks)
    )
    report.put("error_rate", report.error_rate, "ratio")
    return report


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def compose(matrix, task, threshold, spans, prefix, trace_memory=False):
    """The in-memory pipeline rebuilt from its layers' public calls.

    Mirrors ``find_implication_rules`` / ``find_similarity_rules`` with
    the options ``resolve_engine()`` picks for a default ``mine()``.
    Besides the rules, returns the counts the traced run reports and
    how far the process's peak RSS rose during the <100% scan; with
    ``trace_memory``, also the peak of the allocations tracemalloc
    traced during that scan (which slows the scan several times over).
    """
    from repro.api import MiningConfig, resolve_engine
    from repro.core.dmc_imp import second_pass_scan
    from repro.core.miss_counting import zero_miss_scan
    from repro.core.policies import (
        HundredPercentPolicy,
        IdentityPolicy,
        ImplicationPolicy,
        SimilarityPolicy,
    )
    from repro.core.rules import RuleSet
    from repro.core.stats import ScanStats
    from repro.core.thresholds import (
        confidence_removal_cutoff,
        similarity_removal_cutoff,
    )
    from repro.matrix.reorder import scan_order

    implication = task == "implication"
    _, options = resolve_engine(
        MiningConfig(task=task, threshold=threshold), streaming=False
    )
    with spans.span(f"{prefix}.matrix.prescan"):
        ones = matrix.column_ones()
        order = scan_order(matrix, sparsest_first=options.row_reordering)

    rules = RuleSet()
    full_policy = (
        HundredPercentPolicy(ones) if implication else IdentityPolicy(ones)
    )
    with spans.span(f"{prefix}.core.full"):
        zero_miss_scan(
            matrix,
            full_policy,
            order=order,
            bitmap=options.bitmap,
            rules=rules,
            guard=options.memory_guard,
        )
    full_rules = len(rules)

    with spans.span(f"{prefix}.matrix.restrict"):
        cutoff = (
            confidence_removal_cutoff(threshold)
            if implication
            else similarity_removal_cutoff(threshold)
        )
        keep = [c for c in range(matrix.n_columns) if ones[c] > cutoff]
        restricted = matrix.restrict_columns(keep)
        restricted_order = scan_order(
            restricted, sparsest_first=options.row_reordering
        )

    scan = second_pass_scan(options)
    scan_stats = ScanStats()
    policy = (
        ImplicationPolicy(restricted.column_ones(), threshold)
        if implication
        else SimilarityPolicy(
            restricted.column_ones(),
            threshold,
            use_density_pruning=options.density_pruning,
            use_max_hits_pruning=options.max_hits_pruning,
        )
    )
    before = reset_peak_rss()
    if trace_memory:
        tracemalloc.start()
    with spans.span(f"{prefix}.core.scan"):
        scan(
            restricted,
            policy,
            order=restricted_order,
            stats=scan_stats,
            bitmap=options.bitmap,
            rules=rules,
            guard=options.memory_guard,
        )
    scan_peak = peak_rss_bytes() - before
    traced_peak = None
    if trace_memory:
        traced_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    return {
        "rules": rules,
        "full_rules": full_rules,
        "columns_removed": matrix.n_columns - len(keep),
        "scan_stats": scan_stats,
        "scan_peak": scan_peak,
        "traced_peak": traced_peak,
    }


def sparse_floor(matrix, task, threshold):
    """Rule count from a scipy ``AᵀA`` product and an integer threshold
    test, plus the seconds the product and test took (the CSR
    conversion is not timed)."""
    import numpy as np

    csr = matrix.to_csr()
    started = time.perf_counter()
    product = (csr.T @ csr).tocoo()
    ones = np.asarray(csr.sum(axis=0)).ravel()
    upper = product.row < product.col
    i, j = product.row[upper], product.col[upper]
    inter = product.data[upper]
    p, q = threshold.numerator, threshold.denominator
    if task == "implication":
        holds = q * inter >= p * np.minimum(ones[i], ones[j])
    else:
        holds = q * inter >= p * (ones[i] + ones[j] - inter)
    count = int(np.count_nonzero(holds))
    return time.perf_counter() - started, count


def _traced(repro, workload, seed, report, tamper):
    probes = [cpu_probe() for _ in range(5)]
    spans = SpanRecorder()
    with spans.span("datasets.build"):
        matrix = build_instance(workload.dataset, workload.scale, seed)
    report.put("datasets.build_s", spans.total("datasets.build"), "s")
    warm_up(repro, matrix, workload)
    trace_tasks(repro, matrix, workload.tasks(), report, tamper)
    probes += [cpu_probe() for _ in range(5)]
    report.put("bench.cpu_probe_s", statistics.median(probes), "s")
    report.put("error_rate", report.error_rate, "ratio")


def trace_tasks(repro, matrix, tasks, report, tamper=None):
    """The per-layer metrics of each ``(prefix, task, threshold)`` mine
    of ``matrix``: an untraced ``repro.mine()`` for the digest and the
    overhead base, the same pipeline composed from its layers with a
    span around each (its digest must equal the mine's), the export,
    the references and the oracle."""
    from repro.mining.export import rules_to_json

    spans = SpanRecorder()
    for prefix, task, threshold in tasks:
        fresh = fresh_copy(matrix)
        begun = time.perf_counter()
        result = repro.mine(fresh, task=task, threshold=threshold)
        untraced = time.perf_counter() - begun
        mined = result.rules if tamper is None else tamper(result.rules)
        mine_digest = rules_digest(mined)
        engine = result.engine
        del result, mined, fresh

        fresh = fresh_copy(matrix)
        begun = time.perf_counter()
        composed = compose(fresh, task, threshold, spans, prefix)
        traced = time.perf_counter() - begun
        rules = composed["rules"]
        report.witness(
            rules_digest(rules) == mine_digest,
            f"{prefix}: traced composition disagrees with repro.mine()",
        )
        with spans.span(f"{prefix}.mining.export"):
            text = rules_to_json(rules, vocabulary=fresh.vocabulary)
        stats = composed["scan_stats"]

        def put(name, value, unit):
            report.put(f"{prefix}.{name}", value, unit)

        put("matrix.prescan_s", spans.total(f"{prefix}.matrix.prescan"), "s")
        put("matrix.restrict_s", spans.total(f"{prefix}.matrix.restrict"),
            "s")
        put("matrix.columns_removed", composed["columns_removed"], "count")
        put("core.full_s", spans.total(f"{prefix}.core.full"), "s")
        put("core.full_rules", composed["full_rules"], "count")
        put("core.scan_s", spans.total(f"{prefix}.core.scan"), "s")
        put("core.scan_rows", stats.rows_scanned, "count")
        put("core.candidates_added", stats.candidates_added, "count")
        put("core.deleted_budget", stats.candidates_deleted_budget, "count")
        put("core.deleted_dynamic", stats.candidates_deleted_dynamic,
            "count")
        put("core.rejected", stats.candidates_rejected, "count")
        put("core.rules", stats.rules_emitted, "count")
        put("core.yield",
            stats.rules_emitted / stats.candidates_added
            if stats.candidates_added else 0.0,
            "ratio")
        put("core.bitmap_switch_row",
            -1 if stats.bitmap_switch_at is None else stats.bitmap_switch_at,
            "row")
        put("core.counter_peak_bytes", stats.peak_bytes, "bytes")
        put("core.scan_peak_mb", composed["scan_peak"] / MB, "MB")
        traced_peak = compose(
            fresh_copy(matrix), task, threshold, SpanRecorder(False), prefix,
            trace_memory=True,
        )["traced_peak"]
        put("core.traced_peak_mb", traced_peak / MB, "MB")
        report.notes.append(
            f"{prefix} memory: counter model {stats.peak_bytes / MB:.1f} MB, "
            f"traced {traced_peak / MB:.1f} MB, "
            f"RSS rise during the scan {composed['scan_peak'] / MB:.1f} MB"
        )
        put("mining.export_s", spans.total(f"{prefix}.mining.export"), "s")
        put("mining.export_bytes", len(text.encode("utf-8")), "bytes")
        put("bench.trace_overhead", traced / untraced, "ratio")
        n_rules = len(rules)
        del composed, rules, text, stats

        if engine == "dmc":
            dmc_seconds = untraced
        else:
            begun = time.perf_counter()
            repro.mine(fresh_copy(matrix), task=task, threshold=threshold,
                       engine="dmc")
            dmc_seconds = time.perf_counter() - begun
        put("reference.dmc_s", dmc_seconds, "s")
        floor_seconds, floor_count = sparse_floor(matrix, task, threshold)
        put("reference.floor_s", floor_seconds, "s")
        put("reference.floor_ratio", untraced / floor_seconds, "ratio")

        expected = oracle_rules(matrix, task, threshold)
        report.witness(
            mine_digest == rules_digest(expected),
            f"{prefix}: repro.mine() disagrees with the brute-force oracle",
        )
        report.witness(
            floor_count == len(expected) == n_rules,
            f"{prefix}: floor counts {floor_count} rules, oracle "
            f"{len(expected)}, composition {n_rules}",
        )
