"""Shared pieces of the benchmark: paths, spans, witnesses, reporting.

Everything here runs outside the program under test.  Spans are
recorded by the benchmark around its own calls into each layer of
``repro``; nothing inside the program is instrumented.
"""

from __future__ import annotations

import ctypes
import dataclasses
import gc
import hashlib
import json
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List

#: The checkout the benchmark runs in (the directory above this one).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The program's sources inside the checkout.
SRC = os.path.join(ROOT, "src")

#: Scratch space for generated inputs and service state, inside the
#: checkout (ignored by git).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Bytes per reported megabyte.
MB = 1_000_000


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``repro`` sources."""


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ProgramMissing(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    origin = os.path.realpath(os.path.dirname(repro.__file__))
    if origin != os.path.realpath(os.path.join(SRC, "repro")):
        raise ProgramMissing(f"repro imported from {origin}, not {SRC}")
    return repro


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class SpanRecorder:
    """Seconds spent in named spans around layer calls;
    ``enabled=False`` records nothing.  Safe to use from several
    threads."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._seconds: Dict[str, List[float]] = {}
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - started
            with self._lock:
                self._seconds.setdefault(name, []).append(took)

    def seconds(self, name: str) -> List[float]:
        return list(self._seconds.get(name, ()))

    def median(self, name: str) -> float:
        return statistics.median(self.seconds(name))

    def total(self, name: str) -> float:
        return sum(self.seconds(name))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

#: Seed of the stand-in generators.  The stand-ins' size and rule count
#: swing widely from one generator seed to the next (Wlog x3 spans
#: 2.2-3.9 s of implication mining over five seeds), so each workload is
#: one fixed stand-in and the run's seed relabels it instead.
GENERATOR_SEED = 0


def build_instance(dataset: str, scale: float, seed: int):
    """The stand-in ``dataset`` at ``scale``, relabelled by ``seed``."""
    from repro.datasets.registry import DATASETS

    return relabel(DATASETS[dataset].build(scale, GENERATOR_SEED), seed)


def relabel(matrix, seed: int):
    """``matrix`` with its columns renumbered by ``seed``: the same
    matrix up to relabelling, so the same rules and the same amount of
    work.  The rows keep their order: rows of equal density are scanned
    in input order, and shuffling them moved the Wlog x2 scans' work by
    up to 18% (candidate pairs added) from seed to seed."""
    import random

    from repro.matrix.binary_matrix import BinaryMatrix, Vocabulary

    rng = random.Random(seed)
    new_id = list(range(matrix.n_columns))
    rng.shuffle(new_id)
    rows = [[new_id[c] for c in row] for _, row in matrix.iter_rows()]
    vocabulary = None
    if matrix.vocabulary is not None:
        labels = [""] * matrix.n_columns
        for old, new in enumerate(new_id):
            labels[new] = matrix.vocabulary.label_of(old)
        vocabulary = Vocabulary(labels)
    return BinaryMatrix(rows, n_columns=matrix.n_columns,
                        vocabulary=vocabulary)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: Iterations of the probe loop, and the seconds it takes on the host
#: the benchmark was tuned on (2 vCPUs, Python 3.11) at full speed.
PROBE_ITERATIONS = 20_000
PROBE_REFERENCE_S = 0.0011

#: Probes taken right before, and again right after, each timed call.
PROBES_PER_SIDE = 5


def cpu_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - started


@dataclasses.dataclass
class Timing:
    """One timed call: its seconds as timed and the host's speed
    around it."""

    seconds: float = 0.0
    #: Seconds at the reference speed per second as timed.
    factor: float = 1.0

    @property
    def scaled(self) -> float:
        """The call's seconds at the reference CPU speed."""
        return self.seconds * self.factor


@contextmanager
def timed():
    """Time the block; probe the CPU speed just before and just after
    it, never while it runs, so the call under test competes with
    nothing the benchmark does.

    The tuning host's CPU runs up to 1.5x slower in phases of a second
    or more, which the program neither causes nor can avoid; the
    probes around a call give the speed it most likely ran at.
    """
    timing = Timing()
    probes = [cpu_probe() for _ in range(PROBES_PER_SIDE)]
    started = time.perf_counter()
    yield timing
    timing.seconds = time.perf_counter() - started
    probes += [cpu_probe() for _ in range(PROBES_PER_SIDE)]
    timing.factor = PROBE_REFERENCE_S / statistics.median(probes)


# ----------------------------------------------------------------------
# Witnesses
# ----------------------------------------------------------------------


def rules_digest(rules: Iterable) -> str:
    """SHA-256 over the rules sorted by pair, each with its statistics."""
    digest = hashlib.sha256()
    for rule in sorted(rules, key=lambda r: r.pair):
        digest.update(repr(dataclasses.astuple(rule)).encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def document_digest(document: dict) -> str:
    """SHA-256 of the rule records of a result document."""
    text = json.dumps(document["rules"], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------


def _status_kb(pid, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def rss_bytes(pid="self") -> int:
    """Current resident set size of a process."""
    return _status_kb(pid, "VmRSS") * 1024


def peak_rss_bytes(pid="self") -> int:
    """Peak resident set size of a process since start or last reset."""
    return _status_kb(pid, "VmHWM") * 1024


def reset_peak_rss() -> int:
    """Collect garbage, hand free heap pages back to the system,
    restart this process's peak-RSS count at the current RSS and
    return that RSS (the baseline)."""
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")
    return rss_bytes()


# ----------------------------------------------------------------------
# Statistics and reporting
# ----------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Report:
    """Operation counts, witness results and metrics of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.metrics: Dict[str, dict] = {}
        self.notes: List[str] = []

    def operation(self, ok: bool, why: str = "") -> None:
        """Count one attempted operation that raised or was refused
        when not ``ok``; a failure makes the run incorrect, since every
        workload is chosen so that no operation fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            self.notes.append(f"failed: {why}")

    def witness(self, ok: bool, why: str = "") -> None:
        """Count one operation whose result was compared with its
        oracle; a mismatch is a failure and makes the run incorrect."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            self.notes.append(f"wrong result: {why}")

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def emit(self, wanted: Iterable[str]) -> None:
        """Print a readable table, then the result line with the
        ``wanted`` metrics only."""
        for note in self.notes:
            print(note)
        for name, metric in sorted(self.metrics.items()):
            print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
        wanted = list(wanted)
        missing = [name for name in wanted if name not in self.metrics]
        if missing and self.correct:
            raise KeyError(f"metrics not measured: {missing}")
        # A failed operation can leave a metric without samples; the
        # result then reports the failure with what was measured.
        result = {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: self.metrics[name] for name in wanted
                        if name in self.metrics},
        }
        print(json.dumps(result), flush=True)
