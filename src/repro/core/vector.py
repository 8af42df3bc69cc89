"""The vectorized second-pass engine: blocked, whole-array DMC.

This is the same machine as :func:`repro.core.miss_counting.
miss_counting_scan` — one miss-counting pass driven by a
:class:`~repro.core.policies.PairPolicy` — restructured from
row-at-a-time dict updates into numpy batch operations:

- rows are consumed in blocks of at most ``block_rows`` rows, each
  closed by the row that brings it to :data:`CHUNK_ENTRIES` column
  entries;
- per-pair block hits come from one sparse co-occurrence kernel: each
  row is ordered canonically (the paper's list order), every
  occurrence of a list-owning column is expanded into ``(owner,
  candidate)`` keys over the rest of its row, and the keys are reduced
  to hit counts — by ``bincount`` when the owners' dense key space is
  no larger than their entries, by sort + run-length otherwise.  The
  expansion runs owner group by owner group, each group capped by the
  same :data:`CHUNK_ENTRIES` budget, so the kernel's scratch is bounded
  by a constant (:data:`SCRATCH_BYTES`) whatever the block's density;
- live pairs sit in a :class:`~repro.core.candidates.PairStore`
  (parallel int32 owner/candidate/miss/budget arrays, sorted by owner
  then candidate); a group's live pairs are one contiguous slice of the
  store, and their block hits are a ``searchsorted`` into the group's
  touched pairs;
- new pairs meet the boundary sweep's budget and dynamic tests at
  admission, with post-block counts, so pairs the sweep would delete
  never enter the store, and pairs whose owner finishes in the block
  are emitted without entering it;
- a pruning sweep at each block boundary deletes, emits and compacts,
  slice by slice.

Exactness argument (why block granularity cannot change the rules):
``policy.make_rule`` applies the exact final validity test, so the
engine only has to (a) consider a *superset* of the serial engine's
valid pairs and (b) compute exact final miss counts for every pair it
emits.  A pair is admitted when it co-occurs in a block whose starting
``cnt(c_j)`` is at most the add cutoff — a superset of the serial
admission rule, which checks ``cnt(c_j)`` at the co-occurrence row.
Its initial miss count ``cnt_start(c_j)`` is exact when this is the
pair's first co-occurrence ever, and an *overstatement* only when the
pair was admitted and pruned in an earlier block — but pruning (budget
or dynamic) is sound, so such a pair is already invalid and the
overstated count only re-rejects it.  Every block update afterwards
adds the pair's exact block misses (``cnt_block(c_j) - hits_block``),
so valid pairs reach emission with exact counts and produce the same
rules, bit for bit, as the serial scan.  Pruning sweeps are therefore
pure optimization; rule-set parity is asserted by the test suite's
randomized harness.

``PipelineStats`` semantics are preserved at block granularity:
per-row histories are extended block-wise (``ScanStats.record_block``),
the pruning curve is sampled at every block boundary, the counter-array
peak includes the store's size between admission and the sweep, a
:class:`~repro.runtime.guards.MemoryGuard` is checked between blocks,
and the Section 4.4 bitmap switch hands the surviving pairs to the
Algorithm 4.1 tail exactly as the serial engine does.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitmap import bitmap_tail
from repro.core.candidates import PairStore
from repro.core.miss_counting import BitmapConfig
from repro.core.policies import PairPolicy
from repro.core.rules import RuleSet
from repro.core.stats import ScanStats
from repro.matrix.binary_matrix import BinaryMatrix
from repro.observe.progress import NULL_OBSERVER

#: Default rows per block.  Large enough that the per-block Python
#: overhead vanishes against the array work.
DEFAULT_BLOCK_ROWS = 1024

#: The one entry budget of the kernel: a block closes at the row that
#: brings it to this many column entries, one owner group expands at
#: most this many ``(owner, candidate)`` keys (unless a single owner's
#: rows hold more), and one sweep slice touches at most this many pairs.
CHUNK_ENTRIES = 1 << 14

#: Traced bytes a scan may hold beyond its rules and twice its peak
#: store arrays (a merge briefly holds the old and the new columns),
#: for rows shorter than :data:`CHUNK_ENTRIES`: a block holds fewer than
#: ``2 * CHUNK_ENTRIES`` entries, and so does one owner group's key
#: set.  Alive at once are about eight int64 arrays over the block's
#: entries and eight over the group's keys and touched pairs — 256
#: bytes per budget entry; a sweep slice's rule emission (three lists
#: of Python ints) stays below that.
SCRATCH_BYTES = 256 * CHUNK_ENTRIES


class _IterBlocks:
    """Block source over a ``(row_id, columns)`` iterator (streaming)."""

    def __init__(self, rows: Iterator[Tuple[int, Tuple[int, ...]]]) -> None:
        self._rows = iter(rows)

    def take(
        self, n: int
    ) -> Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]:
        block = []
        total = 0
        for _, row in self._rows:
            block.append(row)
            total += len(row)
            if len(block) == n or total >= CHUNK_ENTRIES:
                break
        if not block:
            return 0, None, None
        lengths = np.fromiter(map(len, block), dtype=np.int64,
                              count=len(block))
        cols = np.fromiter(
            (column for row in block for column in row),
            dtype=np.int64,
            count=total,
        )
        return len(block), lengths, cols

    def remaining_pairs(self) -> List[Tuple[int, Tuple[int, ...]]]:
        return list(self._rows)


class _FlatBlocks:
    """Block source slicing a matrix's cached CSR-style flat arrays."""

    def __init__(self, matrix: BinaryMatrix) -> None:
        self._matrix = matrix
        row_ids, lengths, cols, offsets = matrix.flat_rows()
        self._row_ids = row_ids
        self._lengths = lengths
        self._cols = cols
        self._offsets = offsets
        self._pos = 0
        self.n_rows = len(row_ids)

    def take(
        self, n: int
    ) -> Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]:
        lo = self._pos
        hi = min(lo + n, self.n_rows)
        if hi == lo:
            return 0, None, None
        # Like _IterBlocks: stop at the row that reaches CHUNK_ENTRIES.
        offsets = self._offsets
        full = int(np.searchsorted(
            offsets, offsets[lo] + CHUNK_ENTRIES, side="left"
        ))
        hi = min(hi, max(full, lo + 1))
        self._pos = hi
        return (
            hi - lo,
            self._lengths[lo:hi],
            self._cols[offsets[lo]:offsets[hi]],
        )

    def remaining_pairs(self) -> List[Tuple[int, Tuple[int, ...]]]:
        return [
            (row_id, self._matrix.row(row_id))
            for row_id in self._row_ids[self._pos:].tolist()
        ]


def vector_scan(
    matrix: BinaryMatrix,
    policy: PairPolicy,
    order: Optional[Sequence[int]] = None,
    stats: Optional[ScanStats] = None,
    bitmap: Optional[BitmapConfig] = None,
    rules: Optional[RuleSet] = None,
    guard=None,
    observer=None,
    block_rows: Optional[int] = None,
) -> RuleSet:
    """Run one vectorized DMC scan over an in-memory matrix.

    Drop-in replacement for :func:`repro.core.miss_counting.
    miss_counting_scan` — same parameters, same rule set, block-granular
    statistics.  ``block_rows`` tunes the batch size (default
    ``DEFAULT_BLOCK_ROWS``).
    """
    if len(policy.ones) != matrix.n_columns:
        raise ValueError(
            f"policy was built for {len(policy.ones)} columns but the "
            f"matrix has {matrix.n_columns}"
        )
    if order is None:
        # Natural order over the non-empty rows: slice the matrix's
        # cached flat arrays instead of iterating row tuples.
        source = _FlatBlocks(matrix)
        return _scan_blocks(
            source, source.n_rows, policy, stats=stats, bitmap=bitmap,
            rules=rules, guard=guard, observer=observer,
            block_rows=block_rows,
        )
    row_pairs = ((row_id, matrix.row(row_id)) for row_id in order)
    return vector_scan_rows(
        row_pairs, len(order), policy, stats=stats, bitmap=bitmap,
        rules=rules, guard=guard, observer=observer, block_rows=block_rows,
    )


def vector_scan_rows(
    rows: Iterator[Tuple[int, Tuple[int, ...]]],
    n_rows: int,
    policy: PairPolicy,
    stats: Optional[ScanStats] = None,
    bitmap: Optional[BitmapConfig] = None,
    rules: Optional[RuleSet] = None,
    guard=None,
    observer=None,
    block_rows: Optional[int] = None,
) -> RuleSet:
    """Streaming core of :func:`vector_scan` (see there).

    ``rows`` yields ``(row_id, column_ids)`` pairs exactly once in scan
    order, like :func:`repro.core.miss_counting.miss_counting_scan_rows`;
    the stream is consumed strictly sequentially, block by block, so
    spill-bucket replay and checkpoint resume work unchanged.
    """
    return _scan_blocks(
        _IterBlocks(rows), n_rows, policy, stats=stats, bitmap=bitmap,
        rules=rules, guard=guard, observer=observer, block_rows=block_rows,
    )


def _emit(policy, owners, cands, misses, rules, stats) -> None:
    """Validate finished pairs and add their rules to ``rules``."""
    valid = policy.valid_mask(owners, cands, misses)
    n_valid = int(np.count_nonzero(valid))
    stats.candidates_rejected += len(owners) - n_valid
    if not n_valid:
        return
    make_rule = policy.make_rule
    add = rules.add
    for owner, cand, miss in zip(
        owners[valid].tolist(), cands[valid].tolist(),
        misses[valid].tolist(),
    ):
        rule = make_rule(owner, cand, miss)
        if rule is not None:
            add(rule)
            stats.rules_emitted += 1
        else:  # pragma: no cover — valid_mask matches make_rule
            stats.candidates_rejected += 1


def _group_keys(ordered, entry, tails, slot, n) -> np.ndarray:
    """The keys ``slot * n + candidate`` of one owner group: for each
    owner entry ``entry[i]`` (its owner's group slot ``slot[i]``), one
    key per column in ``ordered[entry[i] + 1:entry[i] + 1 + tails[i]]``.
    Two buffers of the key count, whatever the group's shape."""
    nonempty = tails > 0
    entry, tails, slot = entry[nonempty], tails[nonempty], slot[nonempty]
    total = int(tails.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    starts = np.cumsum(tails) - tails
    # Ragged arange as a cumulative sum of ones with a jump at each run
    # start: run i covers entry[i] + 1 .. entry[i] + tails[i].
    index = np.ones(total, dtype=np.int64)
    index[starts] = entry + 1
    index[starts[1:]] -= entry[:-1] + tails[:-1]
    np.cumsum(index, out=index)
    keys = ordered[index]
    # Reuse the buffer for the piecewise-constant owner term.
    index.fill(0)
    index[starts] = slot * n
    index[starts[1:]] -= slot[:-1] * n
    np.cumsum(index, out=index)
    keys += index
    return keys


class _Kernel:
    """The per-scan state of the co-occurrence kernel."""

    def __init__(self, policy: PairPolicy) -> None:
        self.policy = policy
        self.ones = policy.ones_array()
        self.n_columns = len(self.ones)
        self.cutoff = policy.add_cutoff_array()
        # The paper's canonical list order (ones, then id): every
        # eligible pair's candidate follows its owner in it.
        self.by_rank = np.argsort(self.ones, kind="stable")
        self.rank = np.empty(self.n_columns, dtype=np.int64)
        self.rank[self.by_rank] = np.arange(self.n_columns)
        self.count = np.zeros(self.n_columns, dtype=np.int64)
        self.store = PairStore()

    def block(self, lengths, cols, stats: ScanStats, rules: RuleSet) -> int:
        """Fold one block into the counts and the store; returns the
        block's recorded misses."""
        n = self.n_columns
        count = self.count
        store = self.store
        counts_block = np.bincount(cols, minlength=n)
        after = count + counts_block
        selected = counts_block > 0
        open_ = count <= self.cutoff
        if len(store):
            live_owner = np.zeros(n, dtype=bool)
            live_owner[store.owners] = True
            selected &= open_ | live_owner
            del live_owner
        else:
            selected &= open_

        # Order every row canonically; the candidates of the owner at
        # entry ``i`` are then the rest of its row, ``tails[i]`` entries.
        ends = np.cumsum(lengths)
        row_of = np.repeat(np.arange(len(lengths)), lengths)
        keyed = row_of * n + self.rank[cols]
        del row_of
        keyed.sort()
        ordered = self.by_rank[keyed % n]
        del keyed
        entry = np.flatnonzero(selected[ordered])
        if not len(entry):
            self.count = after
            return 0
        tails = np.repeat(ends, lengths)[entry] - entry - 1
        group_owner = ordered[entry]
        by_owner = np.argsort(group_owner, kind="stable")
        entry = entry[by_owner]
        tails = tails[by_owner]
        group_owner = group_owner[by_owner]
        first = np.concatenate(([True], group_owner[1:] != group_owner[:-1]))
        starts = np.flatnonzero(first)
        owners = group_owner[starts]
        slot = np.cumsum(first) - 1
        del group_owner, first
        reach = np.cumsum(np.add.reduceat(tails, starts))
        starts = np.append(starts, len(entry))

        misses_seen = 0
        admitted = []
        lo = 0
        covered = 0
        while lo < len(owners):
            hi = max(
                lo + 1,
                int(np.searchsorted(reach, covered + CHUNK_ENTRIES,
                                    side="right")),
            )
            misses_seen += self._group(
                owners[lo:hi], ordered,
                entry[starts[lo]:starts[hi]],
                tails[starts[lo]:starts[hi]],
                slot[starts[lo]:starts[hi]] - lo,
                counts_block, after, open_, admitted, stats, rules,
            )
            covered = int(reach[hi - 1])
            lo = hi
        del ordered, entry, tails, slot
        if admitted:
            # One merge per block; each column's batches are freed as
            # soon as they are joined.
            parts = list(zip(*admitted))
            admitted.clear()
            columns = []
            while parts:
                columns.append(np.concatenate(parts.pop(0)))
            store.append(*columns)
            del columns
            stats.peak_entries = max(stats.peak_entries, len(store))
            stats.peak_bytes = max(stats.peak_bytes, store.memory_bytes())
        self.count = after
        return misses_seen

    def _group(
        self, owners, ordered, entry, tails, slot, counts_block, after,
        open_, admitted, stats, rules,
    ) -> int:
        """One owner group: reduce its keys, update its live pairs and
        admit its new pairs; returns the misses it recorded."""
        n = self.n_columns
        policy = self.policy
        store = self.store
        keys = _group_keys(ordered, entry, tails, slot, n)
        total = len(keys)
        if not total:
            touched = hits = keys
        elif len(owners) * n <= total:
            co = np.bincount(keys, minlength=len(owners) * n)
            del keys
            touched = np.flatnonzero(co)
            hits = co[touched]
            del co
        else:
            keys.sort()
            runs = np.empty(total, dtype=bool)
            runs[0] = True
            np.not_equal(keys[1:], keys[:-1], out=runs[1:])
            runs = np.flatnonzero(runs)
            touched = keys[runs]
            del keys
            hits = np.diff(runs, append=total)
            del runs
        pair_cands = touched % n
        touched //= n
        pair_owners = owners[touched]
        # Touched keys over global ids, ascending like the store.
        np.multiply(pair_owners, n, out=touched)
        touched += pair_cands
        misses_seen = 0

        # -- miss update of the live pairs these owners hold.
        live_lo, live_hi = np.searchsorted(
            store.owners, (owners[0], owners[-1] + 1)
        )
        fresh = open_[pair_owners]
        if live_hi > live_lo:
            live_owners = store.owners[live_lo:live_hi]
            live_hits = 0
            if len(touched):
                live_keys = live_owners.astype(np.int64) * n
                live_keys += store.cands[live_lo:live_hi]
                at = np.searchsorted(touched, live_keys)
                np.minimum(at, len(touched) - 1, out=at)
                found = touched[at] == live_keys
                del live_keys
                live_hits = np.where(found, hits[at], 0)
                fresh[at[found]] = False
                del at, found
            delta = counts_block[live_owners] - live_hits
            store.misses[live_lo:live_hi] += delta.astype(np.int32)
            misses_seen += int(delta.sum())

        # -- admission of new pairs, pruned with post-block counts.
        fresh &= policy.eligible_mask(pair_owners, pair_cands)
        o = pair_owners[fresh]
        c = pair_cands[fresh]
        h = hits[fresh]
        del fresh, touched, hits, pair_owners, pair_cands
        budgets = policy.budget_array(o, c)
        keep = self.count[o] <= budgets
        if not keep.all():
            o, c, h, budgets = o[keep], c[keep], h[keep], budgets[keep]
        if not len(o):
            return misses_seen
        misses = after[o] - h
        misses_seen += int((counts_block[o] - h).sum())
        del h
        stats.candidates_added += len(o)
        keep = self._settle(o, c, misses, budgets, after, stats, rules)
        if keep.any():
            admitted.append(tuple(
                column[keep].astype(np.int32)
                for column in (o, c, misses, budgets)
            ))
        return misses_seen

    def _settle(
        self, owners, cands, misses, budgets, counts, stats, rules
    ) -> np.ndarray:
        """The boundary sweep's tests on some pairs at ``counts``:
        delete over-budget and dynamically pruned pairs, emit the valid
        ones whose owner has finished; returns the survivors' mask."""
        over = misses > budgets
        dynamic = self.policy.dynamic_prune_mask(
            owners, cands, misses, counts, budgets
        )
        n_over = int(np.count_nonzero(over))
        if dynamic is None:
            delete = over
            n_dynamic = 0
        else:
            dynamic &= ~over
            n_dynamic = int(np.count_nonzero(dynamic))
            delete = over | dynamic
        stats.candidates_deleted += n_over + n_dynamic
        stats.candidates_deleted_budget += n_over
        stats.candidates_deleted_dynamic += n_dynamic
        finished = counts[owners] == self.ones[owners]
        emit = finished & ~delete
        if emit.any():
            _emit(self.policy, owners[emit], cands[emit], misses[emit],
                  rules, stats)
        return ~(delete | finished)

    def sweep(self, stats: ScanStats, rules: RuleSet) -> None:
        """Boundary sweep: delete over-budget and dynamically pruned
        pairs, emit pairs whose owner has finished, compact."""
        store = self.store
        keep = np.empty(len(store), dtype=bool)
        for lo in range(0, len(store), CHUNK_ENTRIES):
            part = slice(lo, lo + CHUNK_ENTRIES)
            keep[part] = self._settle(
                store.owners[part], store.cands[part], store.misses[part],
                store.budgets[part], self.count, stats, rules,
            )
        store.compact(keep)


def _scan_blocks(
    source,
    n_rows: int,
    policy: PairPolicy,
    stats: Optional[ScanStats] = None,
    bitmap: Optional[BitmapConfig] = None,
    rules: Optional[RuleSet] = None,
    guard=None,
    observer=None,
    block_rows: Optional[int] = None,
) -> RuleSet:
    if not policy.vector_ready():
        raise ValueError(
            "this policy's thresholds exceed the vector engine's int64 "
            "range; use the serial engine for this run"
        )
    if stats is None:
        stats = ScanStats()
    if rules is None:
        rules = RuleSet()
    if observer is None:
        observer = NULL_OBSERVER
    if block_rows is None:
        block_rows = DEFAULT_BLOCK_ROWS
    block_rows = max(1, int(block_rows))
    started = time.perf_counter()

    kernel = _Kernel(policy)
    store = kernel.store
    curve = stats.pruning_curve
    misses_base = stats.misses_recorded
    misses_seen = 0
    position = 0

    def hand_over_to_bitmap_tail(guard_tripped: bool) -> None:
        stats.bitmap_switch_at = position
        stats.misses_recorded = misses_base + misses_seen
        if observer.enabled:
            if guard_tripped:
                observer.on_guard_trip(position)
            observer.on_bitmap_switch(position)
        cand = store.to_candidate_array()
        remaining = source.remaining_pairs()
        span_fields = {"rows_remaining": len(remaining)}
        if guard_tripped:
            span_fields["guard_tripped"] = True
        with observer.span("bitmap-tail", **span_fields):
            bitmap_tail(
                remaining, policy, kernel.count.tolist(), cand, rules,
                stats, observer=observer,
            )

    while position < n_rows:
        memory = store.memory_bytes()
        if (
            bitmap is not None
            and n_rows - position <= bitmap.switch_rows
            and memory > bitmap.memory_budget_bytes
        ):
            hand_over_to_bitmap_tail(guard_tripped=False)
            stats.scan_seconds += time.perf_counter() - started
            return rules
        if guard is not None and position and guard.tripping(
            memory, position
        ):
            stats.guard_tripped_at = position
            hand_over_to_bitmap_tail(guard_tripped=True)
            stats.scan_seconds += time.perf_counter() - started
            return rules

        take = min(block_rows, n_rows - position)
        if bitmap is not None and n_rows - position > bitmap.switch_rows:
            # Never stride past the switch window: land a block
            # boundary exactly where the serial engine would first
            # check the Section 4.4 rule.
            take = min(take, n_rows - bitmap.switch_rows - position)
        block_size, lengths, cols = source.take(take)
        if not block_size:
            break
        if len(cols):
            misses_seen += kernel.block(lengths, cols, stats, rules)
        del lengths, cols
        position += block_size
        kernel.sweep(stats, rules)

        entries = len(store)
        memory = store.memory_bytes()
        stats.record_block(block_size, entries, memory)
        if guard is not None:
            guard.observe(memory)
        misses_now = misses_base + misses_seen
        curve.sample(stats.rows_scanned, entries, misses_now,
                     stats.rules_emitted)
        if observer.enabled:
            observer.observe_memory(memory)
            observer.on_curve_sample(
                stats.rows_scanned, entries, misses_now,
                stats.rules_emitted,
            )
            observer.on_row(position - 1, n_rows, entries, memory)

    stats.misses_recorded = misses_base + misses_seen
    curve.sample_final(
        stats.rows_scanned, len(store), stats.misses_recorded,
        stats.rules_emitted,
    )
    if observer.enabled:
        observer.on_curve_sample(
            stats.rows_scanned, len(store), stats.misses_recorded,
            stats.rules_emitted,
        )
    stats.scan_seconds += time.perf_counter() - started
    return rules
