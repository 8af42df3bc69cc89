"""The vectorized second-pass engine (repro.core.vector) and the
engine= resolver (repro.api.resolve_engine).

Rule-set parity with the serial scan gates everything the vector
engine does, so the heart of this module is a seeded randomized
harness: random matrices x every policy family x awkward block sizes,
asserting byte-identical rule sets against the row-at-a-time engine.
"""

import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import repro
from repro.api import ENGINES, MiningConfig, mine, resolve_engine
from repro.core.dmc_imp import PruningOptions, find_implication_rules
from repro.core.dmc_sim import find_similarity_rules
from repro.core.miss_counting import BitmapConfig, miss_counting_scan
from repro.core.policies import (
    HundredPercentPolicy,
    IdentityPolicy,
    ImplicationPolicy,
    SimilarityPolicy,
)
from repro.core.stats import ScanStats
from repro.core import vector
from repro.core.vector import (
    CHUNK_ENTRIES,
    DEFAULT_BLOCK_ROWS,
    SCRATCH_BYTES,
    vector_scan,
    vector_scan_rows,
)
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.reorder import scan_order
from repro.matrix.stream import MatrixSource
from repro.observe.journal import summarize_journal
from repro.observe.live import LiveRunStatus
from tests.conftest import random_binary_matrix

BLOCK_SIZES = (1, 7, 64)


def _policies(matrix):
    """One policy per family, with exact-Fraction thresholds that land
    on confidence/similarity boundary values for small matrices."""
    ones = matrix.column_ones()
    return [
        ImplicationPolicy(ones, Fraction(1, 2)),
        ImplicationPolicy(ones, Fraction(3, 4)),
        SimilarityPolicy(ones, Fraction(1, 3)),
        SimilarityPolicy(ones, Fraction(2, 3)),
        HundredPercentPolicy(ones),
        IdentityPolicy(ones),
    ]


class TestScanParity:
    """vector_scan must reproduce miss_counting_scan bit for bit."""

    def test_randomized_matrix_policy_block_sweep(self):
        for seed in range(8):
            matrix = random_binary_matrix(seed)
            for policy_index, policy in enumerate(_policies(matrix)):
                want = miss_counting_scan(matrix, policy).pairs()
                for block_rows in BLOCK_SIZES:
                    got = vector_scan(
                        matrix, policy, block_rows=block_rows
                    ).pairs()
                    assert got == want, (seed, policy_index, block_rows)

    def test_one_entry_budget_kernel_path(self, monkeypatch):
        """A one-entry budget makes every block a single row and gives
        every owner with more than one key a kernel group of its own;
        both the matrix and the row-stream entry points must still
        match the serial scan."""
        monkeypatch.setattr(vector, "CHUNK_ENTRIES", 1)
        for seed in range(8):
            matrix = random_binary_matrix(seed)
            rows = list(matrix.iter_rows())
            for policy_index, policy in enumerate(_policies(matrix)):
                want = miss_counting_scan(matrix, policy).pairs()
                for block_rows in BLOCK_SIZES:
                    got = vector_scan(
                        matrix, policy, block_rows=block_rows
                    ).pairs()
                    assert got == want, (seed, policy_index, block_rows)
                    got = vector_scan_rows(
                        iter(rows), len(rows), policy, block_rows=block_rows
                    ).pairs()
                    assert got == want, (seed, policy_index, block_rows)

    def test_sparsest_first_order(self):
        for seed in range(4):
            matrix = random_binary_matrix(seed)
            order = scan_order(matrix)
            policy = ImplicationPolicy(
                matrix.column_ones(), Fraction(2, 3)
            )
            want = miss_counting_scan(matrix, policy, order=order).pairs()
            got = vector_scan(
                matrix, policy, order=order, block_rows=7
            ).pairs()
            assert got == want, seed

    def test_fraction_threshold_boundary(self):
        """A pair sitting exactly on the threshold must be kept by both
        engines (confidence >= minconf, with exact arithmetic)."""
        # c0 appears 4x, c0&c1 3x: conf(c0 -> c1) is exactly 3/4.
        rows = [[0, 1], [0, 1], [0, 1], [0], [1]]
        matrix = BinaryMatrix(rows, n_columns=2)
        for minconf in (Fraction(3, 4), Fraction(3, 4) + Fraction(1, 1000)):
            policy = ImplicationPolicy(matrix.column_ones(), minconf)
            want = miss_counting_scan(matrix, policy).pairs()
            got = vector_scan(matrix, policy, block_rows=2).pairs()
            assert got == want, minconf
        # Exactly at the boundary the rule exists; a hair above, not.
        at = ImplicationPolicy(matrix.column_ones(), Fraction(3, 4))
        assert vector_scan(matrix, at).pairs() == {(0, 1)}

    def test_bitmap_handover(self):
        """The Section 4.4 switch hands live pairs to the bitmap tail
        mid-scan; parity must survive the handover."""
        for seed in range(4):
            matrix = random_binary_matrix(seed)
            policy = ImplicationPolicy(
                matrix.column_ones(), Fraction(1, 2)
            )
            bitmap = BitmapConfig(switch_rows=1000, memory_budget_bytes=0)
            want = miss_counting_scan(
                matrix, policy, bitmap=bitmap
            ).pairs()
            got = vector_scan(
                matrix, policy, bitmap=bitmap, block_rows=7
            ).pairs()
            assert got == want, seed

    def test_scratch_is_bounded_on_a_dense_tail(self):
        """On a Wlog-shaped matrix (thousands of sparse rows, then 64
        rows holding a sixth of the columns each) the scan's traced
        peak, less the rules it returns, stays within twice its peak
        store arrays plus SCRATCH_BYTES — whatever the tail's pair
        count."""
        rng = np.random.default_rng(7)
        n_columns = 1400
        weights = 1.0 / np.arange(1, n_columns + 1)
        weights /= weights.sum()
        rows = [
            rng.choice(n_columns, size=int(rng.integers(1, 6)), p=weights)
            for _ in range(3000)
        ]
        rows += [
            rng.choice(n_columns, size=250, replace=False)
            for _ in range(64)
        ]
        matrix = BinaryMatrix(
            [sorted(set(row.tolist())) for row in rows],
            n_columns=n_columns,
        )
        order = scan_order(matrix)
        ones = matrix.column_ones()
        # Four int32 columns per live pair.
        pair_bytes = 4 * np.dtype(np.int32).itemsize
        for policy in (
            ImplicationPolicy(ones, Fraction(4, 5)),
            SimilarityPolicy(ones, Fraction(1, 2)),
        ):
            stats = ScanStats()
            tracemalloc.start()
            try:
                rules = vector_scan(matrix, policy, order=order, stats=stats)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            scratch = peak - kept
            assert scratch <= (
                2 * stats.peak_entries * pair_bytes + SCRATCH_BYTES
            ), (type(policy).__name__, scratch, stats.peak_entries)
            assert stats.accounting_balanced()
            assert rules.pairs() == miss_counting_scan(
                matrix, policy, order=order
            ).pairs()

    def test_stats_accounting_balanced(self):
        matrix = random_binary_matrix(3)
        stats = ScanStats()
        vector_scan(
            matrix,
            ImplicationPolicy(matrix.column_ones(), Fraction(1, 2)),
            stats=stats,
            block_rows=7,
        )
        assert stats.accounting_balanced()
        assert stats.rows_scanned > 0
        assert stats.pruning_curve  # sampled at block boundaries

    def test_rejects_unknown_scan_engine(self):
        with pytest.raises(ValueError, match="scan_engine"):
            PruningOptions(scan_engine="simd")


class TestPipelineParity:
    """The full two-pass pipelines under scan_engine='vector'."""

    def test_implication_with_ablations(self):
        for seed in range(4):
            matrix = random_binary_matrix(seed)
            for options in (
                PruningOptions(),
                PruningOptions(density_pruning=False),
                PruningOptions(max_hits_pruning=False),
                PruningOptions(hundred_percent_pass=False),
            ):
                vector_options = replace(
                    options, scan_engine="vector", vector_block_rows=7
                )
                want = find_implication_rules(
                    matrix, Fraction(3, 5), options=options
                ).pairs()
                got = find_implication_rules(
                    matrix, Fraction(3, 5), options=vector_options
                ).pairs()
                assert got == want, seed

    def test_similarity(self):
        for seed in range(4):
            matrix = random_binary_matrix(seed)
            want = find_similarity_rules(matrix, Fraction(2, 5)).pairs()
            got = find_similarity_rules(
                matrix,
                Fraction(2, 5),
                options=PruningOptions(
                    scan_engine="vector", vector_block_rows=7
                ),
            ).pairs()
            assert got == want, seed


class TestResolver:
    """resolve_engine: one unit test per engine value and conflict."""

    @staticmethod
    def _resolve(streaming=False, **kwargs):
        kwargs.setdefault("threshold", 0.9)
        return resolve_engine(MiningConfig(**kwargs), streaming=streaming)

    def test_engine_names_are_documented(self):
        assert ENGINES == ("auto", "dmc", "stream", "partitioned", "vector")

    def test_auto_in_memory_is_vector(self):
        plan, options = self._resolve()
        assert (plan.name, plan.carrier, plan.scan_engine) == (
            "vector", "dmc", "vector",
        )
        assert options.scan_engine == "vector"
        assert options.vector_block_rows == DEFAULT_BLOCK_ROWS

    def test_auto_honours_an_explicit_serial_scan(self):
        plan, _ = self._resolve(options=PruningOptions(scan_engine="serial"))
        assert (plan.name, plan.scan_engine) == ("dmc", "serial")

    def test_auto_elsewhere_stays_serial(self):
        for streaming, kwargs in (
            (True, {}),
            (False, {"memory_budget": 1024}),
            (False, {"engine": "stream"}),
            (False, {"engine": "partitioned"}),
        ):
            plan, options = self._resolve(streaming=streaming, **kwargs)
            assert plan.scan_engine == options.scan_engine == "serial"

    def test_auto_streaming_streams(self):
        plan, _ = self._resolve(streaming=True)
        assert (plan.name, plan.carrier) == ("stream", "stream")

    def test_auto_memory_budget_is_guarded(self):
        plan, _ = self._resolve(memory_budget=1024)
        assert (plan.name, plan.carrier) == ("dmc", "guarded")

    def test_explicit_dmc(self):
        plan, _ = self._resolve(engine="dmc")
        assert (plan.name, plan.carrier, plan.scan_engine) == (
            "dmc", "dmc", "serial",
        )

    def test_explicit_stream_wraps_matrix(self):
        plan, _ = self._resolve(engine="stream")
        assert (plan.name, plan.carrier) == ("stream", "stream")

    def test_stream_plus_vector_scan(self):
        plan, options = self._resolve(
            engine="stream",
            options=PruningOptions(scan_engine="vector"),
        )
        assert plan.name == "stream+vector"
        assert options.vector_block_rows == DEFAULT_BLOCK_ROWS

    def test_explicit_partitioned(self):
        plan, _ = self._resolve(engine="partitioned")
        assert (plan.name, plan.carrier) == ("partitioned", "partitioned")

    def test_partitioned_plus_vector_scan(self):
        plan, _ = self._resolve(
            engine="partitioned",
            options=PruningOptions(scan_engine="vector"),
        )
        assert plan.name == "partitioned+vector"

    def test_vector_defaults_block_rows(self):
        plan, options = self._resolve(engine="vector")
        assert (plan.name, plan.carrier, plan.scan_engine) == (
            "vector", "dmc", "vector",
        )
        assert options.scan_engine == "vector"
        assert options.vector_block_rows == DEFAULT_BLOCK_ROWS

    def test_vector_block_rows_override(self):
        _, options = self._resolve(engine="vector", vector_block_rows=256)
        assert options.vector_block_rows == 256

    def test_vector_with_workers_partitions(self):
        plan, _ = self._resolve(engine="vector", n_workers=2)
        assert (plan.name, plan.carrier) == (
            "partitioned+vector", "partitioned",
        )

    def test_vector_partition_spellings_agree(self):
        by_workers, _ = self._resolve(engine="vector", n_workers=2)
        by_engine, _ = self._resolve(
            engine="partitioned",
            options=PruningOptions(scan_engine="vector"),
        )
        assert by_workers == by_engine

    def test_auto_partitioned_flag_is_rejected(self):
        with pytest.raises(TypeError, match="partitioned"):
            self._resolve(partitioned=True)

    def test_dmc_rejects_vector_scan_option(self):
        with pytest.raises(ValueError, match="engine='vector'"):
            self._resolve(
                engine="dmc",
                options=PruningOptions(scan_engine="vector"),
            )

    def test_streaming_rejects_in_memory_engines(self):
        for engine in ("dmc", "partitioned"):
            with pytest.raises(ValueError, match="in-memory"):
                self._resolve(engine=engine, streaming=True)

    def test_streaming_vector_error_has_hint(self):
        with pytest.raises(ValueError, match="engine='stream'"):
            self._resolve(engine="vector", streaming=True)

    def test_streaming_rejects_partition_requests(self):
        with pytest.raises(ValueError, match="in-memory"):
            self._resolve(streaming=True, memory_budget=1024)

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            MiningConfig(threshold=0.9, engine="gpu")

    def test_config_rejects_bad_block_rows(self):
        with pytest.raises(ValueError, match="vector_block_rows"):
            MiningConfig(threshold=0.9, vector_block_rows=0)

    def test_config_conflicts(self):
        for kwargs in (
            {"engine": "dmc", "memory_budget": 1024},
            {"engine": "vector", "memory_budget": 1024},
            {"engine": "partitioned", "memory_budget": 1024},
            {"engine": "stream", "memory_budget": 1024},
        ):
            with pytest.raises(ValueError):
                MiningConfig(threshold=0.9, **kwargs)


class TestMineVector:
    """engine='vector' end to end through the facade."""

    @pytest.fixture(scope="class")
    def matrix(self):
        return random_binary_matrix(5, max_rows=60, max_columns=20)

    def test_matches_serial_implication(self, matrix):
        serial = mine(matrix, minconf=0.7, engine="dmc")
        vector = mine(matrix, minconf=0.7, engine="vector")
        assert vector.engine == "vector"
        assert vector.rules.pairs() == serial.rules.pairs()

    def test_matches_serial_similarity(self, matrix):
        serial = mine(matrix, minsim=0.4, engine="dmc")
        vector = mine(matrix, minsim=0.4, engine="vector")
        assert vector.rules.pairs() == serial.rules.pairs()

    def test_stats_record_engine_and_block_size(self, matrix):
        result = mine(
            matrix, minconf=0.7, engine="vector", vector_block_rows=64
        )
        assert result.stats.engine == "vector"
        assert result.stats.vector_block_rows == 64
        round_trip = repro.PipelineStats.from_dict(result.stats.to_dict())
        assert round_trip.engine == "vector"
        assert round_trip.vector_block_rows == 64

    def test_serial_stats_have_no_block_size(self, matrix):
        result = mine(matrix, minconf=0.7, engine="dmc")
        assert result.stats.engine == "dmc"
        assert result.stats.vector_block_rows is None

    def test_partitioned_vector_carrier(self, matrix):
        serial = mine(matrix, minconf=0.7, engine="dmc")
        result = mine(
            matrix,
            minconf=0.7,
            engine="partitioned",
            options=PruningOptions(scan_engine="vector"),
            n_partitions=3,
        )
        assert result.engine == "partitioned+vector"
        assert result.rules.pairs() == serial.rules.pairs()

    def test_stream_vector_carrier(self, matrix):
        serial = mine(matrix, minconf=0.7, engine="dmc")
        result = mine(
            matrix,
            minconf=0.7,
            engine="stream",
            options=PruningOptions(scan_engine="vector"),
        )
        assert result.engine == "stream+vector"
        assert result.rules.pairs() == serial.rules.pairs()

    def test_auto_is_vector(self, matrix):
        serial = mine(matrix, minconf=0.7, engine="dmc")
        result = mine(matrix, minconf=0.7)
        assert result.engine == result.stats.engine == "vector"
        assert result.stats.vector_block_rows == DEFAULT_BLOCK_ROWS
        assert result.stats.degradations == []
        assert result.rules.pairs() == serial.rules.pairs()

    def test_default_mine_stays_off_scipy(self):
        """The default engine is numpy-only: a fresh process mining in
        memory never imports scipy.sparse (~14 MB of RSS in a service
        process)."""
        script = (
            "import sys, repro\n"
            "result = repro.mine([['a', 'b'], ['a', 'b', 'c'], ['c']],"
            " minconf=0.5)\n"
            "assert result.engine == 'vector', result.engine\n"
            "assert 'scipy.sparse' not in sys.modules\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr

    def test_auto_falls_back_to_serial_on_int64_overflow(self, matrix):
        """A similarity threshold whose p/q terms overflow the vector
        scan's int64 arithmetic: explicit vector refuses, auto runs the
        serial scan and records the fallback."""
        minsim = Fraction(2**62 + 1, 2**63 + 3)
        with pytest.raises(ValueError, match="int64"):
            mine(matrix, minsim=minsim, engine="vector")
        serial = mine(matrix, minsim=minsim, engine="dmc")
        result = mine(matrix, minsim=minsim)
        assert result.engine == result.stats.engine == "dmc"
        assert result.stats.vector_block_rows is None
        assert result.stats.degradations == ["serial-scan"]
        assert result.rules.pairs() == serial.rules.pairs()

    def test_streaming_source_rejects_vector(self, matrix):
        with pytest.raises(ValueError, match="engine='stream'"):
            mine(MatrixSource(matrix), minconf=0.7, engine="vector")

    def test_journal_records_engine(self, matrix, tmp_path):
        path = str(tmp_path / "run.jsonl")
        mine(
            matrix,
            minconf=0.7,
            engine="vector",
            vector_block_rows=64,
            journal_path=path,
        )
        summary = summarize_journal(path)
        assert summary["engine"] == "vector"
        assert summary["vector_block_rows"] == 64

    def test_live_status_reports_engine(self, matrix):
        status = LiveRunStatus("run-vec")
        observer = repro.RunObserver(status=status)
        mine(matrix, minconf=0.7, engine="vector", observer=observer)
        assert status.snapshot()["engine"] == "vector"
