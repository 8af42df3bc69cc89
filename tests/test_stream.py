"""Two-pass streaming pipelines (repro.matrix.stream)."""

import os

import pytest

import repro
from repro.core.dmc_imp import PruningOptions, find_implication_rules
from repro.core.dmc_sim import find_similarity_rules
from repro.core.miss_counting import BitmapConfig
from repro.matrix.binary_matrix import BinaryMatrix
from repro.matrix.io import save_transactions
from repro.matrix.stream import (
    BucketSpill,
    FileSource,
    IterableSource,
    MatrixSource,
    TransactionSource,
    stream_implication_rules,
    stream_similarity_rules,
)
from tests.conftest import random_binary_matrix


class TestSources:
    def test_base_source_is_abstract(self):
        with pytest.raises(NotImplementedError):
            list(TransactionSource().iter_rows())

    def test_matrix_source_round_trip(self):
        matrix = BinaryMatrix([[0, 2], [1]], n_columns=3)
        source = MatrixSource(matrix)
        assert list(source.iter_rows()) == [(0, 2), (1,)]
        assert source.n_columns() == 3

    def test_iterable_source_normalizes_rows(self):
        source = IterableSource([[3, 1, 3], []], columns=5)
        assert list(source.iter_rows()) == [(1, 3), ()]
        assert source.n_columns() == 5

    def test_iterable_source_is_repeatable(self):
        source = IterableSource([[0], [1]])
        assert list(source.iter_rows()) == list(source.iter_rows())

    def test_file_source_reads_io_format(self, tmp_path):
        matrix = BinaryMatrix([[0, 3], [], [1]], n_columns=5)
        path = str(tmp_path / "data.txt")
        save_transactions(matrix, path)
        source = FileSource(path)
        rows = list(source.iter_rows())
        assert rows == [(0, 3), (), (1,)]
        assert source.n_columns() == 5  # from the #columns header


class TestBucketSpill:
    def test_rows_grouped_and_replayed_sparsest_first(self, tmp_path):
        with BucketSpill(directory=str(tmp_path)) as spill:
            spill.add((0, 1, 2, 3))
            spill.add((5,))
            spill.add((1, 2))
            assert spill.rows_spilled == 3
            replayed = list(spill.read_sparsest_first())
        assert replayed == [(5,), (1, 2), (0, 1, 2, 3)]

    def test_empty_rows_not_spilled(self, tmp_path):
        with BucketSpill(directory=str(tmp_path)) as spill:
            spill.add(())
            assert spill.rows_spilled == 0

    def test_bucket_count_is_logarithmic(self, tmp_path):
        with BucketSpill(directory=str(tmp_path)) as spill:
            spill.add(tuple(range(100)))
            spill.add((0,))
            assert spill.n_buckets == 7  # bucket_index(100) == 6

    def test_files_removed_on_close(self, tmp_path):
        spill = BucketSpill(directory=str(tmp_path))
        spill.add((1, 2))
        directory = spill._directory
        spill.close()
        assert not os.path.exists(directory)


class TestStreamingEquivalence:
    def test_implication_equals_in_memory(self):
        for seed in range(12):
            matrix = random_binary_matrix(seed)
            for threshold in (1.0, 0.8, 0.5):
                got = stream_implication_rules(
                    MatrixSource(matrix), threshold
                ).pairs()
                want = find_implication_rules(matrix, threshold).pairs()
                assert got == want, (seed, threshold)

    def test_similarity_equals_in_memory(self):
        for seed in range(12):
            matrix = random_binary_matrix(seed)
            for threshold in (1.0, 0.66):
                got = stream_similarity_rules(
                    MatrixSource(matrix), threshold
                ).pairs()
                want = find_similarity_rules(matrix, threshold).pairs()
                assert got == want, (seed, threshold)

    def test_from_file_source(self, tmp_path):
        matrix = random_binary_matrix(5)
        path = str(tmp_path / "data.txt")
        save_transactions(matrix, path)
        got = stream_implication_rules(FileSource(path), 0.75).pairs()
        want = find_implication_rules(matrix, 0.75).pairs()
        assert got == want

    def test_with_bitmap_switch(self):
        matrix = random_binary_matrix(9)
        config = BitmapConfig(switch_rows=5, memory_budget_bytes=0)
        got = stream_implication_rules(
            MatrixSource(matrix), 0.7, options=PruningOptions(bitmap=config)
        ).pairs()
        want = find_implication_rules(matrix, 0.7).pairs()
        assert got == want

    def test_spill_dir_honored_and_cleaned(self, tmp_path):
        matrix = random_binary_matrix(1)
        stream_implication_rules(
            MatrixSource(matrix), 0.9, spill_dir=str(tmp_path)
        )
        assert os.listdir(str(tmp_path)) == []

    def test_rules_carry_exact_statistics(self):
        matrix = random_binary_matrix(7)
        sets = matrix.column_sets()
        for rule in stream_implication_rules(MatrixSource(matrix), 0.6):
            assert rule.hits == len(
                sets[rule.antecedent] & sets[rule.consequent]
            )


class TestStreamEdgeCases:
    def test_zero_miss_scan_rows_direct(self):
        from repro.core.miss_counting import zero_miss_scan_rows
        from repro.core.policies import HundredPercentPolicy

        rows = [(0, (0, 1)), (1, (0, 1))]
        policy = HundredPercentPolicy([2, 2])
        rules = zero_miss_scan_rows(iter(rows), 2, policy)
        assert rules.pairs() == {(0, 1)}

    def test_file_source_resolves_labels(self, tmp_path):
        matrix = BinaryMatrix.from_transactions([["a", "b"], ["c", "a"]])
        path = str(tmp_path / "labelled.txt")
        save_transactions(matrix, path)
        source = FileSource(path)
        assert list(source.iter_rows()) == [(0, 1), (0, 2)]
        assert source.vocabulary == matrix.vocabulary

    def test_mine_reads_labelled_file_round_trip(self, tmp_path):
        matrix = BinaryMatrix.from_transactions(
            [["a", "b"], ["a", "b", "c"], ["b", "c"], ["a"]]
        )
        path = str(tmp_path / "labelled.txt")
        save_transactions(matrix, path)
        result = repro.mine(path, minconf=0.5)
        assert result.engine == "stream"
        assert result.rules == find_implication_rules(matrix, 0.5)
        assert result.vocabulary == matrix.vocabulary
        assert {rule.format(result.vocabulary) for rule in result.rules} == {
            rule.format(matrix.vocabulary)
            for rule in repro.mine(matrix, minconf=0.5).rules
        }

    def test_spill_close_is_idempotent(self, tmp_path):
        spill = BucketSpill(directory=str(tmp_path))
        spill.add((0, 1))
        spill.close()
        spill.close()  # second close must not raise

    def test_empty_source_mines_nothing(self):
        rules = stream_implication_rules(IterableSource([]), 0.9)
        assert len(rules) == 0

    def test_source_with_only_empty_rows(self):
        rules = stream_implication_rules(
            IterableSource([[], []], columns=3), 0.9
        )
        assert len(rules) == 0

    def test_first_scan_grows_column_space(self):
        # Column ids beyond the declared universe extend the counts.
        source = IterableSource([[0], [7]], columns=2)
        rules = stream_implication_rules(source, 1)
        assert len(rules) == 0  # no co-occurrence, but no crash either


WLOG_TASKS = (("implication", "4/5"), ("similarity", "1/2"))


@pytest.fixture(scope="module")
def wlog():
    from repro.datasets.registry import DATASETS

    return DATASETS["Wlog"].build(0.3, 0)


class TestStreamSharesThePipeline:
    """The streaming carrier runs the same passes as in-memory DMC."""

    @pytest.mark.parametrize("task,threshold", WLOG_TASKS)
    def test_stream_honours_pruning_options(self, wlog, task, threshold):
        options = PruningOptions(
            hundred_percent_pass=False, density_pruning=False
        )
        runs = {
            engine: repro.mine(
                wlog, task=task, threshold=threshold, engine=engine,
                options=options,
            )
            for engine in ("dmc", "stream")
        }
        dmc, stream = runs["dmc"].stats, runs["stream"].stats
        assert list(stream.timer.seconds) == ["pre-scan", "combined"]
        assert list(dmc.timer.seconds) == ["pre-scan", "combined"]
        for field in (
            "candidates_added", "candidates_deleted_budget",
            "candidates_deleted_dynamic", "candidates_rejected",
            "rules_emitted",
        ):
            assert getattr(stream.partial_scan, field) == getattr(
                dmc.partial_scan, field
            ), field
        assert runs["stream"].rules == runs["dmc"].rules

    @pytest.mark.parametrize("task,threshold", WLOG_TASKS)
    def test_stats_parity_with_in_memory(self, wlog, task, threshold):
        dmc = repro.mine(wlog, task=task, threshold=threshold, engine="dmc")
        stream = repro.mine(
            wlog, task=task, threshold=threshold, engine="stream"
        )
        assert list(stream.stats.timer.seconds) == list(
            dmc.stats.timer.seconds
        ) == ["pre-scan", "100%-rules", "<100%-rules"]
        for field in (
            "columns_total", "columns_removed",
            "rules_hundred_percent", "rules_partial",
        ):
            assert getattr(stream.stats, field) == getattr(
                dmc.stats, field
            ), field
        assert stream.stats.rules_partial > 0
        assert stream.rules == dmc.rules

    def test_spill_fallback_keeps_options(self, tmp_path):
        from repro.runtime.storage import FaultyStorage, StorageFault

        matrix = random_binary_matrix(3)
        path = str(tmp_path / "data.txt")
        save_transactions(matrix, path)
        storage = FaultyStorage(
            faults=(StorageFault(op="open-write", path_contains="bucket"),)
        )
        with pytest.warns(RuntimeWarning):
            result = repro.mine(
                path, minsim=0.5, storage=storage,
                options=PruningOptions(hundred_percent_pass=False),
            )
        assert result.stats.degradations == ["spill-to-memory"]
        assert list(result.stats.timer.seconds) == ["pre-scan", "combined"]
        assert result.rules == find_similarity_rules(matrix, 0.5)

    @pytest.mark.parametrize(
        "knob", ("bitmap", "guard", "scan_engine", "vector_block_rows")
    )
    def test_loose_engine_knobs_are_gone(self, knob):
        with pytest.raises(TypeError):
            stream_implication_rules(
                IterableSource([[0, 1]]), 0.5, **{knob: None}
            )
