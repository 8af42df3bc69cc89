"""Self-tests of the benchmark, at tiny scale.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from batch import BatchWorkload, run_batch
from common import ROOT
from run import (
    END_TO_END,
    PER_LAYER,
    SERVICE_ONLY,
    SERVICE_ONLY_LAYERS,
    WORKLOADS,
)
from service_mixed import ServiceWorkload, run_service_mixed

TINY_BATCH = BatchWorkload("tiny", "Wlog", 0.1)

TINY_SERVICE = ServiceWorkload(
    job_scale=0.3,
    job_interval=0.4,
    live_clients=200,
    live_urls=70,
    seed_rows=20,
    delta_rows=20,
    delta_interval=0.4,
    setup_repeats=1,
)


def drop_one_rule(rules):
    from repro.core.rules import RuleSet

    kept = rules.sorted()
    assert kept, "the tiny workload must produce rules"
    return RuleSet(kept[1:])


def assert_emits(report, names):
    for name in names:
        assert name in report.metrics, name
        metric = report.metrics[name]
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
        assert metric["unit"]


@pytest.mark.parametrize("trace", [False, True])
def test_batch_emits_every_metric(trace):
    report = run_batch(TINY_BATCH, seed=3, seconds=0.1, trace=trace)
    assert report.correct and report.failed == 0, report.notes
    assert report.attempted > 0
    assert_emits(report, PER_LAYER if trace else END_TO_END)
    assert report.metrics["error_rate"]["value"] == 0


@pytest.mark.parametrize("trace", [False, True])
def test_service_emits_every_metric(trace):
    report = run_service_mixed(seed=3, seconds=1.5, trace=trace,
                               workload=TINY_SERVICE)
    assert report.correct and report.failed == 0, report.notes
    assert_emits(report, PER_LAYER + SERVICE_ONLY_LAYERS if trace
                 else END_TO_END + SERVICE_ONLY)
    assert report.metrics["error_rate"]["value"] == 0


@pytest.mark.parametrize("trace", [False, True])
def test_dropped_rule_counts_as_error(trace):
    report = run_batch(TINY_BATCH, seed=3, seconds=0.1, trace=trace,
                       tamper=drop_one_rule)
    assert not report.correct
    assert report.metrics["error_rate"]["value"] > 0


def test_wrong_job_result_counts_as_error():
    report = run_service_mixed(seed=3, seconds=1.0, trace=False,
                               workload=TINY_SERVICE,
                               tamper=lambda digest: "0" + digest[1:])
    assert not report.correct
    assert report.metrics["error_rate"]["value"] > 0


def test_failed_jobs_make_the_run_incorrect(monkeypatch, capsys):
    import service_mixed

    def refuse(load, job):
        raise service_mixed.HttpError(503, "draining")

    monkeypatch.setattr(service_mixed.Load, "_fetch_job", refuse)
    report = run_service_mixed(seed=3, seconds=1.0, trace=True,
                               workload=TINY_SERVICE)
    assert not report.correct
    assert report.metrics["error_rate"]["value"] > 0
    assert "service.run_s" not in report.metrics
    report.emit(PER_LAYER)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_instances_differ_by_seed_only_in_labels():
    from common import build_instance

    first = build_instance("Wlog", 0.1, 1)
    second = build_instance("Wlog", 0.1, 2)
    assert first.n_columns == second.n_columns
    assert sorted(first.column_ones()) == sorted(second.column_ones())
    assert list(first.iter_rows()) != list(second.iter_rows())
    again = build_instance("Wlog", 0.1, 1)
    assert list(first.iter_rows()) == list(again.iter_rows())


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)


def test_fails_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "news-sparse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
