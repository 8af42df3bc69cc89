"""Layered end-to-end benchmark of the DMC rule miner.

Run from the root of a checkout::

    python3 perfbench/run.py --workload wlog-dense --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``wlog-dense`` — Wlog x2 (4000 x 1400), implication 0.8 then
  similarity 0.5, in memory;
- ``news-sparse`` — News x2 (8000 x 5261), same thresholds;
- ``service-mixed`` — ``repro serve`` in its own process under an open
  loop of one-shot implication and similarity jobs (dicD x1 file) and
  live deltas (rows of a 4200-client, 105-URL Wlog stand-in).

Each stand-in is generated once with a fixed generator seed; ``--seed``
renumbers its columns.

End-to-end times are scaled to a reference CPU speed by a probe loop
timed just before and just after each measurement, never during it
(``common.timed``; the service's latencies by probes taken while the
server idles); ``bench.cpu_probe_s`` in the traced run shows the
host's speed.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes one
separate run with a span around each layer call the benchmark makes
and reports the per-layer metrics.  The inputs are generated from
``--seed``; every result is checked against an exact oracle.  Readable
lines go first; the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.

Exit status: 0 with a result, 2 when the checkout holds no program
sources (no result is printed then).
"""

from __future__ import annotations

import argparse
import sys

from common import ProgramMissing

#: The workloads, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = ("wlog-dense", "news-sparse", "service-mixed")

#: End-to-end metrics every workload reports with ``--trace 0``.  On
#: the batch workloads ``*_mine_s`` is one in-process ``repro.mine()``
#: call; on ``service-mixed`` it is one one-shot job of that task, from
#: its scheduled send time to its result fetched.
END_TO_END = ("setup_s", "imp_mine_s", "sim_mine_s", "peak_mb")

#: Per-layer metrics of one task, reported under ``imp.``/``sim.``.  On
#: ``service-mixed`` they break down the in-memory mine of the jobs'
#: input.
TASK_LAYERS = (
    "matrix.prescan_s", "matrix.restrict_s", "matrix.columns_removed",
    "core.full_s", "core.full_rules", "core.scan_s", "core.scan_rows",
    "core.candidates_added", "core.deleted_budget", "core.deleted_dynamic",
    "core.rejected", "core.rules", "core.yield", "core.bitmap_switch_row",
    "core.counter_peak_bytes", "core.traced_peak_mb", "core.scan_peak_mb",
    "mining.export_s", "mining.export_bytes",
    "reference.dmc_s", "reference.floor_s", "reference.floor_ratio",
    "bench.trace_overhead",
)

#: Per-layer metrics every workload reports with ``--trace 1``.
PER_LAYER = (
    "datasets.build_s", "error_rate", "bench.cpu_probe_s",
) + tuple(
    f"{prefix}.{name}" for prefix in ("imp", "sim") for name in TASK_LAYERS
)

#: Metrics only ``service-mixed`` measures, untraced and traced.  Its
#: runs print them among their readable lines; the result line holds
#: only the metrics every workload measures.
SERVICE_ONLY = ("imp_job_p90_s", "sim_job_p90_s", "delta_p50_s",
                "delta_p90_s", "slo_miss")
SERVICE_ONLY_LAYERS = (
    "slo_miss", "service.submit_s", "service.queue_wait_s",
    "service.run_s", "service.result_fetch_s", "service.result_bytes",
    "service.rejected", "matrix.stream_s", "live.commit_s", "live.apply_s",
    "live.readmitted", "live.replayed_rows", "live.degraded", "live.rules",
    "service.busy_share", "bench.generator_late_p90_s",
)


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload and return its :class:`common.Report`."""
    if workload == "service-mixed":
        from service_mixed import run_service_mixed

        return run_service_mixed(seed, seconds, trace)
    from batch import BATCH_WORKLOADS, run_batch

    return run_batch(BATCH_WORKLOADS[workload], seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except ProgramMissing as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    report.emit(PER_LAYER if args.trace else END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
