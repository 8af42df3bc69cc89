"""The ``service-mixed`` workload: ``repro serve`` under an open loop.

``python -m repro serve`` runs as its own process with its default
slots.  This process is the single load generator.  It keeps at most
two connections open at a time: a sender thread and a fetcher thread.

- The sender sends on a fixed schedule, whatever the replies.  One
  stream is one-shot jobs over a numeric-id transactions file
  (``data.path``), implication and similarity in turn.  The other is
  row-slice deltas into one live job, posted with ``wait: true``.
- The fetcher long-polls each submitted job and fetches its result.
  The service's long-poll looks at the job every 50 ms from the start
  of the request, which would round every job latency up to a step of
  that grid.  So each long-poll starts after a seeded random delay
  shorter than one step: the latency gains half a step on average and
  stays continuous in the job's run time.

Latency counts from each request's scheduled send time, so a stall
also charges the requests queued behind it.  ``imp_mine_s`` and
``sim_mine_s`` are the p50 latencies of the two kinds of job, the
end-to-end metrics every workload reports; the job p90s, the delta
latencies and ``slo_miss`` are printed among the readable lines.  The
generator's own lateness is reported as ``bench.generator_late_p90_s``.

The rates keep the server busy under a third of the time
(``service.busy_share`` in the traced run), and the live stand-in has
enough rows that a 20-second run sends each row once.

Each latency is scaled to a reference CPU speed, as the batch mining
times are (``common.timed``), by the probes taken within a second of
its send time.  The sender probes only while the server has no work:
before the load, in the gaps when no job is open and the next send is
not yet due, and after the load, so a probe never competes with the
server.  The SLO limits apply to the latencies as timed, which a user
sees; every run prints their p50 and p90 too.

Witnesses: every job result must equal a direct ``repro.mine(path)``
of the same file, and that mine must equal the brute-force oracle.
The live job's final result must equal a one-shot mine of every row
it ingested.

The traced run adds the service's and the live miner's layers, and
breaks the in-memory mine of the jobs' input down by layer under the
same ``imp.``/``sim.`` names as the batch workloads.

The benchmark writes the numeric-id file itself.  ``FileSource``
reads numeric ids only, and ``save_transactions`` writes labels for a
matrix with a vocabulary.
"""

from __future__ import annotations

import contextlib
import json
import os
import queue
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from fractions import Fraction

from batch import oracle_rules, trace_tasks
from common import (
    GENERATOR_SEED,
    MB,
    PROBE_REFERENCE_S,
    PROBES_PER_SIDE,
    SRC,
    WORK_ROOT,
    Report,
    SpanRecorder,
    build_instance,
    cpu_probe,
    document_digest,
    import_program,
    peak_rss_bytes,
    percentile,
    relabel,
    rss_bytes,
    rules_digest,
    timed,
)


@dataclass(frozen=True)
class ServiceWorkload:
    """Inputs, rates and latency limits of the mixed load."""

    #: One-shot jobs over this stand-in, sent as a file: implication at
    #: each whole interval, similarity half an interval later.
    job_dataset: str = "dicD"
    job_scale: float = 1.0
    minconf: Fraction = Fraction(4, 5)
    minsim: Fraction = Fraction(1, 2)
    #: Seconds between two sends of the same task.
    job_interval: float = 1.0
    #: Latency limit of one job, send-to-result.
    job_limit_s: float = 1.0
    #: The live job: seeded from, then fed with, the rows of a Wlog
    #: stand-in with Wlog x0.15's 105 URLs and enough clients that a
    #: 20-second run sends every row once.
    live_clients: int = 4200
    live_urls: int = 105
    live_task: str = "implication"
    live_threshold: Fraction = Fraction(4, 5)
    seed_rows: int = 200
    delta_rows: int = 100
    #: Seconds between delta sends.
    delta_interval: float = 0.5
    #: Send time of the first delta.  Jobs go out every half second and
    #: take about 0.2 s, so deltas 0.3 s past each job rarely meet one
    #: in the server.
    delta_phase: float = 0.3
    #: Latency limit of one delta, send-to-applied.
    delta_limit_s: float = 0.5
    #: Server start-ups per run; ``setup_s`` is their median.
    setup_repeats: int = 3

    def tasks(self):
        """``(prefix, task, threshold)`` of the one-shot jobs, in the
        order they go out within an interval."""
        return (
            ("imp", "implication", self.minconf),
            ("sim", "similarity", self.minsim),
        )


WORKLOAD = ServiceWorkload()

#: Seconds a server gets to become ready, or to drain and exit.
SERVER_TIMEOUT = 60.0

#: Long-poll length of one job-state request.
POLL_WAIT = 30

#: Seconds a speed probe must leave before the next send is due.
IDLE_MARGIN_S = 0.02

#: A latency is scaled by the probes taken this close to its send time.
SPEED_WINDOW_S = 1.0


class HttpError(Exception):
    """A non-2xx reply."""

    def __init__(self, status: int, body: str) -> None:
        super().__init__(f"HTTP {status}: {body[:200]}")
        self.status = status


def http(method: str, url: str, body=None):
    """One request on a fresh connection; returns ``(status, text)``."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        raise HttpError(error.code, error.read().decode("utf-8")) from None


# ----------------------------------------------------------------------
# Inputs and the server process
# ----------------------------------------------------------------------


def write_numeric_file(matrix, path: str) -> None:
    """The transactions format with numeric column ids only."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"#dmc-matrix\n#columns {matrix.n_columns}\n")
        for _, row in matrix.iter_rows():
            handle.write(" ".join(map(str, row)) + "\n")


def label_rows(matrix):
    vocabulary = matrix.vocabulary
    return [
        [vocabulary.label_of(c) if vocabulary else f"c{c}" for c in row]
        for _, row in matrix.iter_rows()
    ]


class Server:
    """One ``python -m repro serve`` child process."""

    def __init__(self, state_dir: str) -> None:
        self.state_dir = state_dir
        os.makedirs(state_dir)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        self.log = open(state_dir + ".log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", state_dir],
            env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        try:
            self.url = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def _wait_ready(self) -> str:
        url_file = os.path.join(self.state_dir, "service.url")
        deadline = time.monotonic() + SERVER_TIMEOUT
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode}"
                )
            if os.path.exists(url_file):
                with open(url_file, encoding="utf-8") as handle:
                    url = handle.read().strip()
                try:
                    status, _ = http("GET", f"{url}/healthz")
                except (OSError, HttpError):
                    status = None
                if status == 200:
                    return url
            time.sleep(0.005)
        raise RuntimeError("repro serve did not become ready")

    def stop(self) -> None:
        """SIGTERM (the service drains), then wait; kill if stuck."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=SERVER_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def set_up(workload, seed, work_dir, index, spans):
    """Build both inputs, write the job file and start a server."""
    from repro.datasets.weblog import generate_weblog

    with spans.span("datasets.build"):
        job_matrix = build_instance(
            workload.job_dataset, workload.job_scale, seed
        )
        live_matrix = relabel(
            generate_weblog(n_clients=workload.live_clients,
                            n_urls=workload.live_urls,
                            seed=GENERATOR_SEED),
            seed,
        )
    path = os.path.join(work_dir, f"jobs-{index}.txt")
    write_numeric_file(job_matrix, path)
    server = Server(os.path.join(work_dir, f"state-{index}"))
    return job_matrix, label_rows(live_matrix), path, server


# ----------------------------------------------------------------------
# The open loop
# ----------------------------------------------------------------------


class Load:
    """Sender and fetcher threads with everything they observed."""

    def __init__(self, workload, base: str, path: str, live_rows,
                 seconds: float, seed: int, spans: SpanRecorder) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.base = base
        self.path = path
        self.live_rows = live_rows
        self.spans = spans
        self.schedule = self._schedule(seconds)
        self.jobs = []        # dicts: due, latency, digest, history / error
        self.deltas = []      # dicts: due, latency, receipt / error
        self.late = []        # send time minus due time
        self.sent_rows = []   # the delta batches, in seq order
        self.probes = []      # (time, seconds) of CPU probes taken
                              # while the server idled
        self._fetch = queue.Queue()
        self._open_jobs = 0   # submitted, result not yet fetched
        self._lock = threading.Lock()

    def _schedule(self, seconds: float):
        w = self.workload
        events = []
        tasks = w.tasks()
        for index, task in enumerate(tasks):
            due = index * w.job_interval / len(tasks)
            while due < seconds:
                events.append((due, task))
                due += w.job_interval
        due = w.delta_phase
        while due < seconds:
            events.append((due, None))
            due += w.delta_interval
        return sorted(events, key=lambda event: event[0])

    def delta_batch(self, seq: int):
        """Row slice ``seq`` of the live stand-in.  A run longer than
        the stand-in was sized for wraps around and re-sends rows."""
        rows = self.live_rows
        size = self.workload.delta_rows
        start = (self.workload.seed_rows + (seq - 2) * size) % len(rows)
        return [rows[(start + k) % len(rows)] for k in range(size)]

    def run(self) -> None:
        for _ in range(PROBES_PER_SIDE):
            self._probe()
        fetcher = threading.Thread(target=self._fetch_loop, daemon=True)
        fetcher.start()
        try:
            self._send_loop()
        finally:
            self._fetch.put(None)
            fetcher.join(timeout=SERVER_TIMEOUT * 2)
        if fetcher.is_alive():
            raise RuntimeError("job fetcher did not finish")
        for _ in range(PROBES_PER_SIDE):
            self._probe()

    def _probe(self) -> None:
        self.probes.append((time.perf_counter(), cpu_probe()))

    def speed_factor(self, around: float) -> float:
        """Seconds at the reference CPU speed per second as timed, from
        the probes taken within :data:`SPEED_WINDOW_S` of ``around``,
        or from all of them when none was that close."""
        near = [took for at, took in self.probes
                if abs(at - around) <= SPEED_WINDOW_S]
        return PROBE_REFERENCE_S / statistics.median(
            near or [took for _, took in self.probes]
        )

    def _send_loop(self) -> None:
        start = time.perf_counter()
        next_seq = 2
        for number, (offset, task) in enumerate(self.schedule):
            due = start + offset
            self._probe_while_idle(due)
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            self.late.append(time.perf_counter() - due)
            if task is not None:
                self._send_job(f"job-{number:05d}", task, due)
            else:
                self._send_delta(next_seq, due)
                next_seq += 1

    def _probe_while_idle(self, due: float) -> None:
        """Probe the CPU speed while the server has no work: no job is
        open, the sender's last delta was answered, and the next send
        is not yet due.  A probe never runs beside the server's work."""
        for _ in range(PROBES_PER_SIDE):
            if self._open_jobs or due - time.perf_counter() < IDLE_MARGIN_S:
                return
            self._probe()

    def _send_job(self, job_id: str, task, due: float) -> None:
        prefix, name, threshold = task
        job = {"job_id": job_id, "prefix": prefix, "due": due}
        self.jobs.append(job)
        try:
            with self.spans.span("service.submit"):
                http("POST", f"{self.base}/jobs", {
                    "job_id": job_id,
                    "task": name,
                    "threshold": str(threshold),
                    "data": {"path": self.path},
                })
        except (OSError, HttpError) as error:
            self._failed(job, error)
            return
        with self._lock:
            self._open_jobs += 1
        self._fetch.put(job)

    def _send_delta(self, seq: int, due: float) -> None:
        rows = self.delta_batch(seq)
        delta = {"seq": seq, "due": due}
        self.deltas.append(delta)
        self.sent_rows.append(rows)
        try:
            _, text = http(
                "POST", f"{self.base}/jobs/live/deltas",
                {"seq": seq, "rows": rows, "wait": True},
            )
        except (OSError, HttpError) as error:
            self._failed(delta, error)
            return
        delta["latency"] = time.perf_counter() - due
        delta["receipt"] = json.loads(text)

    def _fetch_loop(self) -> None:
        while True:
            job = self._fetch.get()
            if job is None:
                return
            try:
                self._fetch_job(job)
            except (OSError, HttpError, ValueError) as error:
                self._failed(job, error)
            with self._lock:
                self._open_jobs -= 1

    def _fetch_job(self, job) -> None:
        from repro.service.server import WAIT_POLL_SECONDS

        job_id = job["job_id"]
        time.sleep(self.rng.uniform(0, WAIT_POLL_SECONDS))
        while True:
            _, text = http(
                "GET", f"{self.base}/jobs/{job_id}?wait={POLL_WAIT}"
            )
            document = json.loads(text)
            if document["state"] not in ("queued", "running"):
                break
        if document["state"] != "done":
            raise ValueError(f"{job_id} ended {document['state']}: "
                             f"{document['error']}")
        with self.spans.span("service.result_fetch"):
            _, text = http("GET", f"{self.base}/jobs/{job_id}/result")
        job["latency"] = time.perf_counter() - job["due"]
        job["bytes"] = len(text.encode("utf-8"))
        job["digest"] = document_digest(json.loads(text))
        job["history"] = document["history"]

    @staticmethod
    def _failed(operation, error) -> None:
        operation["error"] = repr(error)
        operation["status"] = getattr(error, "status", None)

    def rejected(self) -> int:
        """Requests the service refused with 429."""
        return sum(
            op.get("status") == 429 for op in self.jobs + self.deltas
        )


def _history_times(history):
    """``(queue wait, run)`` seconds from a job record's history."""
    queued = history[0][1]
    running = [at for state, at, _ in history if state == "running"]
    done = [at for state, at, _ in history if state == "done"]
    return running[0] - queued, done[-1] - running[-1]


def open_live_job(base: str, workload, seed_rows) -> None:
    """Submit the live job with its seed rows and wait until applied."""
    http("POST", f"{base}/jobs", {
        "job_id": "live",
        "kind": "live",
        "task": workload.live_task,
        "threshold": str(workload.live_threshold),
        "data": {"transactions": seed_rows},
    })
    deadline = time.monotonic() + SERVER_TIMEOUT
    while time.monotonic() < deadline:
        _, text = http("GET", f"{base}/jobs/live/result")
        if json.loads(text)["applied_seq"] >= 1:
            return
        time.sleep(0.01)
    raise RuntimeError("live job seed was not applied")


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def run_service_mixed(seed: int, seconds: float, trace: bool,
                      workload: ServiceWorkload = WORKLOAD,
                      tamper=None) -> Report:
    """Run the mixed load; ``tamper`` (self-tests only) rewrites each
    fetched job's rule digest before its witness is taken."""
    repro = import_program()
    report = Report()
    spans = SpanRecorder(enabled=trace)
    work_dir = os.path.join(WORK_ROOT, f"service-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    server = None
    try:
        setups = []
        for index in range(workload.setup_repeats):
            if server is not None:
                server.stop()
            with timed() as timing:
                job_matrix, live_rows, path, server = set_up(
                    workload, seed, work_dir, index, spans
                )
            setups.append(timing.scaled)
        baseline = rss_bytes(server.pid)

        seed_rows = live_rows[:workload.seed_rows]
        open_live_job(server.url, workload, seed_rows)
        load = Load(workload, server.url, path, live_rows, seconds, seed,
                    spans)
        load.run()
        report.put("bench.cpu_probe_s",
                   statistics.median(took for _, took in load.probes), "s")
        _, text = http("GET", f"{server.url}/jobs/live/result")
        live_document = json.loads(text)
        peak = peak_rss_bytes(server.pid) - baseline
        server.stop()
        server = None

        _score(repro, report, workload, load, job_matrix, path,
               seed_rows, live_document, tamper)
        report.put("setup_s", statistics.median(setups), "s")
        report.put("peak_mb", peak / MB, "MB")
        if trace:
            _layers(repro, report, workload, load, path, seed_rows, spans,
                    work_dir, seconds)
            trace_tasks(repro, job_matrix, workload.tasks(), report)
        report.put("error_rate", report.error_rate, "ratio")
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only when no other run is using it
    return report


def _score(repro, report, workload, load, job_matrix, path, seed_rows,
           live_document, tamper) -> None:
    """Witnesses, error counts, latency percentiles and SLO misses."""
    from repro.mining.export import rules_to_json

    expected = {}
    for prefix, task, threshold in workload.tasks():
        direct = repro.mine(path, task=task, threshold=threshold)
        expected[prefix] = document_digest(
            json.loads(rules_to_json(direct.rules))
        )
        oracle = oracle_rules(job_matrix, task, threshold)
        report.witness(
            rules_digest(direct.rules) == rules_digest(oracle),
            f"direct {prefix} mine of the job file disagrees with the oracle",
        )

    finished_jobs, misses = [], 0
    for job in load.jobs:
        if "error" in job:
            report.operation(False, f"{job['job_id']}: {job['error']}")
            misses += 1
            continue
        digest = job["digest"] if tamper is None else tamper(job["digest"])
        right = digest == expected[job["prefix"]]
        report.witness(right,
                       f"{job['job_id']}: result differs from direct mine")
        finished_jobs.append(job)
        misses += not right or job["latency"] > workload.job_limit_s

    applied_deltas = []
    for delta in load.deltas:
        ok = "error" not in delta
        report.operation(ok, f"delta {delta['seq']}: {delta.get('error')}")
        if ok:
            applied_deltas.append(delta)
        misses += not ok or delta["latency"] > workload.delta_limit_s

    everything = list(seed_rows)
    for rows, delta in zip(load.sent_rows, load.deltas):
        if "error" not in delta:
            everything.extend(rows)
    one_shot = repro.mine(everything, task=workload.live_task,
                          threshold=workload.live_threshold)
    report.witness(
        document_digest(live_document) == document_digest(json.loads(
            rules_to_json(one_shot.rules, vocabulary=one_shot.vocabulary)
        )),
        "live result differs from a one-shot mine of every ingested row",
    )

    groups = [
        (f"{prefix}_mine_s", f"{prefix}_job_p90_s",
         [job for job in finished_jobs if job["prefix"] == prefix])
        for prefix, _, _ in workload.tasks()
    ] + [("delta_p50_s", "delta_p90_s", applied_deltas)]
    for p50_name, p90_name, ops in groups:
        if ops:
            scaled = [op["latency"] * load.speed_factor(op["due"])
                      for op in ops]
            as_timed = [op["latency"] for op in ops]
            report.put(p50_name, percentile(scaled, 0.5), "s")
            report.put(p90_name, percentile(scaled, 0.9), "s")
            report.notes.append(
                f"{p50_name}/{p90_name} as timed: "
                f"{percentile(as_timed, 0.5):.4f}/"
                f"{percentile(as_timed, 0.9):.4f} s"
            )
    report.notes.append(
        f"samples: {len(finished_jobs)} jobs, {len(applied_deltas)} "
        f"deltas, {len(load.probes)} speed probes"
    )
    report.put("slo_miss", misses / (len(load.jobs) + len(load.deltas)),
               "ratio")


def _layers(repro, report, workload, load, path, seed_rows, spans,
            work_dir, seconds) -> None:
    """Per-layer metrics: service timings from the load, then direct
    calls into ``matrix.stream`` and ``live`` fed the same inputs."""
    from repro.live import LiveMiner
    from repro.service.live import DEFAULT_REPLAY_BUDGET_ROWS

    report.put("datasets.build_s", spans.median("datasets.build"), "s")
    report.put("service.submit_s", spans.median("service.submit"), "s")
    report.put("service.rejected", load.rejected(), "count")
    done = [job for job in load.jobs if "history" in job]
    runs = []
    if done:
        waits, runs = zip(*(_history_times(job["history"])
                            for job in done))
        report.put("service.queue_wait_s", statistics.median(waits), "s")
        report.put("service.run_s", statistics.median(runs), "s")
        report.put("service.result_fetch_s",
                   spans.median("service.result_fetch"), "s")
        report.put("service.result_bytes",
                   statistics.median(job["bytes"] for job in done),
                   "bytes")
    else:
        report.operation(False, "no job completed")
    report.put("bench.generator_late_p90_s", percentile(load.late, 0.9),
               "s")

    receipts = [d["receipt"] for d in load.deltas if "receipt" in d]
    report.put("live.readmitted", sum(r["readmitted"] for r in receipts),
               "count")
    report.put("live.replayed_rows",
               sum(r["replayed_rows"] for r in receipts), "count")
    report.put("live.degraded", sum(bool(r["degraded"]) for r in receipts),
               "count")
    report.put("live.rules", receipts[-1]["n_rules"] if receipts else 0,
               "count")

    for _ in range(3):
        for _, task, threshold in workload.tasks():
            with spans.span("matrix.stream"):
                repro.mine(path, task=task, threshold=threshold)
    report.put("matrix.stream_s", spans.median("matrix.stream"), "s")

    miner = LiveMiner(
        os.path.join(work_dir, "live-scratch"), workload.live_task,
        workload.live_threshold,
        replay_budget_rows=DEFAULT_REPLAY_BUDGET_ROWS,
    )
    batches = [seed_rows] + load.sent_rows
    for seq, rows in enumerate(batches, start=1):
        with spans.span("live.commit"):
            miner.commit(seq, rows)
        with spans.span("live.apply"):
            miner.apply_committed()
    report.put("live.commit_s", spans.median("live.commit"), "s")
    report.put("live.apply_s", spans.median("live.apply"), "s")
    busy = sum(runs) + spans.total("live.commit") + spans.total("live.apply")
    report.put("service.busy_share", busy / seconds, "ratio")
