"""``serve-mixed``: two closed-loop clients against a ``repro.serve`` daemon.

Each client ``POST /jobs`` a small-geometry ``simulate`` job, polls
``GET /jobs/<id>`` until the job is terminal, and only then sends its
next request.  A seeded share of requests repeats a job the client has
already seen done (a dedup hit); the rest are fresh (journal fsync,
lease, cache put).  The job wire schema names workloads only, so the
seed picks the request sequence, not the workload traces.

A run sends ``OPS_PER_S x --seconds`` jobs.  Rates and latencies are in
reference-host seconds for their CPU-bound share only: once a second the
clients are held between jobs and calibration chunks time the host
(``_Gate``); each job's CPU share (its submit round trip plus the mean
execution time, or the whole of a dedup hit) is divided by that factor,
while the rest, the daemon's dispatcher tick and the clients' polling,
stays as measured.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro import api
from repro.core.results import SimulationResult
from repro.prof.export import parse_prometheus
from repro.serve.client import ServeClient, ServeHTTPError

import cells
import common
from wl_sim import model_counts

SETUPS = 7
CLIENTS = 2
#: Share of requests that repeat a job already done.  The figure
#: drivers, run in ``python -m repro.harness all`` order, ask for 414
#: sweep cells of which 168 (0.406) repeat an earlier cell's cache key;
#: a caller submitting those cells as ``simulate`` jobs sees that share
#: of dedup hits (``perfbench/derive_mix.py`` replays the count).
REPEAT_SHARE = 168 / 414
#: ``GET /jobs/<id>`` poll interval.  ``ServeClient.wait`` polls every
#: 0.2 s, which would round every job's latency (about 30 ms) up to the
#: poll; 5 ms resolves it at about three polls a job.
POLL_S = 0.005
JOB_TIMEOUT_S = 60.0
#: Jobs run before the window: the daemon's first jobs pay its imports.
WARMUP_JOBS = 2
#: Jobs a run sends per --seconds: about the rate two clients reach on
#: a 2-vCPU Xeon host.
OPS_PER_S = 60
#: Every SAMPLE_EVERY_S the clients pause between jobs, the daemon is
#: left SETTLE_S to go idle, and SAMPLE_CHUNKS calibration chunks time
#: the host (see common.HostSpeed).
SAMPLE_EVERY_S = 1.0
SETTLE_S = 0.03
SAMPLE_CHUNKS = 3


class _Gate:
    """Holds the clients between jobs while the host's speed is sampled.

    The daemon is CPU-bound under this load, so its throughput and
    latency follow the host's speed; sampling it only while no job is in
    flight measures the host, not the daemon's own load.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._held = False
        self._busy = 0

    def __enter__(self):
        with self._cond:
            while self._held:
                self._cond.wait()
            self._busy += 1
        return self

    def __exit__(self, *exc):
        with self._cond:
            self._busy -= 1
            self._cond.notify_all()
        return False

    def sample(self, speed: common.HostSpeed) -> Tuple[float, float]:
        """Pause the clients, sample the host; returns the pause, from
        the end of the last job in flight to the clients' release."""
        with self._cond:
            self._held = True
            while self._busy:
                self._cond.wait()
        start = time.perf_counter()
        try:
            time.sleep(SETTLE_S)
            speed.sample(SAMPLE_CHUNKS)
        finally:
            with self._cond:
                self._held = False
                self._cond.notify_all()
        return start, time.perf_counter()


class _Op:
    __slots__ = ("cell", "repeat", "latency", "submit_s", "polls", "view", "traced")

    def __init__(self, cell, repeat):
        self.cell = cell
        self.repeat = repeat
        self.traced = False
        self.latency = 0.0
        self.submit_s = 0.0
        self.polls = 0
        self.view: Optional[Dict] = None


def _job(client: ServeClient, spans: common.Spans, op: _Op, traced: bool) -> None:
    """Submit ``op.cell`` and poll until terminal (raises on refusal)."""
    span_op = spans.new_op() if traced else 0
    op.traced = traced
    start = time.perf_counter()
    with spans.span("job", span_op):
        with spans.span("serve.submit", span_op):
            view = client.submit("simulate", op.cell.request())
        op.submit_s = time.perf_counter() - start
        while True:
            with spans.span("serve.poll", span_op):
                view = client.job(view["id"])
            op.polls += 1
            if view["state"] in ("done", "failed"):
                break
            if time.perf_counter() - start > JOB_TIMEOUT_S:
                raise TimeoutError(f"job {view['id']} still {view['state']}")
            with spans.span("serve.poll_sleep", span_op):
                time.sleep(POLL_S)
    op.latency = time.perf_counter() - start
    op.view = view


class _Shared:
    """What the client threads and the main thread share."""

    def __init__(self, spans: common.Spans, outcome: common.Outcome):
        self.spans = spans
        self.outcome = outcome
        self.gate = _Gate()
        self.lock = threading.Lock()
        self.ops: List[_Op] = []
        self.ends: List[float] = []
        self.finished = threading.Event()


def _client(base, seed, index, count, trace, shared: _Shared) -> None:
    try:
        _jobs(base, seed, index, count, trace, shared)
    finally:
        with shared.lock:
            shared.ends.append(time.perf_counter())
            if len(shared.ends) == CLIENTS:
                shared.finished.set()


def _jobs(base, seed, index, count, trace, shared: _Shared) -> None:
    outcome, lock = shared.outcome, shared.lock
    client = ServeClient(base, timeout_s=30)
    rng = random.Random(f"client-{seed}-{index}")
    fresh = cells.small_cells(seed)[index::CLIENTS][WARMUP_JOBS:]
    seen: List[cells.SmallCell] = []
    for done in range(count):
        repeat = bool(seen) and rng.random() < REPEAT_SHARE
        op = _Op(rng.choice(seen) if repeat else fresh.pop(0), repeat)
        try:
            # With --trace 1 the first half runs untraced, the second
            # traced: their mean latencies give the overhead.
            with shared.gate:
                _job(client, shared.spans, op, trace and done >= count // 2)
        except ServeHTTPError as exc:
            with lock:
                outcome.attempted += 1
                outcome.fail(f"{op.cell}: HTTP {exc.status}", wrong=exc.status not in (429, 503))
            continue
        except (TimeoutError, OSError) as exc:
            with lock:
                outcome.attempted += 1
                outcome.fail(f"{op.cell}: {type(exc).__name__}: {exc}", wrong=False)
            continue
        except Exception as exc:  # noqa: BLE001 — count, keep going
            with lock:
                outcome.attempted += 1
                outcome.fail(f"{op.cell}: {type(exc).__name__}: {exc}")
            continue
        with lock:
            outcome.attempted += 1
            shared.ops.append(op)
        if op.view["state"] == "done" and not repeat:
            seen.append(op.cell)


def _text(view: Dict) -> str:
    return json.dumps(view["result"], sort_keys=True, separators=(",", ":"))


def run(workload: str, seed: int, seconds: float, trace: bool, outcome: common.Outcome) -> None:
    values = outcome.values
    work = common.RUN_DIR / "work" / f"serve-{os.getpid()}"
    procs = []
    bases = []
    try:
        def setup() -> float:
            for proc in procs:
                common.stop(proc)
            start = time.perf_counter()
            proc, base = common.start_daemon(work / f"daemon{len(bases)}")
            procs.append(proc)
            bases.append(base)
            return time.perf_counter() - start

        values["setup_s"] = common.normalised_setups(setup, SETUPS)
        base = bases[-1]

        client = ServeClient(base, timeout_s=30)
        spans = common.Spans(trace)
        for index in range(CLIENTS):
            for cell in cells.small_cells(seed)[index::CLIENTS][:WARMUP_JOBS]:
                _job(client, spans, _Op(cell, False), False)
        before = parse_prometheus(client.metrics_text())
        cpu_before = common.proc_cpu_s(procs[-1].pid)

        shared = _Shared(spans, outcome)
        speed = common.HostSpeed()
        # A fixed number of jobs, sized from --seconds: the daemon keeps
        # every job in memory, so its peak RSS depends on how many ran.
        count = max(2, round(seconds * OPS_PER_S / CLIENTS))
        if count > len(cells.small_cells(seed)) // CLIENTS - WARMUP_JOBS:
            raise ValueError(f"--seconds {seconds} needs more fresh cells than exist")
        threads = [
            # Daemon threads: a terminated run must not wait for them.
            threading.Thread(
                target=_client, args=(base, seed, index, count, trace, shared), daemon=True
            )
            for index in range(CLIENTS)
        ]
        shared.gate.sample(speed)
        pauses = []
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        while not shared.finished.wait(SAMPLE_EVERY_S):
            pauses.append(shared.gate.sample(speed))
        for thread in threads:
            thread.join()
        end = max(shared.ends)
        # A pause that began once every client had finished is not in
        # the window.
        window = end - start - sum(stop - begin for begin, stop in pauses if stop <= end)
        values["host.speed_factor"] = speed.factor
        values["serve.daemon_cpu_frac"] = (
            common.proc_cpu_s(procs[-1].pid) - cpu_before
        ) / window
        after = parse_prometheus(client.metrics_text())
        values["peak_rss_mb"] = common.proc_peak_rss_mb(procs[-1].pid)
    finally:
        for proc in procs:
            common.stop(proc)
        shutil.rmtree(work, ignore_errors=True)

    # Output checks, outside the window: every result equals an
    # in-process run of the same cell.
    references: Dict[cells.SmallCell, str] = {}
    fresh: List[_Op] = []
    repeats: List[_Op] = []
    for op in shared.ops:
        if op.view["state"] != "done":
            outcome.fail(f"{op.cell}: job {op.view['state']}: {op.view.get('error')}")
            continue
        if op.cell not in references:
            references[op.cell] = api.simulate(
                config=op.cell.config(), workload=op.cell.workload
            ).canonical_json()
        if _text(op.view) != references[op.cell]:
            outcome.fail(f"{op.cell}: served bytes differ from repro.api.simulate")
            continue
        (repeats if op.repeat else fresh).append(op)

    def delta(name: str, **labels: str) -> float:
        return common.prom_delta(before, after, name, **labels)

    done_delta = delta("serve_jobs_terminal_total", state="done")
    outcome.check(
        done_delta == len(fresh),
        f"serve_jobs_terminal_total{{state=\"done\"}} delta {done_delta} != "
        f"{len(fresh)} fresh jobs the clients saw done",
    )
    outcome.check(bool(fresh), "no fresh job completed")
    served = max(1, len(fresh))
    exec_count = delta("serve_job_seconds_count")
    exec_mean = delta("serve_job_seconds_sum") / exec_count if exec_count else 0.0

    # Reference-host seconds for the CPU-bound share of each job only.
    # A closed-loop client spends the window on its jobs back to back, so
    # the window scales with the sum of their latencies.
    factor = speed.factor

    def reference(op: _Op) -> float:
        cpu = op.latency if op.repeat else op.submit_s + exec_mean
        return op.latency - cpu * (1 - 1 / factor)

    measured = sum(op.latency for op in shared.ops) or 1.0
    window_ref = window * sum(reference(op) for op in shared.ops) / measured
    latencies = [reference(op) for op in fresh]
    results = [SimulationResult.from_dict(op.view["result"]) for op in fresh]
    values["sim_instr_per_s"] = sum(r.stats.instructions for r in results) / window_ref
    values["cells_per_s"] = len(fresh) / window_ref
    values["op_latency_p50_s"] = common.percentile(latencies, 50)
    values["bench.op_latency_p90_s"] = common.percentile(latencies, 90)
    for name in ("sim_instr_per_s", "cells_per_s", "op_latency_p50_s", "bench.op_latency_p90_s"):
        outcome.samples[name] = len(fresh)
    model_counts(values, results)

    values["serve.submit_s_p50"] = common.percentile([op.submit_s for op in shared.ops], 50)
    values["serve.exec_s_mean"] = exec_mean
    values["serve.wait_s_mean"] = (
        sum(op.latency - op.submit_s for op in fresh) / served - exec_mean
    )
    values["serve.polls_per_job"] = sum(op.polls for op in fresh) / served
    values["serve.dedup_ratio"] = (
        delta("serve_jobs_submitted_total", dedup="hit") / len(repeats) if repeats else 0.0
    )
    values["serve.repeat_latency_p50_s"] = (
        common.percentile([op.latency for op in repeats], 50) if repeats else 0.0
    )
    outcome.samples["serve.repeat_latency_p50_s"] = len(repeats)
    values["parallel.cache_hits"] = delta("sweep_cells_total", source="cache")
    values["parallel.cells_simulated"] = delta("sweep_cells_total", source="simulated")
    values["serve.rejections"] = delta("serve_admission_rejections_total")
    values["serve.requeues"] = delta("serve_requeues_total")
    values["serve.lease_expirations"] = delta("serve_lease_expirations_total")
    if trace:
        values["bench.unattributed_s"] = spans.unattributed_s()
        traced = [op.latency for op in fresh if op.traced]
        untraced = [op.latency for op in fresh if not op.traced]
        values["bench.trace_overhead"] = (
            (sum(traced) / len(traced)) / (sum(untraced) / len(untraced))
            if traced and untraced
            else 0.0
        )
        spans.dump(common.RUN_DIR / f"spans-{workload}.jsonl")
