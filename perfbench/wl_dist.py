"""``dist-sweep``: sweeps sharded through a coordinator to one worker.

The coordinator is ``python -m repro.serve --dist-journal``; the worker
is ``python -m repro.harness worker`` with default flags (its idle poll
is 0.5 s).  One client shards a sweep of fresh small-geometry cells
with ``POST /dist/shard``, polls ``POST /dist/assemble`` until the
sweep is complete and shards the next one; the assembled bytes are
checked after the window.  The wire cells carry workload names only,
so the seed picks the cell sequence, not the workload traces.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, List, Tuple

from repro import api
from repro.core.results import SimulationResult
from repro.dist.protocol import cell_to_wire
from repro.dist.transport import HttpTransport, TransportError
from repro.parallel.cells import Cell
from repro.prof.export import parse_prometheus
from repro.serve.client import ServeClient
from repro.workloads.base import TIMING_MISS_SCALE

import cells
import common
from wl_sim import model_counts

SETUPS = 5
#: Cells per sweep: the median ``run_matrix`` call of the figure drivers
#: (``python -m repro.harness all``) asks for 30 cells, the unit a caller
#: shards (``perfbench/derive_mix.py`` replays the count).
SWEEP_CELLS = 30
#: ``/dist/assemble`` poll interval: the 20 ms the distributed chaos
#: drill polls cell states with; it resolves a sweep's latency to a few
#: percent without loading the coordinator with polls.
POLL_S = 0.02
SWEEP_TIMEOUT_S = 120.0


class Refused(RuntimeError):
    """A non-200 answer from a ``/dist/*`` route."""

    def __init__(self, route: str, status: int, body):
        super().__init__(f"{route} answered {status}: {body}")
        self.status = status


def _start(directory):
    """Coordinator start to ready, then worker start to its first lease
    poll; returns ``(coordinator, worker, base_url, seconds)``."""
    start = time.perf_counter()
    coordinator, base = common.start_daemon(
        directory, "--dist-journal", str(directory / "cells.jsonl")
    )
    worker = common.spawn(["-m", "repro.harness", "worker", "--coordinator", base])
    transport = HttpTransport(base)

    def live():
        if worker.poll() is not None:
            raise RuntimeError(f"worker exited with {worker.returncode}")
        status, body = transport.request("GET", "/dist/status")
        return status == 200 and body["workers_live"] >= 1

    try:
        common.wait_for(live, 60, "the worker's first lease poll")
    except BaseException:
        common.stop(worker)
        common.stop(coordinator)
        raise
    return coordinator, worker, base, time.perf_counter() - start


def _wire(cell: cells.SmallCell) -> Dict:
    return cell_to_wire(
        Cell("bench", cell.workload, cell.config(), None, TIMING_MISS_SCALE)
    )


def _sweep(transport, spans, wires, traced) -> Tuple[List[Dict], float, float, List[float]]:
    """Shard one sweep and poll until it is assembled."""
    op = spans.new_op() if traced else 0
    start = time.perf_counter()
    with spans.span("sweep", op):
        with spans.span("dist.shard", op):
            status, body = transport.request("POST", "/dist/shard", {"cells": wires})
        shard_s = time.perf_counter() - start
        if status != 200:
            raise Refused("/dist/shard", status, body)
        keys = body["keys"]
        assembles = []
        while True:
            polled = time.perf_counter()
            with spans.span("dist.assemble", op):
                status, body = transport.request("POST", "/dist/assemble", {"keys": keys})
            assembles.append(time.perf_counter() - polled)
            if status != 200:
                raise Refused("/dist/assemble", status, body)
            if body["complete"]:
                break
            if time.perf_counter() - start > SWEEP_TIMEOUT_S:
                raise TimeoutError("sweep not assembled")
            with spans.span("dist.poll_sleep", op):
                time.sleep(POLL_S)
    return body["cells"], time.perf_counter() - start, shard_s, assembles


def run(workload: str, seed: int, seconds: float, trace: bool, outcome: common.Outcome) -> None:
    values = outcome.values
    work = common.RUN_DIR / "work" / f"dist-{os.getpid()}"
    procs = []
    sweeps = []
    spans = common.Spans(trace)
    bases = []
    try:
        def setup() -> float:
            for proc in reversed(procs):
                common.stop(proc)
            coordinator, worker, base, seconds = _start(work / f"coord{len(bases)}")
            procs[:] = [coordinator, worker]
            bases.append(base)
            return seconds

        values["setup_s"] = common.normalised_setups(setup, SETUPS)
        base = bases[-1]

        transport = HttpTransport(base, timeout_s=30)
        client = ServeClient(base, timeout_s=30)
        pool = cells.small_cells(seed)
        # One sweep before the window: the worker's first cells pay its
        # imports.
        _sweep(transport, spans, [_wire(c) for c in pool[:SWEEP_CELLS]], False)
        pool = pool[SWEEP_CELLS:]
        before = parse_prometheus(client.metrics_text())
        speed = common.HostSpeed()
        speed.sample(8)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            chunk, pool = pool[:SWEEP_CELLS], pool[SWEEP_CELLS:]
            if len(chunk) < SWEEP_CELLS:
                raise RuntimeError("the small-geometry cell space ran out")
            wires = [_wire(c) for c in chunk]
            # With --trace 1 the first half runs untraced, the second
            # traced: the ratio of their mean latencies is the overhead.
            traced = trace and time.perf_counter() - start >= seconds / 2
            outcome.attempted += 1
            try:
                rows, latency, shard_s, assembles = _sweep(transport, spans, wires, traced)
            except Refused as exc:
                # Back-pressure (429/503) only counts as failed; any other
                # answer is wrong.
                outcome.fail(f"sweep: {exc}", wrong=exc.status not in (429, 503))
                continue
            except (TransportError, TimeoutError) as exc:
                outcome.fail(f"sweep: {type(exc).__name__}: {exc}", wrong=False)
                continue
            sweeps.append((chunk, rows, latency, shard_s, assembles, traced))
        window = time.perf_counter() - start
        speed.sample(8)
        values["host.speed_factor"] = speed.factor
        after = parse_prometheus(client.metrics_text())
        values["peak_rss_mb"] = sum(common.proc_peak_rss_mb(p.pid) for p in procs)
    finally:
        for proc in reversed(procs):
            common.stop(proc)
        shutil.rmtree(work, ignore_errors=True)

    # Output checks, outside the window: every assembled result string
    # equals repro.api.simulate(...).canonical_json() for its cell.
    results: List[SimulationResult] = []
    in_process_s = 0.0
    good = []
    for chunk, rows, latency, shard_s, assembles, traced in sweeps:
        ok = True
        for cell, row in zip(chunk, rows):
            started = time.perf_counter()
            reference = api.simulate(config=cell.config(), workload=cell.workload)
            in_process_s += time.perf_counter() - started
            if row["state"] != "done" or row["result"] != reference.canonical_json():
                ok = False
                outcome.fail(f"{cell}: assembled {row['state']} result differs from repro.api.simulate")
                break
            results.append(reference)
        if ok:
            good.append((latency, shard_s, assembles, traced))

    def delta(name: str, **labels: str) -> float:
        return common.prom_delta(before, after, name, **labels)

    verified = delta("dist_results_total")
    outcome.check(
        verified == len(sweeps) * SWEEP_CELLS,
        f"dist_results_total delta {verified} != {len(sweeps) * SWEEP_CELLS} cells assembled",
    )

    outcome.check(bool(good), "no sweep was assembled")
    assembled = max(1, len(results))

    latencies = [latency for latency, _, _, _ in good]
    values["sim_instr_per_s"] = sum(r.stats.instructions for r in results) / window
    values["cells_per_s"] = len(results) / window
    values["op_latency_p50_s"] = common.percentile(latencies, 50)
    values["bench.op_latency_p90_s"] = common.percentile(latencies, 90)
    outcome.samples["cells_per_s"] = outcome.samples["sim_instr_per_s"] = len(results)
    outcome.samples["op_latency_p50_s"] = outcome.samples["bench.op_latency_p90_s"] = len(good)
    model_counts(values, results)

    all_assembles = [s for _, _, assembles, _ in good for s in assembles]
    values["dist.shard_s"] = common.percentile([s for _, s, _, _ in good], 50)
    values["dist.assemble_s"] = common.percentile(all_assembles, 50)
    values["dist.polls_per_sweep"] = len(all_assembles) / max(1, len(good))
    values["dist.overhead_per_cell_s"] = (sum(latencies) - in_process_s) / assembled
    values["dist.lease_expirations"] = delta("dist_lease_expirations_total")
    values["dist.stale_results"] = delta("dist_stale_results_total")
    values["dist.rejected_results"] = delta("dist_rejected_results_total")
    if trace:
        values["bench.unattributed_s"] = spans.unattributed_s()
        traced = [latency for latency, _, _, t in good if t]
        untraced = [latency for latency, _, _, t in good if not t]
        values["bench.trace_overhead"] = (
            (sum(traced) / len(traced)) / (sum(untraced) / len(untraced))
            if traced and untraced
            else 0.0
        )
        spans.dump(common.RUN_DIR / f"spans-{workload}.jsonl")
