"""``sim-sweep`` and ``sim-observed``: full-geometry cells in-process.

One thread runs rounds of (design point x paper workload) cells through
``repro.api.simulate`` and serialises each result.  ``sim-observed``
runs the same draw with observation on (ring tracing plus interval
sampling, and span recording), as ``harness bench --observed`` does.

With ``--trace 1`` each cell runs twice: once as above, timed, and once
decomposed into the public calls ``repro.api.simulate`` makes
(``Workload.build``, ``Simulator._build``, ``Simulator.run``,
``record_result``) plus ``canonical_json``, each inside a benchmark
span, under ``repro.prof.profile()``.
"""

from __future__ import annotations

import contextlib
import json
import random
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from repro import api
from repro.core.results import SimulationResult
from repro.core.simulator import Simulator, trace_override
from repro.harness.bench import OBSERVED_TRACE
from repro.obs.spans import SpanRecorder, record_spans
from repro.prof.profiler import PhaseProfiler, profile
from repro.prof.registry import REGISTRY, record_result

import cells
import common

#: Set-ups timed per run; setup_s is their median.
SETUPS = 5
#: sim-sweep cells re-run on the ``cycle`` reference engine per run.
ORACLE_CELLS = 2
#: A run does ``--seconds / CYCLE_S`` cycles (at least one) of six
#: rounds of 14 cells, so every (design point, workload) cell runs in
#: every run.  One untraced cycle takes about this long on a 2-vCPU
#: Xeon host (an observed one about twice as long).  Both workloads run
#: the same cells.
CYCLE_S = 15.0

#: profiler phase -> per-layer metric stem.
PHASES = {
    "warp_scheduler": "gpu.warp_scheduler",
    "tlb_lookup": "tlb.lookup",
    "ptw_walk": "ptw.walk",
    "ptw_schedule": "ptw.schedule",
    "cache_l1": "mem.l1",
    "cache_l2": "mem.l2",
    "dram": "mem.dram",
}
#: Phases whose calls are also counted for the no_tlb cells alone (the
#: translation bypass: they must stay 0).
SPLIT = ("tlb.lookup", "ptw.walk", "ptw.schedule")


def _setup_once(seed: int) -> float:
    """Seconds from process start to a warm memo (``warm.py``)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(common.ROOT / "perfbench" / "warm.py"), str(seed)],
        cwd=str(common.ROOT),
        env=common.child_env(),
        stdout=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return seconds


def _registry_sim() -> Dict[str, float]:
    return {
        metric.name[len("sim_"):]: sum(metric.series().values())
        for metric in REGISTRY.metrics()
        if metric.kind == "counter" and metric.name.startswith("sim_")
    }


def _check_registry(outcome, before, results, what: str) -> None:
    """The ``sim_*`` REGISTRY deltas of a pass equal its results' totals."""
    after = _registry_sim()
    delta = {name: after[name] - before.get(name, 0) for name in after}
    expected = common.sum_fields(results, list(delta))
    wrong = {
        name: (delta[name], expected[name])
        for name in delta
        if delta[name] != expected[name]
    }
    outcome.check(bool(delta) or not results, f"{what}: no sim_* metrics recorded")
    outcome.check(
        not wrong,
        f"{what}: REGISTRY sim_* delta != sum of results (delta, results): {wrong}",
    )


def _observing(observed: bool):
    stack = contextlib.ExitStack()
    if observed:
        stack.enter_context(trace_override(OBSERVED_TRACE))
        stack.enter_context(record_spans(SpanRecorder(keep_slowest=5)))
    return stack


def _plain(cell: cells.SimCell, observed: bool) -> Tuple[SimulationResult, str, float]:
    start = time.perf_counter()
    with _observing(observed):
        result = api.simulate(
            config=cell.config,
            workload=cell.workload,
            form=cell.form,
            miss_scale=cell.miss_scale,
        )
    text = result.canonical_json()
    return result, text, time.perf_counter() - start


def _traced(
    cell: cells.SimCell, observed: bool, spans: common.Spans, profiler: PhaseProfiler
) -> Tuple[SimulationResult, str, float]:
    op = spans.new_op()
    with _observing(observed), profile(profiler):
        start = time.perf_counter()
        with spans.span("cell", op):
            with spans.span("workload.build", op):
                work = cell.workload.build(
                    cell.config, form=cell.form, miss_scale=cell.miss_scale
                )
            with spans.span("core.sim_build", op):
                sim = Simulator._build(cell.config, work, cell.workload.name)
            with spans.span("engines.run", op):
                result = sim.run()
            with spans.span("prof.record_result", op):
                record_result(result, engine=cell.config.engine)
            with spans.span("core.serialize", op):
                text = result.canonical_json()
        elapsed = time.perf_counter() - start
    return result, text, elapsed


def _strip_observation(text: str) -> str:
    data = json.loads(text)
    data["interval_series"] = []
    data["histograms"] = {}
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def run(workload: str, seed: int, seconds: float, trace: bool, outcome: common.Outcome) -> None:
    observed = workload == "sim-observed"
    values = outcome.values
    values["setup_s"] = common.normalised_setups(lambda: _setup_once(seed), SETUPS)

    # This process's own memo, outside the window (its cost is what
    # setup_s measured from outside).
    workloads = cells.seeded_workloads(seed)
    build_s = 0.0
    builds = cells.memo_builds(workloads)
    for source, config, form, miss_scale in builds:
        start = time.perf_counter()
        work = source.build(config, form=form, miss_scale=miss_scale)
        build_s += time.perf_counter() - start
        Simulator._build(config, work, source.name)
    values["workloads.build_s"] = build_s
    values["workloads.builds"] = len(builds)

    spans = common.Spans(trace)
    profilers = {True: PhaseProfiler(), False: PhaseProfiler()}
    done: List[Tuple[cells.SimCell, SimulationResult, str, float]] = []
    twins: List[float] = []
    # Index of the calibration chunk taken just before each done cell.
    chunk_at: List[int] = []
    pass_results: List[SimulationResult] = []
    rounds = cells.sim_rounds(seed, workloads)
    # A fixed number of whole cycles, sized from --seconds, instead of a
    # deadline: every seed then runs every design-point x workload cell
    # equally often, and host-speed swings change the run's length, not
    # its mix.  Traced runs too, so their per-layer figures cover every
    # cell.
    count = len(workloads) * max(1, round(seconds / CYCLE_S))
    speed = common.HostSpeed()
    registry_before = _registry_sim()
    for _ in range(count):
        for cell in next(rounds):
            speed.sample()
            outcome.attempted += 1
            try:
                if trace:
                    twin, twin_text, twin_s = _plain(cell, observed)
                    result, text, elapsed = _traced(
                        cell, observed, spans, profilers[cell.translating]
                    )
                    pass_results += [twin, result]
                    if text != twin_text:
                        outcome.fail(f"{cell.point}/{cell.workload.name}: traced bytes differ")
                        continue
                    twins.append(twin_s)
                else:
                    result, text, elapsed = _plain(cell, observed)
                    pass_results.append(result)
            except Exception as exc:  # noqa: BLE001 — count, keep going
                outcome.fail(f"{cell.point}/{cell.workload.name}: {type(exc).__name__}: {exc}")
                continue
            if observed:
                # Keep only what the post-window check compares, so peak
                # RSS does not grow with the number of cells run.
                text = _strip_observation(text)
                result.interval_series, result.histograms = [], {}
            done.append((cell, result, text, elapsed))
            chunk_at.append(len(speed.samples) - 1)
    speed.sample()
    values["peak_rss_mb"] = common.self_peak_rss_mb()
    _check_registry(outcome, registry_before, pass_results, "window pass")

    for cell, result, text, _ in done:
        if SimulationResult.from_json(text).canonical_json() != text:
            outcome.fail(f"{cell.point}/{cell.workload.name}: result does not round-trip")

    observed_ratio = 0.0
    if observed:
        # Observation must not perturb results: each observed cell equals
        # its untraced run once the observation-only fields are stripped.
        registry_before = _registry_sim()
        untraced_results, untraced_s, observed_s = [], 0.0, 0.0
        for index, (cell, result, text, elapsed) in enumerate(done):
            plain, plain_text, plain_s = _plain(cell, False)
            untraced_results.append(plain)
            untraced_s += plain_s
            observed_s += twins[index] if trace else elapsed
            if text != plain_text:
                outcome.fail(f"{cell.point}/{cell.workload.name}: observed bytes differ")
        _check_registry(outcome, registry_before, untraced_results, "untraced twin pass")
        observed_ratio = observed_s / untraced_s if untraced_s else 0.0
    else:
        rng = random.Random(f"oracle-{seed}")
        for cell, result, text, _ in rng.sample(done, min(ORACLE_CELLS, len(done))):
            oracle = api.simulate(
                config=cell.config,
                workload=cell.workload,
                form=cell.form,
                miss_scale=cell.miss_scale,
                engine="cycle",
            ).canonical_json()
            if oracle != text:
                outcome.fail(f"{cell.point}/{cell.workload.name}: differs from the cycle engine")

    # End-to-end times in reference-host seconds (see common.HostSpeed):
    # each cell's by the chunks just before and after it, which follow
    # the host's fast and slow spells better than one run-wide factor.
    values["host.speed_factor"] = speed.factor
    elapsed = [
        e / speed.factor_around(at) for (_, _, _, e), at in zip(done, chunk_at)
    ]
    instructions = sum(result.stats.instructions for _, result, _, _ in done)
    outcome.check(bool(done), "no cell completed")
    busy = sum(elapsed) or 1.0
    values["sim_instr_per_s"] = instructions / busy
    values["cells_per_s"] = len(done) / busy
    values["op_latency_p50_s"] = common.percentile(elapsed, 50)
    values["bench.op_latency_p90_s"] = common.percentile(elapsed, 90)
    for name in ("sim_instr_per_s", "cells_per_s", "op_latency_p50_s", "bench.op_latency_p90_s"):
        outcome.samples[name] = len(done)
    values["obs.observed_ratio"] = observed_ratio
    model_counts(values, [result for _, result, _, _ in done])

    if trace:
        times = spans.self_times()
        values["core.sim_build_s"] = times["core.sim_build"]["total_s"]
        values["core.serialize_s"] = times["core.serialize"]["total_s"]
        values["engines.run_s"] = times["engines.run"]["total_s"]
        values["engines.host_ns_per_instr"] = (
            times["engines.run"]["total_s"] * 1e9 / instructions
        )
        phases = {t: p.to_dict()["phases"] for t, p in profilers.items()}

        def phase(name: str, key: str, translating=(True, False)) -> float:
            return sum(phases[t].get(name, {}).get(key, 0) for t in translating)

        values["engines.self_s"] = phase("simulate", "self_s")
        values["engines.event_skip_s"] = phase("event_skip", "self_s")
        for name, stem in PHASES.items():
            values[f"{stem}_s"] = phase(name, "self_s")
            values[f"{stem}_calls"] = phase(name, "calls")
            if stem in SPLIT:
                values[f"{stem}_calls.no_tlb"] = phase(name, "calls", (False,))
        values["bench.unattributed_s"] = spans.unattributed_s()
        values["bench.trace_overhead"] = sum(e for _, _, _, e in done) / sum(twins)
        spans.dump(common.RUN_DIR / f"spans-{workload}.jsonl")


def model_counts(values: Dict[str, float], results: List[SimulationResult]) -> None:
    """Exact model counts over ``results``: a change that only speeds
    up the simulator must leave every one of them unchanged."""
    fields = (
        "cycles", "instructions", "tlb_lookups", "tlb_misses",
        "tlb_mshr_stalls", "walks", "walk_refs_issued", "walk_refs_naive",
        "l1_misses", "l2_misses", "dram_requests",
    )
    totals = common.sum_fields(results, fields)
    values["core.sim_cycles"] = totals["cycles"]
    values["core.instructions"] = totals["instructions"]
    values["tlb.lookups"] = totals["tlb_lookups"]
    values["tlb.misses"] = totals["tlb_misses"]
    values["tlb.mshr_stalls"] = totals["tlb_mshr_stalls"]
    values["ptw.walks"] = totals["walks"]
    values["ptw.walk_refs_issued"] = totals["walk_refs_issued"]
    values["ptw.walk_refs_naive"] = totals["walk_refs_naive"]
    values["ptw.coalesce_ratio"] = (
        totals["walk_refs_issued"] / totals["walk_refs_naive"]
        if totals["walk_refs_naive"]
        else 0.0
    )
    values["mem.l1_misses"] = totals["l1_misses"]
    values["mem.l2_misses"] = totals["l2_misses"]
    values["mem.dram_requests"] = totals["dram_requests"]
