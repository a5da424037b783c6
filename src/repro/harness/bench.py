"""``python -m repro.harness bench`` — calibrated perf benchmarking.

Runs a matrix of paper figures through the :mod:`repro.api` facade with
the :mod:`repro.prof` phase profiler installed, and writes one
schema-versioned ``BENCH_<n>.json`` report (see
:mod:`repro.prof.benchfile`) recording per-figure wall time, sweep-cell
throughput, simulated-cycle throughput, the host-time phase breakdown,
peak RSS, and a snapshot of the unified metrics registry.

``--observed`` re-runs each figure a second time, after the untraced
matrix and its registry snapshot, with event tracing and span
recording live (via :func:`repro.core.simulator.trace_override`
— the configs, results, and cache keys are untouched) and records
``observed_wall_s`` / ``observed_overhead`` per figure and in totals:
the measured price of full observability.

Two calibrated matrices:

- ``--quick`` (the default): four representative figures x two
  workloads, sized to finish in well under a minute on a laptop — the
  CI smoke matrix.
- ``--full``: every figure over every workload — the number that
  matters before/after a performance PR.

The run always executes serially (``jobs=1``): the profiler attributes
host time in-process, and worker subprocesses would escape it.  Each
new report is compared against the most recent prior ``BENCH_*.json``
in the output directory (or an explicit ``--compare PATH`` baseline);
the verdict is informational unless ``--strict``, which exits non-zero
on a regression.
"""

from __future__ import annotations

import argparse
import pathlib
import platform
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.api import figure as api_figure
from repro.core.config import TraceConfig
from repro.core.simulator import trace_override
from repro.engines import available_engines
from repro.harness.figures import ALL_FIGURES
from repro.obs.spans import SpanRecorder, record_spans
from repro.prof import benchfile
from repro.prof.export import registry_to_dict
from repro.prof.profiler import PhaseProfiler, profile
from repro.prof.registry import REGISTRY
from repro.workloads.registry import workload_names

#: The quick matrix: one figure per subsystem the profiler instruments
#: (naive TLB, miss latency, non-blocking TLB, PTW scheduling), small
#: enough for CI smoke runs.
QUICK_FIGURES = ("fig02", "fig04", "fig07", "fig10")
QUICK_WORKLOADS = ("bfs", "kmeans")


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise
    to kilobytes so reports compare across hosts.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


def _host() -> Dict[str, Any]:
    import os

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def _git() -> Optional[Dict[str, Any]]:
    """The commit this report measured: ``{"commit", "dirty"}``.

    Returns None when the tree is not a git checkout (or git is
    missing) — the key is optional in the schema so reports stay
    comparable across packaging contexts.
    """
    import subprocess

    here = pathlib.Path(__file__).resolve().parent
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if commit.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return {
        "commit": commit.stdout.strip(),
        "dirty": bool(status.stdout.strip())
        if status.returncode == 0
        else None,
    }


#: The observed pass's trace configuration: ring-only event tracing
#: (no file sinks) plus interval sampling — what a traced production
#: run pays at minimum.
OBSERVED_TRACE = TraceConfig(
    enabled=True, ring_capacity=4096, interval_cycles=250
)


def run_bench(
    figures: Sequence[str],
    workloads: Optional[Sequence[str]],
    mode: str,
    stream=None,
    engine: Optional[str] = None,
    observed: bool = False,
) -> Dict[str, Any]:
    """Run the matrix and build the report dict (not yet written)."""
    REGISTRY.clear()
    report_figures: Dict[str, Any] = {}
    total_wall = 0.0
    total_cells = 0
    total_cycles = 0
    total_observed = 0.0
    walls: Dict[str, float] = {}
    for name in figures:
        if stream is not None:
            stream.write(f"[bench] {name} ...\n")
            stream.flush()
        profiler = PhaseProfiler()
        start = time.perf_counter()
        with profile(profiler):
            api_figure(
                name=name,
                workloads=list(workloads) if workloads else None,
                jobs=1,
                engine=engine,
            )
        wall = time.perf_counter() - start
        cells = profiler.counts.get("cells", 0)
        cycles = profiler.counts.get("sim_cycles", 0)
        report_figures[name] = {
            "wall_s": round(wall, 4),
            "cells": cells,
            "cells_per_s": round(cells / wall, 4) if wall > 0 else 0.0,
            "sim_cycles": cycles,
            "cycles_per_s": round(cycles / wall, 1) if wall > 0 else 0.0,
            "phases": profiler.to_dict()["phases"],
        }
        walls[name] = wall
        total_wall += wall
        total_cells += cells
        total_cycles += cycles
        if stream is not None:
            stream.write(
                f"[bench] {name}: {wall:.2f}s, {cells} cells, "
                f"{cycles} cycles\n"
            )
            stream.flush()
    # Snapshot before any observed pass: the registry must count each
    # figure's cells once, as the totals do.
    metrics = registry_to_dict(REGISTRY)
    for name in figures if observed else ():
        # The observed column: the same figure with event tracing and
        # span recording live for every cell.  Results are
        # byte-identical (pinned by tests/engines/test_observers.py);
        # the ratio is the price of full observability.
        recorder = SpanRecorder(keep_slowest=5)
        start = time.perf_counter()
        with trace_override(OBSERVED_TRACE), record_spans(recorder):
            api_figure(
                name=name,
                workloads=list(workloads) if workloads else None,
                jobs=1,
                engine=engine,
            )
        observed_wall = time.perf_counter() - start
        total_observed += observed_wall
        wall = walls[name]
        entry = report_figures[name]
        entry["observed_wall_s"] = round(observed_wall, 4)
        entry["observed_overhead"] = (
            round(observed_wall / wall, 3) if wall > 0 else 0.0
        )
        if stream is not None:
            stream.write(
                f"[bench] {name}: observed {observed_wall:.2f}s "
                f"(x{entry['observed_overhead']:.2f})\n"
            )
            stream.flush()
    report: Dict[str, Any] = {
        "schema_version": benchfile.BENCH_SCHEMA_VERSION,
        "kind": "repro-bench",
        "mode": mode,
        "host": _host(),
        "figures": report_figures,
        "totals": {
            "wall_s": round(total_wall, 4),
            "cells": total_cells,
            "cells_per_s": (
                round(total_cells / total_wall, 4) if total_wall > 0 else 0.0
            ),
            "sim_cycles": total_cycles,
            "cycles_per_s": (
                round(total_cycles / total_wall, 1) if total_wall > 0 else 0.0
            ),
            "peak_rss_kb": _peak_rss_kb(),
        },
        "metrics": metrics,
    }
    if observed:
        report["totals"]["observed_wall_s"] = round(total_observed, 4)
        report["totals"]["observed_overhead"] = (
            round(total_observed / total_wall, 3) if total_wall > 0 else 0.0
        )
    if engine is not None:
        report["engine"] = engine
    git = _git()
    if git is not None:
        report["git"] = git
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness bench",
        description="Benchmark the figure matrix and record a "
        "BENCH_<n>.json perf-trajectory report.",
    )
    matrix = parser.add_mutually_exclusive_group()
    matrix.add_argument(
        "--quick",
        action="store_true",
        help="the calibrated smoke matrix "
        f"({','.join(QUICK_FIGURES)} x {','.join(QUICK_WORKLOADS)}; "
        "the default)",
    )
    matrix.add_argument(
        "--full",
        action="store_true",
        help="every figure over every workload",
    )
    parser.add_argument(
        "--figures",
        default=None,
        help="comma-separated figure subset (overrides the matrix)",
    )
    parser.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload subset (overrides the matrix)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="report path (default: next BENCH_<n>.json in --dir)",
    )
    parser.add_argument(
        "--dir",
        default=".",
        metavar="DIR",
        help="directory holding the BENCH_<n>.json sequence "
        "(default: current directory)",
    )
    parser.add_argument(
        "--compare",
        nargs="?",
        const="auto",
        default="auto",
        metavar="PATH",
        help="baseline report to compare against (default: the most "
        "recent prior BENCH_<n>.json; 'none' disables)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=benchfile.DEFAULT_THRESHOLD,
        help="regression threshold as a fraction "
        f"(default {benchfile.DEFAULT_THRESHOLD})",
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=sorted(available_engines()),
        help="simulator core to benchmark (default: each config's own, "
        "normally 'event'; recorded in the report when set)",
    )
    parser.add_argument(
        "--observed",
        action="store_true",
        help="add an observed column: re-run each figure with event "
        "tracing and span recording live (byte-identical results) and "
        "record the wall time plus overhead ratio",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when the comparison verdict is a regression",
    )
    args = parser.parse_args(argv)

    if args.figures:
        figures = args.figures.split(",")
        mode = "custom"
    elif args.full:
        figures = list(ALL_FIGURES)
        mode = "full"
    else:
        figures = list(QUICK_FIGURES)
        mode = "quick"
    unknown = [f for f in figures if f not in ALL_FIGURES]
    if unknown:
        print(
            f"unknown figure(s) {unknown}; choose from "
            f"{sorted(ALL_FIGURES)}",
            file=sys.stderr,
        )
        return 2

    if args.workloads:
        workloads: Optional[List[str]] = args.workloads.split(",")
        if not args.figures:
            mode = "custom"
    elif args.full:
        workloads = None
    else:
        workloads = list(QUICK_WORKLOADS)
    if workloads:
        known = set(workload_names())
        bad = [w for w in workloads if w not in known]
        if bad:
            print(
                f"unknown workload(s) {bad}; choose from {sorted(known)}",
                file=sys.stderr,
            )
            return 2

    root = pathlib.Path(args.dir)
    if not root.is_dir():
        print(f"--dir {root} is not a directory", file=sys.stderr)
        return 2
    # Resolve the baseline BEFORE running: the new report must not be
    # its own baseline, and an explicit bad path should fail fast.
    baseline_path: Optional[pathlib.Path]
    if args.compare == "none":
        baseline_path = None
    elif args.compare == "auto":
        baseline_path = benchfile.latest_bench_path(root)
    else:
        baseline_path = pathlib.Path(args.compare)
        if not baseline_path.is_file():
            print(
                f"--compare baseline {baseline_path} not found",
                file=sys.stderr,
            )
            return 2
    out = (
        pathlib.Path(args.out)
        if args.out
        else benchfile.next_bench_path(root)
    )

    report = run_bench(
        figures,
        workloads,
        mode,
        stream=sys.stderr,
        engine=args.engine,
        observed=args.observed,
    )
    benchfile.save(report, out)
    totals = report["totals"]
    print(
        f"wrote {out}: {len(report['figures'])} figures, "
        f"{totals['cells']} cells in {totals['wall_s']:.2f}s "
        f"({totals['cells_per_s']:.2f} cells/s, "
        f"peak RSS {totals['peak_rss_kb']} kB)"
    )

    if baseline_path is None:
        return 0
    try:
        baseline = benchfile.load(baseline_path)
    except ValueError as error:
        print(f"skipping comparison: {error}", file=sys.stderr)
        return 0
    comparison = benchfile.compare(
        report,
        baseline,
        baseline_name=baseline_path.name,
        threshold=args.threshold,
    )
    print(comparison.render())
    if args.strict and comparison.verdict == benchfile.VERDICT_REGRESSION:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
