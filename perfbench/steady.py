"""Steadiness evidence: run the benchmark over many seeds and report
each end-to-end metric's median, quartiles and spread.

    python3 perfbench/steady.py --seeds 1-10 --workloads sim-sweep,serve-mixed

Spread is ``(q3 - q1) / median`` with the quartiles of
``statistics.quantiles(values, n=4)``; it is compared against a third
of the metric's bound in ``BENCHMARK.json``.  Every run's host
calibration and load average, at its start and end, are listed so an
unsteady run can be explained.  Prints a markdown report.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys

import common

_HOST_RE = re.compile(r"# host (.*)$")


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int = 0):
    proc = subprocess.run(
        [sys.executable, str(common.ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(common.ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    host = {}
    for line in lines:
        match = _HOST_RE.match(line)
        if match:
            host = dict(item.split("=") for item in match.group(1).split())
    return json.loads(lines[-1]), host


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="default: all")
    args = parser.parse_args(argv)
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    workloads = (
        args.workloads.split(",") if args.workloads
        else [w["name"] for w in spec["workloads"]]
    )
    seeds = _seeds(args.seeds)
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        print(f"\n### {workload} ({len(seeds)} runs, {spec['run_seconds']} s each)\n")
        names = list(values)
        print(
            "| seed | correct | attempted | failed | calib start/end (s) | load start/end "
            "| speed factor | wall (s) | " + " | ".join(names) + " |"
        )
        print("|---" * (8 + len(names)) + "|")
        for seed in seeds:
            result, host = run_once(workload, seed, spec["run_seconds"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(
                f"| {seed} | {result['correct']} | {result['attempted']} | "
                f"{result['failed']} | {host.get('calib_start_s')}/{host.get('calib_end_s')} | "
                f"{host.get('load_start')}/{host.get('load_end')} | "
                f"{host.get('speed_factor')} | {host.get('run_wall_s')} | "
                + " | ".join(f"{values[name][-1]:.6g}" for name in names)
                + " |",
                flush=True,
            )
        print("\n| metric | unit | median | q1 | q3 | spread | bound/3 |")
        print("|---|---|---|---|---|---|---|")
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / metric["bound"])
            print(
                f"| {metric['name']} | {metric['unit']} | {med:.6g} | {q1:.6g} | "
                f"{q3:.6g} | {spread:.4f} | {metric['bound'] / 3:.4f} |",
                flush=True,
            )
    print(f"\nworst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
