"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 12 --trace 0

Workloads (see ``perfbench/METRICS.md`` for why each exists):

- ``sim-sweep``: full-geometry design-point cells in-process;
- ``sim-observed``: the same draw with observation on;
- ``serve-mixed``: fresh and repeated jobs against a ``repro.serve``
  daemon, two closed-loop clients;
- ``dist-sweep``: sweeps sharded through a coordinator to one worker.

With ``--trace 0`` the last stdout line carries every end-to-end
metric of ``BENCHMARK.json``; with ``--trace 1`` every per-layer one.
The lines before it print each metric with its sample count, the host
calibration and the load average at the start and end of the run.
Exits 1 when an output check fails or the workload stops on an error
(the result line is still printed, with ``"correct": false``), 2 when
the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time
import traceback

import common

WORKLOADS = ("sim-sweep", "sim-observed", "serve-mixed", "dist-sweep")


def _module(workload: str):
    if workload.startswith("sim-"):
        import wl_sim as module
    elif workload == "serve-mixed":
        import wl_serve as module
    else:
        import wl_dist as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = common.ROOT / "BENCHMARK.json"
    if not (common.SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            f"no program to measure: {common.SRC / 'repro'} or {spec_path} is missing",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(common.SRC))
    # A terminated run still stops its daemons (the workloads' finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    calib_start, load_start = common.calibrate(), common.loadavg()
    started = time.perf_counter()
    common.RUN_DIR.mkdir(exist_ok=True)
    outcome = common.Outcome()
    try:
        _module(args.workload).run(
            args.workload, args.seed, args.seconds, bool(args.trace), outcome
        )
    except Exception as exc:  # noqa: BLE001 — reported in the result line
        traceback.print_exc()
        outcome.check(False, f"{args.workload} stopped: {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - started
    calib_end, load_end = common.calibrate(), common.loadavg()
    values = outcome.values
    values.update({
        "host.calib_s": calib_start,
        "host.calib_end_s": calib_end,
        "host.loadavg_start": load_start,
        "host.loadavg_end": load_end,
        "bench.failed_frac": outcome.failed / max(1, outcome.attempted),
    })

    metrics = {}
    unmeasured = []
    for entry in declared:
        name = entry["name"]
        if name not in values:
            if not args.trace and not outcome.problems:
                raise KeyError(f"{args.workload} did not measure {name}")
            # A layer this workload does not run (or runs in another
            # process the profiler cannot see) reads 0.
            unmeasured.append(name)
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": entry["unit"]}
        samples = outcome.samples.get(name)
        print(
            f"{name:32s} {value:>16.6g} {entry['unit']:8s}"
            + (f" n={samples}" if samples else "")
        )
    if unmeasured:
        print(f"# not run on {args.workload}: {' '.join(unmeasured)}")
    print(
        f"# host calib_start_s={calib_start:.6f} calib_end_s={calib_end:.6f} "
        f"load_start={load_start:.2f} load_end={load_end:.2f} "
        f"speed_factor={values.get('host.speed_factor', 0.0):.4f} run_wall_s={wall:.3f}"
    )
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    shutil.rmtree(common.RUN_DIR / "work", ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
