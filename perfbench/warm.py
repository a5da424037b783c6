"""One set-up of the in-process workloads, timed from outside.

``python3 perfbench/warm.py SEED`` imports the simulator, fills the
workload-build memo (and the simulator's per-trace page order) for
every build the run's design points need, prints ``ready`` and exits.
The benchmark times it from process start to that line.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def warm(seed: int) -> int:
    """Fill the memos for ``seed``'s workloads; returns builds made."""
    from repro.core.simulator import Simulator

    import cells

    builds = cells.memo_builds(cells.seeded_workloads(seed))
    for workload, config, form, miss_scale in builds:
        work = workload.build(config, form=form, miss_scale=miss_scale)
        Simulator._build(config, work, workload.name)
    return len(builds)


if __name__ == "__main__":
    warm(int(sys.argv[1]))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
