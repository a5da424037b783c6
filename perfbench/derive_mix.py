"""Where the served and distributed traffic mix comes from.

    PYTHONPATH=src python3 perfbench/derive_mix.py

Replays the figure drivers in ``python -m repro.harness all`` order
(``ALL_FIGURES``) without simulating: every ``run_matrix`` call hands
its cells to a recording executor that answers with one stand-in
result, and the drivers' direct ``simulate`` calls answer the same.
It prints

- the share of ``run_matrix`` cells whose result-cache key an earlier
  cell of the batch already produced: the dedup share a caller that
  submits these cells as ``simulate`` jobs sees (``REPEAT_SHARE`` in
  ``wl_serve.py``);
- the cells per ``run_matrix`` call, the unit a caller shards with
  ``POST /dist/shard`` (``SWEEP_CELLS`` in ``wl_dist.py`` is their
  median).

Takes a few seconds; nothing is written.
"""

from __future__ import annotations

import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import api  # noqa: E402
from repro.core.config import GPUConfig  # noqa: E402
from repro.harness import experiment, figures  # noqa: E402
from repro.parallel.cache import cache_key  # noqa: E402


def replay():
    """``(keys in batch order, cells per run_matrix call, direct calls)``."""
    stand_in = api.simulate(
        config=GPUConfig.preset("blocking", warps_per_core=1), workload="kmeans"
    )
    keys, sweeps, direct = [], [], [0]

    class Recorder:
        def __init__(self, **_):
            pass

        def run(self, cells):
            sweeps.append(len(cells))
            keys.extend(cache_key(cell) for cell in cells)
            return [stand_in] * len(cells)

    def simulate(**_):
        direct[0] += 1
        return stand_in

    experiment.SweepExecutor = Recorder
    figures.simulate = simulate
    for driver in figures.ALL_FIGURES.values():
        driver()
    return keys, sweeps, direct[0]


def main() -> int:
    keys, sweeps, direct = replay()
    repeats = len(keys) - len(set(keys))
    print(f"run_matrix cells: {len(keys)} ({len(set(keys))} distinct)")
    print(f"repeat share: {repeats}/{len(keys)} = {repeats / len(keys):.3f}")
    print(f"cells per run_matrix call: {sorted(sweeps)}")
    print(f"median sweep: {statistics.median(sweeps):g} cells over {len(sweeps)} calls")
    print(f"direct simulate calls (no cache): {direct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
