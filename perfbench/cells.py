"""What the workloads run: the design points and the seeded cell draws.

The full-geometry design points are the ones the figure drivers in
``repro.harness.figures`` sweep (Figs 2-22 and Section 9); the
small-geometry space is what the served and distributed workloads
draw their jobs from.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.core import presets
from repro.core.config import GPUConfig
from repro.workloads.base import TIMING_MISS_SCALE, Workload
from repro.workloads.registry import get_spec, workload_names

#: Warmup the figure drivers use for per-warp (linear) traces.
WARMUP = 20


def _linear(name: str, **overrides):
    """A per-warp (linear) design point with the figures' warmup."""
    return lambda: GPUConfig.preset(name, warmup_instructions=WARMUP, **overrides), None


def _augmented(combinator, *args):
    """A scheduler combinator applied to the augmented MMU."""
    base = lambda: GPUConfig.preset("augmented", warmup_instructions=WARMUP)
    return lambda: combinator(base(), *args), None


def _blocks(mode: str, **kwargs):
    """Thread block compaction on the augmented MMU (block form)."""
    return lambda: presets.with_tbc(GPUConfig.preset("augmented"), mode, **kwargs), "blocks"


#: name -> (config factory, form).  no_tlb skips the TLB and PTW
#: entirely; naive and blocking are bound by translation on the
#: divergent workloads; tbc/tlb-tbc run the thread-block form.  Every
#: cell uses the figures' timing miss scale.
DESIGN_POINTS = {
    "no_tlb": _linear("no_tlb"),
    "naive": _linear("naive", ports=3),
    "blocking": _linear("blocking"),
    "hit_under_miss": _linear("hit_under_miss"),
    "non_blocking": _linear("non_blocking"),
    "augmented": _linear("augmented"),
    "ideal": _linear("ideal"),
    "multi_ptw4": (lambda: presets.multi_ptw_tlb(4, warmup_instructions=WARMUP), None),
    "ccws": _augmented(presets.with_ccws),
    "ta_ccws": _augmented(presets.with_ta_ccws),
    "tcws": _augmented(presets.with_tcws),
    "tbc": _blocks("tbc"),
    "tlb_tbc": _blocks("tlb-tbc", counter_bits=3),
    "large_2mb": _linear("blocking", page_shift=21),
}


class SimCell(NamedTuple):
    point: str
    workload: Workload
    config: GPUConfig
    form: Optional[str]
    miss_scale: float

    @property
    def translating(self) -> bool:
        return self.config.tlb.enabled


def seeded_workloads(seed: int) -> Dict[str, Workload]:
    """The six paper workloads with their spec seeds drawn from ``seed``."""
    rng = random.Random(f"specs-{seed}")
    return {
        name: Workload(dataclasses.replace(get_spec(name), seed=rng.randrange(1, 2**31)))
        for name in workload_names()
    }


def memo_builds(workloads: Dict[str, Workload]) -> List[Tuple[Workload, GPUConfig, str, float]]:
    """One (workload, config, form, miss_scale) per distinct build the
    design points need.  Building these fills the workload-build memo;
    the page size is part of the key because the simulator memoizes
    each trace's page order per page size."""
    builds: Dict[Tuple[str, int], GPUConfig] = {}
    for factory, form in DESIGN_POINTS.values():
        config = factory()
        resolved = form or ("blocks" if config.tbc.mode != "stack" else "linear")
        builds.setdefault((resolved, config.page_shift), config)
    return [
        (workload, config, form, TIMING_MISS_SCALE)
        for workload in workloads.values()
        for (form, _), config in builds.items()
    ]


def sim_rounds(seed: int, workloads: Dict[str, Workload]) -> Iterator[List[SimCell]]:
    """Endless rounds of one cell per design point.

    Round ``r`` gives the ``i``-th design point the workload at
    ``(i + r) mod 6``, so every six rounds each design point has met
    every workload once.  The cell set of the first ``n`` rounds is the
    same for every seed, which keeps a run's cost mix (cells differ up
    to 3x in host time) out of its spread; the seed picks the workload
    traces and the order inside each round.
    """
    rng = random.Random(f"rounds-{seed}")
    names = list(workloads)
    points = list(DESIGN_POINTS)
    configs = {point: DESIGN_POINTS[point][0]() for point in points}
    for r in itertools.count():
        cells = [
            SimCell(
                point,
                workloads[names[(i + r) % len(names)]],
                configs[point],
                DESIGN_POINTS[point][1],
                TIMING_MISS_SCALE,
            )
            for i, point in enumerate(points)
        ]
        rng.shuffle(cells)
        yield cells


# -- small geometry (served and distributed jobs) -------------------------

SMALL_PRESETS = ("no_tlb", "naive", "blocking", "hit_under_miss", "non_blocking", "augmented", "ideal")
SMALL_WARPS = (1, 2, 3)
SMALL_WARMUPS = tuple(range(20))


class SmallCell(NamedTuple):
    preset: str
    workload: str
    warps: int
    warmup: int

    def overrides(self) -> Dict[str, int]:
        return {"warps_per_core": self.warps, "warmup_instructions": self.warmup}

    def config(self) -> GPUConfig:
        return GPUConfig.preset(self.preset, **self.overrides())

    def request(self) -> Dict:
        """The ``simulate`` job params: workload names only on the wire."""
        return {
            "config": {"preset": self.preset, "overrides": self.overrides()},
            "workload": self.workload,
        }


def small_cells(seed: int) -> List[SmallCell]:
    """Every small-geometry cell (2,520 distinct) in a seeded order that
    cycles through the warp counts, so any run of consecutive cells
    holds each geometry equally often and carries the same work."""
    rng = random.Random(f"small-{seed}")
    by_warps = []
    for warps in SMALL_WARPS:
        group = [
            SmallCell(p, w, warps, k)
            for p in SMALL_PRESETS
            for w in workload_names()
            for k in SMALL_WARMUPS
        ]
        rng.shuffle(group)
        by_warps.append(group)
    return [cell for group in zip(*by_warps) for cell in group]
