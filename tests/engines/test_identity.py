"""The engine contract: event == cycle, byte for byte.

Each golden pin runs one (config, workload) cell — shrunk versions of
the Figure 2 and Figure 11 machines, the same matrix the snapshot
resume tests pin — under both engines and asserts the serialized
results are identical (``canonical_json``).  The observed variants
repeat the pin with the event tracer, the phase profiler, and the
causal span recorder enabled (alone and together): the event engine
emits instrumentation natively from its own next-event loop (no
cycle-loop fallback), and the contract must hold on every path.

``fig02-tbc`` and ``fig02-tlb-tbc`` are regression pins for warp-id
aliasing: TBC compaction can field two *live* warps with the same
hardware warp id, where every stock scheduler breaks the tie by
candidate-list position — an engine that reorders its ready list
diverges on exactly these cells.
"""

from __future__ import annotations

import contextlib
import dataclasses

import pytest

from repro.api import simulate
from repro.core import presets
from repro.core.config import GPUConfig, TraceConfig
from repro.core.simulator import Simulator
from repro.engines.event import EventEngine
from repro.obs.spans import SpanRecorder, record_spans
from repro.prof import profiler
from repro.workloads.registry import get_workload

_TINY = dict(num_cores=1, warps_per_core=8, warp_width=8)


def _preset(name: str, **overrides) -> GPUConfig:
    merged = dict(_TINY)
    merged.update(overrides)
    return GPUConfig.preset(name, **merged)


def _l1_3k(config: GPUConfig) -> GPUConfig:
    """``config`` with a 3 KiB L1: 3 sets, not a power of two."""
    cache = dataclasses.replace(config.cache, l1_bytes=3 * 1024)
    return dataclasses.replace(config, cache=cache)


#: name -> (config, workload, form)
GOLDENS = {
    # Figure 2: the naive-TLB degradation matrix.
    "fig02-no-tlb": (_preset("no_tlb"), "bfs", None),
    "fig02-naive": (_preset("naive", ports=3), "bfs", None),
    "fig02-ccws": (presets.with_ccws(_preset("naive", ports=3)), "kmeans", None),
    "fig02-tbc": (
        presets.with_tbc(_preset("naive", ports=3, warmup_instructions=0), "tbc"),
        "bfs",
        "blocks",
    ),
    "fig02-tlb-tbc": (
        presets.with_tbc(
            _preset("naive", ports=3, warmup_instructions=0), "tlb-tbc"
        ),
        "bfs",
        "blocks",
    ),
    # Figure 11: walker pools vs the augmented walker.
    "fig11-ptw4": (presets.multi_ptw_tlb(4, **_TINY), "kmeans", None),
    "fig11-aug": (_preset("augmented"), "bfs", None),
    # Non-power-of-two cache geometry: the event engine's shift/mask
    # memory path cannot index it and falls back to the core's own
    # _issue_memory, inside the same event loop.
    "l1-3set": (_l1_3k(_preset("naive", ports=3)), "bfs", None),
    "l1-3set-ccws": (
        presets.with_ccws(_l1_3k(_preset("naive", ports=3))),
        "kmeans",
        None,
    ),
}


def _run(
    config: GPUConfig,
    workload: str,
    form,
    engine: str,
    traced: bool = False,
    profiled: bool = False,
    spanned: bool = False,
) -> str:
    if traced:
        config = dataclasses.replace(
            config,
            trace=TraceConfig(
                enabled=True, ring_capacity=4096, interval_cycles=250
            ),
        )
    prof_guard = profiler.profile() if profiled else contextlib.nullcontext()
    span_guard = (
        record_spans(SpanRecorder(keep_slowest=5))
        if spanned
        else contextlib.nullcontext()
    )
    with prof_guard, span_guard:
        result = simulate(
            config=config, workload=workload, form=form, engine=engine
        )
    return result.canonical_json()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_event_matches_cycle(name):
    config, workload, form = GOLDENS[name]
    assert _run(config, workload, form, "event") == _run(
        config, workload, form, "cycle"
    )


@pytest.mark.parametrize(
    "name", ["fig02-naive", "fig02-tbc", "fig11-aug", "l1-3set"]
)
@pytest.mark.parametrize(
    "traced,profiled,spanned",
    [
        (True, False, False),
        (False, True, False),
        (False, False, True),
        (True, True, True),
    ],
    ids=["traced", "profiled", "spanned", "all-observers"],
)
def test_event_matches_cycle_under_observation(name, traced, profiled, spanned):
    config, workload, form = GOLDENS[name]
    kwargs = dict(traced=traced, profiled=profiled, spanned=spanned)
    assert _run(config, workload, form, "event", **kwargs) == _run(
        config, workload, form, "cycle", **kwargs
    )


def _core(name: str):
    config, workload, form = GOLDENS[name]
    work = get_workload(workload).build(config, form=form)
    return Simulator._build(config, work, workload).cores[0]


@pytest.mark.parametrize("name", ["l1-3set", "l1-3set-ccws"])
def test_three_set_cells_take_the_geometry_fallback(name):
    # The l1-3set goldens exist to cover the fallback to the core's own
    # _issue_memory; pin that they still reach it, against a control
    # cell at the default L1 that takes the inline path.
    assert not EventEngine(_core(name))._inline_geometry_ok()
    assert EventEngine(_core("fig02-naive"))._inline_geometry_ok()
