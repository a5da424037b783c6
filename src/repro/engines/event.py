"""The event-driven engine: next-event advancement, array address math.

Byte-identity is the contract.  The cycle loop already *decides*
sparsely — most iterations either issue exactly one instruction or jump
the clock to the next warp-ready event — so this engine replays the
identical decision sequence with cheaper mechanics and produces results
(CoreStats, result JSON, snapshots, spans, traces) indistinguishable
from the cycle engine's.  Three mechanical changes carry the speedup:

- **No per-iteration rebuild.**  The cycle loop re-filters the live-warp
  list and re-allocates candidate wrappers every iteration; here live
  warps are split into a ready list (scanned for candidates) and a
  ready-time heap (drained as the clock advances), so each iteration
  touches only the warps that could actually issue, and the stock
  scheduler policies are inlined.

- **Vectorized address math.**  Per-warp coalescing — line masking and
  VPN extraction for every lane of every memory instruction — runs as
  two whole-matrix numpy operations up front; per-instruction results
  are memoized by instruction identity.

- **Inlined memory path.**  The TLB probe, L1/MSHR, L2 bank, and DRAM
  channel state transitions are replicated inline (every counter and
  LRU/insertion-order mutation in the exact reference order) instead of
  crossing five method-call layers per line; only MSHR expiry calls the
  file's own ``_expire``.

There is one loop (:meth:`EventEngine._loop`), one memory-issue path
(:meth:`EventEngine._issue_memory`) and one per-line access closure
(:func:`_build_access`); the only other issue path is the core's own
``_issue_memory``, taken for cache geometries the inline shift/mask
math cannot index.  The loop emits the reference path's
instrumentation natively — TraceEvents at the exact cycle stamps the
cycle engine produces, span fills handed to the shared
``_record_spans`` assembler, interval-sampler boundaries at the same
loop-top clock sequence — so traces, spans, histograms, and interval
series are equivalent to the cycle engine's (canonical-sorted streams
byte-identical; ``tests/engines/test_observers.py`` pins this).

What observes a run is fixed for its duration (tracers, span
recorders, samplers, and fault injectors are installed between runs,
never mid-run), so each ``run()``/``step_to()`` entry binds it once —
tracing and span flags, the injector, and the scheduler's memory-side
hooks — and an unobserved run pays one local test per emission point
instead of a second copy of the code.

Schedulers never change the mechanics either: round robin and
greedy-then-oldest are replicated inline, and every other policy (the
CCWS family) runs through its real ``select()``.  A scheduler hook —
``on_l1_access``, ``on_tlb_hit``, ``on_tlb_miss`` — is called, with the
reference path's exact arguments, only where the policy overrides the
base-class no-op; ``on_tlb_evict`` fires inside the walker's fills,
which run unchanged.  The page-fault *model* (demand paging) surfaces
inside the walker too, and seeded fault *injection* (shootdowns,
invalidations) consults the injector at the reference points.
"""

from __future__ import annotations

import gc as _gc

from bisect import bisect_left as _bisect_left, insort as _insort
from heapq import heapify, heappop as _heappop, heappush as _heappush
from typing import Dict, List, Optional, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - optional, plain path is exact
    _np = None

from repro.gpu.coalescer import CoalescedAccess, coalesce
from repro.gpu.instruction import ComputeInstruction, MemoryInstruction
from repro.gpu.scheduler.base import (
    Candidate,
    GreedyThenOldestScheduler,
    RoundRobinScheduler,
    WarpScheduler,
)
from repro.obs import events as _ev
from repro.obs import spans as _spans
from repro.obs import tracer as _trace
from repro.prof import profiler as _prof
from repro.vm.pte import HISTORY_LENGTH

from repro.engines.base import SimEngine

_EMPTY_ORIGINS: Dict[int, int] = {}

#: (line_bytes, page_shift) -> {id(instr): (instr, CoalescedAccess)}.
#: Module level so a sweep's cells share the work: workload builds are
#: memoized, so the same instruction objects recur run after run.
#: Values hold the instruction itself, so an id() can never alias.
_COAL_CACHES: Dict[Tuple[int, int], Dict[int, tuple]] = {}

#: Entry cap across all geometries; TBC's dynamically formed warps can
#: mint fresh instructions every run, and a long-lived server must not
#: grow without bound.  Eviction is a full clear — rebuilding is cheap.
_COAL_CACHE_LIMIT = 250_000

#: Scheduler types whose select() is replicated inline in the loop.
#: Every other policy runs through its real select().
_INLINE_SCHEDULERS = (RoundRobinScheduler, GreedyThenOldestScheduler)


def _hook(sched, name: str):
    """``sched``'s bound hook ``name``, or None where its type keeps
    the base-class no-op or has none (so the call, and what it needs,
    is skipped)."""
    if getattr(type(sched), name, None) is getattr(WarpScheduler, name):
        return None
    return getattr(sched, name, None)


def _build_access(core, traced: bool, detail: bool):
    """Build the per-line memory access function for one run.

    An inline replica of CoreMemory.access → SharedMemory → DRAM with
    every hot object captured in closure cells — per call this costs
    only the state transitions themselves, no method dispatch and no
    hot-state unpacking — plus, when ``traced``, the hierarchy's trace
    emissions.  Returns the line's fill time ``ready``; when ``detail``
    (span fills or an ``on_l1_access`` hook consume it) returns
    ``(ready, level, evicted_line, evicted_warp)`` instead, where
    ``level`` is the satisfying level exactly as
    :class:`~repro.mem.hierarchy.MemAccessResult` reports it (``"l1"``,
    ``"l1-mshr"``, ``"l2"``, ``"dram"``) — the span assembler's fill
    components and the scheduler's hit flag both key off it.  MSHR
    expiry calls the file's own ``_expire`` (gated on ``_min_ready``),
    so traced runs retire entries in insertion order with MSHR_RETIRE
    stamped at each entry's fill time, exactly as the reference path
    does.  A full file takes its exact earliest fill time from the
    first *live* heap entry instead of scanning all in-flight values.
    """
    mem = core.memory
    l1 = mem.l1
    l1_label = l1.label
    l1_sets = l1._sets
    l1_shift = l1._line_shift
    l1_mask = l1._set_mask
    l1_assoc = l1.associativity
    l1_latency = mem.l1_latency
    mshrs = mem.mshrs
    expire = mshrs._expire
    inflight = mshrs._inflight
    heap = mshrs._heap
    mshr_capacity = mshrs.capacity
    shm = mem.shared
    banks = shm.l2_banks
    bank_labels = [bank.label for bank in banks]
    first_bank = banks[0]
    bank_shift = first_bank._line_shift
    bank_mask = first_bank._set_mask
    bank_assoc = first_bank.associativity
    bank_busy = shm._bank_busy_until
    icn_latency = shm.interconnect_latency
    l2_interval = shm.l2_service_interval
    l2_latency = shm.l2_latency
    channels = shm.dram.channels
    num_channels = shm.dram.num_channels
    dram_line = shm.dram.line_bytes
    dram_tracks = [f"dram-ch{i}" for i in range(num_channels)]

    def access(paddr, start, warp_id):
        index = (paddr >> l1_shift) & l1_mask
        cache_set = l1_sets.get(index)
        if cache_set is None:
            cache_set = l1_sets[index] = {}
        if paddr in cache_set:
            l1.hits += 1
            cache_set[paddr] = cache_set.pop(paddr)  # move to MRU
            if traced:
                _trace.RECORD(
                    (
                        _ev.CACHE_ACCESS,
                        _trace.NOW,
                        _trace.CORE,
                        l1_label,
                        None,
                        {"line": paddr, "hit": True, "warp": warp_id},
                    )
                )
            mem.l1_hits += 1
            if detail:
                return start + l1_latency, "l1", None, None
            return start + l1_latency
        l1.misses += 1
        ev_line = ev_warp = None
        if len(cache_set) >= l1_assoc:
            ev_line = next(iter(cache_set))
            ev_warp = cache_set.pop(ev_line)
        cache_set[paddr] = warp_id
        if traced:
            _trace.RECORD(
                (
                    _ev.CACHE_ACCESS,
                    _trace.NOW,
                    _trace.CORE,
                    l1_label,
                    None,
                    {
                        "line": paddr,
                        "hit": False,
                        "warp": warp_id,
                        "evicted": ev_line,
                    },
                )
            )
        mem.l1_misses += 1
        if start >= mshrs._min_ready:
            expire(start)
        merge_ready = inflight.get(paddr)
        if merge_ready is not None:
            mshrs.merges += 1
            if traced:
                _trace.RECORD(
                    (
                        _ev.MSHR_MERGE,
                        start,
                        _trace.CORE,
                        "mshr",
                        None,
                        {"line": paddr, "ready": merge_ready},
                    )
                )
            ready = merge_ready if merge_ready > start else start + l1_latency
            mem.total_miss_latency += ready - start
            if detail:
                return ready, "l1-mshr", ev_line, ev_warp
            return ready
        if len(inflight) < mshr_capacity:
            slot_free = start
        else:
            mshrs.stalls += 1
            # Exact earliest fill among live entries: the heap top,
            # after discarding stale (lazily deleted) entries.
            while True:
                ready0, line0 = heap[0]
                if inflight.get(line0) == ready0:
                    slot_free = ready0
                    break
                _heappop(heap)
        # Shared levels: interconnect, L2 bank port, bank lookup, DRAM.
        channel = (paddr // dram_line) % num_channels
        arrive = start + icn_latency
        busy = bank_busy[channel]
        service_start = arrive if arrive > busy else busy
        bank_busy[channel] = service_start + l2_interval
        bank = banks[channel]
        bank_index = (paddr >> bank_shift) & bank_mask
        bank_sets = bank._sets
        bank_set = bank_sets.get(bank_index)
        if bank_set is None:
            bank_set = bank_sets[bank_index] = {}
        if paddr in bank_set:
            bank.hits += 1
            bank_set[paddr] = bank_set.pop(paddr)
            if traced:
                _trace.RECORD(
                    (
                        _ev.CACHE_ACCESS,
                        _trace.NOW,
                        _trace.CORE,
                        bank_labels[channel],
                        None,
                        {"line": paddr, "hit": True, "warp": None},
                    )
                )
            shm.l2_hits += 1
            shared_ready = service_start + l2_latency
            level = "l2"
        else:
            bank.misses += 1
            bank_evicted = None
            if len(bank_set) >= bank_assoc:
                bank_evicted = next(iter(bank_set))
                del bank_set[bank_evicted]
            bank_set[paddr] = None
            if traced:
                _trace.RECORD(
                    (
                        _ev.CACHE_ACCESS,
                        _trace.NOW,
                        _trace.CORE,
                        bank_labels[channel],
                        None,
                        {
                            "line": paddr,
                            "hit": False,
                            "warp": None,
                            "evicted": bank_evicted,
                        },
                    )
                )
            shm.l2_misses += 1
            dram_channel = channels[channel]
            dram_now = service_start + l2_latency
            dram_busy = dram_channel.busy_until
            dram_start = dram_now if dram_now >= dram_busy else dram_busy
            dram_channel.total_queue_delay += dram_start - dram_now
            dram_channel.busy_until = dram_start + dram_channel.service_interval
            dram_channel.requests += 1
            if traced:
                _trace.RECORD(
                    (
                        _ev.DRAM_ACCESS,
                        dram_start,
                        _trace.CORE,
                        dram_tracks[channel],
                        dram_channel.access_latency,
                        {"line": paddr, "queued": dram_start - dram_now},
                    )
                )
            shared_ready = dram_start + dram_channel.access_latency + icn_latency
            level = "dram"
        ready = slot_free + l1_latency
        if shared_ready > ready:
            ready = shared_ready
        if slot_free >= mshrs._min_ready:
            expire(slot_free)
        inflight[paddr] = ready
        _heappush(heap, (ready, paddr))
        if ready < mshrs._min_ready:
            mshrs._min_ready = ready
        mshrs.allocations += 1
        if traced:
            _trace.RECORD(
                (
                    _ev.MSHR_ALLOC,
                    slot_free,
                    _trace.CORE,
                    "mshr",
                    None,
                    {
                        "line": paddr,
                        "ready": ready,
                        "outstanding": len(inflight),
                    },
                )
            )
        mem.total_miss_latency += ready - start
        if detail:
            return ready, level, ev_line, ev_warp
        return ready

    return access


class EventEngine(SimEngine):
    """Event-driven issue loop, byte-identical to :class:`CycleEngine`."""

    name = "event"
    FEATURES = frozenset(
        {"trace", "spans", "sampling", "profile", "snapshot"}
    )

    def __init__(self, core):
        super().__init__(core)
        self._coal = _COAL_CACHES.setdefault(
            (core.line_bytes, core.page_shift), {}
        )
        # Bound per run()/step_to() entry by _bind_issue().
        self._access = None
        self._run_state: Optional[tuple] = None

    # -- per-run binding -----------------------------------------------

    def _bind_issue(self, traced: bool):
        """Bind this run's observation state; return its issue function.

        Called once per run()/step_to() entry.  With inline-indexable
        geometry it builds the access closure and the state tuple
        :meth:`_issue_memory` unpacks; otherwise it returns the core's
        own ``_issue_memory``, which handles any geometry.
        """
        core = self.core
        if not self._inline_geometry_ok():

            def issue_memory(warp, instr, at, warp_id, stats):
                return core._issue_memory(warp, instr, at)

            return issue_memory
        cfg = core.config
        sched = core.scheduler
        on_tlb_hit = _hook(sched, "on_tlb_hit")
        on_l1 = _hook(sched, "on_l1_access")
        detail = _spans.ENABLED or on_l1 is not None
        self._access = _build_access(core, traced, detail)
        self._run_state = (
            cfg.tlb.ports,
            core.tlb_extra_latency,
            cfg.tlb.enabled and cfg.tlb.blocking,
            cfg.tlb.cache_overlap,
            traced,
            _spans.ENABLED,
            core._injector,
            detail,
            on_l1,
            on_tlb_hit,
            _hook(sched, "on_tlb_miss"),
            # The TLB_LOOKUP event and on_tlb_hit both report the hit's
            # LRU stack depth; nothing else needs the scan.
            traced or on_tlb_hit is not None,
        )
        return self._issue_memory

    def _inline_geometry_ok(self) -> bool:
        """Whether the inlined memory path's shift/mask math applies.

        Non-power-of-two cache geometry or heterogeneous L2 banks fall
        back to the hierarchy's real ``access`` method (still inside the
        event loop), which handles any geometry.
        """
        mem = self.core.memory
        if mem.l1._line_shift is None:
            return False
        banks = mem.shared.l2_banks
        first = banks[0]
        if first._line_shift is None:
            return False
        for bank in banks:
            if (
                bank._line_shift != first._line_shift
                or bank._set_mask != first._set_mask
                or bank.associativity != first.associativity
            ):
                return False
        return True

    # -- execution -----------------------------------------------------

    def run(self, poll=None):
        core = self.core
        if not core._run_begun:
            core.begin_run()
        # The loop allocates at a very high rate (trace tuples, span
        # fills, heap entries) but creates no reference cycles, so the
        # cyclic collector only burns time rescanning the trace ring's
        # retained window over and over.  Refcounting frees everything
        # that matters; park the collector for the bounded loop.
        was_collecting = _gc.isenabled()
        if was_collecting:
            _gc.disable()
        try:
            self._loop(poll, None)
        finally:
            if was_collecting:
                _gc.enable()
        return core._finalize_run()

    def step_to(self, cycle: int, poll=None) -> int:
        core = self.core
        if not core._run_begun:
            core.begin_run()
        was_collecting = _gc.isenabled()
        if was_collecting:
            _gc.disable()
        try:
            self._loop(poll, cycle)
        finally:
            if was_collecting:
                _gc.enable()
        return core._now

    # -- vectorized coalesce precompute --------------------------------

    def _precompute(self, entries) -> None:
        """Batch the address math of every memory instruction in
        ``entries`` (live-list entries; ``entry[1]`` is the trace).

        Line masking and VPN extraction run as two whole-matrix int64
        operations; per-row first-occurrence dedupe then reconstructs
        exactly what :func:`repro.gpu.coalescer.coalesce` returns.
        Rows with inactive (None) lanes, ragged widths, or addresses
        beyond int64 take the scalar coalescer — same result either way.
        """
        core = self.core
        cache = self._coal
        if len(cache) > _COAL_CACHE_LIMIT:
            cache.clear()
        line_bytes = core.line_bytes
        page_shift = core.page_shift
        todo: List[MemoryInstruction] = []
        for entry in entries:
            for instr in entry[1]:
                if instr.__class__ is ComputeInstruction:
                    continue
                key = id(instr)
                cached = cache.get(key)
                if cached is not None and cached[0] is instr:
                    continue
                todo.append(instr)
        if not todo:
            return
        sparse: List[MemoryInstruction] = []
        dense: List[MemoryInstruction] = []
        rows: List[tuple] = []
        width = None
        for instr in todo:
            addrs = instr.addresses
            if None in addrs:
                sparse.append(instr)
                continue
            if width is None:
                width = len(addrs)
            if len(addrs) != width:
                sparse.append(instr)
                continue
            dense.append(instr)
            rows.append(addrs)
        if _np is not None and dense:
            try:
                mat = _np.asarray(rows, dtype=_np.int64)
            except OverflowError:
                sparse.extend(dense)
            else:
                line_rows = (mat & ~_np.int64(line_bytes - 1)).tolist()
                vpn_rows = (mat >> page_shift).tolist()
                for instr, line_row, vpn_row in zip(dense, line_rows, vpn_rows):
                    vpns: Dict[int, None] = {}
                    by_vpn: Dict[int, Dict[int, None]] = {}
                    for line, vpn in zip(line_row, vpn_row):
                        vpns[vpn] = None
                        sub = by_vpn.get(vpn)
                        if sub is None:
                            sub = by_vpn[vpn] = {}
                        sub[line] = None
                    cache[id(instr)] = (
                        instr,
                        CoalescedAccess(
                            lines=tuple(dict.fromkeys(line_row)),
                            vpns=tuple(vpns),
                            lines_by_vpn={
                                vpn: tuple(sub) for vpn, sub in by_vpn.items()
                            },
                        ),
                    )
        else:
            sparse.extend(dense)
        for instr in sparse:
            cache[id(instr)] = (
                instr,
                coalesce(instr.addresses, line_bytes, page_shift),
            )

    # -- the loop ------------------------------------------------------

    def _live(self, warps) -> List[tuple]:
        """Live entries ``(warp, instructions, warp_id, n_instrs)`` for
        the unfinished ``warps``, their address math precomputed."""
        live: List[tuple] = []
        for w in warps:
            instrs = w.trace.instructions
            if w.pc < len(instrs):
                live.append((w, instrs, w.trace.warp_id, len(instrs)))
        self._precompute(live)
        return live

    def _split(self, now: int):
        """The core's live entries split by readiness at ``now``.

        ``ready_entries`` holds (seq, entry) pairs for warps whose
        ready_at has passed (scanned for candidates each iteration),
        ``wait_heap`` holds the rest as (ready_at, seq, entry) keyed by
        ready_at (drained as the clock advances).  ``seq`` is the
        entry's creation rank, which follows its warp's position in
        core.warps (warps only ever append), and ready_entries stays
        sorted by it — so candidate order is exactly the reference
        loop's live order.  That ordering is load-bearing: TBC
        compaction can field two live warps with the SAME hardware
        warp_id, and every stock policy breaks such ties by
        candidate-list position.  Returns the next free ``seq`` too.
        """
        ready_entries: List[tuple] = []
        wait_heap: List[tuple] = []
        live = self._live(self.core.warps)
        for seq, entry in enumerate(live):
            ready_at = entry[0].ready_at
            if ready_at > now:
                wait_heap.append((ready_at, seq, entry))
            else:
                ready_entries.append((seq, entry))
        heapify(wait_heap)
        return ready_entries, wait_heap, len(live)

    def _trace_stall(self, now: int, until: int, reason: str, live: int):
        """Emit the WARP_STALL pair the reference loop emits on a stall."""
        core = self.core
        core._stall_seq += 1
        record = _trace.RECORD
        record(
            (
                _ev.WARP_STALL_BEGIN,
                now,
                core.core_id,
                "core",
                None,
                {"id": core._stall_seq, "reason": reason, "live": live},
            )
        )
        record(
            (
                _ev.WARP_STALL_END,
                until,
                core.core_id,
                "core",
                None,
                {"id": core._stall_seq},
            )
        )

    def _loop(self, poll, stop_at) -> bool:
        """Event-driven replay of the reference loop's decisions.

        Every iteration either issues or jumps the clock to the next
        event, 1:1 with the reference loop's, so the loop-top clock
        sequence — the trace context (``_trace.NOW``/``CORE``) and the
        interval sampler's visits — is the reference one.  WARP_STALL
        pairs fire on idle jumps and SCHEDULER_DECISION after every
        selection (inline or real).  Stateful policies (the CCWS
        family) run through their real ``select()`` with the reference
        loop's exact candidate list, so their throttling behaves
        exactly as on the reference path.
        """
        core = self.core
        watchdog = core._watchdog
        cfg = core.config
        blocking = cfg.tlb.enabled and cfg.tlb.blocking
        warmup_budget = core._warmup_budget
        now = core._now
        finish = core._finish
        issued_total = core._issued_total
        measuring = core._measuring
        stats = core.stats
        events = self._events
        sched = core.scheduler
        inline_sched = type(sched) in _INLINE_SCHEDULERS
        rr = type(sched) is RoundRobinScheduler
        num_warps = sched.num_warps
        policy = cfg.scheduler.kind
        core_id = core.core_id
        sampler = core.sampler
        traced = _trace.ENABLED
        warps = core.warps
        issue_memory = self._bind_issue(traced)
        cand_cache: Dict[int, Candidate] = {}
        ready_entries, wait_heap, seq = self._split(now)

        while True:
            if stop_at is not None and now >= stop_at:
                core._now = now
                core._finish = finish
                core._issued_total = issued_total
                core._measuring = measuring
                return False
            if events and events[0][0] <= now:
                core._now = now
                core._finish = finish
                core._issued_total = issued_total
                core._measuring = measuring
                self._dispatch_events(now)
                # A callback may have launched warps or changed ready
                # times: rebuild the readiness split from the cores.
                warps = core.warps
                ready_entries, wait_heap, seq = self._split(now)
            if poll is not None:
                core._now = now
                core._finish = finish
                core._issued_total = issued_total
                core._measuring = measuring
                poll(core)
            if traced:
                _trace.CORE = core_id
                _trace.NOW = now
            if sampler is not None and now >= sampler._next:
                sampler.maybe_sample(now, core.stats)
            while wait_heap and wait_heap[0][0] <= now:
                item = _heappop(wait_heap)
                _insort(ready_entries, (item[1], item[2]))
            if ready_entries:
                min_wait = wait_heap[0][0] if wait_heap else -1
                if blocking and now < core.tlb_blocked_until:
                    # TLB gate: only compute instructions compete.
                    cands = [
                        pair
                        for pair in ready_entries
                        if pair[1][1][pair[1][0].pc].__class__
                        is ComputeInstruction
                    ]
                else:
                    # Every ready entry has a next instruction and
                    # competes: the candidate list IS ready_entries.
                    cands = ready_entries
            elif wait_heap:
                min_wait = wait_heap[0][0]
                cands = ready_entries
            else:
                break
            if not cands:
                # Nothing can issue: jump to the next event.  Identical
                # accounting to the reference loop's stall branch (which
                # reaches this state with blocked_only always True).
                tbu = core.tlb_blocked_until
                if watchdog is not None:
                    watchdog.check(now, core._hang_diagnostics)
                if _prof.ENABLED:
                    _prof.begin(_prof.PHASE_EVENT_SKIP)
                tlb_blocked = blocking and tbu > now
                if tlb_blocked:
                    if min_wait < 0 or tbu < min_wait:
                        next_event = tbu
                    else:
                        next_event = min_wait
                    stats.tlb_blocked_wait_cycles += (
                        next_event if next_event < tbu else tbu
                    ) - now
                elif min_wait >= 0:
                    next_event = min_wait
                else:
                    next_event = now + 1
                stats.idle_cycles += next_event - now
                if traced:
                    self._trace_stall(
                        now,
                        next_event,
                        "tlb_blocked" if tlb_blocked else "memory",
                        len(ready_entries) + len(wait_heap),
                    )
                if _prof.ENABLED:
                    _prof.end()
                now = next_event
                continue
            n_cands = len(cands)
            if inline_sched:
                # The stock policies' select(), over the live-ordered
                # candidate list; ``pick`` is the chosen index in it.
                if n_cands == 1:
                    pick = 0
                    chosen_id = cands[0][1][2]
                elif rr:
                    # min() by round-robin distance; a strict-< scan
                    # matches min()'s first-of-equals tie-break (TBC
                    # can duplicate warp ids, hence distances).
                    nxt = sched._next
                    best_key = num_warps
                    pick = 0
                    idx = 0
                    for pair in cands:
                        key = (pair[1][2] - nxt) % num_warps
                        if key < best_key:
                            best_key = key
                            pick = idx
                        idx += 1
                    chosen_id = cands[pick][1][2]
                else:
                    current = sched._current
                    pick = -1
                    idx = 0
                    for pair in cands:
                        if pair[1][2] == current:
                            pick = idx
                            break
                        idx += 1
                    if pick < 0:
                        # Oldest-first over the deduped id set, exactly
                        # the reference scheduler's min(); the issued
                        # warp is the first live-order holder of the
                        # chosen id, matching the reference loop's
                        # next() scan.
                        by_id = set()
                        index = {}
                        idx = 0
                        for pair in cands:
                            warp_id = pair[1][2]
                            if warp_id not in index:
                                by_id.add(warp_id)
                                index[warp_id] = idx
                            idx += 1
                        chosen_id = min(by_id, key=sched._last_issue.__getitem__)
                        pick = index[chosen_id]
                    else:
                        chosen_id = current
                if rr:
                    sched._next = (chosen_id + 1) % num_warps
                else:
                    sched._current = chosen_id
                    sched._last_issue[chosen_id] = now
            else:
                # Stateful policy (CCWS family): run the real select()
                # with the reference loop's exact candidate list and
                # in-flight flag; it may throttle (return None).
                # Candidate is frozen, so per-(warp, is_memory)
                # instances are built once and reused.
                if _prof.ENABLED:
                    _prof.begin(_prof.PHASE_WARP_SCHED)
                cand_list = []
                for pair in cands:
                    entry = pair[1]
                    warp_id = entry[2]
                    key = (warp_id << 1) | isinstance(
                        entry[1][entry[0].pc], MemoryInstruction
                    )
                    cand = cand_cache.get(key)
                    if cand is None:
                        cand = cand_cache[key] = Candidate(
                            warp_id, bool(key & 1)
                        )
                    cand_list.append(cand)
                chosen_id = sched.select(cand_list, now, min_wait >= 0)
                if _prof.ENABLED:
                    _prof.end()
            if traced:
                _trace.RECORD(
                    (
                        _ev.SCHEDULER_DECISION,
                        now,
                        core_id,
                        "sched",
                        None,
                        {
                            "policy": policy,
                            "chosen": chosen_id,
                            "candidates": n_cands,
                        },
                    )
                )
            if not inline_sched:
                if chosen_id is None:
                    if watchdog is not None:
                        watchdog.check(now, core._hang_diagnostics)
                    next_event = min_wait if min_wait >= 0 else now + 1
                    stats.idle_cycles += next_event - now
                    if traced:
                        self._trace_stall(
                            now,
                            next_event,
                            "throttled",
                            len(ready_entries) + len(wait_heap),
                        )
                    now = next_event
                    continue
                pick = -1
                idx = 0
                for pair in cands:
                    if pair[1][2] == chosen_id:
                        pick = idx
                        break
                    idx += 1
                if pick < 0:  # matches the reference's next() raise
                    raise LookupError(
                        f"scheduler chose non-candidate {chosen_id}"
                    )
            entry_seq, entry = cands[pick]
            if cands is not ready_entries:
                # Gated: map the pick back to its ready_entries slot
                # (sorted by the unique seq).
                pick = _bisect_left(ready_entries, cands[pick])
            del ready_entries[pick]
            warp = entry[0]
            instr = entry[1][warp.pc]
            if instr.__class__ is ComputeInstruction:
                latency = instr.latency
                warp.ready_at = now + latency
                stats.scalar_instructions += latency
                advance = latency
            else:
                warp.ready_at = issue_memory(warp, instr, now, entry[2], stats)
                stats.memory_instructions += 1
                stats.scalar_instructions += 1
                advance = 1
            stats.instructions += 1
            if watchdog is not None:
                watchdog.last_progress = now
            warp.issued += 1
            warp.pc += 1
            if warp.ready_at > finish:
                finish = warp.ready_at
            if warp.pc >= entry[3]:
                before = len(warps)
                core._warp_retired(warp, now)
                if len(warps) > before:
                    for new_entry in self._live(warps[before:]):
                        ready_at = new_entry[0].ready_at
                        if ready_at > now:
                            _heappush(wait_heap, (ready_at, seq, new_entry))
                        else:
                            _insort(ready_entries, (seq, new_entry))
                        seq += 1
            else:
                ready_at = warp.ready_at
                if ready_at > now:
                    _heappush(wait_heap, (ready_at, entry_seq, entry))
                else:
                    _insort(ready_entries, (entry_seq, entry))
            now += advance
            issued_total += 1
            if not measuring and issued_total >= warmup_budget:
                measuring = True
                core._begin_measurement(now)
                stats = core.stats  # _begin_measurement replaces it
        core._now = now
        core._finish = finish
        core._issued_total = issued_total
        core._measuring = measuring
        return True

    # -- inlined memory path -------------------------------------------

    def _issue_memory(self, warp, instr, now, warp_id, stats) -> int:
        """Inline replica of ShaderCore._issue_memory.

        Every counter increment and every LRU / insertion-order /
        busy-window mutation happens in the exact order of the reference
        path, and so does every observation the run binds: scheduler
        memory-side hooks, TraceEvent emissions (same kinds, stamps,
        tracks, args, and ordering as the cycle engine's), span fills
        handed to the shared ``_record_spans`` assembler, and the fault
        injector consulted at the reference points (shootdown before
        the lookup batch; invalidations inside ``_fill_tlb``, which
        runs unchanged via ``_handle_misses``).
        """
        (
            ports,
            extra_latency,
            tlb_blocking,
            cache_overlap,
            traced,
            spanned,
            injector,
            detail,
            on_l1,
            on_tlb_hit,
            on_tlb_miss,
            lru_depth,
        ) = self._run_state
        core = self.core
        cached = self._coal.get(id(instr))
        if cached is None or cached[0] is not instr:
            cached = (
                instr,
                coalesce(instr.addresses, core.line_bytes, core.page_shift),
            )
            self._coal[id(instr)] = cached
        coal = cached[1]
        vpns = coal.vpns
        lines = coal.lines
        n_pages = len(vpns)
        stats.page_divergence_sum += n_pages
        if n_pages > stats.page_divergence_max:
            stats.page_divergence_max = n_pages
        stats.coalesced_lines += len(lines)
        if traced:
            record = _trace.RECORD
            ev_core = _trace.CORE
            record(
                (
                    _ev.MEM_COALESCE,
                    now,
                    ev_core,
                    "coalescer",
                    None,
                    {
                        "warp": warp_id,
                        "pages": n_pages,
                        "lines": len(lines),
                    },
                )
            )
        page_shift = core.page_shift
        page_mask = core.page_mask
        access = self._access

        tlb = core.tlb
        if tlb is None:
            # No-TLB baseline: pinned physical memory, zero translation
            # cost; lines issue one per cycle.
            completion = now
            frame_map = core.frame_map
            for offset, line in enumerate(lines):
                pfn = frame_map.get(line >> page_shift)
                if pfn is not None:
                    line = (pfn << 12) + (line & page_mask)
                ready = access(line, now + offset, warp_id)
                if detail:
                    ready, level, ev_line, ev_warp = ready
                    if on_l1 is not None:
                        on_l1(warp_id, line, level == "l1", False, ev_line, ev_warp)
                if ready > completion:
                    completion = ready
            return completion

        shootdown = False
        if injector is not None and injector.tlb_shootdown(core.core_id):
            tlb.flush()
            core._shootdowns += 1
            shootdown = True
            if traced:
                record(
                    (
                        _ev.FAULT_INJECT,
                        now,
                        ev_core,
                        "faults",
                        None,
                        {"fault": "tlb_shootdown", "core": core.core_id},
                    )
                )
        if _prof.ENABLED:
            _prof.begin(_prof.PHASE_TLB)

        if n_pages == 1:
            # Single-page instruction (the common case for coalesced
            # streams): no translation/ready maps, one direct probe.
            # ceil(1 / ports) == 1, and with one vpn the overlap and
            # serial cache stages walk the same lines with the same
            # availability, so both collapse to one loop.
            vpn = vpns[0]
            port_busy = core.tlb_port_busy_until
            port_start = now if now > port_busy else port_busy
            core.tlb_port_busy_until = port_start + 1
            tlb_done = port_start + extra_latency + 1
            origins = (
                core._vpn_origins(instr, vpns)
                if instr.origins is not None
                else _EMPTY_ORIGINS
            )
            stats.tlb_lookups += 1
            cpm = core.cpm
            if cpm is not None:
                cpm.maybe_flush(now)
            history_id = origins.get(vpn, warp_id) if origins else warp_id
            tlb_set = tlb._sets.get(vpn % tlb.num_sets)
            if tlb_set is not None and vpn in tlb_set:
                tlb.hits += 1
                if lru_depth:
                    # LRU stack depth from the MRU end, computed before
                    # the reinsertion below disturbs the order (as the
                    # reference lookup does).
                    depth = 0
                    for resident_vpn in reversed(tlb_set):
                        if resident_vpn == vpn:
                            break
                        depth += 1
                entry = tlb_set.pop(vpn)
                history = entry.history
                prior = tuple(history) if cpm is not None else ()
                if history_id in history:
                    history.remove(history_id)
                history.insert(0, history_id)
                del history[HISTORY_LENGTH:]
                tlb_set[vpn] = entry  # move to MRU
                if traced:
                    record(
                        (
                            _ev.TLB_LOOKUP,
                            now,
                            ev_core,
                            "tlb",
                            None,
                            {
                                "vpn": vpn,
                                "hit": True,
                                "depth": depth,
                                "warp": history_id,
                            },
                        )
                    )
                stats.tlb_hits += 1
                if on_tlb_hit is not None:
                    on_tlb_hit(warp_id, vpn, depth)
                if cpm is not None and prior:
                    cpm.update(history_id, prior)
                pfn_base = entry.pfn << 12
                available = tlb_done
                walk_ready = None
                tlb_missed = False
            else:
                tlb.misses += 1
                if traced:
                    record(
                        (
                            _ev.TLB_LOOKUP,
                            now,
                            ev_core,
                            "tlb",
                            None,
                            {"vpn": vpn, "hit": False, "warp": history_id},
                        )
                    )
                stats.tlb_misses += 1
                if on_tlb_miss is not None:
                    on_tlb_miss(warp_id, vpn)
                if traced:
                    record(
                        (
                            _ev.TLB_MISS_BEGIN,
                            tlb_done,
                            ev_core,
                            "tlb",
                            None,
                            {"vpn": vpn, "warp": warp_id},
                        )
                    )
                walk_ready = core._handle_misses(
                    warp, [vpn], tlb_done, origins
                )
                pfn, resolved = walk_ready[vpn]
                stats.total_tlb_miss_cycles += resolved - tlb_done
                if traced:
                    record(
                        (
                            _ev.TLB_MISS_END,
                            resolved,
                            ev_core,
                            "tlb",
                            None,
                            {"vpn": vpn, "latency": resolved - tlb_done},
                        )
                    )
                all_ready = resolved if resolved > tlb_done else tlb_done
                if tlb_blocking and all_ready > core.tlb_blocked_until:
                    core.tlb_blocked_until = all_ready
                pfn_base = pfn << 12
                # The overlap stage uses the page's own fill time, the
                # serial stage the (clamped) barrier; identical unless
                # a walk somehow resolves before the lookup completes.
                available = resolved if cache_overlap else all_ready
                tlb_missed = True
            if _prof.ENABLED:
                _prof.end()
                _prof.begin(_prof.PHASE_CACHE)
            completion = tlb_done
            cursor = now
            fills = [] if (spanned and tlb_missed) else None
            for line in lines:
                cursor += 1
                paddr = pfn_base + (line & page_mask)
                ready = access(paddr, cursor, warp_id)
                if detail:
                    ready, level, ev_line, ev_warp = ready
                    if on_l1 is not None:
                        on_l1(
                            warp_id,
                            paddr,
                            level == "l1",
                            tlb_missed,
                            ev_line,
                            ev_warp,
                        )
                fill_start = available if available > cursor else cursor
                line_end = fill_start + ready - cursor
                if line_end > completion:
                    completion = line_end
                if fills is not None:
                    fills.append((level, fill_start, line_end))
            if _prof.ENABLED:
                _prof.end()
            if tlb_missed:
                stall = all_ready - tlb_done
                if stall > 0:
                    stats.tlb_miss_stall_cycles += stall
                if fills is not None:
                    core._record_spans(
                        warp,
                        coal,
                        now,
                        port_start,
                        tlb_done,
                        1,
                        walk_ready,
                        {vpn: fills} if fills else {},
                        completion,
                        shootdown,
                    )
            return completion

        lookup_cycles = -(-n_pages // ports)  # ceil division
        port_busy = core.tlb_port_busy_until
        port_start = now if now > port_busy else port_busy
        core.tlb_port_busy_until = port_start + lookup_cycles
        tlb_done = port_start + extra_latency + lookup_cycles
        origins = (
            core._vpn_origins(instr, vpns)
            if instr.origins is not None
            else _EMPTY_ORIGINS
        )
        stats.tlb_lookups += n_pages
        cpm = core.cpm
        if cpm is not None:
            cpm.maybe_flush(now)
        translations: Dict[int, int] = {}
        page_ready: Dict[int, int] = {}
        misses: Optional[List[int]] = None
        tlb_sets = tlb._sets
        num_sets = tlb.num_sets
        for vpn in vpns:
            history_id = origins.get(vpn, warp_id) if origins else warp_id
            tlb_set = tlb_sets.get(vpn % num_sets)
            if tlb_set is None or vpn not in tlb_set:
                tlb.misses += 1
                if traced:
                    record(
                        (
                            _ev.TLB_LOOKUP,
                            now,
                            ev_core,
                            "tlb",
                            None,
                            {"vpn": vpn, "hit": False, "warp": history_id},
                        )
                    )
                stats.tlb_misses += 1
                if on_tlb_miss is not None:
                    on_tlb_miss(warp_id, vpn)
                if misses is None:
                    misses = [vpn]
                else:
                    misses.append(vpn)
                continue
            tlb.hits += 1
            if lru_depth:
                depth = 0
                for resident_vpn in reversed(tlb_set):
                    if resident_vpn == vpn:
                        break
                    depth += 1
            entry = tlb_set.pop(vpn)
            history = entry.history
            prior = tuple(history) if cpm is not None else ()
            if history_id in history:
                history.remove(history_id)
            history.insert(0, history_id)
            del history[HISTORY_LENGTH:]
            tlb_set[vpn] = entry  # move to MRU
            if traced:
                record(
                    (
                        _ev.TLB_LOOKUP,
                        now,
                        ev_core,
                        "tlb",
                        None,
                        {
                            "vpn": vpn,
                            "hit": True,
                            "depth": depth,
                            "warp": history_id,
                        },
                    )
                )
            stats.tlb_hits += 1
            if on_tlb_hit is not None:
                on_tlb_hit(warp_id, vpn, depth)
            if cpm is not None and prior:
                cpm.update(history_id, prior)
            translations[vpn] = entry.pfn
            page_ready[vpn] = tlb_done
        if misses is not None:
            if traced:
                for vpn in misses:
                    record(
                        (
                            _ev.TLB_MISS_BEGIN,
                            tlb_done,
                            ev_core,
                            "tlb",
                            None,
                            {"vpn": vpn, "warp": warp_id},
                        )
                    )
            walk_ready = core._handle_misses(warp, misses, tlb_done, origins)
            all_ready = tlb_done
            for vpn, resolved in walk_ready.items():
                pfn, ready = resolved
                translations[vpn] = pfn
                page_ready[vpn] = ready
                stats.total_tlb_miss_cycles += ready - tlb_done
                if traced:
                    record(
                        (
                            _ev.TLB_MISS_END,
                            ready,
                            ev_core,
                            "tlb",
                            None,
                            {"vpn": vpn, "latency": ready - tlb_done},
                        )
                    )
                if ready > all_ready:
                    all_ready = ready
            if tlb_blocking and all_ready > core.tlb_blocked_until:
                core.tlb_blocked_until = all_ready
            missed = set(misses)
        else:
            walk_ready = None
            all_ready = tlb_done
            missed = ()
        if _prof.ENABLED:
            _prof.end()

        if _prof.ENABLED:
            _prof.begin(_prof.PHASE_CACHE)
        completion = tlb_done
        cursor = now
        span_fills: Optional[Dict[int, list]] = (
            {} if (spanned and misses is not None) else None
        )
        if cache_overlap:
            lines_by_vpn = coal.lines_by_vpn
            for vpn in vpns:
                available_at = page_ready[vpn]
                pfn_base = translations[vpn] << 12
                tlb_missed = vpn in missed
                for line in lines_by_vpn[vpn]:
                    cursor += 1
                    paddr = pfn_base + (line & page_mask)
                    ready = access(paddr, cursor, warp_id)
                    if detail:
                        ready, level, ev_line, ev_warp = ready
                        if on_l1 is not None:
                            on_l1(
                                warp_id,
                                paddr,
                                level == "l1",
                                tlb_missed,
                                ev_line,
                                ev_warp,
                            )
                    fill_start = (
                        available_at if available_at > cursor else cursor
                    )
                    line_end = fill_start + ready - cursor
                    if line_end > completion:
                        completion = line_end
                    if span_fills is not None and tlb_missed:
                        fills = span_fills.get(vpn)
                        if fills is None:
                            fills = span_fills[vpn] = []
                        fills.append((level, fill_start, line_end))
        else:
            for line in lines:
                pfn_base = translations[line >> page_shift] << 12
                cursor += 1
                paddr = pfn_base + (line & page_mask)
                ready = access(paddr, cursor, warp_id)
                if detail:
                    ready, level, ev_line, ev_warp = ready
                    vpn = line >> page_shift
                    tlb_missed = vpn in missed
                    if on_l1 is not None:
                        on_l1(
                            warp_id,
                            paddr,
                            level == "l1",
                            tlb_missed,
                            ev_line,
                            ev_warp,
                        )
                fill_start = all_ready if all_ready > cursor else cursor
                line_end = fill_start + ready - cursor
                if line_end > completion:
                    completion = line_end
                if span_fills is not None and tlb_missed:
                    fills = span_fills.get(vpn)
                    if fills is None:
                        fills = span_fills[vpn] = []
                    fills.append((level, fill_start, line_end))
        if _prof.ENABLED:
            _prof.end()
        if misses is not None:
            stall = all_ready - tlb_done
            if stall > 0:
                stats.tlb_miss_stall_cycles += stall
            if span_fills is not None:
                core._record_spans(
                    warp,
                    coal,
                    now,
                    port_start,
                    tlb_done,
                    lookup_cycles,
                    walk_ready,
                    span_fills,
                    completion,
                    shootdown,
                )
        return completion
