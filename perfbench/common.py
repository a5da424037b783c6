"""Shared machinery of the benchmark: spans, statistics, host probes,
child processes and Prometheus text.

Nothing here imports ``repro``: ``run.py`` puts the checkout's ``src``
on ``sys.path`` first, and the workload modules import the program.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: journals, caches, port files and
#: the span dump.  Removed per run except the span dump.
RUN_DIR = ROOT / ".perfbench_run"


# -- spans ---------------------------------------------------------------


class Spans:
    """In-memory span recorder for the benchmark's own calls.

    A span is ``(op, name, start_ns, end_ns, parent)``: ``op`` is the
    id every span of one operation shares, ``parent`` the index of the
    enclosing span (-1 for the op's root).  Each thread keeps its own
    open-span stack, so concurrent clients nest independently.  With
    ``enabled`` false, or for op 0, every call is a no-op, which is how
    untraced runs and ops measure without spans.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_op = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_op(self) -> int:
        """A fresh op id, or 0 (record nothing) while disabled."""
        if not self.enabled:
            return 0
        with self._lock:
            self._next_op += 1
            return self._next_op

    def begin(self, name: str, op: int) -> int:
        if not op:
            return -1
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [op, name, time.perf_counter_ns(), 0, parent]
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        if index < 0:
            return
        self.records[index][3] = time.perf_counter_ns()
        self._stack().pop()

    def span(self, name: str, op: int):
        return _SpanContext(self, name, op)

    # -- analysis ------------------------------------------------------

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: total seconds, self seconds, count.

        Self time is the span's duration minus the part its direct
        children cover (children never overlap their siblings: one
        thread runs them in sequence).
        """
        child_ns = [0] * len(self.records)
        for op, name, start, end, parent in self.records:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (op, name, start, end, parent) in enumerate(self.records):
            entry = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "count": 0})
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[index]) / 1e9
            entry["count"] += 1
        return out

    def unattributed_s(self) -> float:
        """Largest per-op gap: root duration minus its children's sum."""
        child_ns = [0] * len(self.records)
        for op, name, start, end, parent in self.records:
            if parent >= 0:
                child_ns[parent] += end - start
        worst = 0.0
        for index, (op, name, start, end, parent) in enumerate(self.records):
            if parent < 0:
                worst = max(worst, (end - start - child_ns[index]) / 1e9)
        return worst

    def dump(self, path: pathlib.Path) -> None:
        """Write every span once, as JSON lines, at the end of a run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for op, name, start, end, parent in self.records:
                handle.write(
                    json.dumps(
                        {"op": op, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent}
                    )
                    + "\n"
                )


class _SpanContext:
    __slots__ = ("spans", "name", "op", "index")

    def __init__(self, spans: Spans, name: str, op: int):
        self.spans = spans
        self.name = name
        self.op = op

    def __enter__(self):
        self.index = self.spans.begin(self.name, self.op)
        return self

    def __exit__(self, *exc):
        self.spans.end(self.index)
        return False


# -- statistics ----------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for an empty list,
    which only a run that failed every operation has."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


# -- host probes ---------------------------------------------------------


#: One calibration chunk: a fixed pure-Python loop of this many steps.
CALIB_STEPS = 100_000
#: The chunk's seconds on the reference host (a 2-vCPU Xeon VM at its
#: quiet speed).  Normalised times are in reference-host seconds.
CALIB_REF_S = 0.0075


def calib_chunk() -> float:
    """Seconds one calibration chunk takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIB_STEPS):
        total += i * i % 7
    return time.perf_counter() - start


def calibrate() -> float:
    """Median of five chunks: the host's speed at one moment.

    Taken at the start and end of every run; its drift between runs,
    next to the load average, explains a run slowed by a noisy
    neighbour instead of discarding it.
    """
    return statistics.median(calib_chunk() for _ in range(5))


class HostSpeed:
    """How slow the host runs during a measurement, from calibration
    chunks interleaved with it: ``factor`` is their mean time over
    ``CALIB_REF_S`` (1.0 on the reference host, 1.3 when everything
    takes 30 % longer).

    On a shared host the speed of the same pure-Python work swings by
    a quarter and more over minutes; dividing a CPU-bound time by the
    factor measured around it cancels that swing.
    """

    def __init__(self):
        self.samples: List[float] = []

    def sample(self, chunks: int = 1) -> None:
        for _ in range(chunks):
            self.samples.append(calib_chunk())

    @property
    def factor(self) -> float:
        return statistics.mean(self.samples) / CALIB_REF_S

    def factor_around(self, index: int) -> float:
        """The factor of samples ``index`` and ``index + 1``: the chunks
        just before and after one measurement."""
        return (self.samples[index] + self.samples[index + 1]) / 2 / CALIB_REF_S


#: One set-up calibration: a fresh interpreter that allocates a fixed
#: set of objects, the kind of work a set-up does (process start,
#: imports, building traces).
SPAWN_CALIB = "x = [(i, str(i)) for i in range(300000)]; d = {i: i for i in range(200000)}"
#: Its seconds on the reference host.
SPAWN_REF_S = 0.15


def spawn_chunk() -> float:
    """Seconds one set-up calibration takes right now."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SPAWN_CALIB], cwd=str(ROOT), env=child_env(), check=True
    )
    return time.perf_counter() - start


def normalised_setups(setup, count: int) -> float:
    """Run ``setup()`` (which returns its raw seconds) ``count`` times,
    each after one set-up calibration; returns the median raw time over
    the median calibration, in reference-host seconds.

    When the build host slowed, the pure-Python loop of ``calib_chunk``
    swung up to three times as much as a set-up did, so dividing by it
    added noise; a calibration that starts a process and allocates
    follows a set-up's own swings."""
    raw, calib = [], []
    for _ in range(count):
        calib.append(spawn_chunk())
        raw.append(setup())
    return statistics.median(raw) / statistics.median(calib) * SPAWN_REF_S


def loadavg() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live child process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# -- child processes -----------------------------------------------------


def child_env() -> Dict[str, str]:
    """The environment of every process the benchmark starts: the
    checkout's program first on the path, temp files in the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    tmp = RUN_DIR / "work" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env.pop("REPRO_LOG_JSONL", None)
    return env


def spawn(args: Sequence[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def stop(proc: subprocess.Popen, sig: int = signal.SIGTERM) -> None:
    """Signal ``proc`` and wait for it; kill it if it lingers."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15)


def wait_for(predicate, timeout_s: float, what: str, poll_s: float = 0.002):
    """Poll ``predicate`` until it returns a truthy value."""
    deadline = time.monotonic() + timeout_s
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise RuntimeError(f"timed out after {timeout_s}s waiting for {what}")
        time.sleep(poll_s)


def read_port_file(path: pathlib.Path) -> Optional[str]:
    try:
        text = path.read_text().strip()
    except FileNotFoundError:
        return None
    return text or None


# -- Prometheus text -------------------------------------------------------


def prom_sum(samples, name: str, **labels: str) -> float:
    """Sum of ``name`` over the series carrying every label in ``labels``
    (``samples`` as ``repro.prof.export.parse_prometheus`` returns them)."""
    wanted = set(labels.items())
    return sum(
        value
        for (metric, pairs), value in samples.items()
        if metric == name and wanted <= set(pairs)
    )


def prom_delta(before, after, name: str, **labels: str) -> float:
    return prom_sum(after, name, **labels) - prom_sum(before, name, **labels)


def sum_fields(results: Iterable, fields: Sequence[str]) -> Dict[str, int]:
    """Σ of result counters: ``stats.<f>`` or the result's own ``<f>``."""
    totals = {name: 0 for name in fields}
    for result in results:
        for name in fields:
            source = result.stats if hasattr(result.stats, name) else result
            totals[name] += getattr(source, name)
    return totals


# -- what a workload hands back to run.py ----------------------------------


class Outcome:
    """One run's counts, metric values and correctness problems.

    ``samples`` maps a timing metric to the number of measurements
    behind it, printed beside the value.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.values: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}

    def fail(self, message: str, wrong: bool = True) -> None:
        """One failed operation.  ``wrong`` (a byte mismatch, a failed
        job) also makes the run incorrect; a refusal or a timeout only
        counts against ``failed``."""
        self.failed += 1
        if wrong:
            self.problems.append(message)

    def check(self, ok: bool, message: str) -> None:
        """A whole-run check (not an operation): a problem, not a failure."""
        if not ok:
            self.problems.append(message)


# -- the serve daemon ------------------------------------------------------


def start_daemon(directory: pathlib.Path, *extra: str):
    """Start ``python -m repro.serve`` with default flags, its journal
    and cache in ``directory``; returns ``(process, base_url)`` once
    ``/readyz`` answers 200."""
    from repro.serve.client import ServeClient, ServeHTTPError

    directory.mkdir(parents=True, exist_ok=True)
    port_file = directory / "port"
    proc = spawn([
        "-m", "repro.serve",
        "--journal", str(directory / "journal.jsonl"),
        "--cache", str(directory / "cache"),
        "--port", "0",
        "--port-file", str(port_file),
        *extra,
    ])

    def alive():
        if proc.poll() is not None:
            raise RuntimeError(f"repro.serve exited with {proc.returncode}")

    def bound():
        alive()
        return read_port_file(port_file)

    try:
        base = "http://" + wait_for(bound, 60, "the daemon's port file")
        probe = ServeClient(base, timeout_s=5, retries=0)

        def ready():
            alive()
            try:
                probe.readyz()
                return True
            except (ServeHTTPError, OSError):
                return False

        wait_for(ready, 60, "/readyz")
    except BaseException:
        stop(proc)
        raise
    return proc, base
