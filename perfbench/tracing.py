"""Per-layer tracing from outside the program.

The traced pass wraps calls into each layer's public functions -- the
replica-core methods on each ``cluster.replicas[...]`` instance, the
``FrontEndCore`` methods on each front end, the codec names
``repro.net.runtime`` calls, ``Simulator.step`` on the cluster's simulator
-- and records for each wrapped name the call count and the *self* time
(span time minus the spans nested inside it).  The calls are synchronous and
the process has one thread, so spans never overlap and self times add up.

Nothing here is imported by an untraced pass's timed code: the wrappers are
installed on instances (or module attributes) and removed by
:meth:`Tracer.restore`, so tracing off costs nothing.
"""

from __future__ import annotations

import asyncio
import gc
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: Replica-core methods wrapped on every ``cluster.replicas[...]`` instance.
CORE_METHODS = (
    "receive_request",
    "receive_gossip_batch",
    "do_all_ready",
    "make_response",
    "make_gossip",
    "maybe_compact",
    "receive_pull_request",
    "receive_transfer",
)

#: ``FrontEndCore`` methods wrapped on every front end (one layer).
FRONTEND_METHODS = (
    "request",
    "make_request_message",
    "receive_response",
    "respond",
)


class Tracer:
    """Span accounting: per-name call counts and self time.

    Spans are timed in thread CPU time, so a span the operating system or
    the host preempts is not charged for the time it did not run."""

    def __init__(self, clock: Callable[[], float] = time.thread_time) -> None:
        self.clock = clock
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Child time accumulated by each open span (innermost last).
        self._open: List[float] = []
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def span(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped so that each call is one span named *name*."""
        clock = self.clock
        open_spans = self._open
        calls = self.calls
        self_s = self.self_s

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                self_s[name] += duration - children
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += duration

        return traced

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a traced version (undone by
        :meth:`restore`).  On an instance this shadows the class method."""
        had_own = attribute in vars(owner)
        original = getattr(owner, attribute)
        self._undo.append((owner, attribute, vars(owner).get(attribute), had_own))
        setattr(owner, attribute, self.span(name, original))

    def restore(self) -> None:
        for owner, attribute, original, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._undo.clear()

    def wrap_cluster(self, cluster) -> None:
        """Wrap the replica cores and front ends of *cluster*."""
        for replica in cluster.replicas.values():
            for method in CORE_METHODS:
                self.wrap(replica, method, f"core.{method}")
        for frontend in cluster.frontends.values():
            for method in FRONTEND_METHODS:
                self.wrap(frontend, method, "frontend")


class GcMonitor:
    """Collector pauses via ``gc.callbacks`` (pauses happen inside spans, so
    they overlap the layer times rather than adding to them)."""

    def __init__(self) -> None:
        self.pauses = 0
        self.total_s = 0.0
        self.max_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        pause = time.perf_counter() - self._started
        self.pauses += 1
        self.total_s += pause
        self.max_s = max(self.max_s, pause)

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


class SelectorIdle:
    """Time the running event loop spends waiting in its selector: the
    process's measured idle time.  Uses the loop's ``_selector`` attribute
    (CPython's selector event loops), restored on exit."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.idle_s = 0.0
        self._selector = loop._selector  # noqa: SLF001 - no public hook exists
        self._original = self._selector.select

    def __enter__(self) -> "SelectorIdle":
        original = self._original

        def select(timeout=None):
            start = time.perf_counter()
            try:
                return original(timeout)
            finally:
                self.idle_s += time.perf_counter() - start

        self._selector.select = select
        return self

    def __exit__(self, *exc) -> None:
        del self._selector.select


def _proc_fields(path: str) -> List[int]:
    """The integers on the first line of *path*, or none where the kernel
    does not provide the file (these figures are diagnostics, not gates)."""
    try:
        with open(path) as handle:
            return [int(x) for x in handle.readline().split() if x.isdigit()]
    except OSError:
        return []


def run_delay_s() -> float:
    """Time this (single-threaded) process has spent runnable but waiting
    for a CPU, from ``/proc/self/schedstat`` (0 where it is missing)."""
    fields = _proc_fields("/proc/self/schedstat")
    return fields[1] / 1e9 if len(fields) > 1 else 0.0


def host_cpu_jiffies() -> Tuple[int, int]:
    """``(steal, total)`` CPU time of the whole host, from ``/proc/stat``:
    time the hypervisor ran something else while a CPU had work (``(0, 0)``
    where it is missing)."""
    fields = _proc_fields("/proc/stat")
    return (fields[7], sum(fields)) if len(fields) > 7 else (0, 0)


class Meter:
    """Wall time, process CPU time, run-queue wait and host steal,
    accumulated over the stretches of a run it is entered for."""

    def __init__(self) -> None:
        self.wall_s = self.cpu_s = self.ready_s = 0.0
        self._steal = self._total = 0

    @property
    def steal_frac(self) -> float:
        """Share of the host's CPU time stolen by the hypervisor."""
        return self._steal / self._total if self._total else 0.0

    def __enter__(self) -> "Meter":
        steal, total = host_cpu_jiffies()
        self._start = (run_delay_s(), steal, total, time.process_time(), time.perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        ready, steal, total = run_delay_s(), *host_cpu_jiffies()
        ready0, steal0, total0, cpu0, wall0 = self._start
        self.wall_s += wall - wall0
        self.cpu_s += cpu - cpu0
        self.ready_s += ready - ready0
        self._steal += steal - steal0
        self._total += total - total0


async def sample_loop(period: float, lags: List[float], probe: Callable[[], None]) -> None:
    """Sleeper task: every *period* record how late the loop woke it (the
    event-loop lag) and run *probe* (state sampling).  Runs until cancelled."""
    loop = asyncio.get_running_loop()
    while True:
        due = loop.time() + period
        await asyncio.sleep(period)
        lags.append(loop.time() - due)
        probe()
