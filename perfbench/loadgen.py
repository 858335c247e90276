"""The benchmark's open-loop load generator.

Arrivals form a Poisson process laid out in advance as *absolute* due
times, so a stall in the program delays the sends but never thins the
schedule.  Each operation's latency is timed from its due time (the wait a
stall imposes on later arrivals counts), and how late the generator itself
sent each operation is recorded separately.

(``repro.net.driver``'s open loop sleeps each gap after the previous send
and times from the actual send, so under load it offers less than asked.)
"""

from __future__ import annotations

import asyncio
import bisect
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro import CounterType, KeyedStore, Operator
from repro.net.runtime import OperationFailed
from repro.sim.workload import zipfian_cdf

NUM_KEYS = 1000
ZIPF_EXPONENT = 1.1
READ_FRACTION = 0.7


@dataclass
class Arrival:
    """One scheduled operation; the timing fields fill in as it runs."""

    due: float
    client: str
    operator: Operator
    strict: bool
    sent: Optional[float] = None
    done: Optional[float] = None
    failed: bool = False

    @property
    def latency(self) -> float:
        return self.done - self.due


def keyed_schedule(
    rng: random.Random,
    rate: float,
    start: float,
    duration: float,
    clients: Sequence[str],
    strict_fraction: float,
) -> List[Arrival]:
    """Poisson arrivals at *rate* per second over ``[start, start+duration)``.

    The count is fixed at ``round(rate * duration)`` and the due times are
    uniform order statistics -- a Poisson process conditioned on its count,
    so runs differ in timing, not in how much work they offer.  Keys are
    zipfian over a ``KeyedStore(CounterType())``; reads and adds mix
    ``READ_FRACTION`` to the rest; clients are chosen uniformly; exactly
    ``round(strict_fraction * n)`` of the *n* arrivals are strict.
    """
    cdf = zipfian_cdf(NUM_KEYS, ZIPF_EXPONENT)
    count = round(rate * duration)
    arrivals: List[Arrival] = []
    for due in sorted(start + rng.random() * duration for _ in range(count)):
        key = f"k{min(bisect.bisect_left(cdf, rng.random()), NUM_KEYS - 1)}"
        if rng.random() < READ_FRACTION:
            inner = CounterType.read()
        else:
            inner = CounterType.add(rng.randint(1, 9))
        arrivals.append(Arrival(due, rng.choice(clients), KeyedStore.at(key, inner), False))
    for index in rng.sample(range(count), round(strict_fraction * count)):
        arrivals[index].strict = True
    return arrivals


@dataclass
class OpenLoop:
    """Sends arrivals to a started ``NetCluster`` at their due times
    (``due`` is relative to *origin*, a loop time)."""

    cluster: object
    origin: float
    timeout: float = 60.0
    tasks: List[asyncio.Task] = field(default_factory=list)

    async def _one(self, arrival: Arrival) -> None:
        loop = asyncio.get_running_loop()
        arrival.sent = loop.time() - self.origin
        try:
            await self.cluster.submit(
                arrival.client, arrival.operator, strict=arrival.strict, timeout=self.timeout
            )
        except (OperationFailed, asyncio.TimeoutError):
            arrival.failed = True
            return
        arrival.done = loop.time() - self.origin

    async def send(self, arrivals: Sequence[Arrival]) -> None:
        """Start every arrival at its due time; returns after the last send
        (completions are awaited by :meth:`drain`)."""
        loop = asyncio.get_running_loop()
        for arrival in arrivals:
            delay = self.origin + arrival.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.tasks.append(loop.create_task(self._one(arrival)))

    async def drain(self) -> None:
        await asyncio.gather(*self.tasks)
        self.tasks.clear()


def lateness(arrivals: Sequence[Arrival]) -> List[float]:
    """How late the generator started each operation (seconds)."""
    return [a.sent - a.due for a in arrivals if a.sent is not None]
