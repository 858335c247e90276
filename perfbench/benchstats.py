"""The benchmark's own arithmetic: percentiles, the capacity search and the
traced-breakdown closure.

Everything here is pure (no repro imports, no clock), so the self-tests in
``test_benchstats.py`` cover it exactly.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: A reported percentile needs at least this many samples strictly beyond it.
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to have a real tail."""


def tail_count(n: int, q: float) -> int:
    """How many of *n* sorted samples lie beyond the nearest-rank *q*
    percentile (the value at rank ``ceil(q * n)``)."""
    return n - max(1, math.ceil(q * n))


def percentile(values: Sequence[float], q: float, min_tail: int = MIN_TAIL_SAMPLES) -> float:
    """Nearest-rank percentile of *values* (need not be sorted).

    Raises :class:`TooFewSamples` unless at least *min_tail* samples lie
    beyond the reported one, so a "p99" of 200 samples cannot be reported.
    ``q = 0.5`` is the (lower) median and needs no tail.
    """
    n = len(values)
    if n == 0:
        raise TooFewSamples("no samples")
    if q > 0.5 and tail_count(n, q) < min_tail:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {tail_count(n, q)} beyond it "
            f"(need {min_tail})"
        )
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * n)) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# --------------------------------------------------------------------------- #
# Capacity search                                                             #
# --------------------------------------------------------------------------- #


def next_probe(
    probes: Sequence[Tuple[float, float]], limit: float, growth: float, refinements: int
) -> Optional[float]:
    """The next offered rate to try, given the ``(rate, p99)`` probes so far
    in the order they ran.

    Rates grow geometrically by *growth* until one misses *limit*; then the
    bracket between the highest passing rate below the lowest failing one
    and that failing rate is bisected (geometric midpoint) *refinements*
    times.  ``None`` ends the search.
    """
    failed_at = next((i for i, (_, p99) in enumerate(probes) if p99 > limit), None)
    if failed_at is None:
        return max(rate for rate, _ in probes) * growth
    high = min(rate for rate, p99 in probes if p99 > limit)
    below = [rate for rate, p99 in probes if p99 <= limit and rate < high]
    if not below or len(probes) - failed_at - 1 >= refinements:
        return None
    return math.sqrt(max(below) * high)


def capacity(probes: Sequence[Tuple[float, float]], limit: float) -> float:
    """The highest rate meeting *limit*, interpolated on the probes.

    Takes the highest passing rate below the lowest failing rate and the
    lowest failing rate, and interpolates linearly in p99 to where the
    curve crosses *limit* (so the answer moves continuously with the knee
    instead of jumping between probe rates).  With no failing probe the
    highest probe is returned; with no passing probe, 0.
    """
    passing = sorted((rate, p99) for rate, p99 in probes if p99 <= limit)
    failing = sorted((rate, p99) for rate, p99 in probes if p99 > limit)
    if not passing:
        return 0.0
    if not failing:
        return passing[-1][0]
    high_rate, high_p99 = failing[0]
    below = [(rate, p99) for rate, p99 in passing if rate < high_rate]
    if not below:
        return 0.0
    low_rate, low_p99 = below[-1]
    if math.isinf(high_p99):
        return low_rate
    fraction = (limit - low_p99) / (high_p99 - low_p99)
    return low_rate + fraction * (high_rate - low_rate)


# --------------------------------------------------------------------------- #
# Traced breakdown                                                            #
# --------------------------------------------------------------------------- #


def closure_error(
    layer_self_s: Dict[str, float], other_s: float, idle_s: float, ready_s: float, wall_s: float
) -> float:
    """What the traced breakdown fails to explain, as a fraction of wall.

    The parts are the layers' self times and ``other_s`` (CPU time outside
    every layer), ``idle_s``, the wait measured where the program waits
    (time in the event loop's selector; 0 for the simulator, which never
    waits), and ``ready_s``, time the process was runnable but waiting for a
    CPU.  Each is measured on its own -- none is wall minus the others -- so
    the sum is a real check.  A positive error is time no part covers (on a
    virtual machine, mostly time the host stole); a negative one is time
    counted twice.
    """
    parts = sum(layer_self_s.values()) + other_s + idle_s + ready_s
    return (wall_s - parts) / wall_s
