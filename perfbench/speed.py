"""Core speed sampling: times scaled to a fixed reference speed.

The cores this benchmark runs on are shared, and their speed drifts by a
factor of up to two over a few seconds, so raw times of the same work differ
by a third from one run to the next.  While a call runs, a timer signal runs
a fixed reference loop every REF_PERIOD_S on the same core, and the call's
time is scaled to reference speed: each stretch between two samples counts
`stretch * REF_NOMINAL_S / (reference time at the stretch's end)`.  The time
spent in the reference loop itself is left out.
"""

import signal
import statistics
import time
from dataclasses import dataclass

clock = time.monotonic

REF_PERIOD_S = 0.01  # one reference sample per 10 ms of call
REF_NOMINAL_S = 1e-3  # reference loop time taken as the unit of scaled times


@dataclass(frozen=True)
class _Ref:
    a: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "a", self.a % 97)

    def __mul__(self, other: "_Ref") -> "_Ref":
        return _Ref(self.a * other.a, (self.b + other.b) % 89)


_REF_INPUT = [_Ref(i, i + 1) for i in range(1, 41)]


def reference() -> float:
    """Seconds taken by a fixed loop that allocates, validates and hashes like the package."""
    start = clock()
    seen: dict = {}
    acc = _REF_INPUT[0]
    for x in _REF_INPUT:
        for y in _REF_INPUT[:8]:
            acc = acc * x * y
            seen[acc] = seen.get(acc, 0) + 1
    return clock() - start


def probe() -> float:
    """Reference time now: the median of five runs after a warm-up."""
    return statistics.median([reference() for _ in range(8)][3:])


class SpeedSampler:
    """Reference-loop timings taken on SIGALRM every REF_PERIOD_S while active."""

    def __init__(self, on_sample=None):
        self.samples: list[tuple[float, float]] = []  # (start, reference seconds)
        self.on_sample = on_sample

    def _sample(self, signum, frame):
        start = clock()
        ref = reference()
        self.samples.append((start, ref))
        if self.on_sample is not None:
            self.on_sample(clock() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float, before: float) -> float:
        """Seconds at reference speed between start and end, samples excluded."""
        total, prev, last = 0.0, start, before
        for t0, ref in self.samples:
            total += (t0 - prev) * REF_NOMINAL_S / ref
            prev, last = t0 + ref, ref
        return total + (end - prev) * REF_NOMINAL_S / last


