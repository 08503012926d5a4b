"""Interpreter speed sampled while an operation runs.

A shared host's speed drifts by tens of percent within seconds, which swamps
the differences the benchmark must resolve. So while an operation runs, a
profiling timer fires every INTERVAL_S of the process's CPU time and its
handler times a fixed interpreter loop. An operation's time at reference
speed is its time without the handler's, times NOMINAL_S over the median
loop time. The timer only counts CPU time, so an idle process is not sampled.

The benchmark imports this module in its own process and in every child it
times, so it imports nothing beyond what any interpreter has loaded.
"""

import atexit
import signal
import time

INTERVAL_S = 0.025
LOOPS = 5000
# Round figure near the median loop time on a 2-vCPU Xeon VM, Python 3.11.7.
NOMINAL_S = 0.0004


class Sampler:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def _probe(self, _signum, _frame) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(LOOPS):
            total += i * i % 7
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.siginterrupt(signal.SIGPROF, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


def sample_to(path: str) -> None:
    """Sample the rest of this process and write one sample per line at exit."""
    sampler = Sampler().__enter__()

    def write() -> None:
        sampler.__exit__()
        with open(path, "w") as fh:
            fh.write("".join(f"{s!r}\n" for s in sampler.samples))

    atexit.register(write)


def at_reference_speed(elapsed: float, samples: list[float]) -> float | None:
    """``elapsed`` less the sampling time, scaled to NOMINAL_S; None without samples."""
    import statistics  # not at the top: children should not pay for it

    if not samples:
        return None
    return (elapsed - sum(samples)) * NOMINAL_S / statistics.median(samples)
