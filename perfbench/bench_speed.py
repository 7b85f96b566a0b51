"""The machine's current speed, read from a fixed reference loop.

The virtual machines this benchmark runs on share their cores.  Their speed
drifts by up to 1.8x over seconds to minutes, in user CPU time as much
as in wall time, with no steal time to subtract.  A short pure-Python
loop timed right before and right after a job slows with the job, so
a time multiplied by REFERENCE_S over the loop's time around it drifts
far less than the raw time (README.md, "Why scaled times").  The loop
calls nothing from congsub, so a change to congsub moves a scaled time
as much as a raw one.
"""
from time import perf_counter

# Seconds the loop takes on an idle 2-vCPU Intel Xeon virtual machine with
# Python 3.11: a scaled time reads as seconds on that machine at rest.
REFERENCE_S = 0.0098


def reference_loop() -> int:
    """Dict and integer work, like congsub's inner loops.  Of the objects
    the garbage collector tracks it allocates only the one dict."""
    d = {}
    for i in range(70000):
        k = i * 7919 % 10007
        d[k] = d.get(k, 0) + i
    return len(d)


def reference_s() -> float:
    """Seconds one reference loop takes now."""
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def scaled(seconds: float, reference: float) -> float:
    """Seconds at rest: seconds measured while the loop took ``reference``."""
    return seconds * REFERENCE_S / reference
