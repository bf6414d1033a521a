"""A fixed pure-Python reference load that gauges the machine's speed.

On a shared host the speed of one vCPU drifts by a quarter and more in
phases of seconds to minutes, and CPU time drifts with it, so raw job
times of the same code disagree between runs made minutes apart. run.py
therefore runs this reference for a short burst before and after every
child process and scales the child's times by the reference rate around
it. The reference is benchmark code, not program code: a faster program
lowers the scaled times, a faster or slower machine phase does not.

The loop mixes what the jobs spend their time on: big-integer products
and remainders (K-parts), tuple keys in a dict that grows (BFS), and
lookups spread over a table a few megabytes in size (ball lookups).
"""

from __future__ import annotations

from time import perf_counter

# Reference units per second that count as nominal speed: scaled times are
# seconds at this rate. Fixed once; it only sets the scale of the numbers.
NOMINAL_RATE = 2000.0

_MODULUS = (1 << 127) - 1
_TABLE = {(i * 2654435761) & 0xFFFFFF: i for i in range(1 << 16)}
_TABLE_KEYS = list(_TABLE)


def _unit() -> int:
    """One unit of reference work, about half a millisecond at nominal speed."""
    seen = {}
    x = 0x9E3779B97F4A7C15
    keys = _TABLE_KEYS
    table = _TABLE
    total = 0
    for i in range(600):
        x = (x * x + i) % _MODULUS
        key = (i & 31, x & 0x3FF, i >> 4)
        seen[key] = seen.get(key, 0) + 1
        total += table[keys[(x >> 20) & 0xFFFF]]
    return total + len(seen)


def rate(seconds: float) -> float:
    """Reference units per second over a burst of about `seconds`."""
    start = perf_counter()
    units = 0
    while True:
        _unit()
        units += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return units / elapsed
