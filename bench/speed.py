"""Machine-speed reference for normalizing benchmark times.

The host's speed changes by up to 1.7x, for seconds to minutes at a time,
while nothing in this process changes: other tenants share the cores. A
fixed kernel timed right next to the measured work slows down with it, so
the ratio of the two is steady where either time alone is not.

The kernel walks a table tree the way dmkit's codec does. It does shifts
and masks on small ints, list and dict lookups, comprehensions, and field
extraction from a large int, as the stream path does. Do not edit it:
every normalized metric is expressed in its time, and a change rescales
them all.
"""

from __future__ import annotations

import random
from time import perf_counter

# Normalized seconds = measured seconds * NOMINAL_S / kernel seconds, that
# is, seconds on a machine where one kernel call takes 0.5 ms (about its
# time on an uncontended 2-core Xeon VM).
NOMINAL_S = 5e-4

_rng = random.Random(20190613)
_ENTRIES = [_rng.getrandbits(12) for _ in range(2048)]
_INVERSE = {e: i for i, e in enumerate(_ENTRIES)}
_WORDS = [_rng.getrandbits(507) for _ in range(12)]
_BIG = _rng.getrandbits(1 << 17)
_BIG_WIDTH = 1 << 17


def kernel() -> int:
    acc = 0
    for n, w in enumerate(_WORDS):
        r = [0]
        for layer in range(6):
            vals = [_ENTRIES[((x << 5) | ((w >> (5 * j + layer)) & 31)) & 2047] for j, x in enumerate(r)]
            r = [(v >> (6 * k)) & 63 for v in vals for k in range(2)]
        acc ^= sum(_INVERSE.get(v, 0) for v in vals)
        acc ^= (_BIG >> (_BIG_WIDTH - 640 * (n + 1))) & ((1 << 640) - 1)
    return acc


def kernel_seconds(reps: int = 3) -> float:
    """Fastest of reps timed kernel calls."""
    best = float("inf")
    for _ in range(reps):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best
