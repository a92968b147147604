"""The host-speed reference: a fixed, memory-bound pure-Python loop.

Runs as a helper process so that its memory stays out of the measured
processes.  For each line read from standard input it runs the loop
three times and writes the fastest loop's seconds; it exits at end of
input.  The loop does the same work on every host and every commit, and none of it is
program code, so its time tracks only how fast the host runs Python at
that moment (shared-host contention moves it, and the program, by a
third or more within seconds to minutes).
"""

from __future__ import annotations

import random
import sys
import time

#: distinct int objects (~36 MB), read in a fixed random order
TABLE = list(range(10**6, 2 * 10**6))
_RNG = random.Random(0)
ORDER = [_RNG.randrange(len(TABLE)) for _ in range(50_000)]
#: loops per sample
LOOPS = 3


def loop() -> float:
    started = time.perf_counter()
    total = 0
    out = []
    for index in ORDER:
        total += TABLE[index]
        out.append((index, total))
    return time.perf_counter() - started


def main() -> int:
    for _request in sys.stdin:
        # the fastest of three: the first pass after the workload ran
        # refills the caches the workload evicted
        sys.stdout.write(f"{min(loop() for _ in range(LOOPS)):.9f}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
