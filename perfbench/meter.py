#!/usr/bin/env python3
"""Speed meter: times a fixed job back to back on one core, in a process of
its own, so that it never holds the benchmark's interpreter lock.

    python3 perfbench/meter.py CPU OUTFILE

Pins itself to CPU, prints "ready" once numpy has loaded, then appends one
line "start seconds" per job to OUTFILE, start being CLOCK_MONOTONIC, which
all processes share. It runs until it is terminated or its parent is gone.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np


def job() -> None:
    """A fixed job mixing an interpreted loop, numpy scans and float
    formatting, as the commands do."""
    acc = 0
    for i in range(20000):
        acc += (i * 7) % 13
    vec = np.arange(20000.0)
    for _ in range(8):
        vec = np.cumsum(vec) % 97.0
    ",".join([repr(x) for x in vec[:1500].tolist()])


def main() -> int:
    cpu, path = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    clock = time.CLOCK_MONOTONIC
    with open(path, "w", buffering=1) as out:
        print("ready", flush=True)
        while os.getppid() == parent:
            start = time.clock_gettime(clock)
            job()
            out.write(f"{start!r} {time.clock_gettime(clock) - start!r}\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(0)
