"""Machine-speed probe, run beside the measured process on the same core.

    python3 bench/probe.py PERIOD_S

Every PERIOD_S seconds it times a fixed kernel (a short interpreter loop
and a small numpy call, both independent of spinpointer) in its own CPU
time. It prints "ready" once started. When its stdin closes, it prints the
samples as one JSON list of [perf_counter time, kernel CPU seconds].
"""
from __future__ import annotations

import json
import select
import sys
import time

import numpy as np

_X = np.linspace(0.0, 1.0, 2000)


def kernel() -> float:
    acc = 0
    for i in range(1500):
        acc += i * i % 7
    return acc + float(np.sum(np.sin(_X)))


def main(argv: list[str]) -> int:
    period = float(argv[0])
    samples = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], period)[0]:
        t = time.perf_counter()
        c = time.process_time()
        kernel()
        samples.append((t, time.process_time() - c))
    sys.stdout.write(json.dumps(samples) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
