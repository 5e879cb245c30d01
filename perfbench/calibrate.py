"""A fixed reference workload that measures how fast the host runs right now.

The speed of the 2-vCPU host the bounds were measured on drifts by 20% and
more over minutes. A 30-second run
cannot average that out, but the drift is shared by everything that runs in
the same minute: in a five-minute test, dividing 30-second window medians of
the simulator's pass times by those of a loop like this one cut their spread
from 0.23 to 0.06 (see README.md, "Host noise"). Single passes do not track
each other that closely, so the benchmark divides a run's median pass time
by the run's median reference time, never one pass by one reference.

The loop is plain Python and imports nothing from the program, so a change to
the program cannot move it. Its mix resembles the simulator's: a heap-driven
event loop over small objects, dicts, lists and f-strings, JSON encoding and
decoding, and a dict-of-tuples index build and probe. It holds a few
megabytes at most, so it never sets the process's peak resident memory.
"""

from __future__ import annotations

import heapq
import json
import random

# The unit of the scaled times: seconds on a host where one reference_loop()
# takes this long. It is a fixed choice, not a measured host speed; the runs
# that set the bounds measured 0.32-0.66 s (README.md, "What one run does").
REFERENCE_S = 0.43


class _Event:
    __slots__ = ("time", "index", "key")

    def __init__(self, time: float, index: int, key: str):
        self.time = time
        self.index = index
        self.key = key


def _event_loop() -> int:
    heap = [((i * 7919) % 10007 / 13.0, i) for i in range(15000)]
    heapq.heapify(heap)
    buckets: dict[str, list[_Event]] = {}
    total = 0
    pushed = 0
    while heap:
        t, i = heapq.heappop(heap)
        key = f"s{i % 997}"
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = []
        bucket.append(_Event(t, i, key))
        if len(bucket) > 8:
            ev = bucket.pop(0)
            line = json.dumps({"time": ev.time, "sample": ev.key, "n": ev.index}, sort_keys=True)
            total += json.loads(line)["n"]
        if i % 3 == 0 and pushed < 45000:
            pushed += 1
            heapq.heappush(heap, (t + (i % 17) * 0.5, i + 1))
    return total


def _index_build() -> int:
    rng = random.Random(5)
    hits = 0
    for _ in range(8):
        seqs = [[rng.randrange(32768) for _ in range(60)] for _ in range(300)]
        index: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
        for si, seq in enumerate(seqs):
            for j in range(len(seq) - 3):
                index.setdefault((seq[j], seq[j + 1], seq[j + 2]), []).append((si, j))
        for seq in seqs:
            for j in range(0, len(seq) - 3, 2):
                hits += len(index.get((seq[j], seq[j + 1], seq[j + 2]), ()))
    return hits


def reference_loop() -> int:
    """The fixed reference work; returns a checksum so nothing is skipped."""
    return _event_loop() + _index_build()
