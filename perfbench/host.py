"""The host under the benchmark: holding its speed, and recording it.

On the 2-CPU VM this benchmark was built on, a CPU that goes idle even
for 10 ms runs Python at about 55% speed for the next burst of work
(measured with :func:`measure` below: 2100 passes/s under continuous
load, 1250 with 10 ms gaps).  Open-loop phases idle between requests
and batch repetitions idle between rounds, so every figure would swing
with the host's power management.  :class:`KeepWarm` runs one busy loop
per usable CPU under ``SCHED_IDLE`` for the whole run: the CPUs never
idle, and any measured process preempts the loops at once.  (At nice 19
instead, a loop kept the CPU for a slice now and then while a measured
process wanted it: busy stretches saw a 4 ms gap at the p99, against
0.8 ms under ``SCHED_IDLE`` and 0.3 ms with no loops.)

:func:`measure` times a fixed reference workload, frozen benchmark code
that no program change can alter, so every record carries the host
speed it was taken at.  The workload is what the program spends its
time on: walking tag-length-value bytes, slicing, decoding short
strings, building small objects and dictionaries, calling small
functions.

The host's speed also drifts: a fixed Python loop runs at about 1000
or about 2000 passes/s, switching every second or so, independently on
each CPU, with the share of slow time moving over minutes.  Throughputs
in wall seconds drift with it by up to 30% between runs of the same
code, however long the run.  So the harness probes the speed between
every two samples of a run (:data:`PROBE_SECONDS` each), and restates
its timings at :data:`REFERENCE_SPEED` by the mean of the run's probes
(:func:`reference_seconds`; latencies in part, see ``run.end_to_end``).
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time

#: Host speed, in reference passes per second, that timings are stated
#: at: about the fast state of the 2-CPU VM this was built on.
REFERENCE_SPEED = 2000.0
#: Length of one probe of the host speed, seconds (3-6 bursts).
PROBE_SECONDS = 0.03

#: One busy loop pinned to CPU ``argv[1]``, run only when nothing else
#: wants the CPU.
_SPIN = (
    "import os, sys\n"
    "os.sched_setaffinity(0, {int(sys.argv[1])})\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "while True:\n"
    "    pass\n"
)


def _blob(seed: int = 2025, items: int = 400) -> bytes:
    rng = random.Random(seed)
    parts = []
    for _ in range(items):
        length = rng.randrange(1, 40)
        parts.append(bytes([rng.choice((0x0C, 0x13, 0x16, 0x1E, 0x30)), length]))
        parts.append(bytes(rng.randrange(32, 127) for _ in range(length)))
    return b"".join(parts)


BLOB = _blob()


class _Item:
    __slots__ = ("tag", "text")

    def __init__(self, tag: int, text: str):
        self.tag = tag
        self.text = text


def _classify(item: _Item) -> str:
    if item.text.isdigit():
        return "digits"
    return "upper" if item.text.isupper() else "mixed"


def reference_pass(blob: bytes = BLOB) -> int:
    """One pass of the reference workload; returns a checksum."""
    counts: dict[str, int] = {}
    index = 0
    end = len(blob)
    while index < end:
        tag = blob[index]
        length = blob[index + 1]
        text = blob[index + 2 : index + 2 + length].decode("latin-1")
        item = _Item(tag, text)
        key = f"{item.tag:02x}:{_classify(item)}"
        counts[key] = counts.get(key, 0) + len(item.text)
        index += 2 + length
    return sum(counts.values())


def measure(seconds: float = 0.3) -> float:
    """Median passes per second over short bursts lasting ``seconds``."""
    rates = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        for _ in range(10):
            reference_pass()
        rates.append(10 / (time.perf_counter() - start))
    return statistics.median(rates)


def reference_seconds(wall: float, speed: float) -> float:
    """``wall`` seconds at host ``speed``, restated at
    :data:`REFERENCE_SPEED`: the time the same work takes on a host
    where one reference pass takes ``1 / REFERENCE_SPEED`` seconds."""
    return wall * speed / REFERENCE_SPEED


class KeepWarm:
    """``SCHED_IDLE`` busy loops, one pinned to each usable CPU, while
    open.  A loop on the same CPU as the measured process is what holds
    that CPU's speed: one on the other CPU does not."""

    def __init__(self, cwd, env: dict):
        self.cwd = cwd
        self.env = env
        self.procs: list[subprocess.Popen] = []

    def __enter__(self) -> "KeepWarm":
        for cpu in sorted(os.sched_getaffinity(0)):
            self.procs.append(subprocess.Popen(
                [sys.executable, "-c", _SPIN, str(cpu)], cwd=self.cwd, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            ))
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()
