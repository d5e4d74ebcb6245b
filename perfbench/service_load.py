"""service-mixed: an open-loop HTTP load generator for the lint daemon.

One process, one event loop, at most ``connections`` requests in flight.
Request ``i`` of a phase is due at ``origin + i / rate``; its latency is
timed from that due time, so a stall also charges the requests queued
behind it.  Each request is sent on a fresh connection (the daemon
answers one request per connection).
"""

from __future__ import annotations

import asyncio
import base64
import json
import random
import time
from dataclasses import dataclass, field

# The traffic mix.  The 16-certificate batch size and a repeat share of
# about a quarter, from a hot set smaller than the result cache, come from
# the workload's definition.  The other values are choices, not measured
# deployment figures (no such figures exist for this service):
#: Every ``BATCH_EVERY``-th request is a 16-certificate ``POST
#: /lint/batch`` call: 5% of requests, and about 46% of certificates, so
#: singles and batches both carry a large share of the work.  A fixed
#: interleave, not a random one: with random placement, how often two
#: batches queued behind each other varied with the seed, and the p99
#: (set by the batches) with it.
BATCH_EVERY = 20
BATCH_SIZE = 16
#: Distinct recent certificates the repeats are drawn from: a quarter of
#: ``SERVICE_CACHE``, so every repeat can still be cached.
HOT_SET = 64
#: The daemon's result cache (``repro serve --cache-size``): larger than
#: the hot set, smaller than the certificate pool (about 290), so a
#: certificate taken again in the next cycle has always been evicted.
SERVICE_CACHE = 256


@dataclass
class Request:
    path: str
    body: bytes
    ders: tuple[bytes, ...]


@dataclass
class Phase:
    rate: float
    requests: list[Request]
    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    latency: list[float] = field(default_factory=list)
    status: list[int] = field(default_factory=list)
    bodies: list[bytes] = field(default_factory=list)
    wall: float = 0.0


class Traffic:
    """Seeded request stream over a pool of distinct certificates.

    New certificates are taken in a fixed cycle longer than the result
    cache, so a cycled certificate has always been evicted again; a
    ``repeat_share`` of certificates repeat from the ``HOT_SET`` most
    recent.
    """

    def __init__(self, ders: list[bytes], seed: int, repeat_share: float):
        self.ders = ders
        self.rng = random.Random(seed)
        self.repeat_share = repeat_share
        self.next = 0
        self.sent = 0
        self.recent: list[bytes] = []

    def _cert(self) -> bytes:
        if self.recent and self.rng.random() < self.repeat_share:
            return self.rng.choice(self.recent)
        der = self.ders[self.next % len(self.ders)]
        self.next += 1
        self.recent.append(der)
        del self.recent[:-HOT_SET]
        return der

    def request(self) -> Request:
        self.sent += 1
        if self.sent % BATCH_EVERY == 0:
            ders = tuple(self._cert() for _ in range(BATCH_SIZE))
            payload = {"certificates": [base64.b64encode(d).decode("ascii") for d in ders]}
            return Request("/lint/batch", json.dumps(payload).encode(), ders)
        der = self._cert()
        return Request("/lint", der, (der,))

    def phase(self, rate: float, count: int) -> Phase:
        return Phase(rate, [self.request() for _ in range(count)])


async def _exchange(port: int, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}"
            f"\r\nConnection: close\r\n\r\n".encode("ascii") + body
        )
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
    head, _, payload = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head else 0
    return status, payload


async def run_phase(port: int, phase: Phase, connections: int) -> Phase:
    """Drive one phase open-loop; fills due/sent/latency/status/bodies."""
    slots = asyncio.Semaphore(connections)
    n = len(phase.requests)
    phase.latency = [0.0] * n
    phase.status = [0] * n
    phase.bodies = [b""] * n
    phase.sent = [0.0] * n

    async def one(i: int, due: float) -> None:
        phase.sent[i] = time.perf_counter()
        request = phase.requests[i]
        async with slots:
            try:
                status, body = await _exchange(port, "POST", request.path, request.body)
            except OSError:
                status, body = 0, b""
        phase.latency[i] = time.perf_counter() - due
        phase.status[i] = status
        phase.bodies[i] = body

    origin = time.perf_counter() + 0.01
    phase.due = [origin + i / phase.rate for i in range(n)]
    tasks = []
    for i, due in enumerate(phase.due):
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(i, due)))
    await asyncio.gather(*tasks)
    phase.wall = time.perf_counter() - origin
    return phase


async def get_json(port: int, path: str) -> dict:
    status, body = await _exchange(port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)
