"""One set-up sample: bring every surface up in a fresh interpreter.

Imports, compiled-plan warm-up, a prewarmed ``LintPool`` of ``--jobs``
workers, a lint service answering ``/healthz`` (its own pool of one
worker, as ``repro serve --jobs 1`` boots) and a started
``TailMonitor``.  Prints ``ready <monotonic seconds>`` when all are up,
then tears everything down; the caller times from process launch.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import time


async def _service_ready() -> object:
    from repro.service import LintService, ServiceConfig

    service = LintService(ServiceConfig(port=0, jobs=1))
    await service.start()
    serve = asyncio.ensure_future(service.serve_forever())
    reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
    writer.write(b"GET /healthz HTTP/1.1\r\nHost: probe\r\nConnection: close\r\n\r\n")
    await writer.drain()
    head = await reader.read()
    writer.close()
    if b" 200 " not in head.split(b"\r\n", 1)[0]:
        raise SystemExit(f"healthz failed: {head[:80]!r}")
    return service, serve


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    import repro.analysis  # noqa: F401  (the batch job's table functions)
    import repro.fuzz  # noqa: F401
    from repro.ct import MonitorConfig, TailLog, TailMonitor
    from repro.ct.corpus import Corpus
    from repro.engine import Engine
    from repro.lint import LintPool

    Engine().warm_compiled_plan()
    pool = LintPool(args.jobs)
    pool.prewarm()

    loop = asyncio.new_event_loop()
    service, serve = loop.run_until_complete(_service_ready())

    os.makedirs(args.workdir, exist_ok=True)
    monitor = TailMonitor(
        TailLog(Corpus()),
        MonitorConfig(
            checkpoint_path=os.path.join(args.workdir, "probe.ckpt"),
            store_dir=os.path.join(args.workdir, "probe-segments"),
        ),
    )
    monitor.start(resume=False)
    print(f"ready {time.monotonic()!r}", flush=True)

    pool.shutdown()
    loop.run_until_complete(service.drain())
    serve.cancel()
    loop.run_until_complete(asyncio.sleep(0))
    loop.close()


if __name__ == "__main__":
    main()
