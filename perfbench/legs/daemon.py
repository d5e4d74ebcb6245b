"""Launch the lint daemon of a traced run, with span wrappers installed.

The wrappers go in first (admission decode, certificate decode, the
micro-batcher hand-off and the pool bridge), then
``repro.service.run_server`` runs with the settings of the untraced
``repro serve --port 0 --jobs 1 --cache-size SERVICE_CACHE``; when
SIGTERM drains the daemon, the per-layer figures are written to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import time


def install(tracer, state: dict) -> None:
    import repro.service.server as server
    from repro.lint import LintPool
    from repro.service.batcher import MicroBatcher
    from repro.x509 import Certificate

    from perfbench import trace

    trace.patch_function(tracer, server, "_parse_der", "service.admission.decode")
    trace.patch_method(tracer, Certificate, "from_der", "x509.decode")

    # Each request gets an id; spans recorded before the handler's first
    # await (admission decode included) carry it.
    original_route = server.LintService._route
    request_ids = iter(range(1, 1 << 62))

    async def route(self, request):
        tracer.request_id = next(request_ids)
        return await original_route(self, request)

    server.LintService._route = route

    submitted: dict[int, list[float]] = {}
    waits = state.setdefault("batcher_waits", [])
    ipc = state.setdefault("ipc", [])

    original_submit = MicroBatcher.submit

    def submit(self, der):
        submitted.setdefault(id(der), []).append(time.perf_counter())
        return original_submit(self, der)

    MicroBatcher.submit = submit

    original_dispatch = server.LintService._dispatch

    def dispatch(self, ders):
        now = time.perf_counter()
        for der in ders:
            stamps = submitted.get(id(der))
            if stamps:
                waits.append(now - stamps.pop(0))
                if not stamps:
                    del submitted[id(der)]
        return original_dispatch(self, ders)

    server.LintService._dispatch = dispatch

    original_timed = LintPool.submit_timed

    def submit_timed(self, ders, *args, **kwargs):
        start = time.perf_counter()
        future = original_timed(self, ders, *args, **kwargs)

        def done(fut):
            if fut.cancelled() or fut.exception() is not None:
                return
            worker_cpu = sum(fut.result().timings.cpu.values())
            ipc.append(time.perf_counter() - start - worker_cpu)

        future.add_done_callback(done)
        return future

    LintPool.submit_timed = submit_timed


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from repro.service import ServiceConfig, run_server

    from perfbench import trace
    from perfbench.common import write_json
    from perfbench.service_load import SERVICE_CACHE

    tracer = trace.Tracer()
    state: dict = {}
    install(tracer, state)
    asyncio.run(run_server(ServiceConfig(port=0, jobs=1, cache_size=SERVICE_CACHE), announce=print))
    write_json(args.out, {"layers": trace.self_times(tracer.spans), **state})


if __name__ == "__main__":
    main()
