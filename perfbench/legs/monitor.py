"""monitor-tail leg: checkpointed ``TailMonitor`` instances on ``TailLog`` logs.

Every round of the run gets a fresh monitor on a fresh simulated log,
built from the next slice of the corpus.  The monitor's per-poll cost
grows with its position (more index windows in every checkpoint), so
with one monitor for the whole run the lag tail would come from the last
round alone, a second or two of host time; fresh monitors put every
round in the same program state, and the lag figures pool all of them.

Each ``segment`` request runs one round in two phases.  *Catch-up*: the
log is published ``CATCHUP_BATCHES`` full batches (spread over the
rounds) ahead of the monitor, which polls full batches until it reaches
the head.  *Live*: the log grows open-loop at ``LIVE_RATE`` entries/s
and the monitor polls whatever arrived.  An entry's lag runs from its
publish time to the end of the poll that folded and checkpointed it.
``finish`` checks that every monitor's window grand total equals one
batch run over exactly the entries it consumed.

``TailLog`` stands in for a remote log server, so every second spent
inside its methods is subtracted: the leg runs on a clock that stops
while the simulated server works (``perf_counter() - seconds``).  The
clock also stops inside ``os.fsync``, the shared disk's flushes of the
segment and checkpoint files: on the VM this was built on, one flush in
a minute took 333 ms where the median takes 0.3 ms, and one such flush
in a live phase set the run's lag p99 on its own.  The flushes' count
and time are replied for the record.
"""

from __future__ import annotations

import argparse
import gc
import os
import time

from perfbench.common import peak_rss_mb, rss_mb, serve, share

TAIL_METHODS = ("advance", "sth", "get_entries", "prove_consistency", "prove_inclusion")

#: The monitor's settings: full-batch size and tumbling index window.
BATCH_SIZE = 128
INDEX_WINDOW = 256
#: Entries a throwaway monitor catches up on, then follows live, first:
#: live polls warm lazy state that catch-up polls do not.
WARMUP = 128
WARMUP_LIVE = 150
#: Per run: full batches caught up on and live entries, split over the
#: rounds (two batches and 175 entries a round at 8 rounds).  1400 live
#: entries support a p99 with fourteen samples beyond it, so a single
#: slow poll moves it less than with the ten that 1000 allow.
CATCHUP_BATCHES = 16
LIVE = 1400
#: At 150 entries/s the monitor stays under a third busy even while the
#: host runs slow; nearer saturation, lag grows steeply with any
#: slowdown, and the lag figures would mostly measure the host.
LIVE_RATE = 150.0


def entries_needed() -> int:
    """Corpus records one run consumes, however many rounds it has."""
    return WARMUP + WARMUP_LIVE + CATCHUP_BATCHES * BATCH_SIZE + LIVE


class ExternalClock:
    """Accumulates time spent outside the monitor's own work, per
    account: ``server`` inside the simulated logs' methods, ``disk``
    inside ``os.fsync``."""

    def __init__(self):
        self.seconds = {"server": 0.0, "disk": 0.0}
        self.calls = {"server": 0, "disk": 0}

    def attach(self, owner, names, account: str) -> None:
        for name in names:
            setattr(owner, name, self._timed(getattr(owner, name), account))

    def _timed(self, fn, account: str):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[account] += time.perf_counter() - start
                self.calls[account] += 1

        return timed

    def now(self) -> float:
        """Wall clock with the external time taken out."""
        return time.perf_counter() - self.seconds["server"] - self.seconds["disk"]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--corpus", nargs="+", required=True, help="pickled corpora, concatenated")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None, help="where a traced finish writes its spans")
    args = parser.parse_args()

    from repro.ct import MonitorConfig, TailLog, TailMonitor
    from repro.ct.corpus import Corpus
    from repro.engine import Engine
    from repro.lint.serialization import summary_to_json

    from perfbench.inputs import load_corpus

    before = rss_mb()
    parts = [load_corpus(path) for path in args.corpus]
    corpus = Corpus(records=[r for part in parts for r in part.records], scale=parts[0].scale)
    if len(corpus.records) < entries_needed():
        raise SystemExit(f"monitor corpus has {len(corpus.records)} entries, "
                         f"a run needs {entries_needed()}")
    # One log per round, plus the warm-up's, each over its own slice.
    sizes = [WARMUP + WARMUP_LIVE] + [
        share(CATCHUP_BATCHES, args.rounds, r) * BATCH_SIZE + share(LIVE, args.rounds, r)
        for r in range(args.rounds)
    ]
    slices, start = [], 0
    for size in sizes:
        slices.append(Corpus(records=corpus.records[start:start + size], scale=corpus.scale))
        start += size
    logs = [TailLog(part) for part in slices]
    input_mb = rss_mb() - before
    # The inputs and the simulated log servers are not the monitor's heap:
    # frozen, they stay out of its garbage collections, which would
    # otherwise pause a poll for 150-200 ms now and then.
    gc.freeze()

    tracer = None
    if args.trace:
        from perfbench import trace

        tracer = trace.Tracer()
        trace.install_lint_layers(tracer)
        trace.install_monitor_layers(tracer)
    clock = ExternalClock()
    for log in logs:
        clock.attach(log, TAIL_METHODS, "server")
    clock.attach(os, ("fsync",), "disk")
    engine = Engine()
    totals: list[str] = []
    state: dict = {}

    def run_round(index: int, catchup: int, live: int) -> dict:
        log = logs[index]
        workdir = os.path.join(args.workdir, f"round-{index}")
        os.makedirs(workdir, exist_ok=True)
        checkpoint = os.path.join(workdir, "monitor.ckpt")
        segments = os.path.join(workdir, "segments")
        monitor = TailMonitor(
            log,
            MonitorConfig(
                batch_size=BATCH_SIZE,
                jobs=1,
                index_window=INDEX_WINDOW,
                checkpoint_path=checkpoint,
                store_dir=segments,
            ),
            engine=engine,
        )
        monitor.start(resume=False)

        def poll():
            if tracer is None:
                return monitor.poll()
            tracer.request_id = f"{index}:{monitor.position}"  # spans of one poll share an id
            with tracer.span("harness.monitor.poll"):
                return monitor.poll()

        # Catch-up: publish ``catchup`` entries at once, poll until level.
        log.advance(catchup)
        start = clock.now()
        while monitor.position < log.size:
            poll()
        catchup_s = clock.now() - start
        # Live: entry k is published at origin + (k + 1) / LIVE_RATE.
        base = monitor.position
        origin = clock.now()
        due = [origin + (k + 1) / LIVE_RATE for k in range(live)]
        lags: list[float] = []
        batches: list[int] = []
        polls: list[float] = []
        backlog: list[int] = []
        published = 0
        while monitor.position < base + live:
            now = clock.now()
            ready = min(live, int((now - origin) * LIVE_RATE))
            if ready > published:
                log.advance(ready - published)
                published = ready
            if monitor.position >= log.size:
                time.sleep(max(0.0, due[published] - clock.now()))
                continue
            backlog.append(log.size - monitor.position)
            start = clock.now()
            outcome = poll()
            end = clock.now()
            polls.append(end - start)
            batches.append(outcome.count)
            lags.extend(end - due[i - base] for i in range(outcome.start, outcome.stop))
        totals.append(summary_to_json(monitor.window.total.summary))
        state["checkpoint_bytes"] = os.path.getsize(checkpoint)
        state["segment_files"] = len(os.listdir(segments))
        return {
            "catchup_entries": catchup,
            "catchup_s": catchup_s,
            "lags": lags,
            "batches": batches,
            "polls": polls,
            "backlog_max": max(backlog, default=0),
        }

    def segment(round_no: int) -> dict:
        return run_round(
            round_no + 1,
            share(CATCHUP_BATCHES, args.rounds, round_no) * BATCH_SIZE,
            share(LIVE, args.rounds, round_no),
        )

    def finish() -> dict:
        result = {
            "entries": sum(len(part.records) for part in slices[1:len(totals)]),
            "tail_log_s": clock.seconds["server"],
            "fsync_s": clock.seconds["disk"],
            "fsync_calls": clock.calls["disk"],
            "checkpoint_bytes": state["checkpoint_bytes"],
            "segment_files": state["segment_files"],
            "peak_rss_mb": peak_rss_mb() - input_mb,
        }
        if tracer is not None:
            from perfbench import trace

            result["trace"] = {
                "layers": trace.self_times(tracer.spans),
                "closure": trace.closure(tracer.spans),
            }
            if args.spans:
                tracer.dump(args.spans)
        measured = slices[1:len(totals)]
        one_shot = [summary_to_json(Engine().run_corpus(part, 1).summary) for part in measured]
        result["total_match"] = totals[1:] == one_shot
        return result

    run_round(0, WARMUP, WARMUP_LIVE)  # a throwaway monitor fills lazy state
    serve({"entries": len(corpus.records)}, {"segment": segment, "finish": finish})


if __name__ == "__main__":
    main()
