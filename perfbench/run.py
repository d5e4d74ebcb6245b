"""The benchmark of record for ``repro``: one command, every surface.

Every run drives the four workloads of the system as *legs*, each on
inputs generated from ``--seed`` outside the timed region, interleaved
round by round (see :func:`run_legs`):

* ``batch-corpus`` — the ``repro corpus`` job (lint + the paper's
  tables) at ``jobs=1`` and at ``jobs=nproc`` over a ``CorpusStore``
  with a prewarmed ``LintPool``, each in a fresh interpreter;
* ``service-mixed`` — ``repro serve --port 0 --jobs 1`` in its own
  process, driven open-loop with singles and 16-certificate batches at a
  fixed nominal rate, then on a capacity staircase;
* ``monitor-tail`` — checkpointed ``TailMonitor`` instances, a fresh one each
  round, catching up on a ``TailLog`` and then following it live;
* ``fuzz-campaign`` — ``run_fuzz_campaign`` with the CLI defaults.

``--workload`` picks the certificate-sharing regime of the service
traffic (see ``WORKLOADS``); the other legs are the same in both.
``--trace 0`` prints every end-to-end metric, ``--trace 1`` runs the
legs with span wrappers installed and prints every per-layer metric.
The last stdout line is the JSON result; the line before it is the
full record (host fingerprint, provenance, raw figures), which is also
written under ``perfbench/.work``.

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 40 --trace 0
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import host, timing  # noqa: E402
from perfbench.common import (  # noqa: E402
    CACHE_DIR,
    ROOT,
    WORK_DIR,
    Leg,
    child_env,
    child_pids,
    cpu_seconds,
    peak_rss_mb,
    program_present,
    read_json,
    share,
    use_checkout_sources,
    write_json,
)

#: The ``--workload`` values: the share of service certificates drawn
#: again from the recent hot set.
WORKLOADS = {"paper-mix": 0.25, "distinct-certs": 0.0}

#: Corpus scales: the batch job's corpus, also the service's certificate
#: pool (about 290 certificates), and each of the two halves of the
#: monitor's logs (about 3870 entries together; a run consumes
#: ``legs.monitor.entries_needed()``, 3726).  The halves come from seeds
#: ``seed + 1`` and ``seed + 2`` and are generated side by side, which
#: halves the wait for a new seed's inputs on two CPUs.
BATCH_SCALE = 1 / 120000
MONITOR_SCALE = 1 / 18000

#: ``--seconds`` buys one round per ``ROUND_SECONDS``.  Every leg takes
#: samples in every round, so the samples spread over the whole run: on a
#: shared host, speed switches between states lasting about a second to
#: minutes, and a metric whose samples all fall in one spell would swing
#: with it.  Fixed-size phases are split across the rounds; batch jobs
#: are taken per round, so more seconds buy more of them.
ROUND_SECONDS = 5.0
MIN_ROUNDS = 4
#: Batch jobs per round: the serial job is the shorter sample and its
#: figure the less steady, so it gets two.
SERIAL_REPS = 2
POOL_REPS = 1
#: Set-up samples and fuzz campaigns per run, spread over the rounds.
SETUP_SAMPLES = 3
FUZZ_REPS = 2

#: Service nominal phase: rate (requests/s), warm-up and measured
#: requests.  The rate is a choice, not a measured deployment figure: it
#: is under half of the paper-mix capacity seen on the 2-CPU VM this was
#: built on while the host ran slow (about 240 requests/s), so a slow
#: spell does not tip it into queueing; distinct-certs is loaded to
#: about 60% then.  1000 requests support a p99 with ten samples beyond
#: it.
NOMINAL_RATE = 100.0
NOMINAL_REQUESTS = 1000
SERVICE_WARMUP = 50
#: Capacity staircase on a geometric grid of offered rates
#: ``LADDER_START * LADDER_RATIO**k``.  Each step offers
#: ``LADDER_REQUESTS`` at one grid rate; a pass moves one rate up, a
#: failure one rate down.  Until the first reversal it moves two rates at
#: a time, so a start far from the knee costs few steps.  100 requests
#: support a p90 with ten samples beyond it; many short steps average
#: more reversals than a few long ones in the same time.
LADDER_START = 250.0
LADDER_RATIO = 1.1
LADDER_STEPS = 14
LADDER_REQUESTS = 100
LADDER_QUANTILE = 0.9
#: A ladder step passes when every request succeeds and both its p90 and
#: its last request (a backlog left growing) stay within this limit.
LADDER_LIMIT_MS = 150.0


_STARTED = time.monotonic()


def log(message: str) -> None:
    elapsed = time.monotonic() - _STARTED
    print(f"[perfbench {elapsed:6.1f}s] {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def fingerprint(seed: int, workload: str, trace: int) -> dict:
    """Host fingerprint and provenance carried by every record."""
    revision, dirty = "unknown", None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip())
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(),
        "git_revision": revision,
        "git_dirty": dirty,
        "source_digest": source_digest(),
        "seed": seed,
        "workload": workload,
        "trace": trace,
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def source_digest() -> str:
    """sha256 over the program's sources (the fuzz check's key)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def prepare_inputs(wanted: list[tuple[int, float]]) -> list[tuple]:
    """Cached corpora for ``(seed, scale)`` pairs; missing ones are
    generated in parallel."""
    from perfbench.inputs import corpus_paths, generator_digest

    digest = generator_digest()
    paths = [corpus_paths(seed, scale, digest) for seed, scale in wanted]
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "perfbench.inputs", "--seed", str(seed),
             "--scale", repr(scale), "--digest", digest],
            cwd=ROOT, env=child_env(),
        )
        for (seed, scale), (pkl, rcs) in zip(wanted, paths)
        if not (pkl.exists() and rcs.exists())
    ]
    for proc in procs:
        if proc.wait() != 0:
            raise SystemExit("input generation failed")
    return paths


# ---------------------------------------------------------------------------
# Legs
# ---------------------------------------------------------------------------


def setup_sample(jobs: int, index: int) -> float:
    """One set-up time, from interpreter launch until every surface is up."""
    launch = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.legs.setup_probe", "--jobs", str(jobs),
         "--workdir", str(WORK_DIR / f"probe-{index}")],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    match = re.search(r"^ready (\S+)$", proc.stdout, re.M)
    if proc.returncode != 0 or match is None:
        sys.stderr.write(proc.stderr)
        raise SystemExit("set-up probe failed")
    return float(match.group(1)) - launch


class Daemon:
    """``repro serve --port 0 --jobs 1`` with a ``SERVICE_CACHE`` result
    cache, or the tracing launcher with the same settings."""

    def __init__(self, trace: int):
        from perfbench.service_load import SERVICE_CACHE

        self.trace_out = str(WORK_DIR / "daemon-trace.json")
        if trace:
            cmd = [sys.executable, "-m", "perfbench.legs.daemon", "--out", self.trace_out]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "1",
                   "--cache-size", str(SERVICE_CACHE)]
        self.trace = trace
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if match is None:
            self.stop()
            raise SystemExit(f"daemon did not announce a port: {line!r}")
        self.port = int(match.group(1))

    def peak_rss_mb(self) -> float:
        pid = self.proc.pid
        return peak_rss_mb(pid) + sum(peak_rss_mb(p) for p in child_pids(pid))

    def stop(self) -> dict | None:
        """SIGTERM (graceful drain) and wait; the launcher's trace if any."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.trace and os.path.exists(self.trace_out):
            return read_json(self.trace_out)
        return None


def spread(count: int, rounds: int) -> set[int]:
    """``count`` round numbers spaced evenly over ``rounds`` rounds."""
    return {(2 * k + 1) * rounds // (2 * count) for k in range(count)}


def run_legs(args, inputs) -> dict:
    """Start every leg, then interleave their samples round by round,
    probing the host speed before every sample and after the last."""
    from perfbench import service_load
    from repro.corpusstore import CorpusStore

    trace = args.trace
    jobs = len(os.sched_getaffinity(0))
    rounds = max(MIN_ROUNDS, round(args.seconds / ROUND_SECONDS))
    (batch_pkl, batch_rcs), *monitor_inputs = inputs

    def spans(leg: str) -> str:
        return str(WORK_DIR / f"spans-{leg}.jsonl")

    workdir = WORK_DIR / "legs"
    shutil.rmtree(workdir, ignore_errors=True)

    with CorpusStore(str(batch_rcs)) as store:
        ders = [store.der_bytes(i) for i in range(len(store))]
    traffic = service_load.Traffic(ders, args.seed, WORKLOADS[args.workload])

    legs: list = []
    daemon = None
    out: dict = {
        "setup": [], "serial": [], "pool": [], "fuzz": [], "monitor": [], "nominal": [],
        "ladder": [], "speed": [], "spent": collections.Counter(),
    }

    def timed(activity: str, fn, *args, **kwargs):
        out["speed"].append(host.measure(host.PROBE_SECONDS))
        # Where the run's time went, by activity, for the record.
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            out["spent"][activity] += time.perf_counter() - start

    setup_rounds = set() if trace else spread(SETUP_SAMPLES, rounds)
    fuzz_rounds = spread(FUZZ_REPS, rounds)
    try:
        # Legs and daemon start and warm up together; nothing is timed yet.
        serial = Leg("batch", "--mode", "serial", "--corpus", str(batch_pkl),
                     "--store", str(batch_rcs), "--spans", spans("batch"))
        legs.append(serial)
        pool = Leg("batch", "--mode", "pool", "--corpus", str(batch_pkl),
                   "--store", str(batch_rcs), "--jobs", str(jobs))
        legs.append(pool)
        monitor = Leg("monitor", "--corpus", *(str(pkl) for pkl, _ in monitor_inputs),
                      "--workdir", str(workdir / "monitor"),
                      "--rounds", str(rounds), "--trace", str(trace), "--spans", spans("monitor"))
        legs.append(monitor)
        fuzz = Leg("fuzz", "--workdir", str(workdir / "fuzz"), "--spans", spans("fuzz"))
        legs.append(fuzz)
        daemon = Daemon(trace)
        for leg in legs:
            leg.wait()
        log("legs started")

        def drive(phase):
            # At most one connection per usable CPU, as one load generator.
            return asyncio.run(service_load.run_phase(daemon.port, phase, jobs))

        drive(traffic.phase(NOMINAL_RATE, SERVICE_WARMUP))
        grid = 0  # the staircase's position on the rate grid
        stride = 2  # grid rates per move; one from the first reversal on
        loop_cpu = loop_wall = 0.0
        for round_no in range(rounds):
            log(f"round {round_no + 1}/{rounds}")
            if round_no in setup_rounds:
                out["setup"].append(timed("setup", setup_sample, jobs, round_no))
            for _ in range(SERIAL_REPS):
                out["serial"].append(timed("serial", serial.call, "rep"))
            for _ in range(POOL_REPS):
                out["pool"].append(timed("pool", pool.call, "rep"))
            cpu0 = cpu_seconds(daemon.proc.pid)
            phase = timed("nominal", drive, traffic.phase(
                NOMINAL_RATE, share(NOMINAL_REQUESTS, rounds, round_no)))
            loop_cpu += cpu_seconds(daemon.proc.pid) - cpu0
            loop_wall += phase.wall
            out["nominal"].append(phase)
            for _ in range(share(LADDER_STEPS, rounds, round_no)):
                step = timed("ladder", drive, traffic.phase(
                    LADDER_START * LADDER_RATIO**grid, LADDER_REQUESTS))
                out["ladder"].append(step)
                if len(out["ladder"]) > 1 and ladder_pass(step) != ladder_pass(out["ladder"][-2]):
                    stride = 1
                grid += stride if ladder_pass(step) else -stride
            out["monitor"].append(timed("monitor", monitor.call, "segment", round_no=round_no))
            if round_no in fuzz_rounds:
                out["fuzz"].append(timed("fuzz", fuzz.call, "rep"))
        out["speed"].append(host.measure(host.PROBE_SECONDS))
        log("rounds done")
        out["loop_busy_ratio"] = loop_cpu / loop_wall
        out["service_metrics"] = asyncio.run(service_load.get_json(daemon.port, "/metrics"))
        out["service_peak_rss_mb"] = daemon.peak_rss_mb()
        out["daemon_trace"] = daemon.stop()
        daemon = None
        # The legs' final checks run side by side with the service check.
        serial.send("finish", trace=trace)
        pool.send("finish")
        monitor.send("finish")
        fuzz.send("finish", trace=trace)
        out["nominal"] = pooled(out["nominal"])
        out["service_check"] = check_service(out["nominal"], out["ladder"])
        for key, leg in (("serial", serial), ("pool", pool), ("monitor", monitor), ("fuzz", fuzz)):
            out[f"{key}_final"] = leg.wait()
    finally:
        if daemon is not None:
            daemon.stop()
        for leg in legs:
            leg.close()
    return out


def ladder_score(phase) -> float:
    """The figure a ladder step is judged by, in ms: the larger of its
    p90 and its last request's latency; infinite if any request failed."""
    if any(s != 200 for s in phase.status):
        return float("inf")
    tail = timing.percentile(phase.latency, LADDER_QUANTILE)
    return max(tail, phase.latency[-1]) * 1e3


def ladder_pass(phase) -> bool:
    return ladder_score(phase) <= LADDER_LIMIT_MS


def max_rps(steps) -> float:
    """The staircase's estimate of the highest rate meeting the limit.

    A one-up one-down staircase settles around the knee; the steps from
    the first reversal (a pass next to a failure) on are the settled
    ones, taken in every round, so the estimate spreads over the whole
    run.  The estimate is the rate at which the least-squares line of
    log score on log offered rate, through the settled steps that
    answered every request, reaches the limit: each step's score says
    how far it was from the limit, where its pass or fail only says on
    which side.  Over two sets of ten runs, the line's estimate spread
    33-45% narrower than the geometric mean of the same steps' rates.
    It is kept within one grid rate of the rates offered.  Where the
    line cannot be drawn, or does not rise with the rate, the estimate is
    the geometric mean of the settled rates.
    """
    passed = [ladder_pass(step) for step in steps]
    reversal = next((i for i in range(1, len(steps)) if passed[i] != passed[i - 1]), None)
    settled = steps[reversal - 1:] if reversal is not None else steps[-1:]
    rates = [math.log(step.rate) for step in settled]
    points = [(math.log(step.rate), math.log(ladder_score(step)))
              for step in settled if math.isfinite(ladder_score(step))]
    if len({x for x, _ in points}) > 1:
        slope, intercept = statistics.linear_regression(*zip(*points))
        if slope > 0:
            knee = (math.log(LADDER_LIMIT_MS) - intercept) / slope
            grid = math.log(LADDER_RATIO)
            return math.exp(min(max(knee, min(rates) - grid), max(rates) + grid))
    return math.exp(statistics.fmean(rates))


def pooled_rate(samples, work: str, seconds: str) -> float:
    """Work over time, both summed across the samples of a run.

    The host's speed switches between states; this figure moves with the
    share of time spent in each state, where a median of a few samples
    jumps from one state's figure to the other's.
    """
    return sum(s[work] for s in samples) / sum(s[seconds] for s in samples)


def pooled(phases):
    """The nominal segments as one phase (latencies in schedule order)."""
    from perfbench.service_load import Phase

    whole = Phase(phases[0].rate, [r for p in phases for r in p.requests])
    for field in ("due", "sent", "latency", "status", "bodies"):
        setattr(whole, field, [x for p in phases for x in getattr(p, field)])
    whole.wall = sum(p.wall for p in phases)
    return whole


# ---------------------------------------------------------------------------
# Output checks: each mismatch is a failed operation
# ---------------------------------------------------------------------------


def check_service(nominal, steps) -> tuple[int, int, list[str]]:
    """Every 200 body against the offline ``report_to_json`` of its DER.

    Refusals (429) and timeouts (504) on ladder steps past capacity are
    ladder misses, not wrong answers; any other non-200, and any body
    that differs, is a failed operation.
    """
    from repro.lint import run_lints
    from repro.lint.serialization import report_to_json
    from repro.x509 import Certificate

    expected: dict[bytes, str] = {}

    def offline(der: bytes) -> str:
        body = expected.get(der)
        if body is None:
            cert = Certificate.from_der(der)
            body = expected[der] = report_to_json(run_lints(cert), cert)
        return body

    attempted = failed = 0
    problems: list[str] = []
    for number, phase in enumerate([nominal, *steps]):
        for request, status, body in zip(phase.requests, phase.status, phase.bodies):
            attempted += 1
            if status != 200:
                if number == 0 or status not in (429, 504):
                    failed += 1
                    problems.append(f"{request.path} answered {status}")
                continue
            if request.path == "/lint":
                ok = body == offline(request.ders[0]).encode("utf-8") + b"\n"
            else:
                ok = json.loads(body) == {
                    "count": len(request.ders),
                    "results": [
                        {"index": i, "report": json.loads(offline(der))}
                        for i, der in enumerate(request.ders)
                    ],
                }
            if not ok:
                failed += 1
                problems.append(f"{request.path} body differs from the offline report")
    return attempted, failed, problems[:5]


def check_fuzz(runs: list[dict]) -> tuple[int, int, list[str]]:
    """Campaign outputs identical across repetitions, and identical to
    the last record for this program, traced or not.  Every run's
    campaign is the CLI default one, so the record is shared by every
    seed."""
    key = {k: runs[0][k] for k in ("mutants", "novel_cells", "witnesses", "digest")}
    failed = sum(1 for r in runs if {k: r[k] for k in key} != key)
    problems = ["fuzz campaign outputs differ across repetitions"] if failed else []
    stored = CACHE_DIR / f"fuzz-defaults-{source_digest()}.json"
    if stored.exists():
        if read_json(stored) != key:
            failed += 1
            problems.append("fuzz campaign differs from the stored record")
    elif not failed:
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        write_json(stored, key)
    return len(runs) + 1, failed, problems


def check_all(seed: int, out: dict, nominal) -> tuple[int, int, list[str]]:
    problems: list[str] = []
    failed = 0
    digests = {r["digest"] for r in out["serial"] + out["pool"]}
    if "traced_digest" in out["serial_final"]:
        digests.add(out["serial_final"]["traced_digest"])
    batch_ops = len(out["serial"]) + len(out["pool"]) + 1
    if len(digests) != 1:
        failed += len(out["pool"])
        problems.append("batch summary/tables differ across repetitions or executors")
    if not out["serial_final"]["reference_match"]:
        failed += 1
        problems.append("batch slice differs from the optimized=False reference")
    svc_ops, svc_failed, svc_problems = out["service_check"]
    failed += svc_failed
    problems.extend(svc_problems)
    monitor_ops = out["monitor_final"]["entries"]
    if not out["monitor_final"]["total_match"]:
        failed += monitor_ops
        problems.append("monitor grand total differs from the one-shot run")
    fuzz_runs = out["fuzz"] + out["fuzz_final"].get("runs", [])
    fuzz_ops, fuzz_failed, fuzz_problems = check_fuzz(fuzz_runs)
    failed += fuzz_failed
    problems.extend(fuzz_problems)
    return batch_ops + svc_ops + monitor_ops + fuzz_ops, failed, problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(out, nominal) -> dict:
    """Every end-to-end metric, restated at the reference host speed by
    the mean of the run's speed probes.  Set-up time and throughputs are
    work done at the host's speed and are restated in full.  An open-loop
    latency is part work, part waiting for arrivals and queueing, so it
    is restated by the square root of the speed ratio, which held its
    spread lowest over 74 recorded runs (see perfbench/README.md)."""
    speed = statistics.fmean(out["speed"])

    def seconds(value: float) -> float:
        return host.reference_seconds(value, speed)

    def rate(value: float) -> float:
        return value / host.reference_seconds(1.0, speed)

    def latency_ms(value: float) -> float:
        return value * math.sqrt(speed / host.REFERENCE_SPEED) * 1e3

    lags = [lag for seg in out["monitor"] for lag in seg["lags"]]
    median = statistics.median
    return {
        "setup_s": (seconds(median(out["setup"])), "s"),
        "peak_rss_mb": (max(
            out["serial_final"]["peak_rss_mb"], out["pool_final"]["peak_rss_mb"],
            out["service_peak_rss_mb"], out["monitor_final"]["peak_rss_mb"],
            out["fuzz_final"]["peak_rss_mb"],
        ), "MB"),
        "batch_certs_per_s": (rate(pooled_rate(out["serial"], "certs", "wall")), "certs/s"),
        "batch_pool_certs_per_s": (rate(pooled_rate(out["pool"], "certs", "wall")), "certs/s"),
        "service_p50_ms": (latency_ms(median(nominal.latency)), "ms"),
        "service_p99_ms": (latency_ms(timing.percentile(nominal.latency, 0.99)), "ms"),
        "service_max_rps": (rate(max_rps(out["ladder"])), "1/s"),
        "monitor_catchup_entries_per_s": (
            rate(pooled_rate(out["monitor"], "catchup_entries", "catchup_s")), "entries/s"),
        "monitor_lag_p50_ms": (latency_ms(median(lags)), "ms"),
        "monitor_lag_p99_ms": (latency_ms(timing.percentile(lags, 0.99)), "ms"),
        "fuzz_mutants_per_s": (rate(pooled_rate(out["fuzz"], "mutants", "wall")), "1/s"),
    }


def per_layer(out, nominal) -> dict:
    serial = out["serial_final"]
    monitor = out["monitor_final"]
    fuzz = out["fuzz_final"]
    legs = [serial["trace"], monitor["trace"], fuzz["trace"]]

    def busy(name: str) -> float:
        return sum(leg["layers"].get(name, {}).get("self", 0.0) for leg in legs)

    def layer(leg, name: str, field: str = "self") -> float:
        return leg["trace"]["layers"].get(name, {}).get(field, 0.0)

    def mean(values) -> float:
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    certs = serial["certs"]
    pools = out["pool"]
    daemon = out["daemon_trace"]
    metrics = out["service_metrics"]
    stages = metrics["stages"]["stages"]
    admissions = daemon["layers"].get("service.admission.decode", {})
    batcher = metrics["batcher"]
    statuses = nominal.status + [s for p in out["ladder"] for s in p.status]
    closures = [leg["closure"] for leg in legs]
    paired = [serial["trace"], fuzz["trace"]]
    batches = [b for seg in out["monitor"] for b in seg["batches"]]
    return {
        "engine.ingest.busy_s": (busy("engine.ingest"), "s"),
        "asn1.der.busy_s": (busy("asn1.der"), "s"),
        "x509.decode.busy_s": (busy("x509.decode"), "s"),
        "x509.decode.per_item": (
            (daemon["layers"].get("x509.decode", {}).get("calls", 0)
             + stages.get("decode", {}).get("items", 0))
            / max(1, admissions.get("calls", 0)),
            "count",
        ),
        "lint.runner.busy_s": (busy("lint.runner"), "s"),
        "lint.report.findings_per_cert": (
            layer(serial, "lint.report.findings", "calls") / certs, "count"),
        "lint.compiled.scan_s": (busy("lint.compiled"), "s"),
        "lint.checks.busy_s": (busy("lint.checks"), "s"),
        "lint.checks.per_cert": (layer(serial, "lint.checks", "calls") / certs, "count"),
        "engine.sinks.busy_s": (busy("engine.sinks"), "s"),
        "analysis.busy_s": (busy("analysis"), "s"),
        "lint.parallel.worker_cpu_s": (statistics.median(r["worker_cpu_s"] for r in pools), "s"),
        "lint.parallel.busy_ratio": (statistics.median(r["busy_ratio"] for r in pools), "ratio"),
        "lint.parallel.shard_skew": (statistics.median(r["shard_skew"] for r in pools), "ratio"),
        "service.http.requests": (metrics["requests_total"], "count"),
        "service.http.failed": (sum(1 for s in statuses if s != 200), "count"),
        "service.loop.busy_ratio": (out["loop_busy_ratio"], "ratio"),
        "service.admission.decode_ms": (
            admissions.get("total", 0.0) / max(1, admissions.get("calls", 0)) * 1e3, "ms"),
        "service.cache.hit_ratio": (metrics["cache"]["hit_rate"], "ratio"),
        "service.batcher.wait_ms": (mean(daemon["batcher_waits"]) * 1e3, "ms"),
        "service.batcher.mean_batch": (
            batcher["certs_dispatched"] / max(1, batcher["batches_dispatched"]), "count"),
        "engine.worker.decode_cpu_s": (stages.get("decode", {}).get("cpu_seconds", 0.0), "s"),
        "engine.worker.lint_cpu_s": (stages.get("lint", {}).get("cpu_seconds", 0.0), "s"),
        "engine.worker.render_cpu_s": (stages.get("sink", {}).get("cpu_seconds", 0.0), "s"),
        "service.pool.ipc_ms": (mean(daemon["ipc"]) * 1e3, "ms"),
        "ct.tail_log.busy_s": (monitor["tail_log_s"], "s"),
        "monitor.fsync_s": (monitor["fsync_s"], "s"),
        "ct.merkle.verify_s": (layer(monitor, "ct.merkle"), "s"),
        "engine.windows.facts_s": (layer(monitor, "engine.windows.facts"), "s"),
        "engine.windows.fold_s": (layer(monitor, "engine.windows.fold"), "s"),
        "engine.windows.alerts_s": (layer(monitor, "engine.windows.alerts"), "s"),
        "corpusstore.segments.append_s": (layer(monitor, "corpusstore.segments.append"), "s"),
        "corpusstore.segments.files": (monitor["segment_files"], "count"),
        "ct.checkpoint.write_s": (layer(monitor, "ct.checkpoint.write"), "s"),
        "ct.checkpoint.bytes": (monitor["checkpoint_bytes"], "bytes"),
        "monitor.backlog_max": (max(seg["backlog_max"] for seg in out["monitor"]), "count"),
        "monitor.entries_per_poll": (mean(batches), "count"),
        "fuzz.mutators.busy_s": (layer(fuzz, "fuzz.mutators"), "s"),
        "fuzz.oracle.busy_s": (layer(fuzz, "fuzz.oracle"), "s"),
        "tlslibs.decode_s": (layer(fuzz, "tlslibs.decode"), "s"),
        "fuzz.minimize.busy_s": (layer(fuzz, "fuzz.minimize"), "s"),
        "fuzz.witness.build_s": (layer(fuzz, "fuzz.witness.build"), "s"),
        "x509.keys.keygen_s": (layer(fuzz, "x509.keys.keygen"), "s"),
        "loadgen.late_p99_ms": (
            timing.percentile(timing.lateness(nominal.due, nominal.sent), 0.99) * 1e3, "ms"),
        "trace.overhead_ratio": (
            sum(p["traced_wall"] for p in paired) / sum(p["untraced_wall"] for p in paired),
            "ratio"),
        "trace.unattributed_share": (
            sum(c["unattributed"] for c in closures) / sum(c["wall"] for c in closures),
            "ratio"),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--profile", action="store_true",
        help="after measuring, profile one extra batch job and write its "
        "cProfile top 40 beside the record (never feeds the metrics)",
    )
    args = parser.parse_args()
    # A terminated run still stops the daemon and every leg it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not program_present():
        log(f"no program sources under {ROOT / 'src' / 'repro'}; nothing to measure")
        return 2
    use_checkout_sources()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    record = {"fingerprint": fingerprint(args.seed, args.workload, args.trace)}

    # Inputs, outside every timed region: the batch corpus (also the
    # service's certificate pool) and the monitor's logs, other seeds.
    inputs = prepare_inputs([
        (args.seed, BATCH_SCALE), (args.seed + 1, MONITOR_SCALE), (args.seed + 2, MONITOR_SCALE),
    ])

    log("inputs ready")
    with host.KeepWarm(ROOT, child_env()):
        out = run_legs(args, inputs)
    log("legs finished")
    nominal = out["nominal"]
    attempted, failed, problems = check_all(args.seed, out, nominal)
    log("outputs checked")

    table = per_layer(out, nominal) if args.trace else end_to_end(out, nominal)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in table.items()}
    lags = [lag for seg in out["monitor"] for lag in seg["lags"]]
    record.update(
        # Raw figures, as measured; the metrics restate them by host_speed.
        setup_samples=out["setup"],
        batch_rates={k: [r["certs"] / r["wall"] for r in out[k]] for k in ("serial", "pool")},
        fuzz_rates=[r["mutants"] / r["wall"] for r in out["fuzz"]],
        monitor_catchup=[s["catchup_entries"] / s["catchup_s"] for s in out["monitor"]],
        service={
            "nominal": {
                "latency": timing.summarize(nominal.latency),
                "lateness": timing.lateness_report(nominal.due, nominal.sent),
                "non_200": sum(1 for s in nominal.status if s != 200),
            },
            "ladder": [
                {"rate": p.rate, "score_ms": ladder_score(p),
                 "passed": ladder_pass(p), "wall": p.wall,
                 "latency": timing.summarize(p.latency)}
                for p in out["ladder"]
            ],
        },
        monitor_lag=timing.summarize(lags),
        # Taken out of every monitor figure, like the simulated log's time.
        monitor_fsync={k: out["monitor_final"][k] for k in ("fsync_s", "fsync_calls")},
        host_speed=out["speed"],
        monitor_rounds=[
            {"poll_max": max(seg["polls"]), "lag_max": max(seg["lags"]),
             "lag_median": statistics.median(seg["lags"]), "polls": len(seg["polls"])}
            for seg in out["monitor"]
        ],
        seconds_spent=out["spent"],
        # Traced runs: per leg, every layer's self time and the closure
        # (attributed + unattributed == the harness roots' wall time).
        trace={
            leg: {k: out[f"{leg}_final"]["trace"][k] for k in ("layers", "closure")}
            for leg in ("serial", "monitor", "fuzz")
        } if args.trace else None,
        problems=problems,
        metrics=metrics,
    )
    stem = WORK_DIR / f"record-{args.workload}-{args.seed}-{args.trace}"
    write_json(f"{stem}.json", record)
    if args.profile:
        profile_batch(inputs[0], f"{stem}.profile.txt")
    print(json.dumps(record, default=str))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def profile_batch(paths, target: str) -> None:
    """cProfile one untimed serial batch job; write the top 40 by
    cumulative time.  Runs after every metric is taken."""
    import pstats

    pkl, rcs = paths
    stats_path = f"{target}.prof"
    subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", stats_path, "-m", "perfbench.legs.batch",
         "--mode", "serial", "--corpus", str(pkl), "--store", str(rcs)],
        input='{"cmd": "rep"}\n{"cmd": "finish"}\n', stdout=subprocess.DEVNULL,
        cwd=ROOT, env=child_env(), check=True, text=True, timeout=170,
    )
    with open(target, "w", encoding="utf-8") as handle:
        pstats.Stats(stats_path, stream=handle).sort_stats("cumulative").print_stats(40)


if __name__ == "__main__":
    sys.exit(main())
