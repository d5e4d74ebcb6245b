"""Worker-side engine primitives (picklable, process-boundary safe).

The engine's process-pool executor and the service batcher run the
decode → lint → sink stages inside worker processes, where the parent's
:class:`~repro.engine.stats.EngineStats` collector cannot be shared.
Both run the one loop here, :func:`lint_records`, which accumulates into
a picklable :class:`~repro.engine.stats.StageTimings` record shipped
back with the payload; the parent folds it in with
``EngineStats.merge_timings``.  Only the sink differs: the corpus shard
(:func:`repro.lint.parallel.lint_shard`) folds reports into a summary,
the service (:func:`lint_ders_timed`) renders the ``lint --json`` body.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..lint.parallel import _worker_schedule
from ..lint.runner import CertificateReport, run_lints
from ..lint.serialization import report_to_json
from ..x509 import Certificate
from .stats import StageTimings
from .windows import cert_facts


def lint_records(
    records: Iterable[tuple[bytes, object]],
    sink: Callable[[CertificateReport, Certificate], None],
    timings: StageTimings,
    respect_effective_dates: bool = True,
    optimized: bool = True,
    facts: list | None = None,
) -> None:
    """Decode, lint and sink each ``(der, issued_at)`` record, timed.

    Every certificate is parsed with the tolerant parser, linted with
    the worker-cached registry schedule and handed to ``sink(report,
    cert)``.  ``timings`` records both clocks per stage: wall
    (``perf_counter``) for latency, CPU (``process_time``) for the
    compute the run burned — on an oversubscribed box the two diverge,
    and summing worker wall across processes would overcount the
    elapsed time.  Pass ``facts`` to also collect each certificate's
    :class:`~repro.engine.windows.CertFacts` (charged to decode).
    Exceptions propagate; ``timings`` keeps what finished before them.
    """
    lints, index = _worker_schedule()
    for der, issued_at in records:
        start = time.perf_counter()
        cstart = time.process_time()
        cert = Certificate.from_der(der)
        if facts is not None:
            facts.append(cert_facts(cert))
        decoded = time.perf_counter()
        cdecoded = time.process_time()
        report = run_lints(
            cert,
            issued_at=issued_at,
            lints=lints,
            respect_effective_dates=respect_effective_dates,
            optimized=optimized,
            index=index,
        )
        linted = time.perf_counter()
        clinted = time.process_time()
        sink(report, cert)
        sunk = time.perf_counter()
        csunk = time.process_time()
        timings.add("decode", decoded - start, cdecoded - cstart, 1)
        timings.add("lint", linted - decoded, clinted - cdecoded, 1)
        timings.add("sink", sunk - linted, csunk - clinted, 1)
        timings.certs += 1
        timings.bytes += len(der)


@dataclass
class TimedBatch:
    """One worker batch result: rendered bodies plus stage accounting."""

    bodies: list[str] = field(default_factory=list)
    timings: StageTimings = field(default_factory=StageTimings)


def lint_ders_timed(
    ders: tuple[bytes, ...], respect_effective_dates: bool = True
) -> TimedBatch:
    """The service's dispatch target: one rendered body per DER.

    Each body is exactly what ``python -m repro lint --json`` writes for
    the same certificate (``report_to_json(report, cert)``), which is
    what makes the online and offline paths byte-comparable.
    Unparseable DER raises — callers validate admission-side, so a
    batch is all-or-nothing.
    """
    batch = TimedBatch()
    bodies = batch.bodies

    def render(report: CertificateReport, cert: Certificate) -> None:
        bodies.append(report_to_json(report, cert))

    lint_records(
        ((der, None) for der in ders),
        render,
        batch.timings,
        respect_effective_dates=respect_effective_dates,
    )
    return batch
