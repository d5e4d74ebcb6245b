"""The one decode → lint → sink worker loop, through both of its callers.

:func:`repro.engine.worker.lint_records` runs under the corpus shard
(:func:`repro.lint.parallel.lint_shard`, a summary/report sink) and the
service batch (:func:`repro.engine.worker.lint_ders_timed`, a rendering
sink).  Each caller must reproduce the ``optimized=False`` oracle byte
for byte and account every certificate once in each stage.
"""

import time

import pytest

from repro.ct import CorpusGenerator
from repro.engine import lint_ders_timed
from repro.lint import run_lints, summarize, summary_to_json
from repro.lint.parallel import build_pair_shard_tasks, lint_shard
from repro.lint.serialization import report_to_json
from repro.x509 import Certificate


@pytest.fixture(scope="module")
def records():
    corpus = CorpusGenerator(seed=11, scale=0.00001).generate()
    return [(r.certificate.to_der(), r.issued_at) for r in corpus.records]


def _oracle(der, issued_at):
    cert = Certificate.from_der(der)
    return cert, run_lints(cert, issued_at=issued_at, optimized=False)


def _shard(records):
    """Shard caller: one task, summary plus collected reports."""
    (task,) = build_pair_shard_tasks(records, 1, collect_reports=True)
    result = lint_shard(task)
    assert result.error is None
    oracle = [_oracle(der, issued_at) for der, issued_at in records]
    assert summary_to_json(result.summary) == summary_to_json(
        summarize(report for _, report in oracle)
    )
    got = [
        report_to_json(report, cert)
        for report, (cert, _) in zip(result.reports, oracle)
    ]
    assert got == [report_to_json(report, cert) for cert, report in oracle]
    return result.timings


def _service(records):
    """Service caller: rendered ``lint --json`` bodies, no issued_at."""
    ders = tuple(der for der, _ in records)
    batch = lint_ders_timed(ders)
    expected = [report_to_json(r, c) for c, r in (_oracle(d, None) for d in ders)]
    assert batch.bodies == expected
    return batch.timings


@pytest.mark.parametrize("caller", [_shard, _service], ids=["shard", "service"])
def test_caller_matches_oracle_and_accounts_every_cert(records, caller):
    start = time.perf_counter()
    timings = caller(records)
    elapsed = time.perf_counter() - start
    assert timings.certs == len(records)
    assert timings.bytes == sum(len(der) for der, _ in records)
    assert timings.stages() == ["decode", "lint", "sink"]
    for stage in ("decode", "lint", "sink"):
        assert timings.items[stage] == len(records)
    # The three stages partition each certificate's time in the loop,
    # so together they fit inside the caller's own wall clock.
    per_cert = sum(timings.wall[s] for s in ("decode", "lint", "sink"))
    assert 0 < per_cert <= elapsed
