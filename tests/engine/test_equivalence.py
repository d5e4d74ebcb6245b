"""Satellite 3: engine-routed outputs vs the seed reference loop.

Every surface that now routes through :mod:`repro.engine` must produce
byte-identical output to the pre-engine reference semantics — the
unoptimized per-certificate loop with every derived-view cache
disabled.  Covered here: merged corpus summaries (``jobs=1`` vs
``jobs=4`` vs reference, caches on vs :func:`caching_disabled`),
collected per-certificate reports, the service worker primitive
(its bodies vs the rendered reference reports), and the CLI JSON
document.
"""

import datetime as dt

import pytest

from repro.cli import main
from repro.ct import CorpusGenerator
from repro.engine import Engine, lint_ders_timed
from repro.lint import run_lints, summarize, summary_to_json
from repro.lint.parallel import LintPool
from repro.lint.serialization import report_to_json
from repro.x509 import (
    Certificate,
    CertificateBuilder,
    GeneralName,
    caching_disabled,
    generate_keypair,
    subject_alt_name,
)
from repro.x509.pem import encode_pem

KEY = generate_keypair(seed=4002)


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(seed=11, scale=0.00001).generate()


@pytest.fixture(scope="module")
def reference_reports(corpus):
    """The seed semantics: per-record loop, unoptimized, caches off."""
    with caching_disabled():
        return [
            run_lints(r.certificate, issued_at=r.issued_at, optimized=False)
            for r in corpus.records
        ]


class TestCorpusSummaries:
    def test_serial_and_pool_match_reference(self, corpus, reference_reports):
        baseline = summary_to_json(summarize(reference_reports))
        one = Engine().run_corpus(corpus, jobs=1)
        four = Engine().run_corpus(corpus, jobs=4)
        assert summary_to_json(one.summary) == baseline
        assert summary_to_json(four.summary) == baseline
        assert one.jobs == 1
        assert four.jobs == 4

    def test_unoptimized_engine_route_matches_reference(
        self, corpus, reference_reports
    ):
        baseline = summary_to_json(summarize(reference_reports))
        outcome = Engine().run_corpus(corpus, jobs=2, optimized=False)
        assert summary_to_json(outcome.summary) == baseline


class TestCollectedReports:
    def test_reports_byte_identical_across_jobs(self, corpus, reference_reports):
        one = Engine().run_corpus(corpus, jobs=1, collect_reports=True)
        four = Engine().run_corpus(corpus, jobs=4, collect_reports=True)
        expected = [
            report_to_json(report, record.certificate)
            for report, record in zip(reference_reports, corpus.records)
        ]
        for outcome in (one, four):
            got = [
                report_to_json(report, record.certificate)
                for report, record in zip(outcome.reports, corpus.records)
            ]
            assert got == expected


class TestServiceWorkerPrimitive:
    @staticmethod
    def _reference_bodies(ders):
        certs = [Certificate.from_der(der) for der in ders]
        return [
            report_to_json(run_lints(cert, optimized=False), cert)
            for cert in certs
        ]

    def test_timed_bodies_match_reference(self, corpus):
        ders = tuple(r.certificate.to_der() for r in corpus.records[:16])
        batch = lint_ders_timed(ders)
        assert batch.bodies == self._reference_bodies(ders)
        assert batch.timings.certs == len(ders)
        assert batch.timings.bytes == sum(len(d) for d in ders)

    def test_pool_bodies_match_reference(self, corpus):
        ders = tuple(r.certificate.to_der() for r in corpus.records[:16])
        with LintPool(1) as pool:
            batch = pool.submit_timed(ders).result(timeout=60)
        assert batch.bodies == self._reference_bodies(ders)


class TestCliSurface:
    def _cert(self):
        return (
            CertificateBuilder()
            .subject_cn("eq.example.com")
            .not_before(dt.datetime(2024, 1, 1))
            .add_extension(subject_alt_name(GeneralName.dns("eq.example.com")))
            .sign(KEY)
        )

    def test_json_document_matches_reference(self, tmp_path, capsys):
        cert = self._cert()
        path = tmp_path / "cert.pem"
        path.write_text(encode_pem(cert.to_der()))
        assert main(["lint", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        reparsed = Certificate.from_der(cert.to_der())
        with caching_disabled():
            report = run_lints(reparsed, optimized=False)
        assert out == report_to_json(report, reparsed) + "\n"

    def test_engine_item_json_matches_reference(self):
        cert = self._cert()
        engine = Engine()
        item = engine.lint_bytes(cert.to_der(), origin="<test>")
        assert item.ok
        with caching_disabled():
            report = run_lints(
                Certificate.from_der(cert.to_der()), optimized=False
            )
        assert engine.render_json(item) == report_to_json(report, item.cert)
