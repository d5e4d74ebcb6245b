"""Offset-based decode over real inputs: the fuzz witnesses and a corpus.

Every decoded certificate's ``tbs_der`` is the TBS slice of the input;
where the input is strict DER that slice also equals the re-encoding
the decoder used to build.  Reports rendered from the fast path stay
byte-identical to the ``optimized=False`` reference, serially and on
fork and spawn pools.
"""

import base64
import json
import pathlib

import pytest

from repro.asn1 import ASN1Error, parse
from repro.ct import CorpusGenerator
from repro.ct.corpus import Corpus
from repro.engine import Engine
from repro.lint import run_lints
from repro.lint.parallel import LintPool
from repro.lint.serialization import report_to_json
from repro.x509 import Certificate

WITNESS_DIR = pathlib.Path(__file__).resolve().parents[2] / "fuzz" / "witnesses"


def _witness_ders() -> list[bytes]:
    return [
        base64.b64decode(json.loads(path.read_text())["der_b64"])
        for path in sorted(WITNESS_DIR.glob("*.json"))
    ]


@pytest.fixture(scope="module")
def corpus():
    full = CorpusGenerator(seed=7, scale=1 / 200000).generate()
    return Corpus(records=full.records[:96], scale=full.scale)


def _check_tbs(der: bytes) -> None:
    """Assert the slice invariants for one input."""
    cert = Certificate.from_der(der)
    tbs = parse(der, strict=False).children[0]
    assert cert.tbs_der == der[tbs.offset : tbs.end]
    try:
        strict_tbs = parse(der, strict=True).children[0]
    except ASN1Error:
        return
    assert cert.tbs_der == strict_tbs.encode()


def test_witness_tbs_is_the_input_slice():
    ders = _witness_ders()
    assert len(ders) == 97
    for der in ders:
        _check_tbs(der)


def test_corpus_tbs_is_the_input_slice(corpus):
    for record in corpus.records:
        _check_tbs(record.certificate.to_der())


def test_witness_reports_match_reference():
    for der in _witness_ders():
        cert = Certificate.from_der(der)
        fast = report_to_json(run_lints(cert), cert)
        assert fast == report_to_json(run_lints(cert, optimized=False), cert)


def _rendered(corpus, outcome) -> list[str]:
    return [
        report_to_json(report, Certificate.from_der(record.certificate.to_der()))
        for record, report in zip(corpus.records, outcome.reports)
    ]


def test_corpus_reports_match_reference_across_jobs(corpus):
    reference = _rendered(
        corpus, Engine().run_corpus(corpus, 1, collect_reports=True, optimized=False)
    )
    assert len(reference) == len(corpus.records)
    outcome = Engine().run_corpus(corpus, 1, collect_reports=True)
    assert _rendered(corpus, outcome) == reference
    for start_method in ("fork", "spawn"):
        with LintPool(4, start_method=start_method) as pool:
            outcome = Engine().run_corpus(corpus, 4, collect_reports=True, pool=pool)
        assert outcome.jobs == 4
        assert _rendered(corpus, outcome) == reference, start_method
