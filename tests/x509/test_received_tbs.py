"""Signatures are checked over the TBS bytes as received.

A lenient (``strict=False``) parse accepts a non-minimal length inside
the TBS.  Re-encoding the parsed tree would normalise that length away
and hand the verifier bytes nobody signed; Certificate, CRL and OCSP
decoders must keep the received bytes instead.
"""

import dataclasses
import datetime as dt

import pytest

from repro.asn1 import encode_bit_string, encode_length, parse
from repro.x509 import CertificateBuilder, Name, generate_keypair
from repro.x509.certificate import Certificate
from repro.x509.crl import CertificateRevocationList, build_crl
from repro.x509.ocsp import OCSPResponder, OCSPResponse
from repro.x509.verify import verify_signature

KEY = generate_keypair(seed=57)
OTHER = generate_keypair(seed=58)


def _sequence(body: bytes) -> bytes:
    return b"\x30" + encode_length(len(body)) + body


def _restretched(der: bytes, sign_normalised: bool) -> tuple[bytes, bytes, bytes]:
    """``der`` with its TBS's second child given a non-minimal length.

    Returns ``(outer DER, received TBS, normalised TBS)``; the signature
    covers the received TBS, or the normalised one if ``sign_normalised``.
    """
    root = parse(der)
    tbs = root.children[0]
    stretched = tbs.children[1]
    content = stretched.content_octets()
    # 0x82 with a leading zero octet: a long form DER forbids.
    long_form = stretched.tag.encode() + b"\x82" + len(content).to_bytes(2, "big") + content
    received = _sequence(
        b"".join(
            long_form if child is stretched else child.encode() for child in tbs.children
        )
    )
    normalised = parse(received, strict=False).encode()
    assert normalised == tbs.encode() and len(received) == len(normalised) + 2
    signature = KEY.sign(normalised if sign_normalised else received)
    rest = b"".join(child.encode() for child in root.children[1:-1])
    outer = _sequence(received + rest + encode_bit_string(signature).encode())
    return outer, received, normalised


def _certificate_der() -> bytes:
    return (
        CertificateBuilder()
        .subject_cn("received.example.com")
        .not_before(dt.datetime(2024, 1, 1))
        .sign(KEY)
        .to_der()
    )


def _crl_der() -> bytes:
    _crl, der = build_crl(Name.build([]), KEY, revoked_serials=[7, 9])
    return der


def _ocsp_der() -> bytes:
    responder = OCSPResponder(KEY)
    responder.register(42)
    return responder.respond(42)


def _verify_certificate(cert: Certificate, key) -> bool:
    return verify_signature(cert, dataclasses.replace(cert, public_key=key.public_key))


KINDS = {
    "certificate": (
        _certificate_der,
        lambda der: Certificate.from_der(der, strict=False),
        _verify_certificate,
    ),
    "crl": (
        _crl_der,
        CertificateRevocationList.from_der,
        lambda crl, key: crl.verify(key.public_key),
    ),
    "ocsp": (
        _ocsp_der,
        OCSPResponse.from_der,
        lambda response, key: response.verify(key.public_key),
    ),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_tbs_der_is_the_received_bytes(kind):
    build, decode, _verify = KINDS[kind]
    der, received, normalised = _restretched(build(), sign_normalised=False)
    decoded = decode(der)
    assert decoded.tbs_der == received
    assert decoded.tbs_der != normalised


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_signature_over_received_bytes_verifies(kind):
    build, decode, verify = KINDS[kind]
    der, _received, _normalised = _restretched(build(), sign_normalised=False)
    decoded = decode(der)
    assert verify(decoded, KEY)
    assert not verify(decoded, OTHER)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_signature_over_normalised_bytes_does_not_verify(kind):
    build, decode, verify = KINDS[kind]
    der, _received, _normalised = _restretched(build(), sign_normalised=True)
    assert not verify(decode(der), KEY)
