"""The fast decode paths against the general implementations they replace.

``decode_tag`` serves single-octet identifiers from a shared table,
``decode_time`` reads canonical times by position, and OIDs are interned
by content octets.  Each must be indistinguishable from the general code
kept below as a test-local reference: the same values for accepted
inputs, the same ``DERDecodeError`` messages (and offsets) otherwise.
"""

import datetime as dt
import importlib
import itertools

from repro.asn1 import (
    DERDecodeError,
    Element,
    Tag,
    TagClass,
    UniversalTag,
    decode_tag,
    decode_time,
    parse,
)
from repro.asn1.oid import OID_NAMES, ObjectIdentifier

oid_module = importlib.import_module("repro.asn1.oid")

# ---------------------------------------------------------------------------
# Reference implementations (the general code, before the fast paths)
# ---------------------------------------------------------------------------


def reference_decode_tag(data: bytes, offset: int = 0) -> tuple[Tag, int]:
    if offset >= len(data):
        raise DERDecodeError("truncated tag", offset)
    leading = data[offset]
    cls = TagClass((leading >> 6) & 0x03)
    constructed = bool(leading & 0x20)
    number = leading & 0x1F
    offset += 1
    if number != 0x1F:
        return Tag(cls, constructed, number), offset
    number = 0
    while True:
        if offset >= len(data):
            raise DERDecodeError("truncated high tag number", offset)
        octet = data[offset]
        offset += 1
        number = (number << 7) | (octet & 0x7F)
        if not octet & 0x80:
            break
        if number == 0:
            raise DERDecodeError("non-minimal high tag number", offset)
    if number < 0x1F:
        raise DERDecodeError("high-tag form used for low tag number", offset)
    return Tag(cls, constructed, number), offset


def reference_decode_time(element: Element) -> dt.datetime:
    text = element.content.decode("ascii", errors="replace")
    try:
        if element.tag.number == UniversalTag.UTC_TIME:
            parsed = dt.datetime.strptime(text, "%y%m%d%H%M%SZ")
            if parsed.year >= 2050:
                parsed = parsed.replace(year=parsed.year - 100)
            return parsed
        if element.tag.number == UniversalTag.GENERALIZED_TIME:
            return dt.datetime.strptime(text, "%Y%m%d%H%M%SZ")
    except ValueError as exc:
        raise DERDecodeError(f"malformed time {text!r}: {exc}", element.offset) from exc
    raise DERDecodeError(f"{element.tag} is not a time type", element.offset)


def reference_decode_oid(data: bytes) -> ObjectIdentifier:
    if not data:
        raise DERDecodeError("empty OID value")
    arcs: list[int] = []
    value = 0
    started = False
    for i, octet in enumerate(data):
        if not started and octet == 0x80:
            raise DERDecodeError("non-minimal OID subidentifier", i)
        started = True
        value = (value << 7) | (octet & 0x7F)
        if not octet & 0x80:
            arcs.append(value)
            value = 0
            started = False
    if started:
        raise DERDecodeError("truncated OID subidentifier")
    first = arcs[0]
    if first < 40:
        root, second = 0, first
    elif first < 80:
        root, second = 1, first - 40
    else:
        root, second = 2, first - 80
    return ObjectIdentifier(".".join(str(arc) for arc in (root, second, *arcs[1:])))


def outcome(fn, *args):
    """A call's value, or the type, message and offset of what it raised."""
    try:
        return ("ok", fn(*args))
    except DERDecodeError as exc:
        return ("error", str(exc), exc.offset)
    except Exception as exc:  # the same foreign exception either way
        return ("raised", type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# Tags
# ---------------------------------------------------------------------------

HIGH_TAG_TAILS = [
    b"\x1f",  # valid: 31
    b"\x7f",  # valid: 127
    b"\x81\x49",  # valid: 201
    b"\x81\x80\x01",  # valid: three octets
    b"\x80\x1f",  # non-minimal: leading 0x80
    b"\x80\x80\x01",  # non-minimal, twice
    b"\x05",  # high form for a low number
    b"\x1e",  # high form for 30
    b"\x00",  # high form for 0
    b"",  # truncated after the marker
    b"\x81",  # truncated continuation
    b"\x81\x81",  # truncated continuation, twice
]


class TestTagTable:
    def test_every_leading_octet(self):
        for leading in range(256):
            tails = HIGH_TAG_TAILS if leading & 0x1F == 0x1F else [b"", b"\x00"]
            for tail in tails:
                data = bytes([leading]) + tail
                for offset in (0, 1) if tail else (0,):
                    probe = b"\x05" + data if offset else data
                    assert outcome(decode_tag, probe, offset) == outcome(
                        reference_decode_tag, probe, offset
                    ), probe

    def test_parse_fast_path_agrees(self):
        # A zero-length element behind every identifier form; the parser
        # serves single-octet forms from the table itself.
        for leading in range(256):
            for tail in HIGH_TAG_TAILS if leading & 0x1F == 0x1F else [b""]:
                data = bytes([leading]) + tail + b"\x00"
                expected = outcome(reference_decode_tag, data, 0)
                got = outcome(parse, data, False)
                if expected[0] == "ok" and expected[1][1] < len(data):
                    assert got[0] == "ok" and got[1].tag == expected[1][0], data
                    assert got[1].offset == 0 and got[1].end == len(data)
                elif expected[0] == "ok":  # the tag took the length octet
                    assert got == (
                        "error", f"truncated length (at offset {len(data)})", len(data)
                    ), data
                else:
                    assert got == expected, data

    def test_truncated_input(self):
        assert outcome(decode_tag, b"", 0) == outcome(reference_decode_tag, b"", 0)
        assert outcome(decode_tag, b"\x30", 1) == outcome(reference_decode_tag, b"\x30", 1)

    def test_single_octet_tags_are_shared(self):
        first, _ = decode_tag(b"\x30")
        second, _ = decode_tag(b"\x30\x00")
        assert first is second

    def test_element_end_slices_the_input(self):
        data = b"\x30\x81\x06\x02\x01\x05\x04\x01\xff"
        root = parse(data, strict=False)
        assert (root.offset, root.end) == (0, len(data))
        assert [data[c.offset : c.end] for c in root.children] == [
            b"\x02\x01\x05",
            b"\x04\x01\xff",
        ]


# ---------------------------------------------------------------------------
# Times
# ---------------------------------------------------------------------------

UTC = Tag.universal(UniversalTag.UTC_TIME)
GENERALIZED = Tag.universal(UniversalTag.GENERALIZED_TIME)

MONTH_DAY = ["0101", "0229", "0230", "0228", "0431", "1231", "0001", "0100", "1301", "0015"]
CLOCKS = ["000000", "235959", "235960", "235961", "240000", "236000", "120099"]


def time_grid():
    for year in ["00", "49", "50", "68", "69", "99", "24", "96", "97", "52"]:
        for month_day, clock in itertools.product(MONTH_DAY, CLOCKS):
            yield UTC, f"{year}{month_day}{clock}Z".encode()
    for year in ["0000", "0001", "1600", "1900", "1949", "1950", "2000", "2049",
                 "2050", "2068", "2069", "2100", "9999"]:
        for month_day, clock in itertools.product(MONTH_DAY, CLOCKS):
            yield GENERALIZED, f"{year}{month_day}{clock}Z".encode()


ODD_TIMES = [
    (UTC, "٢٤٠١٠١٠٠٠٠٠٠Z".encode()),  # Arabic-Indic digits
    (UTC, "24010100000١Z".encode()),
    (GENERALIZED, "202401010000٠٠Z".encode()),
    (UTC, b"240101000000"),  # missing Z
    (UTC, b"240101000000z"),  # lower-case z
    (UTC, b"2401010000Z"),  # no seconds
    (UTC, b"2401010000000Z"),  # one digit too many
    (UTC, b"240101000000+0000"),
    (UTC, b"24010100000 Z"),
    (UTC, b" 40101000000Z"),
    (UTC, b"2401010000-0Z"),
    (UTC, b""),
    (GENERALIZED, b"20240101000000"),
    (GENERALIZED, b"20240101000000.5Z"),
    (GENERALIZED, b"202401010000Z"),
    (GENERALIZED, b"240101000000Z"),
    (UTC, b"20240101000000Z"),
    (GENERALIZED, b"2024010100000\xffZ"),
    (Tag.universal(UniversalTag.INTEGER), b"20240101000000Z"),
    (Tag.universal(UniversalTag.INTEGER), b"240101000000Z"),
    (Tag.universal(UniversalTag.INTEGER), b""),
    (Tag.context(23), b"240101000000Z"),  # the number decides, not the class
]


class TestTimeFastPath:
    def test_grid_matches_strptime(self):
        checked = 0
        for tag, content in list(time_grid()) + ODD_TIMES:
            element = Element(tag=tag, content=content, offset=17)
            assert outcome(decode_time, element) == outcome(
                reference_decode_time, element
            ), (tag, content)
            checked += 1
        assert checked > 1000

    def test_grid_covers_both_outcomes(self):
        results = [
            outcome(decode_time, Element(tag=tag, content=content))[0]
            for tag, content in time_grid()
        ]
        assert "ok" in results and "error" in results

    def test_pivots(self):
        def utc(text):
            return decode_time(Element(tag=UTC, content=text.encode()))

        assert utc("490101000000Z").year == 2049
        assert utc("500101000000Z").year == 1950
        assert utc("680229000000Z") == dt.datetime(1968, 2, 29)
        assert utc("690101000000Z").year == 1969


# ---------------------------------------------------------------------------
# OID interning
# ---------------------------------------------------------------------------

MALFORMED_OIDS = [b"", b"\x55\x84", b"\x55\x80\x03", b"\x80\x01", b"\x2a\x86"]


class TestOidInterning:
    def test_known_oids_equal_reference_and_shared(self):
        for dotted in OID_NAMES:
            octets = ObjectIdentifier(dotted).encode_value()
            first = ObjectIdentifier.decode_value(octets)
            assert first == reference_decode_oid(octets)
            assert ObjectIdentifier.decode_value(bytes(octets)) is first

    def test_arc_edges(self):
        for dotted in ["0.0", "0.39", "1.0", "1.39", "2.0", "2.39", "2.40", "2.999.1",
                       "1.2.840.113549.1.1.11", "2.25.340282366920938463463374607431768211455"]:
            octets = ObjectIdentifier(dotted).encode_value()
            assert ObjectIdentifier.decode_value(octets) == reference_decode_oid(octets)

    def test_malformed_raise_the_same_every_time(self):
        for octets in MALFORMED_OIDS:
            expected = outcome(reference_decode_oid, octets)
            assert expected[0] == "error"
            for _ in range(2):
                assert outcome(ObjectIdentifier.decode_value, octets) == expected
            assert octets not in oid_module._DECODED

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(oid_module, "_DECODED", {})
        monkeypatch.setattr(oid_module, "_DECODED_MAX", 3)
        for arc in range(10):
            octets = ObjectIdentifier(f"1.3.6.1.4.1.{arc}").encode_value()
            assert ObjectIdentifier.decode_value(octets) == reference_decode_oid(octets)
        assert len(oid_module._DECODED) == 3
