"""DER (Distinguished Encoding Rules) encoder and decoder.

The decoder produces an :class:`Element` tree.  ``strict=True`` enforces
DER: definite minimal lengths, sorted SET OF, and no trailing octets.
``strict=False`` tolerates BER-style non-minimal lengths, matching how
permissive real-world parsers behave — the paper's differential harness
relies on both modes.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

from .errors import DERDecodeError, DEREncodeError
from .oid import ObjectIdentifier
from .strings import STRING_SPECS, StringSpec
from .tags import SHORT_TAGS, Tag, TagClass, UniversalTag, decode_tag

# ---------------------------------------------------------------------------
# Length octets
# ---------------------------------------------------------------------------


def encode_length(length: int) -> bytes:
    """Encode a definite length in the minimal DER form."""
    if length < 0:
        raise DEREncodeError(f"negative length: {length}")
    if length < 0x80:
        return bytes([length])
    octets = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(octets)]) + octets


def decode_length(data: bytes, offset: int, strict: bool = True) -> tuple[int, int]:
    """Decode length octets at ``offset``; return ``(length, next_offset)``."""
    if offset >= len(data):
        raise DERDecodeError("truncated length", offset)
    first = data[offset]
    offset += 1
    if first < 0x80:
        return first, offset
    if first == 0x80:
        raise DERDecodeError("indefinite length is not allowed in DER", offset - 1)
    count = first & 0x7F
    if offset + count > len(data):
        raise DERDecodeError("truncated long-form length", offset)
    raw = data[offset : offset + count]
    offset += count
    length = int.from_bytes(raw, "big")
    if strict:
        if raw[0] == 0:
            raise DERDecodeError("non-minimal length (leading zero)", offset - count)
        if length < 0x80:
            raise DERDecodeError("non-minimal length (long form for short value)", offset - count)
    return length, offset


# ---------------------------------------------------------------------------
# Element tree
# ---------------------------------------------------------------------------


@dataclass
class Element:
    """A decoded (or to-be-encoded) ASN.1 element.

    ``content`` holds the raw content octets for primitive elements;
    ``children`` holds sub-elements for constructed ones.  An element
    built for encoding may set either.
    """

    tag: Tag
    content: bytes = b""
    children: list["Element"] = field(default_factory=list)
    #: Byte offset of the element's identifier octet in the parsed input.
    offset: int = 0
    #: Byte offset one past the element's last content octet in the
    #: parsed input, so ``input[offset:end]`` is the element exactly as
    #: received (0 for elements built for encoding).
    end: int = 0

    # -- constructors -------------------------------------------------

    @classmethod
    def primitive(cls, tag: Tag, content: bytes) -> "Element":
        if tag.constructed:
            raise DEREncodeError(f"primitive() given constructed tag {tag}")
        return cls(tag=tag, content=content)

    @classmethod
    def constructed(cls, tag: Tag, children: list["Element"]) -> "Element":
        if not tag.constructed:
            raise DEREncodeError(f"constructed() given primitive tag {tag}")
        return cls(tag=tag, children=list(children))

    # -- introspection -------------------------------------------------

    @property
    def is_constructed(self) -> bool:
        return self.tag.constructed

    def child(self, index: int) -> "Element":
        try:
            return self.children[index]
        except IndexError:
            raise DERDecodeError(
                f"element {self.tag} has no child at index {index}"
            ) from None

    def find(self, tag_number: int, cls: TagClass = TagClass.UNIVERSAL) -> "Element | None":
        """Return the first direct child with the given tag, if any."""
        for child in self.children:
            if child.tag.number == tag_number and child.tag.cls is cls:
                return child
        return None

    # -- encoding -------------------------------------------------------

    def content_octets(self) -> bytes:
        if self.is_constructed:
            return b"".join(child.encode() for child in self.children)
        return self.content

    def encode(self) -> bytes:
        content = self.content_octets()
        return self.tag.encode() + encode_length(len(content)) + content

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_constructed:
            return f"<{self.tag} children={len(self.children)}>"
        return f"<{self.tag} {self.content[:16].hex()}{'…' if len(self.content) > 16 else ''}>"


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _parse_element(data: bytes, offset: int, strict: bool) -> tuple[Element, int]:
    start = offset
    size = len(data)
    # Fast paths for the single-octet identifier and the short-form
    # length; every other form (and every error) goes through the
    # general codecs, so accepted inputs and messages are unchanged.
    tag = SHORT_TAGS[data[offset]] if offset < size else None
    if tag is None:
        tag, offset = decode_tag(data, offset)
    else:
        offset += 1
    if offset < size and data[offset] < 0x80:
        length = data[offset]
        offset += 1
    else:
        length, offset = decode_length(data, offset, strict)
    end = offset + length
    if end > size:
        raise DERDecodeError(f"content overruns input ({length} octets promised)", offset)
    if tag.constructed:
        children = []
        while offset < end:
            child, offset = _parse_element(data, offset, strict)
            children.append(child)
        if offset != end:
            raise DERDecodeError("constructed content length mismatch", offset)
        return Element(tag, b"", children, start, end), end
    return Element(tag, data[offset:end], [], start, end), end


def parse(data: bytes, strict: bool = True) -> Element:
    """Parse a single top-level DER element; reject trailing octets."""
    if not data:
        raise DERDecodeError("empty input")
    element, offset = _parse_element(bytes(data), 0, strict)
    if offset != len(data):
        raise DERDecodeError(f"{len(data) - offset} trailing octet(s) after element", offset)
    return element


def parse_all(data: bytes, strict: bool = True) -> list[Element]:
    """Parse a concatenation of top-level DER elements."""
    elements = []
    offset = 0
    data = bytes(data)
    while offset < len(data):
        element, offset = _parse_element(data, offset, strict)
        elements.append(element)
    return elements


# ---------------------------------------------------------------------------
# Primitive value codecs
# ---------------------------------------------------------------------------


def encode_integer(value: int) -> Element:
    """Encode an INTEGER in the minimal two's-complement form."""
    length = max(1, (value.bit_length() + 8) // 8) if value >= 0 else (
        ((-value - 1).bit_length() // 8) + 1
    )
    raw = value.to_bytes(length, "big", signed=True)
    # Minimal form: strip redundant sign octets.
    while len(raw) > 1 and (
        (raw[0] == 0x00 and raw[1] < 0x80) or (raw[0] == 0xFF and raw[1] >= 0x80)
    ):
        raw = raw[1:]
    return Element.primitive(Tag.universal(UniversalTag.INTEGER), raw)


def decode_integer(element: Element, strict: bool = True) -> int:
    """Decode an INTEGER; strict mode rejects non-minimal forms."""
    raw = element.content
    if not raw:
        raise DERDecodeError("empty INTEGER", element.offset)
    if strict and len(raw) > 1:
        if (raw[0] == 0x00 and raw[1] < 0x80) or (raw[0] == 0xFF and raw[1] >= 0x80):
            raise DERDecodeError("non-minimal INTEGER", element.offset)
    return int.from_bytes(raw, "big", signed=True)


def encode_boolean(value: bool) -> Element:
    """Encode a BOOLEAN (DER: FF for true, 00 for false)."""
    return Element.primitive(Tag.universal(UniversalTag.BOOLEAN), b"\xff" if value else b"\x00")


def decode_boolean(element: Element, strict: bool = True) -> bool:
    """Decode a BOOLEAN; strict mode enforces the DER value set."""
    if len(element.content) != 1:
        raise DERDecodeError("BOOLEAN must be one octet", element.offset)
    octet = element.content[0]
    if strict and octet not in (0x00, 0xFF):
        raise DERDecodeError(f"DER BOOLEAN must be 00 or FF, got {octet:#04x}", element.offset)
    return octet != 0


def encode_null() -> Element:
    """Encode a NULL."""
    return Element.primitive(Tag.universal(UniversalTag.NULL), b"")


def encode_oid(value: ObjectIdentifier) -> Element:
    """Encode an OBJECT IDENTIFIER element."""
    return Element.primitive(Tag.universal(UniversalTag.OBJECT_IDENTIFIER), value.encode_value())


def decode_oid(element: Element) -> ObjectIdentifier:
    """Decode an OBJECT IDENTIFIER element."""
    return ObjectIdentifier.decode_value(element.content)


def encode_octet_string(value: bytes) -> Element:
    """Encode an OCTET STRING."""
    return Element.primitive(Tag.universal(UniversalTag.OCTET_STRING), bytes(value))


def encode_bit_string(value: bytes, unused_bits: int = 0) -> Element:
    """Encode a BIT STRING with the given unused-bit count."""
    if not 0 <= unused_bits <= 7:
        raise DEREncodeError(f"unused bit count out of range: {unused_bits}")
    return Element.primitive(
        Tag.universal(UniversalTag.BIT_STRING), bytes([unused_bits]) + bytes(value)
    )


def decode_bit_string(element: Element) -> tuple[bytes, int]:
    """Decode a BIT STRING; returns (bits, unused_bit_count)."""
    if not element.content:
        raise DERDecodeError("empty BIT STRING", element.offset)
    unused = element.content[0]
    if unused > 7:
        raise DERDecodeError("BIT STRING unused bits > 7", element.offset)
    return element.content[1:], unused


def encode_string(text: str, spec: StringSpec, strict: bool = True) -> Element:
    """Encode ``text`` under the given ASN.1 string type."""
    return Element.primitive(Tag.universal(spec.tag_number), spec.encode(text, strict=strict))


def decode_string(element: Element, strict: bool = True) -> str:
    """Decode a string element according to its *declared* tag."""
    spec = STRING_SPECS.get(element.tag.number)
    if spec is None or element.tag.cls is not TagClass.UNIVERSAL:
        raise DERDecodeError(f"{element.tag} is not a string type", element.offset)
    return spec.decode(element.content, strict=strict)


def encode_sequence(*children: Element) -> Element:
    """Encode a SEQUENCE of the given child elements."""
    return Element.constructed(Tag.universal(UniversalTag.SEQUENCE), list(children))


def encode_set(*children: Element, sort: bool = True) -> Element:
    """Encode a SET OF; DER requires the encodings in ascending order."""
    items = list(children)
    if sort:
        items.sort(key=lambda el: el.encode())
    return Element.constructed(Tag.universal(UniversalTag.SET), items)


def explicit(tag_number: int, inner: Element) -> Element:
    """Wrap ``inner`` in an EXPLICIT [n] context tag."""
    return Element.constructed(Tag.context(tag_number, constructed=True), [inner])


def implicit(tag_number: int, inner: Element) -> Element:
    """Re-tag ``inner`` with an IMPLICIT [n] context tag."""
    retagged = Tag(TagClass.CONTEXT, inner.tag.constructed, tag_number)
    if inner.tag.constructed:
        return Element(tag=retagged, children=inner.children)
    return Element(tag=retagged, content=inner.content)


# ---------------------------------------------------------------------------
# Time codecs
# ---------------------------------------------------------------------------

_UTC_FORMAT = "%y%m%d%H%M%SZ"
_GENERALIZED_FORMAT = "%Y%m%d%H%M%SZ"


def encode_time(value: _dt.datetime) -> Element:
    """Encode per RFC 5280 4.1.2.5: UTCTime up to 2049, then GeneralizedTime."""
    if value.tzinfo is not None:
        value = value.astimezone(_dt.timezone.utc).replace(tzinfo=None)
    if value.year < 2050:
        return Element.primitive(
            Tag.universal(UniversalTag.UTC_TIME), value.strftime(_UTC_FORMAT).encode("ascii")
        )
    return Element.primitive(
        Tag.universal(UniversalTag.GENERALIZED_TIME),
        value.strftime(_GENERALIZED_FORMAT).encode("ascii"),
    )


def decode_time(element: Element) -> _dt.datetime:
    """Decode a UTCTime or GeneralizedTime per RFC 5280 rules.

    The canonical ``YYMMDDHHMMSSZ`` / ``YYYYMMDDHHMMSSZ`` form with ASCII
    digits is read by position.  Any other content, and any value the
    positional read rejects, takes the ``strptime`` path, so the
    accepted values and the error messages are those of ``strptime``.
    """
    content = element.content
    number = element.tag.number
    if number == UniversalTag.UTC_TIME:
        width = 13
    elif number == UniversalTag.GENERALIZED_TIME:
        width = 15
    else:
        width = -1
    if len(content) == width and content[-1] == 0x5A and content[:-1].isdigit():
        if width == 13:
            year = (content[0] - 48) * 10 + content[1] - 48
            # RFC 5280: two-digit years 00-49 mean 20xx, 50-99 mean 19xx.
            year += 2000 if year < 50 else 1900
        else:
            year = int(content[:4])
        rest = content[width - 11 : -1]
        try:
            return _dt.datetime(
                year,
                int(rest[0:2]),
                int(rest[2:4]),
                int(rest[4:6]),
                int(rest[6:8]),
                int(rest[8:10]),
            )
        except ValueError:
            pass
    text = content.decode("ascii", errors="replace")
    try:
        if number == UniversalTag.UTC_TIME:
            parsed = _dt.datetime.strptime(text, _UTC_FORMAT)
            # RFC 5280: two-digit years 00-49 mean 20xx, 50-99 mean 19xx.
            if parsed.year >= 2050:
                parsed = parsed.replace(year=parsed.year - 100)
            return parsed
        if number == UniversalTag.GENERALIZED_TIME:
            return _dt.datetime.strptime(text, _GENERALIZED_FORMAT)
    except ValueError as exc:
        raise DERDecodeError(f"malformed time {text!r}: {exc}", element.offset) from exc
    raise DERDecodeError(f"{element.tag} is not a time type", element.offset)
