"""Canonical serialization used for every signed payload, wire message and
persisted record.

The format is a small tagged encoding with explicit length prefixes
(full grammar in docs/FORMATS.md):

    int    i<decimal>e           no leading zeros, no "-0"
    bytes  b<len>:<raw>
    str    s<len>:<utf-8 bytes>
    list   l<items>e
    dict   d<key><value>...e     keys are str, strictly ascending by UTF-8

``encode`` accepts exactly the five built-in types, not their subclasses;
``decode`` rejects every non-canonical or malformed input, which makes
``encode`` and ``decode`` mutual inverses on the accepted domain:
``encode(decode(b)) == b`` and ``decode(encode(v)) == v``. Two distinct
byte strings therefore never decode to equal values.
"""

from __future__ import annotations

import base64
import os
from pathlib import Path
from typing import Any

MAX_DEPTH = 32

Value = Any  # int | bytes | str | list[Value] | dict[str, Value]


class EncodingError(ValueError):
    """Value outside the encodable domain, or malformed/non-canonical input."""


def encode(value: Value) -> bytes:
    out = bytearray()
    _encode_into(value, out, 0)
    return bytes(out)


def _encode_into(value: Value, out: bytearray, depth: int) -> None:
    if depth > MAX_DEPTH:
        raise EncodingError("nesting too deep")
    cls = type(value)
    if cls is bytes:
        out += b"b%d:" % len(value)
        out += value
    elif cls is str:
        raw = value.encode("utf-8")
        out += b"s%d:" % len(raw)
        out += raw
    elif cls is dict:
        for key in value:
            if type(key) is not str:
                raise EncodingError("dict keys must be str")
        # code-point order is UTF-8 byte order, so str keys sort as is
        out += b"d"
        for key in sorted(value):
            raw = key.encode("utf-8")
            out += b"s%d:" % len(raw)
            out += raw
            _encode_into(value[key], out, depth + 1)
        out += b"e"
    elif cls is int:
        out += b"i%de" % value
    elif cls is list:
        out += b"l"
        for item in value:
            _encode_into(item, out, depth + 1)
        out += b"e"
    else:
        raise EncodingError(f"cannot encode {cls.__name__}")


def decode(data: bytes, spans: dict[int, tuple[int, int]] | None = None) -> Value:
    """Given ``spans``, also records ``id(d) -> (start, end)`` for every
    decoded dict ``d``: canonical decoding makes ``data[start:end] == encode(d)``."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise EncodingError("decode expects bytes")
    buf = bytes(data)
    value, pos = _decode_at(buf, 0, 0, spans)
    if pos != len(buf):
        raise EncodingError("trailing bytes after value")
    return value


def _decode_at(data: bytes, pos: int, depth: int, spans: dict | None) -> tuple[Value, int]:
    if depth > MAX_DEPTH:
        raise EncodingError("nesting too deep")
    if pos >= len(data):
        raise EncodingError("truncated input")
    tag = data[pos]
    if tag == 0x69:  # i
        end = data.find(b"e", pos + 1)
        if end < 0:
            raise EncodingError("unterminated int")
        digits = data[pos + 1 : end]
        _check_canonical_int(digits)
        return int(digits), end + 1
    if tag == 0x62:  # b
        return _read_length_prefixed(data, pos + 1)
    if tag == 0x73:  # s
        raw, nxt = _read_length_prefixed(data, pos + 1)
        return _decode_utf8(raw), nxt
    if tag == 0x6C:  # l
        pos += 1
        items: list[Value] = []
        while True:
            if pos >= len(data):
                raise EncodingError("unterminated list")
            if data[pos] == 0x65:  # e
                return items, pos + 1
            item, pos = _decode_at(data, pos, depth + 1, spans)
            items.append(item)
    if tag == 0x64:  # d
        start = pos
        pos += 1
        result: dict[str, Value] = {}
        prev_key: bytes | None = None
        while True:
            if pos >= len(data):
                raise EncodingError("unterminated dict")
            if data[pos] == 0x65:  # e
                if spans is not None:
                    spans[id(result)] = (start, pos + 1)
                return result, pos + 1
            if data[pos] != 0x73:
                raise EncodingError("dict key must be str")
            raw_key, pos = _read_length_prefixed(data, pos + 1)
            if prev_key is not None and raw_key <= prev_key:
                raise EncodingError("dict keys not strictly ascending")
            prev_key = raw_key
            value, pos = _decode_at(data, pos, depth + 1, spans)
            result[_decode_utf8(raw_key)] = value
    raise EncodingError(f"unknown tag byte {tag:#04x}")


def _check_canonical_int(digits: bytes) -> None:
    body = digits[1:] if digits.startswith(b"-") else digits
    if not body or not body.isdigit():
        raise EncodingError("malformed int")
    if body[0:1] == b"0" and len(body) > 1:
        raise EncodingError("leading zeros in int")
    if digits == b"-0":
        raise EncodingError("negative zero")


def _read_length_prefixed(data: bytes, pos: int) -> tuple[bytes, int]:
    sep = data.find(b":", pos)
    if sep < 0:
        raise EncodingError("missing length separator")
    digits = data[pos:sep]
    if not digits.isdigit():
        raise EncodingError("malformed length")
    if digits[0:1] == b"0" and len(digits) > 1:
        raise EncodingError("leading zeros in length")
    length = int(digits)
    start = sep + 1
    end = start + length
    if end > len(data):
        raise EncodingError("length prefix exceeds input")
    return data[start:end], end


def _decode_utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError("invalid utf-8 in string") from exc


def append_record(path: Path | str, value: Value) -> None:
    """Append one record to a log file: base64 of the canonical bytes, one per line."""
    line = base64.b64encode(encode(value)) + b"\n"
    with open(path, "ab") as fh:
        fh.write(line)


def read_records(path: Path | str) -> list[Value]:
    """Read back every record written by :func:`append_record`. A final line
    without its newline is an append that never finished: it is dropped and
    cut from the file, so the next append starts a line of its own."""
    data = Path(path).read_bytes()
    end = data.rfind(b"\n") + 1
    if end < len(data):
        os.truncate(path, end)
    records = []
    for line in data[:end].split(b"\n"):
        line = line.strip()
        if not line:
            continue
        try:
            raw = base64.b64decode(line, validate=True)
        except ValueError as exc:  # binascii.Error
            raise EncodingError("corrupt log line") from exc
        records.append(decode(raw))
    return records
