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
import inspect
import os
from pathlib import Path
from typing import Any, Callable

MAX_DEPTH = 32

Value = Any  # int | bytes | str | list[Value] | dict[str, Value]


class EncodingError(ValueError):
    """Value outside the encodable domain, or malformed/non-canonical input."""


def encode(value: Value) -> bytes:
    out = bytearray()
    try:
        _encode_into(value, out, 0)
    except EncodingError:
        raise
    except ValueError as exc:  # a str with a lone surrogate; an int past Python's 4300 digits
        raise EncodingError(f"cannot encode: {exc}") from exc
    return bytes(out)


def _encode_into(value: Value, out: bytearray, depth: int) -> None:
    cls = type(value)
    if cls is dict:
        if value and depth == MAX_DEPTH:
            raise EncodingError("nesting too deep")
        for key in value:
            if type(key) is not str:
                raise EncodingError("dict keys must be str")
        # code-point order is UTF-8 byte order, so str keys sort as is
        out += b"d"
        for key in sorted(value):
            raw, item = key.encode("utf-8"), value[key]
            kind = type(item)
            if kind is str:
                item = item.encode("utf-8")
                out += b"s%d:%ss%d:%s" % (len(raw), raw, len(item), item)
            elif kind is bytes:
                out += b"s%d:%sb%d:%s" % (len(raw), raw, len(item), item)
            elif kind is int:
                out += b"s%d:%si%de" % (len(raw), raw, item)
            else:
                out += b"s%d:%s" % (len(raw), raw)
                _encode_into(item, out, depth + 1)
        out += b"e"
    elif cls is bytes:
        out += b"b%d:%s" % (len(value), value)
    elif cls is str:
        raw = value.encode("utf-8")
        out += b"s%d:%s" % (len(raw), raw)
    elif cls is int:
        out += b"i%de" % value
    elif cls is list:
        if value and depth == MAX_DEPTH:
            raise EncodingError("nesting too deep")
        out += b"l"
        for item in value:
            _encode_into(item, out, depth + 1)
        out += b"e"
    else:
        raise EncodingError(f"cannot encode {cls.__name__}")


def decode(data: bytes) -> Value:
    """The one value ``data`` encodes; every malformed or non-canonical input,
    or one that is not bytes-like, raises EncodingError."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise EncodingError("decode expects bytes")
    buf = bytes(data)
    end = len(buf)
    try:
        value, pos = _decode_at(buf, 0, end, 0)
    except IndexError:  # a read past the end
        raise EncodingError("truncated input") from None
    except UnicodeDecodeError as exc:
        raise EncodingError("invalid utf-8 in string") from exc
    if pos != end:
        raise EncodingError("trailing bytes after value")
    return value


def decode_head(data: bytes, pos: int, depth: int) -> tuple[Value, int]:
    """Decode the one value at ``pos`` as if it sat ``depth`` containers deep,
    and return it with the position after it; what follows is the caller's.
    Faults raise EncodingError, as in :func:`decode`."""
    try:
        return _decode_at(data, pos, len(data), depth)
    except IndexError:
        raise EncodingError("truncated input") from None
    except UnicodeDecodeError as exc:
        raise EncodingError("invalid utf-8 in string") from exc


def _decode_at(data: bytes, pos: int, end: int, depth: int) -> tuple[Value, int]:
    """Decode the value at ``pos``; return it and the position after it.
    One loop reads a container's items, scalars inline, and only a nested
    container recurses; a scalar at ``pos`` is the loop's only token. A read
    past ``end`` raises IndexError, which its callers report as truncation."""
    tag = data[pos]
    result: Any = None  # the dict or list being filled
    is_list = tag == 0x6C  # l
    if is_list or tag == 0x64:  # d
        result = [] if is_list else {}
        pos += 1
    deep = depth == MAX_DEPTH  # the container may hold no items
    key = prev = None  # a dict key waiting for its value; the key before it
    while True:
        if result is not None:
            tag = data[pos]
            if tag == 0x65 and key is None:  # e
                return result, pos + 1
            if deep:
                raise EncodingError("nesting too deep")
        if tag == 0x62 or tag == 0x73:  # b, s
            if data[pos + 2] == 0x3A and 0x30 <= data[pos + 1] <= 0x39:  # a one-digit length
                sep = pos + 2
                pos = sep + 1 + data[pos + 1] - 0x30
            elif 0x31 <= data[pos + 1] <= 0x39 and 0x30 <= data[pos + 2] <= 0x39 and data[pos + 3] == 0x3A:
                sep = pos + 3  # a two-digit length, which cannot start with 0
                pos = sep + 1 + (data[pos + 1] - 0x30) * 10 + data[pos + 2] - 0x30
            else:
                sep = data.find(b":", pos)
                if sep < 0:
                    raise EncodingError("truncated input")
                digits = data[pos + 1 : sep]
                if not digits.isdigit() or digits[0] == 0x30 or len(digits) > 18:  # 19 digits pass any input
                    raise EncodingError("malformed length")
                pos = sep + 1 + int(digits)
            if pos > end:
                raise EncodingError("truncated input")
            value = data[sep + 1 : pos] if tag == 0x62 else data[sep + 1 : pos].decode()
        elif tag == 0x69 and data[pos + 2] == 0x65 and 0x30 <= data[pos + 1] <= 0x39:  # i<digit>e
            value, pos = data[pos + 1] - 0x30, pos + 3
        elif tag == 0x69:  # i
            value, pos = _int_at(data, pos + 1)
        elif result is not None and (tag == 0x64 or tag == 0x6C):
            value, pos = _decode_at(data, pos, end, depth + 1)
        else:
            raise EncodingError(f"unknown tag byte {tag:#04x}")
        if result is None:
            return value, pos
        if is_list:
            result.append(value)
        elif key is not None:
            result[key], prev, key = value, key, None
        elif tag != 0x73:
            raise EncodingError("dict key must be str")
        elif prev is not None and value <= prev:  # str order is UTF-8 byte order
            raise EncodingError("dict keys not strictly ascending")
        else:
            key = value


def cut_entry(data: bytes, pos: int, key: bytes) -> tuple[bytes, int]:
    """The raw value of the entry at ``pos`` whose key and value tag are
    ``key``, and the position after it; a length must be canonical, and of
    at most 18 digits, as :func:`_decode_at` reads it. It cuts the fixed
    entries of frames, credentials, rating payloads and activation blobs
    (FORMATS §2, §3). One- and two-digit lengths are read inline. An end
    past the data is the caller's to refuse: its next read there fails."""
    if not data.startswith(key, pos):
        raise EncodingError("not the expected entry")
    pos += len(key)
    if data[pos + 1] == 0x3A and 0x30 <= data[pos] <= 0x39:  # a one-digit length
        end = pos + 2 + data[pos] - 0x30
        return data[pos + 2 : end], end
    if 0x31 <= data[pos] <= 0x39 and 0x30 <= data[pos + 1] <= 0x39 and data[pos + 2] == 0x3A:
        end = pos + 3 + (data[pos] - 0x30) * 10 + data[pos + 1] - 0x30  # two digits, no leading 0
        return data[pos + 3 : end], end
    sep = data.find(b":", pos)
    digits = data[pos:sep]
    if sep < 0 or not digits.isdigit() or digits[0] == 0x30 and len(digits) > 1 or len(digits) > 18:
        raise EncodingError("malformed length")
    end = sep + 1 + int(digits)
    return data[sep + 1 : end], end


def _int_at(data: bytes, pos: int) -> tuple[int, int]:
    """The canonical int whose digits start at ``pos`` and end at the next
    ``e``, and the position after that ``e``."""
    stop = data.find(b"e", pos)
    if stop < 0:
        raise EncodingError("truncated input")
    digits = data[pos:stop]
    try:
        value = int(digits)
    except ValueError:
        raise EncodingError("malformed int") from None
    if b"%d" % value != digits:
        raise EncodingError("non-canonical int")
    return value, stop + 1


def cut_int(data: bytes, pos: int, key: bytes) -> tuple[int, int]:
    """The int of the entry at ``pos`` whose key and value tag are ``key``,
    and the position after it; the int must be canonical, as
    :func:`_decode_at` reads it, and a one-digit int is read inline."""
    if not data.startswith(key, pos):
        raise EncodingError("not the expected entry")
    pos += len(key)
    if data[pos + 1] == 0x65 and 0x30 <= data[pos] <= 0x39:  # e
        return data[pos] - 0x30, pos + 2
    return _int_at(data, pos)


def read_all(data: bytes, cut: Callable[[bytes, int], tuple]) -> Any:
    """What ``cut`` reads from all of ``data``: the value it cuts at position
    0, which must end where the data ends. ``data`` is bytes-like as for
    :func:`decode`, and every fault is an EncodingError: ``cut``'s own, a
    read past the end, bad UTF-8 or a value past ``int()``'s digit limit."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise EncodingError("decode expects bytes")
    data = bytes(data)
    try:
        value, end = cut(data, 0)
    except EncodingError:
        raise
    except (IndexError, ValueError) as exc:
        raise EncodingError(f"malformed input: {exc}") from exc
    if end != len(data):
        raise EncodingError("trailing bytes after value")
    return value


def check_fields(record: object, kinds: dict[str, type], optional=(), where: str = "record") -> dict:
    """``record``, if it is a dict with exactly the keys of ``kinds``, less any
    ``optional`` ones it leaves out, each value exactly of its kind (``True``
    is not an int) and each str one UTF-8 can encode; else EncodingError."""
    if type(record) is not dict:
        raise EncodingError(f"{where} must be a dict, not {type(record).__name__}")
    for name, value in record.items():
        kind = kinds.get(name)
        if kind is None:
            raise EncodingError(f"{where}: unknown field {name!r}")
        if type(value) is not kind:
            raise EncodingError(f"{where}: {name} must be {kind.__name__}, not {type(value).__name__}")
        if kind is str:
            try:
                value.encode()
            except UnicodeEncodeError:  # a lone surrogate, which JSON can write
                raise EncodingError(f"{where}: {name} is not encodable as UTF-8") from None
    if len(record) < len(kinds):  # every key given is one of kinds
        for name in kinds:
            if name not in record and name not in optional:
                raise EncodingError(f"{where}: missing {name!r}")
    return record


def check_kind(record: object, shapes: dict[str, Shape], where: str) -> dict:
    """``record`` checked by the shape its ``"kind"`` names in ``shapes``; a
    record of no kind there is an EncodingError that names it ``where``."""
    kind = record.get("kind") if type(record) is dict else None
    if type(kind) is not str or kind not in shapes:
        raise EncodingError(f"{where} of unknown kind {kind!r}")
    return shapes[kind].check(record)


_TAGS = {bytes: b"b", str: b"s", int: b"i"}


class Shape:
    """One fixed-shape record, declared once: ``name``, as its faults name it,
    and its fields, each given as its kind: ``bytes``, ``str``, ``int`` or
    ``dict``; a ``str``, the constant every record of the shape holds there;
    or a nested Shape, whose record the field holds. From them come, once:

    * ``kinds``, the field types :meth:`check` applies to a decoded record;
    * ``write``, a function generated from the fields as ``dataclasses``
      generates ``__init__``: it takes each field by keyword, a constant
      optionally and a nested record as its canonical bytes, and returns
      ``encode`` of the record, spliced into its literal keys in sorted
      order; a dict field is written by ``encode``. A field not exactly of
      its kind, a str UTF-8 cannot encode or an int past Python's 4300
      digits is an EncodingError, as in ``encode``;
    * ``cut``, the :meth:`cutter` of the record's fields as a dict."""

    def __init__(self, name: str, /, **fields: type | str | Shape):
        self.name = name
        self.fields = dict(sorted(fields.items()))  # code-point order is UTF-8 byte order
        self.kinds = {f: str if type(k) is str else dict if type(k) is Shape else k for f, k in self.fields.items()}
        # per field: its key and value tag as encoded, or a constant's whole entry
        self._keys = {
            f: encode(f) + (encode(k) if type(k) is str else _TAGS.get(k, b"")) for f, k in self.fields.items()
        }
        self.head = b"d" + next(iter(self._keys.values()), b"")  # what a record of the shape starts with
        self.write = _generate(self._writer())
        self.cut = self.cutter(dict)

    def _writer(self) -> list[str]:
        params, checks, dicts, strs, fmt, args = [], [], [], [], b"d", []
        for name, kind in self.fields.items():
            if type(kind) is str:
                params.append(f"{name}={kind!r}")
                checks.append(f"{name} == {kind!r}")
                fmt += self._keys[name].replace(b"%", b"%%")
                continue
            params.append(name)
            checks.append(f"type({name}) is {'bytes' if type(kind) is Shape else kind.__name__}")
            if kind is str:
                strs.append(f"{name} = {name}.encode()")
            elif kind is dict:
                dicts.append(f"{name} = encode({name})")
            sized = kind is str or kind is bytes  # written with its length; an int, dict or record is not
            fmt += self._keys[name] + (b"%d:%s" if sized else b"%de" if kind is int else b"%s")
            args += [f"len({name})", name] if sized else [name]
        return [
            f"def write({'*, ' + ', '.join(params) if params else ''}):",
            f"    if not ({' and '.join(checks) or 'True'}):",
            f"        raise EncodingError({self.name + ': a field not exactly of its type'!r})",
            *(f"    {line}" for line in dicts),
            "    try:",
            *(f"        {line}" for line in strs),
            f"        return {fmt + b'e'!r} % ({''.join(arg + ', ' for arg in args)})",
            "    except ValueError as exc:  # a lone surrogate; an int past Python's 4300 digits",
            "        raise EncodingError(f'cannot encode: {exc}') from exc",
        ]

    def cutter(self, make: Callable) -> Callable[[bytes, int], tuple[Any, int]]:
        """``cut(data, pos)``, generated as ``write`` is: ``make`` of the fields
        of the record at ``pos``, constants left out, and the position after
        it. ``make`` is ``dict``, ``tuple`` (of the values in key order) or a
        callable whose parameters are the fields' names. It cuts each field at its
        fixed key with :func:`cut_entry` or :func:`cut_int`, and refuses a
        dict or nested field. It accepts exactly what ``decode`` and
        :meth:`check` accept (FORMATS §1); bad UTF-8 is a UnicodeDecodeError
        and a read past the end an IndexError, as :meth:`read` reports them."""
        lines, values = ["def cut(data, pos, make=make):"], {}  # values: each field's, as an expression
        if not self.fields:
            lines += ['    if not data.startswith(b"d", pos):', '        raise EncodingError("not the expected entry")']
            lines.append("    pos += 1")
        for i, (name, kind) in enumerate(self.fields.items()):
            key = b"d" + self._keys[name] if i == 0 else self._keys[name]  # the first entry's key starts the dict
            if kind is int or kind is bytes or kind is str:
                lines.append(f"    v{i}, pos = {'cut_int' if kind is int else 'cut_entry'}(data, pos, {key!r})")
                values[name] = f"v{i}.decode()" if kind is str else f"v{i}"
                continue
            fault = f"{self.name}: not its {name} entry"
            if type(kind) is str:
                lines += [f"    if not data.startswith({key!r}, pos):", f"        raise EncodingError({fault!r})"]
                lines.append(f"    pos += {len(key)}")
            else:  # a dict or a nested record is not cut at fixed keys
                lines.append(f"    raise EncodingError({fault!r})")
        if make is dict:
            value = "{" + ", ".join(f"{name!r}: {v}" for name, v in values.items()) + "}"
        elif make is tuple:
            value = "(" + "".join(f"{v}, " for v in values.values()) + ")"
        else:  # by position, in the order make takes the fields, which costs less than by keyword
            value = "make(" + ", ".join(values[name] for name in inspect.signature(make).parameters) + ")"
        overrun = f"{self.name}: an entry after {[*self.fields][-1] if self.fields else 'its start'}"
        return _generate([
            *lines,
            "    if data[pos] != 0x65:  # e",
            f"        raise EncodingError({overrun!r})",
            f"    return {value}, pos + 1",
        ], make=make)

    def check(self, record: object) -> dict:
        """``record``, if :func:`check_fields` finds it of this shape's kinds."""
        return check_fields(record, self.kinds, where=self.name)

    def read(self, data: bytes) -> dict:
        """The fields of the record that is all of ``data``, as :func:`read_all` reads it."""
        return read_all(data, self.cut)


def _generate(lines: list[str], **names) -> Callable:
    """The one function the source ``lines`` define, with this module's names
    in scope and ``names`` for its default values."""
    exec("\n".join(lines), globals(), names)
    return names.popitem()[1]


def append_record(path: Path | str, record: bytes) -> None:
    """Append one record, given as its canonical bytes, to a log file: base64
    of the bytes, one record per line."""
    # one os.write on a descriptor opened per record; a write that fails part-way
    # is cut back, so the next append does not land on a half line (FORMATS §6)
    line = base64.b64encode(record) + b"\n"
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    written = 0
    try:
        while written < len(line):
            written += os.write(fd, line[written:])
    except BaseException:
        if written:
            try:
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR) - written)
            except OSError:
                pass  # the original error matters more; reading drops a torn tail
        raise
    finally:
        os.close(fd)


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
