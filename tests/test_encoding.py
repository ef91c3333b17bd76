import base64
import enum
import errno
import json
import os
import random
import re
import stat
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudorate import charging, crypto, privacy_ca, reputation, wire
from pseudorate.charging import ChargingProvider, PricingPolicy, RevenueShares
from pseudorate.cli import _verify_detail
from pseudorate.clock import SimClock
from pseudorate.encoding import (
    MAX_DEPTH,
    EncodingError,
    append_record,
    check_fields,
    cut_entry,
    decode,
    encode,
    read_records,
)
from pseudorate.errors import TicketError
from pseudorate.reputation import RatingPayload
from pseudorate.scenario import ScenarioConfig, Transcript
from pseudorate.tpm import TpmInstance
from pseudorate.wire import Router, decode_response, encode_request

from support import honest_chain, ledger_state, make_stack


def test_scalar_round_trips():
    for value in (0, -1, 7, 10**40, b"", b"\x00\xff", "", "héllo", [], {}, [1, b"x", "y"], {"a": 1}):
        assert decode(encode(value)) == value


def test_known_encodings():
    assert encode(0) == b"i0e"
    assert encode(-12) == b"i-12e"
    assert encode(b"ab") == b"b2:ab"
    assert encode("ab") == b"s2:ab"
    assert encode([1, 2]) == b"li1ei2ee"
    assert encode({"b": 1, "a": 2}) == b"ds1:ai2es1:bi1ee"


def test_dict_keys_sorted_by_utf8_bytes():
    value = {"é": 1, "z": 2}  # "z" (0x7a) sorts before "é" (0xc3 0xa9)
    assert encode(value) == b"ds1:zi2es2:\xc3\xa9i1ee"


@pytest.mark.parametrize(
    "bad",
    [
        b"i01e",  # leading zero
        b"i-0e",  # negative zero
        b"i1",  # unterminated
        b"ie",  # empty int
        b"b02:ab",  # leading zero length
        b"b05:abcde",  # leading zero on a two-digit length
        b"b5:ab",  # length beyond input
        b"s12:abc",  # two-digit length beyond input
        b"s1:\xff",  # invalid utf-8
        b"li1e",  # unterminated list
        b"ds1:ai1e",  # unterminated dict
        b"di1ei2ee",  # non-str key
        b"ds1:bi1es1:ai2ee",  # unsorted keys
        b"ds1:ai1es1:ai2ee",  # duplicate keys
        b"i1ei2e",  # trailing bytes
        b"",  # empty
        b"x",  # unknown tag
        b"i" + b"1" * 5000 + b"e",  # past Python's int-string limit, which encode cannot write either
    ],
)
def test_non_canonical_inputs_rejected(bad):
    with pytest.raises(EncodingError):
        decode(bad)


def test_bool_and_other_types_rejected():
    with pytest.raises(EncodingError):
        encode(True)
    with pytest.raises(EncodingError):
        encode(1.5)
    with pytest.raises(EncodingError):
        encode({1: "a"})


def test_depth_limit():
    value = []
    for _ in range(60):
        value = [value]
    with pytest.raises(EncodingError):
        encode(value)
    with pytest.raises(EncodingError):
        decode(b"l" * 60 + b"e" * 60)


values = st.recursive(
    st.integers() | st.binary(max_size=24) | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@given(values)
def test_round_trip_property(value):
    encoded = encode(value)
    assert decode(encoded) == value
    # canonical bytes re-encode identically
    assert encode(decode(encoded)) == encoded


@given(st.binary(max_size=64))
def test_decode_total_and_canonical(data):
    try:
        value = decode(data)
    except EncodingError:
        return
    assert encode(value) == data


# the head of each value: a whole int, the tag and length of bytes or str, or
# the tag of a container
_REFERENCE_HEAD = re.compile(rb"i(0|-?[1-9][0-9]*)e|([bs])(0|[1-9][0-9]*):|([dl])")


def _reference_decode(data: bytes) -> object:
    """A decoder written apart from ``decode``: a regular expression reads
    each value's head, a container's items are read as values and then paired
    into a dict, and dict keys are compared as UTF-8 bytes."""

    def value_at(pos: int, depth: int) -> tuple[object, int]:
        if depth > MAX_DEPTH:
            raise EncodingError("nesting too deep")
        head = _REFERENCE_HEAD.match(data, pos)
        if head is None:
            raise EncodingError("no value head")
        number, kind, length, container = head.groups()
        pos = head.end()
        if number is not None:
            return int(number), pos
        if kind is not None:
            end = pos + int(length)
            if end > len(data):
                raise EncodingError("length past the end")
            if kind == b"b":
                return data[pos:end], end
            try:
                return data[pos:end].decode("utf-8"), end
            except UnicodeDecodeError:
                raise EncodingError("invalid utf-8") from None
        items = []
        while data[pos : pos + 1] != b"e":
            if pos >= len(data):
                raise EncodingError("container without its end")
            item, pos = value_at(pos, depth + 1)
            items.append(item)
        if container == b"l":
            return items, pos + 1
        keys, values = items[0::2], items[1::2]
        if len(keys) != len(values) or any(type(key) is not str for key in keys):
            raise EncodingError("dict items are not str keys with values")
        raw_keys = [key.encode("utf-8") for key in keys]
        if any(a >= b for a, b in zip(raw_keys, raw_keys[1:])):
            raise EncodingError("dict keys not strictly ascending")
        return dict(zip(keys, values)), pos + 1

    value, pos = value_at(0, 0)
    if pos != len(data):
        raise EncodingError("bytes after the value")
    return value


def _decoded(decoder, data: bytes):
    """The value ``decoder`` reads from ``data``, or None when it refuses it.
    That a dict's bytes are its encoding is checked where it is used, by the
    body check of the credential reader's property test (test_crypto.py)."""
    try:
        return decoder(data)
    except EncodingError:
        return None


# bytes that mean something in the format come up more often than the rest
format_bytes = st.sampled_from(b"0123456789:-ibsdle") | st.integers(0, 255)


@st.composite
def mutated_encodings(draw):
    """A canonical encoding with one byte replaced, inserted or deleted, or
    with a leading zero put before a number's first digit."""
    data = bytearray(encode(draw(values)))
    edit = draw(st.sampled_from(["replace", "insert", "delete", "pad"]))
    if edit == "pad":
        firsts = [at for at in range(1, len(data)) if data[at] in b"0123456789" and data[at - 1] in b"-ibs"]
        if firsts:
            data.insert(draw(st.sampled_from(firsts)), ord("0"))
        return bytes(data)
    at = draw(st.integers(0, len(data)))
    if edit == "insert":
        data.insert(at, draw(format_bytes))
    elif at < len(data):
        if edit == "replace":
            data[at] = draw(format_bytes)
        else:
            del data[at]
    return bytes(data)


@st.composite
def shuffled_dicts(draw):
    """A dict's bytes with its entries in any order, keys repeated or not."""
    entries = draw(st.lists(st.tuples(st.text("aé", max_size=2), values), max_size=4))
    return b"d" + b"".join(encode(key) + encode(value) for key, value in entries) + b"e"


@given(st.binary(max_size=64) | st.lists(format_bytes, max_size=24).map(bytes) | mutated_encodings())
def test_decode_equals_the_reference_decoder(data):
    assert _decoded(decode, data) == _decoded(_reference_decode, data)


@given(shuffled_dicts())
def test_decode_equals_the_reference_decoder_on_shuffled_dict_entries(data):
    assert _decoded(decode, data) == _decoded(_reference_decode, data)


def test_a_length_past_the_int_digit_limit_is_an_encoding_error():
    for data in (b"b" + b"9" * 5000 + b":", b"s" + b"1" * 19 + b":"):
        with pytest.raises(EncodingError, match="malformed length"):
            decode(data)


@pytest.mark.parametrize("digits", [b"1" + b"0" * 18, b"9" * 5000], ids=["19-digits", "5000-digits"])
def test_cut_entry_refuses_a_length_of_more_than_18_digits_as_decode_does(digits):
    data = b"s3:keyb" + digits + b":" + b"x" * 8
    with pytest.raises(EncodingError, match="malformed length"):
        cut_entry(data, 0, b"s3:keyb")
    with pytest.raises(EncodingError, match="malformed length"):
        decode(data[6:])  # the value alone
    # 18 digits are read: such a length runs past any input, which the caller refuses
    assert cut_entry(b"s3:keyb" + b"1" * 18 + b":x", 0, b"s3:keyb") == (b"x", 26 + int(b"1" * 18))


def _reference_encode(value) -> bytes:
    """An encoder written apart from ``encode``: isinstance dispatch, dict
    keys sorted by their UTF-8 bytes. On values built only of the five
    exact types the two must agree."""
    out = bytearray()

    def into(value, depth):
        if depth > MAX_DEPTH:
            raise EncodingError("nesting too deep")
        if isinstance(value, bool):
            raise EncodingError("bool is not encodable, use 0/1")
        if isinstance(value, int):
            out.extend(b"i%de" % value)
        elif isinstance(value, (bytes, bytearray, memoryview)):
            raw = bytes(value)
            out.extend(b"b%d:" % len(raw) + raw)
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            out.extend(b"s%d:" % len(raw) + raw)
        elif isinstance(value, (list, tuple)):
            out.extend(b"l")
            for item in value:
                into(item, depth + 1)
            out.extend(b"e")
        elif isinstance(value, dict):
            pairs = []
            for key in value:
                if not isinstance(key, str):
                    raise EncodingError("dict keys must be str")
                pairs.append((key.encode("utf-8"), key))
            pairs.sort(key=lambda kv: kv[0])
            out.extend(b"d")
            for raw_key, key in pairs:
                out.extend(b"s%d:" % len(raw_key) + raw_key)
                into(value[key], depth + 1)
            out.extend(b"e")
        else:
            raise EncodingError(f"cannot encode {type(value).__name__}")

    into(value, 0)
    return bytes(out)


class Small(int):
    pass


class Color(enum.IntEnum):
    RED = 1
    BLUE = 22


class Text(str):
    def __lt__(self, other):  # sorts backwards: the encoder must not use it
        return str.__gt__(self, other)


class Blob(bytes):
    pass


class Mapping(dict):
    pass


class Items(list):
    pass


scalars = (
    st.integers()
    | st.binary(max_size=16)
    | st.text(max_size=8)
    | st.binary(max_size=16).map(bytearray)
    | st.binary(max_size=16).map(memoryview)
    | st.binary(max_size=16).map(Blob)
    | st.integers(-5, 5).map(Small)
    | st.sampled_from(Color)
    | st.text(max_size=8).map(Text)
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=False)
)
keys = st.text(max_size=6) | st.text(max_size=6).map(Text) | st.integers(0, 3) | st.binary(max_size=2)
any_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.lists(children, max_size=4).map(Items)
    | st.dictionaries(st.text(max_size=6), children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4).map(Mapping)
    | st.dictionaries(keys, children, max_size=4),
    max_leaves=12,
)


def _exact(value) -> bool:
    """Built only of exact int, bytes, str, list and dict, with str keys."""
    cls = type(value)
    if cls is list:
        return all(_exact(item) for item in value)
    if cls is dict:
        return all(type(key) is str and _exact(item) for key, item in value.items())
    return cls in (int, bytes, str)


@given(values | any_values)
def test_encode_equals_the_reference_encoder(value):
    if _exact(value):
        assert encode(value) == _reference_encode(value)
    else:
        with pytest.raises(EncodingError):
            encode(value)


@pytest.mark.parametrize(
    "bad",
    [
        True,
        [1, False],
        {"a": True},
        {1: "a", 2: "b"},  # sortable, but not str
        {"a": 1, 2: "b"},  # mixed key types: sorted() alone would raise TypeError
        {b"k": 1},
        {"a": {Text("b"): 1, 3: 2}},
        None,
        1.5,
        {"a"},
        # subclasses and look-alikes of the five types, alone and nested
        pytest.param(Text("a"), id="str-subclass"),
        pytest.param(Blob(b"x"), id="bytes-subclass"),
        pytest.param(Small(3), id="int-subclass"),
        pytest.param(Mapping(a=1), id="dict-subclass"),
        pytest.param(Items([1]), id="list-subclass"),
        pytest.param(Color.BLUE, id="intenum"),
        pytest.param(("t",), id="tuple"),
        pytest.param(bytearray(b"y"), id="bytearray"),
        pytest.param(memoryview(b"z"), id="memoryview"),
        pytest.param({Text("b"): 1, "a": 2}, id="str-subclass-key"),
        pytest.param([b"x", Blob(b"y")], id="nested-bytes-subclass"),
        pytest.param({"a": Color.RED}, id="nested-intenum"),
        # values of the five types that have no encoding
        pytest.param(10**5000, id="int-past-the-digit-limit"),
        pytest.param("\ud800", id="lone-surrogate"),
    ],
)
def test_values_outside_the_domain_raise_encoding_error(bad):
    with pytest.raises(EncodingError):
        encode(bad)


# -- the splices: fixed-shape records written without the generic encoder ----

SPLICE_CRED = crypto.Credential(b"e", b"i" * 32, b"s" * 64, {"group": "1"})
SPLICE_PAYLOAD = RatingPayload("seller-é", 4, b"n" * 16, "rs-1", "fine")
# writer, the kind of each field it takes, and the record's fields it writes itself
SPLICES = {
    "credential body": (crypto.credential_body, {"entity": bytes, "issuer": bytes, "meta": dict}, {}),
    "Credential.body": (
        lambda entity, issuer, meta: crypto.Credential(entity, issuer, b"s", meta).body,
        {"entity": bytes, "issuer": bytes, "meta": dict}, {},
    ),
    "rating payload": (
        lambda **fields: RatingPayload(**fields).canonical_bytes(),
        {"comment": str, "nonce": bytes, "rs_id": str, "score": int, "subject": str}, {},
    ),
    "activation blob": (
        lambda aik, nonce: crypto.encode_activation_payload(aik, SPLICE_CRED, nonce),
        {"aik": bytes, "nonce": bytes}, {"cred": SPLICE_CRED.to_bytes()},
    ),
    "score body": (reputation.score_body, {"count": int, "score": str}, {}),
    "pca/request body": (wire._pca_request_body, {"aik_public": bytes, "group": int, "platform_id": str}, {}),
    "pca/complete body": (wire._pca_complete_body, {"nonce": bytes, "signature": bytes}, {}),
    "rs/submit body": (wire._rs_submit_body, {"chain": bytes, "payload": bytes}, {}),
    "rs/score body": (wire._rs_score_body, {"subject": str}, {}),
    "pca/request challenge": (wire._challenge_body, {"expires": int, "nonce": bytes}, {"status": "challenge"}),
    "pca/complete response": (wire._activation_body, {"activation_blob": bytes}, {}),
    "rs/submit ack": (wire._ack_body, {"group": int, "receipt": str, "subject": str}, {"status": "ack"}),
    # the three records a logged cycle appends
    "issue record": (
        lambda **fields: privacy_ca.issue_record_bytes({"kind": "issue", **fields}),
        {"aik_digest": str, "at": int, "charge_ref": str, "group": int, "label": str, "platform_id": str},
        {"kind": "issue"},
    ),
    "charge record": (
        lambda **fields: charging.charge_record_bytes({"kind": "charge", **fields}),
        {"account": str, "amount": int, "at": int, "group": int, "phase": str, "receipt": str, "ref": str},
        {"kind": "charge"},
    ),
    "rating record": (
        lambda **fields: reputation.rating_record_bytes(payload=SPLICE_PAYLOAD.canonical_bytes(), **fields),
        {"aik_digest": str, "chain_digest": str, "group": int, "impact": str, "received": int},
        {"payload": SPLICE_PAYLOAD.to_record()},
    ),
}
# values that encode refuses (a subclass, a look-alike, a lone surrogate, an
# int past the digit limit) and values of another kind that it would write
SPLICE_BAD = {
    bytes: [bytearray(b"x"), memoryview(b"x"), Blob(b"x"), "x", None, 1],
    str: [Text("x"), "\ud800", "a\udfff", b"x", None, 1],
    int: [True, False, Small(2), Color.RED, 10**4300, -(10**4300), 1.0, "1", None],
    dict: [
        {Text("k"): "v"}, {"k": Text("v")}, {"k": 1}, {"k": b"v"}, {1: "v"}, {"k": "\ud800"}, {"\udfff": "v"},
        {"a": "v", 2: "w"},
    ],
}
SPLICE_GOOD = {
    bytes: st.sampled_from([(0, 0), (1, 9), (10, 99), (100, 150)]).flatmap(
        lambda size: st.binary(min_size=size[0], max_size=size[1])
    ),
    str: st.text(max_size=3) | st.text(min_size=40, max_size=60),
    int: st.integers() | st.integers(-9, 9) | st.sampled_from([10**4299, -(10**4299)]),
    dict: st.dictionaries(st.text(max_size=3), st.text(max_size=4), max_size=4),
}


def _splice_field(kind) -> st.SearchStrategy:
    good = SPLICE_GOOD[kind]
    return st.one_of(good, good, good, st.sampled_from(SPLICE_BAD[kind]))


def _reference_splice(kinds: dict, fields: dict, constants: dict) -> bytes:
    """``encode`` of the record, where each field is exactly of its kind and a
    dict maps str to str; else an EncodingError."""
    for name, kind in kinds.items():
        value = fields[name]
        if type(value) is not kind or kind is dict and any(type(k) is not str or type(v) is not str for k, v in value.items()):
            raise EncodingError(f"{name} is not of its kind")
    return encode({**fields, **constants})


def _written(write, **fields) -> bytes | str:
    try:
        return write(**fields)
    except EncodingError:
        return "EncodingError"


@given(
    st.sampled_from(sorted(SPLICES)).flatmap(
        lambda name: st.tuples(st.just(name), st.fixed_dictionaries({f: _splice_field(k) for f, k in SPLICES[name][1].items()}))
    )
)
def test_each_splice_writes_what_encode_writes(case):
    """Each fixed-shape record on the acquire, redeem and score path is spliced.
    Where every field is exactly of its kind, the splice is ``encode`` of the
    record, and it refuses with an EncodingError exactly where ``encode`` does;
    a field of another kind is refused, with no other exception, though
    ``encode`` would have written it under its own tag."""
    name, fields = case
    write, kinds, constants = SPLICES[name]
    assert _written(write, **fields) == _written(_reference_splice, kinds=kinds, fields=fields, constants=constants)


@pytest.mark.parametrize("name", sorted(SPLICES))
def test_each_splice_refuses_each_bad_field_as_the_reference_does(name):
    write, kinds, constants = SPLICES[name]
    good = {field: {bytes: b"x", str: "é", int: -7, dict: {"k": "v"}}[kind] for field, kind in kinds.items()}
    assert _written(write, **good) == encode({**good, **constants})
    for field, kind in kinds.items():
        for bad in SPLICE_BAD[kind]:
            fields = {**good, field: bad}
            assert _written(write, **fields) == "EncodingError"
            assert _written(_reference_splice, kinds=kinds, fields=fields, constants=constants) == "EncodingError"


def test_log_records_round_trip(tmp_path):
    path = tmp_path / "records.log"
    rows = [{"n": i, "blob": bytes([i])} for i in range(5)]
    for row in rows:
        append_record(path, encode(row))
    assert read_records(path) == rows


def test_corrupt_log_line_rejected(tmp_path):
    path = tmp_path / "records.log"
    path.write_bytes(b"!!!not-base64!!!\n")
    with pytest.raises(EncodingError):
        read_records(path)


os_write = os.write  # the real one, for FillingDisk to call while it stands in


def log_line(value) -> bytes:
    return base64.b64encode(encode(value)) + b"\n"


class FillingDisk:
    """Stands in for ``os.write``: each call writes at most ``chunk`` bytes,
    and once ``budget`` bytes have gone out the next call fails with ENOSPC,
    as on a disk that fills up part-way through a line. ``budget=None`` never
    fails."""

    def __init__(self):
        self.budget: int | None = None
        self.chunk = 1 << 20

    def write(self, fd: int, data: bytes) -> int:
        if self.budget == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        limit = self.chunk if self.budget is None else min(self.chunk, self.budget)
        written = os_write(fd, data[:limit])
        if self.budget is not None:
            self.budget -= written
        return written


def test_append_cut_short_by_a_full_disk_leaves_no_half_line(tmp_path, monkeypatch):
    path = tmp_path / "ledger.log"
    cp = ChargingProvider(SimClock(), ledger_log=path)
    cp.open_account("first", 100)
    disk = FillingDisk()
    monkeypatch.setattr(os, "write", disk.write)
    disk.budget = len(log_line({"kind": "open", "account": "second", "balance": 200})) // 2
    with pytest.raises(OSError) as excinfo:
        cp.open_account("second", 200)
    assert excinfo.value.errno == errno.ENOSPC
    assert disk.budget == 0  # half the line did reach the file before the failure
    # the service keeps going, and its next record starts a line of its own
    disk.budget = None
    cp.open_account("third", 300)

    revived = ChargingProvider(SimClock(), ledger_log=path)
    assert revived.balance("first") == 100
    assert revived.balance("third") == 300
    assert ledger_state(revived) == ledger_state(cp)
    assert path.read_bytes().count(b"\n") == 2


@given(
    st.lists(
        st.tuples(st.none() | st.integers(0, 60), st.integers(1, 64)),
        min_size=1,
        max_size=25,
    )
)
def test_failed_appends_leave_exactly_the_records_whose_append_returned(faults):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "records.log"
        disk = FillingDisk()
        mp.setattr(os, "write", disk.write)
        kept = []
        for n, (budget, chunk) in enumerate(faults):
            record = {"n": n, "pad": "x" * (n * 7 % 23)}
            disk.budget, disk.chunk = budget, chunk
            try:
                append_record(path, encode(record))
            except OSError as exc:
                assert exc.errno == errno.ENOSPC
            else:
                kept.append(record)
        mp.undo()
        # no torn tail either: the file holds exactly the returned records' lines
        assert path.read_bytes() == b"".join(log_line(record) for record in kept)
        assert read_records(path) == kept


def test_a_failed_cut_back_still_raises_the_write_error(tmp_path, monkeypatch):
    path = tmp_path / "records.log"
    append_record(path, encode({"n": 0}))
    disk = FillingDisk()
    disk.budget = 5
    monkeypatch.setattr(os, "write", disk.write)

    def no_truncate(fd, length):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "ftruncate", no_truncate)
    with pytest.raises(OSError) as excinfo:
        append_record(path, encode({"n": 1}))
    assert excinfo.value.errno == errno.ENOSPC
    monkeypatch.undo()
    # what the cut-back left behind is a torn tail, and reading drops it
    assert read_records(path) == [{"n": 0}]
    append_record(path, encode({"n": 2}))
    assert read_records(path) == [{"n": 0}, {"n": 2}]


def test_append_keeps_the_mode_errors_and_descriptor_of_a_buffered_open(tmp_path, monkeypatch):
    previous = os.umask(0o027)
    try:
        append_record(tmp_path / "records.log", encode({"n": 0}))
        with open(tmp_path / "opened.log", "ab"):
            pass
    finally:
        os.umask(previous)
    mode = stat.S_IMODE((tmp_path / "records.log").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "opened.log").stat().st_mode) == 0o640

    with pytest.raises(FileNotFoundError):
        append_record(tmp_path / "missing" / "records.log", encode({"n": 0}))
    with pytest.raises(IsADirectoryError):
        append_record(tmp_path, encode({"n": 0}))

    inheritable = []
    close = os.close

    def spy_close(fd):
        inheritable.append(os.get_inheritable(fd))
        close(fd)

    monkeypatch.setattr(os, "close", spy_close)
    append_record(tmp_path / "records.log", encode({"n": 1}))
    assert inheritable == [False]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_appends_leave_no_descriptor_open(tmp_path, monkeypatch):
    # a leaked raw descriptor raises no ResourceWarning, so count them instead
    path = tmp_path / "records.log"
    disk = FillingDisk()
    monkeypatch.setattr(os, "write", disk.write)
    before = len(os.listdir("/proc/self/fd"))
    for n in range(200):
        disk.budget = (None, 0, 7)[n % 3]
        target = tmp_path / "missing" / "records.log" if n % 10 == 9 else path
        try:
            append_record(target, encode({"n": n}))
        except OSError:
            pass
    assert len(os.listdir("/proc/self/fd")) == before


# -- the one shape rule: encoding.check_fields, and every record parser ------

KINDS = {"n": int, "b": bytes, "s": str, "d": dict, "l": list}
RECORD = {"n": 1, "b": b"x", "s": "x", "d": {}, "l": []}


def test_check_fields_returns_a_record_of_its_shape():
    assert check_fields(RECORD, KINDS) is RECORD
    assert check_fields({"n": 1}, KINDS, optional=("b", "s", "d", "l")) == {"n": 1}
    assert check_fields({}, {}) == {}


class Name(str):
    pass


@pytest.mark.parametrize(
    "record, message",
    [
        ({k: v for k, v in RECORD.items() if k != "s"}, "row: missing 's'"),
        ({**RECORD, "x": 1}, "row: unknown field 'x'"),
        ({**RECORD, "n": True}, "row: n must be int, not bool"),
        ({**RECORD, "b": bytearray(b"x")}, "row: b must be bytes, not bytearray"),
        ({**RECORD, "s": Name("x")}, "row: s must be str, not Name"),
        ({**RECORD, "s": "\ud800"}, "row: s is not encodable as UTF-8"),
        ({**RECORD, "d": None}, "row: d must be dict, not NoneType"),
        ([RECORD], "row must be a dict, not list"),
        (None, "row must be a dict, not NoneType"),
    ],
    ids=["missing", "unknown", "bool-for-int", "bytearray", "str-subclass", "lone-surrogate", "null", "list", "none"],
)
def test_check_fields_refuses_any_other_record(record, message):
    with pytest.raises(EncodingError, match=f"^{re.escape(message)}$"):
        check_fields(record, KINDS, where="row")


# a value of another type for each kind: true is not an int, a str is not
# bytes; a record sent encoded cannot carry true, so there it is a str
WRONG = {int: True, bytes: "x", str: 1, dict: [], list: {}}
WRONG_ENCODED = {**WRONG, int: "1"}

SHAPE_STACK = make_stack(2)
SHAPE_STACK.cp.open_account("acct-shape", 10**6)
_, SHAPE_PAYLOAD, SHAPE_CHAIN = honest_chain(SHAPE_STACK, SHAPE_STACK.new_agent("shape"))
SHAPE_REGISTRY = {g: pub for g, (pub, _) in SHAPE_STACK.pca.group_registry().items()}
CREDENTIAL = {"entity": b"e", "issuer": b"i", "meta": {"k": "v"}, "sig": b"s"}
BASIC = json.loads((Path(__file__).parent.parent / "scenarios" / "basic.json").read_text())


def routed(endpoint: str, body) -> str:
    router = Router(rs=SHAPE_STACK.rs, cp=SHAPE_STACK.cp)
    _, _, status, out = decode_response(router.handle(encode_request(endpoint, body, b"c")))
    return "ok" if status == "ok" else out["code"]


def activated(record) -> None:
    tpm = TpmInstance(rng=random.Random(3))  # the same identity key each time
    handle, _ = tpm.make_identity()
    tpm.activate_identity(handle, crypto.seal(tpm.ek_public, encode(record)))


def verified(record) -> str:
    ok, message = _verify_detail(record, SHAPE_REGISTRY)
    return "ok" if ok else message.split(":")[0]


class Shape(NamedTuple):
    kinds: dict  # every field with its type
    optional: tuple  # the fields a record may leave out
    good: dict  # a record the parser accepts
    call: Callable  # the parser
    error: str  # what it answers a record of another shape with
    wrong: dict = WRONG


SHAPES = {
    "router-body": Shape(
        {"account_id": str, "amount": int, "group": int, "phase": str, "ref": str}, (),
        {"account_id": "acct-shape", "amount": 1, "group": 1, "phase": "acquisition", "ref": "r1"},
        lambda body: routed("cp/charge", body), "protocol-error", WRONG_ENCODED,
    ),
    "router-group-entry": Shape(
        {"pub": bytes, "impact": str}, (), {"pub": SHAPE_REGISTRY[1], "impact": "1"},
        lambda entry: routed("rs/admin/groups", {"groups": {"1": entry, "2": {"pub": SHAPE_REGISTRY[2], "impact": "2"}}}),
        "protocol-error", WRONG_ENCODED,
    ),
    "payload": Shape(
        {"subject": str, "score": int, "comment": str, "nonce": bytes, "rs_id": str}, (),
        SHAPE_PAYLOAD.to_record(), RatingPayload.from_record, "EncodingError",
    ),
    "credential": Shape(
        {"entity": bytes, "issuer": bytes, "meta": dict, "sig": bytes}, (), CREDENTIAL,
        lambda record: crypto.Credential.from_bytes(encode(record)), "EncodingError", WRONG_ENCODED,
    ),
    "chain": Shape(
        {"rating": dict, "csk": dict, "aik": dict}, (), SHAPE_CHAIN.to_record(),
        lambda record: crypto.CredentialChain.from_bytes(encode(record)), "EncodingError", WRONG_ENCODED,
    ),
    "activation-blob": Shape(
        {"aik": bytes, "cred": bytes, "nonce": bytes}, (),
        {"aik": TpmInstance(rng=random.Random(3)).make_identity()[1], "cred": encode(CREDENTIAL), "nonce": b"n"},
        activated, "malformed-blob", WRONG_ENCODED,
    ),
    "transcript": Shape(
        {"version": int, "seed": int, "events": list, "final": dict, "groups": dict}, (),
        {"version": 1, "seed": 1, "events": [], "final": {}, "groups": {}},
        Transcript.from_record, "scenario-error",
    ),
    "scenario": Shape(
        {"seed": int, "rs_id": str, "groups": dict, "policy": dict, "shares": dict,
         "charging": str, "credit_limit": int, "agents": list, "script": list},
        ("seed", "rs_id", "policy", "shares", "charging", "credit_limit", "agents", "script"),
        {**BASIC, "credit_limit": 100}, ScenarioConfig.from_dict, "scenario-error",
    ),
    "policy": Shape(
        {"kind": str, "per_group": dict, "step": int, "incentive": int}, ("per_group", "step", "incentive"),
        {"kind": "increasing", "per_group": {"1": 5}, "step": 1, "incentive": 0},
        PricingPolicy.from_record, "invalid-argument",
    ),
    "shares": Shape(
        {"cp": str, "pca": str, "rs": str}, (), {"cp": "1/5", "pca": "2/5", "rs": "2/5"},
        RevenueShares.from_record, "invalid-shares",
    ),
    "verify-detail": Shape(
        {"chain": bytes, "payload": dict}, (),
        {"chain": SHAPE_CHAIN.to_bytes(), "payload": SHAPE_PAYLOAD.to_record()},
        verified, "malformed detail",
    ),
}


def shape_faults(shape: Shape) -> dict:
    """One fault each: a required field left out, an unknown field, each field
    of another type, and a record that is not a dict."""
    required = next(name for name in shape.kinds if name not in shape.optional)
    faults = {
        f"missing-{required}": {k: v for k, v in shape.good.items() if k != required},
        "unknown-field": {**shape.good, "zz": 1},
    }
    for name, kind in shape.kinds.items():
        faults[f"{type(shape.wrong[kind]).__name__}-{name}"] = {**shape.good, name: shape.wrong[kind]}
    faults["not-a-dict"] = [shape.good]
    return faults


def outcome(call, record) -> str:
    """What a parser makes of ``record``: "ok", the code of its error, or
    "EncodingError" for a parser that raises that."""
    try:
        result = call(record)
    except TicketError as exc:
        return exc.code
    except EncodingError:
        return "EncodingError"
    return result if isinstance(result, str) else "ok"


@pytest.mark.parametrize(
    "parser, fault", [(parser, fault) for parser, shape in SHAPES.items() for fault in shape_faults(shape)]
)
def test_every_record_parser_refuses_a_record_of_another_shape(parser, fault):
    shape = SHAPES[parser]
    assert outcome(shape.call, shape.good) == "ok"
    assert outcome(shape.call, shape_faults(shape)[fault]) == shape.error
