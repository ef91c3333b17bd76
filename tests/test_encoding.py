import enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudorate.encoding import MAX_DEPTH, EncodingError, append_record, decode, encode, read_records


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
        b"b5:ab",  # length beyond input
        b"s1:\xff",  # invalid utf-8
        b"li1e",  # unterminated list
        b"ds1:ai1e",  # unterminated dict
        b"di1ei2ee",  # non-str key
        b"ds1:bi1es1:ai2ee",  # unsorted keys
        b"ds1:ai1es1:ai2ee",  # duplicate keys
        b"i1ei2e",  # trailing bytes
        b"",  # empty
        b"x",  # unknown tag
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
    ],
)
def test_values_outside_the_domain_raise_encoding_error(bad):
    with pytest.raises(EncodingError):
        encode(bad)


def test_log_records_round_trip(tmp_path):
    path = tmp_path / "records.log"
    rows = [{"n": i, "blob": bytes([i])} for i in range(5)]
    for row in rows:
        append_record(path, row)
    assert read_records(path) == rows


def test_corrupt_log_line_rejected(tmp_path):
    path = tmp_path / "records.log"
    path.write_bytes(b"!!!not-base64!!!\n")
    with pytest.raises(EncodingError):
        read_records(path)
