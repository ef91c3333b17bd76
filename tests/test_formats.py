"""docs/FORMATS.md gives each shape the code declares, field by field with
its kind: each route's request body and the six ok bodies a client cuts
(§3), the rating payload and the activation blob (§2), and each record kind
of the three logs (§6). A field's kind in FORMATS is ``bytes``, ``str`` or
``int``, a quoted constant, or a nested record or map, which is a ``dict``;
the keys inside a nested one, such as a group entry of ``rs/admin/groups``,
are not compared."""

import re
from pathlib import Path

from pseudorate import charging, crypto, privacy_ca, reputation, wire
from pseudorate.encoding import Shape

FORMATS = (Path(__file__).resolve().parent.parent / "docs" / "FORMATS.md").read_text()
# each route whose ok answer a client cuts at fixed keys -> its ok shapes, in FORMATS' order
OK_SHAPES = {
    "pca/request": [wire.CHALLENGE, wire.DENIED],
    "pca/complete": [wire.ACTIVATION],
    "rs/submit": [wire.ACK, wire.REJECT],
    "rs/score": [reputation.SCORE_BODY],
}


def _section(start: str, end: str) -> str:
    return FORMATS[FORMATS.index(start) : FORMATS.index(end)]


def _items(record: str) -> list[str]:
    """The comma-separated items at the top level of ``{...}``."""
    items, item, depth = [], "", 0
    for ch in record:
        depth += ch in "{["
        depth -= ch in "}]"
        if depth == 1 and ch == ",":
            items.append(item)
            item = ""
        elif depth >= 1 and not (depth == 1 and ch == "{"):
            item += ch
    return [i.strip() for i in [*items, item] if i.strip()]


def _fields(record: str) -> dict[str, str]:
    """Each field of a record FORMATS writes as ``{"name": kind, ...}``, with its kind."""
    fields = {}
    for item in _items(record):
        name, kind = re.fullmatch(r'"([^"]+)": (.+)', item).groups()
        fields[name] = kind if kind in ("bytes", "str", "int") or kind.startswith('"') else "dict"
    return fields


def _declared(shape: Shape) -> dict[str, str]:
    """Each field of a shape, with its kind as FORMATS writes it."""
    return {
        name: f'"{kind}"' if type(kind) is str else "dict" if type(kind) is Shape else kind.__name__
        for name, kind in shape.fields.items()
    }


def _records(text: str) -> list[str]:
    return re.findall(r"`(\{.*?\})`", text)


def test_fields_are_read_at_the_top_level_with_their_kinds():
    assert _fields('{"groups": {str: {"pub": bytes, "impact": str}}}') == {"groups": "dict"}
    assert _fields('{"kind": "open", "account": str, "balance": int}') == {
        "kind": '"open"', "account": "str", "balance": "int"
    }
    assert _fields('{"policy": policy}') == {"policy": "dict"}
    assert _fields("{}") == {}


def test_endpoint_table_gives_each_routes_request_and_ok_shapes():
    table = _section("### Endpoint bodies", "**Public and operator routes.**")
    rows = re.findall(r"^\| `([a-z/]+)` \| (.*?) \| (.*) \|$", table, re.M)
    assert {endpoint: [_fields(r) for r in _records(request)] for endpoint, request, _ in rows} == {
        endpoint: [_declared(shape)] for endpoint, (_, shape, _) in wire.ROUTES.items()
    }
    ok = {endpoint: [_fields(r) for r in _records(answer)] for endpoint, _, answer in rows if endpoint in OK_SHAPES}
    assert ok == {endpoint: [_declared(shape) for shape in shapes] for endpoint, shapes in OK_SHAPES.items()}


def test_the_payload_and_the_activation_blob_are_given_with_their_kinds():
    for shape in (reputation.PAYLOAD, crypto.ACTIVATION_BLOB):
        record = re.search(rf"^{shape.name} = (\{{.*\}})$", _section("## 2.", "## 3."), re.M).group(1)
        assert _fields(record) == _declared(shape), shape.name


def test_log_table_gives_each_record_kinds_shape():
    table = _section("## 6. Persisted service state", "The rating log is the one record")
    rows = {name: row for name, row in re.findall(r"^\| ([a-z ]+) \| (.*)\|$", table, re.M)}
    for name, records in [
        ("certification authority issuance log", privacy_ca._RECORDS),
        ("charging ledger", charging._RECORDS),
    ]:
        given = {fields["kind"].strip('"'): fields for fields in map(_fields, _records(rows[name]))}
        assert given == {kind: _declared(shape) for kind, shape in records.items()}, name
    assert [_fields(r) for r in _records(rows["reputation rating log"])] == [_declared(reputation.RATING_RECORD)]
