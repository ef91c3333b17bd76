"""docs/FORMATS.md names the top-level fields of each request body (§3) and
of each issuance and ledger record kind (§6) that the code's tables check:
``wire.ROUTES``, ``privacy_ca._RECORDS`` and ``charging._RECORDS``. Nested
keys, such as a group entry of ``rs/admin/groups``, are not compared."""

import re
from pathlib import Path

from pseudorate import charging, privacy_ca, wire

FORMATS = (Path(__file__).resolve().parent.parent / "docs" / "FORMATS.md").read_text()


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


def _keys(record: str) -> set[str]:
    return {re.match(r'"([^"]+)"', item).group(1) for item in _items(record)}


def _kinds(row: str) -> dict[str, set[str]]:
    """Each record kind a §6 table row lists, with its field names."""
    kinds = {}
    for record in re.findall(r"`(\{.*?\})`", row):
        kinds[re.search(r'"kind": "([^"]+)"', record).group(1)] = _keys(record)
    return kinds


def test_items_are_read_at_the_top_level_only():
    assert _keys('{"groups": {str: {"pub": bytes, "impact": str}}}') == {"groups"}
    assert _keys('{"kind": "open", "account", "balance"}') == {"kind", "account", "balance"}
    assert _keys("{}") == set()


def test_endpoint_table_names_each_routes_request_fields():
    table = _section("### Endpoint bodies", "**Public and operator routes.**")
    rows = re.findall(r"^\| `([a-z/]+)` \| `(\{.*?\})`", table, re.M)
    assert {endpoint: _keys(body) for endpoint, body in rows} == {
        endpoint: set(fields) for endpoint, (_, fields, _) in wire.ROUTES.items()
    }


def test_log_table_names_each_record_kinds_fields():
    table = _section("## 6. Persisted service state", "The rating log is the one record")
    rows = {name: row for name, row in re.findall(r"^\| ([a-z ]+) \| (.*)\|$", table, re.M)}
    for name, records in [
        ("certification authority issuance log", privacy_ca._RECORDS),
        ("charging ledger", charging._RECORDS),
    ]:
        assert _kinds(rows[name]) == {kind: set(fields) for kind, fields in records.items()}, name
