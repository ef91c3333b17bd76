import random
import re
import socket
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudorate import wire
from pseudorate.charging import PricingPolicy
from pseudorate.crypto import generate_keypair, key_id_of, sha256_hex
from pseudorate.encoding import MAX_DEPTH, EncodingError, check_fields, decode, encode
from pseudorate.encoding import read_records
from pseudorate.errors import TicketError
from pseudorate.privacy_ca import Challenge, DeniedRequest
from pseudorate.reputation import Ack, RatingPayload, Reject, ReputationSystem, score_body
from pseudorate.wire import (
    CpClient,
    OPERATOR_ROUTES,
    InprocTransport,
    PcaClient,
    ROUTES,
    Router,
    RsClient,
    SocketServer,
    SocketTransport,
    WireError,
    _decode_frame,
    _read_frame,
    _write_frame,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)

from support import TOKEN, all_single_field_mutants, honest_chain, make_stack, mutate_credential, raises_code, replace


def full_router(stack):
    return Router(pca=stack.pca, rs=stack.rs, cp=stack.cp)


def clients(transport):
    return PcaClient(transport), RsClient(transport), CpClient(transport)


def test_request_frame_round_trip():
    frame = encode_request("pca/register", {"a": 1}, b"\x00\x01")
    assert decode_request(frame) == ("pca/register", {"a": 1}, b"\x00\x01")


bodies = st.dictionaries(
    st.text(max_size=8),
    st.recursive(
        st.integers() | st.binary(max_size=16) | st.text(max_size=8),
        lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
        max_leaves=8,
    ),
    max_size=4,
)


@given(st.text(max_size=12), st.binary(max_size=12), st.text(max_size=8), bodies)
def test_frames_are_the_encoding_of_the_frame_dict(endpoint, correlation_id, status, body):
    request = {"version": 1, "endpoint": endpoint, "correlation_id": correlation_id, "body": body}
    assert encode_request(endpoint, body, correlation_id) == encode(request)
    assert encode_response(endpoint, correlation_id, status, body) == encode({**request, "status": status})


@st.composite
def frames(draw):
    """A request or response frame as the encoders write it: (response?, bytes)."""
    response = draw(st.booleans())
    endpoint, correlation_id, body = draw(st.text(max_size=12)), draw(st.binary(max_size=12)), draw(bodies)
    if response:
        return True, encode_response(endpoint, correlation_id, draw(st.sampled_from(["ok", "error"])), body)
    return False, encode_request(endpoint, body, correlation_id)


def decoded_fields(data: bytes, response: bool):
    """What the generic decoder makes of a frame: its fields in the frame
    decoder's order, or the error code the frame decoder must answer. Only a
    frame that is bytes, canonical and of a frame's shape but for its version
    is unsupported-version."""
    try:
        frame = decode(data) if type(data) is bytes else None
    except EncodingError:
        return "protocol-error"
    fields = {"version", "endpoint", "correlation_id", "body"} | ({"status"} if response else set())
    if not isinstance(frame, dict) or frame.keys() != fields:
        return "protocol-error"
    endpoint, corr, status, body = frame["endpoint"], frame["correlation_id"], frame.get("status", ""), frame["body"]
    if not (
        type(endpoint) is str
        and type(corr) is bytes
        and type(body) is dict
        and status in (("ok", "error") if response else ("",))
    ):
        return "protocol-error"
    return (endpoint, corr, status, body) if frame["version"] == 1 else "unsupported-version"


def frame_outcome(data: bytes, response: bool):
    """The frame decoder's fields for ``data``, or the code of its WireError."""
    try:
        return _decode_frame(data, response)
    except WireError as exc:
        return exc.code


def with_examples(cases):
    """``@example`` for each case, in the order given."""

    def decorate(test):
        for case in reversed(cases):
            test = example(case)(test)
        return test

    return decorate


# frames whose entries have one-, two- and three-digit lengths, at each edge;
# the frame decoder reads one and two digits inline, and longer lengths in general
ENTRY_LENGTH_FRAMES = [
    frame
    for n in (0, 9, 10, 99, 100)
    for frame in (
        (False, encode_request("e" * n, {}, b"c" * n)),
        (True, encode_response("e" * n, b"c" * n, "ok", {"k": b"v" * n})),
        (True, encode_response("e", b"c", "x" * n, {})),  # a status neither ok nor error
    )
]
# the same frames with a length written with a leading zero, 00 or 01
LEADING_ZERO_FRAMES = [
    (False, encode_request("e", {}, b"").replace(b"correlation_idb0:", b"correlation_idb00:")),
    (False, encode_request("e", {}, b"c").replace(b"correlation_idb1:", b"correlation_idb01:")),
    (False, encode_request("e", {}, b"c").replace(b"endpoints1:", b"endpoints01:")),
    (True, encode_response("", b"c", "ok", {}).replace(b"endpoints0:", b"endpoints00:")),
    (True, encode_response("e", b"c", "", {}).replace(b"statuss0:", b"statuss00:")),
]


@given(frames())
@with_examples(ENTRY_LENGTH_FRAMES[::3] + ENTRY_LENGTH_FRAMES[1::3])
def test_cutter_accepts_every_encoded_frame(frame):
    response, data = frame
    assert _decode_frame(data, response) == decoded_fields(data, response)


def nested(depth: int) -> dict:
    """A body whose deepest item sits in a list ``depth`` containers below its frame."""
    value = [0]
    for _ in range(depth - 2):
        value = [value]
    return {"n": value}


@pytest.mark.parametrize("response", [False, True])
@pytest.mark.parametrize("depth", [MAX_DEPTH - 1, MAX_DEPTH])
def test_cutter_keeps_the_depth_limit(depth, response):
    body = nested(depth)
    data = b"ds4:body" + encode(body) + b"s14:correlation_idb1:cs8:endpoints1:x"
    data += (b"s6:statuss2:ok" if response else b"") + b"s7:versioni1ee"
    if depth < MAX_DEPTH:
        assert _decode_frame(data, response) == ("x", b"c", "ok" if response else "", body)
    else:
        assert frame_outcome(data, response) == "protocol-error"
        with pytest.raises(EncodingError):
            decode(data)


@st.composite
def mutated_frames(draw):
    """An encoded frame after one edit: a cut, a length given a leading zero,
    an extra entry, version 2, any status, a byte edit, bytes of another
    type, or the other kind of frame expected."""
    response, data = draw(frames())
    edit = draw(st.sampled_from(["truncate", "leading-zero", "extra-key", "version", "status", "byte", "type", "kind"]))
    if edit == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif edit == "leading-zero":
        heads = [m.start() + 1 for m in re.finditer(rb"[bs][0-9]+:", data)]
        at = draw(st.sampled_from(heads))
        data = data[:at] + b"0" + data[at:]
    elif edit == "extra-key":
        key = draw(st.sampled_from([b"s5:extrai1e", b"s4:zzzzi1e", b"s1:ab0:"]))
        at = draw(st.sampled_from([len(data) - 1, len(data) - 14, 8]))  # after, before version; before body
        data = data[:at] + key + data[at:]
    elif edit == "version":
        data = data[:-3] + b"2ee"
    elif edit == "status":
        response, data = True, encode_response("x", b"c", draw(st.text(max_size=6)), {})
    elif edit == "byte":
        data = draw(one_byte_edits(data))
    elif edit == "type":
        data = draw(st.sampled_from([bytearray, memoryview, lambda d: d.decode("latin-1")]))(data)
    else:
        response = not response
    return response, data


@given(mutated_frames() | st.tuples(st.booleans(), st.binary(max_size=64)))
@with_examples(ENTRY_LENGTH_FRAMES + LEADING_ZERO_FRAMES)
@settings(max_examples=settings().max_examples * 2)
def test_cutter_agrees_with_decode(frame):
    response, data = frame
    assert frame_outcome(data, response) == decoded_fields(data, response)


def test_unknown_version_rejected():
    frame = encode(
        {"version": 2, "endpoint": "x", "correlation_id": b"", "body": {}}
    )
    with pytest.raises(WireError) as excinfo:
        decode_request(frame)
    assert excinfo.value.code == "unsupported-version"


REQUEST_V9 = encode({"version": 9, "endpoint": "rs/score", "correlation_id": b"c", "body": {}})


@pytest.mark.parametrize(
    "data, code",
    [
        (REQUEST_V9, "unsupported-version"),
        (REQUEST_V9.replace(b"s8:endpoints8:rs/score", b"s8:endpointi7e"), "protocol-error"),
        (REQUEST_V9.replace(b"s14:correlation_idb1:c", b"s14:correlation_ids1:c"), "protocol-error"),
        (REQUEST_V9.replace(b"s7:versioni9e", b"s7:versions1:9"), "unsupported-version"),
        (REQUEST_V9[:-1] + b"s8:zzzzzzzzi1ee", "protocol-error"),
        (bytearray(encode_request("rs/score", {}, b"c")), "protocol-error"),
        (memoryview(encode_request("rs/score", {}, b"c")), "protocol-error"),
    ],
    ids=["version-9", "version-9-int-endpoint", "version-9-str-correlation-id", "str-version",
         "version-9-then-a-key", "bytearray", "memoryview"],
)
def test_frame_fault_precedence(data, code):
    """The version is read last: a frame answers unsupported-version only if
    it is sound but for its version, and a frame must be bytes."""
    assert frame_outcome(data, False) == code
    _, _, status, body = decode_response(Router(rs=make_stack(1).rs).handle(data))
    assert (status, body["code"]) == ("error", code)


def test_router_maps_unknown_version_to_error_response():
    stack = make_stack(1)
    router = full_router(stack)
    frame = encode({"version": 9, "endpoint": "rs/score", "correlation_id": b"c", "body": {}})
    _, _, status, body = decode_response(router.handle(frame))
    assert status == "error"
    assert body["code"] == "unsupported-version"


def test_router_unknown_endpoint():
    stack = make_stack(1)
    router = full_router(stack)
    response = router.handle(encode_request("no/such", {}, b"c"))
    _, _, status, body = decode_response(response)
    assert status == "error" and body["code"] == "unknown-endpoint"


SAMPLE = {bytes: b"x", str: "x", int: 1, dict: {}}
WRONG_TYPE = {bytes: "x", str: 7, int: "1", dict: b"x"}


@pytest.mark.parametrize("endpoint", sorted(ROUTES))
def test_router_schema_rejects_extra_and_missing_fields(endpoint):
    stack = make_stack(1)
    router = full_router(stack)
    _, fields, _ = ROUTES[endpoint]
    good = {name: SAMPLE[kind] for name, kind in fields.items()}
    bad_bodies = [{**good, "extra": 1}]
    for name, kind in fields.items():
        bad_bodies.append({k: v for k, v in good.items() if k != name})  # missing
        bad_bodies.append({**good, name: WRONG_TYPE[kind]})  # wrong type
    for body in bad_bodies:
        _, _, status, out = decode_response(router.handle(encode_request(endpoint, body, b"c")))
        assert status == "error", body
        assert out["code"] == "protocol-error", (body, out)


@given(st.binary(max_size=200))
@settings(max_examples=settings().max_examples * 3 // 2)
def test_router_total_over_arbitrary_bytes(data):
    stack = test_router_total_over_arbitrary_bytes.stack
    router = test_router_total_over_arbitrary_bytes.router
    response = router.handle(data)
    _, _, status, body = decode_response(response)
    assert status == "error"
    assert "code" in body


test_router_total_over_arbitrary_bytes.stack = make_stack(1)
test_router_total_over_arbitrary_bytes.router = Router(
    pca=test_router_total_over_arbitrary_bytes.stack.pca,
    rs=test_router_total_over_arbitrary_bytes.stack.rs,
    cp=test_router_total_over_arbitrary_bytes.stack.cp,
)


FUZZ_STACK = make_stack(2)
_, FUZZ_PAYLOAD, FUZZ_CHAIN = honest_chain(FUZZ_STACK, FUZZ_STACK.new_agent("f"))


@st.composite
def one_byte_edits(draw, data: bytes) -> bytes:
    """``data`` with one byte replaced by another, one byte inserted, or one deleted."""
    i = draw(st.integers(0, len(data) - 1))
    edit = draw(st.sampled_from(["replace", "insert", "delete"]))
    if edit == "delete":
        return data[:i] + data[i + 1 :]
    if edit == "insert":
        return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i:]
    return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1 :]


# random bytes, or an honest submission's payload or chain bytes with one byte edited
submission_bytes = (
    st.binary(max_size=16)
    | one_byte_edits(FUZZ_PAYLOAD.canonical_bytes())
    | one_byte_edits(FUZZ_CHAIN.to_bytes())
)


@given(
    st.dictionaries(
        st.sampled_from(["payload", "chain", "subject", "x"]),
        st.recursive(
            st.integers(-5, 5) | st.binary(max_size=8) | st.text(max_size=4),
            lambda c: st.dictionaries(st.text(max_size=3), c, max_size=3),
            max_leaves=6,
        )
        | submission_bytes,
        max_size=3,
    )
    | st.fixed_dictionaries({"payload": submission_bytes, "chain": submission_bytes | st.just(FUZZ_CHAIN.to_bytes())})
    | st.fixed_dictionaries({"payload": st.just(FUZZ_PAYLOAD.canonical_bytes()), "chain": submission_bytes})
)
def test_submission_endpoint_total_over_fuzzed_records(body):
    router = Router(rs=FUZZ_STACK.rs)
    response = router.handle(encode_request("rs/submit", body, b"c"))
    _, _, status, out = decode_response(response)
    # no fuzzed submission crashes or fails inside a handler, and none is ever accepted
    assert status in ("ok", "error")
    if status == "ok":
        assert out["status"] == "reject"
    else:
        assert out["code"] != "internal", out


@pytest.mark.parametrize("field", ["payload", "chain"])
def test_a_length_past_the_int_digit_limit_is_a_protocol_error(field):
    body = {"payload": FUZZ_PAYLOAD.canonical_bytes(), "chain": FUZZ_CHAIN.to_bytes()}
    body[field] = b"ds6:entityb" + b"9" * 5000 + b":"
    _, _, status, out = decode_response(Router(rs=FUZZ_STACK.rs).handle(encode_request("rs/submit", body, b"c")))
    assert (status, out["code"]) == ("error", "protocol-error")


# "endpoint:code" -> the failing call, for every error code the certification
# authority and the charging provider send. Each call takes the service or its
# wire client, agent a (holds a ticket) and agent b (registered, no account).
ERROR_CASES = {
    "pca/register:duplicate-ek": lambda pca, a, b: pca.register_platform(a.tpm.ek_public, "acct-x"),
    "pca/request:unregistered-platform": lambda pca, a, b: pca.request_credential(b"k" * 32, 1, "nope"),
    "pca/request:unknown-group": lambda pca, a, b: pca.request_credential(b"k" * 32, 4, a.platform_id),
    "pca/request:duplicate-aik": lambda pca, a, b: pca.request_credential(
        a.tickets[0].credential.entity, 1, a.platform_id
    ),
    "pca/request:unknown-account": lambda pca, a, b: pca.request_credential(b"k" * 32, 1, b.platform_id),
    "pca/complete:handshake-failed": lambda pca, a, b: pca.complete_handshake(b"n" * 32, b"s" * 64),
    "pca/resolve:forbidden": lambda pca, a, b: pca.resolve_identity("00" * 32, "bad-token"),
    "pca/resolve:not-found": lambda pca, a, b: pca.resolve_identity("ff" * 32, TOKEN),
    "pca/blacklist:unknown-platform": lambda pca, a, b: pca.blacklist("nope", True),
    "cp/charge:unknown-account": lambda cp, a, b: cp.charge(b.user_account, 1, group=1, phase="acquisition", ref="r1"),
    "cp/charge:invalid-argument": lambda cp, a, b: cp.charge(a.user_account, 1, group=1, phase="later", ref="r1"),
    "cp/balance:unknown-account": lambda cp, a, b: cp.balance("ghost"),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_codes_surface_through_clients(case):
    """A failure has one name, its code: the wire client raises the same code
    and message as the service does in process."""
    endpoint, code = case.split(":")
    service = endpoint.split("/")[0]
    stack = make_stack(1, charging="acquisition")
    a = stack.new_agent("a")
    a.acquire_ticket(1)
    b = stack.new_agent("b", register=False)
    b.register()
    tap = []
    client = {"pca": PcaClient, "cp": CpClient}[service](InprocTransport(full_router(stack), tap=tap))
    with raises_code(code) as local:
        ERROR_CASES[case](getattr(stack, service), a, b)
    with raises_code(code) as remote:
        ERROR_CASES[case](client, a, b)
    assert str(remote.value) == str(local.value)
    assert decode_request(tap[0][1])[0] == endpoint


def test_full_protocol_over_inproc_clients():
    stack = make_stack(4)
    transport = InprocTransport(full_router(stack))
    pca_client, rs_client, cp_client = clients(transport)

    from pseudorate.agent import TrustedAgent
    from pseudorate.tpm import TpmInstance
    import random

    stack.cp.open_account("acct-w", 1000)
    agent = TrustedAgent(
        TpmInstance(rng=random.Random(1)),
        pca_client,
        rs_client,
        user_account="acct-w",
        rs_id=stack.rs.rs_id,
        rng=random.Random(2),
    )
    agent.register()
    ticket = agent.acquire_ticket(2)
    result = agent.redeem_ticket(ticket, agent.make_payload("seller-wire", 4))
    assert isinstance(result, Ack)
    count, score = rs_client.score("seller-wire")
    assert (count, score) == (1, "4")
    assert rs_client.score("nobody") == (0, "no-score")
    body = pca_client.resolve_identity(key_id_of(ticket.credential.entity), TOKEN)
    assert body["platform_id"] == agent.platform_id


def test_cp_policy_endpoint_get_and_set():
    stack = make_stack(1)
    cp_client = CpClient(InprocTransport(full_router(stack)))
    assert cp_client.get_policy()["kind"] == "free"
    record = cp_client.set_policy(PricingPolicy.increasing({1: 100}, step=10))
    assert record["kind"] == "increasing"
    assert stack.cp.policy.per_group == {1: 100}


def test_cp_charge_answers_a_declined_charge_over_its_client():
    stack = make_stack(1, credit_limit=0)
    stack.cp.open_account("acct-w", 100)
    cp_client = CpClient(InprocTransport(full_router(stack)))
    declined = cp_client.charge("acct-w", 101, group=1, phase="acquisition", ref="r1")
    assert declined == {"status": "declined", "reason": "limit-exceeded"}
    assert stack.cp.balance("acct-w") == 100


class Answering:
    """A transport that answers each request frame with ``answer(endpoint, correlation id)``."""

    def __init__(self, answer):
        self.answer = answer

    def request(self, data: bytes) -> bytes:
        endpoint, _, corr = decode_request(data)
        return self.answer(endpoint, corr)


# an answer to rs/score, made from the request's endpoint and correlation id,
# that the client refuses with a protocol error, and the error's message
CLIENT_REFUSALS = {
    "field-missing": (
        lambda endpoint, corr: encode_response(endpoint, corr, "ok", {"count": 0}),
        "bad rs/score answer: not the expected entry",
    ),
    "correlation-id-mismatch": (
        lambda endpoint, corr: encode_response(endpoint, corr[::-1], "ok", {"count": 0, "score": "no-score"}),
        "correlation id mismatch",
    ),
    # an ok answer carries its request's correlation id and endpoint, though an error answer may carry neither
    "empty-correlation-id": (
        lambda endpoint, corr: encode_response(endpoint, b"", "ok", {"count": 1, "score": "4"}),
        "correlation id mismatch",
    ),
    "another-endpoint": (
        lambda endpoint, corr: encode_response("pca/register", corr, "ok", {"count": 1, "score": "4"}),
        "endpoint mismatch",
    ),
    "neither": (lambda endpoint, corr: encode_response("", b"", "ok", {"count": 1, "score": "4"}), "correlation id mismatch"),
    "error-for-another-endpoint": (
        lambda endpoint, corr: encode_response("rs/submit", corr, "error", {"code": "bad-payload", "message": "m"}),
        "endpoint mismatch",
    ),
    "error-with-an-empty-correlation-id-only": (
        lambda endpoint, corr: encode_response(endpoint, b"", "error", {"code": "bad-payload", "message": "m"}),
        "correlation id mismatch",
    ),
}


@pytest.mark.parametrize("answer, message", CLIENT_REFUSALS.values(), ids=CLIENT_REFUSALS.keys())
def test_a_client_refuses_a_response_it_cannot_read(answer, message):
    with raises_code("protocol-error") as excinfo:
        RsClient(Answering(answer)).score("s")
    assert str(excinfo.value) == message


@pytest.mark.parametrize("corr, endpoint", [("this", "rs/score"), (b"", "")], ids=["this-request", "the-routers-own"])
def test_an_error_answer_raises_its_code(corr, endpoint):
    """An error answer carries its request's correlation id and endpoint, or
    neither: the router answers a frame it could not read with both empty."""
    answer = lambda _, this: encode_response(endpoint, this if corr == "this" else corr, "error", {"code": "x", "message": "m"})
    with raises_code("x"):
        RsClient(Answering(answer)).score("s")


SUBMIT_ARGS = (RatingPayload("s", 4, b"n", "rs"), SimpleNamespace(to_bytes=lambda: b"chain"))
# an ok body of pca/request or rs/submit whose status is neither of its route's two
BAD_STATUS_BODIES = {
    "challenge-bogus": ("pca/request", {"expires": 5, "nonce": b"n", "status": "bogus"}),
    "denied-bogus": ("pca/request", {"reason": "r", "status": "bogus"}),
    "challenge-as-denied": ("pca/request", {"expires": 5, "nonce": b"n", "status": "denied"}),
    "challenge-as-ack": ("pca/request", {"expires": 5, "nonce": b"n", "status": "ack"}),
    "ack-bogus": ("rs/submit", {"group": 1, "receipt": "r", "status": "bogus", "subject": "s"}),
    "reject-bogus": ("rs/submit", {"detail": "d", "reason": "r", "status": "bogus"}),
    "ack-as-reject": ("rs/submit", {"group": 1, "receipt": "r", "status": "reject", "subject": "s"}),
    "ack-as-challenge": ("rs/submit", {"group": 1, "receipt": "r", "status": "challenge", "subject": "s"}),
}


@pytest.mark.parametrize("endpoint, body", BAD_STATUS_BODIES.values(), ids=BAD_STATUS_BODIES.keys())
def test_an_ok_body_whose_status_is_not_its_routes_is_refused(endpoint, body):
    transport = Answering(lambda endpoint, corr: encode_response(endpoint, corr, "ok", body))
    with raises_code("protocol-error"):
        if endpoint == "pca/request":
            PcaClient(transport).request_credential(b"a", 1, "p")
        else:
            RsClient(transport).submit_rating(*SUBMIT_ARGS)


FIRST_CORR = (1).to_bytes(8, "big")  # the correlation id of a client's first request
# each route whose ok answer a client reads at fixed keys: how the client asks,
# and each ok body it reads, by status (None where the body has no status):
# the body's fields and the record the client returns for it
READ_ROUTES = {
    "pca/request": (
        lambda transport: PcaClient(transport).request_credential(b"a", 1, "p"),
        {
            "challenge": ({"expires": int, "nonce": bytes, "status": str}, lambda b: Challenge(b["nonce"], b["expires"])),
            "denied": ({"reason": str, "status": str}, lambda b: DeniedRequest(b["reason"])),
        },
    ),
    "pca/complete": (
        lambda transport: PcaClient(transport).complete_handshake(b"n", b"s"),
        {None: ({"activation_blob": bytes}, lambda b: b["activation_blob"])},
    ),
    "rs/submit": (
        lambda transport: RsClient(transport).submit_rating(*SUBMIT_ARGS),
        {
            "ack": (
                {"group": int, "receipt": str, "status": str, "subject": str},
                lambda b: Ack(b["receipt"], b["subject"], b["group"]),
            ),
            "reject": ({"detail": str, "reason": str, "status": str}, lambda b: Reject(b["reason"], b["detail"])),
        },
    ),
    "rs/score": (
        lambda transport: RsClient(transport).score("s"),
        {None: ({"count": int, "score": str}, lambda b: (b["count"], b["score"]))},
    ),
}
# the ok bodies each route's service writes
WRITTEN_BODIES = {
    "pca/request": st.builds(Challenge, st.binary(max_size=40), st.integers())
    | st.builds(DeniedRequest, st.text(max_size=12)),
    "pca/complete": st.binary(max_size=300),
    "rs/submit": st.builds(Ack, st.text(max_size=70), st.text(max_size=12), st.integers())
    | st.builds(Reject, st.text(max_size=12), st.text(max_size=20)),
    "rs/score": st.tuples(st.integers(min_value=0), st.text(max_size=12)),
}
WRITERS = {  # the denied and reject bodies are the handlers' dicts
    "pca/request": lambda result: wire._h_request(SimpleNamespace(request_credential=lambda *_: result), b"a", 1, "p"),
    "pca/complete": wire._activation_body,
    "rs/submit": lambda result: (
        wire._ack_body(result.receipt, result.subject, result.group)
        if isinstance(result, Ack)
        else {"status": "reject", "reason": result.reason, "detail": result.detail}
    ),
    "rs/score": lambda count_score: score_body(*count_score),
}


def generic_answer(endpoint: str, frame: bytes):
    """The reference reading of ``frame`` as the answer to a client's first
    request at ``endpoint``: ``decode_response``, then the ok body mapped by
    its status, its fields exactly those of that status."""
    r_endpoint, r_corr, status, body = decode_response(frame)
    if (r_corr, r_endpoint) != (FIRST_CORR, endpoint) and (status == "ok" or (r_corr, r_endpoint) != (b"", "")):
        raise WireError("an answer to another request")
    if status == "error":
        raise TicketError("", code=str(body.get("code", "internal")))
    shapes = READ_ROUTES[endpoint][1]
    key = None if None in shapes else body.get("status")
    fields, record = shapes.get(key if key is None or type(key) is str else "", (None, None))
    if fields is None:
        raise WireError("no body of that status")
    try:
        check_fields(body, fields)
    except EncodingError as exc:
        raise WireError(str(exc)) from exc
    return record(body)


def outcome(read):
    try:
        return "read", read()
    except TicketError as exc:
        return "refused", exc.code


class Raw(bytes):
    """A body value's bytes, written as they stand."""


def raw_frame(entries, corr=FIRST_CORR, endpoint="rs/score", status=b"ok", version=1) -> bytes:
    """A response frame spliced as ``_frame`` splices it, around the body
    whose entries, in the order given, are ``entries``."""
    body = b"".join(encode(key) + (value if type(value) is Raw else encode(value)) for key, value in entries)
    raw = endpoint.encode()
    return b"ds4:bodyd%ses14:correlation_idb%d:%ss8:endpoints%d:%ss6:statuss%d:%ss7:versioni%dee" % (
        body, len(corr), corr, len(raw), raw, len(status), status, version
    )


DEFECTS = [
    "none", "missing", "swapped", "repeated", "stray", "kind", "utf8", "leading-zero",
    "truncated", "corr", "endpoint", "version", "error",
]
OTHER_KIND = {int: ["4", b"4", [4]], str: [4, b"s", {}], bytes: ["b", 4, []]}


@st.composite
def answers(draw):
    """(defect, endpoint, frame): an ok answer its service writes to a
    client's first request at endpoint, with at most one defect."""
    endpoint = draw(st.sampled_from(sorted(READ_ROUTES)))
    body = WRITERS[endpoint](draw(WRITTEN_BODIES[endpoint]))
    entries = list(decode(body if type(body) is bytes else encode(body)).items())
    frame = {"corr": FIRST_CORR, "endpoint": endpoint}
    defect = draw(st.sampled_from(DEFECTS))
    texts = [i for i, (_, value) in enumerate(entries) if type(value) is str]
    at = draw(st.sampled_from(texts) if defect == "utf8" and texts else st.integers(0, len(entries) - 1))
    key, value = entries[at]
    if defect == "missing":
        del entries[at]
    elif defect == "swapped" and len(entries) > 1:
        entries[at - 1], entries[at] = entries[at], entries[at - 1]
    elif defect == "repeated":
        entries.insert(at, entries[at])
    elif defect == "stray":
        stray = (draw(st.text(max_size=12)), draw(st.sampled_from([0, b"", "x"])))
        entries.insert(draw(st.integers(0, len(entries))), stray)
    elif defect == "kind":
        entries[at] = (key, draw(st.sampled_from(OTHER_KIND[type(value)])))
    elif defect == "utf8" and type(value) is str:
        raw = value.encode()
        cut = draw(st.integers(0, len(raw)))
        raw = raw[:cut] + b"\xff" + raw[cut:]
        entries[at] = (key, Raw(b"s%d:%s" % (len(raw), raw)))
    elif defect == "leading-zero":
        raw = encode(value)
        entries[at] = (key, Raw(raw[:1] + b"0" + raw[1:]))
    elif defect in ("corr", "endpoint"):
        others = st.binary(max_size=9) if defect == "corr" else st.sampled_from(["", *sorted(ROUTES)])
        frame[defect] = draw(others.filter(lambda other: other != frame[defect]))
    elif defect == "version":
        frame["version"] = draw(st.integers().filter(lambda version: version != 1))
    elif defect == "error":
        entries = [("code", draw(st.text(max_size=12))), ("message", "m")]
        frame.update(status=b"error", **draw(st.sampled_from([{}, {"corr": b"", "endpoint": ""}])))
    data = raw_frame(entries, **frame)
    if defect == "truncated":
        data = data[: draw(st.integers(0, len(data) - 1))]
    return defect, endpoint, data


# the tail of an ok answer to rs/score, inside the str a version 1 frame gives
# as its version: its reader reads the body, which does not end where that tail starts
TAIL_IN_THE_VERSION = raw_frame(
    [("count", 1), ("score", "4")], version=0
).replace(b"versioni0e", b"versions%d:%s" % (len(wire._ok_tail(FIRST_CORR, "rs/score")) - 1, wire._ok_tail(FIRST_CORR, "rs/score")[:-1]))


@given(answers())
@example(("version", "rs/score", TAIL_IN_THE_VERSION))
def test_each_fixed_key_reader_reads_what_the_generic_decoder_reads(case):
    """A client reads the ok answer to each of pca/request, pca/complete,
    rs/submit and rs/score at its fixed keys. Whatever the answer, it returns
    what decode_response and the mapping of its body give, or refuses with
    the code they refuse with; an honest answer it reads."""
    defect, endpoint, frame = case
    read = outcome(lambda: READ_ROUTES[endpoint][0](Answering(lambda *_: frame)))
    assert read == outcome(lambda: generic_answer(endpoint, frame))
    assert defect != "none" or read[0] == "read"


def test_a_frame_over_the_limit_is_refused_on_send_and_on_receive(monkeypatch):
    monkeypatch.setattr(wire, "MAX_FRAME", 8)
    left, right = socket.socketpair()
    with left, right:
        with raises_code("protocol-error"):
            _write_frame(left, b"x" * 9)
        _write_frame(left, b"x" * 8)
        assert _read_frame(right) == b"x" * 8
        left.sendall((9).to_bytes(4, "big"))
        with raises_code("protocol-error"):
            _read_frame(right)


def test_cp_admin_policy_refuses_wrong_types_and_unknown_keys():
    stack = make_stack(1)
    router = full_router(stack)
    before = stack.cp.policy
    for policy in (
        {"kind": "flat", "per_group": {"1": "70"}, "step": b"3", "bogus": 1},
        {"kind": "flat", "per_group": {"1": 70}, "bogus": 1},
        {"kind": "flat", "per_group": {"1": 10, "01": 20, " 2": 5}},
    ):
        request = encode_request("cp/admin/policy", {"policy": policy}, b"c")
        _, _, status, body = decode_response(router.handle(request))
        assert (status, body["code"]) == ("error", "invalid-argument"), policy
    assert stack.cp.policy == before


def test_groups_admin_endpoint():
    stack = make_stack(1)
    rs_client = RsClient(InprocTransport(Router(rs=stack.rs)))
    registry = {g: (pub, impact) for g, (pub, impact) in stack.pca.group_registry().items()}
    assert rs_client.configure_groups(registry) == 3


# group keys that int() reads, but that are not the decimal string of a group id >= 1
BAD_GROUP_KEYS = {
    "zero-padded": ["1", "01"],
    "leading-space": ["1", " 3"],
    "negative": ["-1"],
    "zero": ["0"],
    "plus-sign": ["+2"],
    "underscore": ["1_0"],
}


@pytest.mark.parametrize("keys", BAD_GROUP_KEYS.values(), ids=BAD_GROUP_KEYS.keys())
def test_groups_admin_endpoint_refuses_keys_that_are_not_group_ids(keys):
    """A group key is the decimal string of a group id >= 1, as policy and
    scenario keys are: it is never coerced, and the registry in force stays."""
    stack = make_stack(1)
    router = Router(rs=stack.rs)
    before = stack.rs.group_registry
    pub = stack.pca.group_registry()[1][0]
    groups = {key: {"pub": pub, "impact": "1"} for key in keys}
    _, _, status, body = decode_response(router.handle(encode_request("rs/admin/groups", {"groups": groups}, b"c")))
    assert (status, body["code"]) == ("error", "protocol-error")
    assert stack.rs.group_registry == before


@pytest.mark.parametrize("endpoint", sorted(ROUTES.keys() - OPERATOR_ROUTES))
def test_socket_transport_matches_inproc_bytes(endpoint):
    """Every public route answers over the socket with the bytes it answers in
    process: a well-formed body, one with a field missing, and an empty one."""
    assert len(ROUTES) - len(OPERATOR_ROUTES) == 7
    stack_a = make_stack(7)
    stack_b = make_stack(7)
    inproc = InprocTransport(full_router(stack_a))
    server = SocketServer(full_router(stack_b))
    socket_transport = SocketTransport(server.host, server.port)
    good = {name: SAMPLE[kind] for name, kind in ROUTES[endpoint][1].items()}
    try:
        for body in (good, dict(list(good.items())[1:]), {}):
            frame = encode_request(endpoint, body, b"\x01")
            assert inproc.request(frame) == socket_transport.request(frame)
    finally:
        socket_transport.close()
        server.close()


@pytest.mark.parametrize("endpoint", sorted(OPERATOR_ROUTES))
def test_socket_answers_operator_routes_as_unknown_endpoints(endpoint):
    """Over a socket an operator route is answered as an endpoint no router
    serves, whatever its body, and no state changes; in process the same
    frame is served as before."""
    assert OPERATOR_ROUTES < ROUTES.keys()
    stack = make_stack(3, policy=PricingPolicy.flat({1: 100, 2: 200, 3: 300}))
    agent = stack.new_agent("victim")

    def state():
        platform = stack.pca._platforms[agent.platform_id]
        return stack.rs.group_registry, stack.cp.balance(agent.user_account), platform.blacklisted, stack.cp.policy

    before = state()
    assert sorted(before[0]) == [1, 2, 3] and before[1:3] == (10_000, False)
    # sent in process, each of these changes the state its route guards, or reads it
    attack = {
        "pca/blacklist": {"platform_id": agent.platform_id, "flag": 1},
        "rs/admin/groups": {"groups": {"4": {"pub": generate_keypair(seed=b"attacker").public, "impact": "1000"}}},
        "cp/charge": {
            "account_id": agent.user_account, "amount": -1_000_000, "group": 1, "phase": "acquisition", "ref": "r1"
        },
        "cp/balance": {"account_id": agent.user_account},
        "cp/admin/policy": {"policy": {"kind": "free"}},
    }[endpoint]
    server = SocketServer(full_router(stack))
    transport = SocketTransport(server.host, server.port)
    try:
        for body in (attack, {}, {"platform_id": 7}):
            frame = encode_request(endpoint, body, b"\x01")
            assert transport.request(frame) == Router().handle(frame)
    finally:
        transport.close()
        server.close()
    _, _, status, body = decode_response(Router().handle(encode_request(endpoint, attack, b"\x01")))
    assert (status, body) == ("error", {"code": "unknown-endpoint", "message": f"unknown endpoint {endpoint!r}"})
    assert state() == before
    _, _, status, _ = decode_response(full_router(stack).handle(encode_request(endpoint, attack, b"\x01")))
    assert status == "ok"
    assert (state() == before) is (endpoint == "cp/balance")


def test_socket_survives_garbage_frames():
    stack = make_stack(1)
    server = SocketServer(full_router(stack))
    transport = SocketTransport(server.host, server.port)
    try:
        response = transport.request(b"\xff\xfe total garbage")
        _, _, status, body = decode_response(response)
        assert status == "error"
        # connection still usable afterwards
        ok = transport.request(encode_request("rs/score", {"subject": "x"}, b"\x02"))
        _, _, status2, _ = decode_response(ok)
        assert status2 == "ok"
    finally:
        transport.close()
        server.close()


def test_tap_records_both_directions():
    stack = make_stack(1)
    tap = []
    transport = InprocTransport(full_router(stack), tap=tap)
    CpClient(transport).get_policy()
    assert [d for d, _ in tap] == ["send", "recv"]


def test_closed_server_answers_no_open_connection(tmp_path):
    """A rebuilt RS serves the port once the old server is closed; a
    connection opened before the close must not reach the old RS, or one
    ticket leaves two ratings in the shared log."""
    log = tmp_path / "ratings.log"
    stack = make_stack(5, rs_kwargs={"rating_log": log})
    agent = stack.new_agent("w")
    (_, p1, c1), (_, p2, c2) = honest_chain(stack, agent), honest_chain(stack, agent)
    server_a = SocketServer(full_router(stack))
    early = SocketTransport(server_a.host, server_a.port)
    assert isinstance(RsClient(early).submit_rating(p1, c1), Ack)
    server_a.close()

    rs_b = ReputationSystem(stack.rs.rs_id, rating_log=log)
    rs_b.configure_groups(stack.pca.group_registry())
    server_b = SocketServer(Router(rs=rs_b), port=server_a.port)
    late = SocketTransport(server_b.host, server_b.port)
    try:
        with pytest.raises(OSError):
            RsClient(early).submit_rating(p2, c2)
        assert isinstance(RsClient(late).submit_rating(p2, c2), Ack)
    finally:
        early.close()
        late.close()
        server_b.close()
    assert len(read_records(log)) == 2
    assert ReputationSystem(stack.rs.rs_id, rating_log=log).spent_count == 2


def test_socket_transport_reconnects_after_the_server_drops_it():
    router = full_router(make_stack(1))
    listener = socket.create_server(("127.0.0.1", 0))
    served = []

    def one_frame_per_connection():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                frame = _read_frame(conn)
                served.append(frame)
                _write_frame(conn, router.handle(frame))

    thread = threading.Thread(target=one_frame_per_connection, daemon=True)
    thread.start()
    transport = SocketTransport(*listener.getsockname()[:2])
    frame = encode_request("rs/score", {"subject": "x"}, b"\x01")
    try:
        assert decode_response(transport.request(frame))[2] == "ok"
        # the server dropped that connection: one request fails, and it is
        # not sent again on a new one
        with pytest.raises(OSError):
            transport.request(frame)
        assert decode_response(transport.request(frame))[2] == "ok"
        assert len(served) == 2
    finally:
        transport.close()
        listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_close_under_load_returns_after_the_last_request():
    router = full_router(make_stack(1))
    handled = []

    class CountingRouter:
        def handle(self, data: bytes) -> bytes:
            response = router.handle(data)
            handled.append(1)
            return response

    server = SocketServer(CountingRouter())
    frame = encode_request("rs/score", {"subject": "x"}, b"\x01")
    failures = []

    def client():
        transport = SocketTransport(server.host, server.port)
        try:
            while True:
                transport.request(frame)
        except OSError as exc:
            failures.append(exc)
        finally:
            transport.close()

    clients = [threading.Thread(target=client, daemon=True) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in clients:
            thread.start()
        deadline = time.monotonic() + 10
        while len(handled) < 200 and time.monotonic() < deadline:
            time.sleep(0.001)
        server.close()
        handled_at_close = len(handled)
        for thread in clients:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert handled_at_close >= 200
    assert not any(thread.is_alive() for thread in clients)
    assert len(failures) == len(clients)
    assert len(handled) == handled_at_close


def test_rs_submit_frames_with_tampered_chains_never_ack():
    """Received credentials are checked against the bytes they arrived as:
    every field mutant, and chain bytes with one bit flipped spliced into an
    honest frame, is a reject or a protocol error."""
    stack = make_stack(201)
    agent = stack.new_agent("m")
    _, payload, chain = honest_chain(stack, agent, subject="target", score=5)
    router = Router(rs=stack.rs)

    def submit(frame: bytes) -> dict:
        _, _, status, out = decode_response(router.handle(frame))
        return out if status == "ok" else {"status": "error", "code": out["code"]}

    def frame_of(chain_bytes: bytes) -> bytes:
        return encode_request("rs/submit", {"payload": payload.canonical_bytes(), "chain": chain_bytes}, b"c")

    for slot, fieldname, mode, mutant in all_single_field_mutants(chain):
        out = submit(frame_of(mutant.to_bytes()))
        assert (out["status"], out["reason"]) == ("reject", "invalid-chain"), (slot, fieldname, mode)

    blob = chain.to_bytes()
    honest = frame_of(blob)
    assert honest.count(blob) == 1
    rng = random.Random(778)
    outcomes = set()
    for _ in range(400):
        flipped = bytearray(blob)
        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        out = submit(honest.replace(blob, bytes(flipped)))
        outcome = (out["status"], out.get("reason", out.get("code")))
        assert outcome in {("reject", "invalid-chain"), ("error", "protocol-error")}, outcome
        outcomes.add(outcome)
    assert len(outcomes) == 2
    assert submit(honest)["status"] == "ack"


def test_interleaved_socket_submissions_get_their_own_receipts():
    """Each connection is served on its own thread, and each chain is parsed
    from its own bytes, so one client's chain never lends bytes to another's."""
    stack = make_stack(6)
    work = []
    for name in ("a", "b"):
        agent = stack.new_agent(name)
        submissions = []
        for i in range(12):
            ticket = agent.acquire_ticket(1 + i % 3)
            payload = agent.make_payload(f"seller-{i % 4}", 1 + i % 5, comment="\u00e9" * i)
            submissions.append((payload, agent.build_chain(ticket, payload)))
        work.append(submissions)
    server = SocketServer(Router(rs=stack.rs))
    results = [[], []]

    def client(k: int) -> None:
        transport = SocketTransport(server.host, server.port)
        try:
            for payload, chain in work[k]:
                results[k].append((chain, RsClient(transport).submit_rating(payload, chain)))
        finally:
            transport.close()

    threads = [threading.Thread(target=client, args=(k,)) for k in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        server.close()
    assert [len(r) for r in results] == [12, 12]
    for chain, result in results[0] + results[1]:
        assert isinstance(result, Ack)
        assert result.receipt == sha256_hex(chain.to_bytes())


def test_submit_without_group_keys_is_an_invalid_chain():
    """No group keys is an empty registry, not a reason of its own: an honest
    chain is an unknown group, and a forged one is still a bad signature."""
    stack = make_stack(7)
    _, payload, chain = honest_chain(stack, stack.new_agent("g"))
    bare = ReputationSystem(stack.rs.rs_id)
    forged = replace(chain, "rating", mutate_credential(chain.rating_cred, "sig"))
    client = RsClient(InprocTransport(Router(rs=bare)))
    for submitted, detail in ((chain, "unknown-group"), (forged, "bad-signature")):
        expected = Reject("invalid-chain", detail=detail)
        assert bare.submit_rating(payload, submitted) == expected
        assert client.submit_rating(payload, submitted) == expected
    assert bare.spent_count == 0
