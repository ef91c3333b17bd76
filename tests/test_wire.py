from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudorate.charging import PricingPolicy
from pseudorate.crypto import key_id_of
from pseudorate.encoding import decode, encode
from pseudorate.reputation import Ack
from pseudorate.wire import (
    CpClient,
    InprocTransport,
    PcaClient,
    ROUTES,
    Router,
    RsClient,
    ServiceFault,
    SocketServer,
    SocketTransport,
    WireError,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)

from support import TOKEN, make_stack


def full_router(stack):
    return Router(pca=stack.pca, rs=stack.rs, cp=stack.cp)


def clients(transport):
    return PcaClient(transport), RsClient(transport), CpClient(transport)


def test_request_frame_round_trip():
    frame = encode_request("pca/register", {"a": 1}, b"\x00\x01")
    assert decode_request(frame) == ("pca/register", {"a": 1}, b"\x00\x01")


def test_unknown_version_rejected():
    frame = encode(
        {"version": 2, "endpoint": "x", "correlation_id": b"", "body": {}}
    )
    with pytest.raises(WireError) as excinfo:
        decode_request(frame)
    assert excinfo.value.code == "unsupported-version"


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
    if fields is None:  # cp/policy: an empty body reads, only {"policy": dict} sets
        bad_bodies = [{"x": 1}, {"policy": 7}, {"policy": {}, "x": 1}]
    else:
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
@settings(max_examples=150)
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


@given(
    st.dictionaries(
        st.sampled_from(["payload", "chain", "subject", "x"]),
        st.recursive(
            st.integers(-5, 5) | st.binary(max_size=8) | st.text(max_size=4),
            lambda c: st.dictionaries(st.text(max_size=3), c, max_size=3),
            max_leaves=6,
        ),
        max_size=3,
    )
)
@settings(max_examples=100)
def test_submission_endpoint_total_over_fuzzed_records(body):
    stack = test_submission_endpoint_total_over_fuzzed_records.stack
    router = test_submission_endpoint_total_over_fuzzed_records.router
    response = router.handle(encode_request("rs/submit", body, b"c"))
    _, _, status, out = decode_response(response)
    # no fuzzed submission crashes, and none is ever accepted
    assert status in ("ok", "error")
    if status == "ok":
        assert out["status"] == "reject"


test_submission_endpoint_total_over_fuzzed_records.stack = make_stack(2)
test_submission_endpoint_total_over_fuzzed_records.router = Router(
    rs=test_submission_endpoint_total_over_fuzzed_records.stack.rs
)


def test_error_codes_surface_through_clients():
    stack = make_stack(1)
    pca_client, rs_client, cp_client = clients(InprocTransport(full_router(stack)))
    with pytest.raises(ServiceFault) as excinfo:
        cp_client.balance("ghost")
    assert excinfo.value.code == "unknown-account"
    with pytest.raises(ServiceFault) as excinfo:
        pca_client.resolve_identity("00" * 32, "bad-token")
    assert excinfo.value.code == "forbidden"


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


def test_groups_admin_endpoint():
    stack = make_stack(1)
    rs_client = RsClient(InprocTransport(Router(rs=stack.rs)))
    registry = {g: (pub, impact) for g, (pub, impact) in stack.pca.group_registry().items()}
    assert rs_client.configure_groups(registry) == 3


def test_socket_transport_matches_inproc_bytes():
    stack_a = make_stack(7)
    stack_b = make_stack(7)
    inproc = InprocTransport(full_router(stack_a))
    server = SocketServer(full_router(stack_b))
    socket_transport = SocketTransport(server.host, server.port)
    try:
        for endpoint, body in [
            ("rs/score", {"subject": "nobody"}),
            ("cp/policy", {}),
            ("pca/blacklist", {"platform_id": "zz", "flag": 1}),
        ]:
            frame = encode_request(endpoint, body, b"\x01")
            assert inproc.request(frame) == socket_transport.request(frame)
    finally:
        socket_transport.close()
        server.close()


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
