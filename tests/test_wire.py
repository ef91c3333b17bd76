import random
import socket
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudorate.charging import PricingPolicy
from pseudorate.crypto import key_id_of, sha256_hex
from pseudorate.encoding import decode, encode
from pseudorate.encoding import read_records
from pseudorate.reputation import Ack, Reject, ReputationSystem
from pseudorate.wire import (
    CpClient,
    InprocTransport,
    PcaClient,
    ROUTES,
    Router,
    RsClient,
    SocketServer,
    SocketTransport,
    WireError,
    _read_frame,
    _write_frame,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)

from support import TOKEN, all_single_field_mutants, honest_chain, make_stack, raises_code


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
    "cp/charge:unknown-account": lambda cp, a, b: cp.charge(b.user_account, 1, group=1, phase="acquisition"),
    "cp/charge:invalid-argument": lambda cp, a, b: cp.charge(a.user_account, 1, group=1, phase="later"),
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

    def frame_of(chain_record: dict) -> bytes:
        return encode_request("rs/submit", {"payload": payload.to_record(), "chain": chain_record}, b"c")

    for slot, fieldname, mode, mutant in all_single_field_mutants(chain):
        out = submit(frame_of(mutant.to_record()))
        assert (out["status"], out["reason"]) == ("reject", "invalid-chain"), (slot, fieldname, mode)

    honest = frame_of(chain.to_record())
    blob = chain.to_bytes()
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
    """Each connection is served on its own thread; spans are per decode
    call, so one client's chain never lends bytes to another's."""
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
    stack = make_stack(7)
    _, payload, chain = honest_chain(stack, stack.new_agent("g"))
    bare = ReputationSystem(stack.rs.rs_id)
    expected = Reject("invalid-chain", detail="unknown-group")
    assert bare.submit_rating(payload, chain) == expected
    assert RsClient(InprocTransport(Router(rs=bare))).submit_rating(payload, chain) == expected
    assert bare.spent_count == 0
