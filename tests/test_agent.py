import random
from pathlib import Path

import pytest

from pseudorate import crypto, encoding
from pseudorate.agent import STATE_FRESH, STATE_SPENT, TicketDenied, TrustedAgent
from pseudorate.reputation import Ack, Reject
from pseudorate.scenario import ScenarioConfig, run_scenario
from pseudorate.tpm import TpmInstance
from pseudorate.wire import InprocTransport, PcaClient, Router, RsClient, decode_request

from support import certify_fresh_key, count_calls, make_stack, patch_everywhere, raises_code

# body fields each endpoint is allowed to carry, per docs/FORMATS.md;
# anything extra would be platform state sneaking out of the agent
ALLOWED_REQUEST_FIELDS = {
    "pca/register": {"ek_public", "user_account"},
    "pca/request": {"aik_public", "group", "platform_id"},
    "pca/complete": {"nonce", "signature"},
    "rs/submit": {"payload", "chain"},
    "rs/score": {"subject"},
}


class FaultyTransport:
    """Raises at the n-th request to model a dropped connection."""

    def __init__(self, inner, fail_at: int):
        self.inner = inner
        self.fail_at = fail_at
        self.count = 0

    def request(self, data):
        self.count += 1
        if self.count == self.fail_at:
            raise ConnectionError("injected fault")
        return self.inner.request(data)


def wired_agent(stack, seed=1, tap=None, pca_transport=None, rs_transport=None):
    router = Router(pca=stack.pca, rs=stack.rs, cp=stack.cp)
    default = InprocTransport(router, tap=tap)
    agent = TrustedAgent(
        TpmInstance(rng=random.Random(seed)),
        PcaClient(pca_transport or default),
        RsClient(rs_transport or default),
        user_account="acct-wired",
        rs_id=stack.rs.rs_id,
        rng=random.Random(seed + 1),
    )
    stack.cp.open_account("acct-wired", 10_000)
    return agent


def test_acquire_and_redeem_through_wire():
    stack = make_stack(1)
    agent = wired_agent(stack)
    agent.register()
    ticket = agent.acquire_ticket(2)
    assert ticket.state == STATE_FRESH
    assert stack.pca.group_registry()[2][0] == ticket.credential.issuer_public
    result = agent.redeem_ticket(ticket, agent.make_payload("seller", 5))
    assert isinstance(result, Ack)
    assert ticket.state == STATE_SPENT


def test_build_chain_builds_one_key_object(monkeypatch):
    stack = make_stack(4)
    agent = stack.new_agent("k")
    ticket = agent.acquire_ticket(1)
    payload = agent.make_payload("seller", 3)
    calls = count_calls(monkeypatch, crypto, ["signing_pair", "generate_keypair"])
    chain = agent.build_chain(ticket, payload)
    assert calls == {"signing_pair": 1, "generate_keypair": 1}
    assert isinstance(stack.rs.submit_rating(payload, chain), Ack)


def test_wire_redemption_encodes_at_most_five_times_and_decodes_each_input_once(monkeypatch):
    """The chain and the payload travel as their own bytes: each is parsed by
    its own decode, each frame by one decode_head of its body, and no byte is
    parsed as structure twice."""
    stack = make_stack(5)
    tap = []
    agent = wired_agent(stack, tap=tap)
    agent.register()
    ticket = agent.acquire_ticket(1)
    tap.clear()
    calls = count_calls(monkeypatch, encoding, ["encode"])
    decode, decode_head, decoded = encoding.decode, encoding.decode_head, []
    patch_everywhere(monkeypatch, decode, lambda data, *spans: decoded.append(data) or decode(data, *spans))
    patch_everywhere(monkeypatch, decode_head, lambda data, *at: decoded.append(data) or decode_head(data, *at))
    assert isinstance(agent.redeem_ticket(ticket, agent.make_payload("seller", 4)), Ack)
    assert calls["encode"] <= 5
    (_, request), (_, response) = tap
    body = decode(request)["body"]
    assert decoded == [request, body["chain"], body["payload"], response]


def test_built_chain_keeps_the_bodies_it_signed(monkeypatch):
    stack = make_stack(6)
    agent = stack.new_agent("b")
    ticket = agent.acquire_ticket(1)
    chain = agent.build_chain(ticket, agent.make_payload("seller", 2))
    calls = count_calls(monkeypatch, encoding, ["encode"])
    spliced = chain.to_bytes()
    assert calls["encode"] == 0
    assert spliced == encoding.encode(chain.to_record())
    for cred in (chain.rating_cred, chain.csk_cred):
        expected = encoding.encode({"entity": cred.entity, "issuer": cred.issuer_public, "meta": dict(cred.meta)})
        assert vars(cred)["body"] == expected

    calls.clear()
    config = ScenarioConfig.from_json_file(Path(__file__).resolve().parent.parent / "scenarios" / "basic.json")
    run_scenario(config)
    # the final scores' read of seller-main repeats the script's, and encodes nothing
    assert calls["encode"] == 22


def test_wallet_consistent_with_platform_module():
    stack = make_stack(2)
    agent = wired_agent(stack)
    agent.register()
    for group in (1, 2, 3):
        agent.acquire_ticket(group)
    for ticket in agent.tickets:
        # the handle certifies, so it is activated, and it certifies as the ticket's identity key
        assert certify_fresh_key(agent.tpm, ticket.aik_handle).issuer_public == ticket.credential.entity


def test_acquire_before_register_fails_before_any_message():
    tap = []
    agent = wired_agent(make_stack(1), tap=tap)
    with raises_code("unregistered-platform"):
        agent.acquire_ticket(1)
    assert (tap, agent.tickets) == ([], [])


def test_denied_propagates_and_wallet_unchanged():
    stack = make_stack(1)
    agent = wired_agent(stack)
    agent.register()
    stack.pca.blacklist(agent.platform_id, True)
    with pytest.raises(TicketDenied) as excinfo:
        agent.acquire_ticket(1)
    assert excinfo.value.reason == "blacklisted"
    assert agent.tickets == []


def test_redeem_same_ticket_twice_rejected_remotely():
    stack = make_stack(1)
    agent = wired_agent(stack)
    agent.register()
    ticket = agent.acquire_ticket(1)
    assert isinstance(agent.redeem_ticket(ticket, agent.make_payload("s", 4)), Ack)
    second = agent.redeem_ticket(ticket, agent.make_payload("s", 2))
    assert isinstance(second, Reject)
    assert second.reason == "double-spend"


def test_reject_leaves_ticket_fresh():
    stack = make_stack(1, rs_id="rs-a")
    agent = wired_agent(stack)
    agent.rs_id = "rs-elsewhere"  # misconfigured client
    agent.register()
    ticket = agent.acquire_ticket(1)
    result = agent.redeem_ticket(ticket, agent.make_payload("s", 4))
    assert isinstance(result, Reject) and result.reason == "wrong-rs"
    assert ticket.state == STATE_FRESH


def test_direct_identity_signing_fails_before_any_message():
    stack = make_stack(1)
    tap = []
    agent = wired_agent(stack, tap=tap)
    agent.register()
    ticket = agent.acquire_ticket(1)
    messages_before = len(tap)
    payload = agent.make_payload("seller", 5)
    with raises_code("forbidden-aik-signing"):
        agent.tpm.sign_with_key(ticket.aik_handle, payload.canonical_bytes())
    assert len(tap) == messages_before  # nothing left the platform


def test_acquisition_fault_injection_at_every_boundary():
    """Acquisition speaks 2 request/response pairs; drop each in turn."""
    for fail_at in (1, 2):
        stack = make_stack(10 + fail_at)
        router = Router(pca=stack.pca, rs=stack.rs, cp=stack.cp)
        flaky = FaultyTransport(InprocTransport(router), fail_at=0)
        agent = TrustedAgent(
            TpmInstance(rng=random.Random(3)),
            PcaClient(flaky),
            RsClient(InprocTransport(router)),
            user_account="acct-f",
            rs_id=stack.rs.rs_id,
            rng=random.Random(4),
        )
        stack.cp.open_account("acct-f", 1000)
        agent.register()
        flaky.fail_at = flaky.count + fail_at  # arm after registration
        wallet_before = list(agent.tickets)
        with pytest.raises(ConnectionError):
            agent.acquire_ticket(1)
        assert agent.tickets == wallet_before  # clean failure, no half-ticket
        ticket = agent.acquire_ticket(1)  # retry succeeds
        assert [t for t in agent.tickets if t.state == STATE_FRESH] == [ticket]
        assert certify_fresh_key(agent.tpm, ticket.aik_handle).issuer_public == ticket.credential.entity


def test_redemption_fault_keeps_wallet_pre_state():
    stack = make_stack(20)
    router = Router(pca=stack.pca, rs=stack.rs, cp=stack.cp)
    flaky = FaultyTransport(InprocTransport(router), fail_at=1)
    agent = TrustedAgent(
        TpmInstance(rng=random.Random(5)),
        PcaClient(InprocTransport(router)),
        RsClient(flaky),
        user_account="acct-r",
        rs_id=stack.rs.rs_id,
        rng=random.Random(6),
    )
    stack.cp.open_account("acct-r", 1000)
    agent.register()
    ticket = agent.acquire_ticket(1)
    with pytest.raises(ConnectionError):
        agent.redeem_ticket(ticket, agent.make_payload("s", 3))
    assert ticket.state == STATE_FRESH


def test_an_acquired_ticket_redeems_and_is_spent():
    stack = make_stack(1)
    agent = wired_agent(stack)
    agent.register()
    result = agent.redeem_ticket(agent.acquire_ticket(1), agent.make_payload("seller", 4))
    assert isinstance(result, Ack)
    assert len(agent.tickets) == 1 and agent.tickets[0].state == STATE_SPENT


def test_agent_messages_carry_only_schema_fields():
    """No platform state, measurement logs, or extra fields ever leave the
    agent; requests contain exactly the documented fields."""
    stack = make_stack(1)
    tap = []
    agent = wired_agent(stack, tap=tap)
    agent.register()
    ticket = agent.acquire_ticket(1)
    agent.redeem_ticket(ticket, agent.make_payload("seller", 5))
    sends = [frame for direction, frame in tap if direction == "send"]
    assert sends, "expected traffic"
    for frame in sends:
        endpoint, body, _ = decode_request(frame)
        assert endpoint in ALLOWED_REQUEST_FIELDS
        assert set(body) == ALLOWED_REQUEST_FIELDS[endpoint]
