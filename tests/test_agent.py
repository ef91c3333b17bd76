import random
from pathlib import Path

import pytest

from pseudorate import crypto, encoding, reputation, wire
from pseudorate.agent import STATE_FRESH, STATE_SPENT, TicketDenied, TrustedAgent
from pseudorate.reputation import Ack, Reject
from pseudorate.scenario import ScenarioConfig, run_scenario
from pseudorate.tpm import TpmInstance
from pseudorate.wire import InprocTransport, PcaClient, Router, RsClient, decode_request

from support import certify_fresh_key, chain_record, count_calls, make_stack, patch_everywhere, raises_code

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


def test_wire_redemption_encodes_nothing_generic_and_decodes_each_input_once(monkeypatch):
    """The chain and the payload travel as their own bytes: the request frame
    is read by one pass of its route's shape, the payload by one pass of its
    shape, the chain by one pass of the credential reader and the ack by one
    pass of its shape, and no generic decode repeats them, so no byte is
    parsed as structure twice. Every record on the way is spliced, so the
    generic encoder never runs."""
    stack = make_stack(5)
    tap = []
    agent = wired_agent(stack, tap=tap)
    agent.register()
    ticket = agent.acquire_ticket(1)
    tap.clear()
    calls = count_calls(monkeypatch, encoding, ["encode"])
    decode, decode_head, read_all, parsed = encoding.decode, encoding.decode_head, encoding.read_all, []
    patch_everywhere(monkeypatch, decode, lambda data: parsed.append(("decode", data)) or decode(data))
    patch_everywhere(
        monkeypatch, decode_head, lambda data, *at: parsed.append(("decode_head", data)) or decode_head(data, *at)
    )
    # the router cuts a request frame by its route's shape, and a client its ok answer
    # by its route's reader, each in place; read_all hands the payload to its reader
    recorders, labels = set(), {reputation._cut_payload: "payload"}

    def recording(label, cut):
        def recorder(data, pos):
            parsed.append((label, data))
            return cut(data, pos)

        recorders.add(recorder)
        return recorder

    for endpoint, (_, shape, _) in wire.ROUTES.items():
        monkeypatch.setattr(shape, "cut", recording(endpoint, shape.cut))
    for endpoint, cut in wire._OK_ANSWERS.items():
        monkeypatch.setitem(wire._OK_ANSWERS, endpoint, recording(f"{endpoint} answer", cut))

    def reads_all(data, cut):
        if cut not in recorders:  # a recorder records itself
            parsed.append((labels.get(cut, cut.__name__), data))
        return read_all(data, cut)

    patch_everywhere(monkeypatch, read_all, reads_all)
    assert isinstance(agent.redeem_ticket(ticket, agent.make_payload("seller", 4)), Ack)
    assert calls["encode"] == 0
    (_, request), (_, response) = tap
    body = decode(request)["body"]
    assert parsed == [
        ("rs/submit", request),
        ("_cut_chain", body["chain"]),
        ("payload", body["payload"]),
        ("rs/submit answer", response),
    ]


def test_a_log_free_cycle_never_calls_the_generic_encoder(monkeypatch):
    """One acquisition, one redemption and two score reads, in process and
    with no log: every record on the way, each request and ok response body
    among them, is spliced, so the generic encoder never runs."""
    stack = make_stack(7, charging="acquisition")
    agent = wired_agent(stack)
    rs = RsClient(InprocTransport(Router(rs=stack.rs)))
    agent.register()
    calls = count_calls(monkeypatch, encoding, ["encode"])
    ticket = agent.acquire_ticket(1)
    assert isinstance(agent.redeem_ticket(ticket, agent.make_payload("seller", 4)), Ack)
    assert [rs.score("seller"), rs.score("seller")] == [(1, "4"), (1, "4")]
    assert calls["encode"] == 0


def logged_cycle(tmp_path, charging: str, counted) -> None:
    """One acquisition, one redemption and two score reads over a stack whose
    three services log to ``tmp_path``; ``counted()`` starts the count once
    the platform and its account are set up."""
    stack = make_stack(
        7,
        charging=charging,
        pca_kwargs={"issuance_log": tmp_path / "pca.log"},
        cp_kwargs={"ledger_log": tmp_path / "cp.log"},
        rs_kwargs={"rating_log": tmp_path / "rs.log"},
    )
    agent = wired_agent(stack)
    rs = RsClient(InprocTransport(Router(rs=stack.rs)))
    agent.register()
    counted()
    ticket = agent.acquire_ticket(1)
    assert isinstance(agent.redeem_ticket(ticket, agent.make_payload("seller", 4)), Ack)
    assert [rs.score("seller"), rs.score("seller")] == [(1, "4"), (1, "4")]
    # the cycle's issue, charge and rating records read back as the generic decoder reads them
    issue, charge, rating = encoding.read_records(tmp_path / "pca.log")[-1], *(
        encoding.read_records(tmp_path / name)[-1] for name in ("cp.log", "rs.log")
    )
    assert (issue["kind"], charge["kind"], charge["phase"]) == ("issue", "charge", charging)
    assert charge["ref"] == issue["charge_ref"] and rating["aik_digest"] == issue["aik_digest"]
    assert rating["payload"]["subject"] == "seller"


@pytest.mark.parametrize("charging", ["acquisition", "ex_post"])
def test_a_logged_cycle_never_calls_the_generic_encoder(monkeypatch, tmp_path, charging):
    """The issue, charge and rating records a logged cycle appends are spliced."""
    counts = []
    logged_cycle(tmp_path, charging, lambda: counts.append(count_calls(monkeypatch, encoding, ["encode"])))
    assert counts[0]["encode"] == 0


@pytest.mark.parametrize("charging", ["acquisition", "ex_post"])
def test_the_clients_read_no_ok_answer_generically(monkeypatch, tmp_path, charging):
    """Each ok answer of the cycle is read at its fixed keys, not by decode_response."""
    counts = []
    logged_cycle(tmp_path, charging, lambda: counts.append(count_calls(monkeypatch, wire, ["decode_response"])))
    assert counts[0]["decode_response"] == 0


@pytest.mark.parametrize("charging", ["acquisition", "ex_post"])
def test_the_router_reads_no_request_of_the_cycle_generically(monkeypatch, tmp_path, charging):
    """Each request of the cycle is read at its route's fixed keys, not by decode_request."""
    counts = []
    logged_cycle(tmp_path, charging, lambda: counts.append(count_calls(monkeypatch, wire, ["decode_request"])))
    assert counts[0]["decode_request"] == 0


def test_built_chain_keeps_the_bodies_it_signed(monkeypatch):
    stack = make_stack(6)
    agent = stack.new_agent("b")
    ticket = agent.acquire_ticket(1)
    chain = agent.build_chain(ticket, agent.make_payload("seller", 2))
    calls = count_calls(monkeypatch, encoding, ["encode"])
    spliced = chain.to_bytes()
    assert calls["encode"] == 0
    assert spliced == encoding.encode(chain_record(chain))
    for cred in (chain.rating_cred, chain.csk_cred):
        expected = encoding.encode({"entity": cred.entity, "issuer": cred.issuer_public, "meta": dict(cred.meta)})
        assert vars(cred)["body"] == expected

    calls.clear()
    config = ScenarioConfig.from_json_file(Path(__file__).resolve().parent.parent / "scenarios" / "basic.json")
    run_scenario(config)
    # the final scores' read of seller-main repeats the script's, and encodes nothing; the
    # five left are the ok bodies of pca/register, rs/admin/groups, cp/policy and
    # cp/balance, and the group table the rs/admin/groups request carries
    assert calls["encode"] == 5


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
