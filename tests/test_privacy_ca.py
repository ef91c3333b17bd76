import random
import sys
import threading
from fractions import Fraction

import pytest

from pseudorate import crypto
from pseudorate.agent import TrustedAgent
from pseudorate.charging import ChargingProvider, PricingPolicy, price
from pseudorate.clock import SimClock
from pseudorate.encoding import append_record, read_records
from pseudorate.errors import InvalidArgument, TicketError, UnknownGroup
from pseudorate.privacy_ca import CHALLENGE_TTL, Challenge, DeniedRequest, GroupConfig, PrivacyCa
from pseudorate.reputation import ReputationSystem
from pseudorate.tpm import TpmInstance
from pseudorate.wire import CpClient, InprocTransport, PcaClient, Router

from support import NEUTRAL, NEUTRAL_FORGERY, TOKEN, make_stack, raises_code


def test_group_table_must_be_dense_and_positive():
    with pytest.raises(InvalidArgument):
        PrivacyCa({2: GroupConfig(Fraction(1))})
    with pytest.raises(InvalidArgument):
        PrivacyCa({1: GroupConfig(Fraction(0))})
    with pytest.raises(InvalidArgument):
        PrivacyCa({})


def test_the_pricing_keyword_is_only_the_providers_own_policy():
    """The provider's published policy is the one price: the authority keeps
    none, and takes ``pricing`` only as the provider's own policy or none."""
    groups = {1: GroupConfig(Fraction(1))}
    stack = make_stack(1, policy=PricingPolicy.flat({1: 100, 2: 100, 3: 100}))
    accepted = [
        {},
        {"pricing": None},
        {"pricing": stack.cp.policy},
        {"pricing": PricingPolicy.flat({1: 100, 2: 100, 3: 100})},  # equal to it
    ]
    refused = [
        {"pricing": PricingPolicy.flat({1: 70})},
        {"pricing": PricingPolicy.free(), "charging": None},  # a price with no provider to own it
    ]
    for keywords in accepted:
        PrivacyCa(groups, **{"charging": stack.cp, "charge_phases": ("acquisition",), **keywords})
    for keywords in refused:
        with raises_code("invalid-argument"):
            PrivacyCa(groups, **{"charging": stack.cp, "charge_phases": ("acquisition",), **keywords})


def test_authority_charges_only_at_acquisition():
    """Ex-post charges reach the authority through charge_for_ticket only, so
    acquisition is the one phase it may be built to charge in."""
    groups = {1: GroupConfig(Fraction(1))}
    PrivacyCa(groups, charging=ChargingProvider(SimClock()), charge_phases=("acquisition",))
    for phases in (("ex_post",), ("acquisition", "ex_post"), ("later",)):
        with pytest.raises(InvalidArgument):
            PrivacyCa(groups, charge_phases=phases)


@pytest.mark.parametrize(
    "phases, error",
    [
        pytest.param(("ex_post",), "the authority charges only at acquisition, not 'ex_post'", id="ex_post"),
        pytest.param(  # else its tickets would be issued free
            ("acquisition",), "charging at acquisition needs a charging provider", id="acquisition-with-no-provider"
        ),
    ],
)
def test_an_authority_refused_for_its_charge_phases_reads_no_log(phases, error, tmp_path):
    """With no provider, acquisition is refused too; the phases are checked
    before the issuance log is read, so its torn last line is not cut."""
    log = tmp_path / "pca-issuance.log"
    log.write_bytes(b"torn")
    with raises_code("invalid-argument") as excinfo:
        PrivacyCa({1: GroupConfig(Fraction(1))}, rng=random.Random(0), charge_phases=phases, issuance_log=log)
    assert str(excinfo.value) == error
    assert log.read_bytes() == b"torn"


def test_an_authority_refused_for_want_of_its_rng_reads_no_log(tmp_path):
    """A log that holds bytes needs the rng its group keys came from; that
    is checked before the log is read, so its torn last line is not cut."""
    log = tmp_path / "pca-issuance.log"
    append_record(log, {"kind": "register", "platform_id": "p", "ek_public": bytes(32), "user_account": "acct"})
    with open(log, "ab") as handle:
        handle.write(b"torn")
    before = log.read_bytes()
    with raises_code("invalid-argument") as excinfo:
        PrivacyCa({1: GroupConfig(Fraction(1))}, issuance_log=log)
    assert str(excinfo.value) == "an authority rebuilt from its issuance log must be given its rng"
    assert log.read_bytes() == before


def test_register_and_duplicate():
    stack = make_stack(1)
    tpm = TpmInstance()
    platform_id = stack.pca.register_platform(tpm.ek_public, "acct-x")
    assert platform_id == crypto.sha256_hex(tpm.ek_public)
    with raises_code("duplicate-ek"):
        stack.pca.register_platform(tpm.ek_public, "acct-x")
    other = TpmInstance()
    assert stack.pca.register_platform(other.ek_public, "acct-y") != platform_id


def test_request_unregistered_platform():
    stack = make_stack(1)
    with raises_code("unregistered-platform"):
        stack.pca.request_credential(b"k" * 32, 1, "nope")


def test_request_unknown_group():
    stack = make_stack(1, group_count=3)
    agent = stack.new_agent("a")
    handle, public = agent.tpm.make_identity()
    with pytest.raises(UnknownGroup):
        stack.pca.request_credential(public, 4, agent.platform_id)


def test_blacklisted_platform_denied_without_handshake():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    stack.pca.blacklist(agent.platform_id, True)
    _, public = agent.tpm.make_identity()
    result = stack.pca.request_credential(public, 1, agent.platform_id)
    assert isinstance(result, DeniedRequest)
    assert result.reason == "blacklisted"
    # authorization ordering: nothing pending, so no handshake can complete
    assert stack.pca._pending == {}
    stack.pca.blacklist(agent.platform_id, False)
    assert isinstance(stack.pca.request_credential(public, 1, agent.platform_id), Challenge)


def test_full_issuance_yields_group_credential():
    stack = make_stack(1, group_count=3)
    agent = stack.new_agent("a")
    handle, public = agent.tpm.make_identity()
    challenge = stack.pca.request_credential(public, 2, agent.platform_id)
    signature = agent.tpm.sign_issuance_nonce(handle, challenge.nonce)
    blob = stack.pca.complete_handshake(challenge.nonce, signature)
    credential = agent.tpm.activate_identity(handle, blob)
    assert crypto.verify_credential(credential)
    registry = stack.pca.group_registry()
    assert credential.issuer_public == registry[2][0]
    # verifies under exactly its own group key
    for gid, (pub, _) in registry.items():
        matches = pub == credential.issuer_public
        assert matches == (gid == 2)
    assert credential.meta["group"] == "2"


def test_handshake_nonce_single_use():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    handle, public = agent.tpm.make_identity()
    challenge = stack.pca.request_credential(public, 1, agent.platform_id)
    signature = agent.tpm.sign_issuance_nonce(handle, challenge.nonce)
    stack.pca.complete_handshake(challenge.nonce, signature)
    with raises_code("handshake-failed"):
        stack.pca.complete_handshake(challenge.nonce, signature)


def test_handshake_rejects_other_identitys_signature():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    handle, public = agent.tpm.make_identity()
    impostor_handle, _ = agent.tpm.make_identity()
    challenge = stack.pca.request_credential(public, 1, agent.platform_id)
    forged = agent.tpm.sign_issuance_nonce(impostor_handle, challenge.nonce)
    with raises_code("handshake-failed"):
        stack.pca.complete_handshake(challenge.nonce, forged)


def test_handshake_expiry():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    handle, public = agent.tpm.make_identity()
    challenge = stack.pca.request_credential(public, 1, agent.platform_id)
    stack.clock.advance(301)
    signature = agent.tpm.sign_issuance_nonce(handle, challenge.nonce)
    with raises_code("handshake-failed"):
        stack.pca.complete_handshake(challenge.nonce, signature)


def test_duplicate_identity_key_rejected():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    ticket = agent.acquire_ticket(1)
    public = ticket.credential.entity
    with raises_code("duplicate-aik"):
        stack.pca.request_credential(public, 1, agent.platform_id)


def test_resolve_identity_requires_token():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    ticket = agent.acquire_ticket(1)
    digest = crypto.key_id_of(ticket.credential.entity)
    record = stack.pca.resolve_identity(digest, TOKEN)
    assert record.platform_id == agent.platform_id
    assert record.user_account == agent.user_account
    with raises_code("forbidden"):
        stack.pca.resolve_identity(digest, "wrong-token")
    with raises_code("not-found"):
        stack.pca.resolve_identity("ff" * 32, TOKEN)


def test_identity_labels_are_per_issuance():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    t1, t2 = agent.acquire_ticket(1), agent.acquire_ticket(1)
    assert t1.credential.meta["label"] != t2.credential.meta["label"]


def test_credential_bytes_leak_nothing_linkable():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    ticket = agent.acquire_ticket(1)
    blob = ticket.credential.to_bytes()
    assert agent.platform_id.encode() not in blob
    assert agent.tpm.ek_public not in blob
    assert agent.user_account.encode() not in blob


def test_acquisition_charging_flat_and_free():
    stack = make_stack(1, policy=PricingPolicy.flat({1: 70, 2: 70, 3: 70}), charging="acquisition")
    agent = stack.new_agent("a")
    before = stack.cp.balance(agent.user_account)
    agent.acquire_ticket(1)
    assert before - stack.cp.balance(agent.user_account) == 70
    receipt = stack.cp.history(agent.user_account)[-1]
    assert receipt.amount == 70 and receipt.phase == "acquisition"

    free_stack = make_stack(2, policy=PricingPolicy.free(), charging="acquisition")
    free_agent = free_stack.new_agent("f")
    free_agent.acquire_ticket(1)
    assert free_stack.cp.history(free_agent.user_account)[-1].amount == 0
    assert free_stack.cp.balance(free_agent.user_account) == 10_000


def test_declined_charge_denies_issuance():
    stack = make_stack(3, policy=PricingPolicy.flat({1: 100, 2: 100, 3: 100}),
                       charging="acquisition", credit_limit=0)
    agent = stack.new_agent("broke", register=False)
    stack.cp.open_account(agent.user_account, 50)
    agent.register()
    _, public = agent.tpm.make_identity()
    result = stack.pca.request_credential(public, 1, agent.platform_id)
    assert isinstance(result, DeniedRequest)
    assert result.reason == "cp-declined"
    assert stack.pca._pending == {}
    assert stack.cp.balance(agent.user_account) == 50
    # the declined ticket must not inflate later price indices
    stack.cp._accounts[agent.user_account].balance = 10_000
    agent.acquire_ticket(1)
    assert [entry.amount for entry in stack.cp.history(agent.user_account)] == [100]


# each pricing kind charged at acquisition, with a balance that pays
# several tickets; reverse credits the account instead
PRICINGS = {
    "flat": PricingPolicy.flat({1: 100}),
    "increasing": PricingPolicy.increasing({1: 100}, step=10),
    "reverse": PricingPolicy.reverse(50),
}


def prove(agent, identity, challenge) -> bytes:
    """The possession proof for ``challenge`` by ``identity``, a (handle, public) pair."""
    return agent.tpm.sign_issuance_nonce(identity[0], challenge.nonce)


@pytest.mark.parametrize("kind", PRICINGS)
def test_abandoned_requests_move_no_money(kind):
    """A request only reads the ledger: challenges never answered neither
    drain the account nor, under reverse pricing, pay it. Once charged at
    request, 50 at flat 100 took 10000 to 5000, and 100 at reverse(50) took
    it to 15000, with no ticket issued. A credit for a ticket is now refused
    at the request itself, so under reverse no challenge is opened at all."""
    policy = PRICINGS[kind]
    stack = make_stack(8, group_count=1, policy=policy, charging="acquisition", credit_limit=0)
    agent = stack.new_agent("a")
    for _ in range(100 if kind == "reverse" else 50):
        public = agent.tpm.make_identity()[1]
        if kind == "reverse":
            with raises_code("invalid-argument"):
                stack.pca.request_credential(public, 1, agent.platform_id)
        else:
            assert isinstance(stack.pca.request_credential(public, 1, agent.platform_id), Challenge)
    assert stack.cp.balance(agent.user_account) == 10_000
    assert stack.cp.history(agent.user_account) == []
    assert stack.pca._tickets == {}
    assert len(stack.pca._pending) == (0 if kind == "reverse" else 50)
    if kind != "reverse":
        agent.acquire_ticket(1)  # the one ticket issued is the one charged, at the first price
        assert [e.amount for e in stack.cp.history(agent.user_account)] == [price(policy, 1, 0)]


@pytest.mark.parametrize("kind", PRICINGS)
@pytest.mark.parametrize("cause", ["expired", "bad-proof", "ticketed-meanwhile", "blacklisted-meanwhile"])
def test_a_failed_handshake_leaves_no_charge(cause, kind):
    """An expired challenge, a proof that does not verify, a second
    challenge for an identity key that got its ticket meanwhile, and a
    platform blacklisted since its request each fail at the commit before
    any draw, and leave the ledger holding exactly the issued tickets. The
    policy of ``kind`` is in force at that commit; a reverse one is set after
    the requests, since a request under it is refused."""
    policy = PRICINGS[kind]
    opening = PRICINGS["flat"] if kind == "reverse" else policy
    stack = make_stack(9, group_count=1, policy=opening, charging="acquisition", credit_limit=0)
    agent = stack.new_agent("a")
    identity = agent.tpm.make_identity()
    challenge = stack.pca.request_credential(identity[1], 1, agent.platform_id)
    proof = prove(agent, identity, challenge)
    if cause == "expired":
        stack.clock.advance(CHALLENGE_TTL + 1)
    elif cause == "bad-proof":
        proof = agent.tpm.sign_issuance_nonce(identity[0], b"another nonce")
    elif cause == "blacklisted-meanwhile":
        stack.pca.blacklist(agent.platform_id, True)
    else:
        first = stack.pca.request_credential(identity[1], 1, agent.platform_id)
        stack.pca.complete_handshake(first.nonce, prove(agent, identity, first))
    stack.cp.set_policy(policy)
    draws = []
    randbytes = stack.pca._randbytes
    stack.pca._randbytes = lambda n: draws.append(n) or randbytes(n)
    with raises_code("handshake-failed"):
        stack.pca.complete_handshake(challenge.nonce, proof)
    assert draws == []
    issued = len(stack.pca._tickets)
    assert issued == (cause == "ticketed-meanwhile")
    assert [e.amount for e in stack.cp.history(agent.user_account)] == [price(opening, 1, i) for i in range(issued)]
    assert stack.cp.balance(agent.user_account) == 10_000 - sum(price(opening, 1, i) for i in range(issued))


class ForgingTpm(TpmInstance):
    """A platform module that claims the neutral point as each identity key
    and answers each challenge with the forgery OpenSSL accepts under it."""

    def make_identity(self) -> tuple[int, bytes]:
        return super().make_identity()[0], NEUTRAL

    def sign_issuance_nonce(self, handle: int, nonce: bytes) -> bytes:
        return NEUTRAL_FORGERY


def test_a_small_order_identity_key_gets_no_ticket(verify_backend):
    """``pca/request`` for the neutral point, then ``pca/complete`` with a
    "proof" nobody signed, fails the handshake: nothing is charged, issued
    or kept in the wallet."""
    stack = make_stack(10, group_count=1, policy=PricingPolicy.flat({1: 100}), charging="acquisition")
    pca = PcaClient(InprocTransport(Router(pca=stack.pca)))
    agent = TrustedAgent(ForgingTpm(rng=random.Random(10)), pca, stack.rs, user_account="acct-forger", rs_id="rs-test")
    stack.cp.open_account(agent.user_account, 10_000)
    agent.register()
    with raises_code("handshake-failed"):
        agent.acquire_ticket(1)
    assert agent.tickets == []
    assert stack.pca._tickets == {}
    assert (stack.cp.history(agent.user_account), stack.cp.balance(agent.user_account)) == ([], 10_000)


@pytest.mark.parametrize("stage", ["request", "complete"])
def test_a_credit_never_pays_for_a_ticket(stage):
    """A reverse policy set through ``cp/admin/policy`` under acquisition
    charging, before a request or between a request and its commit, is
    refused where the authority reads the price, before any draw: no ticket,
    no credit. With the published policy as the price and no refusal, three
    acquisitions took the balance from 10000 to 10150."""
    stack = make_stack(10, group_count=1, policy=PricingPolicy.flat({1: 100}), charging="acquisition")
    agent = stack.new_agent("a")
    identity = agent.tpm.make_identity()
    if stage == "complete":
        challenge = stack.pca.request_credential(identity[1], 1, agent.platform_id)
    CpClient(InprocTransport(Router(cp=stack.cp))).set_policy(PricingPolicy.reverse(50))
    draws = []
    randbytes = stack.pca._randbytes
    stack.pca._randbytes = lambda n: draws.append(n) or randbytes(n)
    with raises_code("invalid-argument"):
        if stage == "request":
            stack.pca.request_credential(identity[1], 1, agent.platform_id)
        else:
            stack.pca.complete_handshake(challenge.nonce, prove(agent, identity, challenge))
    for _ in range(3):
        with raises_code("invalid-argument"):
            agent.acquire_ticket(1)
    assert draws == []
    assert stack.pca._tickets == {} and stack.pca._pending == {} and agent.tickets == []
    assert stack.cp.balance(agent.user_account) == 10_000
    assert stack.cp.history(agent.user_account) == []


@pytest.mark.parametrize("path", ["in-process", "wire"])
def test_a_ticket_declined_at_its_commit_is_not_issued(path, tmp_path):
    """Two requests on one account both pass the request's check; the first
    commit drains the account, so the second is declined at its own commit:
    ``cp-declined`` at ``pca/complete``, its challenge used up, no ticket, no
    issue record, and the next price unchanged."""
    policy = PricingPolicy.increasing({1: 100}, step=10)
    log = tmp_path / "pca-issuance.log"
    stack = make_stack(
        4, group_count=1, policy=policy, charging="acquisition", credit_limit=0, pca_kwargs={"issuance_log": log}
    )
    pca = stack.pca if path == "in-process" else PcaClient(InprocTransport(Router(pca=stack.pca)))
    agent = stack.new_agent("racer", register=False)
    stack.cp.open_account(agent.user_account, 150)
    agent.register()
    late, early = agent.tpm.make_identity(), agent.tpm.make_identity()
    late_challenge = pca.request_credential(late[1], 1, agent.platform_id)
    early_challenge = pca.request_credential(early[1], 1, agent.platform_id)
    assert isinstance(late_challenge, Challenge) and isinstance(early_challenge, Challenge)  # 150 pays either
    pca.complete_handshake(early_challenge.nonce, prove(agent, early, early_challenge))
    assert stack.cp.balance(agent.user_account) == 50
    before = log.read_bytes()
    with raises_code("cp-declined"):
        pca.complete_handshake(late_challenge.nonce, prove(agent, late, late_challenge))
    assert log.read_bytes() == before
    assert len(stack.pca._tickets) == 1
    assert [e.amount for e in stack.cp.history(agent.user_account)] == [100]
    with raises_code("handshake-failed"):  # the declined challenge is used up
        pca.complete_handshake(late_challenge.nonce, prove(agent, late, late_challenge))
    stack.cp._accounts[agent.user_account].balance = 10_000
    agent.acquire_ticket(1)
    assert [e.amount for e in stack.cp.history(agent.user_account)] == [100, price(policy, 1, 1)]


def test_racing_acquisitions_on_one_account_pay_for_exactly_the_issued_tickets():
    """More threads than cores race request and commit on one account that
    pays for 10 of their 24 tries. Whatever the interleaving, each ticket
    issued is charged once, nothing else is charged, and the balance never
    passes the credit limit."""
    stack = make_stack(12, group_count=1, policy=PricingPolicy.flat({1: 100}), charging="acquisition", credit_limit=0)
    agent = stack.new_agent("shared", register=False)
    stack.cp.open_account(agent.user_account, 1000)
    agent.register()
    declined = []

    def buy():
        for _ in range(6):
            identity = agent.tpm.make_identity()
            challenge = stack.pca.request_credential(identity[1], 1, agent.platform_id)
            if isinstance(challenge, DeniedRequest):
                declined.append(challenge.reason)
                continue
            try:
                stack.pca.complete_handshake(challenge.nonce, prove(agent, identity, challenge))
            except TicketError as exc:
                declined.append(exc.code)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=buy) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(stack.pca._tickets) == len(stack.cp.history(agent.user_account)) == 10
    assert stack.cp.balance(agent.user_account) == 0
    assert len(declined) == 14 and set(declined) == {"cp-declined"}


def test_a_rebuilt_authority_never_repeats_a_draw(tmp_path, monkeypatch):
    """The same seed gives the same group keys, and every later draw comes
    from the operating system: the platform activates the tickets of
    each rebuild, and no two blobs share an ephemeral key, which would reuse
    a ChaCha20-Poly1305 key and nonce (RFC 8439 section 4)."""
    blobs = []
    seal = crypto.seal
    monkeypatch.setattr(crypto, "seal", lambda *args, **kwargs: blobs.append(seal(*args, **kwargs)) or blobs[-1])
    log = tmp_path / "pca-issuance.log"
    groups = {g: GroupConfig(Fraction(g)) for g in (1, 2)}
    first = PrivacyCa(groups, rng=random.Random(5), issuance_log=log)
    agent = TrustedAgent(TpmInstance(rng=random.Random(6)), first, None, user_account="acct-a", rs_id="rs-test")
    agent.register()
    agent.acquire_ticket(1)
    for _ in range(2):
        agent._pca = PrivacyCa(groups, rng=random.Random(5), issuance_log=log)
        assert agent._pca.group_registry() == first.group_registry()
        agent.acquire_ticket(2)
    assert len(agent.tickets) == 3
    assert len({blob[:32] for blob in blobs}) == len(blobs) == 3
    issues = [record for record in read_records(log) if record["kind"] == "issue"]
    assert len({record["charge_ref"] for record in issues}) == len({record["label"] for record in issues}) == 3


def test_two_rebuilds_at_one_log_length_draw_apart(tmp_path):
    """A request commits nothing, so two lives rebuilt from the same log with
    the same seed share the seed and the log length: their challenges still
    carry different nonces."""
    log = tmp_path / "pca-issuance.log"
    groups = {1: GroupConfig(Fraction(1))}
    tpm = TpmInstance(rng=random.Random(6))
    platform_id = PrivacyCa(groups, rng=random.Random(5), issuance_log=log).register_platform(tpm.ek_public, "acct-a")
    nonces = []
    for _ in range(2):
        pca = PrivacyCa(groups, rng=random.Random(5), issuance_log=log)
        nonces.append(pca.request_credential(tpm.make_identity()[1], 1, platform_id).nonce)
    assert nonces[0] != nonces[1]


def test_issuance_log_survives_restart(tmp_path):
    log = tmp_path / "issuance.log"
    stack = make_stack(1, pca_kwargs={"issuance_log": log})
    agent = stack.new_agent("a")
    ticket = agent.acquire_ticket(2)
    digest = crypto.key_id_of(ticket.credential.entity)
    stack.pca.blacklist(agent.platform_id, True)

    revived = PrivacyCa(
        {g: GroupConfig(Fraction(g)) for g in (1, 2, 3)},
        rng=random.Random(0),
        authority_tokens={TOKEN},
        issuance_log=log,
    )
    record = revived.resolve_identity(digest, TOKEN)
    assert record.platform_id == agent.platform_id
    assert record.blacklisted is True
    assert record.issued[0].group == 2


def test_replay_refuses_a_second_issue_record_for_one_identity_key(tmp_path):
    """A copy of an issue record that names another registered platform hands
    it the ticket: ``resolve_identity`` answers that platform, and an ex-post
    charge bills its account. Replay refuses it ``duplicate-aik``, as
    ``pca/request`` refuses a second request for one identity key."""
    log = tmp_path / "issuance.log"
    stack = make_stack(1, pca_kwargs={"issuance_log": log})
    buyer, other = stack.new_agent("a"), stack.new_agent("b")
    buyer.acquire_ticket(1)
    append_record(log, {**read_records(log)[-1], "platform_id": other.platform_id})
    with raises_code("duplicate-aik"):
        PrivacyCa({g: GroupConfig(Fraction(g)) for g in (1, 2, 3)}, rng=random.Random(0), issuance_log=log)


def test_an_authority_that_charges_at_acquisition_never_charges_a_ticket_again():
    """Wired as a reputation system's ex-post charge too, an authority built
    to charge at acquisition billed each ticket twice: ``charge_for_ticket``
    refuses with ``invalid-argument`` before any charge, so the rating is
    not stored and the ticket's one charge is its acquisition."""
    stack = make_stack(1, policy=PricingPolicy.flat({1: 100, 2: 100, 3: 100}), charging="acquisition")
    rs = ReputationSystem(stack.rs.rs_id, expost_charge=stack.pca.charge_for_ticket)
    rs.configure_groups(stack.pca.group_registry())
    agent = TrustedAgent(TpmInstance(rng=random.Random(1)), stack.pca, rs, user_account="acct-a", rs_id=rs.rs_id)
    stack.cp.open_account(agent.user_account, 1000)
    agent.register()
    ticket = agent.acquire_ticket(1)
    with raises_code("invalid-argument"):
        agent.redeem_ticket(ticket, agent.make_payload("seller", 4))
    assert [e.phase for e in stack.cp.history(agent.user_account)] == ["acquisition"]
    assert stack.cp.balance(agent.user_account) == 900
    assert (rs.records, rs.spent_count, agent.fresh_tickets()) == ([], 0, [ticket])


def test_an_authority_with_no_charging_provider_never_acks_a_free_ex_post_rating():
    """Wired as a reputation system's ex-post charge, an authority built with
    no charging provider answered ``None``, and the rating was stored unpaid:
    ``charge_for_ticket`` refuses with ``invalid-argument``, so nothing is stored."""
    stack = make_stack(1)
    rs = ReputationSystem(stack.rs.rs_id, expost_charge=stack.pca.charge_for_ticket)
    rs.configure_groups(stack.pca.group_registry())
    agent = TrustedAgent(TpmInstance(rng=random.Random(1)), stack.pca, rs, user_account="acct-a", rs_id=rs.rs_id)
    agent.register()
    ticket = agent.acquire_ticket(1)
    with raises_code("invalid-argument"):
        agent.redeem_ticket(ticket, agent.make_payload("seller", 4))
    assert (rs.records, rs.spent_count, agent.fresh_tickets()) == ([], 0, [ticket])


def test_the_ex_post_charge_prices_the_tickets_own_group():
    """``charge_for_ticket`` takes the ticket's digest only: the authority
    prices the group it issued that ticket in, and a digest it never issued
    is ``not-found``."""
    stack = make_stack(1, policy=PricingPolicy.flat({1: 10, 2: 20, 3: 30}), charging="ex_post")
    ticket = stack.new_agent("a").acquire_ticket(2)
    receipt = stack.pca.charge_for_ticket(crypto.key_id_of(ticket.credential.entity))
    assert (receipt.amount, receipt.group, receipt.phase) == (20, 2, "ex_post")
    with raises_code("not-found"):
        stack.pca.charge_for_ticket("f" * 64)


def test_authority_rebuilt_from_its_log_without_an_rng_is_refused(tmp_path, monkeypatch):
    """Built without an rng, it would draw new group keys, and every ticket
    it issued before would stop verifying: refused before any key is drawn."""
    log = tmp_path / "issuance.log"
    stack = make_stack(1, pca_kwargs={"issuance_log": log})
    stack.new_agent("a").acquire_ticket(1)
    before = log.read_bytes()
    draws = []
    generate = crypto.generate_keypair
    monkeypatch.setattr(crypto, "generate_keypair", lambda seed=None: draws.append(seed) or generate(seed))
    groups = {g: GroupConfig(Fraction(g)) for g in (1, 2, 3)}
    with raises_code("invalid-argument"):
        PrivacyCa(groups, issuance_log=log)
    assert draws == [] and log.read_bytes() == before
    # with an rng, or with a log that holds no record yet, the authority builds
    PrivacyCa(groups, rng=random.Random(0), issuance_log=log)
    (tmp_path / "empty.log").touch()
    PrivacyCa(groups, issuance_log=tmp_path / "empty.log")
    PrivacyCa(groups, issuance_log=tmp_path / "absent.log")
    assert len(draws) == 9


def test_mapping_completeness():
    stack = make_stack(1)
    agents = [stack.new_agent(f"a{i}") for i in range(5)]
    expected = {}
    for agent in agents:
        for group in (1, 2):
            ticket = agent.acquire_ticket(group)
            expected[crypto.key_id_of(ticket.credential.entity)] = agent.platform_id
    for digest, platform_id in expected.items():
        assert stack.pca.resolve_identity(digest, TOKEN).platform_id == platform_id


def test_the_clock_never_goes_back():
    """Expired challenges are a prefix of the pending ones only because the
    clock never goes back."""
    stack = make_stack(1)
    stack.clock.advance(5)
    with pytest.raises(ValueError):
        stack.clock.advance(-1)
    assert stack.clock.now() == 5


def test_expired_challenges_are_dropped_by_the_next_request():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    for _ in range(50):  # abandoned: never completed
        stack.pca.request_credential(agent.tpm.make_identity()[1], 1, agent.platform_id)
    assert len(stack.pca._pending) == 50
    stack.clock.advance(150)
    stack.pca.request_credential(agent.tpm.make_identity()[1], 1, agent.platform_id)
    assert len(stack.pca._pending) == 51  # none has expired yet
    stack.clock.advance(151)
    handle, public = agent.tpm.make_identity()
    challenge = stack.pca.request_credential(public, 1, agent.platform_id)
    assert len(stack.pca._pending) == 2  # the 50 expired, the 51st and this one live
    stack.pca.complete_handshake(challenge.nonce, agent.tpm.sign_issuance_nonce(handle, challenge.nonce))
