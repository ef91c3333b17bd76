import random
from fractions import Fraction

import pytest

from pseudorate import crypto
from pseudorate.charging import PricingPolicy
from pseudorate.errors import InvalidArgument, UnknownGroup
from pseudorate.privacy_ca import Challenge, DeniedRequest, GroupConfig, PrivacyCa
from pseudorate.tpm import TpmInstance

from support import TOKEN, make_stack, raises_code


def test_group_table_must_be_dense_and_positive():
    with pytest.raises(InvalidArgument):
        PrivacyCa({2: GroupConfig(Fraction(1))})
    with pytest.raises(InvalidArgument):
        PrivacyCa({1: GroupConfig(Fraction(0))})
    with pytest.raises(InvalidArgument):
        PrivacyCa({})


def test_authority_charges_only_at_acquisition():
    """Ex-post charges reach the authority through charge_for_ticket only, so
    acquisition is the one phase it may be built to charge in."""
    groups = {1: GroupConfig(Fraction(1))}
    PrivacyCa(groups, charge_phases=("acquisition",))
    for phases in (("ex_post",), ("acquisition", "ex_post"), ("later",)):
        with pytest.raises(InvalidArgument):
            PrivacyCa(groups, charge_phases=phases)


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
    _, public2 = agent.tpm.make_identity()
    assert isinstance(stack.pca.request_credential(public2, 1, agent.platform_id), Challenge)
    assert stack.cp.history(agent.user_account)[-1].amount == 100


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
