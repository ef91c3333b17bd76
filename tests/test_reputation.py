import random
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudorate import crypto
from pseudorate.charging import PricingPolicy
from pseudorate.errors import InvalidArgument
from pseudorate.reputation import (
    Ack,
    RatingPayload,
    RatingRecord,
    Reject,
    ReputationSystem,
)
from pseudorate.encoding import append_record, encode

from support import honest_chain, make_stack, replace


def test_configure_groups_rejects_nonpositive_impact():
    rs = ReputationSystem("rs-x")
    with pytest.raises(InvalidArgument):
        rs.configure_groups({1: (b"k" * 32, Fraction(0))})
    rs.configure_groups({1: (b"k" * 32, Fraction(1, 2))})
    assert rs.group_registry[1][1] == Fraction(1, 2)


def test_honest_submission_acked_and_stored():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    ticket, payload, chain = honest_chain(stack, agent, group=2, subject="seller-z", score=5)
    result = stack.rs.submit_rating(payload, chain)
    assert isinstance(result, Ack)
    assert result.group == 2
    record = stack.rs.records[0]
    assert record.impact == Fraction(2)
    assert record.chain_digest == result.receipt
    assert stack.rs.is_spent(chain.aik_digest)


def test_double_spend_rejected():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    ticket, payload, chain = honest_chain(stack, agent)
    assert isinstance(stack.rs.submit_rating(payload, chain), Ack)
    result = stack.rs.submit_rating(payload, chain)
    assert result == Reject("double-spend", "ticket already redeemed")
    # a different signing key under the same ticket still counts as spent
    payload2 = agent.make_payload("seller-other", 3)
    chain2 = agent.build_chain(ticket, payload2)
    assert stack.rs.submit_rating(payload2, chain2).reason == "double-spend"


def test_wrong_rs_rejected():
    stack = make_stack(1, rs_id="rs-one")
    agent = stack.new_agent("a")
    ticket = agent.acquire_ticket(1)
    payload = RatingPayload(subject="s", score=3, nonce=b"n", rs_id="rs-two")
    chain = agent.build_chain(ticket, payload)
    assert stack.rs.submit_rating(payload, chain).reason == "wrong-rs"


def test_bad_payload_score_out_of_scale():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    ticket = agent.acquire_ticket(1)
    payload = RatingPayload(subject="s", score=9, nonce=b"n", rs_id=stack.rs.rs_id)
    chain = agent.build_chain(ticket, payload)
    assert stack.rs.submit_rating(payload, chain).reason == "bad-payload"


def test_bad_payload_entity_mismatch():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    ticket, payload, chain = honest_chain(stack, agent)
    other_payload = agent.make_payload("someone-else", 2)
    result = stack.rs.submit_rating(other_payload, chain)
    assert result.reason == "bad-payload"


def test_unknown_group_is_invalid_chain():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    ticket, payload, chain = honest_chain(stack, agent)
    stack.rs.configure_groups({9: (crypto.generate_keypair().public, Fraction(1))})
    result = stack.rs.submit_rating(payload, chain)
    assert result.reason == "invalid-chain"
    assert result.detail == "unknown-group"


def test_new_key_for_a_configured_group_rejects_chains_under_the_old_key():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    _, payload, chain = honest_chain(stack, agent, group=2)
    _, old_payload, old_chain = honest_chain(stack, agent, group=2)
    assert isinstance(stack.rs.submit_rating(payload, chain), Ack)  # the old key's object is built
    registry = stack.pca.group_registry()
    registry[2] = (crypto.generate_keypair().public, registry[2][1])
    stack.rs.configure_groups(registry)
    result = stack.rs.submit_rating(old_payload, old_chain)
    assert (result.reason, result.detail) == ("invalid-chain", "unknown-group")


def test_receipt_is_the_digest_of_the_encoded_chain():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    _, payload, chain = honest_chain(stack, agent)
    result = stack.rs.submit_rating(payload, chain)
    assert result.receipt == crypto.sha256_hex(encode(chain.to_record()))
    assert stack.rs.records[0].chain_digest == result.receipt


def test_crossover_chain_is_invalid_chain():
    stack = make_stack(1)
    agent_a, agent_b = stack.new_agent("a"), stack.new_agent("b")
    ticket_a, payload, chain_a = honest_chain(stack, agent_a)
    chain_b = agent_b.build_chain(agent_b.acquire_ticket(1), payload)
    crossed = replace(chain_a, "rating", chain_b.rating_cred)
    result = stack.rs.submit_rating(payload, crossed)
    assert result.reason == "invalid-chain"
    assert result.detail == "link-mismatch"


def test_reject_precedence_chain_before_spend():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    ticket, payload, chain = honest_chain(stack, agent)
    stack.rs.submit_rating(payload, chain)
    mutated = replace(
        chain,
        "rating",
        crypto.Credential(
            entity=chain.rating_cred.entity,
            issuer_public=chain.rating_cred.issuer_public,
            signature=b"\x00" * 64,
            meta=chain.rating_cred.meta,
        ),
    )
    # spent ticket AND broken chain: chain wins, reasons stay deterministic
    assert stack.rs.submit_rating(payload, mutated).reason == "invalid-chain"


# -- aggregation -----------------------------------------------------------------


def test_aggregate_empty_is_none():
    rs = ReputationSystem("rs-x")
    score = rs.aggregate("nobody")
    assert score.count == 0 and score.score is None


def test_aggregate_single_and_weighted():
    stack = make_stack(1)
    a, b = stack.new_agent("a"), stack.new_agent("b")
    t, p, c = honest_chain(stack, a, group=3, subject="seller", score=5)
    stack.rs.submit_rating(p, c)
    assert stack.rs.aggregate("seller").score == Fraction(5)
    t, p, c = honest_chain(stack, b, group=1, subject="seller", score=1)
    stack.rs.submit_rating(p, c)
    # impacts are 3 and 1: (3*5 + 1*1) / 4 = 4
    assert stack.rs.aggregate("seller").score == Fraction(4)


def _brute_force(pairs):
    num = sum(Fraction(i) * s for i, s in pairs)
    den = sum(Fraction(i) for i, s in pairs)
    return num / den


@given(
    st.lists(
        st.tuples(st.fractions(min_value="1/7", max_value=9), st.integers(1, 5)),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60)
def test_aggregate_matches_brute_force_and_permutation_invariant(pairs):
    def build(seq):
        rs = ReputationSystem("rs-x")
        for n, (impact, score) in enumerate(seq):
            rs._apply(
                RatingRecord(
                    payload=RatingPayload("subj", score, nonce=b"n%d" % n, rs_id="rs-x"),
                    group=1,
                    impact=Fraction(impact),
                    received=n,
                    chain_digest=f"{n:02d}",
                ),
                f"aik-{n:02d}",
            )
        return rs.aggregate("subj").score

    forward = build(pairs)
    assert forward == _brute_force(pairs)
    shuffled = list(pairs)
    random.Random(0).shuffle(shuffled)
    assert build(shuffled) == forward


# -- concurrency --------------------------------------------------------------------


def test_concurrent_submissions_single_ack():
    stack = make_stack(5)
    agent = stack.new_agent("a")
    ticket = agent.acquire_ticket(1)
    submissions = []
    for i in range(12):
        payload = agent.make_payload("seller", 1 + i % 5)
        submissions.append((payload, agent.build_chain(ticket, payload)))
    results = [None] * len(submissions)
    barrier = threading.Barrier(len(submissions))

    def run(index):
        barrier.wait()
        results[index] = stack.rs.submit_rating(*submissions[index])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(submissions))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    acks = [r for r in results if isinstance(r, Ack)]
    rejects = [r for r in results if isinstance(r, Reject)]
    assert len(acks) == 1
    assert all(r.reason == "double-spend" for r in rejects)


# -- pseudonymity and persistence -------------------------------------------------------


def test_state_contains_no_platform_identifiers():
    stack = make_stack(1)
    agents = [stack.new_agent(f"a{i}") for i in range(4)]
    for agent in agents:
        t, p, c = honest_chain(stack, agent, subject="seller")
        stack.rs.submit_rating(p, c)
    state = stack.rs.export_state()
    for agent in agents:
        assert agent.tpm.ek_public not in state
        assert agent.platform_id.encode() not in state
        assert agent.user_account.encode() not in state


def test_expost_charge_failure_keeps_rating_and_retries():
    calls = {"n": 0}

    def flaky(aik_digest, group):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("settlement down")

    stack = make_stack(1, rs_kwargs={"expost_charge": flaky})
    agent = stack.new_agent("a")
    t, p, c = honest_chain(stack, agent)
    result = stack.rs.submit_rating(p, c)
    assert isinstance(result, Ack)
    assert len(stack.rs.records) == 1
    assert stack.rs.pending_charge_count == 1
    assert stack.rs.retry_pending_charges() == 0
    assert calls["n"] == 2


def test_expost_charging_happens_via_authority():
    stack = make_stack(1, policy=PricingPolicy.flat({1: 40, 2: 40, 3: 40}), charging="ex_post")
    agent = stack.new_agent("a")
    before = stack.cp.balance(agent.user_account)
    agent.acquire_ticket(1)
    assert stack.cp.balance(agent.user_account) == before  # nothing at acquisition
    agent.redeem_ticket(agent.tickets[0], agent.make_payload("seller", 4))
    assert before - stack.cp.balance(agent.user_account) == 40
    receipt = stack.cp.history(agent.user_account)[-1]
    assert receipt.phase == "ex_post"


def test_declined_expost_charge_stays_pending_until_it_settles():
    stack = make_stack(1, policy=PricingPolicy.flat({1: 40, 2: 40, 3: 40}), charging="ex_post", credit_limit=0)
    stack.cp.open_account("acct-a", 10)  # below the price
    agent = stack.new_agent("a")
    ticket = agent.acquire_ticket(1)
    assert isinstance(agent.redeem_ticket(ticket, agent.make_payload("seller", 4)), Ack)
    assert stack.cp.balance(agent.user_account) == 10
    assert stack.rs.pending_charge_count == 1
    assert stack.rs.retry_pending_charges() == 1  # still declined
    stack.cp.charge(agent.user_account, -100, group=1, phase="ex_post")  # a credit
    assert stack.rs.retry_pending_charges() == 0
    assert stack.cp.balance(agent.user_account) == 110 - 40
    assert stack.rs.retry_pending_charges() == 0  # settled once, never charged again
    assert stack.cp.balance(agent.user_account) == 110 - 40


def test_blacklisted_platform_can_still_redeem_issued_ticket():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    ticket = agent.acquire_ticket(1)
    stack.pca.blacklist(agent.platform_id, True)
    result = agent.redeem_ticket(ticket, agent.make_payload("seller", 4))
    assert isinstance(result, Ack)


def test_persistence_round_trip(tmp_path):
    rating_log = tmp_path / "ratings.log"
    snapshot = tmp_path / "spent.snap"
    stack = make_stack(1, rs_kwargs={"rating_log": rating_log, "spent_snapshot": snapshot})
    agent = stack.new_agent("a")
    for subject, score in (("s1", 5), ("s2", 2)):
        t, p, c = honest_chain(stack, agent, subject=subject, score=score)
        stack.rs.submit_rating(p, c)
    stack.rs.save_spent_snapshot()

    revived = ReputationSystem(
        "rs-test", rating_log=rating_log, spent_snapshot=snapshot
    )
    assert len(revived.records) == 2
    assert revived.spent_count == 2
    assert revived.aggregate("s1").score == Fraction(5)
    for digest in stack.rs._spent:
        assert revived.is_spent(digest)


def test_torn_snapshot_write_keeps_previous_snapshot(tmp_path, monkeypatch):
    snapshot = tmp_path / "rs-spent.snap"
    stack = make_stack(1, rs_kwargs={"spent_snapshot": snapshot})
    agent = stack.new_agent("a")
    _, payload, chain = honest_chain(stack, agent, subject="s1")
    stack.rs.submit_rating(payload, chain)
    stack.rs.save_spent_snapshot()
    first = set(stack.rs._spent)
    assert len(first) == 1
    _, payload, chain = honest_chain(stack, agent, subject="s2")
    stack.rs.submit_rating(payload, chain)

    def torn_write(path, data):
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", torn_write)
    with pytest.raises(OSError):
        stack.rs.save_spent_snapshot()
    monkeypatch.undo()

    revived = ReputationSystem("rs-test", spent_snapshot=snapshot)
    assert set(revived._spent) == first


def test_rating_log_replay_supports_aggregation_oracle(tmp_path):
    path = tmp_path / "ratings.log"
    rng = random.Random(3)
    pairs = []
    for n in range(20):
        impact, score = Fraction(rng.randrange(1, 9), rng.randrange(1, 4)), rng.randrange(1, 6)
        pairs.append((impact, score))
        record = RatingRecord(
            payload=RatingPayload("subj", score, nonce=b"x%d" % n, rs_id="rs-test"),
            group=1,
            impact=impact,
            received=n,
            chain_digest=f"{n:03d}",
        )
        append_record(path, {**record.to_record(), "aik_digest": f"aik-{n:03d}"})
    rs = ReputationSystem("rs-test", rating_log=path)
    assert len(rs.records) == rs.spent_count == 20
    assert rs.aggregate("subj").score == _brute_force(pairs)
