import errno
import os
import random
import sys
import tempfile
import threading
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudorate import crypto, encoding, reputation
from pseudorate.agent import RATING_META
from pseudorate.charging import ChargingProvider, PricingPolicy
from pseudorate.errors import InvalidArgument
from pseudorate.reputation import (
    Ack,
    RatingPayload,
    RatingRecord,
    Reject,
    ReputationSystem,
)
from pseudorate.encoding import append_record, encode, read_records
from pseudorate.wire import InprocTransport, Router, RsClient, decode_request, encode_request, encode_response

from support import certify_with, count_calls, honest_chain, log_bytes, make_stack, raises_code, replace


def test_configure_groups_rejects_nonpositive_impact():
    rs = ReputationSystem("rs-x")
    with pytest.raises(InvalidArgument):
        rs.configure_groups({1: (b"k" * 32, Fraction(0))})
    rs.configure_groups({1: (b"k" * 32, Fraction(1, 2))})
    assert rs.group_registry[1][1] == Fraction(1, 2)


# group ids and impacts that int() and Fraction() read, but that are not
# exactly what a registry holds
NOT_GROUP_IDS = {"negative": -1, "zero": 0, "str": "7", "bool": True, "float": 1.0}
NOT_IMPACTS = {"int": 1, "str": "1/2", "float": 0.5}


@pytest.mark.parametrize("group", NOT_GROUP_IDS.values(), ids=NOT_GROUP_IDS.keys())
def test_configure_groups_refuses_what_is_not_a_group_id(group):
    """A group is exactly an int >= 1, the id ``charging.group_id`` reads from
    a record key: nothing is coerced, and the registry in force stays."""
    rs = ReputationSystem("rs-x")
    rs.configure_groups({1: (b"k" * 32, Fraction(1))})
    before = rs.group_registry
    with pytest.raises(InvalidArgument):
        rs.configure_groups({2: (b"j" * 32, Fraction(1)), group: (b"m" * 32, Fraction(1))})
    assert rs.group_registry == before


@pytest.mark.parametrize("impact", NOT_IMPACTS.values(), ids=NOT_IMPACTS.keys())
def test_configure_groups_refuses_an_impact_that_is_not_a_fraction(impact):
    rs = ReputationSystem("rs-x")
    with pytest.raises(InvalidArgument):
        rs.configure_groups({1: (b"k" * 32, impact)})
    assert rs.group_registry == {}


def test_configure_groups_refuses_a_key_that_is_not_bytes():
    rs = ReputationSystem("rs-x")
    for public in ("k" * 32, bytearray(32)):
        with raises_code("invalid-argument"):
            rs.configure_groups({1: (public, Fraction(1))})
    assert rs.group_registry == {}


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
    assert stack.rs.spent_count == 1
    assert stack.rs.submit_rating(payload, chain) == Reject("double-spend", "ticket already redeemed")


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


@pytest.mark.parametrize("change", ["emptied", "rekeyed", "dropped"])
def test_groups_reconfigured_during_a_submission_never_answer_internal(monkeypatch, change):
    """A configure_groups that lands between a submission's chain check and
    its impact lookup leaves that submission with the table it started with."""
    stack = make_stack(1)
    _, payload, chain = honest_chain(stack, stack.new_agent("a"))
    registry = stack.rs.group_registry
    changed = {
        "emptied": {},
        "rekeyed": {**registry, 1: (crypto.generate_keypair().public, Fraction(7))},
        "dropped": {g: entry for g, entry in registry.items() if g != 1},
    }[change]
    verify_chain = crypto.verify_chain

    def verify_then_reconfigure(*args):
        report = verify_chain(*args)
        stack.rs.configure_groups(changed)
        return report

    monkeypatch.setattr(crypto, "verify_chain", verify_then_reconfigure)
    result = RsClient(InprocTransport(Router(rs=stack.rs))).submit_rating(payload, chain)
    if isinstance(result, Ack):
        assert stack.rs.records[-1].impact == registry[1][1]
    else:
        assert result.reason == "invalid-chain"


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
@settings(max_examples=settings().max_examples * 3 // 5)
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


# group -> (key pair, impact) for chains built without a platform module
SCORE_GROUPS = {
    g: (crypto.generate_keypair(b"score-group-%d" % g), impact)
    for g, impact in ((1, Fraction(1, 2)), (2, Fraction(3)), (3, Fraction(2, 3)))
}


@lru_cache(maxsize=None)
def scored_chain(index: int, subject: str, group: int, score: int) -> tuple[RatingPayload, crypto.CredentialChain]:
    """The ``index``-th submission of an example: its own identity key, so one
    example never spends a ticket twice; cached, as every example builds a new RS."""
    seed = b"%d/%s/%d/%d" % (index, subject.encode(), group, score)
    aik, csk = crypto.generate_keypair(b"aik:" + seed), crypto.generate_keypair(b"csk:" + seed)
    payload = RatingPayload(subject, score, nonce=seed, rs_id="rs-x")
    return payload, crypto.CredentialChain(
        rating_cred=certify_with(csk, payload.canonical_bytes(), RATING_META),
        csk_cred=certify_with(aik, csk.public),
        aik_cred=certify_with(SCORE_GROUPS[group][0], aik.public),
    )


def score_reply(pairs) -> tuple[int, str]:
    return (len(pairs), str(_brute_force(pairs))) if pairs else (0, "no-score")


def assert_score_reply(client: RsClient, tap: list, subject: str, pairs) -> None:
    """``client``'s rs/score for ``subject`` answers the brute-force mean of
    ``pairs``, in exactly the response frame ``encode_response`` writes for
    that reply: the spliced body is the body ``encode`` writes."""
    count, score = score_reply(pairs)
    assert client.score(subject) == (count, score)
    (_, request), (_, response) = tap[-2:]
    corr = decode_request(request)[2]
    assert response == encode_response("rs/score", corr, "ok", {"count": count, "score": score})


def score_client(rs: ReputationSystem) -> tuple[RsClient, list]:
    tap = []
    return RsClient(InprocTransport(Router(rs=rs), tap=tap)), tap


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("rate"), st.sampled_from("abc"), st.sampled_from(sorted(SCORE_GROUPS)), st.integers(1, 5)),
            st.tuples(st.just("read"), st.sampled_from("abcd")),
        ),
        max_size=14,
    )
)
@settings(max_examples=settings().max_examples // 2)
def test_score_replies_follow_every_rating(ops):
    """Submissions and rs/score reads interleaved: each reply frame is the
    encoding of the exact weighted mean of the ratings so far, so no read
    after a rating returns the score before it; a rated subject's reply is
    built once per rating; an unrated subject answers no-score and is not
    stored; and an RS rebuilt from the rating log answers the same frames."""
    registry = {g: (pair.public, impact) for g, (pair, impact) in SCORE_GROUPS.items()}
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "ratings.log"
        rs = ReputationSystem("rs-x", rating_log=log)
        rs.configure_groups(registry)
        client, tap = score_client(rs)
        rated: dict[str, list] = {}
        for n, (op, subject, *rating) in enumerate(ops):
            if op == "rate":
                group, score = rating
                assert isinstance(rs.submit_rating(*scored_chain(n, subject, group, score)), Ack)
                rated.setdefault(subject, []).append((registry[group][1], score))
            assert_score_reply(client, tap, subject, rated.get(subject))
            if subject in rated:
                assert rs.aggregate(subject) is rs.aggregate(subject)
            else:
                assert subject not in rs.subjects()
        assert rs.subjects() == list(rated)

        rebuilt = ReputationSystem("rs-x", rating_log=log)
        rebuilt_client, rebuilt_tap = score_client(rebuilt)
        for subject in "abcd":
            assert_score_reply(rebuilt_client, rebuilt_tap, subject, rated.get(subject))
        assert rebuilt.subjects() == rs.subjects()


def test_score_body_is_written_once_per_rating(monkeypatch):
    """A read with no rating of its subject since the previous read writes
    nothing for its reply; the first read after a rating writes the body
    once; an unrated subject's body is a constant. The body is spliced and
    the frame around it too, so no read calls the generic encoder."""
    rs = ReputationSystem("rs-x")
    rs.configure_groups({g: (pair.public, impact) for g, (pair, impact) in SCORE_GROUPS.items()})
    router = Router(rs=rs)
    requests = {subject: encode_request("rs/score", {"subject": subject}, b"c") for subject in "ab"}
    ratings = [scored_chain(n, "a", 1 + n % 3, 1 + n % 5) for n in range(2)]
    writes = count_calls(monkeypatch, reputation, ["score_body"])
    encodes = count_calls(monkeypatch, encoding, ["encode"])

    def writes_per_read(subject: str) -> int:
        writes.clear()
        router.handle(requests[subject])
        return writes["score_body"]

    assert [writes_per_read("a"), writes_per_read("b")] == [0, 0]
    for rating in ratings:
        assert isinstance(rs.submit_rating(*rating), Ack)
        assert [writes_per_read("a"), writes_per_read("a"), writes_per_read("b")] == [1, 0, 0]
    assert encodes["encode"] == 0


# -- resubmitted chains ---------------------------------------------------------------


@pytest.fixture
def verify_calls(monkeypatch):
    """Counts ``crypto.verify`` calls, each one Ed25519 signature check."""
    calls = []
    verify = crypto.verify

    def counting(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(crypto, "verify", counting)
    return calls


def accepted_over_the_wire(tmp_path):
    """An RS with a rating log, a client of it, and one accepted submission."""
    stack = make_stack(1, rs_kwargs={"rating_log": tmp_path / "ratings.log"})
    agent = stack.new_agent("a")
    ticket, payload, chain = honest_chain(stack, agent)
    client = RsClient(InprocTransport(Router(rs=stack.rs)))
    assert isinstance(client.submit_rating(payload, chain), Ack)
    return stack, agent, ticket, payload, chain


def test_resubmitted_chain_is_a_double_spend_without_a_signature_check(tmp_path, verify_calls):
    stack, _, _, payload, chain = accepted_over_the_wire(tmp_path)
    verify_calls.clear()
    spent = Reject("double-spend", "ticket already redeemed")
    assert RsClient(InprocTransport(Router(rs=stack.rs))).submit_rating(payload, chain) == spent
    assert verify_calls == []
    # an RS rebuilt from its rating log knows the chain too
    rebuilt = ReputationSystem(stack.rs.rs_id, rating_log=tmp_path / "ratings.log")
    rebuilt.configure_groups(stack.rs.group_registry)
    assert RsClient(InprocTransport(Router(rs=rebuilt))).submit_rating(payload, chain) == spent
    assert verify_calls == []


def test_resubmitted_chain_whose_group_was_dropped_is_an_unknown_group(tmp_path, verify_calls):
    stack, _, _, payload, chain = accepted_over_the_wire(tmp_path)
    verify_calls.clear()
    stack.rs.configure_groups({g: entry for g, entry in stack.rs.group_registry.items() if g != 1})
    result = RsClient(InprocTransport(Router(rs=stack.rs))).submit_rating(payload, chain)
    assert (result.reason, result.detail) == ("invalid-chain", "unknown-group")
    stack.rs.configure_groups({})
    assert stack.rs.submit_rating(payload, chain) == result
    assert verify_calls == []


def test_resubmitted_chain_with_another_payload_is_a_bad_payload(tmp_path, verify_calls):
    stack, agent, _, _, chain = accepted_over_the_wire(tmp_path)
    verify_calls.clear()
    result = RsClient(InprocTransport(Router(rs=stack.rs))).submit_rating(agent.make_payload("seller-1", 4), chain)
    assert result == Reject("bad-payload", "signed bytes do not match payload")
    assert verify_calls == []


def test_new_chain_under_a_spent_ticket_pays_every_signature_check(tmp_path, verify_calls):
    stack, agent, ticket, payload, _ = accepted_over_the_wire(tmp_path)
    chain = agent.build_chain(ticket, payload)  # a new signing key, so new bytes
    verify_calls.clear()
    assert RsClient(InprocTransport(Router(rs=stack.rs))).submit_rating(payload, chain).reason == "double-spend"
    assert len(verify_calls) == 3


# -- concurrency --------------------------------------------------------------------


def test_concurrent_submissions_single_ack():
    """Chains under one ticket, each sent twice, from as many threads: once
    the accepted chain is known, its copies skip verification, and still
    only one submission is acked."""
    stack = make_stack(5)
    agent = stack.new_agent("a")
    ticket = agent.acquire_ticket(1)
    submissions = []
    for i in range(12):
        payload = agent.make_payload("seller", 1 + i % 5)
        submissions.append((payload, agent.build_chain(ticket, payload)))
    submissions += submissions
    results = [None] * len(submissions)
    barrier = threading.Barrier(len(submissions))

    def run(index):
        barrier.wait()
        results[index] = stack.rs.submit_rating(*submissions[index])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(submissions))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    acks = [r for r in results if isinstance(r, Ack)]
    rejects = [r for r in results if isinstance(r, Reject)]
    assert len(acks) == 1
    assert all(r.reason == "double-spend" for r in rejects)


def test_racing_submissions_of_one_chain_pay_once():
    """Four threads submit one chain charged ex post, each switch a
    microsecond apart, for each of five tickets: the spend check and the
    charge are one step, so each chain is acked once and paid for once."""
    stack = make_stack(6, policy=PricingPolicy.flat({1: 40, 2: 40, 3: 40}), charging="ex_post")
    agent = stack.new_agent("a")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for paid in range(1, 6):
            _, payload, chain = honest_chain(stack, agent)
            results = [None] * 4
            barrier = threading.Barrier(len(results))

            def run(index):
                barrier.wait()
                results[index] = stack.rs.submit_rating(payload, chain)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert sum(isinstance(r, Ack) for r in results) == 1
            assert sorted(r.reason for r in results if isinstance(r, Reject)) == ["double-spend"] * 3
            assert len(stack.cp.history(agent.user_account)) == paid
    finally:
        sys.setswitchinterval(interval)


def test_score_reads_racing_ratings_pair_each_count_with_its_own_mean():
    """Readers call rs/score on one subject while a writer rates it: the
    first read after a rating builds the reply without a lock, so every reply
    is one prefix state of the ratings, never the count of one and the mean
    of another, no reader sees a count go down, and a read after the writer
    is done answers the mean of all, not a reply built before the last
    rating. The writer applies each rating as an accepted submission does,
    under the RS lock, without the signature checks that would space the
    ratings too far apart for a read to race them; each round is a new RS."""
    ratings = [
        RatingRecord(RatingPayload("s", 1 + n * 2 % 5, nonce=b"n%d" % n, rs_id="rs-x"), 1, impact, n, f"{n:02d}")
        for n, impact in enumerate(Fraction(1 + n % 3, 2 + n % 2) for n in range(12))
    ]
    pairs = [(r.impact, r.payload.score) for r in ratings]
    prefixes = {score_reply(pairs[:n]) for n in range(len(pairs) + 1)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            rs = ReputationSystem("rs-x")
            done = threading.Event()
            replies: list[list] = [[] for _ in range(3)]

            def write():
                try:
                    for record in ratings:
                        with rs._lock:
                            rs._apply(record, "aik-" + record.chain_digest)
                finally:
                    done.set()

            def read(seen: list):
                client = RsClient(InprocTransport(Router(rs=rs)))
                while not done.is_set():
                    seen.append(client.score("s"))

            threads = [threading.Thread(target=read, args=(seen,)) for seen in replies]
            threads.append(threading.Thread(target=write))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for seen in replies:
                assert set(seen) <= prefixes
                assert [count for count, _ in seen] == sorted(count for count, _ in seen)
            assert RsClient(InprocTransport(Router(rs=rs))).score("s") == score_reply(pairs)
    finally:
        sys.setswitchinterval(interval)


# -- pseudonymity and persistence -------------------------------------------------------


def test_state_contains_no_platform_identifiers(tmp_path):
    stack = make_stack(1, rs_kwargs={"rating_log": tmp_path / "rs-ratings.log"})
    agents = [stack.new_agent(f"a{i}") for i in range(4)]
    for agent in agents:
        t, p, c = honest_chain(stack, agent, subject="seller")
        assert isinstance(stack.rs.submit_rating(p, c), Ack)
    state = log_bytes(tmp_path / "rs-ratings.log")
    for agent in agents:
        assert agent.tpm.ek_public not in state
        assert agent.platform_id.encode() not in state
        assert agent.user_account.encode() not in state


def test_a_raised_expost_charge_stores_nothing_until_a_resubmission_pays(monkeypatch):
    """A rating is paid for before it is stored: a charge that raises
    propagates and leaves no rating, spend or score, and once the fault is
    gone the same chain is acked and paid for once."""
    stack = make_stack(1, policy=PricingPolicy.flat({1: 40, 2: 40, 3: 40}), charging="ex_post")
    agent = stack.new_agent("a")
    ticket, payload, chain = honest_chain(stack, agent, subject="seller")
    charge = stack.cp.charge
    faults = [RuntimeError("settlement down")]

    def flaky(*args, **kwargs):
        if faults:
            raise faults.pop()
        return charge(*args, **kwargs)

    monkeypatch.setattr(stack.cp, "charge", flaky)
    with pytest.raises(RuntimeError):
        agent.submit_chain(ticket, payload, chain)
    assert (stack.rs.records, stack.rs.spent_count, stack.rs.subjects()) == ([], 0, [])
    assert stack.cp.history(agent.user_account) == [] and agent.fresh_tickets() == [ticket]
    assert isinstance(agent.submit_chain(ticket, payload, chain), Ack)
    assert [e.amount for e in stack.cp.history(agent.user_account)] == [40]
    assert stack.rs.aggregate("seller").count == stack.rs.spent_count == 1


def test_a_rating_whose_append_fails_is_charged_once_when_resubmitted(tmp_path, monkeypatch):
    """A rating append that fails leaves its ex-post charge in the ledger; the
    resubmission is charged under the ticket's same ref, so the ledger hands
    back the first receipt and moves no money again, live or rebuilt."""
    ledger = tmp_path / "cp-ledger.log"
    stack = make_stack(
        1,
        policy=PricingPolicy.flat({1: 100, 2: 100, 3: 100}),
        charging="ex_post",
        cp_kwargs={"ledger_log": ledger},
        rs_kwargs={"rating_log": tmp_path / "rs-ratings.log"},
    )
    agent = stack.new_agent("a")
    ticket, payload, chain = honest_chain(stack, agent, subject="seller")
    faults = [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))]

    def full_once(path, record):
        if faults:
            raise faults.pop()
        append_record(path, encode(record))

    monkeypatch.setattr(reputation, "append_record", full_once)
    with pytest.raises(OSError):
        agent.submit_chain(ticket, payload, chain)
    assert isinstance(agent.submit_chain(ticket, payload, chain), Ack)
    for cp in (stack.cp, ChargingProvider(ledger_log=ledger)):
        assert [e.amount for e in cp.history(agent.user_account)] == [100]
        assert cp.balance(agent.user_account) == 9900


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


def test_a_declined_expost_charge_stores_nothing_until_a_top_up():
    """Under a credit limit of 0, a ticket its account cannot pay for is
    refused ``cp-declined`` and stays fresh; once the account is topped up
    (a negative charge, until the provider has a deposit record) the same
    ticket redeems, and its charge is in the ledger exactly once."""
    stack = make_stack(1, policy=PricingPolicy.flat({1: 40, 2: 40, 3: 40}), charging="ex_post", credit_limit=0)
    stack.cp.open_account("acct-a", 10)  # below the price
    agent = stack.new_agent("a")
    ticket = agent.acquire_ticket(1)
    first = agent.redeem_ticket(ticket, agent.make_payload("seller", 4))
    assert isinstance(first, Reject) and (first.reason, first.detail) == ("cp-declined", "limit-exceeded")
    assert (stack.rs.records, stack.rs.spent_count) == ([], 0)
    assert stack.rs.aggregate("seller").body == stack.rs.none_body
    assert stack.cp.balance(agent.user_account) == 10 and len(agent.fresh_tickets()) == 1
    stack.cp.charge(agent.user_account, -100, group=1, phase="ex_post", ref="top-up")
    assert isinstance(agent.redeem_ticket(ticket, agent.make_payload("seller", 4)), Ack)
    assert [e.amount for e in stack.cp.history(agent.user_account) if e.phase == "ex_post"] == [-100, 40]
    assert stack.cp.balance(agent.user_account) == 110 - 40
    assert stack.rs.aggregate("seller").count == 1 and len(agent.tickets) == 1 and agent.fresh_tickets() == []


def test_a_submission_from_an_account_the_provider_does_not_know_is_an_error():
    """The ex-post charge of a platform with no account raises
    ``unknown-account``: ``rs/submit`` answers that error, and nothing is stored."""
    stack = make_stack(1, policy=PricingPolicy.flat({1: 40, 2: 40, 3: 40}), charging="ex_post")
    agent = stack.new_agent("a", register=False)
    agent.register()  # registered at the authority, with no account at the provider
    ticket, payload, chain = honest_chain(stack, agent)
    client = RsClient(InprocTransport(Router(rs=stack.rs)))
    with raises_code("unknown-account"):
        client.submit_rating(payload, chain)
    assert (stack.rs.records, stack.rs.spent_count, stack.rs.subjects()) == ([], 0, [])


def test_blacklisted_platform_can_still_redeem_issued_ticket():
    stack = make_stack(1)
    agent = stack.new_agent("a")
    ticket = agent.acquire_ticket(1)
    stack.pca.blacklist(agent.platform_id, True)
    result = agent.redeem_ticket(ticket, agent.make_payload("seller", 4))
    assert isinstance(result, Ack)


def test_persistence_round_trip(tmp_path):
    rating_log = tmp_path / "ratings.log"
    stack = make_stack(1, rs_kwargs={"rating_log": rating_log})
    agent = stack.new_agent("a")
    submitted = []
    for subject, score in (("s1", 5), ("s2", 2)):
        t, p, c = honest_chain(stack, agent, subject=subject, score=score)
        stack.rs.submit_rating(p, c)
        submitted.append((p, c))

    # the rating log alone restores the spend set
    revived = ReputationSystem("rs-test", rating_log=rating_log)
    assert len(revived.records) == 2
    assert revived.spent_count == 2
    assert revived.aggregate("s1").score == Fraction(5)
    revived.configure_groups(stack.pca.group_registry())
    for payload, chain in submitted:
        assert revived.submit_rating(payload, chain).reason == "double-spend"


def test_an_existing_spend_snapshot_is_refused(tmp_path):
    """The rating log is the one record of spent tickets, so a spend snapshot
    is never read: a file at ``spent_snapshot``, whatever it holds, is refused
    ``invalid-argument``, and a path that names no file is accepted."""
    path = tmp_path / "rs-spent.snap"
    assert ReputationSystem("rs-test", spent_snapshot=path).spent_count == 0
    for content in (encode({"spent": {"d" * 64: 7}}), encode({"spent": {}}), encode([7]), b"garbage"):
        path.write_bytes(content)
        with raises_code("invalid-argument"):
            ReputationSystem("rs-test", spent_snapshot=path)


def logged_rating(tmp_path) -> tuple[Path, dict]:
    """A rating log holding one accepted rating, and that logged record."""
    log = tmp_path / "ratings.log"
    stack = make_stack(1, rs_kwargs={"rating_log": log})
    agent = stack.new_agent("a")
    assert isinstance(agent.redeem_ticket(agent.acquire_ticket(1), agent.make_payload("seller-1", 4)), Ack)
    (record,) = read_records(log)
    return log, record


@pytest.mark.parametrize("chain_digest", ["same", "another"])
def test_replay_refuses_a_second_record_for_one_ticket(tmp_path, chain_digest):
    """A rating log that holds two records of one ticket replayed as two
    ratings, its subject counted twice, where the live path answers
    ``double-spend``: replay refuses the second record with that reject."""
    log, record = logged_rating(tmp_path)
    append_record(log, encode(record if chain_digest == "same" else {**record, "chain_digest": "0" * 64}))
    with raises_code("double-spend") as excinfo:
        ReputationSystem("rs-test", rating_log=log)
    assert str(excinfo.value) == "ticket already redeemed"


# edits of a logged payload that the live path rejects before it logs, with
# that reject's reason and detail
UNACCEPTABLE_PAYLOADS = {
    "score-above-scale": ({"score": 1000}, "bad-payload", "score outside 1..5"),
    "score-below-scale": ({"score": 0}, "bad-payload", "score outside 1..5"),
    "empty-nonce": ({"nonce": b""}, "bad-payload", "empty nonce"),
    "empty-subject": ({"subject": ""}, "bad-payload", "empty subject"),
    "another-rs": ({"rs_id": "elsewhere"}, "wrong-rs", "payload addressed to another system"),
}


@pytest.mark.parametrize("edit, code, detail", UNACCEPTABLE_PAYLOADS.values(), ids=UNACCEPTABLE_PAYLOADS.keys())
def test_replay_refuses_a_record_the_live_path_rejects(tmp_path, edit, code, detail):
    """Replay applies the live acceptance rules that a record's own fields
    can break, so a logged rating the live path would have rejected is not
    aggregated: it stops the rebuild with the live reject."""
    log, record = logged_rating(tmp_path)
    append_record(log, encode({**record, "payload": {**record["payload"], **edit}, "aik_digest": "f" * 64}))  # a fresh ticket
    with raises_code(code) as excinfo:
        ReputationSystem("rs-test", rating_log=log)
    assert str(excinfo.value) == detail


def test_rating_log_replay_supports_aggregation_oracle(tmp_path):
    path = tmp_path / "ratings.log"
    rng = random.Random(3)
    pairs = []
    for n in range(20):
        impact, score = Fraction(rng.randrange(1, 9), rng.randrange(1, 4)), rng.randrange(1, 6)
        pairs.append((impact, score))
        payload = RatingPayload("subj", score, nonce=b"x%d" % n, rs_id="rs-test")
        record = reputation.rating_record_bytes(f"aik-{n:03d}", f"{n:03d}", 1, str(impact), payload.canonical_bytes(), n)
        append_record(path, record)
    rs = ReputationSystem("rs-test", rating_log=path)
    assert len(rs.records) == rs.spent_count == 20
    assert rs.aggregate("subj").score == _brute_force(pairs)
