"""Acceptance suite: one test per criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -v -s`).

The criteria pin protocol exactness and system-wide properties: happy-path
completeness, chain soundness under exhaustive mutation and random
bit-flips, double-spend exactness under concurrency, the identity-key
signing restriction, the pseudonymity boundary, key shielding, pricing and
settlement laws, exact aggregation, and transcript determinism.
"""

import random
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pseudorate import crypto
from pseudorate.agent import TrustedAgent
from pseudorate.charging import PricingPolicy, RevenueShares, split_revenue
from pseudorate.cli import main
from pseudorate.crypto import CredentialChain, key_id_of, verify_chain
from pseudorate.encoding import EncodingError, encode
from pseudorate.errors import TicketError
from pseudorate.reputation import Ack, RatingPayload, RatingRecord, Reject, ReputationSystem
from pseudorate.tpm import TpmInstance
from pseudorate.wire import InprocTransport, PcaClient, Router, RsClient, encode_request

from support import TOKEN, all_single_field_mutants, honest_chain, make_stack, private_material, raises_code


def ok(n: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {n} {name}: PASS — {detail}")


# -- 1: happy-path completeness ------------------------------------------------


def test_1_happy_path_completeness():
    started = time.monotonic()
    stack = make_stack(100, group_count=5)
    registry = {g: pub for g, (pub, _) in stack.pca.group_registry().items()}
    runs = 0
    rng = random.Random(4242)
    for i in range(100):
        agent = stack.new_agent(f"hp{i}", seed=rng.getrandbits(64))
        group = i % 5 + 1
        ticket = agent.acquire_ticket(group)
        payload = agent.make_payload(f"subject-{rng.randrange(10)}", rng.randrange(1, 6))
        chain = agent.build_chain(ticket, payload)
        result = agent.submit_chain(ticket, payload, chain)
        assert isinstance(result, Ack), f"run {i}: {result}"
        report = verify_chain(chain, registry)
        assert report.valid and report.group == group
        runs += 1
    elapsed = time.monotonic() - started
    assert runs == 100
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    ok(1, "happy-path completeness", f"100/100 runs across 5 groups in {elapsed:.2f}s")


# -- 2: chain soundness by mutation oracle ----------------------------------------


def test_2_chain_soundness_mutation_oracle():
    stack = make_stack(200)
    agent = stack.new_agent("m")
    ticket, payload, chain = honest_chain(stack, agent, subject="target", score=5)

    mutants = 0
    for slot, fieldname, mode, mutant in all_single_field_mutants(chain):
        result = stack.rs.submit_rating(payload, mutant)
        assert isinstance(result, Reject) and result.reason == "invalid-chain", (
            f"{slot}.{fieldname} ({mode}) -> {result}"
        )
        mutants += 1

    blob = chain.to_bytes()
    registry = {g: pub for g, (pub, _) in stack.pca.group_registry().items()}
    rng = random.Random(777)
    accepted = 0
    undecodable = 0
    for _ in range(10_000):
        flipped = bytearray(blob)
        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        try:
            candidate = CredentialChain.from_bytes(bytes(flipped))
        except EncodingError:
            undecodable += 1
            continue
        result = stack.rs.submit_rating(payload, candidate)
        if isinstance(result, Ack):
            accepted += 1
    assert accepted == 0

    # the unmodified chain still redeems: mutations never burned the ticket
    assert isinstance(stack.rs.submit_rating(payload, chain), Ack)
    ok(
        2,
        "chain soundness",
        f"{mutants}/{mutants} field mutants rejected; 10000 bit-flips, 0 accepted "
        f"({undecodable} undecodable)",
    )


# -- 3: double-spend exactness under concurrency -----------------------------------


def test_3_double_spend_exactness():
    for seed in range(20):
        stack = make_stack(300 + seed)
        agent = stack.new_agent("spender")
        ticket = agent.acquire_ticket(1)
        submissions = []
        for i in range(50):
            payload = agent.make_payload("victim", 1 + i % 5)
            submissions.append((payload, agent.build_chain(ticket, payload)))
        results: list = [None] * 50
        barrier = threading.Barrier(50)

        def run(index: int) -> None:
            barrier.wait()
            results[index] = stack.rs.submit_rating(*submissions[index])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(50)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        acks = sum(isinstance(r, Ack) for r in results)
        double_spends = sum(isinstance(r, Reject) and r.reason == "double-spend" for r in results)
        assert acks == 1, f"seed {seed}: {acks} acks"
        assert double_spends == 49
        assert stack.rs.spent_count == 1
    ok(3, "double-spend exactness", "20 seeds x 50 concurrent submissions -> exactly 1 ack each")


# -- 4: identity-key usage restriction -----------------------------------------------


def test_4_identity_key_signing_restriction():
    stack = make_stack(400)
    agent = stack.new_agent("restricted")
    rng = random.Random(4)
    attempts = 0
    handles = []
    for _ in range(5):
        ticket = agent.acquire_ticket(1)
        handles.append(ticket.aik_handle)
    unactivated, _ = agent.tpm.make_identity()
    handles.append(unactivated)
    for handle in handles:
        for _ in range(20):
            payload = rng.randbytes(rng.randrange(0, 64))
            with raises_code("forbidden-aik-signing"):
                agent.tpm.sign_with_key(handle, payload)
            attempts += 1
    assert attempts == 120

    # the scoped challenge-response still works end to end
    handle, public = agent.tpm.make_identity()
    challenge = stack.pca.request_credential(public, 1, agent.platform_id)
    proof = agent.tpm.sign_issuance_nonce(handle, challenge.nonce)
    blob = stack.pca.complete_handshake(challenge.nonce, proof)
    credential = agent.tpm.activate_identity(handle, blob)
    assert crypto.verify_credential(credential)
    ok(4, "identity-key restriction", f"{attempts}/120 direct signing attempts refused; "
       "issuance challenge-response succeeds")


# -- 5 & 6 share a 100-agent colony ---------------------------------------------------


@pytest.fixture(scope="module")
def colony(tmp_path_factory):
    state = tmp_path_factory.mktemp("colony-state")
    stack = make_stack(
        500,
        policy=PricingPolicy.flat({1: 50, 2: 60, 3: 70}),
        shares=RevenueShares(Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)),
        charging="ex_post",
        cp_kwargs={"ledger_log": state / "cp-ledger.log"},
        pca_kwargs={"issuance_log": state / "pca-issuance.log"},
        rs_kwargs={"rating_log": state / "rs-ratings.log",
                   "spent_snapshot": state / "rs-spent.snap"},
    )

    tap: list = []
    router = Router(pca=stack.pca, rs=stack.rs, cp=stack.cp)
    transport = InprocTransport(router, tap=tap)

    agents = []
    issued: dict[str, str] = {}  # aik digest -> platform id
    for i in range(100):
        account = f"acct-{i:03d}"
        stack.cp.open_account(account, 1_000)
        agent = TrustedAgent(
            TpmInstance(rng=random.Random(9_000 + i)),
            PcaClient(transport),
            RsClient(transport),
            user_account=account,
            rs_id=stack.rs.rs_id,
            rng=random.Random(10_000 + i),
        )
        agent.register()
        ticket = agent.acquire_ticket(i % 3 + 1)
        issued[key_id_of(ticket.credential.entity)] = agent.platform_id
        result = agent.redeem_ticket(ticket, agent.make_payload(f"subject-{i % 7}", i % 5 + 1))
        assert isinstance(result, Ack)
        agents.append(agent)
    stack.rs.save_spent_snapshot()
    return {"stack": stack, "agents": agents, "issued": issued, "tap": tap, "state": state}


def test_5_pseudonymity_boundary(colony):
    stack, agents, issued = colony["stack"], colony["agents"], colony["issued"]
    haystacks = {
        "rs-state": stack.rs.export_state(),
        "cp-state": stack.cp.export_state(),
    }
    labels = [
        ticket.identity_label
        for record in stack.pca._platforms.values()
        for ticket in record.issued
    ]
    assert len(labels) == 100
    for name, haystack in haystacks.items():
        for agent in agents:
            assert agent.tpm.ek_public not in haystack, f"endorsement key in {name}"
            assert agent.platform_id.encode() not in haystack, f"platform id in {name}"
        for label in labels:
            assert label.encode() not in haystack, f"identity label in {name}"
    # RS additionally never sees accounts
    for agent in agents:
        assert agent.user_account.encode() not in haystacks["rs-state"]

    resolved = 0
    for digest, platform_id in issued.items():
        record = stack.pca.resolve_identity(digest, TOKEN)
        assert record.platform_id == platform_id
        resolved += 1
    assert resolved == 100
    ok(5, "pseudonymity boundary", "no platform identifiers in service state; "
       "100/100 tickets resolved by the authority alone")


def test_6_shielding(colony):
    stack, agents, tap, state = colony["stack"], colony["agents"], colony["tap"], colony["state"]
    secrets = private_material(stack, agents)
    assert len(secrets) >= 100
    messages = b"||".join(frame for _, frame in tap)
    paths = sorted(state.iterdir())
    # every service's persisted state is in the haystack, none silently missing
    assert [p.name for p in paths] == ["cp-ledger.log", "pca-issuance.log", "rs-ratings.log", "rs-spent.snap"]
    assert all(p.stat().st_size > 0 for p in paths)
    files = b"||".join(p.read_bytes() for p in paths)
    haystack = messages + b"||" + files
    for secret in secrets:
        assert secret not in haystack
        assert secret.hex().encode() not in haystack
    ok(6, "shielding", f"{len(secrets)} private keys absent from "
       f"{len(tap)} captured frames and {len(list(state.iterdir()))} persisted files")


# -- 7: pricing and settlement ----------------------------------------------------------


def test_7_pricing_and_settlement():
    # arithmetic-series charge for 10 tickets on one account
    stack = make_stack(700, policy=PricingPolicy.increasing({1: 100, 2: 100, 3: 100}, step=10),
                       charging="acquisition")
    agent = stack.new_agent("sybil")
    opening = stack.cp.balance(agent.user_account)
    for _ in range(10):
        agent.acquire_ticket(1)
    charged = opening - stack.cp.balance(agent.user_account)
    oracle = sum(100 + 10 * i for i in range(10))
    assert charged == oracle == 1450

    # conservation over random splits
    rng = random.Random(7_000)
    for _ in range(100_000):
        amount = rng.randrange(0, 10**7)
        a, b, c = rng.randrange(1000), rng.randrange(1000), rng.randrange(1000)
        total = a + b + c
        if total == 0:
            a = total = 1
        shares = RevenueShares(Fraction(a, total), Fraction(b, total), Fraction(c, total))
        parts = split_revenue(amount, shares)
        assert sum(parts) == amount

    # reverse charging produces net credits
    reverse = make_stack(701, policy=PricingPolicy.reverse(25), charging="ex_post")
    rater = reverse.new_agent("earner")
    opening = reverse.cp.balance(rater.user_account)
    for i in range(4):
        rater.rate(f"subject-{i}", 5, group=1)
    assert reverse.cp.balance(rater.user_account) == opening + 4 * 25
    ok(7, "pricing and settlement", "increasing policy charged exactly 1450; "
       "100000 random splits conserved; reverse policy credited 100")


# -- 8: aggregation oracle -----------------------------------------------------------------


def test_8_aggregation_oracle():
    rng = random.Random(8_000)
    for trial in range(1_000):
        rs = ReputationSystem("rs-agg")
        n = rng.randrange(1, 15)
        weighted = Fraction(0)
        total = Fraction(0)
        for i in range(n):
            impact = Fraction(rng.randrange(1, 50), rng.randrange(1, 9))
            score = rng.randrange(1, 6)
            # through the fold that live submissions and log replay share
            rs._apply(
                RatingRecord(
                    payload=RatingPayload("subj", score, nonce=b"%d" % i, rs_id="rs-agg"),
                    group=1,
                    impact=impact,
                    received=i,
                    chain_digest=f"{trial}-{i}",
                ),
                f"aik-{trial}-{i}",
            )
            weighted += impact * score
            total += impact
        assert rs.aggregate("subj").score == weighted / total  # exact rationals
    ok(8, "aggregation oracle", "1000 random rating sets match brute force exactly")


# -- 9: determinism ---------------------------------------------------------------------------


def test_9_transcript_determinism(tmp_path):
    paths = {name: tmp_path / f"{name}.bin" for name in ("a", "b", "sock")}
    assert main(["demo", "--seed", "42", "--out", str(paths["a"])]) == 0
    assert main(["demo", "--seed", "42", "--out", str(paths["b"])]) == 0
    assert main(["demo", "--seed", "42", "--transport", "socket", "--out", str(paths["sock"])]) == 0
    blob = paths["a"].read_bytes()
    assert paths["b"].read_bytes() == blob
    assert paths["sock"].read_bytes() == blob
    assert main(["verify", str(paths["a"])]) == 0
    ok(9, "determinism", "demo --seed 42 transcripts byte-identical across runs and transports")
