"""Live state equals replayed state: each service runs a seeded random mix of
operations with its log configured, including declines under a credit
limit, blacklisted platforms, charges that raise and double spends; a new
instance rebuilt from that log must hold exactly the live state."""

import random
from collections import Counter
from fractions import Fraction

from pseudorate.agent import TicketDenied
from pseudorate.charging import PHASES, ChargingProvider, Declined, PricingPolicy, RevenueShares
from pseudorate.clock import SimClock
from pseudorate.errors import TicketError
from pseudorate.privacy_ca import GroupConfig, PrivacyCa
from pseudorate.reputation import Ack, ReputationSystem

from support import make_stack

SHARES = RevenueShares(Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))
POLICY = PricingPolicy.increasing({1: 40, 2: 60, 3: 80}, step=15)


def test_ledger_live_state_equals_replayed(tmp_path):
    path = tmp_path / "ledger.log"
    rng = random.Random(11)
    clock = SimClock()
    cp = ChargingProvider(clock, shares=SHARES, credit_limit=100, ledger_log=path)
    accounts = [f"acct-{i}" for i in range(5)]
    for account in accounts:
        cp.open_account(account, rng.randrange(0, 300))
    declined = 0
    for _ in range(300):
        clock.advance(rng.randrange(0, 3))
        result = cp.charge(
            rng.choice(accounts), rng.randrange(-50, 120), group=rng.randrange(1, 4), phase=rng.choice(PHASES)
        )
        declined += isinstance(result, Declined)
    assert 0 < declined < 300

    revived = ChargingProvider(clock, shares=SHARES, credit_limit=100, ledger_log=path)
    assert revived.export_state() == cp.export_state()
    # the receipt sequence continues where the live instance left off
    assert revived.charge("acct-0", 1, group=1, phase="ex_post").receipt_id == f"rcpt-{300 - declined + 1:06d}"


def _drive(tmp_path, seed: int):
    """Random traffic through a stack with all three logs configured;
    returns the stack and the outcome counts."""
    stack = make_stack(
        seed,
        policy=POLICY,
        shares=SHARES,
        charging="both",
        credit_limit=0,
        cp_kwargs={"ledger_log": tmp_path / "cp-ledger.log"},
        pca_kwargs={"issuance_log": tmp_path / "pca-issuance.log"},
        rs_kwargs={"rating_log": tmp_path / "rs-ratings.log"},
    )
    rng = random.Random(seed)
    agents = []
    outcomes: Counter = Counter()
    for _ in range(90):
        stack.clock.advance(rng.randrange(0, 3))
        op = rng.random()
        if not agents or op < 0.15:
            agent = stack.new_agent(f"a{len(agents)}", register=False)
            if rng.random() < 0.8:  # otherwise every charge for it raises
                stack.cp.open_account(agent.user_account, rng.randrange(0, 400))
            agent.register()
            agents.append(agent)
            continue
        agent = rng.choice(agents)
        if op < 0.25:
            stack.pca.blacklist(agent.platform_id, rng.random() < 0.6)
        elif op < 0.6 or not agent.tickets:
            try:
                agent.acquire_ticket(rng.randrange(1, 4))
                outcomes["issued"] += 1
            except TicketDenied as exc:
                outcomes[exc.reason] += 1
            except TicketError as exc:
                assert exc.code == "unknown-account"
                outcomes["charge-raised"] += 1
        else:
            ticket = rng.choice(agent.tickets)
            result = agent.redeem_ticket(ticket, agent.make_payload(f"s{rng.randrange(4)}", rng.randrange(1, 6)))
            outcomes["ack" if isinstance(result, Ack) else result.reason] += 1
    return stack, outcomes


def test_authority_live_state_equals_replayed(tmp_path):
    stack, outcomes = _drive(tmp_path, 21)
    for outcome in ("issued", "cp-declined", "blacklisted", "charge-raised"):
        assert outcomes[outcome] > 0, outcome
    revived = PrivacyCa(
        {g: GroupConfig(impact=Fraction(g)) for g in (1, 2, 3)}, issuance_log=tmp_path / "pca-issuance.log"
    )
    assert revived._platforms == stack.pca._platforms
    assert any(record.issued for record in revived._platforms.values())
    assert revived._tickets == stack.pca._tickets
    assert revived._account_ticket_index == stack.pca._account_ticket_index


def test_ledger_and_ratings_of_a_stack_equal_replayed(tmp_path):
    stack, outcomes = _drive(tmp_path, 22)
    for outcome in ("ack", "double-spend", "cp-declined"):
        assert outcomes[outcome] > 0, outcome
    cp = ChargingProvider(SimClock(), shares=SHARES, credit_limit=0, ledger_log=tmp_path / "cp-ledger.log")
    assert cp.export_state() == stack.cp.export_state()
    rs = ReputationSystem("rs-test", rating_log=tmp_path / "rs-ratings.log")
    rs.configure_groups(stack.pca.group_registry())
    assert rs.export_state() == stack.rs.export_state()
    # the running per-subject sums are rebuilt by the same fold
    assert len(rs.subjects()) > 1
    assert rs.subjects() == stack.rs.subjects()
    for subject in rs.subjects():
        assert rs.aggregate(subject) == stack.rs.aggregate(subject)
