import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudorate.charging import (
    ChargeReceipt,
    ChargingProvider,
    Declined,
    PricingPolicy,
    RevenueShares,
    price,
    split_revenue,
)
from pseudorate.clock import SimClock
from pseudorate.errors import InvalidArgument, UnknownGroup

from support import make_stack, raises_code

THIRDS = RevenueShares(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


# -- pricing -------------------------------------------------------------------


def test_free_policy_is_zero():
    assert price(PricingPolicy.free(), 1, 0) == 0
    assert price(PricingPolicy.free(), 7, 100) == 0


def test_flat_policy():
    policy = PricingPolicy.flat({1: 100, 2: 250})
    assert price(policy, 2, 9) == 250


def test_increasing_policy_formula():
    policy = PricingPolicy.increasing({1: 100}, step=10)
    assert price(policy, 1, 0) == 100
    assert price(policy, 1, 3) == 130


def test_reverse_policy_is_a_credit():
    assert price(PricingPolicy.reverse(50), 1, 0) == -50


def test_unknown_group_in_params():
    with pytest.raises(UnknownGroup):
        price(PricingPolicy.flat({1: 100}), 2, 0)


def test_negative_prior_count_rejected():
    with pytest.raises(InvalidArgument):
        price(PricingPolicy.free(), 1, -1)


def test_policy_record_round_trips_and_absent_keys_take_defaults():
    policy = PricingPolicy.increasing({1: 100, 3: 40}, step=10)
    assert PricingPolicy.from_record(policy.to_record()) == policy
    assert PricingPolicy.from_record({"kind": "free"}) == PricingPolicy.free()
    assert PricingPolicy.from_record({"kind": "reverse", "incentive": 5}) == PricingPolicy.reverse(5)


@pytest.mark.parametrize(
    "record",
    [
        {"kind": "flat", "per_group": {"1": 70}, "bogus": 1},
        {"kind": "flat", "per_group": {"1": "70"}},
        {"kind": "flat", "per_group": {"1": 7.0}},
        {"kind": "flat", "per_group": {"1": True}},
        {"kind": "flat", "per_group": [["1", 70]]},
        {"kind": "increasing", "per_group": {"1": 70}, "step": b"3"},
        {"kind": "increasing", "per_group": {"1": 70}, "step": "3"},
        {"kind": "reverse", "incentive": "5"},
        {"kind": "flat", "per_group": {"one": 70}},
        {"per_group": {"1": 70}},
    ],
)
def test_policy_record_is_not_coerced(record):
    with pytest.raises(InvalidArgument):
        PricingPolicy.from_record(record)


@given(st.integers(min_value=0, max_value=9_999))
@settings(max_examples=200)
def test_increasing_policy_monotone(n):
    policy = PricingPolicy.increasing({1: 100}, step=10)
    assert price(policy, 1, n + 1) >= price(policy, 1, n)


def test_sybil_cost_laws():
    flat = PricingPolicy.flat({1: 100})
    assert sum(price(flat, 1, i) for i in range(25)) == 25 * 100
    increasing = PricingPolicy.increasing({1: 100}, step=10)
    total = sum(price(increasing, 1, i) for i in range(10))
    brute = sum(100 + 10 * i for i in range(10))
    assert total == brute == 1450


# -- revenue splitting -----------------------------------------------------------


def test_split_exact():
    shares = RevenueShares(Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))
    assert split_revenue(10, shares) == (4, 4, 2)


def test_split_zero():
    assert split_revenue(0, THIRDS) == (0, 0, 0)


def test_split_largest_remainder():
    parts = split_revenue(101, THIRDS)
    assert sum(parts) == 101
    assert max(parts) - min(parts) <= 1


def test_split_rejects_negative_amount():
    with pytest.raises(InvalidArgument):
        split_revenue(-1, THIRDS)


def test_invalid_shares_rejected():
    with raises_code("invalid-shares"):
        RevenueShares(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    with raises_code("invalid-shares"):
        RevenueShares(Fraction(3, 2), Fraction(-1, 2), Fraction(0))


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=300)
def test_split_conserves_every_amount(amount, a, b, c):
    total = a + b + c
    if total == 0:
        a, total = 1, 1
    shares = RevenueShares(Fraction(a, total), Fraction(b, total), Fraction(c, total))
    parts = split_revenue(amount, shares)
    assert sum(parts) == amount
    assert all(p >= 0 for p in parts)


# -- ledger -----------------------------------------------------------------------


def _provider(**kw):
    cp = ChargingProvider(SimClock(), **kw)
    cp.open_account("acct", 500)
    return cp


def test_charge_moves_balance():
    cp = _provider()
    receipt = cp.charge("acct", 100, group=1, phase="acquisition")
    assert isinstance(receipt, ChargeReceipt)
    assert cp.balance("acct") == 400
    assert receipt.balance_after == 400


def test_charge_returns_the_receipt_the_ledger_keeps_and_replay_rebuilds(tmp_path):
    path = tmp_path / "ledger.log"
    cp = ChargingProvider(SimClock(), shares=THIRDS, ledger_log=path)
    cp.open_account("acct", 500)
    cp.open_account("other", 0)
    receipts = [
        cp.charge("acct", 120, group=2, phase="acquisition"),
        cp.charge("other", -30, group=1, phase="ex_post"),
        cp.charge("acct", 45, group=1, phase="ex_post"),
    ]
    assert receipts[0] is cp.history("acct")[0]
    assert receipts[1] is cp.history("other")[-1]
    assert receipts[2] is cp.history("acct")[-1]
    assert [r.balance_after for r in receipts] == [380, 30, 335]
    assert [r.receipt_id for r in receipts] == ["rcpt-000001", "rcpt-000002", "rcpt-000003"]

    revived = ChargingProvider(SimClock(), shares=THIRDS, ledger_log=path)
    for account in ("acct", "other"):
        assert revived.history(account) == cp.history(account)


def test_incentive_credits_account():
    cp = _provider()
    cp.charge("acct", -50, group=1, phase="ex_post")
    assert cp.balance("acct") == 550


def test_charge_beyond_limit_declined_and_unchanged():
    cp = _provider(credit_limit=0)
    result = cp.charge("acct", 600, group=1, phase="acquisition")
    assert isinstance(result, Declined)
    assert result.reason == "limit-exceeded"
    assert cp.balance("acct") == 500
    assert cp.history("acct") == []


def test_unknown_account():
    cp = _provider()
    with raises_code("unknown-account"):
        cp.charge("ghost", 1, group=1, phase="acquisition")


def test_unknown_phase_rejected():
    cp = _provider()
    with pytest.raises(InvalidArgument):
        cp.charge("acct", 1, group=1, phase="later")


def test_replaying_history_reproduces_balance():
    cp = _provider()
    rng = random.Random(4)
    for _ in range(50):
        cp.charge("acct", rng.randrange(-50, 80), group=1, phase="ex_post")
    assert cp.replayed_balance("acct") == cp.balance("acct")


def test_revenue_totals_conserve_charges():
    cp = ChargingProvider(SimClock(), shares=THIRDS)
    cp.open_account("acct", 10_000)
    charged = 0
    rng = random.Random(9)
    for _ in range(40):
        amount = rng.randrange(-20, 200)
        result = cp.charge("acct", amount, group=1, phase="ex_post")
        if isinstance(result, ChargeReceipt) and amount > 0:
            charged += amount
    assert sum(cp.revenue_totals.values()) == charged


def test_ledger_log_replay(tmp_path):
    path = tmp_path / "ledger.log"
    cp = ChargingProvider(SimClock(), shares=THIRDS, ledger_log=path)
    cp.open_account("acct", 500)
    cp.charge("acct", 120, group=2, phase="acquisition")
    cp.charge("acct", -30, group=2, phase="ex_post")

    revived = ChargingProvider(SimClock(), shares=THIRDS, ledger_log=path)
    assert revived.balance("acct") == cp.balance("acct") == 410
    assert revived.revenue_totals == cp.revenue_totals
    # receipts keep counting upward after a restart
    receipt = revived.charge("acct", 10, group=2, phase="ex_post")
    assert receipt.receipt_id == "rcpt-000003"


def test_torn_ledger_tail_does_not_block_restart(tmp_path):
    path = tmp_path / "ledger.log"
    cp = ChargingProvider(SimClock(), shares=THIRDS, ledger_log=path)
    cp.open_account("acct", 500)
    for amount in (10, 20, 30):
        cp.charge("acct", amount, group=1, phase="ex_post")
    # a crash in the middle of the last append leaves a line without its newline
    path.write_bytes(path.read_bytes()[:-7])

    revived = ChargingProvider(SimClock(), shares=THIRDS, ledger_log=path)
    assert [e.amount for e in revived.history("acct")] == [10, 20]
    revived.charge("acct", 40, group=1, phase="ex_post")

    again = ChargingProvider(SimClock(), shares=THIRDS, ledger_log=path)
    assert [e.amount for e in again.history("acct")] == [10, 20, 40]
    assert [e.receipt_id for e in again.history("acct")] == ["rcpt-000001", "rcpt-000002", "rcpt-000003"]
    assert again.balance("acct") == again.replayed_balance("acct") == 430
    assert again.export_state() == revived.export_state()


def test_concurrent_charges_lose_no_update():
    threads_n, charges_n = 4, 5000
    cp = ChargingProvider(SimClock(), shares=THIRDS)
    cp.open_account("acct", 0)

    def work():
        for _ in range(charges_n):
            cp.charge("acct", 1, group=1, phase="ex_post")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    total = threads_n * charges_n
    assert len(cp.history("acct")) == total
    assert cp.balance("acct") == cp.replayed_balance("acct") == -total
    assert sum(cp.revenue_totals.values()) == total
    assert len({e.receipt_id for e in cp.history("acct")}) == total


def test_acquisition_charging_through_authority():
    """Ticket pricing counts per account across the issuing authority."""
    stack = make_stack(
        2, policy=PricingPolicy.increasing({1: 100, 2: 100, 3: 100}, step=10), charging="acquisition"
    )
    agent = stack.new_agent("buyer")
    start = stack.cp.balance(agent.user_account)
    for _ in range(10):
        agent.acquire_ticket(1)
    assert start - stack.cp.balance(agent.user_account) == 1450
