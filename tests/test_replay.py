"""Live state equals replayed state: each service runs a seeded random mix of
operations with its log configured, including declines under a credit
limit, blacklisted platforms, charges that raise and double spends; a new
instance rebuilt from that log must hold exactly the live state. A log line
replay refuses stops the one service that replays it with one error."""

import base64
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from pseudorate.agent import TicketDenied
from pseudorate.charging import PHASES, ChargingProvider, Declined, PricingPolicy, RevenueShares
from pseudorate.clock import SimClock
from pseudorate.encoding import EncodingError, encode, read_records
from pseudorate.errors import TicketError
from pseudorate.privacy_ca import GroupConfig, PrivacyCa
from pseudorate.reputation import Ack, ReputationSystem
from pseudorate.scenario import ScenarioConfig, run_scenario

from support import TOKEN, ledger_state, make_stack, rating_state

BASIC = Path(__file__).resolve().parent.parent / "scenarios" / "basic.json"

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
    for n in range(300):
        clock.advance(rng.randrange(0, 3))
        result = cp.charge(
            rng.choice(accounts), rng.randrange(-50, 120), group=rng.randrange(1, 4), phase=rng.choice(PHASES), ref=f"r{n}"
        )
        declined += isinstance(result, Declined)
    assert 0 < declined < 300

    revived = ChargingProvider(clock, shares=SHARES, credit_limit=100, ledger_log=path)
    assert ledger_state(revived) == ledger_state(cp)
    # the receipt sequence continues where the live instance left off
    assert revived.charge("acct-0", 1, group=1, phase="ex_post", ref="r300").receipt_id == f"rcpt-{300 - declined + 1:06d}"


def _drive(tmp_path, seed: int, charging: str):
    """Random traffic through a stack with all three logs configured;
    returns the stack and the outcome counts."""
    stack = make_stack(
        seed,
        policy=POLICY,
        shares=SHARES,
        charging=charging,
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
            try:
                result = agent.redeem_ticket(ticket, agent.make_payload(f"s{rng.randrange(4)}", rng.randrange(1, 6)))
                outcomes["ack" if isinstance(result, Ack) else result.reason] += 1
            except TicketError as exc:  # an ex-post charge that raises
                assert exc.code == "unknown-account"
                outcomes["charge-raised"] += 1
    return stack, outcomes


def _check_charge_failures(outcomes, charging: str) -> None:
    """A declined charge refuses the ticket at acquisition and the rating ex
    post; a raising one is seen here at acquisition only, and the wire test
    of an unknown account covers it ex post."""
    assert outcomes["cp-declined"] > 0
    if charging == "acquisition":
        assert outcomes["charge-raised"] > 0


@pytest.mark.parametrize("charging", ["acquisition", "ex_post"])
def test_authority_live_state_equals_replayed(tmp_path, charging):
    stack, outcomes = _drive(tmp_path, 21, charging)
    for outcome in ("issued", "blacklisted"):
        assert outcomes[outcome] > 0, outcome
    _check_charge_failures(outcomes, charging)
    revived = PrivacyCa(
        {g: GroupConfig(impact=Fraction(g)) for g in (1, 2, 3)},
        rng=random.Random(0),
        issuance_log=tmp_path / "pca-issuance.log",
    )
    assert revived._platforms == stack.pca._platforms
    assert any(record.issued for record in revived._platforms.values())
    assert revived._tickets == stack.pca._tickets


@pytest.mark.parametrize("charging", ["acquisition", "ex_post"])
def test_ledger_and_ratings_of_a_stack_equal_replayed(tmp_path, charging):
    stack, outcomes = _drive(tmp_path, 22, charging)
    for outcome in ("ack", "double-spend"):
        assert outcomes[outcome] > 0, outcome
    _check_charge_failures(outcomes, charging)
    # built with the stack's configuration: the fold compared holds the policy in force
    cp = ChargingProvider(
        SimClock(), policy=POLICY, shares=SHARES, credit_limit=0, ledger_log=tmp_path / "cp-ledger.log"
    )
    assert ledger_state(cp) == ledger_state(stack.cp)
    rs = ReputationSystem("rs-test", rating_log=tmp_path / "rs-ratings.log")
    rs.configure_groups(stack.pca.group_registry())
    assert rating_state(rs) == rating_state(stack.rs)
    # the running per-subject sums are rebuilt by the same fold
    assert len(rs.subjects()) > 1
    assert rs.subjects() == stack.rs.subjects()
    for subject in rs.subjects():
        assert rs.aggregate(subject) == stack.rs.aggregate(subject)


def _expost_charges_and_ratings(cp, pca, rs) -> tuple[Counter, Counter]:
    """Per account, its ex-post ledger entries and the stored ratings of its tickets."""
    charges = Counter(e.account_id for a in cp._accounts for e in cp.history(a) if e.phase == "ex_post")
    ratings = Counter(pca.resolve_identity(digest, TOKEN).user_account for digest in rs._spent)
    return charges, ratings


def test_each_stored_rating_is_paid_for_live_and_after_a_rebuild(tmp_path):
    """Declined charges included, an account's ex-post charges are exactly
    its stored ratings, in the live stack and in services rebuilt from its logs."""
    stack, outcomes = _drive(tmp_path, 22, "ex_post")
    assert outcomes["cp-declined"] > 0 and outcomes["ack"] > 0
    charges, ratings = _expost_charges_and_ratings(stack.cp, stack.pca, stack.rs)
    assert charges == ratings and sum(ratings.values()) == outcomes["ack"]
    cp = ChargingProvider(SimClock(), shares=SHARES, credit_limit=0, ledger_log=tmp_path / "cp-ledger.log")
    pca = PrivacyCa(
        {g: GroupConfig(impact=Fraction(g)) for g in (1, 2, 3)},
        rng=random.Random(0),
        authority_tokens={TOKEN},
        issuance_log=tmp_path / "pca-issuance.log",
    )
    rs = ReputationSystem("rs-test", rating_log=tmp_path / "rs-ratings.log")
    assert _expost_charges_and_ratings(cp, pca, rs) == (charges, ratings)


LOGS = ("cp-ledger.log", "pca-issuance.log", "rs-ratings.log")
# (log, case, the record appended, made from the log's last record, and the
# one error its replay gives): each is decodable, but not of its log's shape
WRONG_SHAPES = [
    ("cp-ledger.log", "unknown-kind", lambda _: {"kind": "x"}, "ledger record of unknown kind 'x'"),
    ("cp-ledger.log", "missing-field", lambda _: {"kind": "open", "account": "z"}, "ledger record: missing 'balance'"),
    (
        "cp-ledger.log",
        "wrong-type",
        lambda _: {"kind": "open", "account": "z", "balance": "10"},
        "ledger record: balance must be int, not str",
    ),
    ("pca-issuance.log", "unknown-kind", lambda _: {"kind": "x"}, "issuance record of unknown kind 'x'"),
    (  # the ledger is the one record of a charge
        "pca-issuance.log",
        "charge-kind",
        lambda last: {"kind": "charge", "account": "acct-buyer", "charge_ref": last["charge_ref"], "receipt": "r"},
        "issuance record of unknown kind 'charge'",
    ),
    (
        "pca-issuance.log",
        "platform-info",
        lambda _: {"kind": "register", "platform_id": "p", "ek_public": b"", "user_account": "x", "platform_info": {}},
        "issuance record: unknown field 'platform_info'",
    ),
    (
        "pca-issuance.log",
        "missing-field",
        lambda last: {k: v for k, v in last.items() if k != "charge_ref"},
        "issuance record: missing 'charge_ref'",
    ),
    (
        "pca-issuance.log",
        "wrong-type",
        lambda last: {**last, "group": str(last["group"])},
        "issuance record: group must be int, not str",
    ),
    ("rs-ratings.log", "unknown-kind", lambda _: {"kind": "x"}, "rating record: unknown field 'kind'"),
    (
        "rs-ratings.log",
        "missing-field",
        lambda last: {k: v for k, v in last.items() if k != "aik_digest"},
        "rating record: missing 'aik_digest'",
    ),
    (
        "rs-ratings.log",
        "wrong-type",
        lambda last: {**last, "group": str(last["group"])},
        "rating record: group must be int, not str",
    ),
]
# (log, case, the record appended, or a list of them, and its one error):
# each is of its log's shape, but its values name nothing an earlier record
# made, make again what an earlier record made, or are out of range
WRONG_VALUES = [
    (
        "cp-ledger.log",
        "charge-to-an-unopened-account",
        lambda last: {**last, "account": "nope"},
        "unknown-account: unknown account nope",
    ),
    (
        "cp-ledger.log",
        "policy-refused",
        lambda _: {"kind": "policy", "policy": {"kind": "bogus"}},
        "invalid-argument: unknown pricing kind 'bogus'",
    ),
    (
        "cp-ledger.log",
        "policy-with-a-bad-group",
        lambda _: {"kind": "policy", "policy": {"kind": "flat", "per_group": {"01": 7}}},
        "invalid-argument: bad policy record: bad group id '01'",
    ),
    (
        "cp-ledger.log",
        "second-opening-of-an-account",  # not the scenario's account, which its run opens again
        lambda _: [{"kind": "open", "account": "acct-other", "balance": balance} for balance in (0, 1_000_000)],
        "duplicate-account: account acct-other already open",
    ),
    (
        "cp-ledger.log",
        "charge-in-an-unknown-phase",
        lambda last: {**last, "phase": "bogus"},
        "invalid-argument: unknown charging phase 'bogus'",
    ),
    (
        "cp-ledger.log",
        "repeated-receipt",
        lambda last: last,
        "out-of-order-receipt: receipt rcpt-000001 is not the next, rcpt-000002",
    ),
    (
        "cp-ledger.log",
        "second-charge-of-a-ref",
        lambda last: [{**last, "receipt": f"rcpt-{n:06d}", "ref": "r"} for n in (2, 3)],
        "duplicate-charge: ref r is already charged",
    ),
    (
        "pca-issuance.log",
        "second-registration-of-a-platform",
        lambda last: {"kind": "register", "platform_id": last["platform_id"], "ek_public": bytes(32), "user_account": "x"},
        "duplicate-ek: endorsement key already registered",
    ),
    (
        "pca-issuance.log",
        "registration-of-a-key-no-blob-can-be-sealed-to",
        lambda _: {"kind": "register", "platform_id": "p", "ek_public": bytes(32), "user_account": "x"},
        "invalid-argument: not an endorsement key a blob can be sealed to",
    ),
    (
        "pca-issuance.log",
        "blacklist-of-an-unregistered-platform",
        lambda _: {"kind": "blacklist", "platform_id": "nope", "flag": 1},
        "unknown-platform: platform not registered",
    ),
    (
        "pca-issuance.log",
        "issue-to-an-unregistered-platform",
        lambda last: {**last, "platform_id": "nope"},
        "unknown-platform: platform not registered",
    ),
    (
        "pca-issuance.log",
        "second-issue-of-an-identity-key",
        lambda last: last,
        "duplicate-aik: identity key already carries a ticket",
    ),
    (
        "pca-issuance.log",
        "issue-in-an-unconfigured-group",
        lambda last: {**last, "aik_digest": "f" * 64, "group": 9},
        "unknown-group: group 9 is not configured",
    ),
    (
        "rs-ratings.log",
        "second-rating-of-a-ticket",
        lambda last: last,
        "double-spend: ticket already redeemed",
    ),
    (
        "rs-ratings.log",
        "score-outside-the-scale",
        lambda last: {**last, "payload": {**last["payload"], "score": 9}, "aik_digest": "f" * 64},
        "bad-payload: score outside 1..5",
    ),
] + [
    (
        "rs-ratings.log",
        f"impact-{case}",
        lambda last, impact=impact: {**last, "impact": impact},
        f"rating record: impact must be a positive fraction, not {impact!r}",
    )
    for case, impact in [("abc", "abc"), ("zero", "0"), ("negative", "-1/2"), ("zero-denominator", "1/0")]
]


def _replay(log: str, path: Path) -> None:
    """Build the one service that replays ``log``, as basic.json configures it."""
    if log == "cp-ledger.log":
        ChargingProvider(ledger_log=path)
    elif log == "pca-issuance.log":
        PrivacyCa(ScenarioConfig.from_json_file(BASIC).groups, rng=random.Random(0), issuance_log=path)
    else:
        ReputationSystem("rs-market", rating_log=path)


@pytest.mark.parametrize(
    "log, fault, error",
    [pytest.param(log, None, "corrupt log line", id=log) for log in LOGS]
    + [pytest.param(log, fault, error, id=f"{log}-{case}") for log, case, fault, error in WRONG_SHAPES + WRONG_VALUES],
)
def test_a_log_line_replay_refuses_stops_its_service_with_one_error(log, fault, error, tmp_path):
    """A log line that does not decode, or that decodes to a record of the
    wrong shape or with values replay refuses, stops the service that
    replays it with one error: ``code: message`` for a :class:`TicketError`,
    the bare message for an :class:`EncodingError`."""
    run_scenario(ScenarioConfig.from_json_file(BASIC), state_dir=tmp_path)
    if fault is None:
        lines = [b"garbage!!"]
    else:
        records = fault(read_records(tmp_path / log)[-1])
        lines = [base64.b64encode(encode(r)) for r in (records if isinstance(records, list) else [records])]
    with open(tmp_path / log, "ab") as handle:
        handle.write(b"".join(line + b"\n" for line in lines))
    with pytest.raises((TicketError, EncodingError)) as excinfo:
        _replay(log, tmp_path / log)
    exc = excinfo.value
    assert (f"{exc.code}: {exc}" if isinstance(exc, TicketError) else str(exc)) == error
