"""The provider owns the price: its ledger is the one count of the charges an
account has paid, and its published policy, which the ledger logs, is the one
price. The n-th charge of an account costs ``price(policy, group, n)`` for the
policy in force at that charge, whatever the authority logged or lost, and
across rebuilds of either service from its log."""

import random
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pseudorate.agent import STATE_SPENT, TicketDenied, TrustedAgent
from pseudorate.charging import ChargingProvider, PricingPolicy, RevenueShares, price
from pseudorate.clock import SimClock
from pseudorate.encoding import append_record, read_records
from pseudorate.errors import InvalidArgument
from pseudorate.privacy_ca import GroupConfig, PrivacyCa
from pseudorate.reputation import Ack, ReputationSystem
from pseudorate.tpm import TpmInstance
from pseudorate.wire import CpClient, InprocTransport, Router

from support import make_stack

POLICY = PricingPolicy.increasing({1: 40, 2: 60, 3: 80}, step=15)
GROUPS = {g: GroupConfig(impact=Fraction(g)) for g in (1, 2, 3)}


def amounts(cp: ChargingProvider, account: str) -> list[int]:
    return [entry.amount for entry in cp.history(account)]


def test_a_charge_the_authority_never_logged_still_raises_the_price(tmp_path):
    """A crash at the issue commit, between the provider's append and the
    authority's, loses nothing: the next ticket costs the next price."""
    policy = PricingPolicy.increasing({1: 100}, step=10)
    ledger, issuance = tmp_path / "cp-ledger.log", tmp_path / "pca-issuance.log"
    stack = make_stack(
        5,
        group_count=1,
        policy=policy,
        charging="acquisition",
        cp_kwargs={"ledger_log": ledger},
        pca_kwargs={"issuance_log": issuance},
        rs_kwargs={"rating_log": tmp_path / "rs-ratings.log"},
    )
    agent = stack.new_agent("a")
    snapshot = issuance.read_bytes()
    agent.acquire_ticket(1)
    assert amounts(stack.cp, agent.user_account) == [100]
    issuance.write_bytes(snapshot)  # the authority's append after the charge never happened

    cp = ChargingProvider(SimClock(), policy=policy, ledger_log=ledger)
    pca = PrivacyCa(
        {1: GroupConfig(impact=Fraction(1))},
        rng=random.Random(0),
        charging=cp,
        charge_phases=("acquisition",),
        issuance_log=issuance,
    )
    revived = TrustedAgent(agent.tpm, pca, stack.rs, user_account=agent.user_account, rs_id=stack.rs.rs_id)
    revived.platform_id = agent.platform_id
    revived.acquire_ticket(1)
    assert amounts(cp, agent.user_account) == [100, 110]


def test_charge_records_of_older_issuance_logs_are_skipped(tmp_path):
    """Issuance logs written while the authority kept its own price index
    hold a "charge" record for each paid charge. Replay skips them: the
    rebuilt authority and the next price are those of the log without them."""
    ledger, issuance = tmp_path / "cp-ledger.log", tmp_path / "pca-issuance.log"
    stack = make_stack(
        3,
        policy=POLICY,
        charging="acquisition",
        cp_kwargs={"ledger_log": ledger},
        pca_kwargs={"issuance_log": issuance},
    )
    agents = [stack.new_agent(name) for name in "ab"]
    for group in (1, 3, 2):
        for agent in agents:
            agent.acquire_ticket(group)
    stack.pca.blacklist(agents[1].platform_id, True)

    older = tmp_path / "older-issuance.log"
    receipts = {agent.user_account: iter(stack.cp.history(agent.user_account)) for agent in agents}
    accounts = {}
    for record in read_records(issuance):
        if record["kind"] == "register":
            accounts[record["platform_id"]] = record["user_account"]
        elif record["kind"] == "issue":
            account = accounts[record["platform_id"]]
            receipt = next(receipts[account]).receipt_id
            charge = {"kind": "charge", "account": account, "charge_ref": record["charge_ref"], "receipt": receipt}
            append_record(older, charge)
        append_record(older, record)
    assert sum(record["kind"] == "charge" for record in read_records(older)) == 6

    def rebuild(log: Path, ledger_copy: Path) -> tuple[PrivacyCa, ChargingProvider]:
        shutil.copy(ledger, ledger_copy)
        cp = ChargingProvider(SimClock(), policy=POLICY, ledger_log=ledger_copy)
        pca = PrivacyCa(GROUPS, rng=random.Random(0), charging=cp, charge_phases=("acquisition",), issuance_log=log)
        return pca, cp

    def next_price(pca: PrivacyCa, cp: ChargingProvider) -> int:
        handle, public = agents[0].tpm.make_identity()
        challenge = pca.request_credential(public, 2, agents[0].platform_id)
        pca.complete_handshake(challenge.nonce, agents[0].tpm.sign_issuance_nonce(handle, challenge.nonce))
        return cp.history(agents[0].user_account)[-1].amount

    current, current_cp = rebuild(issuance, tmp_path / "ledger-current.log")
    replayed, replayed_cp = rebuild(older, tmp_path / "ledger-older.log")
    assert replayed._platforms == current._platforms
    assert replayed._platforms[agents[1].platform_id].blacklisted
    assert replayed._tickets == current._tickets
    assert len(replayed._tickets) == 6
    assert next_price(replayed, replayed_cp) == next_price(current, current_cp) == price(POLICY, 2, 3)


# a step: an action by one of two agents in one group, or a policy set through
# cp/admin/policy, in force from the next charge on and kept across rebuilds
POLICIES = [
    POLICY,
    PricingPolicy.flat({1: 7, 2: 9, 3: 11}),
    PricingPolicy.increasing({1: 5, 2: 5, 3: 5}, step=30),
    PricingPolicy.free(),
    PricingPolicy.reverse(20),
]
STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["acquire", "abandon", "redeem", "restart-both", "restart-authority"]),
            st.integers(0, 1),
            st.integers(1, 3),
        ),
        st.tuples(st.just("set-policy"), st.sampled_from(POLICIES)),
    ),
    max_size=10,
)


@given(st.sampled_from(["acquisition", "ex_post"]), st.lists(st.integers(0, 300), min_size=2, max_size=2), STEPS)
@example(  # a credit set for acquisitions, refused at the request, and kept across a rebuild
    "acquisition", [300, 300], [("set-policy", POLICIES[-1]), ("acquire", 0, 1), ("restart-both", 1, 1), ("abandon", 1, 2)]
)
@example(  # a ticket bought at one price and redeemed, after a rebuild, at another
    "ex_post", [300, 300], [("acquire", 0, 1), ("set-policy", POLICIES[1]), ("restart-both", 0, 1), ("redeem", 0, 1)]
)
def test_every_charge_is_priced_at_its_place_in_the_ledger(charging, balances, steps):
    """Acquisitions, abandoned requests, ex-post redemptions, declines under
    a credit limit, policies set through ``cp/admin/policy`` and rebuilds of
    the provider and the authority from their logs, in any order: each
    account's i-th charge in group g is ``price(policy, g, i)`` for the policy
    in force at its commit, which is the one ``cp/policy`` publishes; a credit
    never pays for a ticket; and each account has paid for exactly the
    tickets it holds under acquisition charging, and exactly the tickets it
    has redeemed ex post."""
    phases = ("acquisition",) if charging == "acquisition" else ()
    with tempfile.TemporaryDirectory() as tmp:
        ledger, issuance = Path(tmp) / "cp-ledger.log", Path(tmp) / "pca-issuance.log"
        clock = SimClock()

        def provider() -> ChargingProvider:
            # built with the opening policy; a policy set since is replayed from the ledger
            return ChargingProvider(clock, policy=POLICY, credit_limit=0, ledger_log=ledger)

        def authority(cp: ChargingProvider) -> PrivacyCa:
            # the same seed gives the same group keys, so earlier tickets still redeem
            return PrivacyCa(
                GROUPS, clock=clock, rng=random.Random(7), charging=cp, charge_phases=phases, issuance_log=issuance
            )

        live = {"cp": provider()}
        live["pca"] = authority(live["cp"])
        expost = (lambda digest: live["pca"].charge_for_ticket(digest)) if charging == "ex_post" else None
        rs = ReputationSystem("rs-test", clock=clock, expost_charge=expost)
        rs.configure_groups(live["pca"].group_registry())
        agents = []
        for i, balance in enumerate(balances):
            rng = random.Random(i)
            tpm = TpmInstance(rng=rng)
            agent = TrustedAgent(tpm, live["pca"], rs, user_account=f"acct-{i}", rs_id="rs-test", rng=rng)
            live["cp"].open_account(agent.user_account, balance)
            agent.register()
            agents.append(agent)

        in_force = POLICY
        priced = {agent.user_account: [] for agent in agents}  # what each charge should have cost
        for op, *args in steps:
            if op == "set-policy":
                (in_force,) = args
                CpClient(InprocTransport(Router(cp=live["cp"]))).set_policy(in_force)
                continue
            who, group = args
            agent = agents[who]
            credit_refused = charging == "acquisition" and in_force.kind == "reverse"
            try:
                if op == "acquire":
                    try:
                        agent.acquire_ticket(group)
                    except TicketDenied as exc:
                        assert exc.reason == "cp-declined"
                elif op == "abandon":  # a challenge never answered
                    live["pca"].request_credential(agent.tpm.make_identity()[1], group, agent.platform_id)
                elif op == "redeem" and agent.fresh_tickets():
                    agent.redeem_ticket(agent.fresh_tickets()[0], agent.make_payload("seller", 3))
                assert not (credit_refused and op in ("acquire", "abandon"))
            except InvalidArgument:
                assert credit_refused and op in ("acquire", "abandon")
            if op.startswith("restart"):
                if op == "restart-both":
                    live["cp"] = provider()
                live["pca"] = authority(live["cp"])
                for each in agents:
                    each._pca = live["pca"]
            assert PricingPolicy.from_record(CpClient(InprocTransport(Router(cp=live["cp"]))).get_policy()) == in_force
            for each in agents:
                history, expected = live["cp"].history(each.user_account), priced[each.user_account]
                expected += [price(in_force, e.group, i) for i, e in enumerate(history) if i >= len(expected)]

        for agent in agents:
            history = live["cp"].history(agent.user_account)
            assert [e.amount for e in history] == priced[agent.user_account]
            if charging == "acquisition":
                assert len(history) == len(agent.tickets)
                assert all(e.amount >= 0 for e in history)
            else:
                assert len(history) == sum(t.state == STATE_SPENT for t in agent.tickets)


SEVEN = PricingPolicy.flat({1: 7})


def buy_one(agent: TrustedAgent, charging: str) -> None:
    """Pay for one ticket: at acquisition, or ex post by redeeming it."""
    ticket = agent.acquire_ticket(1)
    if charging == "ex_post":
        assert isinstance(agent.redeem_ticket(ticket, agent.make_payload("seller", 3)), Ack)


@pytest.mark.parametrize("charging", ["acquisition", "ex_post"])
def test_the_price_charged_is_the_policy_the_provider_publishes(tmp_path, charging):
    """``cp/admin/policy`` sets the price charged from the next charge on,
    in both charging modes, and a provider and an authority rebuilt from
    their logs keep charging it. While the authority priced with a copy of
    its own, setting flat 7 changed what ``cp/policy`` published, and the
    next ticket still cost 100."""
    ledger, issuance = tmp_path / "cp-ledger.log", tmp_path / "pca-issuance.log"
    stack = make_stack(
        5,
        group_count=1,
        policy=PricingPolicy.flat({1: 100}),
        charging=charging,
        cp_kwargs={"ledger_log": ledger},
        pca_kwargs={"issuance_log": issuance},
    )
    agent = stack.new_agent("a")
    client = CpClient(InprocTransport(Router(cp=stack.cp)))
    client.set_policy(SEVEN)
    published = PricingPolicy.from_record(client.get_policy())
    buy_one(agent, charging)
    assert amounts(stack.cp, agent.user_account) == [price(published, 1, 0)] == [7]

    # built with the opening policy: the logged one wins
    cp = ChargingProvider(SimClock(), policy=PricingPolicy.flat({1: 100}), ledger_log=ledger)
    phases = ("acquisition",) if charging == "acquisition" else ()
    pca = PrivacyCa(GROUPS, rng=random.Random(0), charging=cp, charge_phases=phases, issuance_log=issuance)
    rs = ReputationSystem(stack.rs.rs_id, expost_charge=pca.charge_for_ticket if charging == "ex_post" else None)
    rs.configure_groups(pca.group_registry())
    assert cp.policy == published
    revived = TrustedAgent(agent.tpm, pca, rs, user_account=agent.user_account, rs_id=rs.rs_id)
    revived.platform_id = agent.platform_id
    buy_one(revived, charging)
    assert amounts(cp, agent.user_account) == [7, 7]


def test_a_policy_record_is_not_a_charge(tmp_path):
    """A policy set between charges moves no receipt number, no price index,
    no history and no revenue, live or replayed, and the exported state
    carries it."""
    ledger = tmp_path / "cp-ledger.log"
    shares = RevenueShares(Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))
    cp = ChargingProvider(SimClock(), policy=POLICY, shares=shares, ledger_log=ledger)
    cp.open_account("acct", 1000)
    cp.charge("acct", 100, group=1, phase="acquisition")
    before = (cp.history("acct"), cp.charge_count("acct"), cp.balance("acct"), cp.revenue_totals)
    cp.set_policy(SEVEN)
    assert (cp.history("acct"), cp.charge_count("acct"), cp.balance("acct"), cp.revenue_totals) == before
    assert cp.charge("acct", 7, group=1, phase="acquisition").receipt_id == "rcpt-000002"
    assert read_records(ledger)[-2] == {"kind": "policy", "policy": SEVEN.to_record()}
    revived = ChargingProvider(SimClock(), policy=POLICY, shares=shares, ledger_log=ledger)
    assert revived.export_state() == cp.export_state()
    assert revived.policy == SEVEN
    assert ChargingProvider(SimClock(), policy=POLICY, shares=shares).export_state() != cp.export_state()
