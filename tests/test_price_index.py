"""The provider's ledger is the one count of the charges an account has paid:
under increasing prices the n-th charge of an account costs
``price(policy, group, n)``, whatever the authority logged or lost, and
across rebuilds of either service from its log."""

import random
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from pseudorate.agent import TicketDenied, TrustedAgent
from pseudorate.charging import ChargingProvider, PricingPolicy, price
from pseudorate.clock import SimClock
from pseudorate.encoding import append_record, read_records
from pseudorate.privacy_ca import Challenge, GroupConfig, PrivacyCa
from pseudorate.reputation import ReputationSystem
from pseudorate.tpm import TpmInstance

from support import make_stack

POLICY = PricingPolicy.increasing({1: 40, 2: 60, 3: 80}, step=15)
GROUPS = {g: GroupConfig(impact=Fraction(g)) for g in (1, 2, 3)}


def amounts(cp: ChargingProvider, account: str) -> list[int]:
    return [entry.amount for entry in cp.history(account)]


def test_a_charge_the_authority_never_logged_still_raises_the_price(tmp_path):
    """A crash between the provider's append and the authority's loses
    nothing: the next ticket costs the next price."""
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
    _, public = agent.tpm.make_identity()
    assert isinstance(stack.pca.request_credential(public, 1, agent.platform_id), Challenge)
    assert amounts(stack.cp, agent.user_account) == [100]
    issuance.write_bytes(snapshot)  # the authority's append after the charge never happened

    cp = ChargingProvider(SimClock(), policy=policy, ledger_log=ledger)
    pca = PrivacyCa(
        {1: GroupConfig(impact=Fraction(1))},
        rng=random.Random(0),
        charging=cp,
        pricing=policy,
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

    def rebuild(log: Path, ledger_copy: Path) -> tuple[PrivacyCa, int]:
        shutil.copy(ledger, ledger_copy)
        cp = ChargingProvider(SimClock(), policy=POLICY, ledger_log=ledger_copy)
        pca = PrivacyCa(
            GROUPS, rng=random.Random(0), charging=cp, pricing=POLICY, charge_phases=("acquisition",), issuance_log=log
        )
        _, public = agents[0].tpm.make_identity()
        assert isinstance(pca.request_credential(public, 2, agents[0].platform_id), Challenge)
        return pca, cp.history(agents[0].user_account)[-1].amount

    current, current_price = rebuild(issuance, tmp_path / "ledger-current.log")
    replayed, replayed_price = rebuild(older, tmp_path / "ledger-older.log")
    assert replayed._platforms == current._platforms
    assert replayed._platforms[agents[1].platform_id].blacklisted
    assert replayed._tickets == current._tickets
    assert len(replayed._tickets) == 6
    assert replayed_price == current_price == price(POLICY, 2, 3)


STEPS = st.lists(
    st.tuples(
        st.sampled_from(["acquire", "redeem", "retry", "restart-both", "restart-authority"]),
        st.integers(0, 1),
        st.integers(1, 3),
    ),
    max_size=10,
)


@given(st.sampled_from(["acquisition", "ex_post"]), st.lists(st.integers(0, 300), min_size=2, max_size=2), STEPS)
def test_every_charge_is_priced_at_its_place_in_the_ledger(charging, balances, steps):
    """Acquisitions, ex-post redemptions, declines under a credit limit and
    rebuilds of the provider and the authority from their logs, in any
    order: each account's i-th charge in group g is ``price(POLICY, g, i)``."""
    phases = ("acquisition",) if charging == "acquisition" else ()
    with tempfile.TemporaryDirectory() as tmp:
        ledger, issuance = Path(tmp) / "cp-ledger.log", Path(tmp) / "pca-issuance.log"
        clock, builds = SimClock(), iter(range(1_000))

        def provider() -> ChargingProvider:
            return ChargingProvider(clock, policy=POLICY, credit_limit=0, ledger_log=ledger)

        def authority(cp: ChargingProvider) -> PrivacyCa:
            pca = PrivacyCa(
                GROUPS, clock=clock, rng=random.Random(7), charging=cp, pricing=POLICY,
                charge_phases=phases, issuance_log=issuance,
            )
            # the same seed gives the same group keys, so earlier tickets still
            # redeem; each build then draws from a stream of its own, since
            # repeated blob nonces would be refused by the platform modules
            pca._randbytes = random.Random(next(builds)).randbytes
            return pca

        live = {"cp": provider()}
        live["pca"] = authority(live["cp"])
        expost = (lambda digest, group: live["pca"].charge_for_ticket(digest, group)) if charging == "ex_post" else None
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

        for op, who, group in steps:
            agent = agents[who]
            if op == "acquire":
                try:
                    agent.acquire_ticket(group)
                except TicketDenied as exc:
                    assert exc.reason == "cp-declined"
            elif op == "redeem" and agent.fresh_tickets():
                agent.redeem_ticket(agent.fresh_tickets()[0], agent.make_payload("seller", 3))
            elif op == "retry":
                rs.retry_pending_charges()
            elif op.startswith("restart"):
                if op == "restart-both":
                    live["cp"] = provider()
                live["pca"] = authority(live["cp"])
                for each in agents:
                    each._pca = live["pca"]

        for agent in agents:
            history = live["cp"].history(agent.user_account)
            assert [e.amount for e in history] == [price(POLICY, e.group, i) for i, e in enumerate(history)]
