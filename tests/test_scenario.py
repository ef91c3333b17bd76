import base64
import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import pseudorate
from pseudorate.cli import demo_config, main
from pseudorate.encoding import encode, read_records
from pseudorate.errors import TicketError
from pseudorate.scenario import AgentSpec, ScenarioConfig, ScenarioError, Transcript, run_scenario

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"


def run_file(name: str, **kw) -> Transcript:
    config = ScenarioConfig.from_json_file(SCENARIOS / name)
    return run_scenario(config, **kw)


def actions(transcript: Transcript, action: str) -> list[dict]:
    return [e for e in transcript.events if e["kind"] == "action" and e["action"] == action]


def test_basic_scenario_happy_path():
    transcript = run_file("basic.json")
    assert transcript.final["ratings"] == 1
    assert transcript.final["spent"] == 1
    assert transcript.final["balances"]["acct-buyer"] == 400
    assert transcript.final["revenue"] == {"cp": 20, "pca": 40, "rs": 40}
    assert transcript.final["scores"]["seller-main"] == "4"
    # ledgers consistent: spend equals revenue plus nothing lost
    assert sum(transcript.final["revenue"].values()) == 100


def test_double_spend_scenario_one_ack_one_reject():
    transcript = run_file("double_spend.json")
    (tamper,) = actions(transcript, "tamper")
    assert tamper["outcome"] == "first=ack second=reject:double-spend"
    assert transcript.final["ratings"] == 1


def test_sybil_scenario_charges_arithmetic_series():
    transcript = run_file("sybil_increasing.json")
    assert transcript.final["balances"]["acct-sybil"] == 2000 - 1450
    assert sum(transcript.final["revenue"].values()) == 1450


def test_adversary_drills():
    transcript = run_file("adversary_drills.json")
    outcomes = {e["seq"]: e["outcome"] for e in actions(transcript, "tamper")}
    assert sorted(outcomes.values()) == sorted(
        ["reject:invalid-chain", "reject:invalid-chain", "tpm-error:forbidden-aik-signing"]
    )
    denied = [e for e in actions(transcript, "acquire") if e["outcome"].startswith("denied")]
    assert denied and denied[0]["outcome"] == "denied:blacklisted"
    # previously issued ticket still redeems after blacklisting
    assert actions(transcript, "redeem")[0]["outcome"] == "ack"
    assert actions(transcript, "resolve")[0]["outcome"] == "resolved"


# sha256 of each scenario's canonical transcript; a change to any transcript
# byte, from any layer, must show up here and be deliberate
GOLDEN_TRANSCRIPTS = {
    "adversary_drills.json": "897c124c5124af1f0d426c297eae7333cf8634c17bb535f0720b30c914d8e188",
    "basic.json": "6ac7f29255e7d87c83b1a5f92561f9841c004b9b4493dac94241f7de067e3664",
    "double_spend.json": "5ee924c8bdaab9a5c72bacbc85fdafc2424bb669e2cfd5d8176c4b40a8843115",
    "sybil_increasing.json": "28f1f621ead3ac7bc83e11cfc0149501b487c0c206f21014f3f7c4d1ff631307",
}


# what `pseudorate verify` exits with on each scenario's transcript:
# adversary_drills holds two tampered chains and sybil_increasing submits none
VERIFY_EXITS = {"adversary_drills.json": 1, "basic.json": 0, "double_spend.json": 0, "sybil_increasing.json": 1}


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_transcript_matches_golden_digest(name, tmp_path):
    blob = run_file(name).to_bytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_TRANSCRIPTS[name]
    (tmp_path / "t.bin").write_bytes(blob)
    assert main(["verify", str(tmp_path / "t.bin")]) == VERIFY_EXITS[name]


# sha256 of each state file a scenario run leaves in its state dir; the logs
# are what a restart reads, so their bytes are pinned
# as the transcripts are (sybil_increasing submits no rating, so it has no
# rating log)
GOLDEN_STATE_FILES = {
    "adversary_drills.json": {
        "cp-ledger.log": "a4475e753ac17fe0312c3dfbf1ac47e6ddbc395256981d23fa5a84670bd78e68",
        "pca-issuance.log": "94417f9e2209bfba61b632d6e2996feaafb0f65f849a31eff30ff14edb50c813",
        "rs-ratings.log": "648848e059b675b1cd04c7dc76fb61ca47e495006fd73b2cb098ce11196b9f7f",
    },
    "basic.json": {
        "cp-ledger.log": "03af514fb42982256b0e5c87d6c5573c75618c08e38e2fb9601fb8f668159a2f",
        "pca-issuance.log": "e0d1549f18213879e175e4fbe5164bb102a28d6846214705d32935e15d31d318",
        "rs-ratings.log": "0950d6a1538853d17f691d5eac0ab2e1da517093d173d2406a08c12b6561a16b",
    },
    "double_spend.json": {
        "cp-ledger.log": "b00a054ac9f7d83acccad72224facaf63c5bacf4232f2d667f6b4e18a8f8c484",
        "pca-issuance.log": "5fbc52840a6d578a97b75bcc124682345e08b241a11eb46ca72760780041ba0e",
        "rs-ratings.log": "d5565e990fc750058dbbc66baec4ecc4f43b7928aef59b3166f56386ee8d51a4",
    },
    "sybil_increasing.json": {
        "cp-ledger.log": "a43811a0644462572e261f2f9dc2a6466cef8ac0e2ebe4223038137462b09e2e",
        "pca-issuance.log": "0f5ba1de8325fe5fe6ebe32ee44f2ff6af2eed8be37bac2885e972ce14fea5f7",
    },
}


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_state_files_match_golden_digests(name, tmp_path):
    run_file(name, state_dir=tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == GOLDEN_STATE_FILES[name]


# every tamper mode on an agent with no fresh ticket, then crossover with no
# other agent, an unknown one and one with no fresh ticket; each is a
# scenario error, and an honest redeem and a score still follow
DRILL_ERRORS = {
    "seed": 11,
    "groups": {"1": {"impact": "1"}},
    "agents": [{"name": "a"}, {"name": "b"}, {"name": "c"}],
    "script": [
        {"action": "register", "agent": "a"},
        {"action": "register", "agent": "c"},
        *(
            {"action": "tamper", "agent": "a", "mode": mode, "other": "c"}
            for mode in ("bitflip", "replay", "crossover", "aik-sign")
        ),
        {"action": "acquire", "agent": "a", "group": 1},
        {"action": "tamper", "agent": "a", "mode": "crossover"},
        {"action": "tamper", "agent": "a", "mode": "crossover", "other": "ghost"},
        {"action": "tamper", "agent": "a", "mode": "crossover", "other": "b"},
        {"action": "tamper", "agent": "a", "mode": "crossover", "other": "c"},
        {"action": "redeem", "agent": "a", "subject": "s", "score": 4},
        {"action": "score", "subject": "s"},
    ],
}
DRILL_ERRORS_DIGEST = "b4c4ba2eb9e3392abf7bb17c1e30bee9e589f02d5ca9021dda6dcf324e86508f"


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_drill_error_branches(transport):
    transcript = run_scenario(ScenarioConfig.from_dict(DRILL_ERRORS), transport=transport)
    tampers = actions(transcript, "tamper")
    assert [e["outcome"] for e in tampers] == ["error:scenario-error"] * 8
    assert [e["outcome"] for e in actions(transcript, "redeem")] == ["ack"]
    assert actions(transcript, "score")[0]["detail"] == {"subject": "s", "count": 1, "score": "4"}
    assert hashlib.sha256(transcript.to_bytes()).hexdigest() == DRILL_ERRORS_DIGEST


def add_step(**step):
    return lambda raw: raw["script"].append(step)


def add_agents(*entries):
    return lambda raw: raw["agents"].extend(entries)


def set_key(*path, value):
    def edit(raw):
        for key in path[:-1]:
            raw = raw[key]
        raw[path[-1]] = value

    return edit


# edits to basic.json that make it a config error; all but the first four and
# "step-missing-field" were accepted before steps were checked against
# scenario.STEPS, the seven from "negative-seconds" before step bounds and
# top-level types were checked, and "lone-surrogate-subject" crashed the run
# with a traceback before strings were checked to be encodable; the two
# account edits exited 1 with duplicate-account after the ledger was written;
# the two share edits were accepted, true read as 1, before shares were
# checked to be fraction strings; empty shares turned revenue splitting
# off, as if left out; and reverse pricing at acquisition credited each
# ticket's buyer
CONFIG_ERRORS = {
    "unknown-agent": add_step(action="acquire", agent="ghost", group=1),
    "unknown-action": add_step(action="warp"),
    "sparse-group-ids": set_key("groups", value={"2": {"impact": "1"}}),
    "policy-without-price": set_key("policy", value={"kind": "flat", "per_group": {}}),
    "misspelled-step-key": add_step(action="acquire", agent="buyer", grup=2),
    "string-score": add_step(action="redeem", agent="buyer", subject="s", score="high"),
    "string-count": add_step(action="acquire", agent="buyer", group=1, count="2"),
    "bool-count": add_step(action="acquire", agent="buyer", group=1, count=True),
    "int-flag": add_step(action="blacklist", agent="buyer", flag=1),
    "redeem-ticket": add_step(action="redeem", agent="buyer", subject="s", score=4, ticket=0),
    "redeem-group": add_step(action="redeem", agent="buyer", subject="s", score=4, group=1),
    "redeem-comment": add_step(action="redeem", agent="buyer", subject="s", score=4, comment="fine"),
    "top-level-scale": set_key("scale", value=[1, 5]),
    "misspelled-agent-key": set_key("agents", 0, "balence", value=900),
    "string-agent-balance": set_key("agents", 0, "balance", value="500"),
    "extra-group-key": set_key("groups", "1", "weight", value="2"),
    "number-impact": set_key("groups", "1", "impact", value=1),
    "extra-shares-key": set_key("shares", "bank", value="0"),
    "step-missing-field": add_step(action="redeem", agent="buyer", subject="s"),
    "negative-seconds": add_step(action="advance", seconds=-5),
    "zero-count": add_step(action="acquire", agent="buyer", group=1, count=0),
    "negative-index": add_step(action="resolve", agent="buyer", index=-1),
    "string-seed": set_key("seed", value="7"),
    "number-rs-id": set_key("rs_id", value=7),
    "string-credit-limit": set_key("credit_limit", value="100"),
    "zero-padded-group-key": set_key("groups", value={"1": {"impact": "1"}, "01": {"impact": "5"}}),
    "lone-surrogate-subject": set_key("script", 2, "subject", value="\ud800"),
    "shared-account": add_agents({"name": "twin", "account": "acct-buyer"}),
    "account-of-a-default": add_agents({"name": "twin", "account": "acct-late"}, {"name": "late"}),
    "bool-shares": set_key("shares", value={"cp": True, "pca": 0, "rs": 0}),
    "number-shares": set_key("shares", value={"cp": 1, "pca": 0, "rs": 0}),
    "empty-shares": set_key("shares", value={}),
    "reverse-at-acquisition": lambda raw: raw.update(charging="acquisition", policy={"kind": "reverse", "incentive": 5}),
}


@pytest.mark.parametrize("edit", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
def test_config_errors_found_before_services_start(edit, tmp_path, capsys):
    raw = json.loads((SCENARIOS / "basic.json").read_text())
    edit(raw)
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_dict(raw)
    # a config error is a usage error, never a traceback from a running service
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bool_shares_are_refused_before_any_state_file(tmp_path, capsys):
    raw = json.loads((SCENARIOS / "basic.json").read_text())
    raw["shares"] = {"cp": True, "pca": 0, "rs": 0}
    path, state = tmp_path / "scenario.json", tmp_path / "state"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--state-dir", str(state)]) == 2
    assert capsys.readouterr().err.startswith("error: bad scenario config: bad shares record: shares: cp must be str")
    assert not state.exists()


def test_empty_shares_are_refused_before_any_state_file(tmp_path, capsys):
    """``"shares": {}`` is a shares record missing every share, not a
    scenario without revenue splitting: that is ``null``, or no key."""
    raw = json.loads((SCENARIOS / "basic.json").read_text())
    raw["shares"] = {}
    path, state = tmp_path / "scenario.json", tmp_path / "state"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--state-dir", str(state)]) == 2
    assert capsys.readouterr().err.startswith("error: bad scenario config: bad shares record: shares: missing 'cp'")
    assert not state.exists()
    raw["shares"] = None
    assert ScenarioConfig.from_dict(raw).shares is None


def test_reverse_pricing_at_acquisition_is_refused_before_any_state_file(tmp_path, capsys):
    """A credit for each ticket issued pays its buyer to amass pseudonyms;
    reverse pricing is charged ex post, at redemption, or not at all."""
    raw = json.loads((SCENARIOS / "basic.json").read_text())
    raw["policy"] = {"kind": "reverse", "incentive": 5}
    assert ScenarioConfig.from_dict(raw).charging == "ex_post"
    raw["charging"] = "acquisition"
    path, state = tmp_path / "scenario.json", tmp_path / "state"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--state-dir", str(state)]) == 2
    assert capsys.readouterr().err.startswith("error: reverse pricing pays each ticket's buyer")
    assert not state.exists()


@pytest.mark.parametrize(
    "groups, error",
    [
        ({"1": {"impact": "0"}}, "impact factors must be positive"),
        ({"1": {"impact": "-1/2"}}, "impact factors must be positive"),
        ({}, "at least one group is required"),
        ({"2": {"impact": "1"}}, "group ids must be dense 1..G"),
    ],
    ids=["zero-impact", "negative-impact", "no-groups", "sparse-ids"],
)
def test_a_group_table_the_authority_refuses_is_refused_before_any_state_file(groups, error, tmp_path, capsys):
    """A scenario checks its group table with the authority's own rule,
    ``privacy_ca.check_groups``: a table the authority would refuse is a
    config error, exit 2 with no state dir, not exit 1 from a starting service."""
    raw = json.loads((SCENARIOS / "basic.json").read_text())
    raw["groups"] = groups
    path, state = tmp_path / "scenario.json", tmp_path / "state"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--state-dir", str(state)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: bad scenario config: {error}"]
    assert not state.exists()


def test_resolve_past_the_tickets_is_a_scenario_error_outcome():
    raw = json.loads((SCENARIOS / "basic.json").read_text())
    raw["script"] += [
        {"action": "resolve", "agent": "buyer", "index": 1},
        {"action": "resolve", "agent": "buyer", "index": 0},
    ]
    transcript = run_scenario(ScenarioConfig.from_dict(raw))
    assert [e["outcome"] for e in actions(transcript, "resolve")] == ["error:scenario-error", "resolved"]


def test_bounded_step_fields_take_their_least_value_and_null_credit_limit():
    raw = json.loads((SCENARIOS / "basic.json").read_text())
    raw["credit_limit"] = None
    raw["script"] += [
        {"action": "advance", "seconds": 0},
        {"action": "acquire", "agent": "buyer", "count": 1},
        {"action": "resolve", "agent": "buyer", "index": 0},
    ]
    config = ScenarioConfig.from_dict(raw)
    assert config.credit_limit is None
    assert [e["outcome"] for e in actions(run_scenario(config), "advance")] == ["now=5"]


def test_checked_steps_carry_their_defaults():
    raw = json.loads((SCENARIOS / "basic.json").read_text())
    raw["script"] = [
        {"action": "acquire", "agent": "buyer"},
        {"action": "blacklist", "agent": "buyer"},
        {"action": "advance"},
        {"action": "tamper", "agent": "buyer", "mode": "bitflip"},
    ]
    config = ScenarioConfig.from_dict(raw)
    assert config.script == [
        {"action": "acquire", "agent": "buyer", "group": 1, "count": 1},
        {"action": "blacklist", "agent": "buyer", "flag": True},
        {"action": "advance", "seconds": 1},
        {"action": "tamper", "agent": "buyer", "mode": "bitflip", "subject": "tamper-subject", "score": 1, "other": None},
    ]


def test_same_seed_same_transcript_bytes():
    a = run_file("basic.json")
    b = run_file("basic.json")
    assert a.to_bytes() == b.to_bytes()


def test_transport_equivalence():
    a = run_file("adversary_drills.json", transport="inproc")
    b = run_file("adversary_drills.json", transport="socket")
    assert a.to_bytes() == b.to_bytes()


def test_transcript_round_trip():
    transcript = run_file("basic.json")
    blob = transcript.to_bytes()
    revived = Transcript.from_bytes(blob)
    assert revived.to_bytes() == blob


def test_state_dir_persists_services(tmp_path):
    run_file("basic.json", state_dir=tmp_path / "basic")
    run_scenario(ScenarioConfig.from_dict(demo_config()), state_dir=tmp_path / "demo")
    for state in ("basic", "demo"):
        names = {p.name for p in (tmp_path / state).iterdir()}
        assert names == {"cp-ledger.log", "pca-issuance.log", "rs-ratings.log"}


# -- command line ----------------------------------------------------------------


def test_cli_run_writes_transcript(tmp_path, capsys):
    out = tmp_path / "t.bin"
    code = main(["run", str(SCENARIOS / "basic.json"), "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "final: ratings=1" in captured.out
    assert out.exists()


def test_cli_run_refuses_a_rating_its_buyer_cannot_pay(tmp_path, capsys):
    """Ex post, with no credit and a balance below the price, the redeem is
    refused ``cp-declined`` and nothing is stored, over either transport,
    in one transcript."""
    raw = json.loads((SCENARIOS / "basic.json").read_text())
    raw["credit_limit"] = 0
    raw["agents"][0]["balance"] = 50
    path = tmp_path / "unpaid.json"
    path.write_text(json.dumps(raw))
    for transport in ("inproc", "socket"):
        assert main(["run", str(path), "--transport", transport, "--out", str(tmp_path / f"{transport}.bin")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("] ")[1] for line in lines if "] redeem " in line] == ["redeem agent=buyer -> reject:cp-declined"]
        assert "final: ratings=0 spent=0" in lines
    assert (tmp_path / "inproc.bin").read_bytes() == (tmp_path / "socket.bin").read_bytes()


def test_cli_run_malformed_scenario_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    raw = json.loads((SCENARIOS / "basic.json").read_text())
    raw["charging"] = "sometimes"
    sick = tmp_path / "sick.json"
    sick.write_text(json.dumps(raw))
    assert main(["run", str(sick)]) == 2


LOGS = ("cp-ledger.log", "pca-issuance.log", "rs-ratings.log")
# (log, case, the record appended, made from the log's last record, and the
# one error line it gives): each is decodable, but not of its log's shape
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
        lambda last: {**last, "received": str(last["received"])},
        "rating record: received must be int, not str",
    ),
]
# (log, case, the record appended, or a list of them, and its one error line):
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
        "pca-issuance.log",
        "second-registration-of-a-platform",
        lambda last: {"kind": "register", "platform_id": last["platform_id"], "ek_public": bytes(32), "user_account": "x"},
        "duplicate-ek: endorsement key already registered",
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


@pytest.mark.parametrize(
    "log, fault, error",
    [pytest.param(log, None, "corrupt log line", id=log) for log in LOGS]
    + [pytest.param(log, fault, error, id=f"{log}-{case}") for log, case, fault, error in WRONG_SHAPES + WRONG_VALUES],
)
def test_cli_run_over_a_log_line_that_does_not_decode_is_one_error_line(log, fault, error, tmp_path, capsys):
    """A state-dir log line that does not decode, or that decodes to a record
    of the wrong shape or with values replay refuses, stops the run with one
    error line and exit 1."""
    state = tmp_path / "state"
    assert main(["run", str(SCENARIOS / "basic.json"), "--state-dir", str(state)]) == 0
    if fault is None:
        lines = [b"garbage!!"]
    else:
        records = fault(read_records(state / log)[-1])
        lines = [base64.b64encode(encode(r)) for r in (records if isinstance(records, list) else [records])]
    with open(state / log, "ab") as handle:
        handle.write(b"".join(line + b"\n" for line in lines))
    capsys.readouterr()
    assert main(["run", str(SCENARIOS / "basic.json"), "--state-dir", str(state)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]


def test_charging_mode_both_is_refused(tmp_path):
    raw = json.loads((SCENARIOS / "basic.json").read_text())
    raw["charging"] = "both"
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_dict(raw)
    path = tmp_path / "both.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 2


def test_cli_verify_transcript_and_tampered_chain(tmp_path, capsys):
    out = tmp_path / "t.bin"
    assert main(["run", str(SCENARIOS / "basic.json"), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert "valid chain" in capsys.readouterr().out

    transcript = Transcript.from_bytes(out.read_bytes())
    (redeem,) = actions(transcript, "redeem")
    chain = bytearray(redeem["detail"]["chain"])
    chain[len(chain) // 2] ^= 0x10
    redeem["detail"]["chain"] = bytes(chain)
    tampered = tmp_path / "tampered.bin"
    tampered.write_bytes(transcript.to_bytes())
    assert main(["verify", str(tampered)]) == 1


def test_cli_verify_with_no_group_keys_finds_no_group(tmp_path, capsys):
    transcript = run_scenario(ScenarioConfig.from_dict(demo_config()))
    transcript.groups = {}
    path = tmp_path / "t.bin"
    path.write_bytes(transcript.to_bytes())
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"chain {i}: invalid chain: unknown-group" for i in range(3)]


def test_cli_verify_refuses_a_groups_table_key_that_is_not_a_group_id(tmp_path, capsys):
    transcript = run_file("basic.json")
    transcript.groups = {"01": transcript.groups["1"]}
    path = tmp_path / "t.bin"
    path.write_bytes(transcript.to_bytes())
    assert main(["verify", str(path)]) == 2
    assert "bad group id '01'" in capsys.readouterr().err


# a redeem detail that verify cannot read: the transcript is outside input
MALFORMED_DETAILS = {
    "not-a-dict": lambda detail: [detail["chain"]],
    "undecodable-chain": lambda detail: {**detail, "chain": detail["chain"][:-1]},
    "chain-not-bytes": lambda detail: {**detail, "chain": "chain"},
    "no-payload": lambda detail: {"chain": detail["chain"]},
    "payload-not-a-record": lambda detail: {**detail, "payload": 4},
}


@pytest.mark.parametrize("edit", MALFORMED_DETAILS.values(), ids=MALFORMED_DETAILS.keys())
def test_cli_verify_reports_a_malformed_detail(tmp_path, capsys, edit):
    transcript = run_file("basic.json")
    (redeem,) = actions(transcript, "redeem")
    redeem["detail"] = edit(redeem["detail"])
    path = tmp_path / "t.bin"
    path.write_bytes(transcript.to_bytes())
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out.startswith("chain 0: malformed detail: ")


def test_cli_verify_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "junk.bin"
    for junk in (b"\x01\x02\x03", run_file("basic.json").to_bytes()[:100]):  # undecodable, and a cut transcript
        path.write_bytes(junk)
        assert main(["verify", str(path)]) == 2
        assert main(["score", "seller-main", "--transcript", str(path)]) == 2


WELL_FORMED = {"version": 1, "seed": 1, "events": [], "final": {}, "groups": {}}


@pytest.mark.parametrize(
    "raw",
    [
        {"version": 1, "events": []},
        {k: v for k, v in WELL_FORMED.items() if k != "groups"},
        {**WELL_FORMED, "extra": 1},
        {**WELL_FORMED, "version": 2},
        {**WELL_FORMED, "seed": "1"},
        {**WELL_FORMED, "events": {}},
        {**WELL_FORMED, "events": [1]},
        {**WELL_FORMED, "final": []},
        {**WELL_FORMED, "final": {"scores": []}},
        {**WELL_FORMED, "groups": []},
        {"chain": b"", "groups": {}, "payload": {}},
    ],
    ids=["no-seed", "no-groups", "extra-key", "version-2", "str-seed", "dict-events",
         "int-event", "list-final", "list-scores", "list-groups", "chain-bundle"],
)
def test_malformed_transcript_is_usage_error(tmp_path, capsys, raw):
    path = tmp_path / "t.bin"
    path.write_bytes(encode(raw))
    with pytest.raises(ScenarioError):
        Transcript.from_bytes(path.read_bytes())
    assert main(["verify", str(path)]) == 2
    assert main(["score", "s", "--transcript", str(path)]) == 2


@pytest.mark.parametrize("value", ["abc", "", " 0", "-1", "65536"])
def test_bad_port_base_is_a_usage_error(tmp_path, monkeypatch, value):
    """A port variable that is not a port number is refused before any service
    starts or any state file is written."""
    monkeypatch.setenv("PSEUDORATE_PORT_BASE", value)
    state = tmp_path / "state"
    argv = ["run", str(SCENARIOS / "basic.json"), "--transport", "socket", "--state-dir", str(state)]
    assert main(argv) == 2
    assert not state.exists()


def test_busy_port_base_is_a_config_error(tmp_path):
    """A port another listener holds is refused before any state file is
    written: exit 2 with a one-line error, not a traceback."""
    state = tmp_path / "state"
    with socket.create_server(("127.0.0.1", 0)) as listener:
        env = {
            **os.environ,
            "PSEUDORATE_PORT_BASE": str(listener.getsockname()[1]),
            "PYTHONPATH": str(Path(pseudorate.__file__).parent.parent),
        }
        argv = ["run", str(SCENARIOS / "basic.json"), "--transport", "socket", "--state-dir", str(state)]
        done = subprocess.run([sys.executable, "-m", "pseudorate", *argv], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: cannot serve on port")
    assert not state.exists()


def test_shared_account_is_refused_before_any_state_file(tmp_path):
    """Two agents on one account are a config error: exit 2, one error line
    and no state dir, where the run once failed after writing the ledger."""
    raw = json.loads((SCENARIOS / "basic.json").read_text())
    raw["agents"].append({"name": "twin", "account": raw["agents"][0]["account"]})
    path, state = tmp_path / "scenario.json", tmp_path / "state"
    path.write_text(json.dumps(raw))
    env = {**os.environ, "PYTHONPATH": str(Path(pseudorate.__file__).parent.parent)}
    argv = ["run", str(path), "--state-dir", str(state)]
    done = subprocess.run([sys.executable, "-m", "pseudorate", *argv], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and "duplicate account 'acct-buyer'" in done.stderr
    assert not state.exists()


def test_a_run_that_fails_after_binding_closes_its_server():
    """Accounts open after the port is bound, so a duplicate account must
    still stop the server it started. The scenario file refuses one, so
    the twin is added to a checked config."""
    config = ScenarioConfig.from_dict(json.loads((SCENARIOS / "basic.json").read_text()))
    config.agents.append(AgentSpec("twin", config.agents[0].account, 0))
    threads = threading.active_count()
    with pytest.raises(TicketError) as excinfo:
        run_scenario(config, transport="socket")
    assert excinfo.value.code == "duplicate-account"
    assert threading.active_count() == threads


def test_cli_score_reads_transcript(tmp_path, capsys):
    out = tmp_path / "t.bin"
    main(["run", str(SCENARIOS / "basic.json"), "--out", str(out)])
    capsys.readouterr()
    assert main(["score", "seller-main", "--transcript", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "seller-main 4"
    assert main(["score", "nobody", "--transcript", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "nobody no-score"


def test_cli_usage_error_nonzero(capsys):
    assert main([]) != 0
    assert main(["run"]) != 0


def test_cli_demo_deterministic(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    assert main(["demo", "--seed", "42", "--out", str(a)]) == 0
    assert main(["demo", "--out", str(b)]) == 0  # the built-in seed is 42
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.bin"
    assert main(["demo", "--seed", "43", "--out", str(c)]) == 0
    assert c.read_bytes() != a.read_bytes()
    assert main(["verify", str(a)]) == main(["verify", str(c)]) == 0


def test_demo_config_is_valid():
    config = ScenarioConfig.from_dict(demo_config())
    assert config.rs_id == "rs-demo"
