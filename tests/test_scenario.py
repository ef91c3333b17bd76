import hashlib
import json
from pathlib import Path

import pytest

from pseudorate.cli import demo_config, main
from pseudorate.encoding import encode
from pseudorate.scenario import ScenarioConfig, ScenarioError, Transcript, run_scenario

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


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_transcript_matches_golden_digest(name):
    digest = hashlib.sha256(run_file(name).to_bytes()).hexdigest()
    assert digest == GOLDEN_TRANSCRIPTS[name]


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


def test_config_errors_found_before_services_start():
    raw = json.loads((SCENARIOS / "basic.json").read_text())
    raw["script"].append({"action": "acquire", "agent": "ghost", "group": 1})
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_dict(raw)

    raw = json.loads((SCENARIOS / "basic.json").read_text())
    raw["script"].append({"action": "warp"})
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_dict(raw)

    raw = json.loads((SCENARIOS / "basic.json").read_text())
    raw["groups"] = {"2": {"impact": "1"}}
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_dict(raw)

    raw = json.loads((SCENARIOS / "basic.json").read_text())
    raw["policy"] = {"kind": "flat", "per_group": {}}
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_dict(raw)


def test_same_seed_same_transcript_bytes():
    a = run_file("basic.json")
    b = run_file("basic.json")
    assert a.to_bytes() == b.to_bytes()


def test_transport_equivalence():
    a = run_file("adversary_drills.json", transport="inproc")
    b = run_file("adversary_drills.json", transport="socket")
    assert a.to_bytes() == b.to_bytes()


def test_transcript_round_trip_and_bundles():
    transcript = run_file("basic.json")
    blob = transcript.to_bytes()
    revived = Transcript.from_bytes(blob)
    assert revived.to_bytes() == blob
    bundles = revived.chain_bundles()
    assert len(bundles) == 1
    assert set(bundles[0]) == {"chain", "groups", "payload"}


def test_state_dir_persists_services(tmp_path):
    run_file("basic.json", state_dir=tmp_path)
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"cp-ledger.log", "pca-issuance.log", "rs-ratings.log", "rs-spent.snap"}


# -- command line ----------------------------------------------------------------


def test_cli_run_writes_transcript(tmp_path, capsys):
    out = tmp_path / "t.bin"
    code = main(["run", str(SCENARIOS / "basic.json"), "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "final: ratings=1" in captured.out
    assert out.exists()


def test_cli_run_malformed_scenario_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    raw = json.loads((SCENARIOS / "basic.json").read_text())
    raw["charging"] = "sometimes"
    sick = tmp_path / "sick.json"
    sick.write_text(json.dumps(raw))
    assert main(["run", str(sick)]) == 2


def test_cli_verify_transcript_and_tampered_chain(tmp_path, capsys):
    out = tmp_path / "t.bin"
    assert main(["run", str(SCENARIOS / "basic.json"), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert "valid chain" in capsys.readouterr().out

    transcript = Transcript.from_bytes(out.read_bytes())
    bundle = transcript.chain_bundles()[0]
    chain = bytearray(bundle["chain"])
    chain[len(chain) // 2] ^= 0x10
    bundle["chain"] = bytes(chain)
    tampered = tmp_path / "tampered.bin"
    tampered.write_bytes(encode(bundle))
    assert main(["verify", str(tampered)]) == 1


def test_cli_verify_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\x01\x02\x03")
    assert main(["verify", str(path)]) == 2


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
    ],
    ids=["no-seed", "no-groups", "extra-key", "version-2", "str-seed", "dict-events",
         "int-event", "list-final", "list-scores", "list-groups"],
)
def test_malformed_transcript_is_usage_error(tmp_path, capsys, raw):
    path = tmp_path / "t.bin"
    path.write_bytes(encode(raw))
    with pytest.raises(ScenarioError):
        Transcript.from_bytes(path.read_bytes())
    assert main(["verify", str(path)]) == 2
    assert main(["score", "s", "--transcript", str(path)]) == 2


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


def test_demo_config_is_valid():
    config = ScenarioConfig.from_dict(demo_config())
    assert config.rs_id == "rs-demo"
