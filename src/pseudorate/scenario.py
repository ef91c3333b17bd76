"""Scenario configs, the end-to-end driver, and transcripts.

A scenario is a JSON file (format in docs/FORMATS.md) declaring groups,
pricing, revenue shares, agents and a step script. The driver instantiates
fresh services, wires them over the chosen transport, runs the script
sequentially on a logical clock, and returns a transcript listing every
wire message, every action outcome, and the final ledgers, spend registry
size and aggregate scores. Given a seed, a transcript is byte-identical
across runs and across transports.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from .agent import Ticket, TicketDenied, TrustedAgent
from .charging import (
    PHASE_ACQUISITION,
    ChargingProvider,
    PricingPolicy,
    RevenueShares,
    group_id,
)
from .clock import SimClock
from .crypto import CredentialChain, key_id_of
from .encoding import EncodingError, check_fields, decode, encode
from .errors import TicketError
from .privacy_ca import GroupConfig, PrivacyCa, check_groups
from .reputation import Ack, RatingPayload, ReputationSystem
from .tpm import TpmError, TpmInstance
from .wire import (
    CpClient,
    InprocTransport,
    PcaClient,
    Router,
    RsClient,
    SocketServer,
    SocketTransport,
    decode_response,
)

CHARGING_MODES = ("none", "acquisition", "ex_post")
TAMPER_MODES = ("bitflip", "replay", "crossover", "aik-sign")
TRANSPORTS = ("inproc", "socket")

# action -> (every field of its steps with its type, the defaults of the
# fields a step may leave out). encoding.check_fields checks each step, as it
# checks wire.ROUTES request bodies: true is not an int and 1 is not a bool.
STEPS: dict[str, tuple[dict[str, type], dict[str, object]]] = {
    "register": ({"agent": str}, {}),
    "acquire": ({"agent": str, "group": int, "count": int}, {"group": 1, "count": 1}),
    "redeem": ({"agent": str, "subject": str, "score": int}, {}),
    "blacklist": ({"agent": str, "flag": bool}, {"flag": True}),
    "tamper": (
        {"agent": str, "mode": str, "subject": str, "score": int, "other": str},
        {"subject": "tamper-subject", "score": 1, "other": None},
    ),
    "advance": ({"seconds": int}, {"seconds": 1}),
    "resolve": ({"agent": str, "index": int}, {"index": 0}),
    "score": ({"subject": str}, {}),
}
_STEP_KINDS = {action: {"action": str, **kinds} for action, (kinds, _) in STEPS.items()}  # built once
_STEP_LEAST = {"count": 1, "seconds": 0, "index": 0}  # the least value of each bounded step field
_AGENT_FIELDS = {"name": str, "account": str, "balance": int}
# every top-level field with its type; all but groups may be left out, and
# shares and credit_limit may be null
_SCENARIO_FIELDS = {
    "seed": int, "rs_id": str, "groups": dict, "policy": dict, "shares": dict,
    "charging": str, "credit_limit": int, "agents": list, "script": list,
}


class ScenarioError(TicketError):
    code = "scenario-error"


@dataclass(frozen=True)
class AgentSpec:
    name: str
    account: str
    balance: int = 0


@dataclass
class ScenarioConfig:
    seed: int
    rs_id: str
    groups: dict[int, GroupConfig]
    policy: PricingPolicy
    shares: RevenueShares | None
    charging: str
    agents: list[AgentSpec]
    script: list[dict]
    credit_limit: int | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """Parse and check a scenario; any fault in ``raw`` is a ScenarioError."""
        try:
            if type(raw) is dict:  # shares and credit_limit may be null: as if left out
                raw = {k: v for k, v in raw.items() if v is not None or k not in ("shares", "credit_limit")}
            check_fields(raw, _SCENARIO_FIELDS, _SCENARIO_FIELDS.keys() - {"groups"}, "scenario")
            seed, rs_id = raw.get("seed", 0), raw.get("rs_id", "rs-main")
            charging, credit_limit = raw.get("charging", "none"), raw.get("credit_limit")

            groups: dict[int, GroupConfig] = {}
            for key, entry in raw["groups"].items():
                check_fields(entry, {"impact": str}, where=f"group {key}")
                groups[group_id(key)] = GroupConfig(impact=Fraction(entry["impact"]))
            check_groups(groups)

            policy = PricingPolicy.from_record(raw.get("policy", {"kind": "free"}))
            shares = RevenueShares.from_record(raw["shares"]) if "shares" in raw else None

            if charging not in CHARGING_MODES:
                raise ScenarioError(f"charging mode must be one of {CHARGING_MODES}")
            if charging != "none" and policy.kind in ("flat", "increasing"):
                missing = [g for g in groups if g not in policy.per_group]
                if missing:
                    raise ScenarioError(f"policy has no price for groups {missing}")
            if charging == "acquisition" and policy.kind == "reverse":  # a credit per ticket pays for pseudonyms
                raise ScenarioError("reverse pricing pays each ticket's buyer: charge it ex post, not at acquisition")

            agents = []
            names, accounts = set(), set()
            for i, entry in enumerate(raw.get("agents", [])):
                check_fields(entry, _AGENT_FIELDS, ("account", "balance"), f"agent {i}")
                name = entry["name"]
                account = entry.get("account", f"acct-{name}")
                if name in names:
                    raise ScenarioError(f"duplicate agent {name!r}")
                if account in accounts:  # the charging provider opens each account once
                    raise ScenarioError(f"agent {name!r}: duplicate account {account!r}")
                names.add(name)
                accounts.add(account)
                agents.append(AgentSpec(name, account, entry.get("balance", 0)))

            script = []
            for i, step in enumerate(raw.get("script", [])):
                action = step.get("action") if isinstance(step, dict) else None
                if action not in STEPS:
                    raise ScenarioError(f"step {i}: unknown action {action!r}")
                kinds, defaults = STEPS[action]
                check_fields(step, _STEP_KINDS[action], defaults, f"step {i} ({action})")
                step = {**defaults, **step}
                for name, least in _STEP_LEAST.items():
                    if step.get(name, least) < least:
                        raise ScenarioError(f"step {i}: {name} must be at least {least}, not {step[name]}")
                if "agent" in kinds and step["agent"] not in names:
                    raise ScenarioError(f"step {i}: unknown agent {step['agent']!r}")
                if action == "acquire" and step["group"] not in groups:
                    raise ScenarioError(f"step {i}: unknown group {step['group']!r}")
                if action == "tamper" and step["mode"] not in TAMPER_MODES:
                    raise ScenarioError(f"step {i}: tamper mode must be one of {TAMPER_MODES}")
                script.append(step)

            return cls(seed, rs_id, groups, policy, shares, charging, agents, script, credit_limit)
        except ScenarioError:
            raise
        except Exception as exc:
            raise ScenarioError(f"bad scenario config: {exc}") from exc

    @classmethod
    def from_json_file(cls, path: Path | str) -> "ScenarioConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"cannot read scenario file: {exc}") from exc
        return cls.from_dict(raw)


# ---------------------------------------------------------------------------
# Transcript
# ---------------------------------------------------------------------------

@dataclass
class Transcript:
    seed: int
    events: list[dict] = field(default_factory=list)
    final: dict = field(default_factory=dict)
    groups: dict[str, bytes] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        return encode(
            {
                "version": 1,
                "seed": self.seed,
                "events": self.events,
                "final": self.final,
                "groups": self.groups,
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Transcript":
        return cls.from_record(decode(data))

    @classmethod
    def from_record(cls, raw: object) -> "Transcript":
        try:
            kinds = {"version": int, "seed": int, "events": list, "final": dict, "groups": dict}
            check_fields(raw, kinds)
        except EncodingError as exc:
            raise ScenarioError(f"not a transcript: {exc}") from exc
        scores = raw["final"].get("scores", {})
        if raw["version"] != 1 or type(scores) is not dict or any(type(event) is not dict for event in raw["events"]):
            raise ScenarioError("not a transcript")
        return cls(seed=raw["seed"], events=raw["events"], final=raw["final"], groups=raw["groups"])

    def summary_lines(self) -> list[str]:
        lines = []
        for event in self.events:
            if event["kind"] == "msg":
                lines.append(f"  [{event['seq']:04d}] msg {event['endpoint']} -> {event['status']}")
            else:
                who = f" agent={event['agent']}" if event.get("agent") else ""
                lines.append(
                    f"  [{event['seq']:04d}] {event['action']}{who} -> {event['outcome']}"
                )
        final = self.final
        lines.append(f"final: ratings={final['ratings']} spent={final['spent']}")
        for account, balance in final["balances"].items():
            lines.append(f"final: balance {account} = {balance}")
        for party, amount in final["revenue"].items():
            lines.append(f"final: revenue {party} = {amount}")
        for subject, score in final["scores"].items():
            lines.append(f"final: score {subject} = {score}")
        return lines


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

class _Stack:
    """Services behind one router, the chosen transport to it and an
    in-process one for operator calls, and the clients for one scenario run."""

    def __init__(self, config: ScenarioConfig, transport: str, state_dir: Path | None):
        if transport not in TRANSPORTS:
            raise ScenarioError(f"transport must be one of {TRANSPORTS}")
        port = os.environ.get("PSEUDORATE_PORT_BASE", "0")  # only the socket transport serves on it
        if transport == "socket" and not (port.isascii() and port.isdigit() and int(port) <= 65535):
            raise ScenarioError(f"PSEUDORATE_PORT_BASE must be a port number 0..65535, not {port!r}")
        master = random.Random(config.seed)
        pca_rng = random.Random(master.getrandbits(64))
        self.driver_rng = random.Random(master.getrandbits(64))
        agent_rngs = {spec.name: random.Random(master.getrandbits(64)) for spec in config.agents}
        self.clock = SimClock()
        self.authority_token = "authority-" + self.driver_rng.randbytes(8).hex()

        logs = {}
        if state_dir is not None:
            logs = {
                "ledger_log": state_dir / "cp-ledger.log",
                "issuance_log": state_dir / "pca-issuance.log",
                "rating_log": state_dir / "rs-ratings.log",
            }

        self.cp = ChargingProvider(
            self.clock,
            policy=config.policy,
            shares=config.shares,
            credit_limit=config.credit_limit,
            ledger_log=logs.get("ledger_log"),
        )

        phases = (PHASE_ACQUISITION,) if config.charging == "acquisition" else ()
        self.pca = PrivacyCa(
            config.groups,
            clock=self.clock,
            rng=pca_rng,
            charging=self.cp if config.charging != "none" else None,
            charge_phases=phases,
            authority_tokens={self.authority_token},
            issuance_log=logs.get("issuance_log"),
        )
        expost = self.pca.charge_for_ticket if config.charging == "ex_post" else None
        self.rs = ReputationSystem(
            config.rs_id,
            clock=self.clock,
            expost_charge=expost,
            rating_log=logs.get("rating_log"),
        )

        self.tap: list = []
        router = Router(pca=self.pca, rs=self.rs, cp=self.cp)
        local = InprocTransport(router, tap=self.tap)  # for operator calls: a socket serves no operator route
        self._server: SocketServer | None = None
        if transport == "inproc":
            self._transport = local
        else:
            try:
                self._server = SocketServer(router, port=int(port))
            except OSError as exc:
                raise ScenarioError(f"cannot serve on port {port}: {exc}") from exc
            self._transport = SocketTransport(self._server.host, self._server.port, tap=self.tap)

        # the services only read their state files so far: a port that cannot
        # be served leaves the state dir untouched
        try:
            if state_dir is not None:
                state_dir.mkdir(parents=True, exist_ok=True)
            for spec in config.agents:
                self.cp.open_account(spec.account, spec.balance)
        except BaseException:
            self.close()
            raise

        self.pca_client = PcaClient(self._transport)
        self.rs_client = RsClient(self._transport)
        self.cp_client = CpClient(self._transport)
        # the group push, the blacklist step and the final balance reads
        self.operator_pca, self.operator_rs, self.operator_cp = PcaClient(local), RsClient(local), CpClient(local)

        self.agents = {
            spec.name: TrustedAgent(
                TpmInstance(rng=agent_rngs[spec.name]),
                PcaClient(self._transport),
                RsClient(self._transport),
                user_account=spec.account,
                rs_id=config.rs_id,
                rng=agent_rngs[spec.name],
            )
            for spec in config.agents
        }

    def close(self) -> None:
        self._transport.close()
        if self._server is not None:
            self._server.close()


def run_scenario(
    config: ScenarioConfig,
    *,
    transport: str = "inproc",
    state_dir: Path | str | None = None,
) -> Transcript:
    stack = _Stack(config, transport, Path(state_dir) if state_dir else None)
    try:
        return _drive(config, stack)
    finally:
        stack.close()


def _drive(config: ScenarioConfig, stack: _Stack) -> Transcript:
    transcript = Transcript(seed=config.seed)
    transcript.groups = {str(g): pub for g, (pub, _) in stack.pca.group_registry().items()}
    seq = 0

    def drain_messages() -> None:
        """One msg event per response: it names its endpoint and status."""
        nonlocal seq
        for direction, frame in stack.tap:
            if direction == "recv":
                endpoint, _, status, _ = decode_response(frame)
                seq += 1
                transcript.events.append({"kind": "msg", "seq": seq, "endpoint": endpoint, "status": status})
        stack.tap.clear()

    def record(action: str, agent: str | None, outcome: str, detail: dict | None = None) -> None:
        nonlocal seq
        drain_messages()
        seq += 1
        event = {"kind": "action", "seq": seq, "action": action, "outcome": outcome}
        if agent:
            event["agent"] = agent
        event["detail"] = detail or {}
        transcript.events.append(event)

    # the group registry push and policy fetch are part of every run
    stack.operator_rs.configure_groups(stack.pca.group_registry())
    policy_record = stack.cp_client.get_policy()
    record("setup", None, "ok", {"policy": policy_record, "group_count": len(config.groups)})

    for step in config.script:
        stack.clock.advance(1)
        action = step["action"]
        agent_name = step.get("agent")
        agent = stack.agents.get(agent_name)

        try:
            if action == "register":
                platform_id = agent.register()
                record(action, agent_name, "registered", {"platform_id": platform_id})

            elif action == "acquire":
                group = step["group"]
                for _ in range(step["count"]):
                    ticket = agent.acquire_ticket(group)
                    record(
                        action,
                        agent_name,
                        "ticket",
                        {"group": group, "aik_digest": key_id_of(ticket.credential.entity)},
                    )

            elif action == "redeem":
                ticket = _fresh_ticket(agent)
                payload = agent.make_payload(step["subject"], step["score"])
                chain = agent.build_chain(ticket, payload)
                record(action, agent_name, *_submit(agent, ticket, payload, chain))

            elif action == "blacklist":
                stack.operator_pca.blacklist(agent.platform_id, step["flag"])
                record(action, agent_name, f"flag={step['flag']:d}", {})

            elif action == "tamper":
                outcome, detail = _run_tamper(stack, agent, step)
                record(action, agent_name, outcome, detail)

            elif action == "advance":
                stack.clock.advance(step["seconds"])
                record(action, None, f"now={stack.clock.now()}", {})

            elif action == "resolve":
                if step["index"] >= len(agent.tickets):
                    raise ScenarioError(f"agent has no ticket at index {step['index']}")
                ticket = agent.tickets[step["index"]]
                digest = key_id_of(ticket.credential.entity)
                body = stack.pca_client.resolve_identity(digest, stack.authority_token)
                record(action, agent_name, "resolved", {"platform_id": body["platform_id"]})

            elif action == "score":
                subject = step["subject"]
                count, score = stack.rs_client.score(subject)
                record(action, None, "scored", {"subject": subject, "count": count, "score": score})

        except TicketDenied as exc:
            record(action, agent_name, f"denied:{exc.reason}", {})
        except TicketError as exc:
            record(action, agent_name, f"error:{exc.code}", {})

    drain_messages()
    transcript.final = _final_state(config, stack)
    drain_messages()
    return transcript


def _fresh_ticket(agent: TrustedAgent) -> Ticket:
    fresh = agent.fresh_tickets()
    if not fresh:
        raise ScenarioError("agent has no fresh ticket")
    return fresh[0]


def _submit(
    agent: TrustedAgent, ticket: Ticket, payload: RatingPayload, chain: CredentialChain
) -> tuple[str, dict]:
    """Submit a chain; returns the outcome and the detail that records it."""
    result = agent.submit_chain(ticket, payload, chain)
    outcome = "ack" if isinstance(result, Ack) else f"reject:{result.reason}"
    return outcome, {"chain": chain.to_bytes(), "payload": payload.to_record()}


def _run_tamper(stack: _Stack, agent: TrustedAgent, step: dict) -> tuple[str, dict]:
    """Adversarial moves. Every mode submits (or attempts) something
    dishonest and reports how the system answered."""
    mode = step["mode"]
    other = stack.agents.get(step["other"]) if mode == "crossover" else None
    if mode == "crossover" and other is None:
        raise ScenarioError("crossover tamper needs 'other' agent")
    ticket = _fresh_ticket(agent)
    their_ticket = _fresh_ticket(other) if other is not None else None

    if mode == "aik-sign":
        # misuse the identity key as a payload signer; must fail locally
        try:
            agent.tpm.sign_with_key(ticket.aik_handle, b"direct-misuse")
            return "signed", {}
        except TpmError as exc:
            return f"tpm-error:{exc.code}", {}

    payload = agent.make_payload(step["subject"], step["score"])
    chain = agent.build_chain(ticket, payload)
    if mode == "replay":
        first, _ = _submit(agent, ticket, payload, chain)
        second, detail = _submit(agent, ticket, payload, chain)
        return f"first={first} second={second}", detail
    if mode == "bitflip":
        sig = bytearray(chain.rating_cred.signature)
        sig[stack.driver_rng.randrange(len(sig))] ^= 1 << stack.driver_rng.randrange(8)
        rating_cred = replace(chain.rating_cred, signature=bytes(sig))
    else:
        # rating signed under the other platform's key, multiplexed onto my ticket
        rating_cred = other.build_chain(their_ticket, payload).rating_cred
    return _submit(agent, ticket, payload, replace(chain, rating_cred=rating_cred))


def _final_state(config: ScenarioConfig, stack: _Stack) -> dict:
    balances = {spec.account: stack.operator_cp.balance(spec.account) for spec in config.agents}
    scores = {}
    for subject in stack.rs.subjects():
        count, score = stack.rs_client.score(subject)
        scores[subject] = score
    return {
        "balances": balances,
        "revenue": stack.cp.revenue_totals,
        "spent": stack.rs.spent_count,
        "ratings": len(stack.rs.records),
        "scores": scores,
    }
