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
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

from .agent import Ticket, TicketDenied, TrustedAgent
from .charging import (
    PHASE_ACQUISITION,
    ChargingProvider,
    PricingPolicy,
    RevenueShares,
)
from .clock import SimClock
from .crypto import CredentialChain, key_id_of
from .encoding import decode, encode
from .errors import TicketError
from .privacy_ca import GroupConfig, PrivacyCa
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

CHARGING_MODES = ("none", "acquisition", "ex_post", "both")
ACTIONS = ("register", "acquire", "redeem", "blacklist", "tamper", "advance", "resolve", "score")
TAMPER_MODES = ("bitflip", "replay", "crossover", "aik-sign")
TRANSPORTS = ("inproc", "socket")


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
    scale: tuple[int, int] = (1, 5)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """Parse and check a scenario; any fault in ``raw`` is a ScenarioError."""
        try:
            if not isinstance(raw, dict):
                raise ScenarioError("scenario must be a JSON object")
            unknown = set(raw) - {f.name for f in fields(cls)}
            if unknown:
                raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")

            seed = int(raw.get("seed", 0))
            rs_id = str(raw.get("rs_id", "rs-main"))

            groups: dict[int, GroupConfig] = {}
            for key, entry in raw["groups"].items():
                groups[int(key)] = GroupConfig(impact=Fraction(entry["impact"]))
            if sorted(groups) != list(range(1, len(groups) + 1)):
                raise ScenarioError("group ids must be dense 1..G")

            policy = PricingPolicy.from_record(raw.get("policy", {"kind": "free"}))
            shares = RevenueShares.from_record(raw["shares"]) if raw.get("shares") else None

            charging = str(raw.get("charging", "none"))
            if charging not in CHARGING_MODES:
                raise ScenarioError(f"charging mode must be one of {CHARGING_MODES}")
            if charging != "none" and policy.kind in ("flat", "increasing"):
                missing = [g for g in groups if g not in policy.per_group]
                if missing:
                    raise ScenarioError(f"policy has no price for groups {missing}")

            credit_limit = raw.get("credit_limit")
            if credit_limit is not None:
                credit_limit = int(credit_limit)

            scale_raw = raw.get("scale", [1, 5])
            scale = (int(scale_raw[0]), int(scale_raw[1]))
            if scale[0] > scale[1]:
                raise ScenarioError("rating scale is empty")

            agents = []
            names = set()
            for entry in raw.get("agents", []):
                spec = AgentSpec(
                    name=str(entry["name"]),
                    account=str(entry.get("account", f"acct-{entry['name']}")),
                    balance=int(entry.get("balance", 0)),
                )
                if spec.name in names:
                    raise ScenarioError(f"duplicate agent {spec.name!r}")
                names.add(spec.name)
                agents.append(spec)

            script = list(raw.get("script", []))
            for i, step in enumerate(script):
                if not isinstance(step, dict) or "action" not in step:
                    raise ScenarioError(f"step {i}: missing action")
                action = step["action"]
                if action not in ACTIONS:
                    raise ScenarioError(f"step {i}: unknown action {action!r}")
                if action in ("register", "acquire", "redeem", "blacklist", "tamper", "resolve"):
                    if step.get("agent") not in names:
                        raise ScenarioError(f"step {i}: unknown agent {step.get('agent')!r}")
                if action == "acquire" and int(step.get("group", 1)) not in groups:
                    raise ScenarioError(f"step {i}: unknown group {step.get('group')!r}")
                if action == "redeem" and ("subject" not in step or "score" not in step):
                    raise ScenarioError(f"step {i}: redeem needs subject and score")
                if action == "score" and "subject" not in step:
                    raise ScenarioError(f"step {i}: score needs a subject")
                if action == "tamper" and step.get("mode") not in TAMPER_MODES:
                    raise ScenarioError(f"step {i}: tamper mode must be one of {TAMPER_MODES}")

            return cls(
                seed=seed,
                rs_id=rs_id,
                groups=groups,
                policy=policy,
                shares=shares,
                charging=charging,
                agents=agents,
                script=script,
                credit_limit=credit_limit,
                scale=scale,
            )
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
        if not (
            isinstance(raw, dict)
            and raw.keys() == {"version", "seed", "events", "final", "groups"}
            and raw["version"] == 1
            and isinstance(raw["seed"], int)
            and isinstance(raw["events"], list)
            and all(isinstance(event, dict) for event in raw["events"])
            and isinstance(raw["final"], dict)
            and isinstance(raw["final"].get("scores", {}), dict)
            and isinstance(raw["groups"], dict)
        ):
            raise ScenarioError("not a transcript")
        return cls(seed=raw["seed"], events=raw["events"], final=raw["final"], groups=raw["groups"])

    def chain_bundles(self) -> list[dict]:
        """Every chain the scenario submitted, paired with the group keys —
        ready for offline verification."""
        bundles = []
        for event in self.events:
            detail = event.get("detail", {})
            if isinstance(detail, dict) and "chain" in detail:
                bundle = {"chain": detail["chain"], "groups": self.groups}
                if "payload" in detail:
                    bundle["payload"] = detail["payload"]
                bundles.append(bundle)
        return bundles

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
    """Services behind one router, one transport to it, and the clients for
    one scenario run."""

    def __init__(self, config: ScenarioConfig, transport: str, state_dir: Path | None):
        if transport not in TRANSPORTS:
            raise ScenarioError(f"transport must be one of {TRANSPORTS}")
        master = random.Random(config.seed)
        pca_rng = random.Random(master.getrandbits(64))
        self.driver_rng = random.Random(master.getrandbits(64))
        agent_rngs = {spec.name: random.Random(master.getrandbits(64)) for spec in config.agents}
        self.clock = SimClock()
        self.authority_token = "authority-" + self.driver_rng.randbytes(8).hex()

        logs = {}
        if state_dir is not None:
            state_dir.mkdir(parents=True, exist_ok=True)
            logs = {
                "ledger_log": state_dir / "cp-ledger.log",
                "issuance_log": state_dir / "pca-issuance.log",
                "rating_log": state_dir / "rs-ratings.log",
                "spent_snapshot": state_dir / "rs-spent.snap",
            }
        self.state_dir = state_dir

        self.cp = ChargingProvider(
            self.clock,
            policy=config.policy,
            shares=config.shares,
            credit_limit=config.credit_limit,
            ledger_log=logs.get("ledger_log"),
        )
        for spec in config.agents:
            self.cp.open_account(spec.account, spec.balance)

        pricing = config.policy if config.charging != "none" else None
        phases = (PHASE_ACQUISITION,) if config.charging in ("acquisition", "both") else ()
        self.pca = PrivacyCa(
            config.groups,
            clock=self.clock,
            rng=pca_rng,
            charging=self.cp if pricing else None,
            pricing=pricing,
            charge_phases=phases,
            authority_tokens={self.authority_token},
            issuance_log=logs.get("issuance_log"),
        )
        expost = self.pca.charge_for_ticket if config.charging in ("ex_post", "both") else None
        self.rs = ReputationSystem(
            config.rs_id,
            clock=self.clock,
            scale=config.scale,
            expost_charge=expost,
            rating_log=logs.get("rating_log"),
            spent_snapshot=logs.get("spent_snapshot"),
        )

        self.tap: list = []
        router = Router(pca=self.pca, rs=self.rs, cp=self.cp)
        self._server: SocketServer | None = None
        if transport == "inproc":
            self._transport = InprocTransport(router, tap=self.tap)
        else:
            self._server = SocketServer(router, port=int(os.environ.get("PSEUDORATE_PORT_BASE", "0")))
            self._transport = SocketTransport(self._server.host, self._server.port, tap=self.tap)

        self.pca_client = PcaClient(self._transport)
        self.rs_client = RsClient(self._transport)
        self.cp_client = CpClient(self._transport)

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
    stack.rs_client.configure_groups(stack.pca.group_registry())
    policy_record = stack.cp_client.get_policy()
    record("setup", None, "ok", {"policy": policy_record, "group_count": len(config.groups)})

    for step in config.script:
        stack.clock.advance(1)
        action = step["action"]
        agent_name = step.get("agent")
        agent = stack.agents.get(agent_name) if agent_name else None

        try:
            if action == "register":
                platform_id = agent.register()
                record(action, agent_name, "registered", {"platform_id": platform_id})

            elif action == "acquire":
                group = int(step.get("group", 1))
                count = int(step.get("count", 1))
                for _ in range(count):
                    ticket = agent.acquire_ticket(group)
                    record(
                        action,
                        agent_name,
                        "ticket",
                        {"group": group, "aik_digest": key_id_of(ticket.credential.entity)},
                    )

            elif action == "redeem":
                if "ticket" in step:
                    ticket = agent.tickets[int(step["ticket"])]
                else:
                    ticket = _fresh_ticket(agent, int(step["group"]) if "group" in step else None)
                payload = agent.make_payload(
                    str(step["subject"]), int(step["score"]), str(step.get("comment", ""))
                )
                chain = agent.build_chain(ticket, payload)
                record(action, agent_name, *_submit(agent, ticket, payload, chain))

            elif action == "blacklist":
                flag = bool(step.get("flag", True))
                stack.pca_client.blacklist(agent.platform_id, flag)
                record(action, agent_name, f"flag={int(flag)}", {})

            elif action == "tamper":
                outcome, detail = _run_tamper(stack, agent, step)
                record(action, agent_name, outcome, detail)

            elif action == "advance":
                stack.clock.advance(int(step.get("seconds", 1)))
                record(action, None, f"now={stack.clock.now()}", {})

            elif action == "resolve":
                index = int(step.get("index", 0))
                ticket = agent.tickets[index]
                digest = key_id_of(ticket.credential.entity)
                body = stack.pca_client.resolve_identity(digest, stack.authority_token)
                record(action, agent_name, "resolved", {"platform_id": body["platform_id"]})

            elif action == "score":
                subject = str(step["subject"])
                count, score = stack.rs_client.score(subject)
                record(action, None, "scored", {"subject": subject, "count": count, "score": score})

        except TicketDenied as exc:
            record(action, agent_name, f"denied:{exc.reason}", {})
        except TicketError as exc:
            record(action, agent_name, f"error:{exc.code}", {})

    drain_messages()
    transcript.final = _final_state(config, stack)
    drain_messages()
    if stack.state_dir is not None:
        stack.rs.save_spent_snapshot()
    return transcript


def _fresh_ticket(agent: TrustedAgent, group: int | None = None) -> Ticket:
    fresh = agent.fresh_tickets(group)
    if not fresh:
        raise ScenarioError(f"agent has no fresh ticket in group {group}")
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
    if mode not in TAMPER_MODES:
        raise ScenarioError(f"unknown tamper mode {mode!r}")
    other = stack.agents.get(str(step.get("other"))) if mode == "crossover" else None
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

    payload = agent.make_payload(str(step.get("subject", "tamper-subject")), int(step.get("score", 1)))
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
    balances = {spec.account: stack.cp_client.balance(spec.account) for spec in config.agents}
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
