"""The benchmark workloads.

Each workload runs in rounds. A round builds fresh services (timed as one
set-up sample), runs a fixed amount of closed-loop work (the timed window)
and then checks every outcome against the oracle. Because a round's work is
fixed, per-operation latencies, store sizes and memory do not drift with
how many rounds a faster program fits into the same number of seconds.

Inputs come only from the round seed. Nothing here records arguments or
identifiers of the program except into ``Recorder.ids``, which only the
benchmark's own pseudonymity self-test turns on.
"""

from __future__ import annotations

import contextlib
import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from pseudorate import scenario as scenario_module
from pseudorate.agent import TrustedAgent
from pseudorate.charging import ChargingProvider, PricingPolicy, RevenueShares
from pseudorate.clock import SimClock
from pseudorate.crypto import Credential, CredentialChain, key_id_of, verify_chain
from pseudorate.errors import TicketError
from pseudorate.privacy_ca import GroupConfig, PrivacyCa
from pseudorate.reputation import Ack, RatingPayload, Reject, ReputationSystem
from pseudorate.scenario import ScenarioConfig
from pseudorate.tpm import TpmInstance
from pseudorate.wire import CpClient, InprocTransport, PcaClient, Router, RsClient, SocketServer, SocketTransport

from oracle import ScoreBook, Tally, check_ledger, expected_charged

now = time.perf_counter

RS_ID = "rs-bench"
GROUPS = {g: GroupConfig(impact=Fraction(g)) for g in (1, 2, 3)}
POLICY = PricingPolicy.increasing({1: 100, 2: 250, 3: 500}, step=10)
SHARES = RevenueShares(Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))
BALANCE = 10**9
INVALID_CHAIN = "reject:invalid-chain"


@dataclass
class Recorder:
    """Samples and counts from the rounds of one kind (traced or untraced)."""

    tally: Tally = field(default_factory=Tally)
    rounds: int = 0
    setup_s: list = field(default_factory=list)
    window_s: float = 0.0
    steps: int = 0
    ratings: int = 0
    acquire_s: list = field(default_factory=list)
    redeem_s: list = field(default_factory=list)
    score_s: list = field(default_factory=list)
    scores: int = 0
    score_phase_s: float = 0.0
    per_round: list = field(default_factory=list)  # (window_s, steps, ratings, scores, score_phase_s)
    speeds: list = field(default_factory=list)  # reference loop iterations/s around each round
    round_samples: list = field(default_factory=list)  # per round: sample kind -> slice of its samples
    socket_hosts: set = field(default_factory=set)
    ids: set | None = None  # identifiers created, for the pseudonymity self-test
    untraced: object = contextlib.nullcontext  # a traced run pauses its tracer for the checks

    def totals(self) -> tuple:
        return (self.window_s, self.steps, self.ratings, self.scores, self.score_phase_s)

    def note_agent(self, agent: TrustedAgent) -> None:
        if self.ids is not None:
            note_agent(self.ids, agent)

    def note_services(self, pca: PrivacyCa) -> None:
        if self.ids is not None:
            self.ids.update(pub.hex() for pub, _ in pca.group_registry().values())


def note_agent(ids: set, agent: TrustedAgent) -> None:
    ids.update({agent.platform_id, agent.tpm.ek_public.hex()})
    for ticket in agent.tickets:
        ids.update({key_id_of(ticket.credential.entity), ticket.credential.entity.hex()})


def new_agent(name: str, seed: int, transport) -> TrustedAgent:
    rng = random.Random(seed)
    return TrustedAgent(
        TpmInstance(rng=rng),
        PcaClient(transport),
        RsClient(transport),
        user_account=f"acct-{name}",
        rs_id=RS_ID,
        rng=rng,
    )


def inproc_services(seed: int, *, rating_log: Path | None = None):
    clock = SimClock()
    pca = PrivacyCa(GROUPS, clock=clock, rng=random.Random(seed))
    rs = ReputationSystem(RS_ID, clock=clock, rating_log=rating_log)
    rs.configure_groups(pca.group_registry())
    return pca, rs, InprocTransport(Router(pca=pca, rs=rs))


def buy_tickets(rec: Recorder, agent: TrustedAgent, groups: list[int]) -> list:
    tickets = []
    for group in groups:
        t0 = now()
        tickets.append(agent.acquire_ticket(group))
        rec.acquire_s.append(now() - t0)
    return tickets


SCORE_PASSES = 5  # end-of-round score checks read every subject this often


def timed_scores(rec: Recorder, client: RsClient, book: ScoreBook, subjects: list[str]) -> None:
    for subject in subjects * SCORE_PASSES:
        t0 = now()
        reply = client.score(subject)
        dt = now() - t0
        rec.score_s.append(dt)
        rec.scores += 1
        rec.score_phase_s += dt
        rec.tally.check("rs.score_oracle", reply == book.expected(subject))


def close_server(server: SocketServer) -> None:
    """``SocketServer.close`` waits until ``serve_forever`` next polls its
    shutdown flag, up to half a second; a connection wakes it at once."""
    closer = threading.Thread(target=server.close)
    closer.start()
    while closer.is_alive():
        try:
            socket.create_connection((server.host, server.port), timeout=1).close()
        except OSError:
            pass
        closer.join(0.005)


def flip_signature_bit(chain: CredentialChain, bit: int) -> CredentialChain:
    sig = bytearray(chain.rating_cred.signature)
    sig[bit // 8] ^= 1 << (bit % 8)
    rating = chain.rating_cred
    return CredentialChain(
        rating_cred=Credential(rating.entity, rating.issuer_public, bytes(sig), rating.meta),
        csk_cred=chain.csk_cred,
        aik_cred=chain.aik_cred,
    )


# ---------------------------------------------------------------------------


class CycleSocket:
    """Each round's new agents open an account and register in set-up, then
    run acquire -> redeem cycles from one client thread over one loopback
    socket server carrying all three services; increasing prices charged at
    acquisition; service logs persisted. A second client thread made the
    run-to-run spread exceed the benchmark's bounds (README.md)."""

    name = "cycle_socket"

    def __init__(self, tiny: bool = False):
        self.params = {
            "clients": 1,
            "agents_per_client": 2 if tiny else 16,
            "cycles_per_agent": [2, 3] if tiny else [4, 8],
            "subjects": 6 if tiny else 40,
            "transport": "socket",
            "charging": "acquisition",
            "pricing": POLICY.to_record(),
            "logs": True,
        }

    def round(self, rec: Recorder, seed: int, workdir: Path) -> None:
        p = self.params
        rng = random.Random(seed)
        subjects = [f"subject-{i}" for i in range(p["subjects"])]
        lo, hi = p["cycles_per_agent"]
        plans = [
            [
                (
                    f"c{c}a{a}",
                    rng.getrandbits(64),
                    [
                        (rng.randint(1, 3), rng.choice(subjects), rng.randint(1, 5))
                        for _ in range(rng.randint(lo, hi))
                    ],
                )
                for a in range(p["agents_per_client"])
            ]
            for c in range(p["clients"])
        ]
        pca_seed = rng.getrandbits(64)

        t0 = now()
        clock = SimClock()
        cp = ChargingProvider(clock, policy=POLICY, shares=SHARES, ledger_log=workdir / "cp-ledger.log")
        pca = PrivacyCa(
            GROUPS,
            clock=clock,
            rng=random.Random(pca_seed),
            charging=cp,
            pricing=POLICY,
            charge_phases=("acquisition",),
            issuance_log=workdir / "pca-issuance.log",
        )
        rs = ReputationSystem(RS_ID, clock=clock, rating_log=workdir / "rs-ratings.log")
        rs.configure_groups(pca.group_registry())
        server = SocketServer(Router(pca=pca, rs=rs, cp=cp))
        transports: list[SocketTransport] = []
        try:
            policies, agents = [], []
            for plan in plans:
                transports.append(SocketTransport(server.host, server.port))
                policies.append(CpClient(transports[-1]).get_policy())  # opens the connection
                agents.append([])
                for name, agent_seed, cycles in plan:
                    agent = new_agent(name, agent_seed, transports[-1])
                    cp.open_account(agent.user_account, BALANCE)
                    agent.register()
                    agents[-1].append((agent, cycles))
            rec.setup_s.append(now() - t0)
            rec.socket_hosts.add(server.host)
            rec.note_services(pca)
            for policy in policies:
                rec.tally.check("cp.policy", policy == POLICY.to_record())

            results: list = [None] * p["clients"]
            barrier = threading.Barrier(p["clients"] + 1)
            threads = [
                threading.Thread(target=self._client, args=(barrier, agents[i], results, i, rec.ids is not None))
                for i in range(p["clients"])
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            start = now()
            for thread in threads:
                thread.join()
            rec.window_s += now() - start

            book, charged = ScoreBook(), {}
            for out in results:
                if isinstance(out, BaseException):
                    raise out
                rec.tally.merge(out.tally)
                rec.acquire_s += out.acquire_s
                rec.redeem_s += out.redeem_s
                rec.steps += out.steps
                rec.ratings += len(out.accepted)
                charged.update(out.charged)
                for subject, group, score in out.accepted:
                    book.add(subject, GROUPS[group].impact, score)
                if rec.ids is not None:
                    rec.ids |= out.ids

            timed_scores(rec, RsClient(transports[0]), book, subjects)
            with rec.untraced():
                accepted = sum(len(v) for v in book.by_subject.values())
                rec.tally.check("rs.spent_eq_ratings", rs.spent_count == len(rs.records) == accepted)
                check_ledger(rec.tally, cp, charged, BALANCE, POLICY)
                log = workdir / "cp-ledger.log"
                replayed = ChargingProvider(SimClock(), policy=POLICY, shares=SHARES, ledger_log=log)
                rec.tally.check(
                    "ledger.restart_replay",
                    all(replayed.balance(a) == cp.balance(a) for a in charged)
                    and replayed.revenue_totals == cp.revenue_totals,
                )
        finally:
            for transport in transports:
                transport.close()
            close_server(server)

    @staticmethod
    def _client(barrier, agents, results, index, collect) -> None:
        out = _ClientResult(ids=set() if collect else None)
        try:
            barrier.wait()
            for agent, cycles in agents:
                groups = out.charged[agent.user_account] = []
                for group, subject, score in cycles:
                    out.steps += 2
                    t0 = now()
                    try:
                        ticket = agent.acquire_ticket(group)
                    except TicketError:
                        out.tally.check("cycle.acquire", False)
                        continue
                    out.acquire_s.append(now() - t0)
                    out.tally.check("cycle.acquire", True)
                    groups.append(group)
                    payload = agent.make_payload(subject, score)
                    t0 = now()
                    try:
                        result = agent.submit_chain(ticket, payload, agent.build_chain(ticket, payload))
                    except TicketError as exc:
                        result = exc
                    dt = now() - t0
                    if out.tally.check("cycle.redeem", isinstance(result, Ack)):
                        out.redeem_s.append(dt)
                        out.accepted.append((subject, group, score))
                if out.ids is not None:
                    note_agent(out.ids, agent)
        except BaseException as exc:  # re-raised by the main thread
            results[index] = exc
            return
        results[index] = out


@dataclass
class _ClientResult:
    tally: Tally = field(default_factory=Tally)
    steps: int = 0
    acquire_s: list = field(default_factory=list)
    redeem_s: list = field(default_factory=list)
    accepted: list = field(default_factory=list)
    charged: dict = field(default_factory=dict)
    ids: set | None = None


# ---------------------------------------------------------------------------


class RedeemInproc:
    """Redemption only: tickets are bought in set-up; the window submits
    honest chains, replays and bit-flipped chains in process, one client,
    no charging and no logs."""

    name = "redeem_inproc"

    def __init__(self, tiny: bool = False):
        self.params = {
            "agents": 2 if tiny else 4,
            "tickets_per_agent": 5 if tiny else 27,
            "replay_share": 0.10,
            "bitflip_share": 0.05,
            "subjects": 5 if tiny else 30,
            "transport": "inproc",
            "charging": "none",
            "logs": False,
        }

    def round(self, rec: Recorder, seed: int, workdir: Path) -> None:
        p = self.params
        rng = random.Random(seed)
        subjects = [f"subject-{i}" for i in range(p["subjects"])]
        agent_plans = [
            (f"r{a}", rng.getrandbits(64), [rng.randint(1, 3) for _ in range(p["tickets_per_agent"])])
            for a in range(p["agents"])
        ]
        slots = [(a, k) for a in range(p["agents"]) for k in range(p["tickets_per_agent"])]
        rng.shuffle(slots)
        submissions = round(len(slots) / (1 - p["replay_share"]))
        bitflips = round(submissions * p["bitflip_share"])
        kinds = ["bitflip"] * bitflips + ["honest"] * (len(slots) - bitflips)
        rng.shuffle(kinds)
        first_honest = kinds.index("honest")
        for _ in range(submissions - len(slots)):
            kinds.insert(rng.randint(first_honest + 1, len(kinds)), "replay")
        ops, slot_iter = [], iter(slots)
        for kind in kinds:
            if kind == "replay":
                ops.append((kind, rng.random(), None, None, None))  # which earlier ack to replay
            else:
                ops.append((kind, next(slot_iter), rng.choice(subjects), rng.randint(1, 5), rng.randrange(512)))
        pca_seed = rng.getrandbits(64)

        t0 = now()
        pca, rs, transport = inproc_services(pca_seed)
        agents, tickets = [], {}
        for a, (name, agent_seed, groups) in enumerate(agent_plans):
            agent = new_agent(name, agent_seed, transport)
            agent.register()
            agents.append(agent)
            for k, ticket in enumerate(buy_tickets(rec, agent, groups)):
                tickets[(a, k)] = ticket
        rec.setup_s.append(now() - t0)

        book, acked = ScoreBook(), []
        for kind, slot, subject, score, bit in ops:
            if kind == "replay":
                if not acked:
                    rec.tally.check("redeem.replay", False)
                    continue
                agent, ticket, payload, chain = acked[int(slot * len(acked))]
                t0 = now()
                result = agent.submit_chain(ticket, payload, chain)
                dt = now() - t0
                rec.tally.check("redeem.replay", isinstance(result, Reject) and result.reason == "double-spend")
            else:
                agent, ticket = agents[slot[0]], tickets[slot]
                payload = agent.make_payload(subject, score)
                t0 = now()
                chain = agent.build_chain(ticket, payload)
                if kind == "bitflip":
                    chain = flip_signature_bit(chain, bit)
                result = agent.submit_chain(ticket, payload, chain)
                dt = now() - t0
                if kind == "bitflip":
                    rec.tally.check(
                        "redeem.bitflip", isinstance(result, Reject) and result.reason == "invalid-chain"
                    )
                elif rec.tally.check("redeem.honest", isinstance(result, Ack)):
                    rec.redeem_s.append(dt)
                    rec.ratings += 1
                    acked.append((agent, ticket, payload, chain))
                    book.add(subject, GROUPS[ticket.group].impact, score)
            rec.window_s += dt
            rec.steps += 1

        rec.tally.check("rs.spent_eq_ratings", rs.spent_count == len(rs.records) == len(acked))
        timed_scores(rec, RsClient(transport), book, subjects)
        rec.note_services(pca)
        for agent in agents:
            rec.note_agent(agent)


# ---------------------------------------------------------------------------


class ScenarioDrill:
    """A generated scenario run through ``run_scenario`` with a state dir,
    as ``pseudorate run`` does: ex-post charging with increasing prices,
    tamper drills and periodic score steps. After the run, the services are
    rebuilt from the state dir and probed with fresh agents: the probe gives
    this workload's acquire, redeem and score latencies."""

    name = "scenario_drill"

    def __init__(self, tiny: bool = False):
        self.params = {
            "agents": 4 if tiny else 8,
            "tickets_per_agent": 4 if tiny else 8,
            "acquire_count": 2,
            "redeems_per_agent": 1 if tiny else 5,
            "replays_per_agent": 1,
            "bitflips": 2 if tiny else 4,
            "crossovers": 2 if tiny else 4,
            "advances": 2,
            "score_every": 10,
            "subjects": 5 if tiny else 30,
            "probe_agents": 2 if tiny else 3,
            "probe_tickets": 2 if tiny else 4,
            "charging": "ex_post",
            "pricing": POLICY.to_record(),
            "transport": "inproc",
            "logs": True,
        }

    def _scenario(self, rng: random.Random) -> tuple[dict, list, ScoreBook, dict]:
        """The scenario file plus what its transcript must show: one
        (action, outcome, score) per action event, the final scores and
        the group order each account is charged in."""
        p = self.params
        names = [f"agent-{i}" for i in range(p["agents"])]
        subjects = [f"subject-{i}" for i in range(p["subjects"])]
        script = [{"action": "register", "agent": n} for n in names]
        expect = [("register", "registered", None)] * len(names)

        acquires = [
            (n, rng.randint(1, 3))
            for n in names
            for _ in range(p["tickets_per_agent"] // p["acquire_count"])
        ]
        rng.shuffle(acquires)
        wallets: dict[str, list[int]] = {n: [] for n in names}  # fresh tickets' groups, oldest first
        for n, group in acquires:
            script.append({"action": "acquire", "agent": n, "group": group, "count": p["acquire_count"]})
            expect += [("acquire", "ticket", None)] * p["acquire_count"]
            wallets[n] += [group] * p["acquire_count"]

        bag = [("redeem", n) for n in names for _ in range(p["redeems_per_agent"])]
        bag += [("replay", n) for n in names for _ in range(p["replays_per_agent"])]
        bag += [("bitflip", rng.choice(names)) for _ in range(p["bitflips"])]
        bag += [("crossover", *rng.sample(names, 2)) for _ in range(p["crossovers"])]
        bag += [("advance", rng.randint(1, 600)) for _ in range(p["advances"])]
        rng.shuffle(bag)

        book, charged = ScoreBook(), {f"acct-{n}": [] for n in names}
        for i, op in enumerate(bag, 1):
            kind = op[0]
            if kind in ("redeem", "replay"):
                n, subject, score = op[1], rng.choice(subjects), rng.randint(1, 5)
                group = wallets[n].pop(0)
                book.add(subject, GROUPS[group].impact, score)
                charged[f"acct-{n}"].append(group)
                if kind == "redeem":
                    script.append({"action": "redeem", "agent": n, "subject": subject, "score": score})
                    expect.append(("redeem", "ack", None))
                else:
                    script.append({"action": "tamper", "agent": n, "mode": "replay", "subject": subject, "score": score})
                    expect.append(("tamper", "first=ack second=reject:double-spend", None))
            elif kind == "bitflip":
                script.append({"action": "tamper", "agent": op[1], "mode": "bitflip", "subject": rng.choice(subjects)})
                expect.append(("tamper", INVALID_CHAIN, None))
            elif kind == "crossover":
                script.append(
                    {"action": "tamper", "agent": op[1], "mode": "crossover", "other": op[2], "subject": rng.choice(subjects)}
                )
                expect.append(("tamper", INVALID_CHAIN, None))
            else:
                script.append({"action": "advance", "seconds": op[1]})
                expect.append(("advance", "now", None))
            if i % p["score_every"] == 0:
                subject = rng.choice(subjects)
                script.append({"action": "score", "subject": subject})
                expect.append(("score", "scored", (subject, *book.expected(subject))))

        raw = {
            "seed": rng.getrandbits(32),
            "rs_id": RS_ID,
            "groups": {str(g): {"impact": str(cfg.impact)} for g, cfg in GROUPS.items()},
            "policy": POLICY.to_record(),
            "shares": SHARES.to_record(),
            "charging": "ex_post",
            "agents": [{"name": n, "account": f"acct-{n}", "balance": BALANCE} for n in names],
            "script": script,
        }
        return raw, expect, book, charged

    def round(self, rec: Recorder, seed: int, workdir: Path) -> None:
        p = self.params
        rng = random.Random(seed)
        raw, expect, book, charged = self._scenario(rng)
        path = workdir / "scenario.json"
        path.write_text(json.dumps(raw))
        state = workdir / "state"
        probe_plans = [
            (f"probe{a}", rng.getrandbits(64), [rng.randint(1, 3) for _ in range(p["probe_tickets"])])
            for a in range(p["probe_agents"])
        ]
        probe_ratings = [(rng.choice(sorted(book.by_subject)), rng.randint(1, 5)) for _ in range(p["probe_agents"] * p["probe_tickets"])]
        pca_seed = rng.getrandbits(64)

        t0 = now()
        config = ScenarioConfig.from_json_file(path)
        parse_s = now() - t0

        t0 = now()
        transcript = scenario_module.run_scenario(config, state_dir=state)
        rec.window_s += now() - t0
        rec.steps += len(config.script)

        with rec.untraced():
            rec.ratings += self._check_transcript(rec, transcript, expect, book, charged)
            if rec.ids is not None:
                for event in transcript.events:
                    detail = event.get("detail", {})
                    rec.ids.update(str(detail[k]) for k in ("platform_id", "aik_digest") if k in detail)
                    if "chain" in detail:
                        chain = CredentialChain.from_bytes(detail["chain"])
                        for cred in (chain.rating_cred, chain.csk_cred, chain.aik_cred):
                            rec.ids.update({cred.issuer_public.hex(), key_id_of(cred.issuer_public)})
                rec.ids.update(pub.hex() for pub in transcript.groups.values())
        self._restart_and_probe(rec, transcript, state, book, probe_plans, probe_ratings, pca_seed, parse_s)

    def _check_transcript(self, rec, transcript, expect, book, charged) -> int:
        tally = rec.tally
        events = [e for e in transcript.events if e["kind"] == "action" and e["action"] != "setup"]
        tally.check("transcript.event_count", len(events) == len(expect))
        registry = {int(g): pub for g, pub in transcript.groups.items()}
        acks = 0
        for event, (action, outcome, score) in zip(events, expect):
            got = event["outcome"]
            same = event["action"] == action and (got.startswith("now=") if outcome == "now" else got == outcome)
            tally.check("transcript.outcome", same)
            if action in ("redeem", "tamper"):
                acks += got.count("ack")
            detail = event["detail"]
            if score is not None:
                subject, count, value = score
                tally.check(
                    "transcript.score",
                    (detail.get("subject"), detail.get("count"), detail.get("score")) == (subject, count, value),
                )
            if "chain" in detail:
                chain = CredentialChain.from_bytes(detail["chain"])
                payload = RatingPayload.from_record(detail["payload"])
                valid = verify_chain(chain, registry).valid and chain.rating_cred.entity == payload.canonical_bytes()
                tally.check("transcript.reverify", valid == (INVALID_CHAIN not in got))

        final = transcript.final
        expected_acks = sum(len(v) for v in book.by_subject.values())
        tally.check("scenario.spent_eq_ratings", final["spent"] == final["ratings"] == acks == expected_acks)
        tally.check(
            "scenario.final_scores",
            final["scores"] == {s: book.expected(s)[1] for s in book.by_subject},
        )
        paid = 0
        for account, groups in charged.items():
            owed = expected_charged(POLICY, groups)
            paid += owed
            tally.check("ledger.charged_total", BALANCE - final["balances"][account] == owed)
        tally.check("ledger.revenue_conservation", sum(final["revenue"].values()) == paid)
        return acks

    def _restart_and_probe(self, rec, transcript, state, book, probe_plans, probe_ratings, pca_seed, parse_s) -> None:
        """Services rebuilt from the run's logs must hold the run's final
        state and keep working for new agents. Set-up is the scenario parse,
        this rebuild and the probe agents' accounts and registrations."""
        final, tally = transcript.final, rec.tally
        t0 = now()
        clock = SimClock()
        cp = ChargingProvider(clock, policy=POLICY, shares=SHARES, ledger_log=state / "cp-ledger.log")
        pca = PrivacyCa(
            GROUPS,
            clock=clock,
            rng=random.Random(pca_seed),
            charging=cp,
            pricing=POLICY,
            issuance_log=state / "pca-issuance.log",
        )
        rs = ReputationSystem(
            RS_ID,
            clock=clock,
            expost_charge=pca.charge_for_ticket,
            rating_log=state / "rs-ratings.log",
            spent_snapshot=state / "rs-spent.snap",
        )
        # the issuance log does not hold the group keys, so the rebuilt CA
        # has new ones and the RS must take its registry again
        rs.configure_groups(pca.group_registry())
        transport = InprocTransport(Router(pca=pca, rs=rs, cp=cp))
        probes = []
        for name, seed, groups in probe_plans:
            agent = new_agent(name, seed, transport)
            cp.open_account(agent.user_account, BALANCE)
            agent.register()
            probes.append((agent, groups))
        rec.setup_s.append(parse_s + now() - t0)
        for account, balance in final["balances"].items():
            tally.check("ledger.restart_replay", cp.balance(account) == balance)
            tally.check("ledger.replayed_balance", cp.replayed_balance(account) == balance)
        tally.check("ledger.restart_replay", cp.revenue_totals == final["revenue"])
        tally.check("restart.spent", rs.spent_count == len(rs.records) == final["ratings"])

        charged, ratings = {}, iter(probe_ratings)
        for agent, groups in probes:
            charged[agent.user_account] = groups
            for ticket in buy_tickets(rec, agent, groups):
                subject, score = next(ratings)
                payload = agent.make_payload(subject, score)
                t0 = now()
                result = agent.submit_chain(ticket, payload, agent.build_chain(ticket, payload))
                dt = now() - t0
                if tally.check("probe.redeem", isinstance(result, Ack)):
                    rec.redeem_s.append(dt)
                    book.add(subject, GROUPS[ticket.group].impact, score)
            rec.note_agent(agent)
        timed_scores(rec, RsClient(transport), book, sorted(book.by_subject))
        check_ledger(tally, cp, charged, BALANCE, POLICY, others=final["balances"])
        rec.note_services(pca)


WORKLOADS = {w.name: w for w in (CycleSocket, RedeemInproc, ScenarioDrill)}
