"""Shared builders for the test suite: a directly-wired service stack (no
wire layer), helpers to build honest chains and mutate them, and
``raises_code`` to expect a failure by its error code."""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import pytest

from pseudorate.agent import TrustedAgent
from pseudorate.charging import ChargingProvider, PricingPolicy, RevenueShares
from pseudorate.clock import SimClock
from pseudorate import crypto
from pseudorate.crypto import Credential, CredentialChain, KeyPair
from pseudorate.errors import TicketError
from pseudorate.privacy_ca import GroupConfig, PrivacyCa
from pseudorate.reputation import ReputationSystem
from pseudorate.tpm import TpmInstance

TOKEN = "token-for-tests"


@contextlib.contextmanager
def raises_code(code: str):
    """Expect a :class:`TicketError` whose code is exactly ``code``; yields
    pytest's exception info."""
    with pytest.raises(TicketError) as excinfo:
        yield excinfo
    assert excinfo.value.code == code


@dataclass
class Stack:
    clock: SimClock
    rng: random.Random
    cp: ChargingProvider
    pca: PrivacyCa
    rs: ReputationSystem

    def new_agent(self, name: str, seed: int | None = None, register: bool = True) -> TrustedAgent:
        rng = random.Random(seed if seed is not None else self.rng.getrandbits(64))
        agent = TrustedAgent(
            TpmInstance(rng=rng),
            self.pca,
            self.rs,
            user_account=f"acct-{name}",
            rs_id=self.rs.rs_id,
            rng=rng,
        )
        if register:
            try:
                self.cp.open_account(agent.user_account, 10_000)
            except Exception:
                pass
            agent.register()
        return agent


def make_stack(
    seed: int = 0,
    *,
    group_count: int = 3,
    policy: PricingPolicy | None = None,
    shares: RevenueShares | None = None,
    charging: str = "none",
    credit_limit: int | None = None,
    scale: tuple[int, int] = (1, 5),
    rs_id: str = "rs-test",
    cp_kwargs: dict | None = None,
    pca_kwargs: dict | None = None,
    rs_kwargs: dict | None = None,
) -> Stack:
    rng = random.Random(seed)
    clock = SimClock()
    policy = policy or PricingPolicy.free()
    cp = ChargingProvider(clock, policy=policy, shares=shares, credit_limit=credit_limit, **(cp_kwargs or {}))
    groups = {g: GroupConfig(impact=Fraction(g)) for g in range(1, group_count + 1)}
    pricing = policy if charging != "none" else None
    phases = ("acquisition",) if charging in ("acquisition", "both") else ()
    pca = PrivacyCa(
        groups,
        clock=clock,
        rng=random.Random(rng.getrandbits(64)),
        charging=cp if pricing else None,
        pricing=pricing,
        charge_phases=phases,
        authority_tokens={TOKEN},
        **(pca_kwargs or {}),
    )
    expost = pca.charge_for_ticket if charging in ("ex_post", "both") else None
    rs_options = {"expost_charge": expost, **(rs_kwargs or {})}
    rs = ReputationSystem(rs_id, clock=clock, scale=scale, **rs_options)
    rs.configure_groups(pca.group_registry())
    return Stack(clock=clock, rng=rng, cp=cp, pca=pca, rs=rs)


def certify_with(pair: KeyPair, entity: bytes, meta: dict[str, str] | None = None) -> Credential:
    """A credential signed with a key pair held in the clear, as the authority signs."""
    return crypto.certify(pair.public, partial(crypto.sign, pair), entity, meta)


def honest_chain(stack: Stack, agent: TrustedAgent, *, group: int = 1, subject: str = "seller-1", score: int = 4):
    """Acquire a ticket and build a valid submission; returns (ticket, payload, chain)."""
    ticket = agent.acquire_ticket(group)
    payload = agent.make_payload(subject, score)
    chain = agent.build_chain(ticket, payload)
    return ticket, payload, chain


def replace(chain: CredentialChain, slot: str, cred: Credential) -> CredentialChain:
    parts = {
        "rating": chain.rating_cred,
        "csk": chain.csk_cred,
        "aik": chain.aik_cred,
    }
    parts[slot] = cred
    return CredentialChain(rating_cred=parts["rating"], csk_cred=parts["csk"], aik_cred=parts["aik"])


def mutate_credential(cred: Credential, fieldname: str, mode: str = "flip") -> Credential:
    """Return a copy with one field altered. Modes: flip (first byte/char),
    truncate, extend."""

    def alter_bytes(value: bytes) -> bytes:
        if mode == "flip":
            if not value:
                return b"\x01"
            return bytes([value[0] ^ 0x01]) + value[1:]
        if mode == "truncate":
            return value[:-1] if value else b""
        return value + b"\x00"

    entity, issuer, sig = cred.entity, cred.issuer_public, cred.signature
    meta = dict(cred.meta)
    if fieldname == "entity":
        entity = alter_bytes(entity)
    elif fieldname == "issuer":
        issuer = alter_bytes(issuer)
    elif fieldname == "sig":
        sig = alter_bytes(sig)
    elif fieldname == "meta":
        if mode == "truncate" and meta:
            meta.pop(sorted(meta)[0])
        elif mode == "extend" or not meta:
            meta["x-added"] = "1"
        else:
            key = sorted(meta)[0]
            meta[key] = meta[key] + "!"
    else:
        raise ValueError(fieldname)
    return Credential(entity=entity, issuer_public=issuer, signature=sig, meta=meta)


def all_single_field_mutants(chain: CredentialChain):
    """Every (slot, field, mode) mutation of a valid chain, for the mutation
    oracle: each must fail verification."""
    slots = {"rating": chain.rating_cred, "csk": chain.csk_cred, "aik": chain.aik_cred}
    for slot, cred in slots.items():
        for fieldname in ("entity", "issuer", "sig", "meta"):
            for mode in ("flip", "truncate", "extend"):
                yield slot, fieldname, mode, replace(chain, slot, mutate_credential(cred, fieldname, mode))


def private_material(stack: Stack, agents: list[TrustedAgent]) -> list[bytes]:
    """Every private key byte-string held anywhere in a stack; used by the
    shielding byte-scan tests. Reaches into internals on purpose."""
    secrets: list[bytes] = []
    for key in stack.pca._group_keys.values():
        secrets.append(key.private)
    for agent in agents:
        tpm = agent.tpm
        secrets.append(tpm._ek.pair.private)
        secrets.append(tpm._wrap_key)
        for shielded in tpm._keys.values():
            secrets.append(shielded.pair.private)
        for pair in tpm._created.values():
            secrets.append(pair.private)
    return secrets
