"""Shared builders for the test suite: a directly-wired service stack (no
wire layer), helpers to build honest chains and mutate them, a chain forged
under a key of small order, ``raises_code`` to expect a failure by its error
code, ``count_calls`` to count calls of package functions, and the folds and
decoded logs that replay and pseudonymity tests compare and scan."""

from __future__ import annotations

import contextlib
import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from pseudorate.agent import RATING_META, TrustedAgent
from pseudorate.charging import ChargingProvider, PricingPolicy, RevenueShares
from pseudorate.clock import SimClock
from pseudorate import crypto
from pseudorate.crypto import Credential, CredentialChain, KeyPair
from pseudorate.encoding import encode, read_records
from pseudorate.errors import TicketError
from pseudorate.privacy_ca import GroupConfig, PrivacyCa
from pseudorate.reputation import ReputationSystem
from pseudorate.tpm import TpmInstance

TOKEN = "token-for-tests"
# The neutral point's encoding, a key of order 1, and a "signature" under it
# (R the neutral point, S = 0) that OpenSSL's verify accepts for every message.
NEUTRAL = b"\x01" + bytes(31)
NEUTRAL_FORGERY = b"\x01" + bytes(63)
# What crypto._sodium holds on each backend of its Ed25519 and ChaCha20-Poly1305
# primitives: None runs them in cryptography, and the libsodium handle is None
# where the library cannot be loaded.
BACKENDS = {"openssl": None, "sodium": crypto._sodium}


@contextlib.contextmanager
def on_backend(name: str):
    """Run every primitive on backend ``name``; skips the test where libsodium
    cannot be loaded."""
    if name == "sodium" and BACKENDS["sodium"] is None:
        pytest.skip("libsodium cannot be loaded")
    saved, crypto._sodium = crypto._sodium, BACKENDS[name]
    try:
        yield name
    finally:
        crypto._sodium = saved


@contextlib.contextmanager
def raises_code(code: str):
    """Expect a :class:`TicketError` whose code is exactly ``code``; yields
    pytest's exception info."""
    with pytest.raises(TicketError) as excinfo:
        yield excinfo
    assert excinfo.value.code == code


def patch_everywhere(monkeypatch, original, replacement) -> None:
    """Replace ``original`` in every ``pseudorate`` module that holds it."""
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "pseudorate" and module.__dict__.get(original.__name__) is original:
            monkeypatch.setattr(module, original.__name__, replacement)


def count_calls(monkeypatch, owner, names) -> Counter:
    """Count calls of ``owner``'s functions ``names`` from anywhere in the package."""
    calls = Counter()
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        patch_everywhere(monkeypatch, original, counted)
    return calls


def ledger_state(cp: ChargingProvider) -> tuple:
    """What a ledger's fold holds: its accounts, revenue totals and policy."""
    return cp._accounts, cp.revenue_totals, cp.policy


def rating_state(rs: ReputationSystem) -> tuple:
    """What a rating fold holds: each spent ticket's rating, in stored order, and the group table."""
    return list(rs._spent.items()), rs.group_registry


def log_bytes(path: Path) -> bytes:
    """A log's records decoded and encoded again, for byte scans: the file
    holds each record as base64, which hides a bytes field from a raw scan."""
    return b"||".join(encode(r) for r in read_records(path))


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
    phases = ("acquisition",) if charging == "acquisition" else ()
    pca = PrivacyCa(
        groups,
        clock=clock,
        rng=random.Random(rng.getrandbits(64)),
        charging=cp if charging != "none" else None,
        charge_phases=phases,
        authority_tokens={TOKEN},
        **(pca_kwargs or {}),
    )
    expost = pca.charge_for_ticket if charging == "ex_post" else None
    rs_options = {"expost_charge": expost, **(rs_kwargs or {})}
    rs = ReputationSystem(rs_id, clock=clock, **rs_options)
    rs.configure_groups(pca.group_registry())
    return Stack(clock=clock, rng=rng, cp=cp, pca=pca, rs=rs)


def certify_with(pair: KeyPair, entity: bytes, meta: dict[str, str] | None = None) -> Credential:
    """A credential signed with a key pair held in the clear, as the authority signs."""
    return crypto.certify(pair.public, partial(crypto.sign, pair), entity, meta)


def certify_fresh_key(tpm: TpmInstance, aik_handle: int) -> Credential:
    """``certify_key`` over a new signing key: the module refuses it with
    ``not-activated`` until the identity key is activated."""
    return tpm.certify_key(aik_handle, tpm.load_key(tpm.cmk_create_key()))


def honest_chain(stack: Stack, agent: TrustedAgent, *, group: int = 1, subject: str = "seller-1", score: int = 4):
    """Acquire a ticket and build a valid submission; returns (ticket, payload, chain)."""
    ticket = agent.acquire_ticket(group)
    payload = agent.make_payload(subject, score)
    chain = agent.build_chain(ticket, payload)
    return ticket, payload, chain


def small_order_chain(stack: Stack, payload) -> CredentialChain:
    """A chain for ``payload`` whose signing key and identity key are both
    :data:`NEUTRAL`, its two lower links "signed" with :data:`NEUTRAL_FORGERY`,
    and its group credential issued for the neutral point by group 1's key."""
    forge = lambda _preimage: NEUTRAL_FORGERY
    return CredentialChain(
        rating_cred=crypto.certify(NEUTRAL, forge, payload.canonical_bytes(), RATING_META),
        csk_cred=crypto.certify(NEUTRAL, forge, NEUTRAL, {"kind": "certified-signing-key"}),
        aik_cred=certify_with(stack.pca._group_keys[1], NEUTRAL, {"kind": "group-credential", "group": "1"}),
    )


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
