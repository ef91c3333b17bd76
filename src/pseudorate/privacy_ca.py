"""Certification authority for pseudonymous rating tickets.

Registers platforms against their endorsement keys, runs the
challenge/response issuance handshake, certifies identity keys into price
groups under per-group shared key pairs, initiates charging, and — alone
among the parties — can map an issued ticket back to the platform and
account that bought it.
"""

from __future__ import annotations

import logging
import random
import secrets
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import takewhile
from pathlib import Path

from . import crypto
from .charging import (
    PHASE_ACQUISITION,
    PHASE_EX_POST,
    ChargeReceipt,
    ChargingProvider,
    Declined,
    PricingPolicy,
    price,
)
from .clock import SimClock
from .encoding import append_record, read_records
from .errors import InvalidArgument, TicketError, UnknownGroup

logger = logging.getLogger(__name__)

CHALLENGE_TTL = 300  # seconds of simulated time; single use regardless


class PcaError(TicketError):
    code = "pca-error"


@dataclass(frozen=True)
class GroupConfig:
    impact: Fraction


@dataclass(frozen=True)
class Challenge:
    nonce: bytes
    expires: int


@dataclass(frozen=True)
class DeniedRequest:
    reason: str


@dataclass(frozen=True)
class IssuedTicket:
    aik_digest: str
    platform_id: str
    group: int
    at: int
    identity_label: str
    charge_ref: str


@dataclass
class IdentityRecord:
    platform_id: str
    ek_public: bytes
    user_account: str
    issued: list[IssuedTicket] = field(default_factory=list)
    blacklisted: bool = False


@dataclass
class PendingIssuance:
    nonce: bytes
    aik_public: bytes
    group: int
    platform_id: str
    expires: int
    charge_ref: str


class PrivacyCa:
    def __init__(
        self,
        groups: dict[int, GroupConfig],
        *,
        clock: SimClock | None = None,
        rng: random.Random | None = None,
        charging: ChargingProvider | None = None,
        pricing: PricingPolicy | None = None,
        charge_phases: tuple[str, ...] = (),
        authority_tokens: set[str] | None = None,
        issuance_log: Path | str | None = None,
    ):
        self._validate_groups(groups)
        self._clock = clock or SimClock()
        self._randbytes = rng.randbytes if rng is not None else secrets.token_bytes
        self._groups = dict(groups)
        self._group_keys = {g: crypto.generate_keypair(seed=self._randbytes(32)) for g in sorted(groups)}
        self._charging = charging
        self._pricing = pricing
        # ex-post charges reach the authority through charge_for_ticket only
        for phase in charge_phases:
            if phase != PHASE_ACQUISITION:
                raise InvalidArgument(f"the authority charges only at acquisition, not {phase!r}")
        self._charge_phases = tuple(charge_phases)
        self._authority_tokens = set(authority_tokens or ())
        # one writer at a time: nonce consumption and the identity index are
        # check-and-update pairs and must be linearizable
        self._lock = threading.RLock()
        self._platforms: dict[str, IdentityRecord] = {}
        self._tickets: dict[str, IssuedTicket] = {}  # aik digest -> ticket
        self._pending: dict[bytes, PendingIssuance] = {}
        # per-account ticket-ref -> price index; refs are PCA-internal ids,
        # never shown to the charging provider
        self._account_ticket_index: dict[str, dict[str, int]] = {}
        self._issuance_log = Path(issuance_log) if issuance_log else None
        if self._issuance_log and self._issuance_log.exists():
            for record in read_records(self._issuance_log):
                self._apply(record)

    @staticmethod
    def _validate_groups(groups: dict[int, GroupConfig]) -> None:
        if not groups:
            raise InvalidArgument("at least one group is required")
        if sorted(groups) != list(range(1, len(groups) + 1)):
            raise InvalidArgument("group ids must be dense 1..G")
        if any(cfg.impact <= 0 for cfg in groups.values()):
            raise InvalidArgument("impact factors must be positive")

    # -- group table ----------------------------------------------------------

    def group_registry(self) -> dict[int, tuple[bytes, Fraction]]:
        """What the reputation side needs: per-group verification key and impact."""
        return {g: (self._group_keys[g].public, self._groups[g].impact) for g in sorted(self._groups)}

    # -- registration ----------------------------------------------------------

    def register_platform(self, ek_public: bytes, user_account: str) -> str:
        with self._lock:
            platform_id = crypto.sha256_hex(ek_public)
            if platform_id in self._platforms:
                raise PcaError("endorsement key already registered", code="duplicate-ek")
            self._commit(
                {
                    "kind": "register",
                    "platform_id": platform_id,
                    "ek_public": ek_public,
                    "user_account": user_account,
                }
            )
            return platform_id

    # -- issuance ----------------------------------------------------------------

    def request_credential(
        self, aik_public: bytes, group: int, platform_id: str
    ) -> Challenge | DeniedRequest:
        """Authorization first, handshake only afterwards: blacklist and
        charging decisions happen before any challenge is produced."""
        with self._lock:
            # expired challenges are a prefix: the TTL is constant and the clock never goes back
            now = self._clock.now()
            for nonce in list(takewhile(lambda n: self._pending[n].expires < now, self._pending)):
                del self._pending[nonce]
            record = self._platforms.get(platform_id)
            if record is None:
                raise PcaError("platform not registered", code="unregistered-platform")
            self._require_group(group)
            if record.blacklisted:
                return DeniedRequest(reason="blacklisted")
            aik_digest = crypto.key_id_of(aik_public)
            if aik_digest in self._tickets:
                raise PcaError("identity key already carries a ticket", code="duplicate-aik")

            charge_ref = self._randbytes(16).hex()
            if PHASE_ACQUISITION in self._charge_phases:
                result = self._charge(record, group, charge_ref, PHASE_ACQUISITION)
                if isinstance(result, Declined):
                    return DeniedRequest(reason="cp-declined")

            nonce = self._randbytes(32)
            pending = PendingIssuance(
                nonce=nonce,
                aik_public=aik_public,
                group=group,
                platform_id=platform_id,
                expires=now + CHALLENGE_TTL,
                charge_ref=charge_ref,
            )
            self._pending[nonce] = pending
            return Challenge(nonce=nonce, expires=pending.expires)

    def complete_handshake(self, nonce: bytes, signature: bytes) -> bytes:
        """Verify the platform's possession proof and hand back the group
        credential sealed to the platform's endorsement key."""
        with self._lock:
            pending = self._pending.pop(nonce, None)  # single use, valid or not
            if pending is None:
                raise PcaError("unknown or already-used challenge", code="handshake-failed")
            if self._clock.now() > pending.expires:
                raise PcaError("challenge expired", code="handshake-failed")
            if not crypto.verify(
                pending.aik_public, crypto.ISSUANCE_NONCE_DOMAIN + nonce, signature
            ):
                raise PcaError("possession proof did not verify", code="handshake-failed")
            aik_digest = crypto.key_id_of(pending.aik_public)
            if aik_digest in self._tickets:
                raise PcaError("identity key already carries a ticket", code="handshake-failed")

            record = self._platforms[pending.platform_id]
            identity_label = self._randbytes(8).hex()
            meta = {
                "kind": "group-credential",
                "group": str(pending.group),
                "label": identity_label,
                "tpm": "software-emulator-v1",
                "platform": "generic-trusted-platform",
            }
            group_pair = self._group_keys[pending.group]
            credential = crypto.certify(group_pair.public, partial(crypto.sign, group_pair), pending.aik_public, meta)

            blob_nonce = self._randbytes(16)
            plaintext = crypto.encode_activation_payload(pending.aik_public, credential, blob_nonce)
            blob = crypto.seal(record.ek_public, plaintext, ephemeral_seed=self._randbytes(32))

            self._commit(
                {
                    "kind": "issue",
                    "platform_id": record.platform_id,
                    "aik_digest": aik_digest,
                    "group": pending.group,
                    "at": self._clock.now(),
                    "label": identity_label,
                    "charge_ref": pending.charge_ref,
                }
            )
            return blob

    # -- controlled de-anonymisation ------------------------------------------

    def resolve_identity(self, aik_digest: str, authority_token: str) -> IdentityRecord:
        """The one place pseudonyms map back to platforms; requires a
        contractual bearer token."""
        with self._lock:
            if authority_token not in self._authority_tokens:
                raise PcaError("missing or invalid authority token", code="forbidden")
            ticket = self._tickets.get(aik_digest)
            if ticket is None:
                raise PcaError("no ticket issued for that identity key", code="not-found")
            return self._platforms[ticket.platform_id]

    # -- policy enforcement ------------------------------------------------------

    def blacklist(self, platform_id: str, flag: bool) -> None:
        with self._lock:
            record = self._platforms.get(platform_id)
            if record is None:
                raise PcaError("platform not registered", code="unknown-platform")
            self._commit({"kind": "blacklist", "platform_id": platform_id, "flag": int(flag)})

    # -- charging ------------------------------------------------------------------

    def charge_for_ticket(self, aik_digest: str, group: int) -> ChargeReceipt | Declined:
        """Ex-post charging entry point used at redemption time; the caller
        only ever supplies the pseudonymous ticket digest."""
        with self._lock:
            ticket = self._tickets.get(aik_digest)
            if ticket is None:
                raise PcaError("no ticket issued for that identity key", code="not-found")
            return self._charge(self._platforms[ticket.platform_id], group, ticket.charge_ref, PHASE_EX_POST)

    def _charge(
        self, record: IdentityRecord, group: int, charge_ref: str, phase: str
    ) -> ChargeReceipt | Declined | None:
        if self._charging is None or self._pricing is None:
            return None
        # a ticket keeps the price index it was first charged at; only the
        # charge record's fold assigns one, so a declined or failed charge
        # leaves no index behind
        index_map = self._account_ticket_index.get(record.user_account, {})
        amount = price(self._pricing, group, index_map.get(charge_ref, len(index_map)))
        result = self._charging.charge(record.user_account, amount, group=group, phase=phase)
        if isinstance(result, ChargeReceipt):
            self._commit(
                {
                    "kind": "charge",
                    "account": record.user_account,
                    "charge_ref": charge_ref,
                    "receipt": result.receipt_id,
                }
            )
        else:
            logger.info("charge declined for account %s", record.user_account)
        return result

    # -- internals --------------------------------------------------------------

    def _require_group(self, group: int) -> None:
        if group not in self._groups:
            raise UnknownGroup(f"group {group} is not configured")

    def _commit(self, record: dict) -> None:
        if self._issuance_log:
            append_record(self._issuance_log, record)
        self._apply(record)

    def _apply(self, record: dict) -> None:
        """The only code that changes logged state: live operations reach it
        through :meth:`_commit` after logging, and replay calls it for each
        logged record."""
        kind = record["kind"]
        if kind == "register":
            self._platforms[record["platform_id"]] = IdentityRecord(
                platform_id=record["platform_id"],
                ek_public=record["ek_public"],
                user_account=record["user_account"],
            )
        elif kind == "issue":
            ticket = IssuedTicket(
                aik_digest=record["aik_digest"],
                platform_id=record["platform_id"],
                group=record["group"],
                at=record["at"],
                identity_label=record["label"],
                charge_ref=record["charge_ref"],
            )
            self._platforms[ticket.platform_id].issued.append(ticket)
            self._tickets[ticket.aik_digest] = ticket
        elif kind == "blacklist":
            self._platforms[record["platform_id"]].blacklisted = bool(record["flag"])
        elif kind == "charge":
            index_map = self._account_ticket_index.setdefault(record["account"], {})
            index_map.setdefault(record["charge_ref"], len(index_map))
