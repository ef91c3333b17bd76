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
from .encoding import EncodingError, append_record, check_kind, encode, read_records
from .errors import InvalidArgument, TicketError, UnknownGroup

logger = logging.getLogger(__name__)

CHALLENGE_TTL = 300  # seconds of simulated time; single use regardless
_RECORDS = {  # kind -> the fields of an issuance log record (FORMATS §6)
    "register": {"kind": str, "platform_id": str, "ek_public": bytes, "user_account": str},
    "issue": {
        "kind": str, "platform_id": str, "aik_digest": str, "group": int, "at": int, "label": str, "charge_ref": str
    },
    "blacklist": {"kind": str, "platform_id": str, "flag": int},
}


def issue_record_bytes(record: dict) -> bytes:
    """``encode`` of an ``issue`` record, spliced with its keys in sorted order.
    A field not exactly of its type, a lone surrogate or an int past Python's
    4300 digits is an EncodingError, as in ``encode``."""
    digest, at, ref = record["aik_digest"], record["at"], record["charge_ref"]
    group, label, platform = record["group"], record["label"], record["platform_id"]
    if not (
        type(digest) is str and type(at) is int and type(ref) is str
        and type(group) is int and type(label) is str and type(platform) is str
    ):
        raise EncodingError("issue record: a field not exactly of its type")
    try:
        digest, ref, label, platform = digest.encode(), ref.encode(), label.encode(), platform.encode()
        return (
            b"ds10:aik_digests%d:%ss2:ati%des10:charge_refs%d:%ss5:groupi%des4:kinds5:issue"
            b"s5:labels%d:%ss11:platform_ids%d:%se"
        ) % (len(digest), digest, at, len(ref), ref, group, len(label), label, len(platform), platform)
    except ValueError as exc:
        raise EncodingError(f"cannot encode: {exc}") from exc


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
    aik_public: bytes
    group: int
    platform_id: str
    expires: int
    charge_ref: str


def check_groups(groups: dict[int, GroupConfig]) -> None:
    if not groups:
        raise InvalidArgument("at least one group is required")
    if sorted(groups) != list(range(1, len(groups) + 1)):
        raise InvalidArgument("group ids must be dense 1..G")
    if any(cfg.impact <= 0 for cfg in groups.values()):
        raise InvalidArgument("impact factors must be positive")


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
        check_groups(groups)
        if pricing not in (None, getattr(charging, "policy", None)):  # the provider's published policy is the price
            raise InvalidArgument("pricing must be the charging provider's own policy")
        # ex-post charges reach the authority through charge_for_ticket only
        for phase in charge_phases:
            if phase != PHASE_ACQUISITION:
                raise InvalidArgument(f"the authority charges only at acquisition, not {phase!r}")
        if charge_phases and charging is None:  # else its tickets would be issued free
            raise InvalidArgument("charging at acquisition needs a charging provider")
        log = self._issuance_log = Path(issuance_log) if issuance_log else None
        logged = log is not None and log.exists() and log.stat().st_size > 0
        if logged and rng is None:  # fresh group keys would void its tickets; refused before a read cuts a torn tail
            raise InvalidArgument("an authority rebuilt from its issuance log must be given its rng")
        records = read_records(log) if logged else []
        self._clock = clock or SimClock()
        self._randbytes = rng.randbytes if rng is not None else secrets.token_bytes
        self._groups = dict(groups)
        self._group_keys = {g: crypto.generate_keypair(seed=self._randbytes(32)) for g in sorted(groups)}
        self._charging = charging
        self._charge_phases = tuple(charge_phases)
        self._authority_tokens = set(authority_tokens or ())
        # one writer at a time: nonce consumption and the identity index are
        # check-and-update pairs and must be linearizable
        self._lock = threading.RLock()
        self._platforms: dict[str, IdentityRecord] = {}
        self._tickets: dict[str, IssuedTicket] = {}  # aik digest -> ticket
        self._pending: dict[bytes, PendingIssuance] = {}
        for record in records:
            self._apply(check_kind(record, _RECORDS, where="issuance record"))
        if records:  # two lives at one log length share seed and length: only the OS tells them apart
            self._randbytes = secrets.token_bytes

    # -- group table ----------------------------------------------------------

    def group_registry(self) -> dict[int, tuple[bytes, Fraction]]:
        """What the reputation side needs: per-group verification key and impact."""
        return {g: (self._group_keys[g].public, self._groups[g].impact) for g in sorted(self._groups)}

    # -- registration ----------------------------------------------------------

    def register_platform(self, ek_public: bytes, user_account: str) -> str:
        with self._lock:
            platform_id = crypto.sha256_hex(ek_public)
            if platform_id in self._platforms:
                raise TicketError("endorsement key already registered", code="duplicate-ek")
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
        charging decisions happen before any challenge is produced. No money
        moves here: the ticket is charged at the commit that issues it."""
        with self._lock:
            # expired challenges are a prefix: the TTL is constant and the clock never goes back
            now = self._clock.now()
            for nonce in list(takewhile(lambda n: self._pending[n].expires < now, self._pending)):
                del self._pending[nonce]
            record = self._platform(platform_id, "unregistered-platform")
            self._require_group(group)
            if record.blacklisted:
                return DeniedRequest(reason="blacklisted")
            aik_digest = crypto.key_id_of(aik_public)
            if aik_digest in self._tickets:
                raise TicketError("identity key already carries a ticket", code="duplicate-aik")

            # priced before any draw; a CA-random reference kept on the issue record
            # is drawn before the nonce, so every later draw and label keeps its place
            amount = self._price(record, group, PHASE_ACQUISITION) if PHASE_ACQUISITION in self._charge_phases else None
            charge_ref = self._randbytes(16).hex()
            if amount is not None and self._charging.declines(record.user_account, amount):
                return DeniedRequest(reason="cp-declined")

            nonce = self._randbytes(32)
            pending = PendingIssuance(
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
                raise TicketError("unknown or already-used challenge", code="handshake-failed")
            if self._clock.now() > pending.expires:
                raise TicketError("challenge expired", code="handshake-failed")
            if not crypto.verify(
                pending.aik_public, crypto.ISSUANCE_NONCE_DOMAIN + nonce, signature
            ):
                raise TicketError("possession proof did not verify", code="handshake-failed")
            aik_digest = crypto.key_id_of(pending.aik_public)
            if aik_digest in self._tickets:
                raise TicketError("identity key already carries a ticket", code="handshake-failed")

            record = self._platforms[pending.platform_id]
            # before any draw: a refused or declined commit draws nothing
            if record.blacklisted:
                raise TicketError("platform blacklisted since its request", code="handshake-failed")
            if PHASE_ACQUISITION in self._charge_phases:
                if isinstance(self._charge(record, pending.group, PHASE_ACQUISITION, pending.charge_ref), Declined):
                    raise TicketError("charging provider declined the ticket", code="cp-declined")
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
                raise TicketError("missing or invalid authority token", code="forbidden")
            ticket = self._tickets.get(aik_digest)
            if ticket is None:
                raise TicketError("no ticket issued for that identity key", code="not-found")
            return self._platforms[ticket.platform_id]

    # -- policy enforcement ------------------------------------------------------

    def blacklist(self, platform_id: str, flag: bool) -> None:
        with self._lock:
            self._platform(platform_id)
            self._commit({"kind": "blacklist", "platform_id": platform_id, "flag": int(flag)})

    # -- charging ------------------------------------------------------------------

    def charge_for_ticket(self, aik_digest: str) -> ChargeReceipt | Declined:
        """Ex-post charging entry point used at redemption time; the caller
        only ever supplies the pseudonymous ticket digest, and the ticket's
        own group is priced."""
        if PHASE_ACQUISITION in self._charge_phases:  # each of its tickets was charged when it was issued
            raise InvalidArgument("this authority charges at acquisition: a ticket is not charged again ex post")
        if self._charging is None:  # a rating it acked would be free
            raise InvalidArgument("this authority has no charging provider: it cannot charge a ticket ex post")
        with self._lock:
            ticket = self._tickets.get(aik_digest)
            if ticket is None:
                raise TicketError("no ticket issued for that identity key", code="not-found")
            return self._charge(self._platforms[ticket.platform_id], ticket.group, PHASE_EX_POST, ticket.charge_ref)

    def _price(self, record: IdentityRecord, group: int, phase: str) -> int:
        # the provider owns the price: its published policy, at the place its ledger's
        # count of the account's charges gives; a declined or failed charge moves neither
        amount = price(self._charging.policy, group, self._charging.charge_count(record.user_account))
        if amount < 0 and phase == PHASE_ACQUISITION:  # a credit for each ticket pays for pseudonyms
            raise InvalidArgument("a reverse policy pays each ticket's buyer: charge it ex post, not at acquisition")
        return amount

    def _charge(self, record: IdentityRecord, group: int, phase: str, ref: str) -> ChargeReceipt | Declined:
        amount = self._price(record, group, phase)
        result = self._charging.charge(record.user_account, amount, group=group, phase=phase, ref=ref)
        if isinstance(result, Declined):
            logger.info("charge declined for account %s", record.user_account)
        return result

    # -- internals --------------------------------------------------------------

    def _platform(self, platform_id: str, code: str = "unknown-platform") -> IdentityRecord:
        record = self._platforms.get(platform_id)
        if record is None:
            raise TicketError("platform not registered", code=code)
        return record

    def _require_group(self, group: int) -> None:
        if group not in self._groups:
            raise UnknownGroup(f"group {group} is not configured")

    def _commit(self, record: dict) -> None:
        if self._issuance_log:  # the record each ticket adds is spliced
            raw = issue_record_bytes(record) if record["kind"] == "issue" else encode(record)
            append_record(self._issuance_log, raw)
        self._apply(record)

    def _apply(self, record: dict) -> None:
        """The only code that changes logged state: live operations reach it
        through :meth:`_commit` after logging, and replay calls it for each
        logged record."""
        kind = record["kind"]
        if kind == "register":
            platform_id = record["platform_id"]
            if platform_id in self._platforms:  # a logged second one would unblacklist and empty the record
                raise TicketError("endorsement key already registered", code="duplicate-ek")
            self._platforms[platform_id] = IdentityRecord(platform_id, record["ek_public"], record["user_account"])
        elif kind == "issue":
            digest, group, owner = record["aik_digest"], record["group"], self._platform(record["platform_id"])
            self._require_group(group)
            if digest in self._tickets:  # a logged second one would hand the ticket to another platform
                raise TicketError("identity key already carries a ticket", code="duplicate-aik")
            ticket = IssuedTicket(digest, owner.platform_id, group, record["at"], record["label"], record["charge_ref"])
            owner.issued.append(ticket)
            self._tickets[digest] = ticket
        elif kind == "blacklist":
            self._platform(record["platform_id"]).blacklisted = bool(record["flag"])
