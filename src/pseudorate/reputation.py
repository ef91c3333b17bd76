"""Reputation service: verifies rating submissions end to end, enforces
one rating per ticket, stores accepted ratings, and aggregates
impact-weighted scores exactly (rational arithmetic).

Check order for a submission is fixed and total — chain validity, payload
binding, target binding, then spend — so every malformed submission maps
to exactly one machine-readable reject reason. A chain whose exact bytes
were accepted before skips only the signature and link checks, which those
bytes passed then, so it gets the same answer for less work.
"""

from __future__ import annotations

import logging
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping

from . import crypto
from .charging import Declined
from .clock import SimClock
from .crypto import CredentialChain
from .encoding import append_record, check_fields, decode, encode, read_records
from .errors import InvalidArgument

logger = logging.getLogger(__name__)

REJECT_INVALID_CHAIN = "invalid-chain"
REJECT_WRONG_RS = "wrong-rs"
REJECT_DOUBLE_SPEND = "double-spend"
REJECT_BAD_PAYLOAD = "bad-payload"

_PAYLOAD_FIELDS = {"subject": str, "score": int, "comment": str, "nonce": bytes, "rs_id": str}


@dataclass(frozen=True)
class RatingPayload:
    subject: str
    score: int
    nonce: bytes
    rs_id: str
    comment: str = ""

    @cached_property
    def _canonical(self) -> bytes:
        return encode(self.to_record())

    def canonical_bytes(self) -> bytes:
        """``encode(self.to_record())``: encoded once, or the bytes it was parsed from."""
        return self._canonical

    def to_record(self) -> dict:
        return {
            "subject": self.subject,
            "score": self.score,
            "comment": self.comment,
            "nonce": self.nonce,
            "rs_id": self.rs_id,
        }

    @classmethod
    def from_record(cls, record: object) -> "RatingPayload":
        return cls(**check_fields(record, _PAYLOAD_FIELDS, where="payload"))

    @classmethod
    def from_bytes(cls, data: bytes) -> "RatingPayload":
        """Decoding is canonical, so ``data`` is the payload's canonical bytes."""
        payload = cls.from_record(decode(data))
        object.__setattr__(payload, "_canonical", data)
        return payload


@dataclass(frozen=True)
class RatingRecord:
    payload: RatingPayload
    group: int
    impact: Fraction
    received: int
    chain_digest: str

    def to_record(self) -> dict:
        return {
            "payload": self.payload.to_record(),
            "group": self.group,
            "impact": str(self.impact),
            "received": self.received,
            "chain_digest": self.chain_digest,
        }

    @classmethod
    def from_record(cls, record: dict) -> "RatingRecord":
        return cls(
            payload=RatingPayload.from_record(record["payload"]),
            group=record["group"],
            impact=Fraction(record["impact"]),
            received=record["received"],
            chain_digest=record["chain_digest"],
        )


@dataclass(frozen=True)
class Ack:
    receipt: str
    subject: str
    group: int


@dataclass(frozen=True)
class Reject:
    reason: str
    detail: str = ""


@dataclass(frozen=True)
class WeightedScore:
    subject: str
    count: int
    score: Fraction | None

    @cached_property
    def text(self) -> str:
        """The score as ``rs/score`` reports it: the exact fraction, or the
        RS's ``none_value`` for a subject with no ratings."""
        return ReputationSystem.none_value if self.score is None else str(self.score)


@dataclass(frozen=True)
class _Totals:
    """One subject's running sums, replaced whole by each rating, so the
    score built from them on the first read after a rating serves every
    later read until the next one."""

    subject: str
    count: int
    weight: Fraction
    weighted: Fraction  # the sum of impact * score

    @cached_property
    def score(self) -> WeightedScore:
        return WeightedScore(subject=self.subject, count=self.count, score=self.weighted / self.weight)


def registry_record(registry: Mapping[int, tuple[bytes, Fraction]]) -> dict:
    """The group table as ``rs/admin/groups`` and an exported state carry it."""
    return {str(g): {"pub": pub, "impact": str(impact)} for g, (pub, impact) in registry.items()}


class ReputationSystem:
    none_value = "no-score"  # what rs/score reports for a subject with no ratings
    scale = (1, 5)  # the lowest and highest score a rating may give

    def __init__(
        self,
        rs_id: str,
        *,
        clock: SimClock | None = None,
        expost_charge: Callable[[str, int], object] | None = None,
        rating_log: Path | str | None = None,
        spent_snapshot: Path | str | None = None,
    ):
        self.rs_id = rs_id
        self._clock = clock or SimClock()
        self._expost_charge = expost_charge
        # gid -> (group public key, impact); replaced whole, and read once per submission
        self._registry: dict[int, tuple[bytes, Fraction]] = {}
        self._spent: dict[str, int] = {}
        self._records: list[RatingRecord] = []
        self._accepted: set[str] = set()  # the chain digest of every stored rating
        # subject -> its totals, in the order subjects were first rated
        self._totals: dict[str, _Totals] = {}
        self._pending_charges: list[tuple[str, int]] = []
        self._lock = threading.Lock()
        self._rating_log = Path(rating_log) if rating_log else None
        self._spent_snapshot = Path(spent_snapshot) if spent_snapshot else None
        if self._rating_log and self._rating_log.exists():
            for raw in read_records(self._rating_log):
                self._apply(RatingRecord.from_record(raw), raw["aik_digest"])
        if self._spent_snapshot and self._spent_snapshot.exists():
            self._load_spent_snapshot(self._spent_snapshot)

    # -- configuration ---------------------------------------------------------

    def configure_groups(self, registry: dict[int, tuple[bytes, Fraction]]) -> None:
        """Replace the accepted group keys and their aggregation weights: each
        group an int >= 1, its key bytes and its impact a positive Fraction, none coerced."""
        for group, (public, impact) in registry.items():
            if type(group) is not int or group < 1:
                raise InvalidArgument(f"bad group id {group!r}")
            if not isinstance(impact, Fraction) or impact <= 0:
                raise InvalidArgument("impact factors must be positive fractions")
            if not isinstance(public, bytes):
                raise InvalidArgument("group keys must be bytes")
        self._registry = dict(registry)

    @property
    def group_registry(self) -> dict[int, tuple[bytes, Fraction]]:
        return dict(self._registry)

    # -- submission ----------------------------------------------------------

    def submit_rating(self, payload: RatingPayload, chain: CredentialChain) -> Ack | Reject:
        registry = self._registry  # a configure_groups from here on is the next submission's
        keys = {g: public for g, (public, _) in registry.items()}
        chain_digest = crypto.sha256_hex(chain.to_bytes())
        if chain_digest in self._accepted:
            # signatures and links depend only on the chain's bytes, and these
            # bytes passed them once; the group is looked up in today's registry
            group = crypto.chain_group(chain, keys)
            reason = None if group is not None else "unknown-group"
        else:
            report = crypto.verify_chain(chain, keys)
            group, reason = report.group, report.reason
        if reason is not None:
            return Reject(REJECT_INVALID_CHAIN, detail=reason)

        problem = self._payload_problem(payload)
        if problem:
            return Reject(REJECT_BAD_PAYLOAD, detail=problem)
        if chain.rating_cred.entity != payload.canonical_bytes():
            return Reject(REJECT_BAD_PAYLOAD, detail="signed bytes do not match payload")
        if payload.rs_id != self.rs_id:
            return Reject(REJECT_WRONG_RS, detail="payload addressed to another system")

        impact = registry[group][1]
        aik_digest = chain.aik_digest

        with self._lock:
            if aik_digest in self._spent:
                return Reject(REJECT_DOUBLE_SPEND, detail="ticket already redeemed")
            record = RatingRecord(
                payload=payload,
                group=group,
                impact=impact,
                received=self._clock.now(),
                chain_digest=chain_digest,
            )
            if self._rating_log:
                append_record(self._rating_log, {**record.to_record(), "aik_digest": aik_digest})
            self._apply(record, aik_digest)

        # availability over settlement atomicity: keep the rating, queue the
        # charge for retry
        if self._expost_charge is not None and not self._settle(aik_digest, group):
            self._pending_charges.append((aik_digest, group))
        return Ack(receipt=chain_digest, subject=payload.subject, group=group)

    def _payload_problem(self, payload: RatingPayload) -> str | None:
        if not isinstance(payload, RatingPayload):
            return "not a rating payload"
        lo, hi = self.scale
        if not isinstance(payload.score, int) or not lo <= payload.score <= hi:
            return f"score outside {lo}..{hi}"
        if not payload.nonce:
            return "empty nonce"
        if not payload.subject:
            return "empty subject"
        return None

    # -- aggregation --------------------------------------------------------------

    def aggregate(self, subject: str) -> WeightedScore:
        """Impact-weighted mean over stored ratings for the subject, exact:
        built from the totals :meth:`_apply` keeps on the first read after a
        rating, and kept for later reads. An unrated subject is not stored."""
        totals = self._totals.get(subject)
        return WeightedScore(subject=subject, count=0, score=None) if totals is None else totals.score

    # -- charge retry ---------------------------------------------------------------

    def retry_pending_charges(self) -> int:
        """Retry queued ex-post charges; returns how many are still pending."""
        if self._expost_charge is not None:
            self._pending_charges = [(d, g) for d, g in self._pending_charges if not self._settle(d, g)]
        return len(self._pending_charges)

    def _settle(self, aik_digest: str, group: int) -> bool:
        """One ex-post charge attempt; a declined charge is as unsettled as a raised one."""
        try:
            result = self._expost_charge(aik_digest, group)
        except Exception:
            logger.exception("ex-post charge failed")
            return False
        if isinstance(result, Declined):
            logger.info("ex-post charge declined: %s", result.reason)
            return False
        return True

    @property
    def pending_charge_count(self) -> int:
        return len(self._pending_charges)

    # -- inspection / persistence ------------------------------------------------------

    @property
    def spent_count(self) -> int:
        return len(self._spent)

    def is_spent(self, aik_digest: str) -> bool:
        return aik_digest in self._spent

    @property
    def records(self) -> list[RatingRecord]:
        return list(self._records)

    def subjects(self) -> list[str]:
        return list(self._totals)

    def export_state(self) -> bytes:
        """Full serialization of everything this service stores, for audits."""
        return encode(
            {
                "rs_id": self.rs_id,
                "scale": [self.scale[0], self.scale[1]],
                "registry": registry_record(self._registry),
                "spent": dict(self._spent),
                "records": [r.to_record() for r in self._records],
            }
        )

    def save_spent_snapshot(self) -> None:
        target = self._spent_snapshot
        if target is None:
            raise InvalidArgument("no snapshot path configured")
        # written beside the snapshot and renamed over it, so a write cut
        # short leaves the previous snapshot whole
        partial = target.with_name(target.name + ".tmp")
        partial.write_bytes(encode({"spent": dict(self._spent)}))
        os.replace(partial, target)

    def _load_spent_snapshot(self, path: Path) -> None:
        snapshot = decode(path.read_bytes())
        for digest, at in snapshot["spent"].items():
            self._spent.setdefault(digest, at)

    def _apply(self, record: RatingRecord, aik_digest: str) -> None:
        """The only code that changes logged state: a live submission calls
        it after logging the record with its ``aik_digest``, and replay calls
        it for each logged record."""
        self._records.append(record)
        self._accepted.add(record.chain_digest)
        subject, impact = record.payload.subject, record.impact
        totals = self._totals.get(subject)
        count, weight, weighted = (totals.count, totals.weight, totals.weighted) if totals else (0, 0, 0)
        self._totals[subject] = _Totals(subject, count + 1, weight + impact, weighted + impact * record.payload.score)
        self._spent.setdefault(aik_digest, record.received)
