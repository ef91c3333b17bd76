"""Reputation service: verifies rating submissions end to end, enforces
one rating per ticket, stores accepted ratings, and aggregates
impact-weighted scores exactly (rational arithmetic).

Check order for a submission is fixed and total — chain validity, payload
binding, target binding, then spend — so every malformed submission maps
to exactly one machine-readable reject reason.
"""

from __future__ import annotations

import logging
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable

from . import crypto
from .charging import Declined
from .clock import SimClock
from .crypto import CredentialChain
from .encoding import EncodingError, append_record, decode, encode, read_records
from .errors import InvalidArgument

logger = logging.getLogger(__name__)

REJECT_INVALID_CHAIN = "invalid-chain"
REJECT_WRONG_RS = "wrong-rs"
REJECT_DOUBLE_SPEND = "double-spend"
REJECT_BAD_PAYLOAD = "bad-payload"


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
        """``encode(self.to_record())``: encoded once, or the payload's span."""
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
    def from_record(cls, record: object, data: bytes = b"", spans: dict | None = None) -> "RatingPayload":
        """Given the ``decode(data, spans)`` that produced it, its canonical bytes are its span."""
        if not isinstance(record, dict) or set(record) != {"subject", "score", "comment", "nonce", "rs_id"}:
            raise EncodingError("bad payload record")
        subject, score, comment = record["subject"], record["score"], record["comment"]
        nonce, rs_id = record["nonce"], record["rs_id"]
        if not (
            isinstance(subject, str)
            and isinstance(score, int)
            and isinstance(comment, str)
            and isinstance(nonce, bytes)
            and isinstance(rs_id, str)
        ):
            raise EncodingError("bad payload field types")
        payload = cls(subject=subject, score=score, comment=comment, nonce=nonce, rs_id=rs_id)
        if spans is not None:
            object.__setattr__(payload, "_canonical", data[slice(*spans[id(record)])])
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


class ReputationSystem:
    none_value = "no-score"  # what rs/score reports for a subject with no ratings

    def __init__(
        self,
        rs_id: str,
        *,
        clock: SimClock | None = None,
        scale: tuple[int, int] = (1, 5),
        expost_charge: Callable[[str, int], object] | None = None,
        rating_log: Path | str | None = None,
        spent_snapshot: Path | str | None = None,
    ):
        if scale[0] > scale[1]:
            raise InvalidArgument("rating scale is empty")
        self.rs_id = rs_id
        self.scale = (int(scale[0]), int(scale[1]))
        self._clock = clock or SimClock()
        self._expost_charge = expost_charge
        self._registry: dict[int, tuple[bytes, Fraction]] = {}
        self._group_keys: dict[int, bytes] = {}  # gid -> group public key
        self._spent: dict[str, int] = {}
        self._records: list[RatingRecord] = []
        # subject -> (count, sum of impacts, sum of impact * score), in the
        # order subjects were first rated
        self._totals: dict[str, tuple[int, Fraction, Fraction]] = {}
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
        """Replace the accepted group keys and their aggregation weights."""
        cleaned: dict[int, tuple[bytes, Fraction]] = {}
        for group, (public, impact) in registry.items():
            impact = Fraction(impact)
            if impact <= 0:
                raise InvalidArgument("impact factors must be positive")
            if not isinstance(public, bytes):
                raise InvalidArgument("group keys must be bytes")
            cleaned[int(group)] = (public, impact)
        self._registry = cleaned
        self._group_keys = {g: pub for g, (pub, _) in cleaned.items()}

    @property
    def group_registry(self) -> dict[int, tuple[bytes, Fraction]]:
        return dict(self._registry)

    # -- submission ----------------------------------------------------------

    def submit_rating(self, payload: RatingPayload, chain: CredentialChain) -> Ack | Reject:
        if not self._group_keys:
            return Reject(REJECT_INVALID_CHAIN, detail="unknown-group")
        report = crypto.verify_chain(chain, self._group_keys)
        if not report.valid:
            return Reject(REJECT_INVALID_CHAIN, detail=report.reason or "")

        problem = self._payload_problem(payload)
        if problem:
            return Reject(REJECT_BAD_PAYLOAD, detail=problem)
        if chain.rating_cred.entity != payload.canonical_bytes():
            return Reject(REJECT_BAD_PAYLOAD, detail="signed bytes do not match payload")
        if payload.rs_id != self.rs_id:
            return Reject(REJECT_WRONG_RS, detail="payload addressed to another system")

        group = report.group
        assert group is not None
        impact = self._registry[group][1]
        aik_digest = chain.aik_digest
        chain_digest = crypto.sha256_hex(chain.to_bytes())

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
        """Impact-weighted mean over stored ratings for the subject, exact;
        read from the running sums :meth:`_apply` keeps."""
        totals = self._totals.get(subject)
        if totals is None:
            return WeightedScore(subject=subject, count=0, score=None)
        count, total_weight, weighted = totals
        return WeightedScore(subject=subject, count=count, score=weighted / total_weight)

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
                "registry": {
                    str(g): {"pub": pub, "impact": str(impact)}
                    for g, (pub, impact) in self._registry.items()
                },
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
        subject, impact = record.payload.subject, record.impact
        count, total_weight, weighted = self._totals.get(subject, (0, Fraction(0), Fraction(0)))
        self._totals[subject] = (count + 1, total_weight + impact, weighted + impact * record.payload.score)
        self._spent.setdefault(aik_digest, record.received)
