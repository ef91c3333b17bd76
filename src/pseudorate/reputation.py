"""Reputation service: verifies rating submissions end to end, enforces
one rating per ticket, stores accepted ratings, and aggregates
impact-weighted scores exactly (rational arithmetic).

Check order for a submission is fixed and total — chain validity, payload
binding, target binding, spend check, then payment — so every refused
submission maps to exactly one machine-readable reject reason. Under ex-post
charging a rating is paid for before it is stored: a declined charge and a
charge that raises (which propagates) both store nothing. A chain whose
exact bytes were accepted before skips only the signature and link checks,
which those bytes passed then, so it gets the same answer for less work.
"""

from __future__ import annotations

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
from .encoding import EncodingError, Shape, append_record, read_all, read_records
from .errors import InvalidArgument, TicketError

REJECT_INVALID_CHAIN = "invalid-chain"
REJECT_WRONG_RS = "wrong-rs"
REJECT_DOUBLE_SPEND = "double-spend"
REJECT_BAD_PAYLOAD = "bad-payload"
REJECT_CP_DECLINED = "cp-declined"

PAYLOAD = Shape("payload", comment=str, nonce=bytes, rs_id=str, score=int, subject=str)
# a rating log record (FORMATS §6): the rating record and its ticket's aik_digest
RATING_RECORD = Shape("rating record", aik_digest=str, chain_digest=str, group=int, impact=str, payload=PAYLOAD)
SCORE_BODY = Shape("score body", count=int, score=str)  # an rs/score ok body


@dataclass(frozen=True)
class RatingPayload:
    subject: str
    score: int
    nonce: bytes
    rs_id: str
    comment: str = ""

    @cached_property
    def _canonical(self) -> bytes:
        return PAYLOAD.write(**vars(self))  # which holds the fields alone until this is cached

    def canonical_bytes(self) -> bytes:
        """``encode(self.to_record())``: spliced once, or the bytes it was parsed from.
        A field not exactly of its type is an EncodingError, as in ``encode``."""
        return self._canonical

    def to_record(self) -> dict:
        return {name: getattr(self, name) for name in PAYLOAD.fields}

    @classmethod
    def from_record(cls, record: object) -> "RatingPayload":
        return cls(**PAYLOAD.check(record))

    @classmethod
    def from_bytes(cls, data: bytes) -> "RatingPayload":
        """The payload ``data`` holds, cut at its fixed keys: it accepts what
        ``decode`` and ``from_record`` accept, and refuses the rest with an
        EncodingError. The reader is canonical, so ``data`` is the payload's
        canonical bytes."""
        payload = read_all(data, _cut_payload)
        object.__setattr__(payload, "_canonical", bytes(data))
        return payload


_cut_payload = PAYLOAD.cutter(RatingPayload)


@dataclass(frozen=True)
class RatingRecord:
    payload: RatingPayload
    group: int
    impact: Fraction
    chain_digest: str

    @classmethod
    def from_record(cls, record: object) -> "RatingRecord":
        """A rating log record (FORMATS §6); one of any other shape is an EncodingError."""
        r = RATING_RECORD.check(record)
        payload = RatingPayload.from_record(r["payload"])
        try:
            impact = Fraction(r["impact"])
        except (ValueError, ZeroDivisionError):
            impact = None
        if impact is None or impact <= 0:  # refused as configure_groups refuses it: aggregate divides by the weights
            raise EncodingError(f"rating record: impact must be a positive fraction, not {r['impact']!r}")
        return cls(payload, r["group"], impact, r["chain_digest"])


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
    body: bytes  # the rs/score reply body, written by SCORE_BODY


@dataclass(slots=True)
class _Totals:
    """One subject's running sums, replaced whole by each rating, so the
    score built from them on the first read after a rating serves every
    later read until the next one."""

    count: int
    weight: Fraction
    weighted: Fraction  # the sum of impact * score
    score: WeightedScore | None = None  # built on the first read


class ReputationSystem:
    none_value = "no-score"  # what rs/score reports for a subject with no ratings
    none_body = SCORE_BODY.write(count=0, score=none_value)
    scale = (1, 5)  # the lowest and highest score a rating may give

    def __init__(
        self,
        rs_id: str,
        *,
        clock: SimClock | None = None,  # taken as the other services take it; a rating records no time
        expost_charge: Callable[[str], object] | None = None,
        rating_log: Path | str | None = None,
        spent_snapshot: Path | str | None = None,
    ):
        self.rs_id = rs_id
        self._expost_charge = expost_charge
        # gid -> (group public key, impact); replaced whole, and read once per submission
        self._registry: dict[int, tuple[bytes, Fraction]] = {}
        self._spent: dict[str, RatingRecord] = {}  # aik digest -> the rating its ticket bought, in stored order
        self._totals: dict[str, _Totals] = {}  # subject -> its totals, in the order subjects were first rated
        self._lock = threading.Lock()
        if spent_snapshot and Path(spent_snapshot).exists():  # the rating log is the one record of spent tickets
            raise InvalidArgument(f"a spend snapshot is no longer read: {spent_snapshot}")
        self._rating_log = Path(rating_log) if rating_log else None
        if self._rating_log and self._rating_log.exists():
            for raw in read_records(self._rating_log):
                self._apply(RatingRecord.from_record(raw), raw["aik_digest"])

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
        chain_digest, aik_digest = crypto.sha256_hex(chain.to_bytes()), chain.aik_digest
        stored = self._spent.get(aik_digest)
        if stored is not None and stored.chain_digest == chain_digest:
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

        with self._lock:
            if aik_digest in self._spent:
                return Reject(REJECT_DOUBLE_SPEND, detail="ticket already redeemed")
            # paid under the lock, so two submissions of one ticket pay once
            if self._expost_charge is not None:
                paid = self._expost_charge(aik_digest)
                if isinstance(paid, Declined):
                    return Reject(REJECT_CP_DECLINED, detail=paid.reason)
            record = RatingRecord(payload=payload, group=group, impact=impact, chain_digest=chain_digest)
            if self._rating_log:
                raw = RATING_RECORD.write(
                    aik_digest=aik_digest, chain_digest=chain_digest, group=group, impact=str(impact),
                    payload=payload.canonical_bytes(),
                )
                append_record(self._rating_log, raw)
            self._apply(record, aik_digest)
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
        built with its ``rs/score`` body from the totals :meth:`_apply` keeps
        on the first read after a rating, and kept for later reads. An
        unrated subject is not stored."""
        totals = self._totals.get(subject)
        if totals is None:
            return WeightedScore(subject, 0, None, self.none_body)
        score = totals.score
        if score is None:
            # two first reads may both build it, from the same totals: either is the answer
            mean = totals.weighted / totals.weight
            body = SCORE_BODY.write(count=totals.count, score=str(mean))
            score = totals.score = WeightedScore(subject, totals.count, mean, body)
        return score

    # -- inspection ----------------------------------------------------------------

    @property
    def spent_count(self) -> int:
        return len(self._spent)

    @property
    def records(self) -> list[RatingRecord]:
        return list(self._spent.values())

    def subjects(self) -> list[str]:
        return list(self._totals)

    def _apply(self, record: RatingRecord, aik_digest: str) -> None:
        """The only code that changes logged state: a live submission calls it after
        logging the record with its ``aik_digest``, and replay for each logged record.
        It refuses what the live path refuses, with its reason; live, those answer first."""
        problem = self._payload_problem(record.payload)
        if problem:
            raise TicketError(problem, code=REJECT_BAD_PAYLOAD)
        if record.payload.rs_id != self.rs_id:
            raise TicketError("payload addressed to another system", code=REJECT_WRONG_RS)
        if aik_digest in self._spent:
            raise TicketError("ticket already redeemed", code=REJECT_DOUBLE_SPEND)
        self._spent[aik_digest] = record
        subject, impact = record.payload.subject, record.impact
        totals = self._totals.get(subject)
        count, weight, weighted = (totals.count, totals.weight, totals.weighted) if totals else (0, 0, 0)
        self._totals[subject] = _Totals(count + 1, weight + impact, weighted + impact * record.payload.score)
