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
from .encoding import EncodingError, append_record, check_fields, cut_entry, cut_int, read_all, read_records
from .errors import InvalidArgument, TicketError

REJECT_INVALID_CHAIN = "invalid-chain"
REJECT_WRONG_RS = "wrong-rs"
REJECT_DOUBLE_SPEND = "double-spend"
REJECT_BAD_PAYLOAD = "bad-payload"
REJECT_CP_DECLINED = "cp-declined"

_PAYLOAD_FIELDS = {"subject": str, "score": int, "comment": str, "nonce": bytes, "rs_id": str}
# a rating log record (FORMATS §6): the rating record and its ticket's aik_digest
_LOGGED_FIELDS = {"payload": dict, "group": int, "impact": str, "received": int, "chain_digest": str, "aik_digest": str}


@dataclass(frozen=True)
class RatingPayload:
    subject: str
    score: int
    nonce: bytes
    rs_id: str
    comment: str = ""

    @cached_property
    def _canonical(self) -> bytes:
        # the keys sort as comment < nonce < rs_id < score < subject
        comment, nonce, rs_id, score, subject = self.comment, self.nonce, self.rs_id, self.score, self.subject
        if not (
            type(comment) is str and type(nonce) is bytes and type(rs_id) is str
            and type(score) is int and type(subject) is str
        ):
            raise EncodingError("payload: a field not exactly of its type")
        try:
            comment, rs_id, subject = comment.encode(), rs_id.encode(), subject.encode()
            return b"ds7:comments%d:%ss5:nonceb%d:%ss5:rs_ids%d:%ss5:scorei%des7:subjects%d:%se" % (
                len(comment), comment, len(nonce), nonce, len(rs_id), rs_id, score, len(subject), subject
            )
        except ValueError as exc:  # a lone surrogate; an int past Python's 4300 digits
            raise EncodingError(f"cannot encode: {exc}") from exc

    def canonical_bytes(self) -> bytes:
        """``encode(self.to_record())``: spliced once, or the bytes it was parsed from.
        A field not exactly of its type is an EncodingError, as in ``encode``."""
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
        """The payload ``data`` holds, cut at its fixed keys: it accepts what
        ``decode`` and ``from_record`` accept, and refuses the rest with an
        EncodingError. The reader is canonical, so ``data`` is the payload's
        canonical bytes."""
        return read_all(data, _cut_payload)


def _cut_payload(data: bytes, start: int) -> tuple[RatingPayload, int]:
    """The payload at ``start``, its keys in sorted order, and the position after it."""
    comment, pos = cut_entry(data, start, b"ds7:comments")
    nonce, pos = cut_entry(data, pos, b"s5:nonceb")
    rs_id, pos = cut_entry(data, pos, b"s5:rs_ids")
    score, pos = cut_int(data, pos, b"s5:scorei")
    subject, pos = cut_entry(data, pos, b"s7:subjects")
    if data[pos] != 0x65:  # e
        raise EncodingError("payload: an entry after subject")
    payload = RatingPayload(subject.decode(), score, nonce, rs_id.decode(), comment.decode())
    object.__setattr__(payload, "_canonical", data[start : pos + 1])
    return payload, pos + 1


@dataclass(frozen=True)
class RatingRecord:
    payload: RatingPayload
    group: int
    impact: Fraction
    received: int
    chain_digest: str

    @classmethod
    def from_record(cls, record: object) -> "RatingRecord":
        """A rating log record (FORMATS §6); one of any other shape is an EncodingError."""
        r = check_fields(record, _LOGGED_FIELDS, where="rating record")
        payload = RatingPayload.from_record(r["payload"])
        try:
            impact = Fraction(r["impact"])
        except (ValueError, ZeroDivisionError):
            impact = None
        if impact is None or impact <= 0:  # refused as configure_groups refuses it: aggregate divides by the weights
            raise EncodingError(f"rating record: impact must be a positive fraction, not {r['impact']!r}")
        return cls(payload, r["group"], impact, r["received"], r["chain_digest"])


def rating_record_bytes(
    aik_digest: str, chain_digest: str, group: int, impact: str, payload: bytes, received: int
) -> bytes:
    """``encode`` of a rating log record, spliced with its keys in sorted order
    around ``payload``, its payload's canonical bytes. A field not exactly of
    its type, a lone surrogate or an int past Python's 4300 digits is an
    EncodingError, as in ``encode``."""
    if not (
        type(aik_digest) is str and type(chain_digest) is str and type(group) is int
        and type(impact) is str and type(payload) is bytes and type(received) is int
    ):
        raise EncodingError("rating record: a field not exactly of its type")
    try:
        aik_digest, chain_digest, impact = aik_digest.encode(), chain_digest.encode(), impact.encode()
        return (
            b"ds10:aik_digests%d:%ss12:chain_digests%d:%ss5:groupi%des6:impacts%d:%ss7:payload%ss8:receivedi%dee"
        ) % (len(aik_digest), aik_digest, len(chain_digest), chain_digest, group, len(impact), impact, payload, received)
    except ValueError as exc:
        raise EncodingError(f"cannot encode: {exc}") from exc


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
    body: bytes  # the rs/score reply body, written by score_body


def score_body(count: int, score: str) -> bytes:
    """``encode({"count": count, "score": score})``, spliced; a field not
    exactly of its type is an EncodingError, as in ``encode``."""
    if type(count) is not int or type(score) is not str:
        raise EncodingError("score body: count must be an int and score a str")
    try:
        raw = score.encode()
        return b"ds5:counti%des5:scores%d:%se" % (count, len(raw), raw)
    except ValueError as exc:  # a lone surrogate; an int past Python's 4300 digits
        raise EncodingError(f"cannot encode: {exc}") from exc


def cut_score_body(data: bytes, pos: int) -> tuple[tuple[int, str], int]:
    """The (count, score) of the :func:`score_body` at ``pos``, cut at its
    fixed keys, and the position after it; any other body is an EncodingError."""
    count, pos = cut_int(data, pos, b"ds5:counti")
    score, pos = cut_entry(data, pos, b"s5:scores")
    if data[pos] != 0x65:  # e
        raise EncodingError("score body: an entry after score")
    return (count, score.decode()), pos + 1


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
    none_body = score_body(0, none_value)
    scale = (1, 5)  # the lowest and highest score a rating may give

    def __init__(
        self,
        rs_id: str,
        *,
        clock: SimClock | None = None,
        expost_charge: Callable[[str], object] | None = None,
        rating_log: Path | str | None = None,
        spent_snapshot: Path | str | None = None,
    ):
        self.rs_id = rs_id
        self._clock = clock or SimClock()
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
            record = RatingRecord(
                payload=payload,
                group=group,
                impact=impact,
                received=self._clock.now(),
                chain_digest=chain_digest,
            )
            if self._rating_log:
                raw = payload.canonical_bytes()
                append_record(
                    self._rating_log, rating_record_bytes(aik_digest, chain_digest, group, str(impact), raw, record.received)
                )
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
            score = totals.score = WeightedScore(subject, totals.count, mean, score_body(totals.count, str(mean)))
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
