"""Account ledger, ticket pricing policies, and revenue sharing.

Amounts are integers in minor currency units; shares and any other exact
ratios are fractions, and splitting uses largest-remainder rounding so no
minor unit is ever lost. The provider knows accounts and group *ids* only;
what a group means is none of its business.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .clock import SimClock
from .encoding import EncodingError, append_record, check_fields, check_kind, encode, read_records
from .errors import InvalidArgument, TicketError, UnknownGroup

PHASE_ACQUISITION = "acquisition"
PHASE_EX_POST = "ex_post"
PHASES = (PHASE_ACQUISITION, PHASE_EX_POST)
_RECORDS = {  # kind -> the fields of a ledger record (FORMATS §6)
    "open": {"kind": str, "account": str, "balance": int},
    "charge": {
        "kind": str, "account": str, "at": int, "amount": int, "phase": str, "group": int, "receipt": str, "ref": str
    },
    "policy": {"kind": str, "policy": dict},
}


def charge_record_bytes(record: dict) -> bytes:
    """``encode`` of a ``charge`` record, spliced with its keys in sorted order.
    A field not exactly of its type, a lone surrogate or an int past Python's
    4300 digits is an EncodingError, as in ``encode``."""
    account, amount, at, group = record["account"], record["amount"], record["at"], record["group"]
    phase, receipt, ref = record["phase"], record["receipt"], record["ref"]
    if not (
        type(account) is str and type(amount) is int and type(at) is int and type(group) is int
        and type(phase) is str and type(receipt) is str and type(ref) is str
    ):
        raise EncodingError("charge record: a field not exactly of its type")
    try:
        account, phase, receipt, ref = account.encode(), phase.encode(), receipt.encode(), ref.encode()
        return (
            b"ds7:accounts%d:%ss6:amounti%des2:ati%des5:groupi%des4:kinds6:charge"
            b"s5:phases%d:%ss7:receipts%d:%ss3:refs%d:%se"
        ) % (len(account), account, amount, at, group, len(phase), phase, len(receipt), receipt, len(ref), ref)
    except ValueError as exc:
        raise EncodingError(f"cannot encode: {exc}") from exc


def group_id(key: str) -> int:
    """The group id a record key names, as ``str(g)`` writes it: a key that is
    not the decimal string of an int >= 1 raises ValueError, so no two name one group."""
    group = int(key)
    if str(group) != key or group < 1:
        raise ValueError(f"bad group id {key!r}")
    return group


@dataclass(frozen=True)
class RevenueShares:
    cp: Fraction
    pca: Fraction
    rs: Fraction
    # (cp, pca, rs, d): the shares as numerators over one common denominator d
    scaled: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = (self.cp, self.pca, self.rs)
        if any(not isinstance(p, Fraction) for p in parts):
            raise TicketError("shares must be fractions", code="invalid-shares")
        if any(p < 0 for p in parts):
            raise TicketError("shares must be non-negative", code="invalid-shares")
        if sum(parts) != 1:
            raise TicketError("shares must sum to exactly 1", code="invalid-shares")
        d = math.lcm(*(p.denominator for p in parts))
        object.__setattr__(self, "scaled", (*(p.numerator * (d // p.denominator) for p in parts), d))

    def to_record(self) -> dict:
        return {"cp": str(self.cp), "pca": str(self.pca), "rs": str(self.rs)}

    @classmethod
    def from_record(cls, record: dict) -> "RevenueShares":
        """Each share a fraction string: ``True`` or ``0`` is refused, not coerced."""
        try:
            check_fields(record, {"cp": str, "pca": str, "rs": str}, where="shares")
            return cls(Fraction(record["cp"]), Fraction(record["pca"]), Fraction(record["rs"]))
        except (ValueError, ZeroDivisionError) as exc:
            raise TicketError(f"bad shares record: {exc}", code="invalid-shares") from exc


@dataclass(frozen=True)
class PricingPolicy:
    """kind one of free | flat | increasing | reverse.

    flat:        per_group[g] each time
    increasing:  per_group[g] + step * prior_count
    reverse:     -incentive (a credit)
    """

    kind: str
    per_group: dict[int, int] = field(default_factory=dict)
    step: int = 0
    incentive: int = 0

    def __post_init__(self):
        if self.kind not in ("free", "flat", "increasing", "reverse"):
            raise InvalidArgument(f"unknown pricing kind {self.kind!r}")
        if any(type(v) is not int for v in (*self.per_group, *self.per_group.values(), self.step, self.incentive)):
            raise InvalidArgument("group ids, prices, step and incentive must be integers")
        if any(g < 1 for g in self.per_group):
            raise InvalidArgument("group ids must be at least 1")
        if self.step < 0 or self.incentive < 0:
            raise InvalidArgument("step and incentive must be non-negative")
        if any(p < 0 for p in self.per_group.values()):
            raise InvalidArgument("group prices must be non-negative")

    @classmethod
    def free(cls) -> "PricingPolicy":
        return cls(kind="free")

    @classmethod
    def flat(cls, prices: dict[int, int]) -> "PricingPolicy":
        return cls(kind="flat", per_group=dict(prices))

    @classmethod
    def increasing(cls, base: dict[int, int], step: int) -> "PricingPolicy":
        return cls(kind="increasing", per_group=dict(base), step=step)

    @classmethod
    def reverse(cls, incentive: int) -> "PricingPolicy":
        return cls(kind="reverse", incentive=incentive)

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "per_group": {str(g): p for g, p in self.per_group.items()},
            "step": self.step,
            "incentive": self.incentive,
        }

    @classmethod
    def from_record(cls, record: dict) -> "PricingPolicy":
        """An absent key but ``kind`` takes its default; an unknown key, a group
        key that :func:`group_id` refuses, or a price, step or incentive that
        is not an int, is refused rather than coerced."""
        try:
            kinds = {"kind": str, "per_group": dict, "step": int, "incentive": int}
            check_fields(record, kinds, kinds.keys() - {"kind"}, "policy")
            groups = {group_id(g): p for g, p in record.get("per_group", {}).items()}
            return cls(record["kind"], groups, record.get("step", 0), record.get("incentive", 0))
        except (ValueError, TypeError) as exc:  # TypeError: a per_group key int() cannot read
            raise InvalidArgument(f"bad policy record: {exc}") from exc


def price(policy: PricingPolicy, group: int, prior_count: int) -> int:
    """Charge for the next ticket in `group` given how many tickets the
    account has already been charged for. Deterministic; increasing kind is
    monotone non-decreasing in prior_count."""
    if prior_count < 0:
        raise InvalidArgument("prior_count must be non-negative")
    if policy.kind == "free":
        return 0
    if policy.kind == "reverse":
        return -policy.incentive
    if group not in policy.per_group:
        raise UnknownGroup(f"group {group} has no configured price")
    if policy.kind == "flat":
        return policy.per_group[group]
    return policy.per_group[group] + policy.step * prior_count


def split_revenue(amount: int, shares: RevenueShares) -> tuple[int, int, int]:
    """Split into (cp, pca, rs) minor units, conserving the total exactly.
    Largest-remainder rounding; ties go to the earlier party."""
    if amount < 0:
        raise InvalidArgument("split amount must be non-negative")
    *numerators, d = shares.scaled
    parts = [amount * n // d for n in numerators]
    left = amount - sum(parts)
    if left:
        # largest remainder over d first; sorted is stable, so ties keep party order
        for i in sorted(range(3), key=lambda i: -(amount * numerators[i] % d))[:left]:
            parts[i] += 1
    return parts[0], parts[1], parts[2]


@dataclass(frozen=True)
class ChargeReceipt:
    """One ledger entry. The fold builds it from the logged charge record,
    and :meth:`ChargingProvider.charge` returns that same object."""

    receipt_id: str
    account_id: str
    amount: int
    group: int
    phase: str
    at: int
    balance_after: int


@dataclass(frozen=True)
class Declined:
    reason: str


@dataclass
class Account:
    account_id: str
    balance: int
    opening_balance: int
    history: list[ChargeReceipt] = field(default_factory=list)


class ChargingProvider:
    def __init__(
        self,
        clock: SimClock | None = None,
        *,
        policy: PricingPolicy | None = None,
        shares: RevenueShares | None = None,
        credit_limit: int | None = None,
        ledger_log: Path | str | None = None,
    ):
        self._clock = clock or SimClock()
        self._policy = policy or PricingPolicy.free()
        self._shares = shares
        self._credit_limit = credit_limit
        self._accounts: dict[str, Account] = {}
        self._charges = 0  # charge records folded so far; numbers the next receipt
        self._by_ref: dict[str, ChargeReceipt] = {}  # each charge's ref -> its receipt
        self._revenue = {"cp": 0, "pca": 0, "rs": 0}
        # the socket server is threaded: open_account and charge check and
        # then update, and without the lock concurrent charges lose updates
        self._lock = threading.Lock()
        self._ledger_log = Path(ledger_log) if ledger_log else None
        if self._ledger_log and self._ledger_log.exists():
            for record in read_records(self._ledger_log):
                self._apply(check_kind(record, _RECORDS, where="ledger record"))

    # -- accounts ------------------------------------------------------------

    def open_account(self, account_id: str, balance: int = 0) -> None:
        with self._lock:
            if account_id in self._accounts:
                raise TicketError(f"account {account_id} already open", code="duplicate-account")
            self._commit({"kind": "open", "account": account_id, "balance": balance})

    def balance(self, account_id: str) -> int:
        return self._account(account_id).balance

    def history(self, account_id: str) -> list[ChargeReceipt]:
        return list(self._account(account_id).history)

    def charge_count(self, account_id: str) -> int:
        """``len(history(account_id))``, counted without copying the history."""
        return len(self._account(account_id).history)

    # -- policy / shares -----------------------------------------------------

    @property
    def policy(self) -> PricingPolicy:
        return self._policy

    def set_policy(self, policy: PricingPolicy) -> None:
        with self._lock:  # the price charged from the next charge on, logged so that a restart keeps it
            self._commit({"kind": "policy", "policy": policy.to_record()})

    @property
    def revenue_totals(self) -> dict[str, int]:
        return dict(self._revenue)

    # -- charging ------------------------------------------------------------

    def declines(self, account_id: str, amount: int) -> bool:
        """Whether :meth:`charge` would decline `amount` on the account now."""
        balance = self._account(account_id).balance
        return self._credit_limit is not None and balance - amount < -self._credit_limit

    def charge(self, account_id: str, amount: int, *, group: int, phase: str, ref: str) -> ChargeReceipt | Declined:
        """Move `amount` off the account (negative = incentive credit).
        Positive revenue is immediately split between the parties. A `ref`
        the ledger holds returns its charge's receipt and moves nothing."""
        if phase not in PHASES:
            raise InvalidArgument(f"unknown charging phase {phase!r}")
        with self._lock:
            charged = self._by_ref.get(ref)
            if charged is not None:
                return charged
            if self.declines(account_id, amount):
                return Declined(reason="limit-exceeded")
            self._commit(
                {
                    "kind": "charge",
                    "account": account_id,
                    "at": self._clock.now(),
                    "amount": amount,
                    "phase": phase,
                    "group": group,
                    "receipt": f"rcpt-{self._charges + 1:06d}",
                    "ref": ref,
                }
            )
            return self._accounts[account_id].history[-1]

    # -- audit ----------------------------------------------------------------

    def replayed_balance(self, account_id: str) -> int:
        """Opening balance minus the sum of history amounts; must always
        equal the live balance."""
        account = self._account(account_id)
        return account.opening_balance - sum(e.amount for e in account.history)

    # -- internals -------------------------------------------------------------

    def _account(self, account_id: str) -> Account:
        try:
            return self._accounts[account_id]
        except KeyError:
            raise TicketError(f"unknown account {account_id}", code="unknown-account") from None

    def _commit(self, record: dict) -> None:
        if self._ledger_log:  # the record each ticket adds is spliced
            raw = charge_record_bytes(record) if record["kind"] == "charge" else encode(record)
            append_record(self._ledger_log, raw)
        self._apply(record)

    def _apply(self, record: dict) -> None:
        """The only code that changes ledger state: live operations reach it
        through :meth:`_commit` after logging, and replay calls it for each
        logged record."""
        if record["kind"] == "policy":  # not a charge: no receipt, no price index, no revenue
            self._policy = PricingPolicy.from_record(record["policy"])
            return
        account_id = record["account"]
        if record["kind"] == "open":
            if account_id in self._accounts:  # a logged second opening would reset the balance and history
                raise TicketError(f"account {account_id} already open", code="duplicate-account")
            self._accounts[account_id] = Account(account_id, record["balance"], record["balance"])
            return
        account = self._account(account_id)  # a logged charge may name an account no record opened
        if record["phase"] not in PHASES:
            raise InvalidArgument(f"unknown charging phase {record['phase']!r}")
        receipt = f"rcpt-{self._charges + 1:06d}"  # a logged repeat would charge one receipt twice
        if record["receipt"] != receipt:
            raise TicketError(f"receipt {record['receipt']} is not the next, {receipt}", code="out-of-order-receipt")
        ref = record["ref"]
        if ref in self._by_ref:  # a logged second charge of one ref would charge its ticket twice
            raise TicketError(f"ref {ref} is already charged", code="duplicate-charge")
        amount = record["amount"]
        account.balance -= amount
        entry = ChargeReceipt(receipt, account_id, amount, record["group"], record["phase"], record["at"], account.balance)
        account.history.append(entry)
        self._by_ref[ref] = entry
        self._charges += 1
        if amount > 0 and self._shares is not None:
            cp_part, pca_part, rs_part = split_revenue(amount, self._shares)
            self._revenue["cp"] += cp_part
            self._revenue["pca"] += pca_part
            self._revenue["rs"] += rs_part
