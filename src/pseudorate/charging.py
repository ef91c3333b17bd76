"""Account ledger, ticket pricing policies, and revenue sharing.

Amounts are integers in minor currency units; shares and any other exact
ratios are fractions, and splitting uses largest-remainder rounding so no
minor unit is ever lost. The provider knows accounts and group *ids* only;
what a group means is none of its business.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .clock import SimClock
from .encoding import append_record, encode, read_records
from .errors import InvalidArgument, TicketError, UnknownGroup

PHASE_ACQUISITION = "acquisition"
PHASE_EX_POST = "ex_post"
PHASES = (PHASE_ACQUISITION, PHASE_EX_POST)


class ChargingError(TicketError):
    code = "charging-error"


@dataclass(frozen=True)
class RevenueShares:
    cp: Fraction
    pca: Fraction
    rs: Fraction

    def __post_init__(self):
        parts = (self.cp, self.pca, self.rs)
        if any(not isinstance(p, Fraction) for p in parts):
            raise ChargingError("shares must be fractions", code="invalid-shares")
        if any(p < 0 for p in parts):
            raise ChargingError("shares must be non-negative", code="invalid-shares")
        if sum(parts) != 1:
            raise ChargingError("shares must sum to exactly 1", code="invalid-shares")

    def to_record(self) -> dict:
        return {"cp": str(self.cp), "pca": str(self.pca), "rs": str(self.rs)}

    @classmethod
    def from_record(cls, record: dict) -> "RevenueShares":
        try:
            return cls(Fraction(record["cp"]), Fraction(record["pca"]), Fraction(record["rs"]))
        except (KeyError, ValueError, ZeroDivisionError, TypeError) as exc:
            raise ChargingError(f"bad shares record: {exc}", code="invalid-shares") from exc


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
        """An absent key takes its default; an unknown key, or a price, step
        or incentive that is not an int, is refused rather than coerced."""
        unknown = set(record) - {"kind", "per_group", "step", "incentive"}
        if unknown:
            raise InvalidArgument(f"bad policy record: unknown keys {sorted(unknown)}")
        per_group = record.get("per_group", {})
        step, incentive = record.get("step", 0), record.get("incentive", 0)
        if not isinstance(per_group, dict) or any(type(v) is not int for v in (*per_group.values(), step, incentive)):
            raise InvalidArgument("bad policy record: prices, step and incentive must be integers")
        try:
            return cls(record["kind"], {int(g): p for g, p in per_group.items()}, step, incentive)
        except (KeyError, ValueError, TypeError) as exc:
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
    exact = [amount * shares.cp, amount * shares.pca, amount * shares.rs]
    floors = [int(x) for x in exact]  # int() truncates toward zero; x >= 0 here
    remainder = amount - sum(floors)
    order = sorted(range(3), key=lambda i: (floors[i] - exact[i], i))
    parts = list(floors)
    for i in order[:remainder]:
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
        self._revenue = {"cp": 0, "pca": 0, "rs": 0}
        # the socket server is threaded: open_account and charge check and
        # then update, and without the lock concurrent charges lose updates
        self._lock = threading.Lock()
        self._ledger_log = Path(ledger_log) if ledger_log else None
        if self._ledger_log and self._ledger_log.exists():
            for record in read_records(self._ledger_log):
                self._apply(record)

    # -- accounts ------------------------------------------------------------

    def open_account(self, account_id: str, balance: int = 0) -> None:
        with self._lock:
            if account_id in self._accounts:
                raise ChargingError(f"account {account_id} already open", code="duplicate-account")
            self._commit({"kind": "open", "account": account_id, "balance": balance})

    def balance(self, account_id: str) -> int:
        return self._account(account_id).balance

    def history(self, account_id: str) -> list[ChargeReceipt]:
        return list(self._account(account_id).history)

    # -- policy / shares -----------------------------------------------------

    @property
    def policy(self) -> PricingPolicy:
        return self._policy

    def set_policy(self, policy: PricingPolicy) -> None:
        self._policy = policy

    @property
    def revenue_totals(self) -> dict[str, int]:
        return dict(self._revenue)

    # -- charging ------------------------------------------------------------

    def charge(self, account_id: str, amount: int, *, group: int, phase: str) -> ChargeReceipt | Declined:
        """Move `amount` off the account (negative = incentive credit).
        Positive revenue is immediately split between the parties."""
        if phase not in PHASES:
            raise InvalidArgument(f"unknown charging phase {phase!r}")
        with self._lock:
            account = self._account(account_id)
            if self._credit_limit is not None and account.balance - amount < -self._credit_limit:
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
                }
            )
            return account.history[-1]

    # -- audit ----------------------------------------------------------------

    def export_state(self) -> bytes:
        return encode(
            {
                "accounts": {
                    a.account_id: {
                        "balance": a.balance,
                        "opening": a.opening_balance,
                        "history": [
                            {"at": e.at, "amount": e.amount, "phase": e.phase, "group": e.group, "receipt": e.receipt_id}
                            for e in a.history
                        ],
                    }
                    for a in self._accounts.values()
                },
                "revenue": dict(self._revenue),
            }
        )

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
            raise ChargingError(f"unknown account {account_id}", code="unknown-account") from None

    def _commit(self, record: dict) -> None:
        if self._ledger_log:
            append_record(self._ledger_log, record)
        self._apply(record)

    def _apply(self, record: dict) -> None:
        """The only code that changes ledger state: live operations reach it
        through :meth:`_commit` after logging, and replay calls it for each
        logged record."""
        account_id = record["account"]
        if record["kind"] == "open":
            self._accounts[account_id] = Account(account_id, record["balance"], record["balance"])
            return
        account = self._accounts[account_id]
        amount = record["amount"]
        account.balance -= amount
        account.history.append(
            ChargeReceipt(
                record["receipt"], account_id, amount, record["group"], record["phase"], record["at"], account.balance
            )
        )
        self._charges += 1
        if amount > 0 and self._shares is not None:
            cp_part, pca_part, rs_part = split_revenue(amount, self._shares)
            self._revenue["cp"] += cp_part
            self._revenue["pca"] += pca_part
            self._revenue["rs"] += rs_part
