"""Expected outcomes the benchmark checks the program against.

Every value here is computed by the benchmark from its own inputs, never
read back from the service it checks: scores are brute-force exact means
over the ratings the benchmark knows were accepted, and charges are
``charging.price`` summed over each account's ticket sequence.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from pseudorate.charging import price

NO_SCORE = "no-score"  # ReputationSystem's default none_value

# checks that a lost update in the unlocked ledger (ROADMAP §3, "Ledger
# race") would break; their failures are reported under that name
LEDGER_RACE_CHECKS = ("ledger.replayed_balance", "ledger.revenue_conservation", "ledger.charged_total")


class Tally:
    """Operations attempted and the named checks they failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures[name] += 1
        return ok

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failures.update(other.failures)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def report(self) -> dict[str, int]:
        named = {}
        for check, count in sorted(self.failures.items()):
            label = f"{check} (ROADMAP §3: ledger race)" if check in LEDGER_RACE_CHECKS else check
            named[label] = count
        return named


def expected_score(ratings: list[tuple[Fraction, int]]) -> tuple[int, str]:
    """(count, score string) that ``rs/score`` must answer for these
    (impact, score) pairs: the exact impact-weighted mean."""
    if not ratings:
        return 0, NO_SCORE
    weight = sum((impact for impact, _ in ratings), Fraction(0))
    weighted = sum((impact * score for impact, score in ratings), Fraction(0))
    return len(ratings), str(weighted / weight)


def expected_charged(policy, groups: list[int]) -> int:
    """Total an account pays for tickets charged in this group order."""
    return sum(price(policy, group, i) for i, group in enumerate(groups))


class ScoreBook:
    """Accepted ratings per subject, kept by the benchmark outside the
    timed window."""

    def __init__(self):
        self.by_subject: dict[str, list[tuple[Fraction, int]]] = {}
        self._expected: dict[str, tuple[int, str]] = {}  # brute force, redone after each add

    def add(self, subject: str, impact: Fraction, score: int) -> None:
        self.by_subject.setdefault(subject, []).append((Fraction(impact), score))
        self._expected.pop(subject, None)

    def expected(self, subject: str) -> tuple[int, str]:
        if subject not in self._expected:
            self._expected[subject] = expected_score(self.by_subject.get(subject, []))
        return self._expected[subject]


def check_ledger(
    tally: Tally, cp, charged_groups: dict[str, list[int]], opening: int, policy, others=()
) -> None:
    """Conservation checks on a charging provider after a round; ``others``
    are further accounts whose charges count toward revenue."""
    for account, groups in charged_groups.items():
        balance = cp.balance(account)
        tally.check("ledger.replayed_balance", cp.replayed_balance(account) == balance)
        tally.check("ledger.charged_total", opening - balance == expected_charged(policy, groups))
    positive = sum(
        entry.amount for account in (*charged_groups, *others) for entry in cp.history(account) if entry.amount > 0
    )
    tally.check("ledger.revenue_conservation", sum(cp.revenue_totals.values()) == positive)
