#!/usr/bin/env python3
"""What pseudonyms cost under each pricing policy, measured through the protocol.

First table: one scenario run per cell, in which a buyer with balance 0 and
no credit limit registers, acquires k tickets and redeems each, charged ex
post. The cost is minus its final balance, checked against the sum of the
policy's prices. Second table: one three-agent rating workload under free,
flat, increasing and reverse pricing, with the balances and revenue splits
side by side. Exits 1 if a cell differs from its price sum or a score
depends on the policy.
"""

from pseudorate.charging import price
from pseudorate.scenario import ScenarioConfig, run_scenario

SYBIL_POLICIES = {
    "free": {"kind": "free"},
    "flat(100)": {"kind": "flat", "per_group": {"1": 100}},
    "increasing(100,+10)": {"kind": "increasing", "per_group": {"1": 100}, "step": 10},
    "reverse(-50)": {"kind": "reverse", "incentive": 50},
}

TICKET_COUNTS = (1, 2, 5, 10, 20, 50)

BASE = {
    "seed": 2024,
    "rs_id": "rs-spectrum",
    "groups": {"1": {"impact": "1"}, "2": {"impact": "2"}},
    "shares": {"cp": "1/5", "pca": "2/5", "rs": "2/5"},
    "charging": "ex_post",
    "agents": [
        {"name": "a", "account": "acct-a", "balance": 1000},
        {"name": "b", "account": "acct-b", "balance": 1000},
        {"name": "c", "account": "acct-c", "balance": 1000},
    ],
    "script": [
        {"action": "register", "agent": "a"},
        {"action": "register", "agent": "b"},
        {"action": "register", "agent": "c"},
        {"action": "acquire", "agent": "a", "group": 1, "count": 3},
        {"action": "acquire", "agent": "b", "group": 2, "count": 2},
        {"action": "acquire", "agent": "c", "group": 1},
        {"action": "redeem", "agent": "a", "subject": "shop-x", "score": 5},
        {"action": "redeem", "agent": "a", "subject": "shop-x", "score": 4},
        {"action": "redeem", "agent": "a", "subject": "shop-y", "score": 3},
        {"action": "redeem", "agent": "b", "subject": "shop-x", "score": 2},
        {"action": "redeem", "agent": "b", "subject": "shop-y", "score": 5},
        {"action": "redeem", "agent": "c", "subject": "shop-y", "score": 1},
        {"action": "score", "subject": "shop-x"},
        {"action": "score", "subject": "shop-y"},
    ],
}

POLICIES = {
    "free": {"kind": "free"},
    "flat": {"kind": "flat", "per_group": {"1": 100, "2": 200}},
    "increasing": {"kind": "increasing", "per_group": {"1": 100, "2": 200}, "step": 25},
    "reverse": {"kind": "reverse", "incentive": 40},
}


def sybil_cost(policy: dict, count: int) -> tuple[int, bool]:
    """What one account paid for ``count`` rated tickets, and whether that
    is the sum of the policy's prices for them with every rating stored."""
    steps = [{"action": "register", "agent": "sybil"}, {"action": "acquire", "agent": "sybil", "count": count}]
    steps += [{"action": "redeem", "agent": "sybil", "subject": "shop", "score": 5}] * count
    config = ScenarioConfig.from_dict({
        "groups": {"1": {"impact": "1"}},
        "policy": policy,
        "charging": "ex_post",
        "agents": [{"name": "sybil", "balance": 0}],
        "script": steps,
    })
    final = run_scenario(config).final
    cost = -final["balances"]["acct-sybil"]
    return cost, final["ratings"] == count and cost == sum(price(config.policy, 1, prior) for prior in range(count))


def main() -> int:
    header = ["tickets", *SYBIL_POLICIES]
    widths = [max(10, len(h) + 2) for h in header]
    print("".join(h.ljust(w) for h, w in zip(header, widths)))
    mismatches = 0
    for count in TICKET_COUNTS:
        row = [str(count)]
        for policy in SYBIL_POLICIES.values():
            cost, matches = sybil_cost(policy, count)
            mismatches += not matches
            row.append(str(cost))
        print("".join(cell.ljust(w) for cell, w in zip(row, widths)))
    print(f"\ncross-check: each cell charged through the protocol against its sum of prices: mismatches={mismatches}\n")

    results = {name: run_scenario(ScenarioConfig.from_dict({**BASE, "policy": policy})).final
               for name, policy in POLICIES.items()}
    print(f"{'':14}" + "".join(f"{name:>14}" for name in POLICIES))
    for account in [spec["account"] for spec in BASE["agents"]]:
        print(f"{account:14}" + "".join(f"{results[name]['balances'][account]:>14}" for name in POLICIES))
    for party in ("cp", "pca", "rs"):
        print(f"revenue {party:6}" + "".join(f"{results[name]['revenue'][party]:>14}" for name in POLICIES))
    scores = results["free"]["scores"]
    independent = all(results[name]["scores"] == scores for name in POLICIES)
    print("\nscores are policy-independent:", independent)
    for subject, score in scores.items():
        print(f"  {subject} = {score}")
    return 0 if independent and not mismatches else 1


if __name__ == "__main__":
    raise SystemExit(main())
