#!/usr/bin/env python3
"""One rating workload, four charging regimes.

Runs the same three-agent scenario under cost-free registration, flat
pricing, increasing pricing, and reverse charging (incentives), and prints
the resulting account balances and revenue splits side by side.
"""

from pseudorate.scenario import ScenarioConfig, run_scenario

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


def main() -> int:
    results = {}
    for name, policy in POLICIES.items():
        config = ScenarioConfig.from_dict({**BASE, "policy": policy})
        results[name] = run_scenario(config).final

    accounts = [spec["account"] for spec in BASE["agents"]]
    print(f"{'':14}" + "".join(f"{name:>14}" for name in POLICIES))
    for account in accounts:
        row = [f"{results[name]['balances'][account]:>14}" for name in POLICIES]
        print(f"{account:14}" + "".join(row))
    for party in ("cp", "pca", "rs"):
        row = [f"{results[name]['revenue'][party]:>14}" for name in POLICIES]
        print(f"revenue {party:6}" + "".join(row))
    scores = results["free"]["scores"]
    independent = all(results[name]["scores"] == scores for name in POLICIES)
    print("\nscores are policy-independent:", independent)
    for subject, score in scores.items():
        print(f"  {subject} = {score}")
    return 0 if independent else 1


if __name__ == "__main__":
    raise SystemExit(main())
