#!/usr/bin/env python3
"""Cost of amassing pseudonyms under each pricing policy.

Sweeps the number of tickets one account acquires and prints the total
charge per policy, then cross-checks the increasing-policy column against
a live acquisition run (every ticket bought through the real issuance
protocol).
"""

import random
from fractions import Fraction

from pseudorate.agent import TrustedAgent
from pseudorate.charging import ChargingProvider, PricingPolicy, price
from pseudorate.clock import SimClock
from pseudorate.privacy_ca import GroupConfig, PrivacyCa
from pseudorate.reputation import ReputationSystem
from pseudorate.tpm import TpmInstance

POLICIES = {
    "free": PricingPolicy.free(),
    "flat(100)": PricingPolicy.flat({1: 100}),
    "increasing(100,+10)": PricingPolicy.increasing({1: 100}, step=10),
    "reverse(-50)": PricingPolicy.reverse(50),
}

TICKET_COUNTS = (1, 2, 5, 10, 20, 50)


def total_cost(policy: PricingPolicy, count: int) -> int:
    return sum(price(policy, 1, prior) for prior in range(count))


def live_increasing_run(count: int) -> int:
    clock = SimClock()
    policy = POLICIES["increasing(100,+10)"]
    cp = ChargingProvider(clock, policy=policy)
    cp.open_account("acct-sybil", 10_000)
    pca = PrivacyCa(
        {1: GroupConfig(impact=Fraction(1))},
        clock=clock,
        rng=random.Random(1),
        charging=cp,
        charge_phases=("acquisition",),
    )
    rs = ReputationSystem("rs-sybil", clock=clock)
    rs.configure_groups(pca.group_registry())
    agent = TrustedAgent(
        TpmInstance(rng=random.Random(2)), pca, rs,
        user_account="acct-sybil", rs_id="rs-sybil", rng=random.Random(3),
    )
    agent.register()
    opening = cp.balance("acct-sybil")
    for _ in range(count):
        agent.acquire_ticket(1)
    return opening - cp.balance("acct-sybil")


def main() -> int:
    header = ["tickets"] + list(POLICIES)
    widths = [max(10, len(h) + 2) for h in header]
    print("".join(h.ljust(w) for h, w in zip(header, widths)))
    for count in TICKET_COUNTS:
        row = [str(count)] + [str(total_cost(p, count)) for p in POLICIES.values()]
        print("".join(cell.ljust(w) for cell, w in zip(row, widths)))

    print("\ncross-check: 10 tickets under increasing(100,+10) via the live protocol")
    charged = live_increasing_run(10)
    oracle = total_cost(POLICIES["increasing(100,+10)"], 10)
    print(f"  charged={charged} oracle={oracle} match={charged == oracle}")
    return 0 if charged == oracle else 1


if __name__ == "__main__":
    raise SystemExit(main())
