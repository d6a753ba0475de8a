"""Turn-order auction for conflict resolution.

Contenders over a shared cell submit bids; the allocation rule sorts them by
descending bid and assigns passage turns, the payment rule charges each
winner the externality it imposes on lower-turn agents, and bidding one's
true incentive is a dominant strategy. All money arithmetic is exact
(fractions.Fraction), so the mechanism's properties can be asserted without
tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence


@dataclass(frozen=True)
class Bid:
    agent_id: int
    amount: Fraction
    arrival: int = 0  # tick the agent first contended for the cell; tie-break only

    def __post_init__(self):
        object.__setattr__(self, "amount", Fraction(self.amount))
        if self.amount < 0:
            raise ValueError("bid amounts must be nonnegative")


@dataclass(frozen=True)
class RewardSchedule:
    """Strictly decreasing positive per-turn rewards alpha_1 > alpha_2 > ... > 0."""

    alphas: tuple[Fraction, ...]

    def __post_init__(self):
        alphas = tuple(Fraction(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if not alphas:
            raise ValueError("schedule must be nonempty")
        if any(a <= 0 for a in alphas):
            raise ValueError("rewards must be positive")
        if any(a <= b for a, b in zip(alphas, alphas[1:])):
            raise ValueError("rewards must be strictly decreasing")

    def __len__(self) -> int:
        return len(self.alphas)

    def alpha(self, q: int) -> Fraction:
        """Reward for turn q (1-based); 0 past the last turn."""
        if q < 1:
            raise ValueError("turn index must be >= 1")
        if q > len(self.alphas):
            return Fraction(0)
        return self.alphas[q - 1]


@lru_cache(maxsize=64)
def harmonic_schedule(k: int) -> RewardSchedule:
    """Default schedule alpha_q = 1/q for k turns.

    Memoized, since a frozen schedule is safe to share: the planner asks for
    one on every new incentive tuple it settles, and a build costs ~30 us.
    """
    if k < 1:
        raise ValueError("need at least one turn")
    return RewardSchedule(tuple(Fraction(1, q) for q in range(1, k + 1)))


@dataclass(frozen=True)
class AuctionOutcome:
    ordering: dict[int, int]          # agent_id -> turn (1-based)
    payments: dict[int, Fraction]     # agent_id -> h_i
    utilities: dict[int, Fraction]    # agent_id -> Phi_i at true values
    welfare: Fraction

    def turn_order(self) -> list[int]:
        return [aid for aid, _ in sorted(self.ordering.items(), key=lambda kv: kv[1])]


def turn_key(amount, arrival: int, agent_id: int) -> tuple:
    """Turn order, also of the planner's auction and fifo (bidding zero)
    resolvers: descending amount, then earlier arrival, then lower id."""
    return (-amount, arrival, agent_id)


def _rank(bids: Sequence[Bid]) -> list[Bid]:
    """Bids in turn order."""
    return sorted(bids, key=lambda b: turn_key(b.amount, b.arrival, b.agent_id))


def _settle(
    amounts: Sequence[Fraction], values: Sequence[Fraction], alphas: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction], Fraction]:
    """Payments, utilities and welfare by turn; index i is turn i + 1.

    `amounts` are the bids in turn order (descending), `values` the turn
    holders' true values; `alphas` past the last turn go unused. Payments come
    from one reverse pass: turn q's charge is turn q+1's plus
    b_{q+1}(alpha_q - alpha_{q+1}), so payments[i] equals the closed form
    helpers.payment(amounts, i + 1, schedule) in tests/helpers.py. A utility
    is value x alpha_q - payment; welfare sums value x alpha_q.
    """
    payments = [Fraction(0)] * len(amounts)
    for i in range(len(amounts) - 2, -1, -1):
        payments[i] = payments[i + 1] + amounts[i + 1] * (alphas[i] - alphas[i + 1])
    gains = [v * a for v, a in zip(values, alphas)]
    utilities = [g - p for g, p in zip(gains, payments)]
    return payments, utilities, sum(gains, Fraction(0))


def run_auction(
    bids: Sequence[Bid],
    schedule: Optional[RewardSchedule] = None,
    true_values: Optional[Mapping[int, Fraction]] = None,
) -> AuctionOutcome:
    """Full mechanism: allocation, payments, and true-value utilities.

    true_values defaults to the bid amounts (the truthful case). Welfare is
    always evaluated at true values.
    """
    if len(bids) < 2:
        raise ValueError("auction needs at least two contenders")
    if schedule is None:
        schedule = harmonic_schedule(len(bids))
    if len(schedule) < len(bids):
        raise ValueError("schedule shorter than contender count")
    ranked = _rank(bids)
    if true_values is None:
        values = [b.amount for b in ranked]
    else:
        values = [Fraction(true_values[b.agent_id]) for b in ranked]
    pays, utils, welfare = _settle([b.amount for b in ranked], values, schedule.alphas)
    ordering = {b.agent_id: q for q, b in enumerate(ranked, start=1)}
    payments = {b.agent_id: pay for b, pay in zip(ranked, pays)}
    utilities = {b.agent_id: u for b, u in zip(ranked, utils)}
    return AuctionOutcome(ordering=ordering, payments=payments, utilities=utilities, welfare=welfare)


def sweep_utilities(
    bids: Sequence[Bid],
    focal_agent: int,
    bid_grid: Iterable,
    schedule: Optional[RewardSchedule] = None,
) -> list[tuple[Fraction, Fraction]]:
    """Utility curve for one agent as its bid varies, others held fixed.

    Every agent's true value is its listed bid amount, the focal agent's
    included. Returns (bid, utility) points for plotting.
    """
    values = {b.agent_id: b.amount for b in bids}
    if focal_agent not in values:
        raise ValueError(f"agent {focal_agent} not among bidders")
    grid = [Fraction(x) for x in bid_grid]
    if not grid:
        raise ValueError("bid grid is empty")
    if len(bids) == 1:
        # degenerate single-contender case: no auction, flat curve at full reward
        sched = schedule if schedule is not None else harmonic_schedule(1)
        return [(x, values[focal_agent] * sched.alpha(1)) for x in grid]
    curve = []
    for x in grid:
        trial_bids = [
            Bid(b.agent_id, x if b.agent_id == focal_agent else b.amount, b.arrival) for b in bids
        ]
        outcome = run_auction(trial_bids, schedule=schedule, true_values=values)
        curve.append((x, outcome.utilities[focal_agent]))
    return curve
