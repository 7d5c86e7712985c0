"""Base vocabulary for cost-sharing mechanisms.

A *utility profile* is a plain ``dict[agent, float]`` of reported utilities.
A mechanism maps a profile to a :class:`MechanismResult`: the receiver set,
the per-receiver cost shares, and the cost of the solution it actually
built (plus an optional power assignment and free-form diagnostics).
"""

from __future__ import annotations

import abc
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

Agent = int
Profile = Mapping[Agent, float]


@dataclass(frozen=True)
class MechanismResult:
    """Outcome of one mechanism run."""

    receivers: frozenset
    shares: dict[Agent, float]
    cost: float
    power: Any | None = None  # PowerAssignment for wireless mechanisms
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        stray = set(self.shares) - set(self.receivers)
        if stray:
            raise ValueError(f"shares assigned to non-receivers: {sorted(stray)}")

    def share(self, agent: Agent) -> float:
        """Cost share of ``agent`` (0 for non-receivers, as VP demands)."""
        return self.shares.get(agent, 0.0)

    def total_charged(self) -> float:
        return sum(self.shares.values())

    def welfare(self, true_utilities: Profile) -> dict[Agent, float]:
        """Individual welfare ``w_i = u_i - c_i`` (0 for non-receivers)."""
        return {
            i: (true_utilities[i] - self.share(i)) if i in self.receivers else 0.0
            for i in true_utilities
        }

    def net_worth(self, true_utilities: Profile) -> float:
        """``NW = sum of receiver utilities - cost of the built solution``."""
        return sum(true_utilities[i] for i in self.receivers) - self.cost


class CostSharingMechanism(abc.ABC):
    """A cost-sharing mechanism over a fixed agent set.

    Subclasses implement :meth:`run`; ``agents`` lists every potential
    receiver (for wireless mechanisms: all stations except the source).
    """

    agents: Sequence[Agent]

    @abc.abstractmethod
    def run(self, profile: Profile) -> MechanismResult:
        """Execute the mechanism on reported utilities ``profile``."""

    def validate_profile(self, profile: Profile) -> dict[Agent, float]:
        known = set(self.agents)
        missing = [a for a in self.agents if a not in profile]
        if missing:
            raise ValueError(f"profile missing agents: {missing}")
        stray = sorted((a for a in profile if a not in known), key=repr)
        if stray:
            raise ValueError(f"profile reports unknown agents: {stray}")
        # ``0 <= v < inf`` is false for NaN, so one test rejects negative
        # and non-finite bids alike.
        bad = {a: v for a, v in profile.items() if not 0 <= v < math.inf}
        if bad:
            raise ValueError(f"utilities must be finite and non-negative: {bad}")
        # Finite bids can still sum past the float range, and every net
        # worth and budget check runs on sums of them.
        if not math.isfinite(sum(profile.values())):
            raise ValueError("utilities must have a finite total "
                             "(this profile's sum overflows)")
        return {a: float(profile[a]) for a in self.agents}


def with_report(profile: Profile, agent: Agent, value: float) -> dict[Agent, float]:
    """Copy of ``profile`` where ``agent`` reports ``value`` (the ``(v_-i,
    a_i)`` notation of the paper)."""
    p = dict(profile)
    p[agent] = value
    return p
