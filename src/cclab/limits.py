"""Search limits shared by the exact searches (set cover, exact_cc),
and the one result type those searches return.

A limit exhaustion never aborts the process: searches catch
BudgetExceeded and return a SearchResult that is not exact, whose
status word says why: INTERVAL for D(f), BOUNDS or INCONCLUSIVE for
C(f).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import parse_count


EXACT = "exact"
INTERVAL = "interval"          # D(f): the search hit its limits
BOUNDS = "bounds"              # C(f): greedy, or the search hit its limits
INCONCLUSIVE = "inconclusive"  # C(f): the rectangle universe was truncated


class BudgetExceeded(Exception):
    """Internal signal: a search ran out of nodes or wall-clock time."""


@dataclass(frozen=True)
class SearchResult:
    """The answer of a metered search: exact (lower == upper) or the
    explicit interval [lower, upper] of a search cut short.  ``nodes``
    counts the search nodes visited; a set cover attaches ``cover``, a
    tuple of Rectangles witnessing ``upper``."""

    status: str  # EXACT | INTERVAL | BOUNDS | INCONCLUSIVE
    lower: int
    upper: int
    nodes: int = 0
    cover: tuple | None = None

    @property
    def exact(self) -> bool:
        return self.status == EXACT

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError(f"not computed exactly (status={self.status})")
        return self.upper


@dataclass(frozen=True)
class SearchLimits:
    node_budget: int = 500_000
    time_budget_ms: int | None = None
    rect_budget: int = 200_000

    def __post_init__(self):
        if self.node_budget <= 0 or self.rect_budget <= 0:
            raise ValueError("limits must be positive")
        if self.time_budget_ms is not None and self.time_budget_ms <= 0:
            raise ValueError("limits must be positive")

    @classmethod
    def parse(cls, text: str) -> "SearchLimits":
        """The limits of the --limits syntax ``node=..,ms=..,rects=..``:
        any subset, each key at most once, with no spaces, each value in
        ASCII digits; the others keep their defaults, and "" gives the
        defaults."""
        fields = {"node": "node_budget", "ms": "time_budget_ms",
                  "rects": "rect_budget"}
        given = {}
        for part in text.split(",") if text else ():
            key, _, val = part.partition("=")
            if key not in fields:
                raise ValueError(f"bad limit syntax {part!r} (want node=..,ms=..,rects=..)")
            if fields[key] in given:
                raise ValueError(f"limit {key} given twice")
            try:
                given[fields[key]] = parse_count(val)
            except ValueError as e:
                raise ValueError(f"limit {key}: {e}") from None
        return cls(**given)


class Meter:
    """Node counter plus optional wall-clock deadline.

    The node budget is deterministic; the time budget is a grace check
    between search nodes and is only deterministic when unset.
    """

    def __init__(self, limits: SearchLimits):
        self.limits = limits
        self.nodes = 0
        self._deadline = None
        if limits.time_budget_ms is not None:
            self._deadline = time.monotonic() + limits.time_budget_ms / 1000.0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limits.node_budget:
            raise BudgetExceeded("node budget exhausted")
        if self._deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self._deadline:
                raise BudgetExceeded("time budget exhausted")
