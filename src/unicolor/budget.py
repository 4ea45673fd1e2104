"""Co-operative search budgets shared by the exact kernels."""

from __future__ import annotations

import time


class BudgetExceededError(RuntimeError):
    """Raised by a search kernel when its node or time budget runs out."""


class Budget:
    """Node/time allowance handed to a backtracking search.

    ``spend`` is called once per search node; it raises
    :class:`BudgetExceededError` when the allowance is gone.  ``spend(nodes)``
    charges a whole memoised subtree at once, as many units as its nodes
    would have spent one by one.  The wall clock is only consulted every
    4096 nodes to keep the per-node cost negligible.
    """

    __slots__ = ("nodes_left", "deadline", "_tick")

    _CLOCK_STRIDE = 4096

    def __init__(self, max_nodes: int | None = None, max_seconds: float | None = None):
        if max_nodes is not None and (type(max_nodes) is not int or max_nodes < 0):
            raise ValueError("max_nodes must be a non-negative integer")
        if max_seconds is not None and (
            type(max_seconds) not in (int, float) or not max_seconds > 0  # NaN is not > 0
        ):
            raise ValueError("max_seconds must be positive")
        self.nodes_left = max_nodes
        self.deadline = None if max_seconds is None else time.monotonic() + max_seconds
        self._tick = 0

    def spend(self, nodes: int = 1) -> None:
        if self.nodes_left is not None:
            self.nodes_left -= nodes
            if self.nodes_left < 0:
                raise BudgetExceededError("node budget exhausted")
        if self.deadline is not None:
            self._tick += nodes
            if self._tick >= self._CLOCK_STRIDE:
                self._tick = 0
                if time.monotonic() > self.deadline:
                    raise BudgetExceededError("time budget exhausted")

    def check_time(self) -> None:
        """Force a clock check (used at coarse checkpoints)."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("time budget exhausted")
