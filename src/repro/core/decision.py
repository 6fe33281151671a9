"""The steering decision (Figure 2, C3): every caller that picks a candidate
calls :func:`choose`, and every caller that needs the native optimizer's own
plan asks :func:`default_index`, so a rule that hands the choice back to the
native plan has one place to live.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Decision", "choose", "default_index"]


@dataclass(frozen=True)
class Decision:
    """The chosen candidate's position and the native default's."""

    index: int
    default_index: int


def default_index(plans) -> int:
    """Position of the native optimizer's default plan among ``plans``."""
    for i, plan in enumerate(plans):
        if plan.is_default:
            return i
    raise ValueError("no candidate is the native default plan")


def choose(costs, default_index: int) -> Decision:
    """Pick the candidate with the least predicted cost, the first on ties."""
    return Decision(int(np.argmin(costs)), default_index)
