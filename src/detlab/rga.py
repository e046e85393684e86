"""Gradient annealing for the classifier/regressor heads.

Head-parameter gradients are magnified by a factor that decays linearly from
an initial value to 1 over training; backbone gradients are left untouched.
A constant-factor variant supports ablations against the annealed schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .net import Gradients, HeadParams


@dataclass(frozen=True)
class AnnealSchedule:
    lambda0: float
    total_steps: int
    constant: bool = False

    def __post_init__(self):
        if not 1.0 <= self.lambda0 < math.inf:
            raise ValueError("initial magnification must be >= 1 and finite")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")


def anneal_factor(t: int, sched: AnnealSchedule) -> float:
    """Magnification at optimization step t: lambda0 at 0, decaying linearly to 1."""
    if not (0 <= t <= sched.total_steps):
        raise ValueError(f"step {t} outside [0, {sched.total_steps}]")
    if sched.constant:
        return sched.lambda0
    return sched.lambda0 - (sched.lambda0 - 1.0) * t / sched.total_steps


def apply_rga(grads: Gradients, lam: float) -> Gradients:
    """Scale every head-parameter gradient by `lam`; backbone gradients pass
    through unchanged (same arrays)."""
    if lam < 1.0:
        raise ValueError(f"magnification {lam} violates the schedule (must be >= 1)")
    return Gradients(backbone=grads.backbone,
                     heads=HeadParams(*[lam * a for a in grads.heads.arrays()]))
