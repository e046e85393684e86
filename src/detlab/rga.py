"""Gradient annealing for the classifier/regressor heads.

Head-parameter gradients are magnified by a factor that decays linearly from
an initial value to 1 over training; backbone gradients are left untouched.
A constant-factor variant supports ablations against the annealed schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .net import Gradients


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


def apply_rga(grads: Gradients, lam: float, out: Gradients) -> Gradients:
    """Scale every head-parameter gradient by `lam`; backbone gradients pass
    through unchanged. The result is `out`: its vector `out.flat` gets a copy
    of the backbone part and the head part times `lam` in one multiply. The
    input is left untouched."""
    if lam < 1.0:
        raise ValueError(f"magnification {lam} violates the schedule (must be >= 1)")
    n = grads.backbone.w.size + grads.backbone.b.size
    out.flat[:n] = grads.flat[:n]
    np.multiply(grads.flat[n:], lam, out=out.flat[n:])
    return out
