"""Gradient annealing for the classifier/regressor heads.

Head-parameter gradients are magnified by a factor that decays linearly from
an initial value to 1 over training; backbone gradients are left untouched.
A constant-factor variant supports ablations against the annealed schedule.
"""

from __future__ import annotations

import numpy as np

from .net import Gradients


def anneal_factors(lambda0: float, total_steps: int, steps, constant: bool = False) -> list[float]:
    """The magnification at each of `steps` of a `total_steps` run: lambda0
    at step 0, decaying linearly to 1 at the end, or lambda0 throughout if
    `constant`; ValueError for a step outside the run."""
    if bad := [t for t in steps if not 0 <= t <= total_steps]:
        raise ValueError(f"step {bad[0]} outside [0, {total_steps}]")
    if constant:
        return [lambda0] * len(steps)
    return [lambda0 - (lambda0 - 1.0) * t / total_steps for t in steps]


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
