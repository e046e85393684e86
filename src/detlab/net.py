"""Tiny differentiable detector head: shared tanh backbone, per-head tanh fc,
linear classification and class-agnostic box-regression branches, with analytic
gradients and a step-decayed SGD optimizer.

tanh (not ReLU) keeps every loss smooth so finite-difference checks are clean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .files import read_arrays, write_arrays

INIT_SCALE = 0.1
SMOOTH_L1_BETA = 1.0  # _smooth_l1_grad leaves out its division by this 1.0


@dataclass
class BackboneParams:
    w: np.ndarray  # (D, H)
    b: np.ndarray  # (H,)

    def arrays(self):
        return [self.w, self.b]


@dataclass
class HeadParams:
    w_shared: np.ndarray  # (H, H)
    b_shared: np.ndarray  # (H,)
    w_cls: np.ndarray  # (H, C+1)
    b_cls: np.ndarray  # (C+1,)
    w_reg: np.ndarray  # (H, 4)
    b_reg: np.ndarray  # (4,)

    def arrays(self):
        return [self.w_shared, self.b_shared, self.w_cls, self.b_cls,
                self.w_reg, self.b_reg]


@dataclass
class Gradients:
    """Arrays mirroring the backbone and the heads exactly; `heads` is one
    head or a stack of heads. `flat` is the one vector whose views the arrays
    are, laid out as `flatten` lays out the parameters."""

    backbone: BackboneParams
    heads: HeadParams
    flat: np.ndarray


DECAY_POINTS = (8 / 12, 11 / 12)  # fractions of a run: Faster R-CNN's stepped decay
DECAY_FACTOR = 0.1  # the learning rate's factor at each decay point


def lr_schedule(learning_rate: float, total_steps: int, steps) -> list[float]:
    """The learning rate at each of `steps` of a `total_steps` run, decayed
    once for every decay point at or before the step; ValueError for a step
    outside the run."""
    if bad := [t for t in steps if not 0 <= t < total_steps]:
        raise ValueError(f"step {bad[0]} beyond schedule of {total_steps}")
    starts = [math.floor(f * total_steps) for f in DECAY_POINTS]
    return [learning_rate * DECAY_FACTOR ** passed
            for passed in np.searchsorted(starts, steps, side="right").tolist()]


def init_backbone(feature_dim: int, hidden: int, rng: np.random.Generator) -> BackboneParams:
    return BackboneParams(
        w=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(feature_dim, hidden)),
        b=rng.uniform(-INIT_SCALE, INIT_SCALE, size=hidden),
    )


def init_head(hidden: int, num_classes: int, rng: np.random.Generator) -> HeadParams:
    return HeadParams(
        w_shared=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(hidden, hidden)),
        b_shared=rng.uniform(-INIT_SCALE, INIT_SCALE, size=hidden),
        w_cls=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(hidden, num_classes + 1)),
        b_cls=rng.uniform(-INIT_SCALE, INIT_SCALE, size=num_classes + 1),
        w_reg=rng.uniform(-INIT_SCALE, INIT_SCALE, size=(hidden, 4)),
        b_reg=rng.uniform(-INIT_SCALE, INIT_SCALE, size=4),
    )


def stack_heads(heads) -> HeadParams:
    """Heads stacked along a new leading axis of each array, (H, ·, ·)."""
    return HeadParams(*map(np.stack, zip(*(h.arrays() for h in heads))))


def views(flat: np.ndarray, backbone: BackboneParams, heads: HeadParams
          ) -> tuple[BackboneParams, HeadParams]:
    """Consecutive slices of the last axis of `flat`, shaped like the backbone
    and then the heads arrays (after any leading axes of `flat`)."""
    out, start = [], 0
    for a in backbone.arrays() + heads.arrays():
        out.append(flat[..., start:start + a.size].reshape(flat.shape[:-1] + a.shape))
        start += a.size
    return BackboneParams(*out[:2]), HeadParams(*out[2:])


def flatten(backbone: BackboneParams, heads: HeadParams
            ) -> tuple[np.ndarray, BackboneParams, HeadParams]:
    """The arrays copied into one vector, the backbone first and then the
    heads in HEAD_KEYS order, and the backbone and heads as views of it."""
    flat = np.concatenate([a.ravel() for a in backbone.arrays() + heads.arrays()])
    return (flat, *views(flat, backbone, heads))


def forward(backbone: BackboneParams, heads: HeadParams, features: np.ndarray):
    """Returns (logits, deltas, (hidden, shared)); logits are pre-softmax
    scores, and hidden and shared the two tanh layers' outputs, which
    `backward` takes at a batch's rows.

    `heads` is one head, or H heads stacked along a leading axis of each
    array. The backbone runs once over the (N, D) features and every
    head with one broadcast matmul per layer, so stacked heads give
    (H, N, C+1) logits and (H, N, 4) deltas, each head's slice equal to its
    own forward. Features of another width make the first matmul raise
    ValueError; `check_features` names the shapes, once per block of pools.
    """
    h = np.tanh(features @ backbone.w + backbone.b)
    s = np.tanh(h @ heads.w_shared + heads.b_shared[..., None, :])
    logits = s @ heads.w_cls + heads.b_cls[..., None, :]
    deltas = s @ heads.w_reg + heads.b_reg[..., None, :]
    return logits, deltas, (h, s)


def check_features(backbone: BackboneParams, features: np.ndarray) -> None:
    """Raises ValueError unless `features` is an (N, D) table for the
    backbone's D inputs."""
    if features.ndim != 2 or features.shape[1] != backbone.w.shape[0]:
        raise ValueError(f"feature batch of shape {features.shape} incompatible with "
                         f"backbone {backbone.w.shape}")


def class_max(a: np.ndarray, start: int = 0) -> np.ndarray:
    """The maximum over the last axis from column `start` on. A chain of
    np.maximum over the few class columns gives the bits of `.max(axis=-1)`
    (a maximum does not depend on the order), in a fraction of its time."""
    m = a[..., start]
    for j in range(start + 1, a.shape[-1]):
        m = np.maximum(m, a[..., j])
    return m


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - class_max(logits)[..., None])
    e /= e.sum(axis=-1, keepdims=True)
    return e


def cls_loss(logits: np.ndarray, targets: np.ndarray, multiplicities=None) -> float:
    """Multiplicity-weighted mean cross-entropy."""
    targets = np.asarray(targets, dtype=np.int64)
    m = _mults(multiplicities, len(targets))
    z = logits - logits.max(axis=1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    nll = -log_p[np.arange(len(targets)), targets]
    return float((m * nll).sum() / m.sum())


def _smooth_l1(x: np.ndarray) -> np.ndarray:
    a = np.abs(x)
    return np.where(a < SMOOTH_L1_BETA, 0.5 * x * x / SMOOTH_L1_BETA,
                    a - 0.5 * SMOOTH_L1_BETA)


def _smooth_l1_grad(x: np.ndarray) -> np.ndarray:
    """x / beta clipped to [-1, 1], in place: the ramp below beta, sign(x)
    from beta on. beta is 1, so the division is left out."""
    np.maximum(x, -1.0, out=x)
    return np.minimum(x, 1.0, out=x)


def reg_loss(deltas, targets, pos_mask, multiplicities=None) -> float:
    """Multiplicity-weighted mean over positives of per-coordinate smooth L1."""
    pos_mask = np.asarray(pos_mask, dtype=bool)
    if not pos_mask.any():
        return 0.0
    m = _mults(multiplicities, len(pos_mask))[pos_mask]
    diff = np.asarray(deltas, dtype=np.float64)[pos_mask] - np.asarray(
        targets, dtype=np.float64)[pos_mask]
    per = _smooth_l1(diff).sum(axis=1)
    return float((m * per).sum() / m.sum())


def _mults(multiplicities, n) -> np.ndarray:
    if multiplicities is None:
        return np.ones(n, dtype=np.float64)
    return np.asarray(multiplicities, dtype=np.float64)


def total_loss(logits, deltas, targets, reg_targets, pos_mask, multiplicities) -> float:
    return cls_loss(logits, targets, multiplicities) + reg_loss(
        deltas, reg_targets, pos_mask, multiplicities)


class LossWeights(NamedTuple):
    """What `backward` reads of a batch besides the network's outputs, for
    (..., B) batch tables."""

    onehot: np.ndarray  # (..., B, C+1) 1.0 in each row's class column
    cls: np.ndarray  # (..., B, 1) 1 / sum(m) * m
    reg_mask: np.ndarray  # (..., B, 1) the positives of nonzero multiplicity
    reg_scale: np.ndarray  # (..., 1, 1) 1 / the positives' sum(m)
    reg_m: np.ndarray  # (..., B, 1) m at the positives, 0 elsewhere


def loss_weights(targets, pos_mask, multiplicities, num_outputs: int) -> LossWeights:
    """The loss weights of a batch, or of (..., B) tables of batches, whose
    logits have `num_outputs` columns."""
    targets = np.asarray(targets, dtype=np.int64)
    m = _mults(multiplicities, targets.shape)
    pos_m = m * np.asarray(pos_mask, dtype=bool)
    pos_sum = pos_m.sum(axis=-1, keepdims=True)
    return LossWeights(
        onehot=(targets[..., None] == np.arange(num_outputs)).astype(np.float64),
        cls=((1.0 / m.sum(axis=-1, keepdims=True)) * m)[..., None],
        reg_mask=(pos_m > 0)[..., None],
        # a batch without positives has no regression gradient (and no 0/0)
        reg_scale=(1.0 / np.where(pos_sum > 0, pos_sum, 1.0))[..., None],
        reg_m=pos_m[..., None],
    )


def backward(heads: HeadParams, reg_targets: np.ndarray, probs: np.ndarray,
             deltas: np.ndarray, x: np.ndarray, hidden: np.ndarray, shared: np.ndarray,
             weights: LossWeights, out: tuple[BackboneParams, HeadParams]
             ) -> tuple[BackboneParams, HeadParams]:
    """Analytic gradients of cls_loss + reg_loss, written into the arrays of
    `out` (backbone gradients, head gradients, shaped like the parameters)
    and returned as those very arrays.

    The batch comes as its rows of the forward pass of `heads`: the softmax
    `probs` of its logits, its `deltas`, features `x` and the `forward`
    layers `hidden` and `shared`. `weights` is its `loss_weights`, which
    carry its targets, positive mask and multiplicities. For H stacked heads
    the batches come as one (H, B) table (each array with trailing feature
    axes, `x` and `hidden` too), and the backbone gradients are each head's
    contribution, (H, D, hidden) and (H, hidden). Rows of multiplicity 0 pad
    shorter batches and add nothing.
    """
    backbone, head = out
    d_logits = (probs - weights.onehot) * weights.cls
    d_deltas = np.where(weights.reg_mask, _smooth_l1_grad(deltas - reg_targets)
                        * weights.reg_scale * weights.reg_m, 0.0)

    s_t = shared.swapaxes(-1, -2)
    np.matmul(s_t, d_logits, out=head.w_cls)
    np.add.reduce(d_logits, axis=-2, out=head.b_cls)
    np.matmul(s_t, d_deltas, out=head.w_reg)
    np.add.reduce(d_deltas, axis=-2, out=head.b_reg)
    d_s = d_logits @ heads.w_cls.swapaxes(-1, -2) + d_deltas @ heads.w_reg.swapaxes(-1, -2)
    d_a2 = d_s * (1.0 - shared * shared)
    np.matmul(hidden.swapaxes(-1, -2), d_a2, out=head.w_shared)
    np.add.reduce(d_a2, axis=-2, out=head.b_shared)
    d_h = d_a2 @ heads.w_shared.swapaxes(-1, -2)
    d_a1 = d_h * (1.0 - hidden * hidden)
    np.matmul(x.swapaxes(-1, -2), d_a1, out=backbone.w)
    np.add.reduce(d_a1, axis=-2, out=backbone.b)
    return out


def sgd_step(params: np.ndarray, grads: Gradients, lr: float) -> None:
    """In-place update of the parameter vector that `flatten` lays out, with
    the step's learning rate `lr` (its `lr_schedule` entry)."""
    params -= lr * grads.flat


# --- checkpoints ------------------------------------------------------------

HEAD_KEYS = ("w_shared", "b_shared", "w_cls", "b_cls", "w_reg", "b_reg")  # HeadParams order


def save_params(path, backbone: BackboneParams, heads: HeadParams, ratios) -> None:
    """Writes the parameters and each head's (pos, neg) sampling ratio."""
    n_heads = len(heads.b_reg)
    arrays = {"backbone/w": backbone.w, "backbone/b": backbone.b,
              "num_heads": np.array(n_heads), "ratios": np.asarray(ratios)}
    for i in range(n_heads):
        for name, arr in zip(HEAD_KEYS, heads.arrays()):
            arrays[f"head{i}/{name}"] = arr[i]
    write_arrays(path, arrays)


def load_params(path) -> tuple[BackboneParams, HeadParams, np.ndarray]:
    """The backbone, the stack of heads and their (pos, neg) sampling ratios."""
    data = read_arrays(path)
    if "ratios" not in data:
        raise ValueError(f"checkpoint {path} records no head ratios; retrain it")
    num_heads, ratios = data["num_heads"], data["ratios"]
    if num_heads.ndim or not np.issubdtype(num_heads.dtype, np.integer):
        raise ValueError(f"checkpoint {path}: array 'num_heads' is not an integer scalar")
    if ratios.shape != (int(num_heads), 2) or not np.issubdtype(ratios.dtype, np.integer):
        raise ValueError(f"checkpoint {path}: array 'ratios' is not a (num_heads, 2) integer array")
    backbone = BackboneParams(w=data["backbone/w"], b=data["backbone/b"])
    heads = [HeadParams(*[data[f"head{i}/{name}"] for name in HEAD_KEYS])
             for i in range(int(num_heads))]
    if len({tuple(a.shape for a in h.arrays()) for h in heads}) != 1:
        kind = "heads of different shapes" if heads else "no heads"
        raise ValueError(f"checkpoint {path} holds {kind}")
    return backbone, stack_heads(heads), ratios
