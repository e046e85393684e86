"""Tiny differentiable detector head: shared tanh backbone, per-head tanh fc,
linear classification and class-agnostic box-regression branches, with analytic
gradients and a step-decayed SGD optimizer.

tanh (not ReLU) keeps every loss smooth so finite-difference checks are clean.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .files import atomic_write

INIT_SCALE = 0.1
SMOOTH_L1_BETA = 1.0


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
    head or a stack of heads. `flat`, if given, is the one vector whose views
    the arrays are, laid out as `flatten` lays out the parameters."""

    backbone: BackboneParams
    heads: HeadParams
    flat: Optional[np.ndarray] = None

    def vector(self) -> np.ndarray:
        """Every gradient in one vector, in the order of `flatten`."""
        if self.flat is not None:
            return self.flat
        return np.concatenate([a.ravel() for a in self.backbone.arrays() + self.heads.arrays()])

    def at(self, i: int) -> "Gradients":
        """Index i of the leading axis of every array, of a stack of gradients."""
        return Gradients(BackboneParams(*(a[i] for a in self.backbone.arrays())),
                         HeadParams(*(a[i] for a in self.heads.arrays())), self.flat[i])


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.02
    total_steps: int = 3000
    decay_points: tuple[float, ...] = (8 / 12, 11 / 12)  # fractions of total_steps
    decay_factor: float = 0.1
    cls_weight: float = 1.0
    reg_weight: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not (0.0 < self.decay_factor < 1.0):
            raise ValueError("decay factor must lie in (0, 1)")
        if not all(math.isfinite(f) for f in self.decay_points):
            raise ValueError("decay_points must be finite")
        for name in ("cls_weight", "reg_weight"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")

    def lr_at(self, t: int) -> float:
        return self.lr_schedule([t])[0]

    def lr_schedule(self, steps) -> list[float]:
        """The learning rate at each of `steps`, decayed once for every decay
        point at or before the step."""
        starts = np.sort([math.floor(f * self.total_steps) for f in self.decay_points])
        return [self.learning_rate * self.decay_factor ** passed
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


@dataclass
class ForwardCache:
    head: HeadParams
    x: np.ndarray
    hidden: np.ndarray
    shared: np.ndarray
    logits: np.ndarray
    deltas: np.ndarray


def forward(backbone: BackboneParams, heads: HeadParams, features: np.ndarray):
    """Returns (logits, deltas, cache); logits are pre-softmax scores.

    `heads` is one head, or H heads stacked along a leading axis of each
    array. The backbone runs once over the features and every head with one
    broadcast matmul per layer, so stacked heads give (H, N, C+1) logits and
    (H, N, 4) deltas, each head's slice equal to its own forward.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != backbone.w.shape[0]:
        raise ValueError(
            f"feature batch of shape {x.shape} incompatible with backbone {backbone.w.shape}"
        )
    h = np.tanh(x @ backbone.w + backbone.b)
    s = np.tanh(h @ heads.w_shared + heads.b_shared[..., None, :])
    logits = s @ heads.w_cls + heads.b_cls[..., None, :]
    deltas = s @ heads.w_reg + heads.b_reg[..., None, :]
    cache = ForwardCache(heads, x, h, s, logits, deltas)
    return logits, deltas, cache


def class_max(a: np.ndarray, start: int = 0) -> np.ndarray:
    """The maximum over the last axis from column `start` on. A chain of
    np.maximum over the few class columns gives the bits of `.max(axis=-1)`
    (a maximum does not depend on the order), in a fraction of its time."""
    columns = (a[..., j] for j in range(start, a.shape[-1]))
    return functools.reduce(np.maximum, columns)


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
    # x / beta clipped to [-1, 1]: the ramp below beta, sign(x) from beta on
    g = x / SMOOTH_L1_BETA
    np.maximum(g, -1.0, out=g)
    return np.minimum(g, 1.0, out=g)


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


def total_loss(logits, deltas, targets, reg_targets, pos_mask, multiplicities,
               cls_weight=1.0, reg_weight=1.0) -> float:
    return cls_weight * cls_loss(logits, targets, multiplicities) + reg_weight * reg_loss(
        deltas, reg_targets, pos_mask, multiplicities
    )


class LossWeights(NamedTuple):
    """What `backward` reads of a batch besides the network's outputs, for
    (..., B) batch tables."""

    onehot: np.ndarray  # (..., B, C+1) 1.0 in each row's class column
    cls: np.ndarray  # (..., B, 1) cls_weight / sum(m) * m
    reg_mask: np.ndarray  # (..., B, 1) the positives of nonzero multiplicity
    reg_scale: np.ndarray  # (..., 1, 1) reg_weight / the positives' sum(m)
    reg_m: np.ndarray  # (..., B, 1) m at the positives, 0 elsewhere


def loss_weights(targets, pos_mask, multiplicities, num_outputs: int,
                 cls_weight: float = 1.0, reg_weight: float = 1.0) -> LossWeights:
    """The loss weights of a batch, or of (..., B) tables of batches, whose
    logits have `num_outputs` columns."""
    targets = np.asarray(targets, dtype=np.int64)
    m = _mults(multiplicities, targets.shape)
    pos_m = m * np.asarray(pos_mask, dtype=bool)
    pos_sum = pos_m.sum(axis=-1, keepdims=True)
    return LossWeights(
        onehot=(targets[..., None] == np.arange(num_outputs)).astype(np.float64),
        cls=((cls_weight / m.sum(axis=-1, keepdims=True)) * m)[..., None],
        reg_mask=(pos_m > 0)[..., None],
        # a batch without positives has no regression gradient (and no 0/0)
        reg_scale=(reg_weight / np.where(pos_sum > 0, pos_sum, 1.0))[..., None],
        reg_m=pos_m[..., None],
    )


def backward(cache: ForwardCache, targets, reg_targets, pos_mask,
             multiplicities=None, cls_weight: float = 1.0, reg_weight: float = 1.0,
             probs=None, weights: Optional[LossWeights] = None,
             out: Optional[tuple[BackboneParams, HeadParams]] = None
             ) -> tuple[BackboneParams, HeadParams]:
    """Analytic gradients of cls_weight*cls_loss + reg_weight*reg_loss.

    Returns (backbone gradients, head gradients) shaped like the parameters.
    For H stacked heads the batches come as one (H, B) table (targets,
    multiplicities, positive mask; the cache's arrays and `reg_targets` with
    trailing feature axes), and the backbone gradients are each head's
    contribution, (H, D, hidden) and (H, hidden). Rows of multiplicity 0 pad
    shorter batches and add nothing. `probs` is the softmax of
    `cache.logits` and `weights` the batch's `loss_weights`, if the caller
    has taken them (the targets, mask, multiplicities and loss weights are
    then not read). Given `out`, the gradients are written into its arrays.
    """
    p = softmax(cache.logits) if probs is None else probs
    w = weights if weights is not None else loss_weights(
        targets, pos_mask, multiplicities, p.shape[-1], cls_weight, reg_weight)
    o_backbone, o_head = out if out is not None else (BackboneParams(None, None),
                                                      HeadParams(*[None] * 6))
    d_logits = (p - w.onehot) * w.cls
    diff = cache.deltas - np.asarray(reg_targets, dtype=np.float64)
    d_deltas = np.where(w.reg_mask, _smooth_l1_grad(diff) * w.reg_scale * w.reg_m, 0.0)

    head = cache.head
    s, h, x = cache.shared, cache.hidden, cache.x
    g_w_cls = np.matmul(_t(s), d_logits, out=o_head.w_cls)
    g_b_cls = np.add.reduce(d_logits, axis=-2, out=o_head.b_cls)
    g_w_reg = np.matmul(_t(s), d_deltas, out=o_head.w_reg)
    g_b_reg = np.add.reduce(d_deltas, axis=-2, out=o_head.b_reg)
    d_s = d_logits @ _t(head.w_cls) + d_deltas @ _t(head.w_reg)
    d_a2 = d_s * (1.0 - s * s)
    g_w_shared = np.matmul(_t(h), d_a2, out=o_head.w_shared)
    g_b_shared = np.add.reduce(d_a2, axis=-2, out=o_head.b_shared)
    d_h = d_a2 @ _t(head.w_shared)
    d_a1 = d_h * (1.0 - h * h)
    g_backbone = BackboneParams(w=np.matmul(_t(x), d_a1, out=o_backbone.w),
                                b=np.add.reduce(d_a1, axis=-2, out=o_backbone.b))
    g_head = HeadParams(g_w_shared, g_b_shared, g_w_cls, g_b_cls, g_w_reg, g_b_reg)
    return g_backbone, g_head


def _t(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix in a stack (of one matrix, `a.T`)."""
    return a.swapaxes(-1, -2)


def sgd_step(params: np.ndarray, grads: Gradients, t: int, config: TrainConfig,
             lr: Optional[float] = None) -> None:
    """In-place update of the parameter vector that `flatten` lays out, with
    the step-decayed learning rate; `lr` is config.lr_at(t), if the caller
    has taken it."""
    if t >= config.total_steps:
        raise ValueError(f"step {t} beyond schedule of {config.total_steps}")
    params -= (config.lr_at(t) if lr is None else lr) * grads.vector()


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
    with atomic_write(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_params(path) -> tuple[BackboneParams, HeadParams, np.ndarray]:
    """The backbone, the stack of heads and their (pos, neg) sampling ratios."""
    with np.load(path) as data:
        if "ratios" not in data:
            raise ValueError(f"checkpoint {path} records no head ratios; retrain it")
        backbone = BackboneParams(w=data["backbone/w"], b=data["backbone/b"])
        heads = [HeadParams(*[data[f"head{i}/{name}"] for name in HEAD_KEYS])
                 for i in range(int(data["num_heads"]))]
        if len({tuple(a.shape for a in h.arrays()) for h in heads}) != 1:
            kind = "heads of different shapes" if heads else "no heads"
            raise ValueError(f"checkpoint {path} holds {kind}")
        return backbone, stack_heads(heads), data["ratios"]
