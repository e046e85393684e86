"""Tiny differentiable detector head: shared tanh backbone, per-head tanh fc,
linear classification and class-agnostic box-regression branches, with analytic
gradients and a step-decayed SGD optimizer.

tanh (not ReLU) keeps every loss smooth so finite-difference checks are clean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    head or a stack of heads."""

    backbone: BackboneParams
    heads: HeadParams


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

    def lr_at(self, t: int) -> float:
        passed = sum(1 for f in self.decay_points
                     if t >= math.floor(f * self.total_steps))
        return self.learning_rate * self.decay_factor ** passed


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


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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
    return np.where(np.abs(x) < SMOOTH_L1_BETA, x / SMOOTH_L1_BETA, np.sign(x))


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


def backward(cache: ForwardCache, targets, reg_targets, pos_mask,
             multiplicities=None, cls_weight: float = 1.0,
             reg_weight: float = 1.0, probs=None) -> tuple[BackboneParams, HeadParams]:
    """Analytic gradients of cls_weight*cls_loss + reg_weight*reg_loss.

    Returns (backbone gradients, head gradients) shaped like the parameters.
    For H stacked heads the batches come as one (H, B) table (targets,
    multiplicities, positive mask; the cache's arrays and `reg_targets` with
    trailing feature axes), and the backbone gradients are each head's
    contribution, (H, D, hidden) and (H, hidden). Rows of multiplicity 0 pad
    shorter batches and add nothing. `probs` is the softmax of
    `cache.logits`, if the caller has taken it.
    """
    targets = np.asarray(targets, dtype=np.int64)
    pos_mask = np.asarray(pos_mask, dtype=bool)
    m = _mults(multiplicities, targets.shape)
    p = softmax(cache.logits) if probs is None else probs

    onehot = targets[..., None] == np.arange(p.shape[-1])
    d_logits = (p - onehot) * ((cls_weight / m.sum(axis=-1, keepdims=True)) * m)[..., None]

    pos_m = m * pos_mask
    pos_sum = pos_m.sum(axis=-1, keepdims=True)
    # a batch without positives has no regression gradient (and no 0/0)
    scale = reg_weight / np.where(pos_sum > 0, pos_sum, 1.0)
    diff = cache.deltas - np.asarray(reg_targets, dtype=np.float64)
    d_deltas = np.where((pos_m > 0)[..., None],
                        _smooth_l1_grad(diff) * scale[..., None] * pos_m[..., None], 0.0)

    head = cache.head
    s, h, x = cache.shared, cache.hidden, cache.x
    g_w_cls = _t(s) @ d_logits
    g_b_cls = d_logits.sum(axis=-2)
    g_w_reg = _t(s) @ d_deltas
    g_b_reg = d_deltas.sum(axis=-2)
    d_s = d_logits @ _t(head.w_cls) + d_deltas @ _t(head.w_reg)
    d_a2 = d_s * (1.0 - s * s)
    g_w_shared = _t(h) @ d_a2
    g_b_shared = d_a2.sum(axis=-2)
    d_h = d_a2 @ _t(head.w_shared)
    d_a1 = d_h * (1.0 - h * h)
    g_backbone = BackboneParams(w=_t(x) @ d_a1, b=d_a1.sum(axis=-2))
    g_head = HeadParams(g_w_shared, g_b_shared, g_w_cls, g_b_cls, g_w_reg, g_b_reg)
    return g_backbone, g_head


def _t(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix in a stack (of one matrix, `a.T`)."""
    return a.swapaxes(-1, -2)


def sgd_step(backbone: BackboneParams, heads: HeadParams, grads: Gradients,
             t: int, config: TrainConfig) -> None:
    """In-place update with the step-decayed learning rate; `heads` is one
    head or a stack of heads, as in `grads.heads`."""
    if t >= config.total_steps:
        raise ValueError(f"step {t} beyond schedule of {config.total_steps}")
    lr = config.lr_at(t)
    for param, grad in zip(backbone.arrays() + heads.arrays(),
                           grads.backbone.arrays() + grads.heads.arrays()):
        param -= lr * grad


# --- checkpoints ------------------------------------------------------------

HEAD_KEYS = ("w_shared", "b_shared", "w_cls", "b_cls", "w_reg", "b_reg")  # HeadParams order


def save_params(path, backbone: BackboneParams, heads: list[HeadParams], ratios) -> None:
    """Writes the parameters and each head's (pos, neg) sampling ratio."""
    arrays = {"backbone/w": backbone.w, "backbone/b": backbone.b,
              "num_heads": np.array(len(heads)), "ratios": np.asarray(ratios)}
    for i, head in enumerate(heads):
        for name, arr in zip(HEAD_KEYS, head.arrays()):
            arrays[f"head{i}/{name}"] = arr
    with atomic_write(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_params(path) -> tuple[BackboneParams, list[HeadParams], np.ndarray]:
    """The backbone, the heads and their (pos, neg) sampling ratios."""
    with np.load(path) as data:
        if "ratios" not in data:
            raise ValueError(f"checkpoint {path} records no head ratios; retrain it")
        backbone = BackboneParams(w=data["backbone/w"], b=data["backbone/b"])
        heads = [HeadParams(*[data[f"head{i}/{name}"] for name in HEAD_KEYS])
                 for i in range(int(data["num_heads"]))]
        return backbone, heads, data["ratios"]
