"""Parallel classifier/regressor heads on one shared backbone.

During training each head samples its own minibatch from the same proposal
pool under its own positive/negative policy; backbone gradient contributions
are summed (gradient ensemble) and their norms logged. At test time the heads'
pre-softmax scores are averaged (result ensemble) and the regression output of
the head with the largest positive sampling fraction is adopted as-is. The
heads are kept as one stack, so each network pass runs once for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import net
from .geometry import decode_deltas_array
from .metrics import proposal_accuracy
from .net import BackboneParams, Gradients, HeadParams, TrainConfig
from .rga import AnnealSchedule, anneal_factor, apply_rga
from .sampler import SamplingPolicy, sample
from .seeding import derive_seed
from .synthdata import ProposalSet


@dataclass
class PrmModel:
    backbone: BackboneParams
    heads: HeadParams  # every head, stacked along a leading axis (H, ·, ·)
    policies: list[SamplingPolicy]

    def __post_init__(self):
        if not self.policies or self.heads.b_reg.shape[:-1] != (len(self.policies),):
            raise ValueError("need one policy per head and at least one head")


def init_model(feature_dim: int, hidden: int, num_classes: int,
               policies: Sequence[SamplingPolicy], seed: int) -> PrmModel:
    """Head i's initialization depends only on (seed, i), so a one-head model
    and the first head of a multi-head model start identical."""
    backbone = net.init_backbone(
        feature_dim, hidden, np.random.default_rng(derive_seed(seed, "backbone"))
    )
    heads = net.stack_heads([
        net.init_head(hidden, num_classes,
                      np.random.default_rng(derive_seed(seed, "head", i)))
        for i in range(len(policies))
    ])
    return PrmModel(backbone=backbone, heads=heads, policies=list(policies))


def batch_seed(base_seed: int, t: int, head_index: int) -> int:
    return derive_seed(base_seed, "batch", t, head_index)


def draw_batches(pools: Sequence[ProposalSet], policies: Sequence[SamplingPolicy],
                 steps: Sequence[int], base_seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The batches of step steps[i] from pools[i], every head's in one (H, B)
    table of pool rows and one of their multiplicities; a batch shorter than
    the step's longest (hard sampling) is padded with multiplicity-0 rows. A
    batch depends on its pool's labels, policy, seed, step and head, never on
    the model."""
    tables = []
    for pool, t in zip(pools, steps, strict=True):
        batches = [sample(pool.classes, policy, batch_seed(base_seed, t, i))
                   for i, policy in enumerate(policies)]
        rows = np.zeros((len(batches), max(len(b.indices) for b in batches)), dtype=np.int64)
        mults = np.zeros(rows.shape)
        for i, b in enumerate(batches):
            rows[i, :len(b.indices)] = b.indices
            mults[i, :len(b.indices)] = b.multiplicities
        tables.append((rows, mults))
    return tables


@dataclass
class BlockArrays:
    """The raw arrays of a block of training steps, step i at index i."""
    grad_w: np.ndarray  # (S, H, D, hidden) each head's backbone-gradient contribution
    grad_b: np.ndarray  # (S, H, hidden)
    sum_w: np.ndarray  # (S, D, hidden) the summed backbone gradient
    sum_b: np.ndarray  # (S, hidden)
    logits: np.ndarray  # (S, B, C+1) head 0's batch logits
    targets: np.ndarray  # (S, B) head 0's batch labels, -1 past its batch
    mults: np.ndarray  # (S, B) head 0's batch multiplicities, 0 past its batch
    fg_means: np.ndarray  # (S, H) each head's mean max foreground probability over the pool
    lam: np.ndarray  # (S,) the annealing factor

    @classmethod
    def empty(cls, model: PrmModel, batches: Sequence[tuple[np.ndarray, np.ndarray]]):
        (n, heads), (d, hidden) = (len(batches), len(model.policies)), model.backbone.w.shape
        width = max(rows.shape[1] for rows, _ in batches)
        return cls(np.empty((n, heads, d, hidden)), np.empty((n, heads, hidden)),
                   np.empty((n, d, hidden)), np.empty((n, hidden)),
                   np.zeros((n, width, model.heads.w_cls.shape[-1])), np.full((n, width), -1),
                   np.zeros((n, width)), np.empty((n, heads)), np.empty(n))


def prm_train_step(model: PrmModel, pool: ProposalSet, batches: tuple[np.ndarray, np.ndarray],
                   t: int, config: TrainConfig, schedule: Optional[AnnealSchedule],
                   out: BlockArrays, i: int) -> None:
    """One joint optimization step over all heads on their (rows,
    multiplicities) batch tables; updates the model in place and keeps the
    step's raw arrays at index i of `out`.

    Per-head backbone contributions are kept before summation. Head
    gradients are magnified by the annealing factor (if a schedule is given)
    after backward and before the optimizer step, so backbone gradients
    flowing from the heads stay unscaled.
    """
    lam = anneal_factor(t, schedule) if schedule is not None else 1.0
    rows, mults = batches

    # One forward over the pool serves every head, the pool statistics and
    # the batches (each row's outputs do not depend on the other rows), and
    # one softmax serves both the foreground scores and the gradient.
    logits, deltas, cache = net.forward(model.backbone, model.heads, pool.features)
    probs = net.softmax(logits)
    at = np.arange(len(rows))[:, None] * len(pool.classes) + rows  # into (H * P, ·) rows
    targets = pool.classes[rows]
    shared, batch_logits, batch_deltas, batch_probs = (
        a.reshape(-1, a.shape[-1]).take(at, axis=0) for a in (cache.shared, logits, deltas, probs))
    batch = net.ForwardCache(model.heads, cache.x.take(rows, axis=0),
                             cache.hidden.take(rows, axis=0), shared, batch_logits, batch_deltas)
    g_backbone, g_heads = net.backward(
        batch, targets, pool.reg_targets.take(rows, axis=0), targets > 0, mults,
        config.cls_weight, config.reg_weight, probs=batch_probs,
    )
    summed = BackboneParams(w=g_backbone.w.sum(axis=0), b=g_backbone.b.sum(axis=0))

    width = rows.shape[1]
    out.grad_w[i], out.grad_b[i] = g_backbone.w, g_backbone.b
    out.sum_w[i], out.sum_b[i] = summed.w, summed.b
    out.logits[i, :width] = batch.logits[0]
    out.targets[i, :width] = np.where(mults[0] > 0, targets[0], -1)
    out.mults[i, :width] = mults[0]
    out.fg_means[i] = probs[..., 1:].max(axis=-1).mean(axis=-1)
    out.lam[i] = lam

    grads = Gradients(backbone=summed, heads=g_heads)
    if schedule is not None:
        grads = apply_rga(grads, lam)
    net.sgd_step(model.backbone, model.heads, grads, t, config)


def _norms(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each (w, b) pair in a stack."""
    return np.sqrt(np.sum(w * w, axis=(-2, -1)) + np.sum(b * b, axis=-1))


def summarize_block(arrays: BlockArrays, steps: Sequence[int]
                    ) -> tuple[dict[str, list], dict[str, list]]:
    """The block's metrics.csv and gradnorm.csv columns, {header: values per
    step} in CSV order, from its raw arrays, each statistic computed for the
    whole block at once.

    Raises FloatingPointError naming the first step whose summed backbone
    gradient norm or a mean foreground score is not finite.
    """
    a = arrays
    head_norms, norm_sum = _norms(a.grad_w, a.grad_b), _norms(a.sum_w, a.sum_b)
    finite = np.isfinite(norm_sum) & np.isfinite(a.fg_means).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise FloatingPointError(
            f"training went non-finite at step {steps[i]}: backbone gradient norm "
            f"{norm_sum[i].item()!r}, mean foreground scores {tuple(a.fg_means[i].tolist())!r}")
    cosines = [None] * len(steps)  # between the first two heads' contributions
    if a.grad_w.shape[1] >= 2:
        flat = np.concatenate([a.grad_w[:, :2].reshape(len(steps), 2, -1), a.grad_b[:, :2]],
                              axis=-1)
        # a row-by-column np.matmul is the dot product of `@` and np.linalg.norm,
        # bit for bit, which einsum and sum are not
        n1, n2 = np.sqrt(np.matmul(flat[..., None, :], flat[..., None])[..., 0, 0]).T
        dot = np.matmul(flat[:, :1], flat[:, 1, :, None])[:, 0, 0]
        valid = (n1 > 0) & (n2 > 0)
        cosine = np.divide(dot, n1 * n2, out=np.zeros_like(dot), where=valid)
        cosines = np.where(valid, cosine, None).tolist()
    pos_acc, neg_acc = proposal_accuracy(a.logits, a.targets)
    # a batch holds each pool row at most once, with its multiplicity
    positive = a.targets > 0
    unique, effective = positive.sum(axis=1), (a.mults * positive).sum(axis=1).astype(np.int64)
    metrics = {"step": list(steps), "pos_count_unique": unique.tolist(),
               "pos_count_effective": effective.tolist(), "pos_acc": pos_acc,
               "neg_acc": neg_acc, "lambda": a.lam.tolist()}
    metrics.update((f"fg_score_h{i + 1}", v) for i, v in enumerate(a.fg_means.T.tolist()))
    gradnorm = {"step": list(steps)}
    gradnorm.update((f"norm_h{i + 1}", v) for i, v in enumerate(head_norms.T.tolist()))
    gradnorm.update(norm_sum=norm_sum.tolist(), cosine=cosines)
    return metrics, gradnorm


def ensemble_scores(head_logits) -> np.ndarray:
    """Elementwise mean of the heads' pre-softmax scores, given as one
    (H, N, C+1) array or as each head's (N, C+1) array; ValueError on no
    heads or on mismatched shapes."""
    logits = np.asarray(head_logits, dtype=np.float64)  # raises on mismatched shapes
    if len(logits) == 0:
        raise ValueError("need the scores of at least one head")
    return np.mean(logits, axis=0)


def select_regression(policies: Sequence[SamplingPolicy],
                      head_outputs: Sequence[np.ndarray]) -> np.ndarray:
    """The regression output (deltas or decoded boxes) of the head with the
    largest positive sampling fraction, returned unmodified; ties break toward
    the lowest head index."""
    if len(policies) != len(head_outputs) or not policies:
        raise ValueError("need one regression output per policy")
    best = max(range(len(policies)), key=lambda i: (policies[i].pos_fraction, -i))
    return head_outputs[best]


def prm_predict(model: PrmModel, proposals: ProposalSet) -> tuple[np.ndarray, np.ndarray]:
    """Each row's scored outputs on a pool or a block of pools, stacked as
    (O, N, C+1) scores and (O, N, 4) boxes: the ensemble first (softmax of the
    mean logits, the selected head's boxes), then each head if there are several."""
    logits, deltas, _ = net.forward(model.backbone, model.heads, proposals.features)
    boxes = np.stack([decode_deltas_array(proposals.boxes, d) for d in deltas])
    if len(model.policies) > 1:
        logits = np.concatenate([ensemble_scores(logits)[None], logits])
        boxes = np.concatenate([select_regression(model.policies, boxes)[None], boxes])
    return net.softmax(logits), boxes
