"""Parallel classifier/regressor heads on one shared backbone.

During training each head samples its own minibatch from the same proposal
pool under its own positive/negative policy; backbone gradient contributions
are summed (gradient ensemble) and their norms logged. At test time the heads'
pre-softmax scores are averaged (result ensemble) and the regression output of
the head with the largest positive sampling fraction is adopted as-is. The
heads are kept as one stack, so each network pass runs once for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """The model owns its parameters as one vector, `params` (laid out by
    `net.flatten`): construction copies the given arrays into it, and
    `backbone` and `heads` are then views of it."""
    backbone: BackboneParams
    heads: HeadParams  # every head, stacked along a leading axis (H, ·, ·)
    policies: list[SamplingPolicy]
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.policies or self.heads.b_reg.shape[:-1] != (len(self.policies),):
            raise ValueError("need one policy per head and at least one head")
        self.params, self.backbone, self.heads = net.flatten(self.backbone, self.heads)


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


def draw_batches(block: ProposalSet, policies: Sequence[SamplingPolicy],
                 steps: Sequence[int], base_seed: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The batches of step steps[i] from pool i of `block`: (S, H, W) tables
    of pool rows and of their multiplicities, padded with multiplicity-0
    rows past each batch up to the block's longest, and each step's width,
    its longest batch (hard sampling draws shorter ones). A batch depends on
    its pool's labels, policy, seed, step and head, never on the model."""
    drawn = [[sample(block.classes[lo:hi], policy, batch_seed(base_seed, t, i))
              for i, policy in enumerate(policies)]
             for lo, hi, t in zip(block.offsets[:-1], block.offsets[1:], steps, strict=True)]
    lengths = np.array([[len(b.indices) for b in batches] for batches in drawn])
    filled = np.arange(lengths.max()) < lengths[..., None]  # (S, H, W), in batch order
    rows, mults = np.zeros(filled.shape, dtype=np.int64), np.zeros(filled.shape)
    rows[filled] = np.concatenate([b.indices for batches in drawn for b in batches])
    mults[filled] = np.concatenate([b.multiplicities for batches in drawn for b in batches])
    widths = lengths.max(axis=1).tolist()
    return rows, mults, widths


@dataclass
class BlockInputs:
    """What the training steps of a block take that does not depend on the
    model, as (S, H, W) batch tables from `draw_batches`; step i reads the
    first widths[i] columns."""
    widths: list[int]
    rows: np.ndarray  # (S, H, W) pool rows
    at: np.ndarray  # (S, H, W) the same rows in the pool's stacked (H * P, ·) forward rows
    targets: np.ndarray  # (S, H, W)
    mults: np.ndarray  # (S, H, W)
    features: np.ndarray  # (S, H, W, D)
    reg_targets: np.ndarray  # (S, H, W, 4)
    weights: net.LossWeights  # of (S, H, W) tables
    lr: list[float]  # each step's learning rate
    lam: list[float]  # each step's annealing factor, 1.0 without a schedule


def block_inputs(block: ProposalSet, batches: tuple[np.ndarray, np.ndarray, list[int]],
                 steps: Sequence[int], config: TrainConfig,
                 schedule: Optional[AnnealSchedule], num_outputs: int) -> BlockInputs:
    """Gathers the block's batches (`draw_batches` of `block` and `steps`)
    with their loss weights, learning rates and annealing factors, each for
    the whole block at once."""
    rows, mults, widths = batches
    starts, sizes = block.offsets[:-1, None, None], np.diff(block.offsets)[:, None, None]
    in_block = starts + rows
    targets = block.classes[in_block]
    return BlockInputs(
        widths, rows, np.arange(rows.shape[1])[:, None] * sizes + rows, targets, mults,
        block.features.take(in_block, axis=0), block.reg_targets.take(in_block, axis=0),
        net.loss_weights(targets, targets > 0, mults, num_outputs, config.cls_weight,
                         config.reg_weight),
        config.lr_schedule(steps),
        [anneal_factor(t, schedule) if schedule is not None else 1.0 for t in steps])


@dataclass
class BlockArrays:
    """The raw arrays of a block of training steps, step i at index i."""
    grad_w: np.ndarray  # (S, H, D, hidden) each head's backbone-gradient contribution
    grad_b: np.ndarray  # (S, H, hidden)
    grads: Gradients  # (S, ·) the summed backbone and the head gradients, before annealing
    logits: np.ndarray  # (S, B, C+1) head 0's batch logits
    targets: np.ndarray  # (S, B) head 0's batch labels, -1 past its batch
    mults: np.ndarray  # (S, B) head 0's batch multiplicities, 0 past its batch
    fg_means: np.ndarray  # (S, H) each head's mean max foreground probability over the pool
    lam: np.ndarray  # (S,) the annealing factor
    scaled: Optional[Gradients] = None  # the current step's annealed gradients

    @classmethod
    def empty(cls, model: PrmModel, inputs: BlockInputs):
        (n, heads, _), (d, hidden) = inputs.rows.shape, model.backbone.w.shape
        grads, scaled = np.empty((n, model.params.size)), np.empty(model.params.size)
        head0 = inputs.mults[:, 0]
        return cls(np.empty((n, heads, d, hidden)), np.empty((n, heads, hidden)),
                   Gradients(*net.views(grads, model.backbone, model.heads), grads),
                   np.zeros(head0.shape + model.heads.w_cls.shape[-1:]),
                   np.where(head0 > 0, inputs.targets[:, 0], -1), head0,
                   np.empty((n, heads)), np.array(inputs.lam),
                   Gradients(*net.views(scaled, model.backbone, model.heads), scaled))


def mean_fg_scores(probs: np.ndarray) -> np.ndarray:
    """Each head's mean over the rows of their largest foreground probability,
    (..., N, C+1) -> (...,); add.reduce and a division give the bits of
    `.mean(axis=-1)` without its wrapper."""
    fg = net.class_max(probs, 1)
    return np.add.reduce(fg, axis=-1) / fg.shape[-1]


def prm_train_step(model: PrmModel, block: ProposalSet, inputs: BlockInputs, t: int,
                   config: TrainConfig, schedule: Optional[AnnealSchedule],
                   out: BlockArrays, i: int) -> None:
    """One joint optimization step over all heads on pool i of `block` and
    step i of `inputs`; updates the model in place and keeps the step's raw
    arrays at index i of `out`.

    Per-head backbone contributions are kept before summation. Head
    gradients are magnified by the annealing factor (if a schedule is given)
    after backward and before the optimizer step, so backbone gradients
    flowing from the heads stay unscaled.
    """
    width = inputs.widths[i]
    rows, at = inputs.rows[i, :, :width], inputs.at[i, :, :width]

    # One forward over the pool serves every head, the pool statistics and
    # the batches (each row's outputs do not depend on the other rows), and
    # one softmax serves both the foreground scores and the gradient.
    pool = block.features[block.offsets[i]:block.offsets[i + 1]]
    logits, deltas, cache = net.forward(model.backbone, model.heads, pool)
    probs = net.softmax(logits)
    shared, batch_logits, batch_deltas, batch_probs = (
        a.reshape(-1, a.shape[-1]).take(at, axis=0) for a in (cache.shared, logits, deltas, probs))
    batch = net.ForwardCache(model.heads, inputs.features[i, :, :width],
                             cache.hidden.take(rows, axis=0), shared, batch_logits, batch_deltas)
    grads = out.grads.at(i)
    net.backward(batch, inputs.targets[i, :, :width], inputs.reg_targets[i, :, :width], None,
                 probs=batch_probs,
                 weights=net.LossWeights(*(a[i, :, :width] for a in inputs.weights)),
                 out=(BackboneParams(out.grad_w[i], out.grad_b[i]), grads.heads))
    np.add.reduce(out.grad_w[i], axis=0, out=grads.backbone.w)
    np.add.reduce(out.grad_b[i], axis=0, out=grads.backbone.b)
    out.logits[i, :width] = batch_logits[0]
    out.fg_means[i] = mean_fg_scores(probs)

    if schedule is not None:
        grads = apply_rga(grads, inputs.lam[i], out=out.scaled)
    net.sgd_step(model.params, grads, t, config, inputs.lr[i])


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
    head_norms, norm_sum = _norms(a.grad_w, a.grad_b), _norms(*a.grads.backbone.arrays())
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
