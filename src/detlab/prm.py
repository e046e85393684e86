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
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import net
from .geometry import decode_deltas_array
from .metrics import proposal_accuracy
from .net import BackboneParams, Gradients, HeadParams
from .rga import apply_rga
from .sampler import SamplingPolicy, sample
from .seeding import derive_seed, generators
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


def batch_generators(base_seed: int, steps: Sequence[int], n_heads: int
                     ) -> Iterator[np.random.Generator]:
    """The batch streams of `steps`, step by step and head by head, from one
    seeding pass: the order in which `draw_batches` takes them."""
    return generators([batch_seed(base_seed, t, i) for t in steps for i in range(n_heads)])


def draw_batches(block: ProposalSet, policies: Sequence[SamplingPolicy],
                 steps: Sequence[int], rngs: Iterator[np.random.Generator]
                 ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The batches of step steps[i] from pool i of `block`, each drawn with
    the next generator of `rngs` (`batch_generators`): (S, H, W) tables of
    pool rows and of their multiplicities, padded with multiplicity-0 rows
    past each batch up to the block's longest, and each step's width, its
    longest batch (hard sampling draws shorter ones). A batch depends on its
    pool's labels, policy and stream, never on the model."""
    offsets = block.offsets.tolist()
    # zip takes a policy before a generator, so it stops without taking one
    drawn = [[sample(block.classes[lo:hi], policy, rng) for policy, rng in zip(policies, rngs)]
             for lo, hi, _ in zip(offsets[:-1], offsets[1:], steps, strict=True)]
    lengths = np.array([[len(b.indices) for b in batches] for batches in drawn])
    if lengths.shape != (len(steps), len(policies)):
        raise ValueError(f"{lengths.size} batch streams for {len(steps)} steps of "
                         f"{len(policies)} heads")
    filled = np.arange(lengths.max()) < lengths[..., None]  # (S, H, W), in batch order
    rows, mults = np.zeros(filled.shape, dtype=np.int64), np.zeros(filled.shape)
    rows[filled] = np.concatenate([b.indices for batches in drawn for b in batches])
    mults[filled] = np.concatenate([b.multiplicities for batches in drawn for b in batches])
    widths = lengths.max(axis=1).tolist()
    return rows, mults, widths


class StepBatch(NamedTuple):
    """One step's batches, each head's cut to the step's width: views of the
    block's (S, H, W) tables."""

    rows: np.ndarray  # (H, w) pool rows
    at: np.ndarray  # (H, w) the same rows in the pool's stacked (H * P, ·) forward rows
    features: np.ndarray  # (H, w, D)
    reg_targets: np.ndarray  # (H, w, 4)
    weights: net.LossWeights  # of (H, w) tables


@dataclass
class BlockInputs:
    """What the training steps of a block take that does not depend on the
    model: step i is step number steps[i] on pool i, at rows
    offsets[i]:offsets[i + 1] of the block, with batches[i], learning rate
    lr[i] and annealing factor lam[i]. `rows`, `targets` and `mults` are
    the (S, H, W) batch tables of `draw_batches` that the statistics read."""
    steps: Sequence[int]
    offsets: list[int]
    batches: list[StepBatch]
    rows: np.ndarray  # (S, H, W) pool rows
    targets: np.ndarray  # (S, H, W)
    mults: np.ndarray  # (S, H, W)
    lr: list[float]
    lam: list[float]


def block_inputs(block: ProposalSet, batches: tuple[np.ndarray, np.ndarray, list[int]],
                 steps: Sequence[int], lr: list[float], lam: list[float],
                 num_outputs: int) -> BlockInputs:
    """Gathers the block's batches (`draw_batches` of `block` and `steps`)
    with their loss weights, each for the whole block at once, beside the
    steps' learning rates `lr` and annealing factors `lam`."""
    rows, mults, widths = batches
    starts, sizes = block.offsets[:-1, None, None], np.diff(block.offsets)[:, None, None]
    in_block = starts + rows
    targets = block.classes[in_block]
    tables = (rows, np.arange(rows.shape[1])[:, None] * sizes + rows,
              block.features.take(in_block, axis=0), block.reg_targets.take(in_block, axis=0),
              *net.loss_weights(targets, targets > 0, mults, num_outputs))
    step_batches = []
    for w, *step in zip(widths, *tables, strict=True):
        if w < rows.shape[-1]:  # a hard batch shorter than the block's widest
            step = [a[:, :w] for a in step]
        step_batches.append(StepBatch(*step[:4], net.LossWeights(*step[4:])))
    return BlockInputs(steps, block.offsets.tolist(), step_batches, rows, targets, mults, lr, lam)


@dataclass
class BlockArrays:
    """What the training steps of a block write, step i at index i or at its
    pool's rows; the gradient vectors are the current step's, reused by
    every step."""
    grad_w: np.ndarray  # (S, H, D, hidden) each head's backbone-gradient contribution
    grad_b: np.ndarray  # (S, H, hidden)
    logits: np.ndarray  # (R, C+1) head 0's logits at each of the block's R pool rows
    probs: np.ndarray  # (H, R, C+1) each head's class probabilities at the pool rows
    grads: Gradients  # the summed backbone and the head gradients, before annealing
    scaled: Gradients  # the annealed gradients
    out: list[tuple[BackboneParams, HeadParams]]  # step i's `backward` output arrays

    @classmethod
    def empty(cls, model: PrmModel, inputs: BlockInputs):
        (n, heads, _), (d, hidden) = inputs.rows.shape, model.backbone.w.shape
        grads, scaled = (Gradients(*net.views(flat, model.backbone, model.heads), flat)
                         for flat in (np.empty(model.params.size), np.empty(model.params.size)))
        grad_w, grad_b = np.empty((n, heads, d, hidden)), np.empty((n, heads, hidden))
        rows, outputs = inputs.offsets[-1], model.heads.w_cls.shape[-1]
        return cls(grad_w, grad_b, np.empty((rows, outputs)), np.empty((heads, rows, outputs)),
                   grads, scaled,
                   [(BackboneParams(w, b), grads.heads) for w, b in zip(grad_w, grad_b)])


def prm_train_step(model: PrmModel, block: ProposalSet, inputs: BlockInputs,
                   out: BlockArrays, i: int) -> None:
    """One joint optimization step over all heads on pool i of `block` and
    step i of `inputs`; updates the model in place and keeps the step's raw
    arrays in `out`.

    Per-head backbone contributions are kept before summation. Head
    gradients are magnified by the step's annealing factor (1 when annealing
    is off) after backward and before the optimizer step, so backbone
    gradients flowing from the heads stay unscaled.
    """
    lo, hi = inputs.offsets[i], inputs.offsets[i + 1]
    rows, at, features, reg_targets, weights = inputs.batches[i]

    # One forward over the pool serves every head, the pool statistics and
    # the batches (each row's outputs do not depend on the other rows), and
    # one softmax serves both the foreground scores and the gradient.
    logits, deltas, (hidden, shared) = net.forward(model.backbone, model.heads,
                                                   block.features[lo:hi])
    probs = net.softmax(logits)
    out.logits[lo:hi] = logits[0]
    out.probs[:, lo:hi] = probs
    # each head's batch rows, `at` indexing the (H * P, ·) stack of its pool rows
    contribution, _ = net.backward(
        model.heads, reg_targets, probs.reshape(-1, probs.shape[-1]).take(at, axis=0),
        deltas.reshape(-1, deltas.shape[-1]).take(at, axis=0), features,
        hidden.take(rows, axis=0), shared.reshape(-1, shared.shape[-1]).take(at, axis=0),
        weights, out.out[i])
    grads = out.grads
    np.add.reduce(contribution.w, axis=0, out=grads.backbone.w)
    np.add.reduce(contribution.b, axis=0, out=grads.backbone.b)
    net.sgd_step(model.params, apply_rga(grads, inputs.lam[i], out.scaled), inputs.lr[i])


def mean_fg_scores(probs: np.ndarray, offsets: Sequence[int]) -> np.ndarray:
    """Each head's mean over each pool's rows of their largest foreground
    probability, (..., R, C+1) -> (S, ...) for pools at rows
    offsets[i]:offsets[i + 1]. One add.reduce per pool and a division give
    the bits of `.mean(axis=-1)` of that pool alone, without its wrapper
    (add.reduceat sums in another order)."""
    fg = net.class_max(probs, 1)
    sums = np.stack([np.add.reduce(fg[..., lo:hi], axis=-1)
                     for lo, hi in zip(offsets[:-1], offsets[1:])])
    return sums / np.diff(offsets).reshape((-1,) + (1,) * (sums.ndim - 1))


def _norms(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each (w, b) pair in a stack."""
    return np.sqrt(np.add.reduce(w * w, axis=(-2, -1)) + np.add.reduce(b * b, axis=-1))


def summarize_block(inputs: BlockInputs, arrays: BlockArrays
                    ) -> tuple[dict[str, list], dict[str, list]]:
    """The block's metrics.csv and gradnorm.csv columns, {header: values per
    step} in CSV order, from its inputs and raw arrays, each statistic
    computed for the whole block at once.

    Raises FloatingPointError naming the first step whose summed backbone
    gradient norm or a mean foreground score is not finite.
    """
    a, steps = arrays, inputs.steps
    fg_means = mean_fg_scores(a.probs, inputs.offsets)
    # each step's summed backbone gradient, added over the heads in the order,
    # so to the bits, of the sum its SGD step took
    head_norms = _norms(a.grad_w, a.grad_b)
    norm_sum = _norms(np.add.reduce(a.grad_w, axis=1), np.add.reduce(a.grad_b, axis=1))
    finite = np.isfinite(norm_sum) & np.isfinite(fg_means).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise FloatingPointError(
            f"training went non-finite at step {steps[i]}: backbone gradient norm "
            f"{norm_sum[i].item()!r}, mean foreground scores {tuple(fg_means[i].tolist())!r}")
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
    mults = inputs.mults[:, 0]  # head 0's batches, multiplicity 0 past each
    targets = np.where(mults > 0, inputs.targets[:, 0], -1)
    logits = a.logits.take(np.array(inputs.offsets[:-1])[:, None] + inputs.rows[:, 0], axis=0)
    pos_acc, neg_acc = proposal_accuracy(logits, targets)
    # a batch holds each pool row at most once, with its multiplicity
    positive = targets > 0
    unique, effective = positive.sum(axis=1), (mults * positive).sum(axis=1).astype(np.int64)
    metrics = {"step": list(steps), "pos_count_unique": unique.tolist(),
               "pos_count_effective": effective.tolist(), "pos_acc": pos_acc,
               "neg_acc": neg_acc, "lambda": np.array(inputs.lam).tolist()}
    metrics.update((f"fg_score_h{i + 1}", v) for i, v in enumerate(fg_means.T.tolist()))
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
    net.check_features(model.backbone, proposals.features)
    # only the outputs: the (hidden, shared) layers are freed before decoding
    logits, deltas = net.forward(model.backbone, model.heads, proposals.features)[:2]
    boxes = np.stack([decode_deltas_array(proposals.boxes, d) for d in deltas])
    if len(model.policies) > 1:
        logits = np.concatenate([ensemble_scores(logits)[None], logits])
        boxes = np.concatenate([select_regression(model.policies, boxes)[None], boxes])
    return net.softmax(logits), boxes
