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
    backbone: BackboneParams
    heads: list[HeadParams]
    policies: list[SamplingPolicy]
    stack: HeadParams = field(init=False, repr=False)  # every head, (H, ·, ·)

    def __post_init__(self):
        if len(self.heads) < 1 or len(self.heads) != len(self.policies):
            raise ValueError("need one policy per head and at least one head")
        # The heads are copied into one stack and `heads[i]` become views of
        # it, so an in-place update of either shows in both.
        self.stack = HeadParams(*map(np.stack, zip(*(h.arrays() for h in self.heads))))
        self.heads = [HeadParams(*(a[i] for a in self.stack.arrays()))
                      for i in range(len(self.heads))]


@dataclass(frozen=True)
class GradNormRecord:
    step: int
    head_norms: tuple[float, ...]  # per-head backbone-gradient Frobenius norms
    norm_sum: float  # Frobenius norm of the summed backbone gradient
    cosine: Optional[float]  # between the first two heads' contributions


@dataclass(frozen=True)
class HeadBatchStats:
    pos_count_unique: int
    pos_count_effective: int
    pos_acc: Optional[float]
    neg_acc: Optional[float]
    mean_fg_score: float  # mean max foreground probability over the whole pool


def init_model(feature_dim: int, hidden: int, num_classes: int,
               policies: Sequence[SamplingPolicy], seed: int) -> PrmModel:
    """Head i's initialization depends only on (seed, i), so a one-head model
    and the first head of a multi-head model start identical."""
    backbone = net.init_backbone(
        feature_dim, hidden, np.random.default_rng(derive_seed(seed, "backbone"))
    )
    heads = [
        net.init_head(hidden, num_classes,
                      np.random.default_rng(derive_seed(seed, "head", i)))
        for i in range(len(policies))
    ]
    return PrmModel(backbone=backbone, heads=heads, policies=list(policies))


def _frobenius(params: BackboneParams) -> float:
    return float(np.sqrt(sum(float(np.sum(a * a)) for a in params.arrays())))


def _flat(params: BackboneParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in params.arrays()])


def batch_seed(base_seed: int, t: int, head_index: int) -> int:
    return derive_seed(base_seed, "batch", t, head_index)


def prm_train_step(
    model: PrmModel,
    pool: ProposalSet,
    t: int,
    config: TrainConfig,
    schedule: Optional[AnnealSchedule],
    base_seed: int,
) -> tuple[GradNormRecord, list[HeadBatchStats], float]:
    """One joint optimization step over all heads; updates the model in place.

    Per-head backbone contributions are recorded before summation. Head
    gradients are magnified by the annealing factor (if a schedule is given)
    after backward and before the optimizer step, so backbone gradients
    flowing from the heads stay unscaled.
    """
    lam = anneal_factor(t, schedule) if schedule is not None else 1.0

    batches = [sample(pool.classes, policy, batch_seed(base_seed, t, i))
               for i, policy in enumerate(model.policies)]
    # Every head's batch in one (H, B) table of pool rows; a batch shorter
    # than the longest (hard sampling) is padded with multiplicity-0 rows.
    rows = np.zeros((len(batches), max(len(b.indices) for b in batches)), dtype=np.int64)
    mults = np.zeros(rows.shape)
    for i, b in enumerate(batches):
        rows[i, :len(b.indices)] = b.indices
        mults[i, :len(b.indices)] = b.multiplicities

    # One forward over the pool serves every head, the pool statistics and
    # the batches (each row's outputs do not depend on the other rows), and
    # one softmax serves both the foreground scores and the gradient.
    logits, deltas, cache = net.forward(model.backbone, model.stack, pool.features)
    probs = net.softmax(logits)
    at = (np.arange(len(batches))[:, None], rows)
    targets = pool.classes[rows]
    batch = net.ForwardCache(model.stack, cache.x[rows], cache.hidden[rows],
                             cache.shared[at], logits[at], deltas[at])
    g_backbone, g_heads = net.backward(
        batch, targets, pool.reg_targets[rows], targets > 0, mults,
        config.cls_weight, config.reg_weight, probs=probs[at],
    )

    fg_scores = probs[..., 1:].max(axis=-1)
    stats: list[HeadBatchStats] = []
    for i, b in enumerate(batches):
        n = len(b.indices)
        pos_acc, neg_acc = proposal_accuracy(batch.logits[i, :n], targets[i, :n])
        stats.append(HeadBatchStats(
            pos_count_unique=b.pos_count_unique,
            pos_count_effective=b.pos_count_effective,
            pos_acc=pos_acc,
            neg_acc=neg_acc,
            mean_fg_score=float(fg_scores[i].mean()),
        ))

    backbone_contribs = [BackboneParams(w, b) for w, b in zip(g_backbone.w, g_backbone.b)]
    summed = BackboneParams(w=g_backbone.w.sum(axis=0), b=g_backbone.b.sum(axis=0))
    cosine = None
    if len(backbone_contribs) >= 2:
        v1, v2 = _flat(backbone_contribs[0]), _flat(backbone_contribs[1])
        n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
        if n1 > 0 and n2 > 0:
            cosine = float(v1 @ v2 / (n1 * n2))
    record = GradNormRecord(
        step=t,
        head_norms=tuple(_frobenius(g) for g in backbone_contribs),
        norm_sum=_frobenius(summed),
        cosine=cosine,
    )

    grads = Gradients(backbone=summed, heads=[g_heads])
    if schedule is not None:
        grads = apply_rga(grads, lam)
    net.sgd_step(model.backbone, [model.stack], grads, t, config)
    return record, stats, lam


def ensemble_scores(head_logits: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise mean of the heads' pre-softmax scores; np.stack raises
    ValueError on no heads or on mismatched shapes."""
    return np.mean(np.stack([np.asarray(lg, dtype=np.float64) for lg in head_logits]), axis=0)


def select_regression(policies: Sequence[SamplingPolicy],
                      head_outputs: Sequence[np.ndarray]) -> np.ndarray:
    """The regression output (deltas or decoded boxes) of the head with the
    largest positive sampling fraction, returned unmodified; ties break toward
    the lowest head index."""
    if len(policies) != len(head_outputs) or not policies:
        raise ValueError("need one regression output per policy")
    best = max(range(len(policies)), key=lambda i: (policies[i].pos_fraction, -i))
    return head_outputs[best]


def prm_predict(model: PrmModel, pool: ProposalSet
                ) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[np.ndarray]]:
    """The scored outputs on a pool, each (scores (N, C+1), boxes (N, 4)): the
    ensemble first (softmax of the mean logits, the selected head's boxes),
    then each head on its own if there are several; and each head's logits."""
    logits, deltas, _ = net.forward(model.backbone, model.stack, pool.features)
    head_logits = list(logits)
    head_boxes = [decode_deltas_array(pool.boxes, d) for d in deltas]
    outputs = [(net.softmax(ensemble_scores(head_logits)),
                select_regression(model.policies, head_boxes))]
    if len(model.heads) > 1:
        outputs += zip(net.softmax(logits), head_boxes)
    return outputs, head_logits
