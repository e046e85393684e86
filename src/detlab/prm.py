"""Parallel classifier/regressor heads on one shared backbone.

During training each head samples its own minibatch from the same proposal
pool under its own positive/negative policy; backbone gradient contributions
are summed (gradient ensemble) and their norms logged. At test time the heads'
pre-softmax scores are averaged (result ensemble) and the regression output of
the head with the largest positive sampling fraction is adopted as-is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import net
from .geometry import decode_deltas_array
from .metrics import foreground_scores, proposal_accuracy
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

    def __post_init__(self):
        if len(self.heads) < 1 or len(self.heads) != len(self.policies):
            raise ValueError("need one policy per head and at least one head")


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

    backbone_contribs: list[BackboneParams] = []
    head_grads: list[HeadParams] = []
    stats: list[HeadBatchStats] = []
    for i, (head, policy) in enumerate(zip(model.heads, model.policies)):
        batch = sample(pool.classes, policy, batch_seed(base_seed, t, i))
        targets = pool.classes[batch.indices]
        reg_targets = pool.reg_targets[batch.indices]
        pos_mask = targets > 0
        # One forward over the pool serves both the pool statistics and the
        # batch: each row's outputs do not depend on the other rows.
        pool_logits, pool_deltas, pool_cache = net.forward(model.backbone, head, pool.features)
        cache = net.ForwardCache(head, *(a[batch.indices] for a in (
            pool_cache.x, pool_cache.hidden, pool_cache.shared, pool_logits, pool_deltas)))
        g_backbone, g_head = net.backward(
            cache, targets, reg_targets, pos_mask, batch.multiplicities,
            config.cls_weight, config.reg_weight,
        )
        backbone_contribs.append(g_backbone)
        head_grads.append(g_head)

        pos_acc, neg_acc = proposal_accuracy(cache.logits, targets)
        stats.append(HeadBatchStats(
            pos_count_unique=batch.pos_count_unique,
            pos_count_effective=batch.pos_count_effective,
            pos_acc=pos_acc,
            neg_acc=neg_acc,
            mean_fg_score=float(foreground_scores(pool_logits).mean()),
        ))

    summed = BackboneParams(
        w=np.sum([g.w for g in backbone_contribs], axis=0),
        b=np.sum([g.b for g in backbone_contribs], axis=0),
    )
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

    grads = Gradients(backbone=summed, heads=head_grads)
    if schedule is not None:
        grads = apply_rga(grads, lam)
    net.sgd_step(model.backbone, model.heads, grads, t, config)
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
    head_logits, head_boxes = [], []
    for head in model.heads:
        logits, deltas, _ = net.forward(model.backbone, head, pool.features)
        head_logits.append(logits)
        head_boxes.append(decode_deltas_array(pool.boxes, deltas))
    outputs = [(net.softmax(ensemble_scores(head_logits)),
                select_regression(model.policies, head_boxes))]
    if len(model.heads) > 1:
        outputs += [(net.softmax(logits), boxes)
                    for logits, boxes in zip(head_logits, head_boxes)]
    return outputs, head_logits
