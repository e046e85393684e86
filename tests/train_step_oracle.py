"""Slow reference for one training step: `prm_train_step` as it was before
each head's batch was taken from its pool forward.

The old step runs, per head, a forward pass on the sampled batch, a
`net.total_loss` call whose value goes into `HeadBatchStats.loss`, and a second
forward pass over the whole pool for the foreground-score statistics.
`HeadBatchStats` and `prm_train_step` are the old implementation verbatim, so
`detlab.prm.prm_train_step` can be checked against it for exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from detlab import net
from detlab.metrics import proposal_accuracy
from detlab.net import BackboneParams, Gradients, HeadParams, TrainConfig
from detlab.prm import GradNormRecord, PrmModel, _flat, _frobenius, batch_seed
from detlab.rga import AnnealSchedule, anneal_factor, apply_rga
from detlab.sampler import sample
from detlab.synthdata import ProposalSet


@dataclass(frozen=True)
class HeadBatchStats:
    pos_count_unique: int
    pos_count_effective: int
    neg_count: int
    pos_acc: Optional[float]
    neg_acc: Optional[float]
    loss: float
    mean_fg_score: float  # mean max foreground probability over the whole pool


def prm_train_step(
    model: PrmModel,
    pool: ProposalSet,
    t: int,
    config: TrainConfig,
    schedule: Optional[AnnealSchedule],
    base_seed: int,
    head_weights: Optional[Sequence[float]] = None,
) -> tuple[GradNormRecord, list[HeadBatchStats], float]:
    """One joint optimization step over all heads; updates the model in place.

    Per-head backbone contributions are recorded before summation. Head
    gradients are magnified by the annealing factor (if a schedule is given)
    after backward and before the optimizer step, so backbone gradients
    flowing from the heads stay unscaled.
    """
    if head_weights is None:
        head_weights = [1.0] * len(model.heads)
    lam = anneal_factor(t, schedule) if schedule is not None else 1.0

    backbone_contribs: list[BackboneParams] = []
    head_grads: list[HeadParams] = []
    stats: list[HeadBatchStats] = []
    for i, (head, policy, weight) in enumerate(
        zip(model.heads, model.policies, head_weights)
    ):
        batch = sample(pool.classes, policy, batch_seed(base_seed, t, i))
        x = pool.features[batch.indices]
        targets = pool.classes[batch.indices]
        reg_targets = pool.reg_targets[batch.indices]
        pos_mask = targets > 0
        logits, deltas, cache = net.forward(model.backbone, head, x)
        loss = net.total_loss(logits, deltas, targets, reg_targets, pos_mask,
                              batch.multiplicities, config.cls_weight,
                              config.reg_weight)
        g_backbone, g_head = net.backward(
            cache, targets, reg_targets, pos_mask, batch.multiplicities,
            config.cls_weight, config.reg_weight,
        )
        if weight != 1.0:
            g_backbone = BackboneParams(*[weight * a for a in g_backbone.arrays()])
            g_head = HeadParams(*[weight * a for a in g_head.arrays()])
        backbone_contribs.append(g_backbone)
        head_grads.append(g_head)

        pos_acc, neg_acc = proposal_accuracy(logits, targets)
        pool_logits, _, _ = net.forward(model.backbone, head, pool.features)
        fg = net.softmax(pool_logits)[:, 1:].max(axis=1)
        stats.append(HeadBatchStats(
            pos_count_unique=batch.pos_count_unique,
            pos_count_effective=batch.pos_count_effective,
            neg_count=batch.neg_count,
            pos_acc=pos_acc,
            neg_acc=neg_acc,
            loss=loss,
            mean_fg_score=float(fg.mean()),
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
