"""Slow reference for one training step: `prm_train_step` as it was before
each head's batch was taken from its pool forward, and before a block's
batches, steps and statistics ran in separate phases.

The old step runs, per head, a forward pass on the sampled batch, a
`net.total_loss` call whose value goes into `HeadBatchStats.loss`, and a second
forward pass over the whole pool for the foreground-score statistics; then it
builds that step's statistics one head at a time. `GradNormRecord`,
`HeadBatchStats`, `_frobenius`, `_flat`, `proposal_accuracy` and
`prm_train_step` are the old implementation verbatim, except that the model
keeps its heads as one stack, each head's negatives are counted from its
batch, and the per-head gradients are stacked for the library's `apply_rga`
and `sgd_step` (which updates the model's one parameter vector), so detlab's
phased block training can be checked against it for exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from detlab import net
from detlab.net import BackboneParams, Gradients, HeadParams, TrainConfig
from detlab.prm import PrmModel, batch_seed
from detlab.rga import AnnealSchedule, anneal_factor, apply_rga
from detlab.sampler import sample
from detlab.synthdata import ProposalSet


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
    neg_count: int
    pos_acc: Optional[float]
    neg_acc: Optional[float]
    loss: float
    mean_fg_score: float  # mean max foreground probability over the whole pool


def _frobenius(params: BackboneParams) -> float:
    return float(np.sqrt(sum(float(np.sum(a * a)) for a in params.arrays())))


def _flat(params: BackboneParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in params.arrays()])


def proposal_accuracy(logits: np.ndarray, targets: np.ndarray
                      ) -> tuple[Optional[float], Optional[float]]:
    """Fractions of positives / backgrounds whose argmax matches their label.

    An empty group reports None rather than 0.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if len(targets) == 0:
        raise ValueError("empty batch")
    pred = np.argmax(logits, axis=1)  # ties break toward the lowest index
    pos = targets > 0
    neg = ~pos
    pos_acc = float((pred[pos] == targets[pos]).mean()) if pos.any() else None
    neg_acc = float((pred[neg] == 0).mean()) if neg.any() else None
    return pos_acc, neg_acc


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
    heads = [HeadParams(*(a[i] for a in model.heads.arrays()))
             for i in range(len(model.policies))]
    if head_weights is None:
        head_weights = [1.0] * len(heads)
    lam = anneal_factor(t, schedule) if schedule is not None else 1.0

    backbone_contribs: list[BackboneParams] = []
    head_grads: list[HeadParams] = []
    stats: list[HeadBatchStats] = []
    for i, (head, policy, weight) in enumerate(
        zip(heads, model.policies, head_weights)
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
            neg_count=len(batch.indices) - batch.pos_count_unique,
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

    grads = Gradients(backbone=summed, heads=net.stack_heads(head_grads))
    if schedule is not None:
        grads = apply_rga(grads, lam)
    net.sgd_step(model.params, grads, t, config)
    return record, stats, lam
