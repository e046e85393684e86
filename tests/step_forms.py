"""The training step's arguments in the one form `prm_train_step` passes them:
`net.backward` given the batch's rows of a forward pass, their softmax,
`net.loss_weights` and arrays to write into, `apply_rga` an `out`, and
`Gradients` views of one flat vector.

Output arrays start as NaN, so an entry that a step leaves unwritten shows.
"""

import numpy as np

from detlab import net
from detlab.net import BackboneParams, Gradients, HeadParams


def flat_gradients(backbone: BackboneParams, heads: HeadParams) -> Gradients:
    """A copy of the arrays as `Gradients` on one vector laid out by
    `net.flatten`."""
    flat, flat_backbone, flat_heads = net.flatten(backbone, heads)
    return Gradients(flat_backbone, flat_heads, flat)


def unwritten_like(grads: Gradients) -> Gradients:
    """`Gradients` shaped and laid out like `grads`, every entry NaN."""
    flat = np.full_like(grads.flat, np.nan)
    return Gradients(*net.views(flat, grads.backbone, grads.heads), flat)


def backward_of(heads: HeadParams, x, outputs, targets, reg_targets, pos_mask,
                multiplicities=None) -> tuple[BackboneParams, HeadParams]:
    """`net.backward` of a batch, one head's or an (H, B) table of stacked
    heads' batches, given the `heads`, the batch's features `x` and its rows
    of `net.forward`'s `(logits, deltas, (hidden, shared))`, as the views of
    one new vector per head (per batch)."""
    logits, deltas, (hidden, shared) = outputs
    probs = net.softmax(logits)
    weights = net.loss_weights(targets, pos_mask, multiplicities, probs.shape[-1])
    lead = probs.shape[:-2]  # (H,) for stacked heads, () for one head
    backbone = BackboneParams(np.empty(x.shape[-1:] + hidden.shape[-1:]),
                              np.empty(hidden.shape[-1:]))
    head = HeadParams(*(np.empty(a.shape[len(lead):]) for a in heads.arrays()))
    size = sum(a.size for a in backbone.arrays() + head.arrays())
    out = net.views(np.full(lead + (size,), np.nan), backbone, head)
    return net.backward(heads, reg_targets, probs, deltas, x, hidden, shared, weights, out)
