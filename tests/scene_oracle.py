"""Slow reference for scene generation, and the tests' one way to build a
`SceneTable` from per-scene arrays and to read it back scene by scene.

`generate_scene` is the per-scene generator that detlab used before scenes
became one table, kept unchanged but for returning a `Scene` record, so that
`synthdata.generate_scenes` can be checked against it for exact equality.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from detlab.synthdata import SceneConfig, SceneTable


class Scene(NamedTuple):
    """One scene, as the per-object references and checks read it."""

    id: int
    extent: tuple[float, float]
    gt_boxes: np.ndarray  # (K, 4) corner boxes
    gt_classes: np.ndarray  # (K,) class ids


def scene_table(scenes: Sequence[tuple], ids: Optional[Sequence[int]] = None,
                extent: tuple[float, float] = (100.0, 100.0)) -> SceneTable:
    """The table of `scenes`, each a (boxes, classes) pair of array-likes, with
    ids `ids` (positions by default) and one extent."""
    boxes = [np.asarray(b, dtype=np.float64).reshape(-1, 4) for b, _ in scenes]
    classes = [np.asarray(c, dtype=np.int64) for _, c in scenes]
    return SceneTable(range(len(scenes)) if ids is None else ids, [extent] * len(scenes),
                      np.cumsum([0] + [len(b) for b in boxes]),
                      np.concatenate(boxes + [np.zeros((0, 4))]),
                      np.concatenate(classes + [np.zeros(0, dtype=np.int64)]))


def scenes_of(table: SceneTable) -> list[Scene]:
    """Each scene of `table`, its arrays as views of the table's."""
    return [Scene(int(table.ids[i]), tuple(table.extents[i].tolist()),
                  table.boxes[table.offsets[i]:table.offsets[i + 1]],
                  table.classes[table.offsets[i]:table.offsets[i + 1]])
            for i in range(len(table))]


def generate_scene(config: SceneConfig, rng_seed: int) -> Scene:
    """Draw a scene whose instance count follows the configured mixture."""
    rng = np.random.default_rng(rng_seed)
    counts = sorted(config.gt_count_weights)
    weights = np.array([config.gt_count_weights[c] for c in counts])
    count = int(rng.choice(counts, p=weights / weights.sum()))
    lo, hi = config.box_size_range
    w_ext, h_ext = config.extent
    boxes, classes = [], []
    for _ in range(count):
        bw = rng.uniform(lo, min(hi, w_ext))
        bh = rng.uniform(lo, min(hi, h_ext))
        x1 = rng.uniform(0.0, w_ext - bw)
        y1 = rng.uniform(0.0, h_ext - bh)
        classes.append(int(rng.integers(1, config.num_classes + 1)))
        boxes.append((x1, y1, x1 + bw, y1 + bh))
    return Scene(rng_seed & 0x7FFFFFFF, config.extent,
                 np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
                 np.asarray(classes, dtype=np.int64))
