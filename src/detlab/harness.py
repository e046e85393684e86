"""Experiment orchestration: dataset generation, training runs, evaluation,
sweeps, and figure-ready CSV emission."""

from __future__ import annotations

import contextlib
import csv
import json
import platform
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .config import FEATURES, MODES, SCENE, ConfigError, ExperimentConfig
from .files import atomic_write
from .geometry import valid_boxes
from .metrics import (
    APResult,
    Detections,
    MetricsLog,
    ScoreGapStats,
    compute_ap,
    nms,
    score_gap_stats,
)
from . import __version__, net
from .prm import (BlockArrays, PrmModel, batch_generators, block_inputs, draw_batches,
                  init_model, prm_predict, prm_train_step, summarize_block)
from .seeding import derive_seed, generators
from .synthdata import (
    SCENE_STREAM,
    ProposalSet,
    SceneTable,
    generate_dataset,
    generate_proposals,
    load_dataset,
    quality_at,
    save_dataset,
)


@dataclass
class EvalResult:
    ensemble: APResult
    heads: list[APResult]
    score_stats: Optional[ScoreGapStats]
    health: str  # "ok", or what shows that training collapsed


@dataclass
class RunResult:
    config: ExperimentConfig
    metrics: MetricsLog  # the columns of metrics.csv
    gradnorm: MetricsLog  # the columns of gradnorm.csv
    eval: EvalResult
    summary: dict
    out_dir: Path


NMS_THRESHOLD, SCORE_FLOOR, MAX_DETECTIONS = 0.5, 0.05, 100  # the paper's evaluation protocol

# Proposal pools are built this many at a time: each generate_proposals call
# labels and featurizes a block of pools in one pass over their rows, and each
# block's batches, steps and statistics are a pass too. On 2 vCPUs (2 MB L2 per
# core), a desk rga+prm run took 2.7% longer at 48 and 3.4% and 5.4% less at 96
# and 128, but each 64 more pools added 8-12 MB to the peak memory.
POOL_BLOCK = 64


@contextlib.contextmanager
def _timed(stages: dict[str, float], name: str):
    """Adds the wall seconds the block takes to stages[name]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        stages[name] = stages.get(name, 0.0) + time.perf_counter() - start


def _pool_blocks(cfg: ExperimentConfig, scenes: SceneTable, qualities: Sequence[float],
                 seed_tags: Sequence[tuple], stages: dict[str, float]):
    """Yields (index, block) per POOL_BLOCK of positions: pool i of the block
    holds scene index[i]'s proposals at its quality, seeded by its tag, all
    tags in one seeding pass. The caller's loop variable and this generator
    hold a block until the next one is built, so at most two (~1.05 MB each
    at desk scale) are alive at once."""
    with _timed(stages, "proposals"):
        rngs = generators([derive_seed(cfg.seed, *tag) for tag in seed_tags])
    for start in range(0, len(scenes), POOL_BLOCK):
        index = range(start, min(start + POOL_BLOCK, len(scenes)))
        with _timed(stages, "proposals"):
            block = generate_proposals(
                scenes.take(index), qualities[index.start:index.stop], cfg.rpn, rngs,
                feat=FEATURES, num_classes=SCENE.num_classes,
                box_size_range=SCENE.box_size_range)
        yield index, block


def _block_detections(model: PrmModel, block: ProposalSet, index: range,
                      scenes: SceneTable, scores: np.ndarray, boxes: np.ndarray) -> list[tuple]:
    """Each output's (scene, class, score, box) detection columns in a block
    whose pool i is scene index[i], from its (O, N, C+1) scores and (O, N, 4)
    boxes: the candidates at or above the score floor after one NMS keyed by
    (scene, output, class), capped at MAX_DETECTIONS per (scene, output)."""
    n_out, n_rows, n_cols = scores.shape
    out, rows, classes = np.nonzero(scores[:, :, 1:] >= SCORE_FLOOR)
    classes += 1
    scene = np.repeat(index, np.diff(block.offsets))[rows]
    groups = (scene * n_out + out) * n_cols + classes  # (scene, output, class)
    at = out * n_rows + rows  # the candidate's row among all O * N (output, row) pairs
    scores, boxes = scores.take(at * n_cols + classes), boxes.reshape(-1, 4).take(at, axis=0)
    good = valid_boxes(boxes)
    if not good.all():  # only diverged training gives such candidates
        k = np.argmin(good)  # the first output with one, in its first scene
        pool = block.pool(scene[k] - index.start)
        _, deltas, _ = net.forward(model.backbone, model.heads, pool.features)
        raise FloatingPointError(
            f"training diverged: {f'head {out[k]}' if out[k] else 'the ensemble'} gives "
            f"degenerate or non-finite boxes in scene {scenes.ids[scene[k]]}, where the "
            f"largest |delta| is {np.abs(deltas).max():.3g}")
    keep = nms(boxes, scores, groups, NMS_THRESHOLD)  # groups ascending
    segment = groups[keep] // n_cols  # (scene, output)
    first = np.searchsorted(segment, segment)
    over = np.searchsorted(segment, segment, side="right") - first > MAX_DETECTIONS
    # a segment over the cap keeps its highest scores, ties in NMS order
    keep = keep[np.lexsort((np.where(over, -scores[keep], 0.0), segment))]
    keep = keep[np.arange(len(keep)) - first < MAX_DETECTIONS]
    return [(scene[kept], classes[kept], scores[kept], boxes.take(kept, axis=0))
            for kept in (keep[out[keep] == o] for o in range(n_out))]


def evaluate_model(model: PrmModel, scenes: SceneTable, cfg: ExperimentConfig,
                   stages: Optional[dict[str, float]] = None) -> EvalResult:
    """Proposals at final quality, ensemble + per-head detections, AP, and
    head score-disagreement statistics. Adds the wall seconds spent building
    proposals and evaluating to `stages`, if given."""
    stages = {} if stages is None else stages
    found, fg_scores = [], []  # per block: each output's detections and (O, n) fg scores
    for index, block in _pool_blocks(cfg, scenes, [1.0] * len(scenes),
                                     [("evalprop", i) for i in scenes.ids.tolist()], stages):
        with _timed(stages, "evaluation"):
            scores, boxes = prm_predict(model, block)  # the ensemble, then each head
            found.append(_block_detections(model, block, index, scenes, scores, boxes))
            fg_scores.append(net.class_max(scores, 1))
    with _timed(stages, "evaluation"):
        ensemble_ap, *heads_ap = [compute_ap(Detections(*map(np.concatenate, zip(*d))), scenes)
                                  for d in zip(*found)]
        fg = np.concatenate(fg_scores, axis=1)
        stats = score_gap_stats(fg[1:]) if len(model.policies) > 1 else None
        health = _health(sum(len(d[0][0]) for d in found), fg.mean(axis=1))
    return EvalResult(ensemble=ensemble_ap, heads=heads_ap, score_stats=stats, health=health)


def _health(kept: int, mean_fg: np.ndarray) -> str:
    """"ok", or each sign of a collapsed model: an ensemble that keeps no
    detection, or every output's mean foreground score below the floor."""
    causes = []
    if kept == 0:
        causes.append("the ensemble kept no detection")
    if (mean_fg < SCORE_FLOOR).all():
        causes.append(f"every output's mean foreground score is below the score floor "
                      f"{SCORE_FLOOR}: {', '.join(f'{v:.3g}' for v in mean_fg)}")
    return "collapsed: " + "; ".join(causes) if causes else "ok"


def _ap_dict(ap: APResult) -> dict:
    return {
        "ap_mean": ap.mean_ap,
        "ap50": ap.ap50,
        "ap75": ap.ap75,
        "ap_bucket_1_3": ap.per_bucket["1_3"],
        "ap_bucket_8_inf": ap.per_bucket["8_inf"],
    }


def write_eval_report(result: EvalResult, path) -> None:
    lines = ["ensemble"]
    for thr in sorted(result.ensemble.per_threshold):
        lines.append(f"  ap@{thr:.2f} = {result.ensemble.per_threshold[thr]:.4f}")
    lines.append(f"  ap_mean = {result.ensemble.mean_ap:.4f}")
    for name, value in sorted(result.ensemble.per_bucket.items()):
        lines.append(f"  ap_bucket_{name} = {value:.4f}")
    for i, head_ap in enumerate(result.heads):
        lines.append(f"head {i + 1}")
        lines.append(f"  ap_mean = {head_ap.mean_ap:.4f}")
        for name, value in sorted(head_ap.per_bucket.items()):
            lines.append(f"  ap_bucket_{name} = {value:.4f}")
    if result.score_stats is not None:
        s = result.score_stats
        lines.append("score stats")
        lines.append("  mean_fg = " + ", ".join(f"{v:.4f}" for v in s.mean_fg))
        lines.append(f"  median_gap = {s.median_gap:.4f}")
        lines.append(f"  frac_gap_gt_{s.gap_threshold} = {s.frac_large_gap:.4f}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_gradnorm_csv(log: MetricsLog, path) -> None:
    # a name of its own only so that perfbench/tracer.py can time it
    log.to_csv(path)


def write_eval_summary(result: EvalResult, cfg: ExperimentConfig, path) -> dict:
    """Writes the AP summary that `report` prints; returns it."""
    summary = _ap_dict(result.ensemble)
    summary["mode"] = cfg.mode
    summary["sampling"] = cfg.sampling_mode
    summary["heads"] = [_ap_dict(h) for h in result.heads]
    summary["health"] = result.health  # not in eval_report.txt, whose bytes are compared
    if result.score_stats is not None:
        summary["score_stats"] = {
            "mean_fg": list(result.score_stats.mean_fg),
            "median_gap": result.score_stats.median_gap,
            "frac_large_gap": result.score_stats.frac_large_gap,
        }
    _write_json(path, summary)
    return summary


def _versions() -> dict[str, str]:
    """The versions of what a run's numbers rest on: detlab, Python, numpy and
    the BLAS numpy was built with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 only prints its build config
        blas = "unknown"
    return {"detlab": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


def _write_json(path, data: dict) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _layout(ratios) -> str:
    return "+".join(f"{p}:{n}" for p, n in ratios)


def _shapes(backbone: net.BackboneParams, heads: net.HeadParams) -> str:
    per_head = [a.shape[1:] for a in heads.arrays()] * len(heads.b_reg)
    return " ".join("x".join(map(str, shape))
                    for shape in [*(a.shape for a in backbone.arrays()), *per_head])


def check_head_layout(checkpoint: Path, backbone: net.BackboneParams, heads: net.HeadParams,
                      ratios, cfg: ExperimentConfig) -> None:
    """Rejects a checkpoint whose heads were trained with other sampling
    ratios, in count or order, than the config gives, or whose parameter
    shapes differ from those of the model the config builds."""
    stored, wanted = _layout(ratios), _layout(cfg.ratios)
    if stored != wanted:
        raise ConfigError(f"checkpoint {checkpoint} has heads {stored}, the config has {wanted}")
    d, hidden, classes = FEATURES.dim(SCENE.num_classes), cfg.hidden, SCENE.num_classes
    model = init_model(d, hidden, classes, cfg.policies, cfg.seed)
    stored, wanted = _shapes(backbone, heads), _shapes(model.backbone, model.heads)
    if stored != wanted:
        raise ConfigError(f"checkpoint {checkpoint} has parameter shapes {stored}, the config "
                          f"({d} features, hidden {hidden}, {classes} classes) has {wanted}")


def _dataset(cfg: ExperimentConfig, out_dir: Path, tag: str, n: int) -> SceneTable:
    """Generate or reuse the cached scene file for this config and `SCENE_STREAM`."""
    key = derive_seed(SCENE.__repr__(), cfg.seed, tag, n, SCENE_STREAM) % 10**10
    path = out_dir / f"dataset_{tag}_{key}.npz"
    if not path.exists():
        scenes = generate_dataset(SCENE, n, cfg.seed, tag=tag)
        save_dataset(scenes, path)
        return scenes
    scenes = load_dataset(path)  # a fault raises ValueError naming the file
    if len(scenes) != n:
        raise ValueError(f"scene cache {path} holds {len(scenes)} scenes, expected {n}")
    return scenes


def train_block(model: PrmModel, block: ProposalSet, steps: Sequence[int],
                lr: list[float], lam: list[float], rngs: Iterator[np.random.Generator],
                stages: dict[str, float]) -> tuple[dict[str, list], dict[str, list]]:
    """Trains step steps[i] on pool i of `block` at learning rate lr[i] and
    annealing factor lam[i], in three phases, each timed in `stages`: draw
    every batch from the batch streams `rngs` (`prm.batch_generators`) and
    gather its model-independent inputs, run the network steps, then compute
    the block's log columns (which raises if training went non-finite)."""
    with _timed(stages, "sampling"):
        inputs = block_inputs(block, draw_batches(block, model.policies, steps, rngs),
                              steps, lr, lam, model.heads.w_cls.shape[-1])
    with _timed(stages, "network"):
        net.check_features(model.backbone, block.features)
        arrays = BlockArrays.empty(model, inputs)
        for i in range(len(steps)):
            prm_train_step(model, block, inputs, arrays, i)
    with _timed(stages, "statistics"):
        return summarize_block(inputs, arrays)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Train per the config, evaluate, and write all artifacts to cfg.out."""
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("eval_report.txt", "eval_summary.json", "metrics.csv", "gradnorm.csv",
                 "checkpoint.npz", "manifest.json", "timings.json"):  # only the caches stay
        (out_dir / name).unlink(missing_ok=True)  # so a failed run leaves no earlier results
    stages: dict[str, float] = {}  # wall seconds per stage, for timings.json
    with _timed(stages, "dataset"):
        train_scenes = _dataset(cfg, out_dir, "train", cfg.train_scenes)
        eval_scenes = _dataset(cfg, out_dir, "eval", cfg.eval_scenes)

    model = init_model(FEATURES.dim(SCENE.num_classes), cfg.hidden, SCENE.num_classes,
                       cfg.policies, cfg.seed)
    log, gradnorm = MetricsLog(), MetricsLog()
    every = range(cfg.total_steps)
    with _timed(stages, "sampling"):
        batch_rngs = batch_generators(cfg.seed, every, len(cfg.policies))
        lrs, lams = net.lr_schedule(cfg.learning_rate, cfg.total_steps, every), cfg.lambdas(every)
    for steps, block in _pool_blocks(cfg, train_scenes.take(np.remainder(every, len(train_scenes))),
                                     [quality_at(t, cfg.total_steps) for t in every],
                                     [("prop", t) for t in every], stages):
        at = slice(steps.start, steps.stop)
        metrics, norms = train_block(model, block, steps, lrs[at], lams[at], batch_rngs, stages)
        log.extend(metrics)
        gradnorm.extend(norms)

    log.to_csv(out_dir / "metrics.csv")
    write_gradnorm_csv(gradnorm, out_dir / "gradnorm.csv")
    net.save_params(out_dir / "checkpoint.npz", model.backbone, model.heads, cfg.ratios)
    result = evaluate_model(model, eval_scenes, cfg, stages)
    write_eval_report(result, out_dir / "eval_report.txt")
    summary = write_eval_summary(result, cfg, out_dir / "eval_summary.json")
    # manifest.json is byte-identical on reruns; what varies goes to timings.json
    digest = cfg.config_hash()  # `detlab eval` rewrites eval_config_hash
    _write_json(out_dir / "manifest.json", {"config_hash": digest, "eval_config_hash": digest,
                                            "seed": cfg.seed, "mode": cfg.mode,
                                            "versions": _versions()})
    _write_json(out_dir / "timings.json", {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "stages": {name: round(seconds, 6) for name, seconds in stages.items()},
    })
    return RunResult(config=cfg, metrics=log, gradnorm=gradnorm, eval=result,
                     summary=summary, out_dir=out_dir)


# --- sweeps -----------------------------------------------------------------

SWEEP_AXES = ("mode", "lambda0", "ratio-pair", "sampling-mode")
AP_KEYS = ("ap_mean", "ap50", "ap75", "ap_bucket_1_3", "ap_bucket_8_inf")


def refuse_repeats(items: Sequence, kind: str, rule: str) -> None:
    """Raises ConfigError naming the items that `items` holds more than once."""
    repeated = sorted({item for item in items if items.count(item) > 1})
    if repeated:
        raise ConfigError(f"repeated sweep {kind} {repeated}: {rule}")


def axis_cells(axis: str, values: Sequence) -> dict[str, dict]:
    """Named sweep cells along one axis: label -> config overrides. Values
    that share a label (lambda0 7 and 7.0) raise ConfigError."""
    if axis == "mode" and (unknown := [v for v in values if v not in MODES]):
        raise ConfigError(f"unknown modes {unknown}; expected some of {tuple(MODES)}")
    overrides = {"mode": MODES.get, "ratio-pair": lambda v: dict(ratios=tuple(v)),
                 "lambda0": lambda v: dict(rga_enabled=True, anneal=True, lambda0=float(v)),
                 "sampling-mode": lambda v: dict(sampling_mode=str(v))}
    if axis not in overrides:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    labels = [_layout(v) if axis == "ratio-pair" else str(v) for v in values]
    refuse_repeats(labels, "values", "each value runs once")
    return {label: overrides[axis](v) for label, v in zip(labels, values)}


def sweep(cfg: ExperimentConfig, cells: dict[str, dict], seeds: Sequence[int],
          out_dir) -> list[dict]:
    """Runs every (cell, seed) pair, a cell being a label and its config
    overrides; per cell, medians of the AP metrics over the seeds that ran.

    Every pair's config is built before the first run, so an invalid one (or
    a repeated seed, which would run into the same directory and count twice
    in the medians) raises ConfigError before any work. A run that fails is
    recorded with its error and skipped; the rest still run.
    """
    if not cells:
        raise ValueError("sweep needs at least one cell")
    if not seeds:
        raise ValueError("sweep needs at least one seed")
    refuse_repeats(seeds, "seeds", "each seed runs once per cell")
    out_dir = Path(out_dir)
    runs = {}
    for label, overrides in cells.items():
        try:
            runs[label] = [replace(cfg, **overrides, seed=seed, out=str(
                out_dir / label.replace(":", "-") / f"seed{seed}")) for seed in seeds]
        except ValueError as exc:
            raise ConfigError(f"sweep cell {label}: {exc}") from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for label, cell_cfgs in runs.items():
        summaries, errors = [], []
        for cell_cfg in cell_cfgs:
            try:
                summaries.append(run_experiment(cell_cfg).summary)
            except Exception as exc:
                errors.append(f"seed {cell_cfg.seed}: {type(exc).__name__}: {exc}")
        row = {"value": label, "n_seeds": len(seeds), "n_failed": len(errors),
               "errors": "; ".join(errors)}
        for key in AP_KEYS:
            row[key] = statistics.median(s[key] for s in summaries) if summaries else ""
        n_heads = max((len(s["heads"]) for s in summaries), default=0)
        for i in range(n_heads):
            row[f"ap_head_{i + 1}"] = statistics.median(
                s["heads"][i]["ap_mean"] for s in summaries if len(s["heads"]) > i
            )
        rows.append(row)
    heads = sorted({k for row in rows for k in row if k.startswith("ap_head_")})
    fieldnames = ["value", "n_seeds", "n_failed", "errors", *AP_KEYS, *heads]
    with atomic_write(out_dir / "sweep.csv", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return rows


def sweep_exit_code(rows: Sequence[dict]) -> int:
    """2 if any run of a sweep failed, naming each failed cell with its seeds
    and errors on stderr; 0 otherwise."""
    failed = [row for row in rows if row["n_failed"]]
    for row in failed:
        print(f"sweep cell {row['value']}: {row['n_failed']} of {row['n_seeds']} runs "
              f"failed: {row['errors']}", file=sys.stderr)
    return 2 if failed else 0
