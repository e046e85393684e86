"""Experiment orchestration: dataset generation, training runs, evaluation,
sweeps, and figure-ready CSV emission."""

from __future__ import annotations

import contextlib
import csv
import json
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import MODES, ConfigError, ExperimentConfig
from .files import atomic_write
from .metrics import (
    APResult,
    Detections,
    MetricsLog,
    MetricsRow,
    ScoreGapStats,
    compute_ap,
    nms,
    score_gap_stats,
)
from .net import BackboneParams, HeadParams, TrainConfig
from .prm import (BlockArrays, GradNormRecord, PrmModel, draw_batches, init_model,
                  prm_predict, prm_train_step, summarize_block)
from .rga import AnnealSchedule
from .seeding import derive_seed
from .synthdata import (
    ProposalSet,
    Scene,
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


@dataclass
class RunResult:
    config: ExperimentConfig
    metrics: MetricsLog
    gradnorm: list[GradNormRecord]
    eval: EvalResult
    summary: dict
    out_dir: Path


# Proposal pools are built this many at a time: each generate_proposals call
# labels and featurizes a block of pools in one pass over their rows. Larger
# blocks save little more time and hold more memory.
POOL_BLOCK = 32


def _proposal_block(cfg: ExperimentConfig, scenes: Sequence[Scene], qualities: Sequence[float],
                    seed_tags: Sequence[tuple]) -> ProposalSet:
    """One block of proposal pools: each scene's at its quality, seeded by its tag."""
    return generate_proposals(
        scenes, qualities, cfg.rpn, [derive_seed(cfg.seed, *tag) for tag in seed_tags],
        feat=cfg.feat, num_classes=cfg.scene.num_classes,
        box_size_range=cfg.scene.box_size_range,
    )


@contextlib.contextmanager
def _timed(stages: dict[str, float], name: str):
    """Adds the wall seconds the block takes to stages[name]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        stages[name] = stages.get(name, 0.0) + time.perf_counter() - start


def _scene_detections(cfg: ExperimentConfig, scene_index: int,
                      outputs: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[tuple]:
    """Each output's (scene, class, score, box) detection columns in one scene,
    from its (scores, boxes): the candidates at or above the score floor after
    one NMS keyed by (output, class), capped at `max_detections` per output."""
    scores, boxes = (np.stack(column) for column in zip(*outputs))
    out, classes, rows = np.nonzero(scores[:, :, 1:].transpose(0, 2, 1) >= cfg.score_floor)
    classes += 1
    groups = out * scores.shape[2] + classes  # (output, class)
    scores, boxes = scores[out, rows, classes], boxes[out, rows]
    keep = nms(boxes, scores, groups, cfg.nms_threshold)
    found = []  # nms returns its groups ascending, so output by output
    for kept in np.split(keep, np.searchsorted(out[keep], np.arange(1, len(outputs)))):
        if len(kept) > cfg.max_detections:  # the highest scores, ties in NMS order
            kept = kept[np.argsort(-scores[kept], kind="stable")[: cfg.max_detections]]
        found.append((np.full(len(kept), scene_index), classes[kept], scores[kept], boxes[kept]))
    return found


def evaluate_model(model: PrmModel, scenes: Sequence[Scene], cfg: ExperimentConfig,
                   stages: Optional[dict[str, float]] = None) -> EvalResult:
    """Proposals at final quality, ensemble + per-head detections, AP, and
    head score-disagreement statistics. Adds the wall seconds spent building
    proposals and evaluating to `stages`, if given."""
    stages = {} if stages is None else stages
    multi = len(model.heads) > 1
    found: list[list[tuple]] = []  # per scene, per output
    head_logits: list[list[np.ndarray]] = []  # per scene, per head
    for start in range(0, len(scenes), POOL_BLOCK):
        batch = scenes[start:start + POOL_BLOCK]
        with _timed(stages, "proposals"):
            block = _proposal_block(cfg, batch, [1.0] * len(batch),
                                    [("evalprop", scene.id) for scene in batch])
        with _timed(stages, "evaluation"):
            for i in range(len(batch)):
                outputs, logits = prm_predict(model, block.pool(i))  # the ensemble, then each head
                head_logits.append(logits)
                found.append(_scene_detections(cfg, start + i, outputs))
        del block  # dropped before the next block is built
    with _timed(stages, "evaluation"):
        ensemble_ap, *heads_ap = [compute_ap(Detections(*map(np.concatenate, zip(*d))), scenes)
                                  for d in zip(*found)]
        stats = score_gap_stats([np.concatenate(h) for h in zip(*head_logits)]) if multi else None
    return EvalResult(ensemble=ensemble_ap, heads=heads_ap, score_stats=stats)


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


def write_gradnorm_csv(records: Sequence[GradNormRecord], path) -> None:
    n_heads = len(records[0].head_norms) if records else 0
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [f"norm_h{i + 1}" for i in range(n_heads)]
                        + ["norm_sum", "cosine"])
        for r in records:
            writer.writerow([r.step] + [repr(v) for v in r.head_norms]
                            + [repr(r.norm_sum),
                               "" if r.cosine is None else repr(r.cosine)])


def write_eval_summary(result: EvalResult, cfg: ExperimentConfig, path) -> dict:
    """Writes the AP summary that `report` prints; returns it."""
    summary = _ap_dict(result.ensemble)
    summary["mode"] = cfg.mode
    summary["sampling"] = cfg.sampling_mode
    summary["heads"] = [_ap_dict(h) for h in result.heads]
    if result.score_stats is not None:
        summary["score_stats"] = {
            "mean_fg": list(result.score_stats.mean_fg),
            "median_gap": result.score_stats.median_gap,
            "frac_large_gap": result.score_stats.frac_large_gap,
        }
    _write_json(path, summary)
    return summary


def _write_json(path, data: dict) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _layout(ratios) -> str:
    return "+".join(f"{p}:{n}" for p, n in ratios)


def _shapes(shapes) -> str:
    return " ".join("x".join(map(str, shape)) for shape in shapes)


def check_head_layout(checkpoint: Path, backbone: BackboneParams, heads: Sequence[HeadParams],
                      ratios, cfg: ExperimentConfig) -> None:
    """Rejects a checkpoint whose heads were trained with other sampling
    ratios, in count or order, than the config gives, or whose parameter
    shapes differ from the config's feature width, hidden size and classes."""
    stored, wanted = _layout(ratios), _layout(cfg.ratios)
    if stored != wanted:
        raise ConfigError(f"checkpoint {checkpoint} has heads {stored}, the config has {wanted}")
    d, hidden, classes = cfg.feat.dim(cfg.scene.num_classes), cfg.hidden, cfg.scene.num_classes
    head = [(hidden, hidden), (hidden,), (hidden, classes + 1), (classes + 1,), (hidden, 4), (4,)]
    stored = _shapes(a.shape for a in [*backbone.arrays(), *(a for h in heads for a in h.arrays())])
    wanted = _shapes([(d, hidden), (hidden,), *head * len(cfg.ratios)])
    if stored != wanted:
        raise ConfigError(f"checkpoint {checkpoint} has parameter shapes {stored}, the config "
                          f"({d} features, hidden {hidden}, {classes} classes) has {wanted}")


def _dataset(cfg: ExperimentConfig, out_dir: Path, tag: str, n: int) -> list[Scene]:
    """Generate or reuse the cached scene file for this config."""
    key = derive_seed(cfg.scene.__repr__(), cfg.seed, tag, n) % 10**10
    path = out_dir / f"dataset_{tag}_{key}.txt"
    if not path.exists():
        scenes = generate_dataset(cfg.scene, n, cfg.seed, tag=tag)
        save_dataset(scenes, path)
        return scenes
    try:
        scenes = load_dataset(path)
    except ValueError as exc:
        raise ValueError(f"corrupt scene cache {path}: {exc}") from exc
    if len(scenes) != n:
        raise ValueError(f"scene cache {path} holds {len(scenes)} scenes, expected {n}")
    return scenes


def train_block(model: PrmModel, pools: Sequence[ProposalSet], steps: Sequence[int],
                config: TrainConfig, schedule: Optional[AnnealSchedule], base_seed: int,
                stages: dict[str, float]) -> tuple[list[MetricsRow], list[GradNormRecord]]:
    """Trains step steps[i] on pools[i] in three phases, each timed in
    `stages`: draw every batch, run the network steps, then compute every
    step's statistics (which raises if training went non-finite)."""
    with _timed(stages, "sampling"):
        batches = draw_batches(pools, model.policies, steps, base_seed)
    with _timed(stages, "network"):
        arrays = BlockArrays.empty(model, batches)
        for i, (pool, t) in enumerate(zip(pools, steps)):
            prm_train_step(model, pool, batches[i], t, config, schedule, arrays, i)
    with _timed(stages, "statistics"):
        return summarize_block(arrays, steps)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Train per the config, evaluate, and write all artifacts to cfg.out."""
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stages: dict[str, float] = {}  # wall seconds per stage, for timings.json
    with _timed(stages, "dataset"):
        train_scenes = _dataset(cfg, out_dir, "train", cfg.train_scenes)
        eval_scenes = _dataset(cfg, out_dir, "eval", cfg.eval_scenes)

    model = init_model(
        cfg.feat.dim(cfg.scene.num_classes), cfg.hidden, cfg.scene.num_classes,
        cfg.policies, cfg.seed,
    )
    schedule = cfg.schedule
    train_cfg = cfg.train
    log = MetricsLog()
    gradnorm: list[GradNormRecord] = []
    for start in range(0, cfg.total_steps, POOL_BLOCK):
        steps = range(start, min(start + POOL_BLOCK, cfg.total_steps))
        with _timed(stages, "proposals"):
            block = _proposal_block(cfg, [train_scenes[t % len(train_scenes)] for t in steps],
                                    [quality_at(t, cfg.total_steps) for t in steps],
                                    [("prop", t) for t in steps])
            pools = [block.pool(i) for i in range(len(steps))]
        rows, records = train_block(model, pools, steps, train_cfg, schedule, cfg.seed, stages)
        for row in rows:
            log.append(row)
        gradnorm += records
        del block, pools  # dropped before the next block is built

    log.to_csv(out_dir / "metrics.csv")
    write_gradnorm_csv(gradnorm, out_dir / "gradnorm.csv")
    from .net import save_params

    save_params(out_dir / "checkpoint.npz", model.backbone, model.heads, cfg.ratios)
    result = evaluate_model(model, eval_scenes, cfg, stages)
    write_eval_report(result, out_dir / "eval_report.txt")
    summary = write_eval_summary(result, cfg, out_dir / "eval_summary.json")
    # manifest.json is byte-identical on reruns; what varies goes to timings.json
    _write_json(out_dir / "manifest.json",
                {"config_hash": cfg.config_hash(), "seed": cfg.seed, "mode": cfg.mode})
    _write_json(out_dir / "timings.json", {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "stages": {name: round(seconds, 6) for name, seconds in stages.items()},
    })
    return RunResult(config=cfg, metrics=log, gradnorm=gradnorm, eval=result,
                     summary=summary, out_dir=out_dir)


# --- sweeps -----------------------------------------------------------------

SWEEP_AXES = ("mode", "lambda0", "ratio-pair", "sampling-mode")
AP_KEYS = ("ap_mean", "ap50", "ap75", "ap_bucket_1_3", "ap_bucket_8_inf")


def axis_cells(axis: str, values: Sequence) -> dict[str, dict]:
    """Named sweep cells along one axis: label -> config overrides."""
    if axis == "mode":
        unknown = [v for v in values if v not in MODES]
        if unknown:
            raise ConfigError(f"unknown modes {unknown}; expected some of {tuple(MODES)}")
        return {v: MODES[v] for v in values}
    if axis == "lambda0":
        return {str(v): dict(rga_enabled=True, anneal=True, lambda0=float(v))
                for v in values}
    if axis == "ratio-pair":
        return {_layout(v): dict(ratios=tuple(v)) for v in values}
    if axis == "sampling-mode":
        return {str(v): dict(sampling_mode=str(v)) for v in values}
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def sweep(cfg: ExperimentConfig, cells: dict[str, dict], seeds: Sequence[int],
          out_dir) -> list[dict]:
    """Runs every (cell, seed) pair, a cell being a label and its config
    overrides; per cell, medians of the AP metrics over the seeds that ran.

    A failing run is recorded with its error and skipped; the rest still run.
    """
    if not cells:
        raise ValueError("sweep needs at least one cell")
    if not seeds:
        raise ValueError("sweep needs at least one seed")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for label, overrides in cells.items():
        summaries, errors = [], []
        for seed in seeds:
            cell_dir = out_dir / label.replace(":", "-") / f"seed{seed}"
            try:
                cell_cfg = replace(cfg, **overrides, seed=seed, out=str(cell_dir))
                summaries.append(run_experiment(cell_cfg).summary)
            except Exception as exc:
                errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
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
