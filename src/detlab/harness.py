"""Experiment orchestration: dataset generation, training runs, evaluation,
sweeps, and figure-ready CSV emission."""

from __future__ import annotations

import csv
import json
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import MODES, ConfigError, ExperimentConfig
from .geometry import Box
from .metrics import (
    APResult,
    Detection,
    MetricsLog,
    MetricsRow,
    ScoreGapStats,
    compute_ap,
    nms,
    score_gap_stats,
)
from .net import softmax
from .prm import GradNormRecord, PrmModel, init_model, prm_predict, prm_train_step
from .rga import AnnealSchedule
from .seeding import derive_seed
from .synthdata import (
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


def _scene_proposals(cfg: ExperimentConfig, scene: Scene, q: float, seed_tag) -> "ProposalSet":
    return generate_proposals(
        scene, q, cfg.rpn, derive_seed(cfg.seed, *seed_tag),
        feat=cfg.feat, num_classes=cfg.scene.num_classes,
        box_size_range=cfg.scene.box_size_range,
    )


def _detections_for(cfg: ExperimentConfig, scene: Scene, scores: np.ndarray,
                    boxes: np.ndarray) -> list[Detection]:
    dets = []
    for c in range(1, cfg.scene.num_classes + 1):
        keep = scores[:, c] >= cfg.score_floor
        for i in np.flatnonzero(keep):
            dets.append(Detection(scene_id=scene.id, box=Box.from_array(boxes[i]),
                                  class_id=c, score=float(scores[i, c])))
    dets = nms(dets, cfg.nms_threshold)
    if len(dets) > cfg.max_detections:
        dets = sorted(dets, key=lambda d: -d.score)[: cfg.max_detections]
    return dets


def evaluate_model(model: PrmModel, scenes: Sequence[Scene],
                   cfg: ExperimentConfig) -> EvalResult:
    """Proposals at final quality, ensemble + per-head detections, AP, and
    head score-disagreement statistics."""
    ens_dets: list[Detection] = []
    head_dets: list[list[Detection]] = [[] for _ in model.heads]
    all_head_logits: list[list[np.ndarray]] = [[] for _ in model.heads]
    from .geometry import decode_deltas_array

    for scene in scenes:
        pool = _scene_proposals(cfg, scene, 1.0, ("evalprop", scene.id))
        pred = prm_predict(model, pool)
        ens_dets.extend(_detections_for(cfg, scene, pred.scores, pred.boxes))
        for i, (logits, deltas) in enumerate(zip(pred.head_logits, pred.head_deltas)):
            all_head_logits[i].append(logits)
            if len(model.heads) > 1:
                scores_i = softmax(logits)
                boxes_i = decode_deltas_array(pool.boxes, deltas)
                head_dets[i].extend(_detections_for(cfg, scene, scores_i, boxes_i))
    ensemble_ap = compute_ap(ens_dets, scenes)
    heads_ap = (
        [compute_ap(d, scenes) for d in head_dets] if len(model.heads) > 1 else []
    )
    stats = None
    if len(model.heads) >= 2:
        stats = score_gap_stats([np.concatenate(lgs) for lgs in all_head_logits])
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
    Path(path).write_text("\n".join(lines) + "\n")


def write_gradnorm_csv(records: Sequence[GradNormRecord], path) -> None:
    n_heads = len(records[0].head_norms) if records else 0
    with open(path, "w", newline="") as fh:
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
    Path(path).write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary


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


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Train per the config, evaluate, and write all artifacts to cfg.out."""
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_scenes = _dataset(cfg, out_dir, "train", cfg.train_scenes)
    eval_scenes = _dataset(cfg, out_dir, "eval", cfg.eval_scenes)

    model = init_model(
        cfg.feat.dim(cfg.scene.num_classes), cfg.hidden, cfg.scene.num_classes,
        cfg.policies, cfg.seed,
    )
    schedule = (
        AnnealSchedule(cfg.lambda0, cfg.total_steps, constant=not cfg.anneal)
        if cfg.rga_enabled else None
    )
    train_cfg = cfg.train
    log = MetricsLog()
    gradnorm: list[GradNormRecord] = []
    for t in range(cfg.total_steps):
        scene = train_scenes[t % len(train_scenes)]
        q = quality_at(t, cfg.total_steps)
        pool = _scene_proposals(cfg, scene, q, ("prop", t))
        record, stats, lam = prm_train_step(
            model, pool, t, train_cfg, schedule, cfg.seed
        )
        head0 = stats[0]
        log.append(MetricsRow(
            step=t,
            pos_count_unique=head0.pos_count_unique,
            pos_count_effective=head0.pos_count_effective,
            pos_acc=head0.pos_acc,
            neg_acc=head0.neg_acc,
            lam=lam,
            fg_scores=tuple(s.mean_fg_score for s in stats),
        ))
        gradnorm.append(record)

    log.to_csv(out_dir / "metrics.csv")
    write_gradnorm_csv(gradnorm, out_dir / "gradnorm.csv")
    from .net import save_params

    save_params(out_dir / "checkpoint.npz", model.backbone, model.heads)
    result = evaluate_model(model, eval_scenes, cfg)
    write_eval_report(result, out_dir / "eval_report.txt")
    summary = write_eval_summary(result, cfg, out_dir / "eval_summary.json")
    manifest = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "mode": cfg.mode,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
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
        return {"+".join(f"{p}:{n}" for p, n in v): dict(ratios=tuple(v))
                for v in values}
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
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return rows
