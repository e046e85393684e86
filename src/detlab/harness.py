"""Experiment orchestration: dataset generation, training runs, evaluation,
sweeps, and figure-ready CSV emission."""

from __future__ import annotations

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
from .net import softmax
from .prm import (GradNormRecord, PrmModel, init_model, prm_predict, prm_train_step,
                  select_regression)
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


def _detections_for(cfg: ExperimentConfig, scene_index: int, scores: np.ndarray,
                    boxes: np.ndarray) -> Detections:
    """One scene's candidates at or above the score floor, after NMS and the
    `max_detections` cap on the highest scores."""
    classes, rows = np.nonzero(scores[:, 1:].T >= cfg.score_floor)
    classes += 1
    cands = Detections(np.full(len(rows), scene_index), classes, scores[rows, classes],
                       boxes[rows])
    keep = nms(cands.boxes, cands.scores, cands.classes, cfg.nms_threshold)
    if len(keep) > cfg.max_detections:
        keep = keep[np.argsort(-cands.scores[keep], kind="stable")[: cfg.max_detections]]
    return cands[keep]


def evaluate_model(model: PrmModel, scenes: Sequence[Scene],
                   cfg: ExperimentConfig) -> EvalResult:
    """Proposals at final quality, ensemble + per-head detections, AP, and
    head score-disagreement statistics."""
    multi = len(model.heads) > 1
    # the ensemble's detections, then each head's on its own if there are several
    found: list[list[Detections]] = [[] for _ in range(len(model.heads) + 1 if multi else 1)]
    head_logits: list[list[np.ndarray]] = []  # per scene, per head
    from .geometry import decode_deltas_array

    for index, scene in enumerate(scenes):
        pool = _scene_proposals(cfg, scene, 1.0, ("evalprop", scene.id))
        pred = prm_predict(model, pool)
        head_logits.append(pred.head_logits)
        outputs = [(pred.scores, pred.boxes)]
        if multi:  # the selected head's boxes are decoded already
            selected = select_regression(model.policies, pred.head_deltas)
            outputs += [(softmax(logits), pred.boxes if deltas is selected
                         else decode_deltas_array(pool.boxes, deltas))
                        for logits, deltas in zip(pred.head_logits, pred.head_deltas)]
        for dets, (scores, boxes) in zip(found, outputs):
            dets.append(_detections_for(cfg, index, scores, boxes))
    ensemble_ap, *heads_ap = [compute_ap(Detections.concat(d), scenes) for d in found]
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
    with atomic_write(path) as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary


def _layout(ratios) -> str:
    return "+".join(f"{p}:{n}" for p, n in ratios)


def check_head_layout(checkpoint: Path, cfg: ExperimentConfig) -> None:
    """Rejects a checkpoint whose heads were trained with other sampling
    ratios, in count or order, than the config gives."""
    with np.load(checkpoint) as data:
        if "ratios" not in data:
            raise ValueError(f"checkpoint {checkpoint} records no head ratios; retrain it")
        stored, wanted = _layout(data["ratios"]), _layout(cfg.ratios)
    if stored != wanted:
        raise ConfigError(f"checkpoint {checkpoint} has heads {stored}, the config has {wanted}")


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
    schedule = cfg.schedule
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
        fg_scores = tuple(s.mean_fg_score for s in stats)
        if not np.isfinite((record.norm_sum, *fg_scores)).all():
            raise FloatingPointError(
                f"training went non-finite at step {t}: backbone gradient norm "
                f"{record.norm_sum!r}, mean foreground scores {fg_scores!r}")
        head0 = stats[0]
        log.append(MetricsRow(
            step=t,
            pos_count_unique=head0.pos_count_unique,
            pos_count_effective=head0.pos_count_effective,
            pos_acc=head0.pos_acc,
            neg_acc=head0.neg_acc,
            lam=lam,
            fg_scores=fg_scores,
        ))
        gradnorm.append(record)

    log.to_csv(out_dir / "metrics.csv")
    write_gradnorm_csv(gradnorm, out_dir / "gradnorm.csv")
    from .net import save_params

    save_params(out_dir / "checkpoint.npz", model.backbone, model.heads,
                ratios=np.array(cfg.ratios))
    result = evaluate_model(model, eval_scenes, cfg)
    write_eval_report(result, out_dir / "eval_report.txt")
    summary = write_eval_summary(result, cfg, out_dir / "eval_summary.json")
    manifest = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "mode": cfg.mode,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    with atomic_write(out_dir / "manifest.json") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
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
