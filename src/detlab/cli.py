"""Command-line entry point: gen-data, train, eval, sweep, report."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import net
from .config import MODES, ConfigError, load_config, parse_ratio
from .harness import (
    SWEEP_AXES,
    axis_cells,
    check_head_layout,
    evaluate_model,
    run_experiment,
    sweep,
    sweep_exit_code,
    write_eval_report,
    write_eval_summary,
    _dataset,
    _write_json,
)
from .prm import PrmModel
from .sampler import SAMPLING_MODES


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--mode", choices=MODES, default=None)
    parser.add_argument("--sampling", choices=SAMPLING_MODES, default=None)


def _load(args):
    return load_config(args.config, seed=args.seed, mode=args.mode,
                       sampling=args.sampling, out=args.out)


def cmd_gen_data(args) -> int:
    cfg = _load(args)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _dataset(cfg, out_dir, "train", cfg.train_scenes)
    _dataset(cfg, out_dir, "eval", cfg.eval_scenes)
    print(f"wrote datasets under {out_dir}")
    return 0


def cmd_train(args) -> int:
    cfg = _load(args)
    result = run_experiment(cfg)
    print(f"run complete: {result.out_dir}")
    print(json.dumps({k: v for k, v in result.summary.items()
                      if isinstance(v, (int, float, str))}, indent=2, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    cfg = _load(args)
    out_dir = Path(cfg.out)
    checkpoint = Path(args.checkpoint or out_dir / "checkpoint.npz")
    # a missing file raises FileNotFoundError naming it, and a damaged one ValueError
    backbone, heads, ratios = net.load_params(checkpoint)
    check_head_layout(checkpoint, backbone, heads, ratios, cfg)
    model = PrmModel(backbone=backbone, heads=heads, policies=cfg.policies)
    scenes = _dataset(cfg, out_dir, "eval", cfg.eval_scenes)
    for name in ("eval_report.txt", "eval_summary.json"):  # a failed eval leaves neither
        (out_dir / name).unlink(missing_ok=True)
    # manifest.json names this evaluation's config before its outputs exist
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    _write_json(manifest_path, {**manifest, "eval_config_hash": cfg.config_hash()})
    result = evaluate_model(model, scenes, cfg)
    write_eval_report(result, out_dir / "eval_report.txt")
    write_eval_summary(result, cfg, out_dir / "eval_summary.json")
    print((out_dir / "eval_report.txt").read_text(), end="")
    return 0


# how one --values item is read, per axis; other axes take it as text
SWEEP_VALUE_PARSERS = {
    "lambda0": float,
    "ratio-pair": lambda part: tuple(parse_ratio(r) for r in part.split("+")),
}


def parse_list(flag: str, raw: str, parse) -> list:
    """The comma-separated items of a flag, each read by `parse`; an unreadable
    item raises ConfigError naming the flag and its text."""
    try:
        return [parse(p.strip()) for p in raw.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {flag} {raw!r}: {exc}") from None


def cmd_sweep(args) -> int:
    cfg = _load(args)
    values = parse_list("--values", args.values, SWEEP_VALUE_PARSERS.get(args.axis, str))
    if not values:
        raise ConfigError("sweep needs a non-empty --values list")
    seeds = parse_list("--seeds", args.seeds, int)
    if not seeds:
        raise ConfigError("sweep needs a non-empty --seeds list")
    rows = sweep(cfg, axis_cells(args.axis, values), seeds, args.out or cfg.out)
    for row in rows:
        print(row)
    return sweep_exit_code(rows)


def cmd_report(args) -> int:
    cfg = _load(args)
    out_dir = Path(cfg.out)
    summary_path = out_dir / "eval_summary.json"
    if not summary_path.exists():
        raise FileNotFoundError(f"no run artifacts at {out_dir}")
    wanted = f"mode {cfg.mode}, seed {cfg.seed}, config hash {cfg.config_hash()}"
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"{out_dir} has no manifest.json to show that its results are of the "
                          f"config's run ({wanted})")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("config_hash") != cfg.config_hash():
        raise ConfigError(f"{out_dir} holds the run of mode {manifest.get('mode')}, seed "
                          f"{manifest.get('seed')}, config hash {manifest.get('config_hash')}; "
                          f"the config has {wanted}")
    if manifest.get("eval_config_hash") != cfg.config_hash():
        raise ConfigError(f"{out_dir} holds an evaluation under config hash "
                          f"{manifest.get('eval_config_hash')}; the config has {wanted}")
    print(summary_path.read_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="detlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and cache synthetic datasets")
    _add_common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train, evaluate, and write run artifacts")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid sweep over one axis, median over seeds")
    _add_common(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True,
                   help="comma-separated; modes like baseline,rga+prm; ratio pairs like 1:1+1:9")
    p.add_argument("--seeds", required=True, help="comma-separated integers")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="print the evaluation summary of a run")
    _add_common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
