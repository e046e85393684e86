"""Experiment configuration: a flat sectioned key = value text format with
strict validation, mode presets as defaults, and a content hash for manifests."""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .net import TrainConfig
from .sampler import SamplingPolicy
from .synthdata import FeatureModel, RpnQualityModel, SceneConfig

SAMPLING_MODES = ("soft", "hard")
RATIO_RE = re.compile(r"^(\d+):(\d+)$")

# The four variants under study differ in two choices only: whether head
# gradients are annealed, and one head or parallel heads at 1:1 and 1:9. A
# config's `mode` is read back from these two choices, never stored.
MODES = {
    "baseline": dict(rga_enabled=False, ratios=((1, 3),)),
    "rga": dict(rga_enabled=True, ratios=((1, 3),)),
    "prm": dict(rga_enabled=False, ratios=((1, 1), (1, 9))),
    "rga+prm": dict(rga_enabled=True, ratios=((1, 1), (1, 9))),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    scene: SceneConfig
    rpn: RpnQualityModel
    feat: FeatureModel
    sampling_mode: str
    ratios: tuple[tuple[int, int], ...]
    batch_size: int
    rga_enabled: bool
    lambda0: float
    anneal: bool
    learning_rate: float
    total_steps: int
    decay_points: tuple[float, ...]
    decay_factor: float
    cls_weight: float
    reg_weight: float
    hidden: int
    train_scenes: int
    eval_scenes: int
    nms_threshold: float
    score_floor: float
    max_detections: int
    seed: int
    out: str

    @property
    def mode(self) -> str:
        """The preset with this config's annealing switch and head count."""
        return next(name for name, preset in MODES.items()
                    if preset["rga_enabled"] == self.rga_enabled
                    and (len(preset["ratios"]) > 1) == (len(self.ratios) > 1))

    @property
    def policies(self) -> list[SamplingPolicy]:
        return [
            SamplingPolicy(mode=self.sampling_mode, ratio=r, batch_size=self.batch_size)
            for r in self.ratios
        ]

    @property
    def train(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            total_steps=self.total_steps,
            decay_points=self.decay_points,
            decay_factor=self.decay_factor,
            cls_weight=self.cls_weight,
            reg_weight=self.reg_weight,
        )

    def config_hash(self) -> str:
        """Hash over every semantically meaningful field (output path excluded)."""
        payload = repr((
            self.scene, self.rpn, self.feat, self.mode, self.sampling_mode,
            self.ratios, self.batch_size, self.rga_enabled, self.lambda0,
            self.anneal, self.learning_rate, self.total_steps, self.decay_points,
            self.decay_factor, self.cls_weight, self.reg_weight, self.hidden,
            self.train_scenes, self.eval_scenes, self.nms_threshold,
            self.score_floor, self.max_detections, self.seed,
        ))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


_KNOWN_KEYS = {
    "scene": {"extent_w", "extent_h", "num_classes", "box_min", "box_max",
              "gt_count_weights"},
    "rpn": {"jitter_start", "jitter_end", "fg_per_gt", "bg_per_scene"},
    "features": {"noise_dims", "noise_sigma"},
    "sampling": {"mode", "ratios", "batch_size"},
    "rga": {"enabled", "lambda0", "anneal"},
    "train": {"learning_rate", "steps", "hidden", "decay_points", "decay_factor",
              "train_scenes", "cls_weight", "reg_weight"},
    "eval": {"scenes", "nms_threshold", "score_floor", "max_detections"},
    "run": {"seed", "out", "mode"},
}


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KNOWN_KEYS[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = (value, lineno)
    return sections


def _get(sections, section, key, default, convert):
    if section in sections and key in sections[section]:
        value, lineno = sections[section][key]
        try:
            return convert(value)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return default


def _bool(value: str) -> bool:
    v = value.lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def parse_ratio(value: str) -> tuple[int, int]:
    m = RATIO_RE.match(value.strip())
    if not m:
        raise ValueError(f"ratio must match 'P:N', got {value!r}")
    return int(m.group(1)), int(m.group(2))


def _ratio_list(value: str) -> tuple[tuple[int, int], ...]:
    return tuple(parse_ratio(part) for part in value.split(","))


def _weights(value: str) -> dict[int, float]:
    out = {}
    for part in value.split(","):
        count, _, weight = part.partition(":")
        out[int(count.strip())] = float(weight.strip())
    return out


def _float_list(value: str) -> tuple[float, ...]:
    return tuple(float(part) for part in value.split(","))


def parse_config(
    text: str,
    seed: Optional[int] = None,
    mode: Optional[str] = None,
    sampling: Optional[str] = None,
    out: Optional[str] = None,
) -> ExperimentConfig:
    """Parse a config document; omitted keys fall back to the stock defaults.

    The keyword arguments mirror CLI flags and override the document.
    """
    sections = _parse_sections(text)

    scene = SceneConfig(
        extent=(_get(sections, "scene", "extent_w", 100.0, float),
                _get(sections, "scene", "extent_h", 100.0, float)),
        num_classes=_get(sections, "scene", "num_classes", 3, int),
        gt_count_weights=_get(sections, "scene", "gt_count_weights", None, _weights)
        or SceneConfig().gt_count_weights,
        box_size_range=(_get(sections, "scene", "box_min", 8.0, float),
                        _get(sections, "scene", "box_max", 30.0, float)),
    )
    rpn = RpnQualityModel(
        jitter_start=_get(sections, "rpn", "jitter_start", 0.6, float),
        jitter_end=_get(sections, "rpn", "jitter_end", 0.03, float),
        fg_per_gt=_get(sections, "rpn", "fg_per_gt", 8, int),
        bg_per_scene=_get(sections, "rpn", "bg_per_scene", 56, int),
    )
    feat = FeatureModel(
        noise_dims=_get(sections, "features", "noise_dims", 8, int),
        noise_sigma=_get(sections, "features", "noise_sigma", 0.25, float),
    )

    run_mode = mode or _get(sections, "run", "mode", "baseline", str)
    if run_mode not in MODES:
        raise ConfigError(f"unknown mode {run_mode!r}; expected one of {tuple(MODES)}")
    preset = MODES[run_mode]
    sampling_mode = sampling or _get(sections, "sampling", "mode", "soft", str)
    if sampling_mode not in SAMPLING_MODES:
        raise ConfigError(f"unknown sampling mode {sampling_mode!r}")

    seed_value = seed if seed is not None else _get(sections, "run", "seed", None, int)
    if seed_value is None:
        raise ConfigError("no seed given: set 'seed' in [run] or pass --seed")

    try:
        cfg = ExperimentConfig(
            scene=scene,
            rpn=rpn,
            feat=feat,
            sampling_mode=sampling_mode,
            ratios=_get(sections, "sampling", "ratios", preset["ratios"], _ratio_list),
            batch_size=_get(sections, "sampling", "batch_size", 512, int),
            rga_enabled=_get(sections, "rga", "enabled", preset["rga_enabled"], _bool),
            lambda0=_get(sections, "rga", "lambda0", 7.0, float),
            anneal=_get(sections, "rga", "anneal", True, _bool),
            learning_rate=_get(sections, "train", "learning_rate", 0.02, float),
            total_steps=_get(sections, "train", "steps", 3000, int),
            decay_points=_get(sections, "train", "decay_points",
                              (float(Fraction(8, 12)), float(Fraction(11, 12))),
                              _float_list),
            decay_factor=_get(sections, "train", "decay_factor", 0.1, float),
            cls_weight=_get(sections, "train", "cls_weight", 1.0, float),
            reg_weight=_get(sections, "train", "reg_weight", 1.0, float),
            hidden=_get(sections, "train", "hidden", 16, int),
            train_scenes=_get(sections, "train", "train_scenes", 2000, int),
            eval_scenes=_get(sections, "eval", "scenes", 500, int),
            nms_threshold=_get(sections, "eval", "nms_threshold", 0.5, float),
            score_floor=_get(sections, "eval", "score_floor", 0.05, float),
            max_detections=_get(sections, "eval", "max_detections", 100, int),
            seed=seed_value,
            out=out or _get(sections, "run", "out", "runs/exp", str),
        )
        cfg.policies  # validates batch size against every ratio
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path, **overrides) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read(), **overrides)
