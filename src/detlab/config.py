"""Experiment configuration: a flat sectioned key = value text format with
strict validation, mode presets as defaults, and a content hash for manifests."""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, fields
from typing import Optional

from .rga import anneal_factors
from .sampler import SamplingPolicy
from .synthdata import FeatureModel, RpnQualityModel, SceneConfig

# The synthetic world is fixed, so no config key sets it, but for the proposal
# source's final jitter: the other RpnQualityModel fields keep their defaults.
SCENE = SceneConfig()
FEATURES = FeatureModel()

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


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One experiment, checked whole on every construction. Each default is
    declared once: here, or on the `RpnQualityModel` field it comes from. A
    run's proposal model (`rpn`), learning rates (`net.lr_schedule`) and
    annealing factors (`lambdas`) are functions of these fields."""

    jitter_end: float = RpnQualityModel.jitter_end
    sampling_mode: str = "soft"
    ratios: tuple[tuple[int, int], ...] = MODES["baseline"]["ratios"]
    batch_size: int = 64  # the largest that the proposal pools fill
    rga_enabled: bool = MODES["baseline"]["rga_enabled"]
    lambda0: float = 7.0
    anneal: bool = True
    learning_rate: float = 0.02
    total_steps: int = 3000
    hidden: int = 16
    train_scenes: int = 2000
    eval_scenes: int = 500
    seed: int
    out: str = "runs/exp"

    def __post_init__(self):
        for name in ("train_scenes", "eval_scenes", "hidden", "total_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if self.rga_enabled and not 1.0 <= self.lambda0 < math.inf:
            raise ValueError("initial magnification must be >= 1 and finite")
        rpn, _ = self.rpn, self.policies  # what a run builds, so each value is checked
        fewest = min(n for n, w in SCENE.gt_count_weights.items() if w > 0)
        smallest = rpn.bg_per_scene + rpn.fg_per_gt * fewest
        if self.batch_size > smallest:
            raise ValueError(f"batch_size {self.batch_size} exceeds the smallest proposal "
                             f"pool, {smallest} proposals")

    @property
    def mode(self) -> str:
        """The preset with this config's annealing switch and head count."""
        return next(name for name, preset in MODES.items()
                    if preset["rga_enabled"] == self.rga_enabled
                    and (len(preset["ratios"]) > 1) == (len(self.ratios) > 1))

    @property
    def rpn(self) -> RpnQualityModel:
        return RpnQualityModel(jitter_end=self.jitter_end)

    @property
    def policies(self) -> list[SamplingPolicy]:
        return [
            SamplingPolicy(mode=self.sampling_mode, ratio=r, batch_size=self.batch_size)
            for r in self.ratios
        ]

    def lambdas(self, steps) -> list[float]:
        """The head-gradient magnification at each of `steps`: a constant
        factor of 1 when annealing is off."""
        if not self.rga_enabled:
            return anneal_factors(1.0, self.total_steps, steps, constant=True)
        return anneal_factors(self.lambda0, self.total_steps, steps, constant=not self.anneal)

    def config_hash(self) -> str:
        """Hash over the derived mode and every field but the output path."""
        payload = repr((self.mode, *(getattr(self, f.name) for f in fields(self)
                                     if f.name != "out")))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


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


# Every accepted key and its parser, by section. Each key fills the
# ExperimentConfig field of its name, or the one RENAMED gives; [run] mode
# picks the MODES preset.
SCHEMA = {
    "rpn": dict(jitter_end=float),
    "sampling": dict(mode=str, ratios=lambda v: tuple(map(parse_ratio, v.split(","))),
                     batch_size=int),
    "rga": dict(enabled=_bool, lambda0=float, anneal=_bool),
    "train": dict(learning_rate=float, steps=int, hidden=int, train_scenes=int),
    "eval": dict(scenes=int),
    "run": dict(seed=int, out=str, mode=str),
}
RENAMED = {("sampling", "mode"): "sampling_mode", ("rga", "enabled"): "rga_enabled",
           ("train", "steps"): "total_steps", ("eval", "scenes"): "eval_scenes"}


def _parse_fields(text: str) -> dict[str, object]:
    """The parsed value of each key the document sets, by the field it fills
    (`mode` for [run] mode, which picks a preset)."""
    values: dict[str, object] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in SCHEMA[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{current}]")
        name = RENAMED.get((current, key), key)
        if name in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:  # an empty `out` would run in, and first clear, the working directory
            raise ConfigError(f"line {lineno}: no value for {key!r}")
        try:
            values[name] = SCHEMA[current][key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return values


def parse_config(text: str, seed: Optional[int] = None, mode: Optional[str] = None,
                 sampling: Optional[str] = None, out: Optional[str] = None) -> ExperimentConfig:
    """Parse a config document; omitted keys keep their declared defaults,
    except the two that the mode's preset sets.

    The keyword arguments mirror CLI flags and override the document. Every
    invalid value raises ConfigError here, before a run does any work.
    """
    document = _parse_fields(text)
    doc_mode = document.pop("mode", None)
    run_mode = mode or doc_mode
    if run_mode is not None and run_mode not in MODES:
        raise ConfigError(f"unknown mode {run_mode!r}; expected one of {tuple(MODES)}")
    values = {**MODES.get(run_mode, {}), **document}
    flags = {"seed": seed, "sampling_mode": sampling, "out": out}
    values.update((k, v) for k, v in flags.items() if v not in (None, ""))
    if "seed" not in values:
        raise ConfigError("no seed given: set 'seed' in [run] or pass --seed")
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, **overrides) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read(), **overrides)
