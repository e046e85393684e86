import csv
import importlib.util
import json
import platform
import re
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detlab
import detlab.prm as prm_mod
from detlab import cli, harness, seeding
from detlab.cli import main as cli_main
from detlab.config import (FEATURES, MODES, SCENE, SCHEMA, ConfigError, load_config,
                           parse_config)
from detlab.files import atomic_write, read_arrays, write_arrays
from detlab.harness import axis_cells, run_experiment, sweep
from detlab.metrics import MetricsLog
from detlab.net import (HEAD_KEYS, init_backbone, init_head, load_params, save_params,
                        stack_heads)
from detlab.synthdata import SCENE_ARRAYS, generate_dataset, load_dataset, save_dataset

TINY = """
[sampling]
batch_size = 32

[train]
steps = 40
train_scenes = 20
hidden = 8

[eval]
scenes = 20

[run]
seed = 3
"""


DESK_CFG = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"

# config_hash() of configs/desk.cfg at seed 7 per mode, with soft and with
# hard sampling; manifest.json records this hash, so it must not drift. It
# covers every ExperimentConfig field but `out`, so it changed when the scene,
# proposal, feature and evaluation values became constants, not config keys.
DESK_HASHES = {
    "baseline": ("94618343fd588959", "f166d1199c52000d"),
    "rga": ("893f5b19edcdbe92", "f3b839dc5413b215"),
    "prm": ("356f2605fc575aef", "098e3c3f76b3f1c3"),
    "rga+prm": ("90625ff8a05e17cd", "dda8d7d519d97d66"),
}

# A valid non-default value for every config key, the field it must set and
# that field's value.
KEY_CASES = {
    ("rpn", "jitter_end"): ("0.1", "jitter_end", 0.1),
    ("sampling", "mode"): ("hard", "sampling_mode", "hard"),
    ("sampling", "ratios"): ("1:9, 1:1", "ratios", ((1, 9), (1, 1))),
    ("sampling", "batch_size"): ("48", "batch_size", 48),
    ("rga", "enabled"): ("true", "rga_enabled", True),
    ("rga", "lambda0"): ("5", "lambda0", 5.0),
    ("rga", "anneal"): ("false", "anneal", False),
    ("train", "learning_rate"): ("0.1", "learning_rate", 0.1),
    ("train", "steps"): ("100", "total_steps", 100),
    ("train", "hidden"): ("8", "hidden", 8),
    ("train", "train_scenes"): ("100", "train_scenes", 100),
    ("eval", "scenes"): ("50", "eval_scenes", 50),
    ("run", "seed"): ("2", "seed", 2),
    ("run", "out"): ("elsewhere", "out", "elsewhere"),
    ("run", "mode"): ("rga", "rga_enabled", True),
}

# The keys of the fixed synthetic world and evaluation protocol, now constants
# (`config.SCENE`, `config.FEATURES`, `RpnQualityModel`'s defaults and
# `harness.NMS_THRESHOLD`, `SCORE_FLOOR` and `MAX_DETECTIONS`), each with a value
# it once took.
REMOVED_KEYS = {
    ("scene", "extent_w"): "120",
    ("scene", "extent_h"): "90",
    ("scene", "num_classes"): "4",
    ("scene", "box_min"): "6",
    ("scene", "box_max"): "25",
    ("scene", "gt_count_weights"): "1:0.5, 2:0.5",
    ("rpn", "jitter_start"): "0.7",
    ("rpn", "fg_per_gt"): "10",
    ("rpn", "bg_per_scene"): "60",
    ("features", "noise_dims"): "4",
    ("features", "noise_sigma"): "0.5",
    ("eval", "nms_threshold"): "0.6",
    ("eval", "score_floor"): "0.1",
    ("eval", "max_detections"): "50",
}


def tiny_cfg(tmp_path, **overrides):
    cfg = parse_config(TINY, out=str(tmp_path / "run"))
    return replace(cfg, **overrides)


class TestParseConfig:
    def test_empty_document_gives_stock_defaults(self):
        cfg = parse_config("", seed=1)
        assert cfg.batch_size == 64  # the smallest default pool: 56 + 8 x 1 proposals
        assert cfg.ratios == ((1, 3),)
        assert cfg.lambda0 == 7.0
        assert cfg.total_steps == 3000
        assert cfg.mode == "baseline"
        assert cfg.policies[0].pos_target == 16

    def test_ratio_parsing(self):
        cfg = parse_config("[sampling]\nratios = 1:9\n", seed=1)
        assert cfg.ratios == ((1, 9),)

    def test_malformed_ratio_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[sampling]\nratios = 1-9\n", seed=1)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="line 2.*momentum"):
            parse_config("[train]\nmomentum = 0.9\n", seed=1)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("[optimizer]\n", seed=1)

    def test_missing_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("")

    def test_mode_sets_ratios_and_rga(self):
        cfg = parse_config("", seed=1, mode="rga+prm")
        assert cfg.ratios == ((1, 1), (1, 9))
        assert cfg.rga_enabled

    def test_mode_is_read_from_annealing_and_heads(self):
        assert parse_config("[rga]\nenabled = true\n", seed=1).mode == "rga"
        cfg = parse_config("[sampling]\nratios = 1:1,1:5\n", seed=1, mode="rga")
        assert cfg.mode == "rga+prm"
        for name, preset in MODES.items():
            assert parse_config("", seed=1, mode=name).mode == name
            assert replace(parse_config("", seed=1), **preset).mode == name

    def test_explicit_ratios_win_over_mode(self):
        cfg = parse_config("[sampling]\nratios = 1:1,1:5\n", seed=1, mode="prm")
        assert cfg.ratios == ((1, 1), (1, 5))

    def test_hash_changes_with_semantic_fields_only(self):
        a = parse_config("", seed=1)
        b = parse_config("", seed=1, out="elsewhere")
        c = parse_config("", seed=2)
        d = parse_config("[rga]\nlambda0 = 5.0\n", seed=1)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert a.config_hash() != d.config_hash()

    def test_key_cases_cover_the_schema(self):
        assert set(KEY_CASES) == {(s, k) for s, keys in SCHEMA.items() for k in keys}
        assert not set(KEY_CASES) & set(REMOVED_KEYS)
        assert sum(map(len, SCHEMA.values())) == 15

    @pytest.mark.parametrize("section,key", [(s, k) for s, keys in SCHEMA.items() for k in keys])
    def test_every_key_reaches_its_field(self, section, key):
        text, target, value = KEY_CASES[section, key]
        base = parse_config("", seed=1)
        cfg = parse_config(f"[{section}]\n{key} = {text}\n", seed=None if key == "seed" else 1)
        a, b = asdict(base), asdict(cfg)
        assert {name: b[name] for name in a if a[name] != b[name]} == {target: value}
        assert (cfg.config_hash() == base.config_hash()) == (key == "out")

    @given(st.data())
    @settings(max_examples=200)
    def test_a_garbled_line_is_named(self, data):
        # one key line of TINY loses its '=', repeats, gets an unknown key or a non-number
        lines = TINY.splitlines()
        at = data.draw(st.sampled_from([i for i, line in enumerate(lines) if "=" in line]))
        key, value = (part.strip() for part in lines[at].split("="))
        garble = data.draw(st.sampled_from(["no =", "repeat", "unknown", "non-number"]))
        named = at + 1
        if garble == "no =":
            lines[at] = f"{key} {value}"
        elif garble == "repeat":
            lines.insert(at + 1, lines[at])
            named += 1
        elif garble == "unknown":
            lines[at] = f"{key}_{data.draw(st.sampled_from(['x', '2', 'rate']))} = {value}"
        else:
            lines[at] = f"{key} = {data.draw(st.sampled_from(['', 'x', '1.5', '1e3', '0x10']))}"
        with pytest.raises(ConfigError, match=f"^line {named}: "):
            parse_config("\n".join(lines))

    @pytest.mark.parametrize("mode", MODES)
    def test_desk_config_hashes_are_pinned(self, mode):
        hashes = tuple(load_config(DESK_CFG, seed=7, mode=mode, sampling=s).config_hash()
                       for s in ("soft", "hard"))
        assert hashes == DESK_HASHES[mode]


class TestRunExperiment:
    def test_deterministic_outputs(self, tmp_path):
        r1 = run_experiment(tiny_cfg(tmp_path / "a"))
        r2 = run_experiment(tiny_cfg(tmp_path / "b"))
        m1 = (r1.out_dir / "metrics.csv").read_bytes()
        m2 = (r2.out_dir / "metrics.csv").read_bytes()
        assert m1 == m2
        s1 = (r1.out_dir / "eval_summary.json").read_bytes()
        s2 = (r2.out_dir / "eval_summary.json").read_bytes()
        assert s1 == s2

    @pytest.mark.parametrize("sampling", ["soft", "hard"])
    @pytest.mark.parametrize("mode", ["baseline", "rga+prm"])
    def test_bytes_do_not_depend_on_pool_block(self, tmp_path, monkeypatch, mode, sampling):
        # pools, batches and their random streams are built one block at a time
        def artifacts(block):
            monkeypatch.setattr(harness, "POOL_BLOCK", block)
            cfg = tiny_cfg(tmp_path / str(block), **MODES[mode], sampling_mode=sampling)
            out = run_experiment(cfg).out_dir
            return {name: (out / name).read_bytes() for name in
                    ("metrics.csv", "gradnorm.csv", "eval_report.txt", "checkpoint.npz")}

        want = artifacts(harness.POOL_BLOCK)
        for block in (1, 7, 32, 64, harness.POOL_BLOCK + 1):
            assert artifacts(block) == want, f"POOL_BLOCK = {block}"

    @pytest.mark.parametrize("mode", ["baseline", "rga+prm"])
    def test_one_seeding_pass_per_stream(self, tmp_path, monkeypatch, mode):
        # once the scene caches exist, a run seeds its batches, its training
        # pools and its evaluation pools in one pass each, whatever the block
        cfg = tiny_cfg(tmp_path, **MODES[mode])
        run_experiment(cfg)  # writes the scene caches
        generators, passes = seeding.generators, []

        def counted(seeds):
            passes.append(len(seeds))
            return generators(seeds)

        for module in [m for name, m in sys.modules.items()
                       if name.startswith("detlab") and hasattr(m, "generators")]:
            monkeypatch.setattr(module, "generators", counted)
        for block in (1, 7, 32):
            monkeypatch.setattr(harness, "POOL_BLOCK", block)
            passes.clear()
            run_experiment(cfg)
            assert passes == [40 * len(cfg.ratios), 40, 20], f"POOL_BLOCK = {block}"

    def test_scene_stream_names_the_cache(self, tmp_path, monkeypatch):
        # scenes drawn another way never load an old cache as their own
        cfg = tiny_cfg(tmp_path)
        for stream in (harness.SCENE_STREAM, harness.SCENE_STREAM + 1):
            monkeypatch.setattr(harness, "SCENE_STREAM", stream)
            harness._dataset(cfg, tmp_path, "eval", 3)
        assert len(list(tmp_path.glob("dataset_eval_*.npz"))) == 2

    def test_reruns_write_identical_manifests(self, tmp_path):
        r1 = run_experiment(tiny_cfg(tmp_path / "a"))
        time.sleep(1.01)  # the second rerun starts at another wall-clock second
        r2 = run_experiment(tiny_cfg(tmp_path / "b"))
        m1, m2 = ((r.out_dir / "manifest.json").read_bytes() for r in (r1, r2))
        assert m1 == m2
        for r in (r1, r2):  # the time of the run is kept beside it
            assert "created" in json.loads((r.out_dir / "timings.json").read_text())

    def test_manifest_records_the_versions(self, tmp_path):
        manifests = [json.loads((run_experiment(tiny_cfg(tmp_path / d)).out_dir
                                 / "manifest.json").read_text()) for d in "ab"]
        versions = manifests[0]["versions"]
        assert manifests[1]["versions"] == versions  # a rerun on one host records the same
        assert {k: v for k, v in versions.items() if k != "blas"} == {
            "detlab": detlab.__version__, "python": platform.python_version(),
            "numpy": np.__version__}
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert versions["blas"] == f"{blas['name']} {blas['version']}"

    def test_timings_record_stage_seconds(self, tmp_path):
        result = run_experiment(tiny_cfg(tmp_path))
        stages = json.loads((result.out_dir / "timings.json").read_text())["stages"]
        assert sorted(stages) == ["dataset", "evaluation", "network", "proposals", "sampling",
                                  "statistics"]
        assert all(isinstance(v, float) and v >= 0.0 for v in stages.values())

    def test_artifacts_exist(self, tmp_path):
        result = run_experiment(tiny_cfg(tmp_path))
        for name in ("metrics.csv", "gradnorm.csv", "checkpoint.npz",
                     "eval_report.txt", "eval_summary.json", "manifest.json", "timings.json"):
            assert (result.out_dir / name).exists()
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        assert manifest["mode"] == "baseline"
        assert manifest["config_hash"] == result.config.config_hash()
        assert manifest["seed"] == 3

    def test_summary_keys(self, tmp_path):
        result = run_experiment(tiny_cfg(tmp_path))
        for key in ("ap_mean", "ap50", "ap75", "ap_bucket_1_3", "ap_bucket_8_inf"):
            assert key in result.summary

    def test_gradnorm_triangle_inequality(self, tmp_path):
        cfg = tiny_cfg(tmp_path, **MODES["rga+prm"])
        result = run_experiment(cfg)
        lines = (result.out_dir / "gradnorm.csv").read_text().splitlines()
        assert lines[0] == "step,norm_h1,norm_h2,norm_sum,cosine"
        assert len(lines) == cfg.total_steps + 1
        for line in lines[1:]:
            _, n1, n2, nsum, _ = line.split(",")
            assert float(nsum) <= float(n1) + float(n2) + 1e-9

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_anneals_each_step(self, tmp_path, monkeypatch, mode):
        # annealing off is a factor of 1, applied like any other
        factors = []
        apply_rga = prm_mod.apply_rga

        def counted(grads, lam, out):
            factors.append(lam)
            return apply_rga(grads, lam, out)

        monkeypatch.setattr(prm_mod, "apply_rga", counted)
        cfg = tiny_cfg(tmp_path, **MODES[mode])
        result = run_experiment(cfg)
        steps = cfg.total_steps
        if cfg.rga_enabled:
            assert factors == [7.0 - 6.0 * t / steps for t in range(steps)]
        else:
            assert factors == [1.0] * steps
        assert result.metrics.columns["lambda"] == factors

    def test_metrics_columns(self, tmp_path):
        result = run_experiment(tiny_cfg(tmp_path))
        header = (result.out_dir / "metrics.csv").read_text().splitlines()[0]
        assert header == ("step,pos_count_unique,pos_count_effective,"
                          "pos_acc,neg_acc,lambda,fg_score_h1")

    def test_pool_smaller_than_batch_errors(self, tmp_path):
        with pytest.raises(ValueError, match="batch_size 512 exceeds the smallest proposal "
                                             "pool, 64 proposals"):
            run_experiment(tiny_cfg(tmp_path, batch_size=512))
        assert not (tmp_path / "run").exists()


class Unprintable(float):
    def __repr__(self):
        raise RuntimeError("writer failed")


def fail_metrics_csv(path):
    log = MetricsLog()
    # fails on the second row
    log.extend({"step": [0, 1], "pos_acc": [None, None], "fg_score_h1": [0.5, Unprintable(0.5)]})
    log.to_csv(path)


def fail_ragged_csv(path):
    log = MetricsLog()
    log.extend({"step": [0, 1], "lambda": [1.0, 1.0]})
    log.extend({"step": [2], "lambda": [1.0], "fg_score_h1": [0.5]})  # a column starts late
    log.to_csv(path)


def fail_checkpoint(path):
    rng = np.random.default_rng(0)
    backbone, heads = init_backbone(3, 2, rng), stack_heads([init_head(2, 1, rng)])
    # an array that cannot be pickled, written after the parameters
    save_params(path, backbone, heads, np.array([lambda: 0], dtype=object))


def fail_plain(path):
    with atomic_write(path) as fh:
        fh.write("partial")
        raise RuntimeError("writer failed")


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", [fail_plain, fail_metrics_csv, fail_ragged_csv,
                                        fail_checkpoint],
                             ids=["atomic_write", "metrics_csv", "ragged_csv", "checkpoint"])
    def test_failed_writer_leaves_previous_file(self, tmp_path, writer):
        path = tmp_path / "artifact"
        path.write_bytes(b"previous run\n")
        with pytest.raises(Exception):
            writer(path)
        assert path.read_bytes() == b"previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "artifact"
        path.write_text("previous run, longer than the new text\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


class TestSweep:
    def test_lambda0_axis(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "base")
        rows = sweep(cfg, axis_cells("lambda0", [1.0, 7.0]), [3], tmp_path / "sweep")
        assert len(rows) == 2
        assert {r["value"] for r in rows} == {"1.0", "7.0"}
        assert all(r["n_failed"] == 0 for r in rows)
        assert (tmp_path / "sweep" / "sweep.csv").exists()

    def test_ratio_pair_axis_has_head_columns(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "base")
        rows = sweep(cfg, axis_cells("ratio-pair", [((1, 1), (1, 9))]), [3],
                     tmp_path / "sweep")
        assert "ap_head_1" in rows[0] and "ap_head_2" in rows[0]

    def test_empty_values_error(self, tmp_path):
        with pytest.raises(ValueError):
            sweep(tiny_cfg(tmp_path), axis_cells("lambda0", []), [3], tmp_path / "sweep")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_cell_does_not_stop_sweep(self, tmp_path):
        # at this learning rate the one-head run diverges and fails, while the
        # two-head run collapses and completes
        cfg = tiny_cfg(tmp_path / "base", learning_rate=1e200)
        rows = sweep(cfg, axis_cells("mode", ["baseline", "rga+prm"]), [3], tmp_path / "sweep")
        assert rows[0]["n_failed"] == 1
        assert rows[0]["errors"].startswith("seed 3: FloatingPointError: training diverged: ")
        assert rows[1]["n_failed"] == 0 and rows[1]["errors"] == ""
        with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
            written = list(csv.DictReader(fh))
        assert written[0]["errors"] == rows[0]["errors"]

    def test_lambda0_cell_keeps_head_layout(self, tmp_path):
        # annealing a two-head base gives two-head rga+prm runs, labelled so
        cfg = tiny_cfg(tmp_path / "base", **MODES["prm"])
        cells = axis_cells("lambda0", [3.0])
        assert replace(cfg, **cells["3.0"]).mode == "rga+prm"

    def test_mode_axis_cells_are_presets(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "base")
        cells = axis_cells("mode", list(MODES))
        assert {name: replace(cfg, **o).mode for name, o in cells.items()} == {
            name: name for name in MODES}
        with pytest.raises(ConfigError, match="unknown modes"):
            axis_cells("mode", ["rga+prn"])


def flat_box(boxes, classes, row):
    boxes[row, 2] = boxes[row, 0]  # x2 = x1


def zero_class(boxes, classes, row):
    classes[row] = 0


def nan_y1(boxes, classes, row):
    boxes[row, 1] = np.nan


def rewrite_arrays(path, changes: dict):
    """Rewrites the `.npz` file at `path` with `changes`, where None drops an array."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files} | changes
    np.savez(path, **{key: a for key, a in arrays.items() if a is not None})


@pytest.fixture(scope="module")
def saved_inputs(tmp_path_factory):
    """A saved tiny scene cache and a two-head checkpoint, by array name."""
    cfg = tiny_cfg(tmp_path_factory.mktemp("inputs"), **MODES["rga+prm"])
    scenes = generate_dataset(SCENE, cfg.eval_scenes, cfg.seed, tag="eval")
    model = prm_mod.init_model(FEATURES.dim(SCENE.num_classes), cfg.hidden, SCENE.num_classes,
                               cfg.policies, cfg.seed)
    out = Path(cfg.out)
    out.mkdir()
    save_dataset(scenes, out / "cache.npz")
    save_params(out / "checkpoint.npz", model.backbone, model.heads, cfg.ratios)
    return {name: dict(read_arrays(out / name)) for name in ("cache.npz", "checkpoint.npz")}, out


@given(st.data())
@settings(max_examples=300)
def test_loaders_name_the_file_and_the_array(saved_inputs, data):
    # one value of a valid file made invalid: the loader names both where it lies
    arrays, out = saved_inputs
    name = data.draw(st.sampled_from(["ids", "extents", "boxes", "backbone/w", "backbone/b",
                                      *(f"head{i}/{key}" for i in (0, 1) for key in HEAD_KEYS)]))
    file = "cache.npz" if name in SCENE_ARRAYS else "checkpoint.npz"
    a = arrays[file][name].copy()
    row = data.draw(st.integers(0, len(a) - 1))
    bad = st.sampled_from([np.nan, np.inf, -np.inf])
    if name == "ids":  # a repeat of the one before, or two swapped
        other = (row + data.draw(st.sampled_from([-1, 1]))) % len(a)
        if data.draw(st.booleans()):
            a[row] = a[other]
        else:
            a[[row, other]] = a[[other, row]]
    elif name == "extents":
        a[row, data.draw(st.integers(0, 1))] = data.draw(bad | st.sampled_from([0.0, -1.0, -100.0]))
    elif name == "boxes" and data.draw(st.booleans()):  # moved past an edge of its scene
        axis, sign = data.draw(st.integers(0, 1)), data.draw(st.sampled_from([-1, 1]))
        a[row, [axis, axis + 2]] += sign * (SCENE.extent[axis] + 1.0)
    else:
        a.reshape(len(a), -1)[row, data.draw(st.integers(0, a[row].size - 1))] = data.draw(bad)
    path = out / f"bad-{file}"
    write_arrays(path, arrays[file] | {name: a})
    load = load_dataset if file == "cache.npz" else load_params
    with pytest.raises(ValueError) as raised:
        load(path)
    assert str(path) in str(raised.value)
    assert re.search(rf"\b{name}\b", str(raised.value)), str(raised.value)


class Tripwire:
    """An object whose unpickling creates the file at `path`."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return Path.touch, (self.path,)


class TestCli:
    def write_cfg(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(TINY)
        return path

    def test_train_and_report(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert cli_main(["train", "--config", str(cfg_path), "--out", out]) == 0
        assert cli_main(["report", "--config", str(cfg_path), "--out", out]) == 0
        assert "ap_mean" in capsys.readouterr().out

    def test_report_refuses_the_run_of_another_config(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert cli_main(["train", "--config", str(cfg_path), "--out", out]) == 0
        capsys.readouterr()
        assert cli_main(["report", "--config", str(cfg_path), "--out", out,
                         "--mode", "rga+prm", "--seed", "11"]) == 1
        captured = capsys.readouterr()
        ran, asked = (load_config(cfg_path, seed=seed, mode=mode, out=out).config_hash()
                      for seed, mode in ((None, None), (11, "rga+prm")))
        assert captured.out == ""
        assert (f"config error: {out} holds the run of mode baseline, seed 3, config hash {ran}; "
                f"the config has mode rga+prm, seed 11, config hash {asked}") in captured.err

    def test_report_refuses_an_evaluation_under_another_config(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        other = tmp_path / "scenes.cfg"
        other.write_text(TINY.replace("[eval]\nscenes = 20", "[eval]\nscenes = 10"))
        out = str(tmp_path / "run")
        assert cli_main(["train", "--config", str(cfg_path), "--out", out]) == 0
        trained = json.loads((Path(out) / "manifest.json").read_text())
        assert cli_main(["eval", "--config", str(other), "--out", out]) == 0
        ran, evaluated = (load_config(p, out=out).config_hash() for p in (cfg_path, other))
        # only the evaluation's hash changes
        assert json.loads((Path(out) / "manifest.json").read_text()) == dict(
            trained, eval_config_hash=evaluated)
        capsys.readouterr()
        assert cli_main(["report", "--config", str(cfg_path), "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"config error: {out} holds an evaluation under config hash {evaluated}; the "
                f"config has mode baseline, seed 3, config hash {ran}") in captured.err

    def test_eval_under_the_same_config_still_reports(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        trained = (out / "manifest.json").read_bytes()
        assert cli_main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "manifest.json").read_bytes() == trained
        capsys.readouterr()
        assert cli_main(["report", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == (out / "eval_summary.json").read_text()

    def test_eval_without_a_run_records_only_its_config(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        run, elsewhere = tmp_path / "run", tmp_path / "elsewhere"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
        assert cli_main(["gen-data", "--config", str(cfg_path), "--out", str(elsewhere)]) == 0
        assert cli_main(["eval", "--config", str(cfg_path), "--out", str(elsewhere),
                         "--checkpoint", str(run / "checkpoint.npz")]) == 0
        digest = load_config(cfg_path).config_hash()
        manifest = json.loads((elsewhere / "manifest.json").read_text())
        assert manifest == {"eval_config_hash": digest}
        capsys.readouterr()  # no training run is recorded there, so report refuses it
        assert cli_main(["report", "--config", str(cfg_path), "--out", str(elsewhere)]) == 1
        assert (f"config error: {elsewhere} records no training run; the config has mode "
                f"baseline, seed 3, config hash {digest}\n" in capsys.readouterr().err)

    def test_eval_creates_its_out_directory(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        run, fresh = tmp_path / "run", tmp_path / "new" / "eval"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
        capsys.readouterr()
        assert cli_main(["eval", "--config", str(cfg_path), "--out", str(fresh),
                         "--checkpoint", str(run / "checkpoint.npz")]) == 0
        assert (fresh / "eval_report.txt").read_bytes() == (run / "eval_report.txt").read_bytes()
        assert capsys.readouterr().out == (fresh / "eval_report.txt").read_text()

    @pytest.mark.parametrize("dropped,message", [
        ("config_hash", "{} records no training run"),
        ("eval_config_hash", "{} holds an evaluation under a config it does not record"),
    ], ids=["no-run", "no-eval-hash"])
    def test_report_names_what_the_manifest_does_not_record(self, tmp_path, capsys, dropped,
                                                            message):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = out / "manifest.json"
        recorded = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({k: v for k, v in recorded.items() if k != dropped}))
        capsys.readouterr()
        assert cli_main(["report", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"config error: {message.format(out)}; the config has mode baseline, "
                f"seed 3, config hash {recorded['config_hash']}\n") in captured.err

    @pytest.mark.parametrize("command", ["report", "eval"])
    @pytest.mark.parametrize("spoil, fault", [
        (lambda data: data[:16], "unreadable manifest {}: "),
        (lambda data: b"[]", "manifest {} holds a JSON list, not an object"),
    ], ids=["truncated", "list"])
    def test_unreadable_manifest_is_named(self, tmp_path, capsys, command, spoil, fault):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = out / "manifest.json"
        manifest.write_bytes(spoil(manifest.read_bytes()))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {fault.format(manifest)}" in captured.err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before  # nothing deleted

    def test_report_refuses_a_run_without_manifest(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        (out / "manifest.json").unlink()
        capsys.readouterr()
        assert cli_main(["report", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        digest = load_config(cfg_path, out=str(out)).config_hash()
        assert captured.out == ""
        assert (f"config error: {out} has no manifest.json to show that its results are of the "
                f"config's run (mode baseline, seed 3, config hash {digest})") in captured.err

    def test_gen_data(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "data"
        assert cli_main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert list(out.glob("dataset_train_*.npz"))
        assert list(out.glob("dataset_eval_*.npz"))

    def test_text_cache_of_older_versions_is_ignored(self, tmp_path):
        out, cache = self.cached(tmp_path, "train")
        data = cache.read_bytes()
        cache.with_suffix(".txt").write_text("scene 0 100.0 100.0 1\n")  # as older detlab wrote
        cache.unlink()
        assert cli_main(["gen-data", "--config", str(tmp_path / "exp.cfg"),
                         "--out", str(out)]) == 0
        assert cache.read_bytes() == data

    @pytest.mark.parametrize("lambda0", ["0.5", "nan"])
    def test_lambda0_is_not_read_with_annealing_off(self, tmp_path, lambda0):
        # with annealing on, both values are config errors (exit 1)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY + f"[rga]\nenabled = false\nlambda0 = {lambda0}\n")
        assert cli_main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / "run")]) == 0
        assert load_config(cfg_path).lambdas([0, 20, 40]) == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("mode,rga,want", [
        ("rga", "anneal = false", lambda t: 7.0),
        ("rga", "anneal = true", lambda t: 7.0 - (7.0 - 1.0) * t / 40),
        ("baseline", "lambda0 = 0.5", lambda t: 1.0),
    ], ids=["rga-constant", "rga-annealed", "baseline"])
    def test_lambda_column_follows_the_annealing_switch(self, tmp_path, mode, rga, want):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY + f"[rga]\n{rga}\n")
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--mode", mode,
                         "--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["step"]) for row in rows] == list(range(40))
        assert [float(row["lambda"]) for row in rows] == [want(t) for t in range(40)]

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[sampling]\nratios = 1-9\n")
        assert cli_main(["train", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("doc,message", [
        (TINY + "[scene]\nnum_classes = 0\n", "line 15: unknown section [scene]"),
        (TINY + "[rpn]\njitter_end = 0.7\n", "jitter must be non-negative and non-increasing"),
        (TINY + "[train]\nlearning_rate = -1\n", "learning rate must be positive"),
        (TINY + "[train]\ndecay_factor = 1.5\n",  # loss weights and decay are fixed
         "line 16: unknown key 'decay_factor' in section [train]"),
        (TINY + "[rga]\nenabled = true\nlambda0 = 0.5\n", "initial magnification must be >= 1"),
        (TINY.replace("steps = 40", "steps = 0"), "total_steps must be >= 1"),
        (TINY.replace("train_scenes = 20", "train_scenes = 0"), "train_scenes must be >= 1"),
        (TINY.replace("[eval]\nscenes = 20", "[eval]\nscenes = 0"), "eval_scenes must be >= 1"),
        (TINY + "[rga]\nenabled = true\nlambda0 = nan\n",
         "initial magnification must be >= 1 and finite"),
        (TINY + "[rga]\nenabled = true\nlambda0 = inf\n",
         "initial magnification must be >= 1 and finite"),
        (TINY + "[train]\nlearning_rate = nan\n", "learning rate must be positive and finite"),
        (TINY + "[train]\nlearning_rate = inf\n", "learning rate must be positive and finite"),
        (TINY + "[train]\ndecay_points = nan\n",
         "line 16: unknown key 'decay_points' in section [train]"),
        (TINY + "[train]\ndecay_points = 0.5, inf\n",
         "line 16: unknown key 'decay_points' in section [train]"),
        (TINY + "[train]\ndecay_points = 8, 11\n",
         "line 16: unknown key 'decay_points' in section [train]"),
        (TINY + "[train]\ncls_weight = nan\n",
         "line 16: unknown key 'cls_weight' in section [train]"),
        (TINY + "[train]\ncls_weight = inf\n",
         "line 16: unknown key 'cls_weight' in section [train]"),
        (TINY + "[train]\nreg_weight = -1\n",
         "line 16: unknown key 'reg_weight' in section [train]"),
        (TINY + "[eval]\nnms_threshold = 0\n",
         "line 16: unknown key 'nms_threshold' in section [eval]"),
        (TINY + "[eval]\nnms_threshold = 1.0\n",
         "line 16: unknown key 'nms_threshold' in section [eval]"),
        (TINY + "[features]\nnoise_sigma = -0.1\n", "line 15: unknown section [features]"),
        (TINY + "[features]\nnoise_dims = -1\n", "line 15: unknown section [features]"),
        (TINY.replace("hidden = 8", "hidden = 0"), "hidden must be >= 1"),
        (TINY + "[eval]\nmax_detections = 0\n",
         "line 16: unknown key 'max_detections' in section [eval]"),
        (TINY + "[eval]\nscore_floor = nan\n",
         "line 16: unknown key 'score_floor' in section [eval]"),
        (TINY + "[eval]\nscore_floor = 1.0\n",
         "line 16: unknown key 'score_floor' in section [eval]"),
        (TINY + "[eval]\nscore_floor = -0.1\n",
         "line 16: unknown key 'score_floor' in section [eval]"),
        (TINY.replace("batch_size = 32", "batch_size = 65"),
         "batch_size 65 exceeds the smallest proposal pool, 64 proposals"),
        (TINY.replace("batch_size = 32", "batch_size = 25")  # no weight on 0 objects
         + "[scene]\ngt_count_weights = 0:0, 2:0.5, 3:0.5\n[rpn]\nbg_per_scene = 16\n"
         "fg_per_gt = 4\n",
         "line 15: unknown section [scene]"),
        (TINY + "[scene]\ngt_count_weights = 1: nan, 2: 1.0\n", "line 15: unknown section [scene]"),
        (TINY + "[scene]\ngt_count_weights = 1: -0.5, 2: 1.5\n",
         "line 15: unknown section [scene]"),
        (TINY + "[scene]\ngt_count_weights = 1:0.3, 2:0.7, 1:0.3\n",
         "line 15: unknown section [scene]"),
        (TINY + "[scene]\nextent_w = nan\n", "line 15: unknown section [scene]"),
        (TINY + "[scene]\nextent_h = inf\n", "line 15: unknown section [scene]"),
        (TINY + "[rpn]\njitter_start = inf\n",
         "line 16: unknown key 'jitter_start' in section [rpn]"),
    ], ids=["num_classes", "jitter", "learning_rate", "decay_factor", "lambda0",
            "steps", "train_scenes", "eval_scenes", "lambda0-nan", "lambda0-inf",
            "learning_rate-nan", "learning_rate-inf", "decay_points-nan", "decay_points-inf",
            "decay_points-above-1",
            "cls_weight-nan", "cls_weight-inf", "reg_weight-negative", "nms_threshold-0", "nms_threshold-1",
            "noise_sigma", "noise_dims", "hidden", "max_detections", "score_floor-nan",
            "score_floor-1", "score_floor-negative", "batch_size", "batch_size-gt-counts",
            "gt_count_weights-nan", "gt_count_weights-negative", "gt_count_weights-repeated",
            "extent-nan", "extent-inf",
            "jitter_start-inf"])
    def test_invalid_value_exits_1_before_any_work(self, tmp_path, capsys, doc, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(doc)
        out = tmp_path / "run"
        for command in ("gen-data", "train"):
            assert cli_main([command, "--config", str(bad), "--out", str(out)]) == 1
            assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,key", REMOVED_KEYS, ids=[f"{s}-{k}" for s, k in REMOVED_KEYS])
    def test_removed_key_exits_1_before_any_work(self, tmp_path, capsys, section, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY + f"[{section}]\n{key} = {REMOVED_KEYS[section, key]}\n")
        # [rpn] keeps jitter_end and [eval] scenes; [scene] and [features] are gone
        message = (f"line 16: unknown key {key!r} in section [{section}]"
                   if section in SCHEMA else f"line 15: unknown section [{section}]")
        out = tmp_path / "run"
        for argv in (["gen-data"], ["train"], ["eval"], ["report"],
                     ["sweep", "--axis", "mode", "--values", "rga", "--seeds", "3"]):
            assert cli_main([*argv, "--config", str(bad), "--out", str(out)]) == 1
            assert f"config error: {message}\n" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    def test_runtime_error_exit_code(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        assert cli_main(["report", "--config", str(cfg_path),
                         "--out", str(tmp_path / "nowhere")]) == 2

    # the contract is the error naming the step; a numpy RuntimeWarning on the
    # way there must not stand in for it
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_training_exits_2_naming_the_step(self, tmp_path, capsys,
                                                          monkeypatch):
        generate_proposals = harness.generate_proposals
        blocks = []

        def poisoned(*args, **kwargs):
            blocks.append(generate_proposals(*args, **kwargs))
            if len(blocks) == 1:  # the first training block, of steps 0 to 31
                blocks[0].pool(3).features[0, 0] = np.nan
            return blocks[-1]

        monkeypatch.setattr(harness, "generate_proposals", poisoned)
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "error: training went non-finite at step 3:" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    # the parameters stay finite (~1e200) and the gradient norms read 0, so
    # only the boxes show it: every decoded eval box has zero size
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_training_exits_2_naming_the_output_and_scene(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY + "[train]\nlearning_rate = 1e200\n")
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "error: training diverged: the ensemble gives degenerate or non-finite boxes " \
               "in scene " in err
        assert re.search(r"in scene \d+, where the largest \|delta\| is [\d.]+e\+200$", err)

    # the parameters stay finite and every score goes to the background, so
    # nothing fails: only the health flag of eval_summary.json tells
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_collapsed_training_is_flagged(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY + "[train]\nlearning_rate = 1e200\n")
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out),
                         "--mode", "rga+prm"]) == 0
        summary = json.loads((out / "eval_summary.json").read_text())
        assert summary["ap_mean"] == 0.0
        assert summary["health"] == (
            "collapsed: the ensemble kept no detection; every output's mean foreground "
            "score is below the score floor 0.05: 0, 0, 0")
        assert "collapsed" not in (out / "eval_report.txt").read_text()

    def test_healthy_run_reads_ok(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert json.loads((out / "eval_summary.json").read_text())["health"] == "ok"
        assert cli_main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert json.loads((out / "eval_summary.json").read_text())["health"] == "ok"

    def test_eval_from_checkpoint(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert cli_main(["train", "--config", str(cfg_path), "--out", out]) == 0
        capsys.readouterr()
        assert cli_main(["eval", "--config", str(cfg_path), "--out", out]) == 0
        assert "ap_mean" in capsys.readouterr().out

    def test_eval_refreshes_summary(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        trained = (out / "eval_summary.json").read_text()
        assert cli_main(["eval", "--config", str(cfg_path), "--out", str(out),
                         "--seed", "4"]) == 0
        summary = json.loads((out / "eval_summary.json").read_text())
        assert summary != json.loads(trained)
        report = (out / "eval_report.txt").read_text().splitlines()
        assert report[report.index("ensemble") + 11] == (
            f"  ap_mean = {summary['ap_mean']:.4f}")

    # a rerun that fails must not leave the earlier run's results for report
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_rerun_leaves_no_stale_results(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        caches = sorted(p.name for p in out.glob("dataset_*.npz"))
        assert len(caches) == 2
        diverging = tmp_path / "diverging.cfg"
        diverging.write_text(TINY + "[train]\nlearning_rate = 1e200\n")
        capsys.readouterr()
        assert cli_main(["train", "--config", str(diverging), "--out", str(out)]) == 2
        assert "error: training diverged" in capsys.readouterr().err
        for name in ("eval_summary.json", "eval_report.txt", "manifest.json", "timings.json"):
            assert not (out / name).exists(), name
        assert sorted(p.name for p in out.glob("dataset_*.npz")) == caches
        assert cli_main(["report", "--config", str(cfg_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: no run artifacts at {out}" in captured.err

    def test_failed_eval_leaves_no_stale_results(self, tmp_path, capsys, monkeypatch):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        checkpoint = (out / "checkpoint.npz").read_bytes()

        def failing(*args, **kwargs):
            raise FloatingPointError("evaluation failed")

        monkeypatch.setattr(cli, "evaluate_model", failing)
        assert cli_main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not (out / "eval_summary.json").exists()
        assert not (out / "eval_report.txt").exists()
        assert (out / "checkpoint.npz").read_bytes() == checkpoint
        capsys.readouterr()
        assert cli_main(["report", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "no run artifacts at" in capsys.readouterr().err

    def cached(self, tmp_path, tag):
        """A tiny config's `gen-data` directory and its `tag` scene cache."""
        out = tmp_path / "data"
        assert cli_main(["gen-data", "--config", str(self.write_cfg(tmp_path)),
                         "--out", str(out)]) == 0
        (cache,) = out.glob(f"dataset_{tag}_*.npz")
        return out, cache

    def rerun_fails(self, tmp_path, out, capsys):
        """The error text of a `gen-data` rerun on `out` that exits 2."""
        capsys.readouterr()
        assert cli_main(["gen-data", "--config", str(tmp_path / "exp.cfg"),
                         "--out", str(out)]) == 2
        return capsys.readouterr().err

    def test_truncated_cache_rejected(self, tmp_path, capsys):
        out, cache = self.cached(tmp_path, "train")
        save_dataset(load_dataset(cache).take(range(10)), cache)  # 10 whole scenes of 20
        err = self.rerun_fails(tmp_path, out, capsys)
        assert str(cache) in err and "holds 10 scenes, expected 20" in err

    def test_corrupt_cache_names_file(self, tmp_path, capsys):
        out, cache = self.cached(tmp_path, "eval")
        data = cache.read_bytes()
        cache.write_bytes(data[:len(data) // 2])
        err = self.rerun_fails(tmp_path, out, capsys)
        assert f"error: unreadable array file {cache}: File is not a zip file" in err

    def spoil_instance(self, cache, spoil):
        """Rewrites `cache` after `spoil(boxes, classes, row)` changes its
        arrays at the first instance of the second scene with two or more
        instances; returns that scene's id."""
        scenes = load_dataset(cache)
        arrays = {name: getattr(scenes, name).copy() for name in SCENE_ARRAYS}
        scene = np.flatnonzero(scenes.counts >= 2)[1]
        spoil(arrays["boxes"], arrays["classes"], scenes.offsets[scene])
        write_arrays(cache, arrays)
        return scenes.ids[scene]

    def test_degenerate_cache_box_names_file_and_record(self, tmp_path, capsys):
        out, cache = self.cached(tmp_path, "eval")
        scene_id = self.spoil_instance(cache, flat_box)
        err = self.rerun_fails(tmp_path, out, capsys)
        assert (f"corrupt scene cache {cache}: scene {scene_id}: ground-truth boxes must be "
                f"finite and non-degenerate") in err

    @pytest.mark.parametrize("spoil, message", [
        (zero_class, "ground-truth class ids must be >= 1"),
        (nan_y1, "ground-truth boxes must be finite and non-degenerate"),
    ], ids=["class-0", "nan-coordinate"])
    def test_invalid_cache_instance_names_file_and_record_end(self, tmp_path, capsys, spoil,
                                                             message):
        out, cache = self.cached(tmp_path, "train")
        scene_id = self.spoil_instance(cache, spoil)
        err = self.rerun_fails(tmp_path, out, capsys)
        assert f"corrupt scene cache {cache}: scene {scene_id}: {message}" in err

    def test_float_cache_classes_named(self, tmp_path, capsys):
        out, cache = self.cached(tmp_path, "train")
        with np.load(cache) as data:
            rewrite_arrays(cache, {"classes": data["classes"] + 0.7})
        err = self.rerun_fails(tmp_path, out, capsys)
        assert (f"error: corrupt scene cache {cache}: array 'classes' is float64, which does "
                f"not cast safely to int64") in err

    def test_object_array_cache_is_refused_unpickled(self, tmp_path, capsys):
        out, cache = self.cached(tmp_path, "eval")
        marker = tmp_path / "unpickled"
        rewrite_arrays(cache, {"ids": np.array([Tripwire(marker)], dtype=object)})
        err = self.rerun_fails(tmp_path, out, capsys)
        assert f"error: unreadable array file {cache}: Object arrays cannot be loaded" in err
        assert not marker.exists()
        with np.load(cache, allow_pickle=True) as data:  # the payload works when unpickled
            assert data["ids"].tolist() == [None] and marker.exists()

    @pytest.mark.parametrize("array, spoil, row, rule", [
        ("ids", np.zeros_like, 1, "the ids must be 0, 1, ... in order"),
        ("ids", lambda ids: ids[::-1], 0, "the ids must be 0, 1, ... in order"),
        ("extents", np.zeros_like, 0, "extents must be finite and positive"),
        ("boxes", lambda boxes: boxes + 1000.0, 0, "boxes must lie inside their scene's extent"),
        ("boxes", lambda boxes: boxes - 1000.0, 0, "boxes must lie inside their scene's extent"),
    ], ids=["ids-all-0", "ids-reversed", "extents-all-0", "boxes-moved-out", "boxes-moved-below"])
    def test_cache_breaking_generation_guarantees_named(self, tmp_path, capsys, array, spoil,
                                                        row, rule):
        # such a cache is a valid table, and used to load and evaluate as `health: ok`
        out, cache = self.cached(tmp_path, "eval")
        with np.load(cache) as data:
            spoiled = spoil(data[array])
        rewrite_arrays(cache, {array: spoiled})
        err = self.rerun_fails(tmp_path, out, capsys)
        assert (f"error: corrupt scene cache {cache}: array {array!r} row {row} is "
                f"{spoiled[row]}, but {rule}\n") in err

    @pytest.mark.parametrize("spoil, message", [
        (lambda path: path.write_bytes(path.read_bytes()[:500]),
         "unreadable array file {}: File is not a zip file"),
        (lambda path: path.write_bytes(b""), "unreadable array file {}: File is not a zip file"),
        (lambda path: path.write_text("backbone/w 1 2 3\n"),
         "unreadable array file {}: File is not a zip file"),
        (lambda path: rewrite_arrays(path, {"backbone/w": None}),
         "array file {} holds no array 'backbone/w'"),
        (lambda path: rewrite_arrays(path, {"ratios": np.array([{}], dtype=object)}),
         "unreadable array file {}: Object arrays cannot be loaded"),
        (lambda path: rewrite_arrays(path, {"num_heads": np.array([1, 1])}),
         "checkpoint {}: array 'num_heads' is not an integer scalar"),
        (lambda path: rewrite_arrays(path, {"num_heads": np.array(1.0)}),
         "checkpoint {}: array 'num_heads' is not an integer scalar"),
        *((lambda path, r=ratios: rewrite_arrays(path, {"ratios": r}),
           "checkpoint {}: array 'ratios' is not a (num_heads, 2) integer array")
          for ratios in (np.array([1, 3]), np.array([[1, 3, 5]]), np.array("1:3"),
                         np.array([[1.0, 3.0]]), np.array([[1, 3], [1, 3]]))),
        (lambda path: rewrite_arrays(path, {"head0/b_cls": np.array(["0.1", "0.2"])}),
         "checkpoint {}: array 'head0/b_cls' is <U3, not numbers"),
    ], ids=["truncated", "empty", "text", "missing-array", "object-array", "num-heads-vector",
            "num-heads-float", "ratios-vector", "ratios-3-columns", "ratios-text",
            "ratios-float", "ratios-2-rows", "weights-text"])
    def test_eval_names_damaged_checkpoint(self, tmp_path, capsys, spoil, message):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        checkpoint = out / "checkpoint.npz"
        spoil(checkpoint)
        capsys.readouterr()
        assert cli_main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"error: {message.format(checkpoint)}" in capsys.readouterr().err

    @pytest.mark.parametrize("array, value", [("backbone/w", np.nan), ("head0/w_cls", np.inf)],
                             ids=["nan-backbone", "inf-head"])
    def test_eval_refuses_non_finite_checkpoint(self, tmp_path, capsys, array, value):
        # scored, such a checkpoint gives every AP 0.0 and `health: collapsed`
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        checkpoint = out / "checkpoint.npz"
        report = (out / "eval_report.txt").read_bytes()
        with np.load(checkpoint) as data:
            spoiled = data[array].copy()
        spoiled[1, 2] = spoiled[-1, -1] = value  # the first is named
        rewrite_arrays(checkpoint, {array: spoiled})
        capsys.readouterr()
        assert cli_main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert (f"error: checkpoint {checkpoint}: array {array!r} holds {value} at index (1, 2)\n"
                in capsys.readouterr().err)
        assert (out / "eval_report.txt").read_bytes() == report  # nothing was scored

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sweep_exit_code_names_failed_runs(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY + "[train]\nlearning_rate = 1e200\n")
        out = tmp_path / "sweep"
        # the one-head run diverges and fails; the two-head run collapses and completes
        code = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         "--axis", "mode", "--values", "rga+prm,baseline", "--seeds", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert ("sweep cell baseline: 1 of 1 runs failed: seed 3: FloatingPointError: "
                "training diverged") in err
        assert "rga+prm" not in err
        with open(out / "sweep.csv", newline="") as fh:
            assert [r["n_failed"] for r in csv.DictReader(fh)] == ["0", "1"]

    @pytest.mark.parametrize("flags,message", [
        (["--axis", "lambda0", "--values", "abc", "--seeds", "3"],
         "bad --values 'abc': could not convert string to float: 'abc'"),
        (["--axis", "ratio-pair", "--values", "1:x", "--seeds", "3"],
         "bad --values '1:x': ratio must match 'P:N', got '1:x'"),
        (["--axis", "lambda0", "--values", "2", "--seeds", "x"],
         "bad --seeds 'x': invalid literal for int() with base 10: 'x'"),
        (["--axis", "mode", "--values", "foo", "--seeds", "3"], "unknown modes ['foo']"),
        (["--axis", "lambda0", "--values", "2", "--seeds", "1,1,2"],
         "repeated sweep seeds [1]: each seed runs once per cell"),
        (["--axis", "lambda0", "--values", "7,7.0", "--seeds", "1"],
         "repeated sweep values ['7.0']: each value runs once"),
        (["--axis", "mode", "--values", "prm,baseline,prm", "--seeds", "1"],
         "repeated sweep values ['prm']: each value runs once"),
        (["--axis", "sampling-mode", "--values", "soft,sfot", "--seeds", "3"],
         "sweep cell sfot: unknown sampling mode 'sfot'"),
        (["--axis", "ratio-pair", "--values", "1:1+1:9,1:39+1:9", "--seeds", "3"],
         "sweep cell 1:39+1:9: batch size smaller than one ratio unit"),
    ], ids=["lambda0", "ratio-pair", "seeds", "mode", "seeds-repeated", "lambda0-repeated",
            "mode-repeated", "sampling-mode", "ratio-pair-batch"])
    def test_sweep_flag_typo_exits_1_before_any_work(self, tmp_path, capsys, flags, message):
        out = tmp_path / "sweep"
        assert cli_main(["sweep", "--config", str(self.write_cfg(tmp_path)),
                         "--out", str(out), *flags]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_checks_each_cell_before_any_work(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "sweep"
        # the valid first cell does not run either
        code = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         "--axis", "lambda0", "--values", "2,0.5", "--seeds", "3"])
        assert code == 1
        assert ("config error: sweep cell 0.5: initial magnification must be >= 1"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sampling_ablation_exit_code(self, tmp_path, capsys):
        script = load_sampling_ablation()
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY + "[train]\nlearning_rate = 1e200\n")
        out = tmp_path / "ablation"
        # at this learning rate the soft run diverges and fails
        assert script.main(["--config", str(cfg_path), "--out", str(out),
                            "--ratios", "1:3", "--seeds", "3"]) == 2
        assert "sweep cell soft_1:3: 1 of 1 runs failed" in capsys.readouterr().err
        assert (out / "sampling_ablation.csv").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--ratios", "1:1", "1:x"], "bad --ratios '1:x': ratio must match 'P:N', got '1:x'"),
        (["--seeds", "3", "x"], "bad --seeds 'x': invalid literal for int() with base 10: 'x'"),
        (["--seeds", "11", "11"], "repeated sweep seeds [11]: each seed runs once per cell"),
        (["--ratios", "1:1", "1:3,1:1"], "repeated sweep ratios ['1:1']: each ratio runs once"),
        (["--ratios", "1:1", "1:39"],
         "sweep cell hard_1:39: batch size smaller than one ratio unit"),
    ], ids=["ratios", "seeds", "seeds-repeated", "ratios-repeated", "ratios-batch"])
    def test_sampling_ablation_typo_exits_1_before_any_work(self, tmp_path, capsys, flags,
                                                             message):
        out = tmp_path / "ablation"
        assert load_sampling_ablation().main(
            ["--config", str(self.write_cfg(tmp_path)), "--out", str(out), *flags]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_rejects_other_head_layout(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = str(tmp_path / "run")
        assert cli_main(["train", "--config", str(cfg_path), "--out", out,
                         "--mode", "prm"]) == 0
        swapped = tmp_path / "swapped.cfg"
        swapped.write_text(TINY.replace("batch_size = 32", "batch_size = 32\nratios = 1:9,1:1"))
        capsys.readouterr()
        assert cli_main(["eval", "--config", str(swapped), "--out", out]) == 1
        err = capsys.readouterr().err
        assert "heads 1:1+1:9, the config has 1:9+1:1" in err
        assert cli_main(["eval", "--config", str(cfg_path), "--out", out]) == 1
        assert "heads 1:1+1:9, the config has 1:3" in capsys.readouterr().err
        assert cli_main(["eval", "--config", str(cfg_path), "--out", out,
                         "--mode", "prm"]) == 0

    @pytest.mark.parametrize("classes,change,stored,config_layout", [
        (3, ("hidden = 8", "hidden = 16"), "11x8 8 8x8 8 8x4 4 8x4 4 8x8 8 8x4 4 8x4 4",
         "(11 features, hidden 16, 3 classes) has 11x16 16 16x16"),
        (4, None, "12x8 8 8x8 8 8x5 5 8x4 4 8x8 8 8x5 5 8x4 4",
         "(11 features, hidden 8, 3 classes) has 11x8 8 8x8 8 8x4 4"),
    ], ids=["hidden", "num_classes"])
    def test_eval_rejects_other_network_shapes(self, tmp_path, capsys, classes, change, stored,
                                               config_layout):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out),
                         "--mode", "rga+prm"]) == 0
        if classes != SCENE.num_classes:  # no config sets the class count, so build the model
            policies = load_config(cfg_path, mode="rga+prm").policies
            model = prm_mod.init_model(FEATURES.dim(classes), 8, classes, policies, 3)
            save_params(out / "checkpoint.npz", model.backbone, model.heads,
                        MODES["rga+prm"]["ratios"])
        other = tmp_path / "other.cfg"
        other.write_text(TINY.replace(*change) if change else TINY)
        capsys.readouterr()
        assert cli_main(["eval", "--config", str(other), "--out", str(out),
                         "--mode", "rga+prm"]) == 1
        err = capsys.readouterr().err
        assert f"has parameter shapes {stored}, " in err
        assert config_layout in err

    @pytest.mark.parametrize("kind", ["heads of different shapes", "no heads"])
    def test_eval_rejects_checkpoint_heads_that_do_not_stack(self, tmp_path, capsys, kind):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out),
                         "--mode", "rga+prm"]) == 0
        checkpoint = out / "checkpoint.npz"
        with np.load(checkpoint) as data:
            arrays = {k: data[k] for k in data.files}
        if kind == "no heads":
            arrays = {k: v for k, v in arrays.items() if not k.startswith("head")}
            arrays.update(num_heads=np.array(0), ratios=np.zeros((0, 2), dtype=np.int64))
        else:
            arrays["head1/w_cls"] = arrays["head1/w_cls"][:, :2]
        np.savez(checkpoint, **arrays)
        capsys.readouterr()
        assert cli_main(["eval", "--config", str(cfg_path), "--out", str(out),
                         "--mode", "rga+prm"]) == 2
        assert f"error: checkpoint {checkpoint} holds {kind}\n" in capsys.readouterr().err

    def test_eval_rejects_checkpoint_without_layout(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        checkpoint = out / "checkpoint.npz"
        rewrite_arrays(checkpoint, {"ratios": None})
        capsys.readouterr()
        assert cli_main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(checkpoint) in err and "records no head ratios" in err


def load_sampling_ablation():
    """scripts/sampling_ablation.py as a module."""
    spec = importlib.util.spec_from_file_location(
        "sampling_ablation", Path(__file__).resolve().parent.parent / "scripts"
        / "sampling_ablation.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_perfbench_tracer_installs(monkeypatch):
    """Every name the benchmark tracer patches still resolves where it looks."""
    import detlab.cli  # noqa: F401  (loads every module the tracer patches)
    import detlab.synthdata

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from tracer import Tracer

    original = detlab.synthdata.iou_matrix
    tracer = Tracer()
    tracer.install()
    try:
        assert detlab.synthdata.iou_matrix is not original
    finally:
        tracer.uninstall()
    assert detlab.synthdata.iou_matrix is original


# Traced names that no run calls, so they record no span: labeling and the
# training step stopped using them. Moving them out of the tracer is a change
# to the benchmark (ROADMAP item 2, "Fix the tracer").
DEAD_TRACE_NAMES = {"geometry.iou_matrix", "net.total_loss"}


def test_every_traced_name_records_a_span(tmp_path, monkeypatch):
    """A two-head annealed train and eval call every other name the benchmark
    tracer patches (a one-head run never calls score_gap_stats), and eval
    predicts and suppresses once per POOL_BLOCK of scenes, not once per scene."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from tracer import TRACE_METHODS, TRACE_POINTS, Tracer

    n_eval = harness.POOL_BLOCK * 5 // 4
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(TINY.replace("[eval]\nscenes = 20", f"[eval]\nscenes = {n_eval}"))
    tracer = Tracer()
    tracer.install()
    try:
        for command in ("train", "eval"):
            eval_from = len(tracer.spans)
            assert cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                             "--mode", "rga+prm"]) == 0
    finally:
        tracer.uninstall()
    # a span may carry a variant after its name, as net.forward.train does
    recorded = {span[0] for span in tracer.spans}
    silent = {name for name, *_ in TRACE_POINTS + TRACE_METHODS
              if not any(r == name or r.startswith(name + ".") for r in recorded)}
    assert silent == DEAD_TRACE_NAMES
    blocks = -(-n_eval // harness.POOL_BLOCK)
    assert blocks == 2  # a full block and a partial one
    for name in ("prm.prm_predict", "metrics.nms"):
        assert sum(span[0] == name for span in tracer.spans[eval_from:]) == blocks
