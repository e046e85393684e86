import csv
import importlib.util
import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from detlab import harness
from detlab.cli import main as cli_main
from detlab.config import MODES, SCHEMA, ConfigError, ExperimentConfig, load_config, parse_config
from detlab.files import atomic_write
from detlab.harness import axis_cells, run_experiment, sweep
from detlab.metrics import MetricsLog, MetricsRow
from detlab.net import init_backbone, save_params

TINY = """
[scene]
num_classes = 3

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
# hard sampling; manifest.json records this hash, so it must not drift.
DESK_HASHES = {
    "baseline": ("af4774899ef9230f", "33ff32057b1bc68c"),
    "rga": ("77859134d4325398", "fad9230f03f21439"),
    "prm": ("359fa79be1725b44", "8073c6bf2268a8e8"),
    "rga+prm": ("727798cf3931345b", "ac2d9971191a6489"),
}

# A valid non-default value for every config key, the field it must set
# (`model.field` for the scene, rpn and feature models) and that field's value.
KEY_CASES = {
    ("scene", "extent_w"): ("120", "scene.extent", (120.0, 100.0)),
    ("scene", "extent_h"): ("90", "scene.extent", (100.0, 90.0)),
    ("scene", "num_classes"): ("4", "scene.num_classes", 4),
    ("scene", "box_min"): ("6", "scene.box_size_range", (6.0, 30.0)),
    ("scene", "box_max"): ("25", "scene.box_size_range", (8.0, 25.0)),
    ("scene", "gt_count_weights"): ("1:0.5, 2:0.5", "scene.gt_count_weights", {1: 0.5, 2: 0.5}),
    ("rpn", "jitter_start"): ("0.7", "rpn.jitter_start", 0.7),
    ("rpn", "jitter_end"): ("0.1", "rpn.jitter_end", 0.1),
    ("rpn", "fg_per_gt"): ("6", "rpn.fg_per_gt", 6),
    ("rpn", "bg_per_scene"): ("40", "rpn.bg_per_scene", 40),
    ("features", "noise_dims"): ("4", "feat.noise_dims", 4),
    ("features", "noise_sigma"): ("0.5", "feat.noise_sigma", 0.5),
    ("sampling", "mode"): ("hard", "sampling_mode", "hard"),
    ("sampling", "ratios"): ("1:9, 1:1", "ratios", ((1, 9), (1, 1))),
    ("sampling", "batch_size"): ("256", "batch_size", 256),
    ("rga", "enabled"): ("true", "rga_enabled", True),
    ("rga", "lambda0"): ("5", "lambda0", 5.0),
    ("rga", "anneal"): ("false", "anneal", False),
    ("train", "learning_rate"): ("0.1", "learning_rate", 0.1),
    ("train", "steps"): ("100", "total_steps", 100),
    ("train", "hidden"): ("8", "hidden", 8),
    ("train", "decay_points"): ("0.5, 0.75", "decay_points", (0.5, 0.75)),
    ("train", "decay_factor"): ("0.5", "decay_factor", 0.5),
    ("train", "train_scenes"): ("100", "train_scenes", 100),
    ("train", "cls_weight"): ("2", "cls_weight", 2.0),
    ("train", "reg_weight"): ("3", "reg_weight", 3.0),
    ("eval", "scenes"): ("50", "eval_scenes", 50),
    ("eval", "nms_threshold"): ("0.6", "nms_threshold", 0.6),
    ("eval", "score_floor"): ("0.1", "score_floor", 0.1),
    ("eval", "max_detections"): ("50", "max_detections", 50),
    ("run", "seed"): ("2", "seed", 2),
    ("run", "out"): ("elsewhere", "out", "elsewhere"),
    ("run", "mode"): ("rga", "rga_enabled", True),
}


def tiny_cfg(tmp_path, **overrides):
    cfg = parse_config(TINY, out=str(tmp_path / "run"))
    return replace(cfg, **overrides)


def flat_fields(cfg: ExperimentConfig) -> dict:
    """The config's fields, with the scene, rpn and feature models' fields
    spelled `model.field`."""
    flat = {}
    for name, value in asdict(cfg).items():
        if name in ("scene", "rpn", "feat"):
            flat.update({f"{name}.{key}": v for key, v in value.items()})
        else:
            flat[name] = value
    return flat


class TestParseConfig:
    def test_empty_document_gives_stock_defaults(self):
        cfg = parse_config("", seed=1)
        assert cfg.batch_size == 512
        assert cfg.ratios == ((1, 3),)
        assert cfg.lambda0 == 7.0
        assert cfg.total_steps == 3000
        assert cfg.mode == "baseline"
        assert cfg.policies[0].pos_target == 128

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

    @pytest.mark.parametrize("section,key", [(s, k) for s, keys in SCHEMA.items() for k in keys])
    def test_every_key_reaches_its_field(self, section, key):
        text, target, value = KEY_CASES[section, key]
        base = parse_config("", seed=1)
        cfg = parse_config(f"[{section}]\n{key} = {text}\n", seed=None if key == "seed" else 1)
        a, b = flat_fields(base), flat_fields(cfg)
        assert {name: b[name] for name in a if a[name] != b[name]} == {target: value}
        assert (cfg.config_hash() == base.config_hash()) == (key == "out")

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

    def test_artifacts_exist(self, tmp_path):
        result = run_experiment(tiny_cfg(tmp_path))
        for name in ("metrics.csv", "gradnorm.csv", "checkpoint.npz",
                     "eval_report.txt", "eval_summary.json", "manifest.json"):
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

    def test_metrics_columns(self, tmp_path):
        result = run_experiment(tiny_cfg(tmp_path))
        header = (result.out_dir / "metrics.csv").read_text().splitlines()[0]
        assert header == ("step,pos_count_unique,pos_count_effective,"
                          "pos_acc,neg_acc,lambda,fg_score_h1")

    def test_pool_smaller_than_batch_errors(self, tmp_path):
        cfg = tiny_cfg(tmp_path, batch_size=512)
        with pytest.raises(Exception):
            run_experiment(cfg)


class Unprintable(float):
    def __repr__(self):
        raise RuntimeError("writer failed")


def fail_metrics_csv(path):
    log = MetricsLog()
    for step, score in enumerate((0.5, Unprintable(0.5))):  # fails on the second row
        log.append(MetricsRow(step=step, pos_count_unique=1, pos_count_effective=1,
                              pos_acc=None, neg_acc=None, lam=1.0, fg_scores=(score,)))
    log.to_csv(path)


def fail_checkpoint(path):
    backbone = init_backbone(3, 2, np.random.default_rng(0))
    # an array that cannot be pickled, written after the parameters
    save_params(path, backbone, [], late=np.array([lambda: 0], dtype=object))


def fail_plain(path):
    with atomic_write(path) as fh:
        fh.write("partial")
        raise RuntimeError("writer failed")


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", [fail_plain, fail_metrics_csv, fail_checkpoint],
                             ids=["atomic_write", "metrics_csv", "checkpoint"])
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

    def test_failed_cell_does_not_stop_sweep(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "base")
        # second value asks for an impossible batch and must fail alone
        rows = sweep(cfg, axis_cells("ratio-pair", [((1, 1), (1, 9)), ((1, 39), (1, 9))]),
                     [3], tmp_path / "sweep")
        assert rows[0]["n_failed"] == 0 and rows[0]["errors"] == ""
        assert rows[1]["n_failed"] == 1
        assert rows[1]["errors"] == (
            "seed 3: ValueError: batch size smaller than one ratio unit")
        with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
            written = list(csv.DictReader(fh))
        assert written[1]["errors"] == rows[1]["errors"]

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

    def test_gen_data(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "data"
        assert cli_main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert list(out.glob("dataset_train_*.txt"))
        assert list(out.glob("dataset_eval_*.txt"))

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[sampling]\nratios = 1-9\n")
        assert cli_main(["train", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("doc,message", [
        (TINY.replace("num_classes = 3", "num_classes = 0"),
         "need at least one foreground class"),
        (TINY + "[rpn]\njitter_start = 0.01\njitter_end = 0.5\n",
         "jitter must be non-negative and non-increasing"),
        (TINY + "[train]\nlearning_rate = -1\n", "learning rate must be positive"),
        (TINY + "[train]\ndecay_factor = 1.5\n", "decay factor must lie in (0, 1)"),
        (TINY + "[rga]\nenabled = true\nlambda0 = 0.5\n", "initial magnification must be >= 1"),
        (TINY.replace("steps = 40", "steps = 0"), "total_steps must be >= 1"),
        (TINY.replace("train_scenes = 20", "train_scenes = 0"), "train_scenes must be >= 1"),
        (TINY.replace("[eval]\nscenes = 20", "[eval]\nscenes = 0"), "eval_scenes must be >= 1"),
    ], ids=["num_classes", "jitter", "learning_rate", "decay_factor", "lambda0",
            "steps", "train_scenes", "eval_scenes"])
    def test_invalid_value_exits_1_before_any_work(self, tmp_path, capsys, doc, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(doc)
        out = tmp_path / "run"
        for command in ("gen-data", "train"):
            assert cli_main([command, "--config", str(bad), "--out", str(out)]) == 1
            assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_error_exit_code(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        assert cli_main(["report", "--config", str(cfg_path),
                         "--out", str(tmp_path / "nowhere")]) == 2

    # the contract is the error naming the step; a numpy RuntimeWarning on the
    # way there must not stand in for it
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_training_exits_2_naming_the_step(self, tmp_path, capsys,
                                                          monkeypatch):
        scene_proposals = harness._scene_proposals

        def poisoned(cfg, scene, q, seed_tag):
            pool = scene_proposals(cfg, scene, q, seed_tag)
            if seed_tag == ("prop", 3):
                pool.features[0, 0] = np.nan
            return pool

        monkeypatch.setattr(harness, "_scene_proposals", poisoned)
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "error: training went non-finite at step 3:" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

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

    def test_truncated_cache_rejected(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "data"
        assert cli_main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
        (cache,) = out.glob("dataset_train_*.txt")
        lines = cache.read_text().splitlines()
        cut = [i for i, line in enumerate(lines) if line.startswith("scene ")][10]
        cache.write_text("\n".join(lines[:cut]) + "\n")  # 10 whole scenes of 20
        assert cli_main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(cache) in err and "holds 10 scenes, expected 20" in err

    def test_corrupt_cache_names_file(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "data"
        assert cli_main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
        (cache,) = out.glob("dataset_eval_*.txt")
        lines = cache.read_text().splitlines()
        cache.write_text("\n".join(lines[:-1] + ["inst 1 0.0 0.0"]) + "\n")
        assert cli_main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(cache) in err and "line " in err

    def test_degenerate_cache_box_names_file_and_record(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "data"
        assert cli_main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
        (cache,) = out.glob("dataset_eval_*.txt")
        lines = cache.read_text().splitlines()
        head = next(i for i, line in enumerate(lines)
                    if line.startswith("scene ") and int(line.split()[4]) >= 2)
        p = lines[head + 1].split()  # the record's first instance gets x2 = x1
        lines[head + 1] = " ".join(p[:4] + [p[2]] + p[5:])
        cache.write_text("\n".join(lines) + "\n")
        assert cli_main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        last = head + int(lines[head].split()[4]) + 1  # the record's last line, 1-based
        assert str(cache) in err
        assert f"line {last}: ground-truth boxes must be finite and non-degenerate" in err

    def test_sweep_exit_code_names_failed_runs(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "sweep"
        # the second cell asks for an impossible batch; the first still runs
        code = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         "--axis", "ratio-pair", "--values", "1:1+1:9,1:39+1:9",
                         "--seeds", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "sweep cell 1:39+1:9: 1 of 1 runs failed: seed 3: ValueError" in err
        assert "1:1+1:9" not in err
        with open(out / "sweep.csv", newline="") as fh:
            assert [r["n_failed"] for r in csv.DictReader(fh)] == ["0", "1"]

    def test_sweep_checks_each_cell_before_any_work(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "sweep"
        code = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         "--axis", "lambda0", "--values", "0.5", "--seeds", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "sweep cell 0.5: 1 of 1 runs failed: seed 3: ValueError: " \
               "initial magnification must be >= 1" in err
        assert (out / "sweep.csv").exists() and not (out / "0.5").exists()

    def test_sampling_ablation_exit_code(self, tmp_path, capsys):
        spec = importlib.util.spec_from_file_location(
            "sampling_ablation", Path(__file__).resolve().parent.parent / "scripts"
            / "sampling_ablation.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        out = tmp_path / "ablation"
        assert script.main(["--config", str(self.write_cfg(tmp_path)), "--out", str(out),
                            "--ratios", "1:39", "--seeds", "3"]) == 2
        assert "sweep cell hard_1:39: 1 of 1 runs failed" in capsys.readouterr().err
        assert (out / "sampling_ablation.csv").exists()

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

    def test_eval_rejects_checkpoint_without_layout(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        checkpoint = out / "checkpoint.npz"
        with np.load(checkpoint) as data:
            arrays = {k: data[k] for k in data.files if k != "ratios"}
        np.savez(checkpoint, **arrays)
        capsys.readouterr()
        assert cli_main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(checkpoint) in err and "records no head ratios" in err


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
