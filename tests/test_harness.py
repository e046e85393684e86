import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from detlab.cli import main as cli_main
from detlab.config import MODES, ConfigError, ExperimentConfig, parse_config
from detlab.harness import axis_cells, run_experiment, sweep

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


def tiny_cfg(tmp_path, **overrides):
    cfg = parse_config(TINY, out=str(tmp_path / "run"))
    return replace(cfg, **overrides)


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

    def test_runtime_error_exit_code(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        assert cli_main(["report", "--config", str(cfg_path),
                         "--out", str(tmp_path / "nowhere")]) == 2

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
