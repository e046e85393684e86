"""Acceptance gate: exact contracts plus desk-scale behavioral reproduction.

The exact contracts are deterministic and fast. The behavioral checks train a
small matrix of runs (7 variants x 5 seeds) on the default desk-scale config
and compare seed medians, so this module takes several minutes end to end.
Each check prints a single PASS/FAIL line. Each behavioral check also records
its per-seed values, its statistics and their distance to each threshold in
one JSON file beside the matrix's runs, and prints that file's path.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from detlab import net
from detlab.config import MODES, load_config, parse_config
from detlab.harness import run_experiment
from detlab.metrics import Detections, compute_ap, nms
from detlab.net import load_params
from detlab.prm import ensemble_scores, select_regression
from detlab.rga import anneal_factors, apply_rga
from detlab.sampler import SamplingPolicy, sample
from detlab.seeding import derive_seed, generators
from detlab.synthdata import generate_proposals, generate_scenes
from scene_oracle import scene_table, scenes_of
from step_forms import backward_of, flat_gradients, unwritten_like

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"
SEEDS = (11, 23, 37, 53, 71)

VARIANTS = {
    "baseline": MODES["baseline"],
    "rga": MODES["rga"],
    "prm": MODES["prm"],
    "rga_prm": MODES["rga+prm"],
    "soft11": dict(MODES["baseline"], ratios=((1, 1),)),
    "soft19": dict(MODES["baseline"], ratios=((1, 9),)),
    "hard11": dict(MODES["baseline"], ratios=((1, 1),), sampling_mode="hard"),
}


def report(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"acceptance {label}: {status}{suffix}")
    assert ok, f"{label} failed{suffix}"


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory):
    """Train the full desk-scale run matrix once and share it across checks."""
    root = tmp_path_factory.mktemp("desk_runs")
    runs = {}
    for seed in SEEDS:
        base = load_config(CONFIG_PATH, seed=seed, out=str(root))
        for name, overrides in VARIANTS.items():
            cfg = replace(base, out=str(root / f"{name}_s{seed}"), **overrides)
            runs[(name, seed)] = run_experiment(cfg)
    return runs


def per_seed(**series):
    """{seed: {name: value}} from lists of per-seed values in SEEDS order."""
    return {str(seed): {name: float(values[i]) for name, values in series.items()}
            for i, seed in enumerate(SEEDS)}


def bound(value, relation, threshold):
    """A statistic against its threshold; `margin` is the distance to the
    threshold, positive on the passing side."""
    margin = value - threshold if relation.startswith(">") else threshold - value
    return {"value": value, "relation": relation, "threshold": threshold, "margin": margin}


def record_evidence(runs, check, seeds, **statistics):
    """Adds one check's per-seed values and statistics to the evidence file in
    the matrix's directory and prints the file's path. Observational only:
    the checks' asserts read none of it."""
    path = next(iter(runs.values())).out_dir.parent / "acceptance_evidence.json"
    evidence = json.loads(path.read_text()) if path.exists() else {}
    evidence[check] = {"per_seed": seeds, "statistics": statistics}
    path.write_text(json.dumps(evidence, indent=2, sort_keys=True) + "\n")
    print(f"acceptance evidence: {path}")


def median_over_seeds(runs, name, fn):
    return float(np.median([fn(runs[(name, seed)]) for seed in SEEDS]))


def pos_acc_series(run):
    return np.array(
        [v if v is not None else np.nan for v in run.metrics.columns["pos_acc"]]
    )


TINY_CFG = """
[sampling]
batch_size = 32

[train]
steps = 40
train_scenes = 16
hidden = 8

[eval]
scenes = 8

[run]
seed = 5
"""


# SHA-256 of the artifacts of a TINY_CFG run per (mode, sampling), taken before
# each training step's batch was read from its pool forward. Like
# perfbench/reference.json they assume the pinned numpy (2.4.6) and its
# OpenBLAS: another BLAS may round a matmul differently and change every hash.
PINNED_FILES = ("metrics.csv", "gradnorm.csv", "eval_report.txt", "checkpoint.npz")
PINNED_SHA256 = {
    ("baseline", "soft"): (
        "fc306f520c6d6b4e16f25d5511d8af6b573fcf112fe36df544d7d5d3a02908c4",
        "4233a63ce9b27fb99d19f8e588b98b8e5a52da8fb72fdba0ec2909ff8fae5645",
        "11734ba0d9d8ecc447d8a83b5a508e66534d5eab707694e1bfd15b45d0192b82",
        "670556efd0d5d68efb32cb9cdef1fe267813dbae1a574e03ee0987e25ecda9d5",
    ),
    ("rga", "soft"): (
        "7630faa578ee0a10bca4e5b55e6eb5984c8349c8f0d91f778acb0f8348b3a454",
        "40e5560e234fb01074c2cf7193d97e446429e127bfafb409c63db4cbda2a285f",
        "8016fe78a29f49c88609160d8330f62bfe12e48dbc3a8a7c265a81f05bbf6b19",
        "9bc164f24d1615cb17abb52dc145f5af047a8a27239ebc65c1627aade1bcd5c7",
    ),
    ("prm", "soft"): (
        "4b5ac84161635d3d159910ae9ae48df1e10ba95c258e7558a0e4bc7567cd7d5d",
        "1d7ba67851f465c019b359e7b2e98ed423d8c0dd37c51c7a896f94c839a8d817",
        "e5fb270d7b13461db83635b898b6f02263c05c17461717d3caa7b6598c3b89c0",
        "082317694d68a60f5030061cc4493e2fd252815f78a8c0c7a36b7ff6b23a1629",
    ),
    ("rga+prm", "soft"): (
        "290bb7d2fd1901adb490bf1ad54d6f227731c468f11718d037c8d8532f11b6f8",
        "7f26e353d1a9e983a4fb1552516bf06589914aaf84ca484f112e993b28530780",
        "0ea652cb7c52e855db21ffdc6fddc8fb91cff90b7e89ec1cf32a4161cbf797a4",
        "ef4742458fcb945e450cb4081762fcc9f76d20550aa45c92ed9d75e91edd9e24",
    ),
    ("baseline", "hard"): (
        "92f7fdf8cf282e66fb862b6b3e5f0761d0e1b7408bdf8fc980f95e5be1fc4401",
        "517ed8b81efc6aa64e3505288cf704b6a5380348199206a510aeafa41d43074d",
        "f902e1d773b819effbb543a9cdf282fec14192947748008eeb47a7c269cc701f",
        "60600b2bb9c237d22bcd8e0b9be73339a479d86581a347d116d67afb1aca9c23",
    ),
}


def tiny_run(tmp_path, name, **overrides):
    cfg = parse_config(TINY_CFG, out=str(tmp_path / name))
    return run_experiment(replace(cfg, **overrides))


# --- exact contracts --------------------------------------------------------


class TestExactContracts:
    def test_01_anneal_schedule_endpoints(self):
        ok = True
        for lam0 in (3.0, 5.0, 7.0, 9.0):
            ok = ok and anneal_factors(lam0, 3000, [0, 3000]) == [lam0, 1.0]
        ok = ok and anneal_factors(7.0, 3000, [1500]) == [4.0]
        report("01 anneal schedule endpoints and midpoint", ok)

    def test_02_rga_scales_heads_only(self):
        rng = np.random.default_rng(0)
        grads = flat_gradients(
            net.init_backbone(6, 4, rng),
            net.stack_heads([net.init_head(4, 3, rng) for _ in range(2)]),
        )
        lam = 4.25
        out = apply_rga(grads, lam, unwritten_like(grads))
        ok = all(
            np.abs(b / lam - a).max() <= 1e-12 * np.abs(a).max()
            for a, b in zip(grads.heads.arrays(), out.heads.arrays())
        )
        ok = ok and all(
            a.tobytes() == b.tobytes()
            for a, b in zip(grads.backbone.arrays(), out.backbone.arrays())
        )
        report("02a head gradients scale, backbone untouched", ok)

    def test_02_lambda0_one_matches_baseline_run(self, tmp_path):
        plain = tiny_run(tmp_path, "plain")
        unit = tiny_run(tmp_path, "unit", **MODES["rga"], lambda0=1.0)
        same_csv = (
            (plain.out_dir / "metrics.csv").read_bytes()
            == (unit.out_dir / "metrics.csv").read_bytes()
        )
        bb_a, heads_a, _ = load_params(plain.out_dir / "checkpoint.npz")
        bb_b, heads_b, _ = load_params(unit.out_dir / "checkpoint.npz")
        same_params = all(
            np.array_equal(x, y)
            for x, y in zip(
                bb_a.arrays() + heads_a.arrays(),
                bb_b.arrays() + heads_b.arrays(),
            )
        )
        report("02b unit magnification run is bit-identical", same_csv and same_params)

    def test_03_soft_sampler_exhaustive(self):
        policy = SamplingPolicy(mode="soft", ratio=(1, 3), batch_size=512)
        ok = True
        for n_pos in range(513):
            classes = np.concatenate(
                [np.ones(n_pos, dtype=np.int64), np.zeros(512, dtype=np.int64)]
            )
            batch = sample(classes, policy, np.random.default_rng(n_pos))
            ok = ok and batch.pos_count_unique == min(n_pos, 128)
            ok = ok and len(batch.indices) == 512
            ok = ok and np.all(batch.multiplicities == 1)
            ok = ok and len(np.unique(batch.indices)) == 512
            if not ok:
                break
        report("03 soft sampler exhaustive 0..512 positives", ok)

    def test_04_hard_sampler_exhaustive(self):
        policy = SamplingPolicy(mode="hard", ratio=(1, 3), batch_size=512)
        ok = True
        for n_pos in range(1, 128):
            classes = np.concatenate(
                [np.ones(n_pos, dtype=np.int64), np.zeros(512, dtype=np.int64)]
            )
            batch = sample(classes, policy, np.random.default_rng(n_pos))
            ok = ok and batch.pos_count_effective == 128
            pos_mults = batch.multiplicities[: batch.pos_count_unique]
            ok = ok and pos_mults.max() - pos_mults.min() <= 1
            if not ok:
                break
        report("04 hard sampler hits effective 128 for 1..127 positives", ok)

    def test_05_gradient_check(self):
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            n = int(rng.integers(2, 9))
            d = int(rng.integers(2, 7))
            h = int(rng.integers(2, 6))
            c = int(rng.integers(1, 4))
            backbone = net.init_backbone(d, h, rng)
            head = net.init_head(h, c, rng)
            x = rng.normal(size=(n, d))
            targets = rng.integers(0, c + 1, size=n)
            pos_mask = targets > 0
            reg_targets = rng.normal(size=(n, 4))
            mults = rng.integers(1, 4, size=n).astype(float)

            def loss_value():
                logits, deltas, _ = net.forward(backbone, head, x)
                return net.total_loss(
                    logits, deltas, targets, reg_targets, pos_mask, mults
                )

            grad_bb, grad_head = backward_of(
                head, x, net.forward(backbone, head, x), targets, reg_targets, pos_mask, mults
            )
            analytic = grad_bb.arrays() + grad_head.arrays()
            params = backbone.arrays() + head.arrays()
            for param, grad in zip(params, analytic):
                flat = param.ravel()
                for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                    old = flat[idx]
                    flat[idx] = old + 1e-5
                    up = loss_value()
                    flat[idx] = old - 1e-5
                    down = loss_value()
                    flat[idx] = old
                    numeric = (up - down) / 2e-5
                    denom = max(abs(numeric), abs(grad.ravel()[idx]), 1e-8)
                    worst = max(worst, abs(numeric - grad.ravel()[idx]) / denom)
        report("05 analytic gradients vs finite differences", worst < 1e-4,
               f"max rel err {worst:.2e}")

    def test_06_ensemble_contracts(self):
        rng = np.random.default_rng(7)
        head_logits = [rng.normal(size=(9, 4)) for _ in range(3)]
        brute = sum(head_logits) / len(head_logits)
        ok = np.abs(ensemble_scores(head_logits) - brute).max() <= 1e-12
        policies = [
            SamplingPolicy("soft", (1, 1), 32),
            SamplingPolicy("soft", (1, 9), 32),
        ]
        deltas = [rng.normal(size=(9, 4)) for _ in range(2)]
        chosen = select_regression(policies, deltas)
        ok = ok and chosen is deltas[0]
        report("06 logit-mean ensemble and regression head selection", ok)

    def test_07_triangle_inequality_all_steps(self, tmp_path):
        run = tiny_run(tmp_path, "tri", **MODES["prm"])
        norms = run.gradnorm.columns
        head_norms = zip(*(v for k, v in norms.items() if k.startswith("norm_h")))
        ok = all(
            norm_sum <= sum(heads) + 1e-9
            for norm_sum, heads in zip(norms["norm_sum"], head_norms, strict=True)
        ) and len(norms["step"]) == 40
        report("07 summed-gradient norm triangle inequality", ok)

    def test_08_evaluation_contracts(self):
        scenes = scene_table([
            ([(5, 5, 20, 20), (40, 40, 70, 60)], [1, 2]),
            ([(10, 30, 25, 55)], [3]),
        ])
        gts = [(i, box, c) for i, s in enumerate(scenes_of(scenes))
               for box, c in zip(s.gt_boxes, s.gt_classes)]
        dets = Detections([i for i, _, _ in gts], [c for _, _, c in gts],
                          [0.9] * len(gts), [box for _, box, _ in gts])
        perfect = compute_ap(dets, scenes, buckets=())
        ok = perfect.mean_ap == 1.0
        rng = np.random.default_rng(8)
        noisy_boxes, noisy_scores = [], []
        for _, box, _ in gts:
            jx, jy = rng.uniform(-3, 3, size=2)
            noisy_boxes.append(box + [jx, jy, jx, jy])
            noisy_scores.append(float(rng.uniform(0.3, 1.0)))
        noisy = Detections(dets.scenes, dets.classes, noisy_scores, noisy_boxes)
        noisy_ap = compute_ap(noisy, scenes, buckets=())
        ok = ok and noisy_ap.ap75 <= noisy_ap.ap50
        for i in range(len(scenes)):  # NMS runs per scene
            rows = np.flatnonzero(noisy.scenes == i)
            once = rows[nms(noisy.boxes[rows], noisy.scores[rows], noisy.classes[rows], 0.5)]
            again = nms(noisy.boxes[once], noisy.scores[once], noisy.classes[once], 0.5)
            ok = ok and again.tolist() == list(range(len(once)))
        report("08 perfect AP, threshold monotonicity, NMS idempotence", ok)

    @pytest.mark.parametrize("mode, sampling", PINNED_SHA256)
    def test_08b_artifact_bytes_are_pinned(self, tmp_path, mode, sampling):
        run = tiny_run(tmp_path, "pinned", **MODES[mode], sampling_mode=sampling)
        got = tuple(hashlib.sha256((run.out_dir / name).read_bytes()).hexdigest()
                    for name in PINNED_FILES)
        changed = [name for name, a, b in zip(PINNED_FILES, got, PINNED_SHA256[mode, sampling])
                   if a != b]
        report(f"08b {mode} {sampling} artifact bytes unchanged", not changed,
               ", ".join(changed))


# --- behavioral reproduction ------------------------------------------------


@pytest.mark.acceptance
class TestBehavioral:
    def test_09_positive_scarcity_and_growth(self, desk_runs):
        early_fracs = []
        rhos = []
        for seed in SEEDS:
            run = desk_runs[("baseline", seed)]
            target = run.config.policies[0].pos_target
            eff = np.array(run.metrics.columns["pos_count_effective"], dtype=float)
            t10 = len(eff) // 10
            early_fracs.append(eff[:t10].mean() / target)
            window = 101
            smoothed = np.convolve(eff, np.ones(window) / window, mode="valid")
            rhos.append(scipy_stats.spearmanr(
                smoothed, np.arange(len(smoothed))).statistic)
        frac = float(np.median(early_fracs))
        rho = float(np.median(rhos))
        record_evidence(desk_runs, "09", per_seed(early_frac=early_fracs, spearman=rhos),
                        early_frac=bound(frac, "<", 0.5), spearman=bound(rho, ">", 0.8))
        report("09 early positives scarce, count grows with step",
               frac < 0.5 and rho > 0.8,
               f"early frac {frac:.3f}, spearman {rho:.3f}")

    def test_10_gt_count_drives_positive_count(self, desk_runs):
        rhos = []
        for seed in SEEDS:
            run = desk_runs[("baseline", seed)]
            cfg = run.config
            scenes = generate_scenes(cfg.scene, [derive_seed(seed, "shape", i)
                                                 for i in range(500)])
            pools = generate_proposals(
                scenes, [1.0] * 500, cfg.rpn,
                generators([derive_seed(seed, "shapeprop", i) for i in range(500)]),
                feat=cfg.feat, num_classes=cfg.scene.num_classes,
                box_size_range=cfg.scene.box_size_range)
            gt_counts = scenes.counts
            pos_counts = [int(np.sum(pools.pool(i).classes > 0)) for i in range(500)]
            rhos.append(scipy_stats.spearmanr(gt_counts, pos_counts).statistic)
        rho = float(np.median(rhos))
        record_evidence(desk_runs, "10", per_seed(spearman=rhos), spearman=bound(rho, ">", 0.5))
        report("10 per-scene gt count vs positive proposals", rho > 0.5,
               f"spearman {rho:.3f}")

    def test_11_rga_lifts_positive_accuracy_only(self, desk_runs):
        margins = []
        neg_diffs = []
        for seed in SEEDS:
            base = pos_acc_series(desk_runs[("baseline", seed)])
            rga = pos_acc_series(desk_runs[("rga", seed)])
            third = len(base) // 3
            margins.append(np.nanmean(rga[:third]) - np.nanmean(base[:third]))
            tail = len(base) // 10
            base_neg = np.array(desk_runs[("baseline", seed)].metrics.columns["neg_acc"])
            rga_neg = np.array(desk_runs[("rga", seed)].metrics.columns["neg_acc"])
            neg_diffs.append(abs(rga_neg[-tail:].mean() - base_neg[-tail:].mean()))
        margin = float(np.median(margins))
        neg_diff = float(np.median(neg_diffs))
        record_evidence(desk_runs, "11", per_seed(margin=margins, neg_acc_diff=neg_diffs),
                        margin=bound(margin, ">", 0), neg_acc_diff=bound(neg_diff, "<", 0.02))
        report("11 annealed magnification lifts early positive accuracy",
               margin > 0 and neg_diff < 0.02,
               f"margin {margin:+.4f}, final neg-acc diff {neg_diff:.4f}")

    def test_12_ap_orderings(self, desk_runs):
        med = {name: median_over_seeds(desk_runs, name,
                                       lambda r: r.summary["ap_mean"])
               for name in ("baseline", "rga", "rga_prm", "soft11", "hard11")}
        ok = (med["rga"] >= med["baseline"]
              and med["rga_prm"] >= med["rga"]
              and med["soft11"] >= med["hard11"])
        record_evidence(
            desk_runs, "12",
            per_seed(**{name: [desk_runs[(name, seed)].summary["ap_mean"] for seed in SEEDS]
                        for name in med}),
            **{f"{hi}_ge_{lo}": bound(med[hi], ">=", med[lo])
               for hi, lo in (("rga", "baseline"), ("rga_prm", "rga"), ("soft11", "hard11"))})
        report("12 AP orderings across variants", ok,
               ", ".join(f"{k} {v:.4f}" for k, v in med.items()))

    def test_13_low_ratio_head_scores_lower(self, desk_runs):
        gaps = []
        fracs = []
        for seed in SEEDS:
            stats = desk_runs[("prm", seed)].eval.score_stats
            gaps.append(stats.mean_fg[0] - stats.mean_fg[1])
            fracs.append(stats.frac_large_gap)
        gap = float(np.median(gaps))
        frac = float(np.median(fracs))
        record_evidence(desk_runs, "13", per_seed(mean_score_gap=gaps, frac_large_gap=fracs),
                        mean_score_gap=bound(gap, ">", 0))
        report("13 1:1 head outscores 1:9 head on foreground", gap > 0,
               f"mean-score gap {gap:+.4f}, frac large gap {frac:.3f}")

    def test_14_bucket_tradeoff_and_ensemble_floor(self, desk_runs):
        hi_gaps = []
        lo_gaps = []
        floor_margins = []
        for seed in SEEDS:
            s11 = desk_runs[("soft11", seed)].summary
            s19 = desk_runs[("soft19", seed)].summary
            hi_gaps.append(s11["ap_bucket_8_inf"] - s19["ap_bucket_8_inf"])
            lo_gaps.append(s11["ap_bucket_1_3"] - s19["ap_bucket_1_3"])
            prm = desk_runs[("prm", seed)].summary
            for bucket in ("ap_bucket_1_3", "ap_bucket_8_inf"):
                worse = min(h[bucket] for h in prm["heads"])
                floor_margins.append(prm[bucket] - worse)
        hi = float(np.median(hi_gaps))
        lo = float(np.median(lo_gaps))
        floor = float(np.median(floor_margins))
        record_evidence(desk_runs, "14",
                        per_seed(gap_hi=hi_gaps, gap_lo=lo_gaps,
                                 floor_margin_1_3=floor_margins[0::2],
                                 floor_margin_8_inf=floor_margins[1::2]),
                        gap_hi=bound(hi, ">", 0), gap_lo=bound(lo, "<", hi),
                        ensemble_margin=bound(floor, ">=", 0))
        report("14 crowded-scene tradeoff and ensemble floor",
               hi > 0 and lo < hi and floor >= 0,
               f"gap hi {hi:+.4f}, gap lo {lo:+.4f}, ensemble margin {floor:+.4f}")
