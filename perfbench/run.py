"""detlab benchmark: desk runs and checkpoint re-evaluation, timed from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-baseline --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one summary table

A run sets the workload up, then repeats its operation through
`detlab.cli.main` for `--seconds` seconds, checks every operation's output,
and prints one JSON result as its last line. With `--trace 0` the result holds
the end-to-end metrics, whose times are scaled to a reference host speed by
the probe in `hostspeed.py`; with `--trace 1` it holds the per-layer metrics
from spans that `tracer.py` records around detlab's public functions. The
workload seed is passed to detlab as `--seed`. See README.md for the
workloads, the metrics and what they do not cover.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer

# The workloads are single-threaded: one BLAS thread, set before numpy loads.
# An idle OpenBLAS worker on a 2-core host only adds noise to the timings.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

from hostspeed import PROBE_REF_S, Probe, scaled  # noqa: E402  (loads numpy)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "desk.cfg"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 7  # the seed of configs/desk.cfg; reference.json holds its results
DEFAULT_SECONDS = 30  # run_seconds in BENCHMARK.json
SETUP_REPS = 3
MIN_REPS = 3  # so that the first seed of a run repeats and can be compared
MIN_TRACED_REPS = 2
# How much work a desk run does depends on the model its seed trains: the
# same scenes took up to about 45% longer to evaluate with some of the
# two-head checkpoints of seeds 1-10 than with others. So an untraced desk
# workload alternates its operations between two seeds made from the
# workload seed and reports the mean of their medians, which narrows that
# seed-to-seed spread.
SECOND_SEED_OFFSET = 10_000
CHILD_TIMEOUT_S = 150
AP_KEYS = ("ap_mean", "ap50", "ap75", "ap_bucket_1_3", "ap_bucket_8_inf")

# Runs `detlab.cli.main` from the checkout's sources in a fresh interpreter, so
# that a timed set-up includes the import, as `detlab gen-data` does. The host
# speed probe runs alongside; its figures are the last line of the output.
CHILD_CODE = ("import json, sys\n"
              "sys.path[:0] = sys.argv[1:3]\n"
              "from hostspeed import Probe\n"
              "probe = Probe()\n"
              "with probe:\n"
              "    import detlab.cli\n"
              "    code = detlab.cli.main(sys.argv[3:])\n"
              "print(json.dumps([probe.probe_s, probe.median_s]))\n"
              "sys.exit(code)\n")


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    op: str  # the detlab subcommand that is timed: "train" or "eval"

    def op_seeds(self, seed: int, trace: bool) -> list[int]:
        """The detlab seeds that the timed operations cycle through.

        eval re-evaluates one checkpoint, trained at DEFAULT_SEED, on the
        scenes of the workload seed, so its work barely depends on the seed.
        A traced run keeps to one seed, so that its counts must repeat.
        """
        if self.op == "eval" or trace:
            return [seed]
        return [seed, seed + SECOND_SEED_OFFSET]


WORKLOADS = {
    w.name: w for w in (
        Workload("desk-baseline", "baseline", "train"),
        Workload("desk-rga-prm", "rga+prm", "train"),
        Workload("eval-rga-prm", "rga+prm", "eval"),
    )
}

END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Per-layer metrics: (metric name, span name, statistic, unit). A statistic is
# `calls`, `self_s`, a count recorded by tracer.py, or one of the derived
# values computed in `per_layer_metrics`.
_C, _S = "count", "s"
PER_LAYER = [
    ("synthdata.generate_proposals.calls", "synthdata.generate_proposals", "calls", _C),
    ("synthdata.generate_proposals.rows", "synthdata.generate_proposals", "rows", _C),
    ("synthdata.generate_proposals.self_s", "synthdata.generate_proposals", "self_s", _S),
    ("synthdata.generate_dataset.self_s", "synthdata.generate_dataset", "self_s", _S),
    ("synthdata.save_dataset.bytes", "synthdata.save_dataset", "bytes", "bytes"),
    ("synthdata.save_dataset.self_s", "synthdata.save_dataset", "self_s", _S),
    ("synthdata.load_dataset.bytes", "synthdata.load_dataset", "bytes", "bytes"),
    ("synthdata.load_dataset.self_s", "synthdata.load_dataset", "self_s", _S),
    ("geometry.iou_matrix.calls", "geometry.iou_matrix", "calls", _C),
    ("geometry.iou_matrix.pairs", "geometry.iou_matrix", "pairs", _C),
    ("geometry.iou_matrix.self_s", "geometry.iou_matrix", "self_s", _S),
    ("geometry.label_arrays.self_s", "geometry.label_arrays", "self_s", _S),
    ("geometry.decode_deltas_array.calls", "geometry.decode_deltas_array", "calls", _C),
    ("geometry.decode_deltas_array.self_s", "geometry.decode_deltas_array", "self_s", _S),
    ("sampler.sample.calls", "sampler.sample", "calls", _C),
    ("sampler.sample.pos_unique", "sampler.sample", "pos_unique", _C),
    ("sampler.sample.pos_effective", "sampler.sample", "pos_effective", _C),
    ("sampler.sample.self_s", "sampler.sample", "self_s", _S),
    ("net.forward.train_calls", "net.forward.train", "calls", _C),
    ("net.forward.train_rows", "net.forward.train", "rows", _C),
    ("net.forward.train_self_s", "net.forward.train", "self_s", _S),
    ("net.forward.predict_calls", "net.forward.predict", "calls", _C),
    ("net.forward.predict_rows", "net.forward.predict", "rows", _C),
    ("net.forward.predict_self_s", "net.forward.predict", "self_s", _S),
    ("net.backward.calls", "net.backward", "calls", _C),
    ("net.backward.rows", "net.backward", "rows", _C),
    ("net.backward.self_s", "net.backward", "self_s", _S),
    ("net.total_loss.self_s", "net.total_loss", "self_s", _S),
    ("net.sgd_step.self_s", "net.sgd_step", "self_s", _S),
    ("net.save_params.self_s", "net.save_params", "self_s", _S),
    ("net.load_params.self_s", "net.load_params", "self_s", _S),
    ("rga.apply_rga.calls", "rga.apply_rga", "calls", _C),
    ("rga.apply_rga.self_s", "rga.apply_rga", "self_s", _S),
    ("prm.prm_train_step.calls", "prm.prm_train_step", "calls", _C),
    ("prm.prm_train_step.self_s", "prm.prm_train_step", "self_s", _S),
    ("prm.prm_predict.calls", "prm.prm_predict", "calls", _C),
    ("prm.prm_predict.self_s", "prm.prm_predict", "self_s", _S),
    ("metrics.nms.calls", "metrics.nms", "calls", _C),
    ("metrics.nms.in", "metrics.nms", "in", _C),
    ("metrics.nms.kept", "metrics.nms", "kept", _C),
    ("metrics.nms.kept_frac", "metrics.nms", "kept_frac", "frac"),
    ("metrics.nms.self_s", "metrics.nms", "self_s", _S),
    ("metrics.compute_ap.calls", "metrics.compute_ap", "calls", _C),
    ("metrics.compute_ap.dets", "metrics.compute_ap", "dets", _C),
    ("metrics.compute_ap.self_s", "metrics.compute_ap", "self_s", _S),
    ("metrics.proposal_accuracy.self_s", "metrics.proposal_accuracy", "self_s", _S),
    ("metrics.score_gap_stats.self_s", "metrics.score_gap_stats", "self_s", _S),
    ("metrics.MetricsLog.to_csv.self_s", "metrics.MetricsLog.to_csv", "self_s", _S),
    ("harness.evaluate_model.self_s", "harness.evaluate_model", "self_s", _S),
    ("harness.run_experiment.self_s", "harness.run_experiment", "self_s", _S),
    ("harness.write_eval_report.self_s", "harness.write_eval_report", "self_s", _S),
    ("harness.write_gradnorm_csv.self_s", "harness.write_gradnorm_csv", "self_s", _S),
    ("harness.untraced_s", "bench", "untraced_s", _S),
    ("config.load_config.self_s", "config.load_config", "self_s", _S),
    ("bench.traced_run_s", "bench", "traced_run_s", _S),
    ("bench.untraced_run_s", "bench", "untraced_run_s", _S),
    ("bench.trace_overhead_s", "bench", "trace_overhead_s", _S),
]
COUNT_STATS = {"calls", "rows", "bytes", "pairs", "pos_unique", "pos_effective",
               "in", "kept", "dets"}


class BenchError(Exception):
    """The benchmark itself cannot produce a valid result."""


# --- environment ------------------------------------------------------------

def _openblas_runtime() -> dict:
    """Thread count and core type of the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(handle, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(handle, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return {"threads": get_threads(), "config": get_config().decode()}
    return {"threads": None, "config": None}


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "detlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(load_at_start) -> dict:
    import numpy

    import detlab

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": blas.get("version"),
        "openblas_runtime": _openblas_runtime(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "detlab": detlab.__version__,
        "detlab_src_sha256": _source_digest(),
        "git_commit": _git_commit(),
        "loadavg_at_start": list(load_at_start),
    }


# --- running detlab ---------------------------------------------------------

def _cli_args(command: str, wl: Workload, seed: int, out: Path) -> list[str]:
    return [command, "--config", str(CONFIG), "--seed", str(seed), "--out", str(out),
            "--mode", wl.mode]


def run_child(argv: list[str]) -> float:
    """Runs detlab in a fresh interpreter; returns its wall seconds scaled to
    the reference host speed (see hostspeed.py)."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CHILD_CODE, str(BENCH_DIR), str(SRC), *argv],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError(f"set-up `detlab {' '.join(argv)}` exited {done.returncode}: "
                         f"{done.stderr.strip()}")
    probe_s, median_s = json.loads(done.stdout.splitlines()[-1])
    return scaled(wall, probe_s, median_s)


def run_op(cli, argv: list[str]) -> tuple[int, float]:
    """One timed call of the detlab entry point; returns (exit code, wall s)."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - start
    return code, wall


def ap_fields(summary: dict) -> dict:
    return {
        "ensemble": {k: summary[k] for k in AP_KEYS},
        "heads": [{k: head[k] for k in AP_KEYS} for head in summary["heads"]],
    }


class Checker:
    """Decides whether one operation's outputs are right.

    Every detlab seed's first outcome becomes the expected one for its later
    repetitions. At DEFAULT_SEED the expected outcome is reference.json. For
    eval, the set-up's training run at DEFAULT_SEED wrote the reference
    report, which must itself match reference.json.
    """

    def __init__(self, wl: Workload, run_dir: Path):
        self.wl = wl
        self.run_dir = run_dir
        reference = json.loads(REFERENCE.read_text())[wl.name]
        if wl.op == "eval":
            report = self._outcome()
            if hashlib.sha256(report).hexdigest() != reference:
                raise BenchError("set-up checkpoint's eval_report.txt differs from "
                                 "reference.json")
            reference = report
        self.expected = {DEFAULT_SEED: reference}

    def outputs(self) -> list[Path]:
        """Files an operation must write afresh; removed before each one.
        eval rewrites eval_report.txt but not eval_summary.json."""
        if self.wl.op == "eval":
            return [self.run_dir / "eval_report.txt"]
        return [self.run_dir / "eval_summary.json", self.run_dir / "eval_report.txt"]

    def _outcome(self):
        """The compared output, or None if it is missing or malformed."""
        path = self.outputs()[0]
        if not path.is_file():
            return None
        if self.wl.op == "eval":
            return path.read_bytes()
        try:
            return ap_fields(json.loads(path.read_text()))
        except (ValueError, KeyError, TypeError):
            return None

    def check(self, seed: int) -> bool:
        got = self._outcome()
        return got is not None and self.expected.setdefault(seed, got) == got


# --- set-up -----------------------------------------------------------------

def write_caches(wl: Workload, seeds: list[int], work: Path,
                 in_process_cli=None) -> tuple[Path, float]:
    """Writes the scene caches of `seeds` as `detlab gen-data` does; returns
    their directory and the set-up seconds.

    Untraced, each of SETUP_REPS set-ups runs gen-data in a fresh interpreter
    per seed, so the import is timed too, and the median of their scaled
    seconds is returned. Traced, the caches are written once in this process
    so that their spans are recorded.
    """
    times = []
    run_dir = None
    for i in range(1 if in_process_cli is not None else SETUP_REPS):
        if run_dir is not None:
            shutil.rmtree(run_dir)  # only the last caches are used
        run_dir = work / f"setup{i}"
        start = time.perf_counter()
        total = 0.0
        for seed in seeds:
            argv = _cli_args("gen-data", wl, seed, run_dir)
            if in_process_cli is None:
                total += run_child(argv)
                continue
            code, _ = run_op(in_process_cli, argv)
            if code != 0:
                raise BenchError(f"set-up `detlab {' '.join(argv)}` exited {code}")
        times.append(total if in_process_cli is None else time.perf_counter() - start)
    return run_dir, statistics.median(times)


def train_checkpoint(wl: Workload, run_dir: Path) -> float:
    """Set-up of the eval workload: one rga+prm desk run at DEFAULT_SEED, in
    a fresh interpreter and untraced. It is timed once, not SETUP_REPS
    times, because it costs a whole desk-rga-prm operation."""
    return run_child(_cli_args("train", wl, DEFAULT_SEED, run_dir))


# --- measurement ------------------------------------------------------------

@dataclass
class OpResult:
    seed: int
    ok: bool
    wall: float
    traced: bool
    root: int = -1  # span index of the traced operation
    scaled: float = 0.0  # wall at reference host speed; untraced runs only
    probe_median_s: float = 0.0


def measure(cli, wl: Workload, checker: Checker, seeds: list[int], run_dir: Path,
            seconds: float, tracer=None) -> list[OpResult]:
    """Repeats the operation until the next one would overrun `seconds`.

    Without a tracer every operation is untraced and runs with the host
    speed probe. With one, the sequence is untraced, then traced, traced, then
    alternating, all without the probe; the first three always run, so
    overhead and count repeatability can be measured. Untraced, the first
    MIN_REPS always run.
    """
    deadline = time.perf_counter() + seconds
    probe = Probe() if tracer is None else None
    results: list[OpResult] = []
    while True:
        i = len(results)
        seed = seeds[i % len(seeds)]
        argv = _cli_args(wl.op, wl, seed, run_dir)
        traced = tracer is not None and (i in (1, 2) or (i > 2 and i % 2 == 0))
        for path in checker.outputs():
            path.unlink(missing_ok=True)
        root = -1
        speed = {}
        if traced:
            tracer.install()
            try:
                with tracer.span("bench.op") as root:
                    code, wall = run_op(cli, argv)
            finally:
                tracer.uninstall()
        elif probe is not None:
            with probe:
                code, wall = run_op(cli, argv)
            speed = {"scaled": probe.scale(wall), "probe_median_s": probe.median_s}
        else:
            code, wall = run_op(cli, argv)
        results.append(OpResult(seed=seed, ok=code == 0 and checker.check(seed),
                                wall=wall, traced=traced, root=root, **speed))
        minimum = 1 + MIN_TRACED_REPS if tracer is not None else MIN_REPS
        walls = [r.wall for r in results]
        if len(results) >= minimum and time.perf_counter() + statistics.median(walls) > deadline:
            return results


def op_time(results: list[OpResult], seeds: list[int], key: str) -> float:
    """The mean over `seeds` of each seed's median operation time `key`."""
    medians = []
    for seed in seeds:
        good = [getattr(r, key) for r in results if r.ok and r.seed == seed]
        if not good:
            raise BenchError(f"no operation at seed {seed} passed its correctness check")
        medians.append(statistics.median(good))
    return statistics.fmean(medians)


def end_to_end_metrics(results: list[OpResult], seeds: list[int], setup_s: float) -> dict:
    """run_s is the operation time at reference host speed (see hostspeed.py)."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": (op_time(results, seeds, "scaled"), sum(r.ok for r in results)),
        "setup_s": (setup_s, SETUP_REPS),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, 1),
    }


def per_layer_metrics(tracer, setup_root: int, results: list[OpResult]) -> dict:
    """Per span name: one traced set-up plus the median traced operation.

    Counts must repeat exactly across the traced operations.
    """
    traced = [r for r in results if r.traced and r.ok]
    untraced = [r.wall for r in results if not r.traced and r.ok]
    if len(traced) < MIN_TRACED_REPS or not untraced:
        raise BenchError("too few correct traced and untraced operations")
    per_op = [tracer.stats(r.root) for r in traced]
    setup = tracer.stats(setup_root)
    for other in per_op[1:]:
        for name in set(other) | set(per_op[0]):
            a, b = per_op[0].get(name, {}), other.get(name, {})
            diff = {k: (a.get(k), b.get(k)) for k in set(a) | set(b)
                    if k in COUNT_STATS and a.get(k) != b.get(k)}
            if diff:
                raise BenchError(f"counts of {name} differ between traced "
                                 f"repetitions: {diff}")

    def stat(span: str, key: str) -> float:
        op_values = [s.get(span, {}).get(key, 0) for s in per_op]
        op_value = statistics.median(op_values) if key == "self_s" else op_values[0]
        return setup.get(span, {}).get(key, 0) + op_value

    traced_run = statistics.median(r.wall for r in traced)
    untraced_run = statistics.median(untraced)
    derived = {
        "untraced_s": stat("bench.setup", "self_s") + stat("bench.op", "self_s"),
        "traced_run_s": traced_run,
        "untraced_run_s": untraced_run,
        "trace_overhead_s": traced_run - untraced_run,
    }
    metrics = {}
    for metric, span, key, unit in PER_LAYER:
        if span == "bench":
            value = derived[key]
        elif key == "kept_frac":
            n_in = stat(span, "in")
            value = stat(span, "kept") / n_in if n_in else 0.0
        else:
            value = stat(span, key)
        metrics[metric] = (value, len(traced))
    return metrics


# --- reporting --------------------------------------------------------------

def _check_declaration() -> None:
    """BENCHMARK.json must declare exactly the metrics this file computes."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = [[n, u] for n, u in END_TO_END]
    want_layer = [[m, u] for m, _, _, u in PER_LAYER]
    got_e2e = [[m["name"], m["unit"]] for m in declared["end_to_end"]]
    got_layer = [[m["name"], m["unit"]] for m in declared["per_layer"]]
    got_workloads = [w["name"] for w in declared["workloads"]]
    if got_e2e != want_e2e or got_layer != want_layer or got_workloads != list(WORKLOADS):
        raise BenchError("BENCHMARK.json does not match the metrics of perfbench/run.py")


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns the result line and the details written to result.json."""
    load_at_start = os.getloadavg()
    for required in (SRC / "detlab" / "cli.py", CONFIG, REFERENCE):
        if not required.is_file():
            raise BenchError(f"missing {required.relative_to(ROOT)}; run from a "
                             "full detlab checkout")
    _check_declaration()
    work = WORK / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    sys.path.insert(0, str(SRC))
    import detlab.cli as cli

    seeds = wl.op_seeds(seed, trace)
    tracer = setup_root = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup") as setup_root:
                run_dir, setup_s = write_caches(wl, seeds, work, in_process_cli=cli)
        finally:
            tracer.uninstall()
    else:
        run_dir, setup_s = write_caches(wl, seeds, work)
    if wl.op == "eval":
        setup_s += train_checkpoint(wl, run_dir)
    checker = Checker(wl, run_dir)
    results = measure(cli, wl, checker, seeds, run_dir, seconds, tracer)

    host = None
    if trace:
        metrics = per_layer_metrics(tracer, setup_root, results)
        units = {m: u for m, _, _, u in PER_LAYER}
        (work / "spans.json").write_text(json.dumps(tracer.dump()))
    else:
        metrics = end_to_end_metrics(results, seeds, setup_s)
        units = dict(END_TO_END)
        host = {  # what run_s was scaled from
            "wall_run_s": op_time(results, seeds, "wall"),
            "probe_median_ms": 1e3 * statistics.median(r.probe_median_s for r in results),
            "probe_ref_ms": 1e3 * PROBE_REF_S,
        }
    failed = sum(not r.ok for r in results)
    details = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": environment(load_at_start),
        "ops": [{"seed": r.seed, "ok": r.ok, "wall_s": r.wall, "traced": r.traced,
                 "scaled_s": r.scaled, "probe_median_s": r.probe_median_s}
                for r in results],
        "metrics": {m: {"value": v, "unit": units[m], "samples": n}
                    for m, (v, n) in metrics.items()},
        "fail_frac": failed / len(results),
        "host_speed": host,
    }
    (work / "result.json").write_text(json.dumps(details, indent=2) + "\n")
    if failed == 0:
        shutil.rmtree(run_dir)  # caches and artifacts; kept to inspect a failure
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, (v, _) in metrics.items()},
    }
    return result, details


def print_result(result: dict, details: dict) -> None:
    print("env " + json.dumps(details["env"], sort_keys=True))
    for name, m in details["metrics"].items():
        print(f"{details['workload']} {name} = {m['value']:.6g} {m['unit']} "
              f"(n={m['samples']})")
    print(f"{details['workload']} fail_frac = {details['fail_frac']:.3g} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    if details["host_speed"] is not None:
        print("host_speed " + json.dumps(details["host_speed"], sort_keys=True))
    print(json.dumps(result))


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    rows = []
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: benchmark error (exit {done.returncode})", file=sys.stderr)
            return done.returncode
        tag = f"{name}-seed{seed}-trace{int(trace)}"
        rows.append(json.loads((WORK / tag / "result.json").read_text()))
    print()
    for row in rows:
        cells = [f"{m} {v['value']:.4g} {v['unit']} (n={v['samples']})"
                 for m, v in row["metrics"].items()]
        print(f"{row['workload']:<14} " + "  ".join(cells)
              + f"  fail_frac {row['fail_frac']:.3g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        result, details = run_workload(WORKLOADS[args.workload], args.seed,
                                       args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_result(result, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
