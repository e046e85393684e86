"""Compare hard and soft sampling across positive/negative ratios.

Trains one single-head model per (sampling mode, ratio, seed) cell through
`detlab.harness.sweep` and writes a median-AP table, sampling_ablation.csv,
mirroring the hard-versus-soft comparison. Like `detlab sweep`, it exits 2
after writing both tables if any run failed, naming the failed cells and
seeds on stderr.

Usage:
    python scripts/sampling_ablation.py --config configs/desk.cfg \
        --out runs/sampling --ratios 1:1 1:3 1:5 1:7 --seeds 11 23 37
"""

import argparse
import csv
import sys
from pathlib import Path

from detlab.config import ConfigError, parse_ratio, load_config
from detlab.files import atomic_write
from detlab.harness import sweep, sweep_exit_code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--ratios", type=parse_ratio, nargs="+", default=[(1, 1), (1, 3)])
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 23, 37])
    args = parser.parse_args(argv)
    try:
        base = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    names = {f"{p}:{n}": (p, n) for p, n in args.ratios}
    cells = {f"{mode}_{name}": dict(ratios=(ratio,), sampling_mode=mode)
             for name, ratio in names.items() for mode in ("hard", "soft")}
    sweep_rows = sweep(base, cells, args.seeds, args.out)
    medians = {row["value"]: row["ap_mean"] for row in sweep_rows}
    rows = [{"ratio": name, "hard": medians[f"hard_{name}"],
             "soft": medians[f"soft_{name}"]} for name in names]
    with atomic_write(Path(args.out) / "sampling_ablation.csv", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["ratio", "hard", "soft"])
        writer.writeheader()
        writer.writerows(rows)
    for row in rows:
        print(f"ratio {row['ratio']:>4s}: hard {row['hard']} soft {row['soft']}")
    return sweep_exit_code(sweep_rows)


if __name__ == "__main__":
    raise SystemExit(main())
