"""Compare hard and soft sampling across positive/negative ratios.

Trains one single-head model per (sampling mode, ratio, seed) cell through
`detlab.harness.sweep` and writes a median-AP table, sampling_ablation.csv,
mirroring the hard-versus-soft comparison.

Usage:
    python scripts/sampling_ablation.py --config configs/desk.cfg \
        --out runs/sampling --ratios 1:1 1:3 1:5 1:7 --seeds 11 23 37
"""

import argparse
import csv
import sys
from pathlib import Path

from detlab.config import ConfigError, parse_ratio, load_config
from detlab.harness import sweep


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
    medians = {row["value"]: row["ap_mean"]
               for row in sweep(base, cells, args.seeds, args.out)}
    rows = [{"ratio": name, "hard": medians[f"hard_{name}"],
             "soft": medians[f"soft_{name}"]} for name in names]
    with open(Path(args.out) / "sampling_ablation.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["ratio", "hard", "soft"])
        writer.writeheader()
        writer.writerows(rows)
    for row in rows:
        print(f"ratio {row['ratio']:>4s}: hard {row['hard']} soft {row['soft']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
