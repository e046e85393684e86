"""Compare hard and soft sampling across positive/negative ratios.

Trains one single-head model per (sampling mode, ratio, seed) cell through
`detlab.harness.sweep` and writes a median-AP table, sampling_ablation.csv,
mirroring the hard-versus-soft comparison. Like `detlab sweep`, it exits 1
with `config error:` before any work on a bad config or cell (a ratio whose
unit exceeds the batch), an unreadable `--ratios` or `--seeds` item or a
repeated ratio or seed, and exits 2 after
writing both tables if any run failed, naming the failed cells and seeds on
stderr.

Usage:
    python scripts/sampling_ablation.py --config configs/desk.cfg \
        --out runs/sampling --ratios 1:1 1:3 1:5 1:7 --seeds 11 23 37
"""

import argparse
import csv
import sys
from pathlib import Path

from detlab.cli import parse_list
from detlab.config import ConfigError, parse_ratio, load_config
from detlab.files import atomic_write
from detlab.harness import refuse_repeats, sweep, sweep_exit_code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--ratios", nargs="+", default=["1:1", "1:3"])
    parser.add_argument("--seeds", nargs="+", default=["11", "23", "37"])
    args = parser.parse_args(argv)
    try:
        base = load_config(args.config)
        ratios = [r for item in args.ratios for r in parse_list("--ratios", item, parse_ratio)]
        seeds = [s for item in args.seeds for s in parse_list("--seeds", item, int)]
        if not (ratios and seeds):
            raise ConfigError("--ratios and --seeds need at least one item each")
        names = [f"{p}:{n}" for p, n in ratios]
        refuse_repeats(names, "ratios", "each ratio runs once")
        cells = {f"{mode}_{name}": dict(ratios=(ratio,), sampling_mode=mode)
                 for name, ratio in zip(names, ratios) for mode in ("hard", "soft")}
        sweep_rows = sweep(base, cells, seeds, args.out)  # a repeated seed is a ConfigError
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

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
