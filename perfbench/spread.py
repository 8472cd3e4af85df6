"""Run-to-run spread of the end-to-end metrics, and the seed check.

    python3 perfbench/spread.py [--first-seed 1]

Runs `run.py` once for each of ten seeds on every workload, one run at a time, for the
`run_seconds` of `BENCHMARK.json`.  It prints for each metric the median and
the interquartile range as a share of the median
(`statistics.quantiles(values, n=4)`).  It fails unless every run is correct
and every seed gives the same verdict counts on a workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

RUNS = 10


def one_run(workload, seed, seconds):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    for workload in run.WORKLOADS:
        values = {name: [] for name in run.END_TO_END}
        verdicts = set()
        for seed in range(args.first_seed, args.first_seed + RUNS):
            detail, final = one_run(workload, seed, seconds)
            ok &= final["correct"]
            verdicts.add(json.dumps([detail["verdicts"], detail["checks"] if workload != "oneshot-cli"
                                     else None], sort_keys=True))
            for name in values:
                values[name].append(final["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        if len(verdicts) != 1:
            ok = False
            print(f"{workload}: verdict counts differ across seeds: {sorted(verdicts)}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:14} {name:13} median {med:.6g}  iqr/median {(q3 - q1) / med:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
