#!/usr/bin/env python3
"""Median time of a warm carried n = 4 coproduct (hopf) task, in-process.

Samples n = 4 pairs with a seed, as `ncstar sweep --n 4 --sample` does, and
runs each pair's coproduct task once against an empty orbit table: that cold
pass reduces one task per orbit key and carries the rest.  It then times
warm passes over the same tasks, in which every task is carried.  A timed
task reads each check's name and status, as a sweep row and perfbench's
sweep-n3 do, and nothing else.  The script prints the median over every
warm task, and the median of each pass.

Run:  PYTHONPATH=src python scripts/bench_carried.py [--sample 600] [--seed 0] [--passes 3]

For steadier numbers pin it to one CPU (`taskset -c 0`) and alternate runs
of the trees being compared.
"""

import argparse
import statistics
import time

from ncstar import cli, verifier
from ncstar.presentations import pair_from_json_dict


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample", type=int, default=600, help="n = 4 pairs to sample")
    parser.add_argument("--seed", type=int, default=0, help="seed of the pair sample")
    parser.add_argument("--passes", type=int, default=3, help="warm passes to time")
    args = parser.parse_args(argv)

    tasks = [(pair_from_json_dict(d), bound) for _, d, bound in
             cli.sweep_tasks(4, ("hopf",), cli.RunConfig(seed=args.seed), args.sample)]
    table: dict = {}
    t0 = time.perf_counter()
    for pair, bound in tasks:
        verifier.verify_comultiplication(pair, bound, table)
    cold_s = time.perf_counter() - t0
    keys = len(table)

    clock = time.perf_counter_ns
    medians, times = [], []
    for _ in range(args.passes):
        pass_times = []
        for pair, bound in tasks:
            t0 = clock()
            report = verifier.verify_comultiplication(pair, bound, table)
            statuses = {c.name: c.certificate.status for c in report.checks}
            pass_times.append(clock() - t0)
            if not report.passed or len(statuses) != len(report.checks):
                raise SystemExit(f"{pair.compact()}: the warm task did not pass")
        medians.append(statistics.median(pass_times) / 1e6)
        times += pass_times
    if len(table) != keys:
        raise SystemExit("a warm pass recorded a new orbit key, so it reduced a task")

    print(f"warm carried n=4 hopf task: median {statistics.median(times) / 1e6:.3f} ms "
          f"(per pass {', '.join(f'{m:.3f}' for m in medians)} ms)")
    print(f"{len(tasks)} pairs, seed {args.seed}, {keys} orbit keys, cold pass {cold_s:.1f} s")


if __name__ == "__main__":
    main()
