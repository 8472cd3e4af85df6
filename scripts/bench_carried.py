#!/usr/bin/env python3
"""Median time of a warm carried sweep task, and of a cold reduced one, per target, in-process.

Samples pairs at one n with a seed, as `ncstar sweep --sample` does, and runs
each pair's task of each target once against an empty orbit table: that cold
pass reduces one task per orbit key, and is timed for those (the tasks that
record a key), and carries the rest.  For the cold pass it also prints the
tail as perfbench's `task_tail_ms` takes it (the task time with 10 slower
tasks above it), and how many charge blocks the pass built into the shared
block table (`ncalg._BLOCKS`) and how many lookups found one built.  It then
times warm passes over the same tasks, in which every task is carried.  A
warm task reads each check's name and status and the report's overall
verdict, as a sweep row and perfbench's sweep-n3 do, and nothing else.  The
script prints, per target, the median over every warm task and the median of
each pass, beside the median reduced task of the cold pass.

The default is the n = 4 coproduct (hopf).  `--n 3 --targets
hopf,sphere-action,tuple-action` times the warm path of perfbench's sweep-n3
(n = 3 has 512 pairs, so the default sample takes them all: 618 tasks).

Run:  PYTHONPATH=src python scripts/bench_carried.py [--n 4] [--targets hopf]
                                                     [--sample 600] [--seed 0] [--passes 3]

For steadier numbers pin it to one CPU (`taskset -c 0`) and alternate runs
of the trees being compared.
"""

import argparse
import statistics
import time

from ncstar import cli, ncalg
from ncstar.ncalg import PROVED_ZERO
from ncstar.presentations import pair_from_json_dict

TAIL_BEYOND = 10  # as perfbench/run.py: the tail sample has this many slower ones above it


class _CountedBlocks(dict):
    """The shared block table, counting the lookups that find a block built."""

    found = 0

    def get(self, key, default=None):
        block = super().get(key, default)
        self.found += block is not None
        return block


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, choices=(3, 4), default=4, help="matrix size of the pairs")
    parser.add_argument("--targets", default="hopf",
                        help="comma-separated sweep targets, from " + ",".join(cli.SWEEP_TARGETS))
    parser.add_argument("--sample", type=int, default=600, help="pairs to sample")
    parser.add_argument("--seed", type=int, default=0, help="seed of the pair sample")
    parser.add_argument("--passes", type=int, default=3, help="warm passes to time")
    args = parser.parse_args(argv)
    targets = args.targets.split(",")
    for t in targets:
        if t not in cli.SWEEP_TARGETS:
            parser.error(f"unknown sweep target {t!r}")

    tasks = [(target, cli._TARGETS[target].run, pair_from_json_dict(d), bound) for target, d, bound in
             cli.sweep_tasks(args.n, targets, cli.RunConfig(seed=args.seed), args.sample)]
    clock = time.perf_counter_ns
    table: dict = {}
    reduced = {t: [] for t in targets}  # cold task times of the tasks that recorded a key
    cold = []  # every cold task time
    # a span reads the table through the module at each build, so this one sees every lookup
    blocks = ncalg._BLOCKS = _CountedBlocks()
    t0 = time.perf_counter()
    for target, run, pair, bound in tasks:
        before, t1 = len(table), clock()
        run(pair, bound, table)
        cold.append(clock() - t1)
        if len(table) > before:
            reduced[target].append(cold[-1])
    cold_s = time.perf_counter() - t0
    keys = len(table)
    built, reused = len(blocks), blocks.found

    medians = {t: [] for t in targets}
    times = {t: [] for t in targets}
    for _ in range(args.passes):
        pass_times = {t: [] for t in targets}
        for target, run, pair, bound in tasks:
            t0 = clock()
            report = run(pair, bound, table)
            statuses = {c.name: c.certificate.status for c in report.checks}
            overall = report.overall
            pass_times[target].append(clock() - t0)
            if not report.passed or len(statuses) != len(report.checks) or overall != PROVED_ZERO:
                raise SystemExit(f"{target} {pair.compact()}: the warm task did not pass")
        for t in targets:
            medians[t].append(statistics.median(pass_times[t]) / 1e6)
            times[t] += pass_times[t]
    if len(table) != keys:
        raise SystemExit("a warm pass recorded a new orbit key, so it reduced a task")

    for t in targets:
        per_pass = ", ".join(f"{m:.3f}" for m in medians[t])
        print(f"warm carried n={args.n} {t} task: median {statistics.median(times[t]) / 1e6:.3f} ms "
              f"(per pass {per_pass} ms, {len(times[t]) // args.passes} tasks); cold reduced task: "
              f"median {statistics.median(reduced[t]) / 1e6:.3f} ms ({len(reduced[t])} tasks)")
    print(f"{len(tasks)} tasks, seed {args.seed}, {keys} orbit keys, cold pass {cold_s:.1f} s")
    if len(cold) > TAIL_BEYOND:
        tail = sorted(cold)[-TAIL_BEYOND - 1] / 1e6
        print(f"cold pass tail {tail:.3f} ms ({TAIL_BEYOND} slower tasks above it); "
              f"{built} charge blocks built, {reused} reused")


if __name__ == "__main__":
    main()
