#!/usr/bin/env python3
"""Median wall time and peak RSS of each cold command kind, one `python -m ncstar.cli` process each.

Times the six command kinds of perfbench's oneshot-cli workload, each a new
process: `verify noninjectivity`, `witness all`, `verify hopf`,
`verify sphere-action` and `verify tuple-action` on an n = 3 pair, and
`regularize` on one.  The pairs are drawn with a seed, and every round runs
each kind once.  With `--against OTHER_SRC`, each round runs every kind
against both source trees, alternating which goes first, and the script
prints each kind's medians and the median of its per-round ratios
(this tree over the other).  Each kind also shows its peak RSS: the largest
of its commands' own, read per child with os.wait4.  On Linux a child's peak
also counts the process that spawned it, whose pages it shares until its
exec, so no command reads below this script's own peak, about 17 MB.
perfbench's oneshot-cli `peak_rss_mb` is the largest child's too, and its
floor is its worker's peak, which imports numpy.

The process pins itself, and with it every command, to one CPU (`--cpu`).
Whether the interpreter may cache bytecode (PYTHONDONTWRITEBYTECODE) is left
as the environment sets it, so compare trees under one setting.

Run:  python scripts/bench_cold.py [--against OTHER/src] [--rounds 21] [--seed 0] [--cpu 0]
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from ncstar.presentations import enumerate_pairs, is_regular  # noqa: E402


def commands(workdir, seed):
    """(kind, argv) for the six kinds, with pair files written under workdir."""
    rng = random.Random(seed)
    pairs = enumerate_pairs(3)
    regular = [p for p in pairs if is_regular(p).is_regular]
    out = [("noninjectivity", ["verify", "noninjectivity"]), ("witness", ["witness", "all"])]
    for kind, pool in (("hopf", pairs), ("sphere-action", regular),
                       ("tuple-action", pairs), ("regularize", pairs)):
        path = os.path.join(workdir, f"{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rng.choice(pool).to_json_dict(), fh)
        out.append((kind, (["regularize"] if kind == "regularize" else ["verify", kind])
                    + ["--input", path]))
    report = os.path.join(workdir, "report.json")
    return [(kind, argv + ["--format", "json", "--output", report]) for kind, argv in out]


def timed(src, argv):
    """(wall seconds, peak RSS in MB) of one cold command run from src; a
    nonzero exit ends the script.  The peak RSS is the child's own, from
    os.wait4."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "ncstar.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {' '.join(argv)} exited {proc.returncode}\n"
                         + err.decode(errors="replace"))
    return elapsed, usage.ru_maxrss / 1024


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="another tree's src directory to alternate with")
    parser.add_argument("--rounds", type=int, default=21, help="runs of each kind per tree")
    parser.add_argument("--seed", type=int, default=0, help="seed of the pair draw")
    parser.add_argument("--cpu", type=int, default=0, help="the CPU to pin every command to")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    if args.against is not None and not (args.against / "ncstar" / "cli.py").is_file():
        parser.error(f"{args.against} holds no ncstar/cli.py")
    os.sched_setaffinity(0, {args.cpu})

    trees = [SRC] if args.against is None else [SRC, args.against.resolve()]
    with tempfile.TemporaryDirectory() as workdir:
        kinds = commands(workdir, args.seed)
        times = {(kind, t): [] for kind, _ in kinds for t in range(len(trees))}
        for r in range(args.rounds):
            order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
            for t in order:
                for kind, cmd in kinds:
                    times[kind, t].append(timed(trees[t], cmd))

    for kind, _ in kinds:
        secs = [[t for t, _ in times[kind, k]] for k in range(len(trees))]
        peak = [max(rss for _, rss in times[kind, k]) for k in range(len(trees))]
        line = f"{kind:<15} {statistics.median(secs[0]) * 1e3:7.1f} ms {peak[0]:6.2f} MB"
        if len(trees) == 2:
            ratios = [a / b for a, b in zip(secs[0], secs[1])]
            line += (f"  against {statistics.median(secs[1]) * 1e3:7.1f} ms {peak[1]:6.2f} MB"
                     f"  paired ratio {statistics.median(ratios):.3f}")
        print(line)
    print(f"{args.rounds} rounds, seed {args.seed}, CPU {args.cpu}"
          + (f"; against {trees[1]}" if len(trees) == 2 else ""))


if __name__ == "__main__":
    main()
