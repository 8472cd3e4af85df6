"""One benchmark workload, run in a fresh process by `run.py`.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR [--setup-only]

The worker imports ncstar, builds its inputs from SEED and prints `READY`
once the first task can start; `run.py` times that as set-up.  It then runs
whole passes over its task list, one task at a time (a closed loop with one
caller, jobs=1), until SECONDS have elapsed, and prints one JSON line with
per-task times and verdict counts.  With TRACE=1 it runs one untraced pass
and one traced pass instead, adds the per-layer metrics, and writes the
spans to `.perfbench_out/WORKLOAD-seedSEED-spans.json`.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import ncstar.cli  # noqa: E402  (timed: this is cli.import_s)
IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
from ncstar import cli, verifier  # noqa: E402
from ncstar.presentations import enumerate_pairs, is_regular, pair_from_json_dict  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT_S = 60


class SweepN3:
    """Every n = 3 sweep task, through the public verifier entry points."""

    def __init__(self, seed, workdir, in_process):
        tasks = cli.sweep_tasks(3, cli.SWEEP_TARGETS, cli.RunConfig())
        self.tasks = [(target, d, pair_from_json_dict(d), bound) for target, d, bound in tasks]
        random.Random(seed).shuffle(self.tasks)
        self.table = oracle.load_theorem_table()

    def run(self, task):
        target, _, pair, bound = task
        if target == "hopf":
            report = verifier.verify_comultiplication(pair, bound)
        elif target == "sphere-action":
            report = verifier.verify_sphere_action(pair, "both", bound)
        else:
            report = verifier.verify_tuple_action(pair.epsilon, "both", bound)
        return {c.name: c.certificate.status for c in report.checks}, report.overall

    def check(self, task, result):
        statuses, overall = result
        return statuses, overall, oracle.theorem(task[0], task[1], statuses, self.table)

    def finish(self):
        return []


class RegularizeN3:
    """Regularization consistency (product bound 4) over every non-regular pair, n <= 3."""

    def __init__(self, seed, workdir, in_process):
        self.tasks = [p for n in (1, 2, 3) for p in enumerate_pairs(n) if not is_regular(p).is_regular]
        random.Random(seed).shuffle(self.tasks)
        self.table = oracle.load_regularization_table()
        self.proved = {}

    def run(self, pair):
        report = verifier.verify_regularization_consistency(pair)
        return {c.name: c.certificate.status for c in report.checks}, report.overall

    def check(self, pair, result):
        statuses, overall = result
        for rid, status in statuses.items():
            if status == oracle.PROVED_ZERO:
                self.proved[(pair.compact(), rid)] = pair
        return statuses, overall, oracle.regularization(pair.compact(), statuses, self.table)

    def finish(self):
        """Replay every ProvedZero seen, once per invocation, untimed."""
        problems = []
        for (key, rid), pair in sorted(self.proved.items()):
            try:
                problems += oracle.replay_regularization(pair, rid)
            except Exception as exc:  # one failed replay is one failed row
                problems.append(f"{key} {rid}: replay raised {type(exc).__name__}: {exc}")
        return problems


class OneshotCli:
    """Cold `python -m ncstar.cli` commands, one at a time, in cycles of six."""

    # 96 commands, 16 of them `witness all`, the slowest: the tail sample (10 beyond it)
    # then sits inside that group instead of at its fastest member.
    CYCLES = 16

    def __init__(self, seed, workdir, in_process):
        self.in_process = in_process
        rng = random.Random(seed)
        pairs = enumerate_pairs(3)
        regular = [p for p in pairs if is_regular(p).is_regular]
        self.tasks = []
        for c in range(self.CYCLES):
            cycle = [("noninjectivity", ["verify", "noninjectivity"], None),
                     ("witness", ["witness", "all"], None)]
            for kind, pool in (("hopf", pairs), ("sphere-action", regular),
                               ("tuple-action", pairs), ("regularize", pairs)):
                pair = rng.choice(pool).to_json_dict()
                path = os.path.join(workdir, f"{kind}-{c}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(pair, fh)
                argv = ["regularize"] if kind == "regularize" else ["verify", kind]
                cycle.append((kind, argv + ["--input", path], pair))
            for k, (kind, argv, pair) in enumerate(cycle):
                out = os.path.join(workdir, f"out-{c}-{k}.json")
                self.tasks.append((kind, argv + ["--format", "json", "--output", out], pair, out))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.table = oracle.load_theorem_table()

    def run(self, task):
        argv = task[1]
        if self.in_process:
            return ncstar.cli.main(argv)
        proc = subprocess.run([sys.executable, "-m", "ncstar.cli", *argv], cwd=ROOT, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return proc.returncode

    def check(self, task, code):
        kind, _, pair, out = task
        if code != 0:
            return {}, "exit", [f"{kind}: exit code {code}"]
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        os.remove(out)
        statuses = oracle.report_statuses(payload)
        if kind == "noninjectivity":
            problems = oracle.noninjectivity(payload)
        elif kind == "witness":
            problems = oracle.witness(payload)
        elif kind == "regularize":
            return statuses, "regularized", oracle.regularize_report(pair, payload)
        else:
            problems = oracle.theorem(kind, pair, statuses, self.table)
        return statuses, payload["report"]["overall"], problems

    def finish(self):
        return []


WORKLOADS = {"sweep-n3": SweepN3, "regularize-n3": RegularizeN3, "oneshot-cli": OneshotCli}


def run_pass(workload, out, tracer=None, host=None):
    """Run every task once; fold times and verdicts into `out`.

    Returns the pass wall time: the sum of its task times, which leaves out
    the probes between tasks.

    With `host`, the host is probed before every task and each task time is also
    recorded normalized to the reference host's speed, in `out["task_norm_s"]`,
    and the pass's normalized total in `out["walls_norm"]`.
    """
    results = []
    clock = time.perf_counter
    for k, task in enumerate(workload.tasks):
        if tracer is not None:
            tracer.task = k
        if host is not None:
            host.probe()
        t0 = clock()
        try:
            result = workload.run(task)
        except Exception as exc:  # one failing task is one failed row; the run goes on
            result = exc
        results.append((t0, clock() - t0, task, result))
    wall = sum(seconds for _, seconds, _, _ in results)
    if host is not None:
        normalized = [seconds * host.scale(t0 + seconds / 2) for t0, seconds, _, _ in results]
        out["task_norm_s"] += normalized
        out["walls_norm"].append(sum(normalized))
    for _, seconds, task, result in results:
        out["task_s"].append(seconds)
        out["attempted"] += 1
        if isinstance(result, Exception):
            out["failed"] += 1
            out["problems"].append(f"raised {type(result).__name__}: {result}")
            continue
        try:
            statuses, verdict, problems = workload.check(task, result)
        except Exception as exc:  # e.g. a command that exits 0 but writes no report
            out["failed"] += 1
            out["problems"].append(f"check raised {type(exc).__name__}: {exc}")
            continue
        out["verdicts"][verdict] += 1
        out["checks"].update(statuses.values())
        if problems:
            out["failed"] += 1
            out["problems"] += problems
    return wall


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("workdir")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, args.workdir, in_process=bool(args.trace))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    out = {"task_s": [], "task_norm_s": [], "walls_norm": [], "attempted": 0, "failed": 0,
           "problems": [], "verdicts": Counter(), "checks": Counter()}
    tracing.assert_clean()
    walls = []
    if args.trace:
        untraced = run_pass(workload, out)
        tracer = tracing.Tracer()
        with tracer:
            walls.append(run_pass(workload, out, tracer))
        tracing.assert_clean()
        out["layers"] = tracer.layer_metrics()
        out["layers"]["trace.overhead_s"] = walls[0] - untraced
        out["layers"]["cli.import_s"] = IMPORT_S
        spans = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-spans.json"
        with open(spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "task"],
                       "spans": tracer.spans}, fh)
    else:
        start = time.perf_counter()
        host = hostspeed.HostSpeed()
        while not walls or time.perf_counter() - start < args.seconds:
            walls.append(run_pass(workload, out, host=host))
        out["probe_s"] = host.seconds
    # Read before `finish()`, so the oracle's replay stays out of the peak.
    children = isinstance(workload, OneshotCli) and not args.trace
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    problems = workload.finish()
    out["failed"] += len(problems)
    out["problems"] += problems
    out.update(walls=walls, peak_rss_mb=usage.ru_maxrss / 1024, import_s=IMPORT_S,
               numpy=numpy.__version__, python=sys.version.split()[0])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
