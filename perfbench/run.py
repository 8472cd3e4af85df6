"""The ncstar certification benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in its own fresh
process (`worker.py`) against `src/`, at jobs=1, and every verdict is checked
against `oracle.py`.  Set-up is timed over several fresh processes and the
median is reported.  The last line of standard output is one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it carries provenance and the figures that do not fit a
metric (failed_frac, the tail percentile and its sample count).  Both are
also written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-n3", "regularize-n3", "oneshot-cli")
SETUP_SAMPLES = 3  # fresh processes timed from spawn to READY; the last one runs the workload
TAIL_BEYOND = 10
DEADLINE_S = 170

END_TO_END = {"wall_s": "s", "task_p50_ms": "ms", "task_tail_ms": "ms", "proved_frac": "ratio",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "presentations.calls": "count", "presentations.busy_s": "s", "presentations.relations": "count",
    "span.calls": "count", "span.busy_s": "s", "span.rank": "count", "span.relation_rows": "count",
    "span.monomials": "count",
    "hom.calls": "count", "hom.busy_s": "s", "hom.terms_in": "count", "hom.tensor_terms": "count",
    "reduce.calls": "count", "reduce.busy_s": "s", "reduce.word_queries": "count",
    "reduce.residue_hit_ratio": "ratio",
    "membership.calls": "count", "membership.busy_s": "s", "membership.proved_ratio": "ratio",
    "scalars.mul_calls": "count", "scalars.add_calls": "count", "scalars.div_calls": "count",
    "repmodels.calls": "count", "repmodels.busy_s": "s", "repmodels.residual_checks": "count",
    "cli.import_s": "s", "cli.serialize_s": "s", "cli.report_bytes": "bytes",
    "verifier.calls": "count", "verifier.self_s": "s", "trace.overhead_s": "s",
    **{f"{layer}.errors": "count" for layer in ("presentations", "span", "hom", "reduce", "membership",
                                                "scalars", "repmodels", "verifier", "cli")},
}
NOTE = "no layer has a wait metric: one caller at jobs=1, so nothing queues"


def tail(samples, beyond=TAIL_BEYOND):
    """The sample at the highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample count).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"{n} samples leave none with {beyond} beyond it")
    k = n - beyond - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(result: dict, setup: list, setup_norm: list) -> tuple:
    """The end-to-end metrics, and the detail figures that go beside them.

    The times are normalized to the reference host's speed (`hostspeed.py`);
    the detail gives them as measured too, with the host's measured slowdown.
    """
    tail_s, pct, count = tail(result["task_norm_s"])
    checks = sum(result["checks"].values())
    conclusive = sum(result["checks"].get(s, 0) for s in ("ProvedZero", "ProvedNonzero"))
    return {
        "wall_s": statistics.median(result["walls_norm"]),
        "task_p50_ms": 1000 * statistics.median(result["task_norm_s"]),
        "task_tail_ms": 1000 * tail_s,
        "proved_frac": conclusive / checks,
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": result["peak_rss_mb"],
    }, {"task_tail_percentile": pct, "task_samples": count,
        "failed_frac": result["failed"] / result["attempted"],
        "measured": {"wall_s": statistics.median(result["walls"]),
                     "task_p50_ms": 1000 * statistics.median(result["task_s"]),
                     "task_tail_ms": 1000 * tail(result["task_s"])[0],
                     "setup_s": statistics.median(setup)},
        "host_slowdown": statistics.median(result["probe_s"]) / hostspeed.NOMINAL_S,
        "probes": len(result["probe_s"])}


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_rev():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


class Worker:
    """One fresh worker process; kills it if the run's deadline passes."""

    def __init__(self, args, workdir, deadline, extra=()):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
               str(args.seconds), str(args.trace), str(workdir), *extra]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()

    def ready(self) -> float:
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            raise RuntimeError("worker failed during set-up")
        return time.perf_counter() - self.start

    def finish(self) -> list:
        lines = self.proc.stdout.read().splitlines()
        if self.proc.wait() != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return lines

    def close(self):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def measure(args, workdir, deadline):
    """Time set-up in fresh processes; the last of them also runs the workload.

    Returns the workload's result and the set-up times, as measured and
    normalized to the reference host's speed by probes taken before each start.
    """
    host = hostspeed.HostSpeed()
    setup = []
    # The first start is untimed, so bytecode caches exist as they would for any user.
    for k in range(SETUP_SAMPLES + 1):
        host.probe()
        worker = Worker(args, workdir, deadline, [] if k == SETUP_SAMPLES else ["--setup-only"])
        try:
            seconds = worker.ready()
            started = worker.start
            lines = worker.finish()
        finally:
            worker.close()
        if k:
            setup.append((started, seconds))
    return (json.loads(lines[-1]), [s for _, s in setup],
            [s * host.scale(t + s / 2) for t, s in setup])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ncstar" / "__init__.py").is_file():
        print(f"error: no ncstar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    # This process and every process it starts share one CPU, so that the
    # host-speed probes run on the core that runs the timed work.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    provenance = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "git_rev": _git_rev(), "source_sha256": _source_digest(),
                  "nproc": nproc, "cpu": cpu, "loadavg_start": _loadavg()}
    out_dir = ROOT / ".perfbench_out"
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    workdir.mkdir(parents=True)
    try:
        result, setup, setup_norm = measure(args, workdir, deadline)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    provenance.update(python=result["python"], numpy=result["numpy"])
    if args.trace:
        metrics = {name: result["layers"][name] for name in PER_LAYER}
        units = PER_LAYER
        extra = {}
    else:
        metrics, extra = end_to_end(result, setup, setup_norm)
        units = END_TO_END
    detail = {**provenance, **extra, "note": NOTE, "attempted": result["attempted"],
              "failed": result["failed"], "verdicts": result["verdicts"], "checks": result["checks"],
              "passes": len(result["walls"]), "setup_samples_s": setup,
              "problems": result["problems"][:20]}
    final = {"correct": result["failed"] == 0, "attempted": result["attempted"],
             "failed": result["failed"],
             "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": final}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
