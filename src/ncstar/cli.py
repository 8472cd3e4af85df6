"""Batch front end: load pair files, run verifications and witness suites, emit reports.

Exit codes are stable across output formats:

* 0 -- everything requested was certified,
* 1 -- some check failed or stayed inconclusive (including a witness
       whose model exceeds the residual tolerance, or whose family falls
       short of its rank, as a degenerate sample set does), or a sweep
       task raised: its row names the error and the other rows stand,
* 2 -- a usage or input error: a ValueError or OSError raised on the
       flags or the input files, or a DimensionCap (the --bound's relation
       span exceeds its size cap).  Any other exception is a bug and shows
       a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Optional

from . import __version__, presentations, verifier
from .ncalg import DimensionCap
from .presentations import (CommutationPair, enumerate_pairs, is_regular, load_pair,
                            pair_from_json_dict, regularize)


@dataclass
class RunConfig:
    degree_bound: int = 2  # total degree of the relation products m1*r*m2 spanned
    residual_tolerance: float = verifier.RESIDUAL_TOLERANCE
    svd_threshold: float = verifier.SVD_THRESHOLD
    seed: int = 0
    jobs: int = 0  # 0 means: use available parallelism
    output: str = ""
    format: str = "text"

    def __post_init__(self):
        if not 2 <= self.degree_bound <= 4:
            side = "above the cap of 4" if self.degree_bound > 4 else "below the minimum of 2"
            raise ValueError(f"{_field('degree_bound')}: bound {self.degree_bound} is {side}")
        for name in ("residual_tolerance", "svd_threshold"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{_field(name)} must be finite, not {value}")
            if value <= 0:
                raise ValueError(f"{_field(name)} must be strictly positive")
        if self.seed < 0:
            raise ValueError(f"{_field('seed')} must be non-negative, not {self.seed}")
        if self.format not in ("json", "text"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.jobs < 0:
            raise ValueError(f"{_field('jobs')} must be 0 (all cores) or positive, not {self.jobs}")

    def effective_jobs(self) -> int:
        if self.jobs > 0:
            return self.jobs
        env = os.environ.get("NCSTAR_JOBS")
        if env:
            try:
                jobs = int(env)
            except ValueError:
                jobs = 0
            if jobs < 1:
                raise ValueError(f"NCSTAR_JOBS must be a positive integer, not {env!r}")
            return jobs
        return max(1, os.cpu_count() or 1)

    def _recorded(self) -> dict:
        """The fields a report records: all but the output path."""
        return {k: v for k, v in asdict(self).items() if k != "output"}

    def hash(self) -> str:
        body = {**self._recorded(), "version": __version__}
        return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]

    def envelope(self) -> dict:
        return {
            "tool": "ncstar",
            "version": __version__,
            "config": self._recorded(),
            "config_hash": self.hash(),
        }


def _emit(config: RunConfig, task: str, body: dict, text_lines) -> None:
    if config.format == "json":
        out = json.dumps({**config.envelope(), "task": task, **body}, indent=2) + "\n"
    else:
        out = "\n".join(text_lines) + "\n"
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _failure_detail(check) -> str:
    """A failed check's certificate detail, as text lines append it."""
    return f"  ({check.certificate.detail})" if check.certificate.detail and not check.passed else ""


def _report_lines(report) -> list:
    lines = [f"task: {report.task}"]
    for notice in report.notices:
        lines.append(f"  note: {notice}")
    width = max((len(c.name) for c in report.checks), default=0)
    for c in report.checks:
        mark = "ok " if c.passed else "FAIL"
        lines.append(f"  [{mark}] {c.name:<{width}}  {c.certificate.status}" + _failure_detail(c))
    lines.append(f"overall: {report.overall}  passed: {report.passed}")
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_regularize(args, config: RunConfig) -> int:
    pair = load_pair(args.input)
    before = is_regular(pair)
    fixed = regularize(pair)
    report = {
        "input_pair": pair.to_json_dict(),
        "was_regular": before.is_regular,
        "violations_convention_A": [list(v) for v in before.violations_convention_A],
        "violations_convention_B": list(before.violations_convention_B),
        "output_pair": fixed.to_json_dict(),
        "changed": fixed != pair,
    }
    if args.pair_output:
        presentations.save_pair(fixed, args.pair_output)
    lines = [
        f"regular: {str(before.is_regular).lower()}",
        f"violations A: {[list(v) for v in before.violations_convention_A]}",
        f"violations B: {list(before.violations_convention_B)}",
        f"changed: {fixed != pair}",
        f"output eta: {[list(r) for r in fixed.eta]}",
        f"output epsilon: {[list(r) for r in fixed.epsilon]}",
    ]
    _emit(config, "regularize", {"report": report}, lines)
    return 0


class _Target(NamedTuple):
    run: Callable  # (pair, bound, orbit table or None) -> VerificationReport
    sweep: Optional[Callable]  # a sweep level's pairs -> the ones it runs; None: never swept


def _tuple_space_pairs(pairs) -> list:
    """One (epsilon, 0) pair per epsilon, in first-seen order."""
    epsilons = dict.fromkeys(p.epsilon for p in pairs)
    return [CommutationPair(len(e), e, ((0,) * len(e),) * len(e)) for e in epsilons]


# Each row looks up the verifier function and `is_regular` when it runs, not
# when this module is imported, so a rebound module attribute is seen.
_TARGETS = {
    "hopf": _Target(lambda pair, bound, orbits: verifier.verify_comultiplication(pair, bound, orbits),
                    lambda pairs: pairs),
    "sphere-action": _Target(
        lambda pair, bound, orbits: verifier.verify_sphere_action(pair, "both", bound, orbits),
        lambda pairs: [p for p in pairs if is_regular(p).is_regular]),
    "tuple-action": _Target(
        lambda pair, bound, orbits: verifier.verify_tuple_action(pair.epsilon, "both", bound, orbits),
        _tuple_space_pairs),
    "noninjectivity": _Target(
        lambda pair, bound, orbits: verifier.verify_noninjectivity_example(pair), None),
}

SWEEP_TARGETS = tuple(name for name, target in _TARGETS.items() if target.sweep)
_SWEEP_ORBITS: dict = {}  # the orbit table of the running sweep

# At --bound 2 on a 2-core host, hopf at n = 11 takes about 20 s and 0.5 GB on
# epsilon = 0, eta all ones (0.9 GB classical); at n = 12, 0.8 GB (1.4 GB).
MAX_VERIFY_N = 11


def cmd_verify(args, config: RunConfig) -> int:
    if args.target != "noninjectivity" and not args.input:
        raise ValueError(f"target {args.target} requires --input PAIRFILE")
    if args.target == "noninjectivity" and hasattr(args, "degree_bound"):
        raise ValueError("target noninjectivity takes no --bound: its certificate is fixed at degree 2")
    pair = load_pair(args.input) if args.input else None
    if pair is not None and pair.n > MAX_VERIFY_N:
        raise ValueError(f"verify is capped at n={MAX_VERIFY_N}; got n={pair.n}")
    report = _TARGETS[args.target].run(pair, config.degree_bound, None)
    _emit(config, f"verify:{args.target}",
          {"report": report.to_json_dict(include_timings=args.timings)}, _report_lines(report))
    return 0 if report.passed else 1


def _sweep_worker(task):
    """One sweep row; a task that raises is one failing row naming the error.

    DimensionCap still ends the sweep: the --bound is too large for it all.
    """
    target, pair_dict, bound = task
    pair = pair_from_json_dict(pair_dict)
    try:
        report = _TARGETS[target].run(pair, bound, _SWEEP_ORBITS)
    except DimensionCap:
        raise
    except Exception as exc:  # one failing task must not end the sweep
        import traceback
        traceback.print_exc()
        return {"target": target, "pair": pair.compact(),
                "error": f"{type(exc).__name__}: {exc}", "passed": False}
    statuses = {}
    for c in report.checks:
        statuses[c.certificate.status] = statuses.get(c.certificate.status, 0) + 1
    return {
        "target": target,
        "pair": pair.compact(),
        "checks": len(report.checks),
        "statuses": dict(sorted(statuses.items())),
        "overall": report.overall,
        "passed": report.passed,
        "notices": list(report.notices),
    }


def sweep_tasks(n: int, targets, config: RunConfig, sample: int = 0) -> list:
    """Deterministic task list for one sweep level."""
    pairs = enumerate_pairs(n)
    if sample:
        import random
        rng = random.Random(config.seed)
        pairs = sorted(rng.sample(pairs, min(sample, len(pairs))), key=lambda p: p.flat())
    return [(target, p.to_json_dict(), config.degree_bound)
            for target in targets for p in _TARGETS[target].sweep(pairs)]


def run_sweep(n: int, targets, config: RunConfig, sample: int = 0) -> dict:
    tasks = sweep_tasks(n, targets, config, sample)
    _SWEEP_ORBITS.clear()  # before any pool forks, so each worker starts empty
    # more workers than tasks or cores would only wait
    jobs = min(config.effective_jobs(), len(tasks), os.cpu_count() or 1)
    if jobs > 1 and len(tasks) > 4:
        import multiprocessing
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_sweep_worker, tasks, chunksize=8)
    else:
        results = [_sweep_worker(t) for t in tasks]
    totals = {"tasks": len(results), "passed": sum(1 for r in results if r["passed"])}
    return {
        "n": n,
        "targets": list(targets),
        "sample": sample,
        "results": results,
        "totals": totals,
        "overall_passed": totals["passed"] == totals["tasks"],
    }


def cmd_sweep(args, config: RunConfig) -> int:
    targets = args.targets.split(",") if args.targets else list(SWEEP_TARGETS)
    for k, t in enumerate(targets):
        if t not in SWEEP_TARGETS:
            raise ValueError(f"unknown sweep target {t!r}")
        if t in targets[:k]:
            raise ValueError(f"--targets names {t!r} more than once")
    if args.sample < 0:
        raise ValueError(f"--sample must be non-negative, not {args.sample}")
    if not 1 <= args.n <= 4:
        raise ValueError(f"--n must be between 1 and 4, not {args.n}")
    if args.n == 4 and not args.sample:
        raise ValueError("n=4 sweeps require --sample N")
    body = run_sweep(args.n, targets, config, args.sample)
    lines = [
        f"{r['target']:<14} {r['pair']:<40} {r.get('overall', 'error'):<12} "
        f"{'pass' if r['passed'] else 'FAIL'}" + (f"  ({r['error']})" if "error" in r else "")
        for r in body["results"]
    ]
    lines.append(f"total: {body['totals']['passed']}/{body['totals']['tasks']} passed")
    _emit(config, "sweep", body, lines)
    return 0 if body["overall_passed"] else 1


def _parse_phases(tokens, suite, names):
    if tokens is None:
        return None
    if not tokens:
        raise ValueError("--phases needs at least one sample z1,z2")
    if "torus" not in names:
        raise ValueError(f"--phases applies only to the torus suite, not to {suite!r}")
    samples = []
    for tok in tokens:
        parts = tok.split(",")
        if len(parts) != 2:
            raise ValueError(f"phase sample {tok!r} must look like z1,z2")
        samples.append((_phase(tok, parts[0]), _phase(tok, parts[1])))
    return samples


def _phase(tok, part):
    try:
        z = complex(part)
    except ValueError:
        raise ValueError(f"phase sample {tok!r}: {part!r} is not a complex number") from None
    # repmodels.torus_model checks again for API callers; written so that nan
    # fails too: every comparison with nan is false
    from .repmodels import UNIT_CIRCLE_TOLERANCE
    if not abs(abs(z) - 1.0) <= UNIT_CIRCLE_TOLERANCE:
        raise ValueError(f"--phases sample {tok!r}: {part!r} is not on the unit circle")
    return z


# The free-unitary witness holds dim x dim matrices and a 4 x dim**2 family:
# at --dim 1024 a run takes seconds, far above it minutes or more memory than
# a machine has.
MAX_WITNESS_DIM = 1024


def cmd_witness(args, config: RunConfig) -> int:
    names = verifier.witness_suites(args.suite)
    # without --dim the suite's own default stands
    dim = {}
    if args.dim is not None:
        if "free-unitary" not in names:
            raise ValueError(f"--dim applies only to the free-unitary suite, not to {args.suite!r}")
        if args.dim > MAX_WITNESS_DIM:
            raise ValueError(f"--dim must be at most {MAX_WITNESS_DIM}, not {args.dim}")
        dim["dim"] = args.dim
    report = verifier.verify_independence_suite(
        args.suite,
        svd_threshold=config.svd_threshold,
        residual_tolerance=config.residual_tolerance,
        seed=config.seed,
        torus_samples=_parse_phases(args.phases, args.suite, names),
        **dim,
    )
    lines = []
    for c in report.checks:
        ev = c.certificate.nonzero_evidence or {}
        lines.append(f"[{'ok ' if c.passed else 'FAIL'}] {c.name}: rank "
                     f"{ev.get('rank')}/{ev.get('expected_rank')} "
                     f"min-sv {min(ev.get('singular_values') or [0]):.3e}" + _failure_detail(c))
    lines.append(f"overall passed: {report.passed}")
    _emit(config, "witness", {"report": report.to_json_dict(include_timings=args.timings)}, lines)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# RunConfig field -> (flag, argparse options).  Every subcommand takes --format
# and --output, plus the flags it reads.  A flag left off the command line
# leaves no attribute, so RunConfig's own default holds.
_FLAGS = {
    "degree_bound": ("--bound", dict(type=int, metavar="BOUND",
                                     help="total degree of the relation products m1*r*m2 "
                                          "each check reduces against (2 to 4, default 2)")),
    "residual_tolerance": ("--tol", dict(type=float, metavar="TOL",
                                         help="residual tolerance for witnesses (default "
                                              f"{verifier.RESIDUAL_TOLERANCE:g})")),
    "svd_threshold": ("--svd-threshold", dict(type=float,
                                              help="singular value threshold (default "
                                                   f"{verifier.SVD_THRESHOLD:g})")),
    "seed": ("--seed", dict(type=int, help="seed for pseudo-random witnesses and sweep samples "
                                           "(default 0)")),
    "jobs": ("--jobs", dict(type=int, help="parallel workers (default: NCSTAR_JOBS or all cores; "
                                           "never more than the cores or the tasks)")),
    "format": ("--format", dict(choices=("json", "text"), help="report format (default text)")),
    "output": ("--output", dict(help="write the report to this path instead of stdout")),
}


def _field(name: str) -> str:
    """A RunConfig field as messages name it: the field and its flag."""
    return f"{name} ({_FLAGS[name][0]})"


def _add_flags(parser: argparse.ArgumentParser, *fields, timings=False):
    for name in fields + ("format", "output"):
        flag, options = _FLAGS[name]
        parser.add_argument(flag, dest=name, default=argparse.SUPPRESS, **options)
    if timings:
        parser.add_argument("--timings", action="store_true",
                            help="include per-check timings in JSON reports "
                                 "(off by default so identical runs emit identical bytes)")


def _config_from(args) -> RunConfig:
    return RunConfig(**{name: getattr(args, name) for name in _FLAGS if hasattr(args, name)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncstar",
        description="certify relation preservation and nonvanishing witnesses for "
                    "partial-commutation *-algebras and their quantum symmetry groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("regularize", help="validate a pair file and enforce the regularity conventions")
    p.add_argument("--input", required=True, help="pair JSON file")
    p.add_argument("--pair-output", default="", help="write the regularized pair here")
    _add_flags(p)

    p = sub.add_parser("verify", help="run one verification target")
    p.add_argument("target", choices=tuple(_TARGETS))
    p.add_argument("--input", default="", help="pair JSON file (not needed for noninjectivity)")
    _add_flags(p, "degree_bound", timings=True)

    p = sub.add_parser("sweep", help="run targets over every pair of a given size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--targets", default="", help="comma-separated subset of "
                                                 + ",".join(SWEEP_TARGETS))
    p.add_argument("--sample", type=int, default=0, help="sample size (required for n=4)")
    _add_flags(p, "degree_bound", "seed", "jobs")

    p = sub.add_parser("witness", help="run independence witness suites")
    p.add_argument("suite", help="suite name or 'all': " + ", ".join(verifier.INDEPENDENCE_SUITES))
    p.add_argument("--dim", type=int, default=None,
                   help="dimension for the seeded unitary witness, for the free-unitary suite "
                        f"or all (3 to {MAX_WITNESS_DIM}, default 4)")
    p.add_argument("--phases", nargs="*", action="extend", default=None,
                   help="torus phase samples, each as z1,z2 (e.g. 1,1 1,1j), for the torus "
                        "suite or all; repeated flags add up, and --phases=-1,1j gives a "
                        "sample starting with '-'")
    _add_flags(p, "residual_tolerance", "svd_threshold", "seed", timings=True)
    return parser


_COMMANDS = {
    "regularize": cmd_regularize,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "witness": cmd_witness,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _config_from(args)
        return _COMMANDS[args.command](args, config)
    except DimensionCap as exc:
        print(f"error: the relation span at --bound {config.degree_bound} is too large: {exc}",
              file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
