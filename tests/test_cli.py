"""CLI behavior: exit codes, file handling, deterministic JSON."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ncstar import cli, verifier
from ncstar.cli import SWEEP_TARGETS, RunConfig, main, sweep_tasks
from ncstar.ncalg import DimensionCap


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def pair_file(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(degree_bound=0)
    with pytest.raises(ValueError, match="bound 5 is above the cap of 4"):
        RunConfig(degree_bound=5)
    with pytest.raises(ValueError):
        RunConfig(svd_threshold=0.0)
    for name in ("residual_tolerance", "svd_threshold"):
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match=f"^{name} .* must be finite"):
                RunConfig(**{name: value})
    with pytest.raises(ValueError, match="^seed .* must be non-negative, not -1"):
        RunConfig(seed=-1)


def test_negative_jobs_rejected(capsys):
    with pytest.raises(ValueError):
        RunConfig(jobs=-1)
    assert run_cli("sweep", "--n", "2", "--jobs", "-1") == 2
    assert "jobs (--jobs) must be 0 (all cores) or positive, not -1" in capsys.readouterr().err


def test_config_hash_stable_and_sensitive():
    a = RunConfig()
    b = RunConfig()
    c = RunConfig(seed=1)
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()


def test_jobs_env_override(monkeypatch):
    monkeypatch.setenv("NCSTAR_JOBS", "3")
    assert RunConfig().effective_jobs() == 3
    monkeypatch.delenv("NCSTAR_JOBS")
    assert RunConfig(jobs=2).effective_jobs() == 2


@pytest.mark.parametrize("jobs,cores,size", [("5000", 64, 23), ("5000", 2, 2), ("3", 64, 3)])
def test_sweep_pool_never_exceeds_cores_or_tasks(jobs, cores, size, monkeypatch, capsys):
    # a stand-in pool records its size and maps in process, so no worker starts
    import multiprocessing
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    # the n = 2 sweep has 23 tasks
    assert run_cli("sweep", "--n", "2", "--jobs", jobs) == 0
    assert sizes == [size]
    assert capsys.readouterr().out.endswith("total: 23/23 passed\n")


@pytest.mark.parametrize("value", ["abc", "-3", "0"])
def test_jobs_env_must_be_positive_integer(value, monkeypatch, capsys):
    monkeypatch.setenv("NCSTAR_JOBS", value)
    assert run_cli("sweep", "--n", "1") == 2
    assert f"NCSTAR_JOBS must be a positive integer, not {value!r}" in capsys.readouterr().err
    # an explicit --jobs never reads the variable
    assert run_cli("sweep", "--n", "1", "--jobs", "1") == 0


def test_bound_above_cap_exit_2(pair_file, capsys):
    path = pair_file("p.json", {"n": 1, "epsilon": [[0]], "eta": [[1]]})
    assert run_cli("verify", "hopf", "--input", path, "--bound", "5") == 2
    err = capsys.readouterr().err
    assert "bound 5 is above the cap of 4" in err
    assert "product_bound" not in err


@pytest.mark.parametrize("flag", ["--product-bound", "--steps"])
def test_removed_flags_are_usage_errors(flag, pair_file):
    path = pair_file("p.json", {"n": 1, "epsilon": [[0]], "eta": [[1]]})
    assert run_cli("verify", "hopf", "--input", path, flag, "4") == 2


def test_dimension_cap_exit_2(pair_file, monkeypatch, capsys):
    def too_large(pres, bound=2, **kw):
        raise DimensionCap("product span exceeded 10 sparse entries")
    monkeypatch.setattr(verifier, "build_quotient_basis", too_large)
    # neither half can be carried: verify keeps no orbit table, and a sweep starts its own empty
    path = pair_file("p.json", {"n": 1, "epsilon": [[0]], "eta": [[1]]})
    assert run_cli("verify", "hopf", "--input", path, "--bound", "3") == 2
    err = capsys.readouterr().err
    assert "--bound 3" in err and "Traceback" not in err
    assert run_cli("sweep", "--n", "1", "--jobs", "1") == 2


def test_internal_error_is_not_a_usage_error(pair_file, monkeypatch):
    # exit 2 is for bad flags and files; a KeyError inside a target is a bug
    def run(pair, bound, orbits):
        raise KeyError("internal")
    monkeypatch.setitem(cli._TARGETS, "hopf", cli._TARGETS["hopf"]._replace(run=run))
    path = pair_file("p.json", {"n": 1, "epsilon": [[0]], "eta": [[1]]})
    with pytest.raises(KeyError, match="internal"):
        run_cli("verify", "hopf", "--input", path)


def test_verify_and_sweep_share_the_target_table(pair_file, monkeypatch):
    # both commands look the verifier entry point up when they run
    calls = []
    real = verifier.verify_tuple_action

    def spy(epsilon, side, bound, orbits):
        calls.append(bound)
        return real(epsilon, side, bound, orbits)
    monkeypatch.setattr(verifier, "verify_tuple_action", spy)
    path = pair_file("p.json", {"n": 2, "epsilon": [[0, 1], [1, 0]]})
    assert run_cli("verify", "tuple-action", "--input", path, "--bound", "3") == 0
    assert run_cli("sweep", "--n", "2", "--targets", "tuple-action", "--jobs", "1") == 0
    assert calls == [3, 2, 2]  # n = 2 has two epsilon matrices


def _counted(monkeypatch, name):
    """A list that grows by one on each call of verifier.<name>."""
    calls = []
    real = getattr(verifier, name)

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(verifier, name, counted)
    return calls


def test_verify_computes_no_orbit_key(pair_file, monkeypatch, capsys):
    # a one-shot verify has no later task to carry, so it relabels nothing
    canonical, rows = _counted(monkeypatch, "_canonical"), _counted(monkeypatch, "_rows")
    path = pair_file("p.json", {"n": 2, "epsilon": [[0, 1], [1, 0]], "eta": [[1, 1], [1, 1]]})
    for target in ("hopf", "sphere-action", "tuple-action"):
        for bound in ("2", "3"):
            assert run_cli("verify", target, "--input", path, "--bound", bound) == 0
    assert not canonical and not rows
    assert run_cli("sweep", "--n", "2", "--jobs", "1") == 0
    assert canonical and rows


def test_each_sweep_carries_only_its_own_reductions(monkeypatch, capsys):
    # a second identical sweep in one process starts from an empty orbit table
    built = _counted(monkeypatch, "build_quotient_basis")
    counts = []
    for _ in range(2):
        assert run_cli("sweep", "--n", "2", "--jobs", "1") == 0
        counts.append(len(built))
        del built[:]
    assert counts[0] == counts[1] > 0


# ---------------------------------------------------------------------------
# regularize
# ---------------------------------------------------------------------------

def test_regularize_regular_pair(pair_file, capsys):
    path = pair_file("p.json", {"n": 2, "epsilon": [[0, 1], [1, 0]], "eta": [[0, 0], [0, 0]]})
    assert run_cli("regularize", "--input", path) == 0
    out = capsys.readouterr().out
    assert "regular: true" in out
    assert "changed: False" in out


def test_regularize_promotes_diagonal(pair_file, tmp_path, capsys):
    path = pair_file("p.json", {"n": 2, "epsilon": [[0, 1], [1, 0]], "eta": [[0, 1], [1, 0]]})
    out_path = tmp_path / "fixed.json"
    assert run_cli("regularize", "--input", path, "--pair-output", str(out_path)) == 0
    fixed = json.loads(out_path.read_text())
    assert fixed["eta"] == [[1, 1], [1, 1]]


def test_regularize_malformed_exit_2(pair_file, capsys):
    path = pair_file("p.json", {"n": 2, "epsilon": [[0, 1], [0, 0]], "eta": [[0, 0], [0, 0]]})
    assert run_cli("regularize", "--input", path) == 2
    assert "(1,2)" in capsys.readouterr().err


@pytest.mark.parametrize("payload,names", [
    (5, "JSON object"),
    ({"epsilon": 5}, "epsilon must be a list"),
    ({"epsilon": [[0, None], [None, 0]]}, "epsilon[1,2] = None"),
    ({"epsilon": [[0, 1], [1, 0]], "eta": 3}, "eta must be a list"),
    ({"epsilon": [[0, 1], [1, 0]], "n": 2.0}, "n must be an integer"),
    ({"epsilon": [[0, 1.5], [1.5, 0]]}, "epsilon[1,2] = 1.5"),
    ({"epsilon": [[0, "1"], ["1", 0]]}, "epsilon[1,2] = '1'"),
    ({"epsilon": [[0, True], [True, 0]]}, "epsilon[1,2] = True"),
], ids=["scalar-file", "scalar-matrix", "null-entry", "scalar-eta", "float-n",
        "float-entry", "string-entry", "bool-entry"])
def test_verify_malformed_pair_file_exit_2(payload, names, pair_file, capsys):
    path = pair_file("p.json", payload)
    assert run_cli("verify", "hopf", "--input", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err


def test_regularize_missing_file():
    assert run_cli("regularize", "--input", "/nonexistent/pair.json") == 2


@pytest.mark.parametrize("argv,culprit", [
    (["verify", "hopf", "--input", "{dir}"], "{dir}"),
    (["verify", "noninjectivity", "--output", "{dir}"], "{dir}"),
    (["regularize", "--input", "{pair}", "--pair-output", "{dir}"], "{dir}"),
    (["regularize", "--input", "{pair}/x"], "{pair}/x"),
], ids=["input-dir", "output-dir", "pair-output-dir", "input-under-file"])
def test_unusable_path_exit_2(argv, culprit, pair_file, tmp_path, capsys):
    paths = {"dir": tmp_path, "pair": pair_file("p.json", {"epsilon": [[0, 1], [1, 0]]})}
    assert run_cli(*(a.format(**paths) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(culprit.format(**paths)) in err


def test_regularize_eta_omitted(pair_file, capsys):
    path = pair_file("p.json", {"n": 2, "epsilon": [[0, 1], [1, 0]]})
    assert run_cli("regularize", "--input", path) == 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_hopf_classical(pair_file):
    path = pair_file("p.json", {"n": 2, "epsilon": [[0, 1], [1, 0]], "eta": [[1, 1], [1, 1]]})
    assert run_cli("verify", "hopf", "--input", path) == 0


def test_verify_noninjectivity(capsys):
    assert run_cli("verify", "noninjectivity", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    checks = {c["relation"]: c for c in payload["report"]["checks"]}
    assert checks["X12-vanishes"]["evidence"]["zero_evidence"]["lhs_multiple"] == "2"
    assert checks["x1x2*-nonzero"]["evidence"]["nonzero_evidence"]["image_norm"] == 0.5


@pytest.mark.parametrize("payload,code,statuses", [
    ({"n": 2, "epsilon": [[0, 0], [0, 0]], "eta": [[0, 1], [1, 0]]}, 0,
     ["ProvedZero", "ProvedNonzero"]),
    # the column product still vanishes, but the witness is no model of this sphere
    ({"n": 2, "epsilon": [[0, 1], [1, 0]], "eta": [[0, 1], [1, 0]]}, 1,
     ["ProvedZero", "Inconclusive"]),
    ({"n": 2, "epsilon": [[0, 0], [0, 0]], "eta": [[0, 0], [0, 0]]}, 1,
     ["Inconclusive", "Inconclusive"]),
], ids=["mixed", "commuting", "free"])
def test_verify_noninjectivity_reads_its_input(payload, code, statuses, pair_file, capsys):
    path = pair_file("p.json", payload)
    assert run_cli("verify", "noninjectivity", "--input", path, "--format", "json") == code
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["pair"] == payload
    assert [c["status"] for c in report["checks"]] == statuses


def test_verify_noninjectivity_rejects_bound(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli("verify", "noninjectivity", "--bound", "3", "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--bound" in err
    assert not out.exists()


def test_verify_sphere_action_nonregular_notice(pair_file, capsys):
    path = pair_file("p.json", {"n": 2, "epsilon": [[0, 1], [1, 0]], "eta": [[0, 1], [1, 0]]})
    assert run_cli("verify", "sphere-action", "--input", path, "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert any("regularized first" in n for n in payload["report"]["notices"])


def test_verify_requires_input(capsys):
    assert run_cli("verify", "hopf") == 2


def test_verify_tuple_action(pair_file):
    path = pair_file("p.json", {"n": 2, "epsilon": [[0, 1], [1, 0]]})
    assert run_cli("verify", "tuple-action", "--input", path) == 0


def test_verify_refuses_a_pair_above_the_cap(pair_file, monkeypatch, capsys):
    built = []

    def spy(pair):
        built.append(pair)
        raise AssertionError("a presentation was built for a pair above the cap")
    monkeypatch.setattr(verifier, "unitary_qg_presentation", spy)
    n = cli.MAX_VERIFY_N + 1
    zero = [[0] * n for _ in range(n)]
    path = pair_file("p.json", {"n": n, "epsilon": zero, "eta": zero})
    assert run_cli("verify", "hopf", "--input", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"n={cli.MAX_VERIFY_N}" in err and f"n={n}" in err
    assert built == []


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_n1_all_targets(capsys):
    assert run_cli("sweep", "--n", "1", "--jobs", "1") == 0
    out = capsys.readouterr().out
    assert "total: 4/4 passed" in out


def test_sweep_n2_hopf_json(capsys):
    assert run_cli("sweep", "--n", "2", "--targets", "hopf", "--jobs", "1",
                   "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["totals"] == {"tasks": 16, "passed": 16}
    assert all(r["overall"] == "ProvedZero" for r in payload["results"])


def test_sweep_sphere_action_regular_subset(capsys):
    assert run_cli("sweep", "--n", "2", "--targets", "sphere-action", "--jobs", "1",
                   "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["totals"]["tasks"] == 5  # the regular pairs only


def test_sweep_task_lists_are_pinned():
    # the order and the pair selection of every sweep target, sampled n = 4 included
    levels = [sweep_tasks(n, SWEEP_TARGETS, RunConfig()) for n in (1, 2, 3)]
    levels.append(sweep_tasks(4, SWEEP_TARGETS, RunConfig(), sample=50))
    digest = hashlib.sha256()
    for tasks in levels:
        digest.update(json.dumps(tasks).encode())
    assert digest.hexdigest() == "60c276f6feadd6cb02f4e258e7a5d4f2083c1c133a12ddeb4426408303848766"
    counts = Counter(target for target, _, _ in levels[2])
    assert counts == {"hopf": 512, "sphere-action": 98, "tuple-action": 8}


def test_sweep_guards(capsys):
    for n in ("0", "5"):
        assert run_cli("sweep", "--n", n) == 2
        assert capsys.readouterr().err == f"error: --n must be between 1 and 4, not {n}\n"
    assert run_cli("sweep", "--n", "4") == 2  # needs --sample
    capsys.readouterr()
    assert run_cli("sweep", "--n", "2", "--targets", "bogus") == 2
    assert capsys.readouterr().err == "error: unknown sweep target 'bogus'\n"


def test_sweep_n4_sample(capsys):
    assert run_cli("sweep", "--n", "4", "--targets", "tuple-action", "--sample", "2",
                   "--jobs", "1", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["totals"]["passed"] == payload["totals"]["tasks"] > 0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_one_failing_sweep_task_is_one_failing_row(jobs, monkeypatch, capsys):
    real = cli._TARGETS["hopf"]

    def run(pair, bound, orbits):
        if pair.epsilon[0][1]:
            raise RuntimeError(f"injected at {pair.compact()}")
        return real.run(pair, bound, orbits)
    # the n = 2 hopf sweep has 16 tasks, enough for a real pool at --jobs 2
    monkeypatch.setitem(cli._TARGETS, "hopf", real._replace(run=run))
    assert run_cli("sweep", "--n", "2", "--targets", "hopf", "--jobs", jobs,
                   "--format", "json") == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    pairs = [cli.pair_from_json_dict(d) for _, d, _ in sweep_tasks(2, ["hopf"], RunConfig())]
    assert [r["pair"] for r in payload["results"]] == [p.compact() for p in pairs]
    for pair, row in zip(pairs, payload["results"]):
        if pair.epsilon[0][1]:
            assert row == {"target": "hopf", "pair": pair.compact(),
                           "error": f"RuntimeError: injected at {pair.compact()}", "passed": False}
        else:
            assert row["passed"] and row["overall"] == "ProvedZero"
    assert payload["totals"] == {"tasks": 16, "passed": 8}
    assert not payload["overall_passed"]
    if jobs == "1":  # a pool worker's stderr is its own
        assert captured.err.count("RuntimeError: injected at") == 8


def test_failing_sweep_row_in_text(monkeypatch, capsys):
    def run(pair, bound, orbits):
        raise ValueError("bad")
    monkeypatch.setitem(cli._TARGETS, "hopf", cli._TARGETS["hopf"]._replace(run=run))
    assert run_cli("sweep", "--n", "1", "--targets", "hopf", "--jobs", "1") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["hopf", "eps=0;eta=0", "error", "FAIL", "(ValueError:", "bad)"]
    assert lines[-1] == "total: 0/2 passed"


def test_sweep_json_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("sweep", "--n", "2", "--targets", "tuple-action", "--jobs", "1",
                   "--format", "json", "--output", str(out1)) == 0
    assert run_cli("sweep", "--n", "2", "--targets", "tuple-action", "--jobs", "1",
                   "--format", "json", "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def test_witness_all(capsys):
    assert run_cli("witness", "all") == 0
    out = capsys.readouterr().out
    assert "overall passed: True" in out


def test_witness_single_suite_json(capsys):
    assert run_cli("witness", "o2plus", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    check = payload["report"]["checks"][0]
    assert check["status"] == "ProvedNonzero"
    assert check["evidence"]["nonzero_evidence"]["rank"] == 2


def test_witness_degenerate_phases_exit_1(capsys):
    assert run_cli("witness", "torus", "--phases", "1,1", "1,1") == 1
    captured = capsys.readouterr()
    assert captured.out == ("[FAIL] torus: rank 1/2 min-sv 0.000e+00  (rank shortfall: 1/2)\n"
                            "overall passed: False\n")
    assert captured.err == ""


def test_witness_single_phase_sample_shows_min_sv_zero(capsys):
    # one sample makes a 1x1 model: two members, one matrix entry
    assert run_cli("witness", "torus", "--phases", "1,1") == 1
    assert capsys.readouterr().out == ("[FAIL] torus: rank 1/2 min-sv 0.000e+00  "
                                       "(rank shortfall: 1/2)\noverall passed: False\n")
    assert run_cli("witness", "torus", "--phases", "1,1", "--format", "json") == 1
    ev = json.loads(capsys.readouterr().out)["report"]["checks"][0]["evidence"]["nonzero_evidence"]
    assert (ev["dim"], ev["rank"], ev["expected_rank"]) == (1, 1, 2)
    assert len(ev["singular_values"]) == 2 and ev["singular_values"][1] == 0.0


def test_witness_over_tolerance_is_one_failed_row(capsys):
    # the float free-unitary model's residuals are rounding errors near
    # 6.5e-16; the exact models' are 0, so only its row fails
    assert run_cli("witness", "all", "--tol", "1e-17") == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and lines[-1] == "overall passed: False"
    failed = [line for line in lines[:5] if line.startswith("[FAIL]")]
    assert [line.split(":")[0] for line in failed] == ["[FAIL] free-unitary"]
    assert failed[0].startswith("[FAIL] free-unitary: rank 4/4 min-sv ")
    assert "(model 'free-unitary-4d' violates gated relation 'Σ " in failed[0]
    residual = float(failed[0].rsplit("with residual ", 1)[1].rstrip(")"))
    assert 1e-17 < residual < 1e-14


def test_witness_near_degenerate_torus_passes_at_a_lower_threshold(capsys):
    # two samples 1e-6 apart: rank 2 with min-sv 5e-7, judged at the run's threshold
    argv = ("witness", "torus", "--phases", "1,1", "1,0.9999999999995+1e-06j")
    assert run_cli(*argv, "--svd-threshold", "1e-9") == 0
    assert capsys.readouterr().out == ("[ok ] torus: rank 2/2 min-sv 5.000e-07\n"
                                       "overall passed: True\n")
    assert run_cli(*argv) == 1
    assert "(rank shortfall: 1/2)" in capsys.readouterr().out


@pytest.mark.parametrize("argv,message", [
    (["torus", "--phases"], "--phases needs at least one sample z1,z2"),
    (["probe-products", "--phases", "1,1", "1,1j"],
     "--phases applies only to the torus suite, not to 'probe-products'"),
], ids=["no-sample", "other-suite"])
def test_witness_phases_refused_where_unread(argv, message, capsys):
    assert run_cli("witness", *argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_witness_phases_repeat_and_take_a_leading_minus(capsys):
    # `-1,-1j` after a space would read as an option; the `=` form passes it,
    # and a repeated flag adds its samples to the earlier ones
    assert run_cli("witness", "torus", "--phases", "1,1", "1,1j", "--phases=-1,-1j",
                   "--format", "json") == 0
    ev = json.loads(capsys.readouterr().out)["report"]["checks"][0]["evidence"]["nonzero_evidence"]
    assert (ev["dim"], ev["rank"], ev["expected_rank"], ev["residual_max"]) == (3, 2, 2, 0.0)


def test_witness_malformed_phase_names_token(capsys):
    assert run_cli("witness", "torus", "--phases", "1,x") == 2
    assert "phase sample '1,x': 'x' is not a complex number" in capsys.readouterr().err


@pytest.mark.parametrize("dim", ["0", "-2", "2"])
def test_witness_small_dim_names_dim(dim, capsys):
    assert run_cli("witness", "free-unitary", "--dim", dim) == 2
    assert f"dim must be at least 3, got {dim}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["witness", "all", "--tol", "inf"], "--tol"),
    (["witness", "all", "--tol", "nan"], "--tol"),
    (["witness", "all", "--svd-threshold", "nan"], "--svd-threshold"),
    (["witness", "all", "--seed", "-1"], "--seed"),
    (["sweep", "--n", "2", "--sample", "-3"], "--sample"),
], ids=["tol-inf", "tol-nan", "svd-threshold-nan", "negative-seed", "negative-sample"])
def test_bad_numeric_flag_exit_2(argv, flag, capsys):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err


@pytest.mark.parametrize("argv,culprit", [
    (["sweep", "--n", "2", "--targets", "hopf,hopf"], "'hopf'"),
    (["witness", "torus", "--phases", "nan,1", "1,1j"], "--phases sample 'nan,1': 'nan'"),
    (["witness", "torus", "--phases", "1,1", "2,1j"], "--phases sample '2,1j': '2' is not on the unit circle"),
    (["witness", "free-unitary", "--dim", "100000000"], "--dim"),
    (["sweep", "--n", "1", "--bound", "1", "--jobs", "1"], "--bound"),
    (["witness", "torus", "--dim", "7"], "--dim applies only to the free-unitary suite, not to 'torus'"),
    (["witness", "probe-products", "--dim", "1"],
     "--dim applies only to the free-unitary suite, not to 'probe-products'"),
], ids=["repeated-target", "nan-phase", "off-circle-phase", "huge-dim", "bound-1",
        "dim-torus", "dim-probe-products"])
def test_bad_input_exit_2_names_it(argv, culprit, capsys):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert culprit in captured.err


def test_witness_unknown_suite_exit_2(capsys):
    # the suite is named before any flag is checked against it
    for flags in ([], ["--phases", "1,1"], ["--dim", "5"]):
        assert run_cli("witness", "bogus", *flags) == 2
        assert capsys.readouterr().err == "error: unknown witness suite 'bogus'\n"


def test_witness_json_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (out1, out2):
        assert run_cli("witness", "all", "--format", "json", "--output", str(p)) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# usage
# ---------------------------------------------------------------------------

def test_usage_error_exit_2():
    assert run_cli("frobnicate") == 2


def test_verify_writes_output_file(tmp_path, pair_file):
    pf = pair_file("p.json", {"n": 1, "epsilon": [[0]], "eta": [[1]]})
    out = tmp_path / "report.json"
    assert run_cli("verify", "hopf", "--input", pf, "--format", "json",
                   "--output", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["overall"] == "ProvedZero"
    assert payload["tool"] == "ncstar" and payload["config_hash"]


# ---------------------------------------------------------------------------
# per-subcommand flags
# ---------------------------------------------------------------------------

_FLAG_ARGS = {"--bound": ["3"], "--tol": ["1e-8"], "--svd-threshold": ["1e-5"],
              "--seed": ["1"], "--jobs": ["1"], "--timings": []}
_FLAG_FIELDS = {"--bound": ("degree_bound", 3), "--tol": ("residual_tolerance", 1e-8),
                "--svd-threshold": ("svd_threshold", 1e-5), "--seed": ("seed", 1),
                "--jobs": ("jobs", 1)}


def _run_with_flag(argv, flag, accepted, tmp_path):
    """An accepted flag runs and lands in the envelope config; any other is a usage error."""
    out = tmp_path / "report.json"
    code = run_cli(*argv, flag, *_FLAG_ARGS[flag], "--format", "json", "--output", str(out))
    if flag not in accepted:
        assert code == 2 and not out.exists()
        return
    assert code == 0
    payload = json.loads(out.read_text())
    want = RunConfig(format="json")
    if flag in _FLAG_FIELDS:
        name, value = _FLAG_FIELDS[flag]
        setattr(want, name, value)
    assert payload["config"] == want.envelope()["config"]
    assert payload["config_hash"] == want.hash()


@pytest.mark.parametrize("flag", _FLAG_ARGS)
def test_regularize_flags(flag, pair_file, tmp_path):
    path = pair_file("p.json", {"n": 1, "epsilon": [[0]], "eta": [[1]]})
    _run_with_flag(["regularize", "--input", path], flag, (), tmp_path)


@pytest.mark.parametrize("flag", _FLAG_ARGS)
def test_verify_flags(flag, pair_file, tmp_path):
    path = pair_file("p.json", {"n": 1, "epsilon": [[0]], "eta": [[1]]})
    _run_with_flag(["verify", "tuple-action", "--input", path], flag,
                   ("--bound", "--timings"), tmp_path)


@pytest.mark.parametrize("flag", _FLAG_ARGS)
def test_sweep_flags(flag, tmp_path):
    _run_with_flag(["sweep", "--n", "1", "--targets", "tuple-action"], flag,
                   ("--bound", "--seed", "--jobs"), tmp_path)


@pytest.mark.parametrize("flag", _FLAG_ARGS)
def test_witness_flags(flag, tmp_path):
    _run_with_flag(["witness", "o2plus"], flag,
                   ("--tol", "--svd-threshold", "--seed", "--timings"), tmp_path)


# ---------------------------------------------------------------------------
# cold commands: the matrix models load only where they are evaluated
# ---------------------------------------------------------------------------

_COLD_SCRIPT = r"""
import contextlib, io, sys

HEAVY = ("numpy", "ncstar.repmodels", "multiprocessing")

def loaded():
    return [m for m in HEAVY if m in sys.modules]

pair, out = sys.argv[1], sys.argv[2]
assert loaded() == [], f"loaded before ncstar: {loaded()}"
import ncstar.cli as cli
assert loaded() == [], f"loaded by import ncstar.cli: {loaded()}"
for argv in (["verify", "hopf"], ["verify", "tuple-action"], ["regularize"]):
    assert cli.main(argv + ["--input", pair, "--output", out]) == 0, argv
assert loaded() == [], f"loaded by an algebraic command: {loaded()}"
assert cli.main(["witness", "all", "--output", out]) == 0
assert cli.main(["verify", "noninjectivity", "--output", out]) == 0
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["witness", "torus", "--phases", "1,1", "1,1"])
assert code == 1 and out.getvalue().startswith("[FAIL] torus: rank 1/2"), (code, out.getvalue())
print("ok")
"""


def test_cold_commands_load_numpy_only_for_models(pair_file, tmp_path):
    path = pair_file("p.json", {"n": 2, "epsilon": [[0, 1], [1, 0]], "eta": [[0, 0], [0, 0]]})
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _COLD_SCRIPT, path, str(tmp_path / "out.txt")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# sha256 of the default JSON reports, taken from the dense exact evaluation;
# the sparse one must reproduce them byte for byte
_PINNED_SHA256 = {
    ("witness", "all"): "f17e07d0604bfe025d8c2483938df25b600512c9724cce52708e4917270556b7",
    ("verify", "noninjectivity"): "f3ef8275fd987b0b28387ef1b8acf8e0fba6b686d78429a8aa14a17ab8404151",
    # the float torus, the exact torus, the float free-unitary path, and a
    # probe model gated at a tolerance other than the default
    ("witness", "torus", "--phases", "1,1", "0.6+0.8j,1j"):
        "17c09e24ebb6450d3850cf1f45592eb15c33955d705c3594289c7543b999ce6a",
    ("witness", "torus", "--phases", "1,1", "1,1j", "1j,-1j"):
        "be854ac6897bfc85c80d8c60872a0ad41ba5a7ab5cb3f806b518eb2197c50fad",
    ("witness", "free-unitary", "--dim", "6", "--seed", "3"):
        "361b12b28db8f93fd5cb3d1474e4778e41c1dae9821ca3a0dd3c8c85d0556b48",
    ("witness", "probe-products", "--tol", "1e-3"):
        "e4af397f7aa9b2d214761c2b34332e39492e9c43d80f4651dfadea5b1a987ef6",
}

# the algebraic reports; the three verify targets run on a non-regular n = 3
# pair, so sphere-action also pins the regularization notice
_NONREGULAR_N3 = {"n": 3, "epsilon": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                  "eta": [[0, 0, 1], [0, 1, 0], [1, 0, 0]]}
_PINNED_ALGEBRAIC_SHA256 = {
    ("sweep", "--n", "2", "--jobs", "1"):
        "c2672a975a575c362314f3e6c90a43cb5b636071355e10ec253d59992efe690d",
    ("verify", "hopf"): "a61296736d17f8be3cd48b7441cc17f5b7ef145246c181f8f83c0d618a6f3c27",
    ("verify", "sphere-action"): "3af139f083097df0267da1538e6eb145332d1beb0c4447995bac80a3c9245e28",
    ("verify", "tuple-action"): "ddd0aff968d60546f92defd0675e661d309662ed72ceaa0728767f498f520b6a",
}


@pytest.mark.parametrize("argv", list(_PINNED_SHA256))
def test_default_model_reports_are_pinned(argv, tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(*argv, "--format", "json", "--output", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PINNED_SHA256[argv]


@pytest.mark.parametrize("argv", list(_PINNED_ALGEBRAIC_SHA256))
def test_default_algebraic_reports_are_pinned(argv, pair_file, tmp_path):
    out = tmp_path / "report.json"
    extra = ("--input", pair_file("pair.json", _NONREGULAR_N3)) if argv[0] == "verify" else ()
    assert run_cli(*argv, *extra, "--format", "json", "--output", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PINNED_ALGEBRAIC_SHA256[argv]
