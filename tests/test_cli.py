"""CLI behavior: exit codes, file handling, deterministic JSON."""

import json

import pytest

from ncstar import verifier
from ncstar.cli import RunConfig, main
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


def test_negative_jobs_rejected(capsys):
    with pytest.raises(ValueError):
        RunConfig(jobs=-1)
    assert run_cli("sweep", "--n", "2", "--jobs", "-1") == 2
    assert "jobs must be 0 (all cores) or positive, not -1" in capsys.readouterr().err


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
    path = pair_file("p.json", {"n": 1, "epsilon": [[0]], "eta": [[1]]})
    assert run_cli("verify", "hopf", "--input", path, "--bound", "3") == 2
    err = capsys.readouterr().err
    assert "--bound 3" in err and "Traceback" not in err
    assert run_cli("sweep", "--n", "1", "--jobs", "1") == 2


def test_verify_and_sweep_share_the_target_table(pair_file, monkeypatch):
    # both commands look the verifier entry point up when they run
    calls = []
    real = verifier.verify_tuple_action

    def spy(epsilon, side, bound):
        calls.append(bound)
        return real(epsilon, side, bound)
    monkeypatch.setattr(verifier, "verify_tuple_action", spy)
    path = pair_file("p.json", {"n": 2, "epsilon": [[0, 1], [1, 0]]})
    assert run_cli("verify", "tuple-action", "--input", path, "--bound", "3") == 0
    assert run_cli("sweep", "--n", "2", "--targets", "tuple-action", "--jobs", "1") == 0
    assert calls == [3, 2, 2]  # n = 2 has two epsilon matrices


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


def test_regularize_missing_file():
    assert run_cli("regularize", "--input", "/nonexistent/pair.json") == 2


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


def test_sweep_guards():
    assert run_cli("sweep", "--n", "5") == 2
    assert run_cli("sweep", "--n", "4") == 2  # needs --sample
    assert run_cli("sweep", "--n", "2", "--targets", "bogus") == 2


def test_sweep_n4_sample(capsys):
    assert run_cli("sweep", "--n", "4", "--targets", "tuple-action", "--sample", "2",
                   "--jobs", "1", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["totals"]["passed"] == payload["totals"]["tasks"] > 0


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
    assert "rank" in capsys.readouterr().err


def test_witness_malformed_phase_names_token(capsys):
    assert run_cli("witness", "torus", "--phases", "1,x") == 2
    assert "phase sample '1,x': 'x' is not a complex number" in capsys.readouterr().err


@pytest.mark.parametrize("dim", ["0", "-2", "2"])
def test_witness_small_dim_names_dim(dim, capsys):
    assert run_cli("witness", "free-unitary", "--dim", dim) == 2
    assert f"dim must be at least 3, got {dim}" in capsys.readouterr().err


def test_witness_unknown_suite_exit_2():
    assert run_cli("witness", "bogus") == 2


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
