"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from ncstar import ncalg, verifier  # noqa: E402
from ncstar.presentations import validate_pair  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail(range(1, 101))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for s in range(1, 101) if s > value) == 10
    value, pct, n = run.tail([5.0] * 3 + [1.0] * 8)
    assert value == 1.0 and n == 11 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        run.tail(range(10))


def test_host_speed_scales_each_task_by_its_nearest_probes():
    host = hostspeed.HostSpeed()
    with pytest.raises(ValueError):
        host.scale(0.0)
    host.starts = [float(t) for t in range(20)]
    host.seconds = [hostspeed.NOMINAL_S] * 10 + [2 * hostspeed.NOMINAL_S] * 10
    assert host.scale(-1.0) == host.scale(0.5) == 1.0  # probes 0-3
    assert host.scale(18.5) == host.scale(99.0) == 0.5  # probes 16-19
    assert host.scale(9.5) == pytest.approx(1 / 1.5)  # probes 8-11: half at each speed
    assert host.scale(10.5) == pytest.approx(1 / 2)  # probes 9-12: 3 of 4 at half speed

    host = hostspeed.HostSpeed()
    host.probe()
    host.probe()
    assert len(host.seconds) == 2 and min(host.seconds) > 0


def test_metric_names_and_units_match_the_manifest():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in manifest[key]}
        assert declared == table
        assert all(NAME.fullmatch(name) for name in declared)
    assert {w["name"] for w in manifest["workloads"]} == set(run.WORKLOADS)
    traced = set(tracing.Tracer().layer_metrics()) | {"trace.overhead_s", "cli.import_s"}
    assert set(run.PER_LAYER) <= traced


def _pair(n, eps_bits=0, eta=None):
    eps = [[0] * n for _ in range(n)]
    if n > 1 and eps_bits:
        eps[0][1] = eps[1][0] = 1
    return validate_pair(eps, eta or [[0] * n for _ in range(n)])


def test_oracle_rejects_one_tampered_verdict():
    pair = _pair(3).to_json_dict()
    report = verifier.verify_tuple_action(_pair(3).epsilon)
    statuses = {c.name: c.certificate.status for c in report.checks}
    checks = oracle.load_theorem_table()
    assert oracle.theorem("tuple-action", pair, statuses, checks) == []
    tampered = dict(statuses)
    tampered[next(iter(tampered))] = ncalg.INCONCLUSIVE
    assert len(oracle.theorem("tuple-action", pair, tampered, checks)) == 1
    dropped = dict(statuses)
    del dropped[next(iter(dropped))]
    assert len(oracle.theorem("tuple-action", pair, dropped, checks)) == 1
    assert len(oracle.theorem("tuple-action", _pair(2).to_json_dict(), statuses, checks)) == 1

    table = oracle.load_regularization_table()
    key, expected = next(iter(table.items()))
    assert oracle.regularization(key, dict(expected), table) == []
    tampered = dict(expected)
    rid = next(iter(tampered))
    tampered[rid] = ncalg.INCONCLUSIVE if tampered[rid] == ncalg.PROVED_ZERO else ncalg.PROVED_ZERO
    assert len(oracle.regularization(key, tampered, table)) == 1

    payload = {"report": verifier.verify_noninjectivity_example().to_json_dict()}
    assert oracle.noninjectivity(payload) == []
    payload["report"]["checks"][0]["evidence"]["zero_evidence"]["lhs_multiple"] = "1"
    assert oracle.noninjectivity(payload) == ["X12-vanishes: factor is not 2"]

    payload = {"report": verifier.verify_independence_suite("all").to_json_dict()}
    assert oracle.witness(payload) == []
    payload["report"]["checks"][1]["evidence"]["nonzero_evidence"]["rank"] = 2
    assert len(oracle.witness(payload)) == 1


def test_a_raising_check_is_one_failed_row():
    class Workload:
        tasks = [1, 2, 3]

        def run(self, task):
            return task

        def check(self, task, result):
            if task == 2:
                raise FileNotFoundError("no report")
            return {"r": oracle.PROVED_ZERO}, "ProvedZero", []

    out = {"task_s": [], "attempted": 0, "failed": 0, "problems": [],
           "verdicts": worker.Counter(), "checks": worker.Counter()}
    worker.run_pass(Workload(), out)
    assert (out["attempted"], out["failed"], out["checks"]["ProvedZero"]) == (3, 1, 2)
    assert out["problems"] == ["check raised FileNotFoundError: no report"]


def test_regularize_report_is_judged_by_the_conventions():
    pair = _pair(2, eta=[[1, 0], [0, 0]]).to_json_dict()  # x1 normal, eps_12 = 0 = eta_12: regular?
    fixed = {"n": 2, "epsilon": [[0, 0], [0, 0]], "eta": [[1, 0], [0, 1]]}
    payload = {"report": {"input_pair": pair, "was_regular": False, "output_pair": fixed,
                          "changed": True}}
    assert oracle.regularize_report(pair, payload) == []
    payload["report"]["output_pair"] = pair
    assert "output pair is not regular" in oracle.regularize_report(pair, payload)


def test_replay_accepts_a_tabled_proved_zero():
    pair = validate_pair([[0, 0], [0, 0]], [[0, 1], [1, 1]])
    table = oracle.load_regularization_table()
    proved = [rid for rid, s in table[pair.compact()].items() if s == ncalg.PROVED_ZERO]
    assert proved
    for rid in proved:
        assert oracle.replay_regularization(pair, rid) == []


def test_wrappers_are_removed_after_a_traced_run():
    tracing.assert_clean()
    tracer = tracing.Tracer()
    with tracer:
        assert verifier.apply_tensor_hom is not ncalg.apply_tensor_hom
        tracer.task = 0
        verifier.verify_comultiplication(_pair(2, eps_bits=1))
    tracing.assert_clean()
    metrics = tracer.layer_metrics()
    assert metrics["verifier.calls"] == 1 and metrics["span.calls"] == 1
    assert metrics["hom.calls"] == metrics["reduce.calls"] > 0
    assert metrics["scalars.mul_calls"] > 0
    assert all(span[5] == 0 for span in tracer.spans)

    with pytest.raises(ncalg.RosterMismatch):
        with tracing.Tracer() as failing:
            verifier.apply_tensor_hom(ncalg.Poly.generator(ncalg.Letter("x", 1, 0)), {}, (), ())
    tracing.assert_clean()
    assert failing.layer_metrics()["hom.errors"] == 1
