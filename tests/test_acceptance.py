"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy content is the exhaustive n <= 3 sweep over all pairs and targets;
it runs once as a module fixture, serves criteria 1-3, and acts as run #1 of
the byte-determinism check (criterion 9 repeats it).
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import span_reference
import witness_models as W
from ncstar import ncalg as A
from ncstar import presentations as P
from ncstar import repmodels as R
from ncstar import verifier as V
from ncstar.cli import RunConfig, SWEEP_TARGETS, main as cli_main, run_sweep
from ncstar.ncalg import Poly

CONFIG = RunConfig(format="json")


def _criterion(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {num}: {status} - {desc}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def _full_sweep():
    """The full default sweep: n <= 3, all targets, all witness suites."""
    levels = {}
    timings = {}
    for n in (1, 2, 3):
        t0 = time.perf_counter()
        levels[n] = run_sweep(n, SWEEP_TARGETS, CONFIG)
        timings[n] = time.perf_counter() - t0
    witness = V.verify_independence_suite("all", seed=CONFIG.seed)
    payload = CONFIG.envelope()
    payload["task"] = "full-sweep"
    payload["levels"] = [levels[n] for n in (1, 2, 3)]
    payload["witness"] = witness.to_json_dict(include_timings=False)
    return levels, timings, witness, json.dumps(payload, indent=2).encode()


@pytest.fixture(scope="module")
def sweep_run():
    return _full_sweep()


def _results(levels, n, target):
    return [r for r in levels[n]["results"] if r["target"] == target]


# ---------------------------------------------------------------------------
# criterion 1: coproduct respects every relation, exhaustively at n = 2, 3
# ---------------------------------------------------------------------------

def test_criterion_1_hopf_exhaustive(sweep_run):
    levels, timings, _, _ = sweep_run
    failures = []
    for n, expected in ((2, 16), (3, 512)):
        rows = _results(levels, n, "hopf")
        if len(rows) != expected:
            failures.append(f"n={n}: {len(rows)} pairs, expected {expected}")
        failures += [f"n={n} {r['pair']}: {r['overall']}"
                     for r in rows if r["overall"] != "ProvedZero" or not r["passed"]]
    if timings[2] >= 60:
        failures.append(f"n=2 runtime {timings[2]:.1f}s over budget")
    if timings[3] >= 1800:
        failures.append(f"n=3 runtime {timings[3]:.1f}s over budget")
    _criterion(1, "coproduct relation images ProvedZero for all 16 + 512 pairs "
                  f"(n=2 {timings[2]:.1f}s, n=3 {timings[3]:.1f}s)", failures)


# ---------------------------------------------------------------------------
# criterion 2: both coordinate actions preserve all sphere relations
# ---------------------------------------------------------------------------

def test_criterion_2_sphere_action(sweep_run):
    levels, _, _, _ = sweep_run
    failures = []
    for n in (1, 2, 3):
        expected = sum(P.is_regular(p).is_regular for p in P.enumerate_pairs(n))
        rows = _results(levels, n, "sphere-action")
        if len(rows) != expected:
            failures.append(f"n={n}: {len(rows)} regular pairs, expected {expected}")
        failures += [f"n={n} {r['pair']}: {r['overall']}"
                     for r in rows if r["overall"] != "ProvedZero"]
    _criterion(2, "both sphere actions ProvedZero for every regular pair, n <= 3", failures)


# ---------------------------------------------------------------------------
# criterion 3: tuple-space actions for every epsilon at n <= 3
# ---------------------------------------------------------------------------

def test_criterion_3_tuple_action(sweep_run):
    levels, _, _, _ = sweep_run
    failures = []
    for n, expected in ((1, 1), (2, 2), (3, 8)):
        rows = _results(levels, n, "tuple-action")
        if len(rows) != expected:
            failures.append(f"n={n}: {len(rows)} matrices, expected {expected}")
        failures += [f"n={n} {r['pair']}: {r['overall']}"
                     for r in rows if r["overall"] != "ProvedZero"]
    _criterion(3, "both tuple-space actions ProvedZero for every epsilon, n <= 3", failures)


# ---------------------------------------------------------------------------
# criterion 4: the non-injectivity anchor
# ---------------------------------------------------------------------------

def test_criterion_4_noninjectivity_anchor():
    failures = []
    report = V.verify_noninjectivity_example()
    zero_check, nonzero_check = report.checks
    if zero_check.certificate.status != "ProvedZero":
        failures.append(f"zero check: {zero_check.certificate.status}")
    ev = zero_check.certificate.zero_evidence or {}
    if ev.get("lhs_multiple") != "2":
        failures.append(f"missing factor 2 in the combination: {ev.get('lhs_multiple')}")
    nev = nonzero_check.certificate.nonzero_evidence or {}
    diag = nev.get("image_diagonal", [])
    if len(diag) != 4 or abs(diag[3] - 0.5) > 1e-12 or any(abs(d) > 1e-12 for d in diag[:3]):
        failures.append(f"witness image {diag} not diag(0,0,0,1/2) to 1e-12")
    if cli_main(["verify", "noninjectivity", "--format", "json",
                 "--output", "/dev/null"]) != 0:
        failures.append("CLI exit code nonzero")
    _criterion(4, "X(1,2) vanishes with exact coefficient 2; witness value 1/2 exact; exit 0",
               failures)


# ---------------------------------------------------------------------------
# criterion 5: witness suite ranks, exact on every default model
# ---------------------------------------------------------------------------

def test_criterion_5_witness_suite(sweep_run):
    _, _, witness, _ = sweep_run
    failures = []
    expected = {"probe-products": 4, "unit-squares": 3, "torus": 2,
                "free-unitary": 4, "o2plus": 2}
    by_name = {c.name: c for c in witness.checks}
    for name, want in expected.items():
        check = by_name.get(name)
        if check is None or not check.passed:
            failures.append(f"{name}: missing or failed")
            continue
        ev = check.certificate.nonzero_evidence
        if ev["rank"] != want or ev["expected_rank"] != want:
            failures.append(f"{name}: rank {ev['rank']}/{want}")
        minor = ev.get("minor")
        if minor is None or len(minor["members"]) != want:
            failures.append(f"{name}: minor {minor} is not {want}x{want}")
    o2 = R.model_residuals(R.o2plus_model())
    if o2.max != 0.0:
        failures.append(f"o2plus residual {o2.max} not exactly zero")
    free_ev = by_name["free-unitary"].certificate.nonzero_evidence
    if free_ev["dim"] != 4 or free_ev.get("seed") != 0:
        failures.append(f"free-unitary ran at dim {free_ev['dim']} seed {free_ev.get('seed')}")
    _criterion(5, "ranks 4/4, 3/3, 2/2, 4/4 (dim 4, seed 0), 2/2 with exact-zero "
                  "orthogonality residuals", failures)


# ---------------------------------------------------------------------------
# criterion 6: the recorded anomaly of the probe pair
# ---------------------------------------------------------------------------

def test_criterion_6_anomaly_record():
    failures = []
    model = R.probe_pair_model()
    report = R.model_residuals(model)
    violations = [d for d, _, _ in report.violations()]
    sums = {d: r for d, r in report.per_relation if d.startswith("Σ")}
    for desc, res in sums.items():
        if res != 1.0:
            failures.append(f"{desc}: residual {res} != 1.0")
    if not any("x_i* x_i" in v for v in violations):
        failures.append(f"violations {violations} do not record the sum anomaly")
    _criterion(6, "probe-state normalization residual is exactly 1.0 and recorded", failures)


# ---------------------------------------------------------------------------
# criterion 7: bounded membership vs an independent reference, cross-evaluated
# in witness models
# ---------------------------------------------------------------------------

def _random_poly(rng, letters, rels):
    kind = rng.randrange(3)
    if kind == 0:
        # a combination of genuine relations: certainly in the span
        poly = Poly.zero()
        for _ in range(rng.randint(1, 3)):
            poly = poly + rng.choice(rels).poly.scale(
                Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
        return poly
    terms = {}
    for _ in range(rng.randint(1, 4)):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        terms[w] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    poly = Poly(terms)
    if kind == 2 and rels:
        poly = poly + rng.choice(rels).poly.scale(rng.randint(-2, 2))
    return poly


def test_criterion_7_oracle_equivalence():
    rng = random.Random(2024)
    failures = []
    presentations = []
    for pair in P.enumerate_pairs(2):
        presentations.append(P.unitary_qg_presentation(pair))
        presentations.append(P.sphere_presentation(pair))
    for eps in ([[0, 0], [0, 0]], [[0, 1], [1, 0]]):
        presentations.append(P.orthogonal_qg_presentation(eps))
        presentations.append(P.tuple_space_presentation(eps))
    total = 0
    proved_zero = 0
    for pres in presentations:
        basis = span_reference.relation_basis(pres)
        rels = list(pres.all_relations())
        letters = list(pres.generators)
        if pres.generators[0].tag not in A.HERMITIAN_TAGS:
            letters += [g.star() for g in pres.generators]
        models = W.witness_models_for(pres, seed=0)
        for _ in range(30):
            poly = _random_poly(rng, letters, rels)
            total += 1
            cert = A.ideal_membership_bounded(poly, pres, 2, want_combination=False)
            rz = span_reference.in_span(basis, poly)
            mz = cert.status == "ProvedZero"
            if rz != mz:
                failures.append(f"{pres.label}: reference={rz} membership={mz} on {poly}")
                continue
            if mz:
                proved_zero += 1
                for model in models:
                    norm = float(np.linalg.norm(W.evaluate(poly, model), 2))
                    if norm >= 1e-9:
                        failures.append(f"{pres.label}: certified zero has norm {norm:.2e} "
                                        f"in {model.label}")
    if total < 1000:
        failures.append(f"only {total} polynomials sampled")
    if proved_zero < 100:
        failures.append(f"only {proved_zero} ProvedZero samples; sweep not meaningful")
    _criterion(7, f"reference and bounded membership agree on {total} polynomials "
                  f"({proved_zero} certified zero, all < 1e-9 in witness models)", failures)


# ---------------------------------------------------------------------------
# criterion 8: regularization properties
# ---------------------------------------------------------------------------

def _regularize_properties(pair):
    out = P.regularize(pair)
    problems = []
    if P.regularize(out) != out:
        problems.append("not idempotent")
    if not P.is_regular(out).is_regular:
        problems.append("output not regular")
    for m_in, m_out in ((pair.epsilon, out.epsilon), (pair.eta, out.eta)):
        for r_in, r_out in zip(m_in, m_out):
            if any(a > b for a, b in zip(r_in, r_out)):
                problems.append("not monotone")
    for i in range(pair.n):
        for j in range(pair.n):
            if i != j and out.epsilon[i][j] != pair.epsilon[i][j]:
                if not (out.eta[i][i] == 1 or out.eta[j][j] == 1):
                    problems.append(f"epsilon changed at ({i + 1},{j + 1}) without normality")
    return problems


def test_criterion_8_regularize_properties():
    failures = []
    count = 0
    for n in (1, 2, 3):
        for pair in P.enumerate_pairs(n):
            count += 1
            for problem in _regularize_properties(pair):
                failures.append(f"{pair.compact()}: {problem}")
    rng = random.Random(99)
    for _ in range(500):
        eps = [[0] * 4 for _ in range(4)]
        eta = [[0] * 4 for _ in range(4)]
        for i in range(4):
            eta[i][i] = rng.randint(0, 1)
            for j in range(i + 1, 4):
                eps[i][j] = eps[j][i] = rng.randint(0, 1)
                eta[i][j] = eta[j][i] = rng.randint(0, 1)
        pair = P.validate_pair(eps, eta)
        count += 1
        for problem in _regularize_properties(pair):
            failures.append(f"{pair.compact()}: {problem}")
    _criterion(8, f"idempotence, monotonicity, output-regularity on {count} pairs "
                  "(exhaustive n <= 3 plus 500 random n = 4)", failures)


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reports across runs
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(sweep_run):
    _, _, _, payload_first = sweep_run
    _, _, _, payload_second = _full_sweep()
    failures = []
    if payload_first != payload_second:
        failures.append("full-sweep JSON differs between consecutive runs")
    _criterion(9, f"two consecutive full sweeps emit identical bytes "
                  f"({len(payload_first)} bytes)", failures)
