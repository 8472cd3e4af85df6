"""Expected verdicts for every benchmark task.

The answers come from the paper and from fixed tables, not from the run
being judged:

* hopf, sphere-action and tuple-action are ProvedZero on every check at
  n <= 3 (the coproduct and the two actions respect every relation), and the
  checks themselves are pinned per (target, pair) by their count and a digest
  of their names (`expected/theorem_checks_n3.json`), so a run that drops a
  relation is a failed row;
* the non-injectivity anchor is ProvedZero with `lhs_multiple` "2" and
  ProvedNonzero with image diagonal [0, 0, 0, 0.5];
* every witness suite reaches its rank below;
* `regularize` output is judged by the two regularity conventions,
  re-implemented here;
* regularization consistency is compared with a per-(pair, relation) table
  (`expected/regularize_n3.json`), and each ProvedZero in it is re-derived
  with its linear combination and replayed by plain `Poly` arithmetic.

Every check returns a list of problems; an empty list means the verdict is
the expected one.  Run this file as a script to rewrite both tables from the
current tree (only after checking the change in verdicts is intended).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PROVED_ZERO = "ProvedZero"
PROVED_NONZERO = "ProvedNonzero"

WITNESS_RANKS = {"probe-products": 4, "unit-squares": 3, "torus": 2,
                 "free-unitary": 4, "o2plus": 2}
NONINJECTIVITY_DIAGONAL = [0.0, 0.0, 0.0, 0.5]
EXPECTED = Path(__file__).resolve().parent / "expected"
THEOREM_TABLE = EXPECTED / "theorem_checks_n3.json"
REGULARIZATION_TABLE = EXPECTED / "regularize_n3.json"
PRODUCT_BOUND = 4  # the default of verify_regularization_consistency


def _compact(epsilon, eta) -> str:
    return ("eps=" + "/".join("".join(map(str, row)) for row in epsilon)
            + ";eta=" + "/".join("".join(map(str, row)) for row in eta))


def theorem_key(target: str, pair: dict) -> str:
    """tuple-action depends on epsilon only, so its key has eta = 0."""
    eta = [[0] * pair["n"] for _ in range(pair["n"])] if target == "tuple-action" else pair["eta"]
    return f"{target} {_compact(pair['epsilon'], eta)}"


def check_signature(names) -> list:
    """[number of checks, digest of their sorted names]."""
    names = sorted(names)
    return [len(names), hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]]


def theorem(target: str, pair: dict, statuses: dict, table: dict) -> list:
    """hopf / sphere-action / tuple-action: the pinned checks, every one ProvedZero."""
    key = theorem_key(target, pair)
    expected = table.get(key)
    if expected is None:
        problems = [f"{key}: not in the check table"]
    elif check_signature(statuses) != expected:
        problems = [f"{key}: {len(statuses)} checks, expected the {expected[0]} pinned ones"]
    else:
        problems = []
    return problems + [f"{key} {name}: {status}, expected {PROVED_ZERO}"
                       for name, status in statuses.items() if status != PROVED_ZERO]


def _load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_theorem_table(path=THEOREM_TABLE) -> dict:
    return _load(path)


def load_regularization_table(path=REGULARIZATION_TABLE) -> dict:
    return _load(path)


def regularization(pair_key: str, statuses: dict, table: dict) -> list:
    expected = table.get(pair_key)
    if expected is None:
        return [f"{pair_key}: not in the verdict table"]
    if statuses == expected:
        return []
    diff = sorted(set(statuses) | set(expected))
    return [f"{pair_key} {rid}: {statuses.get(rid)}, expected {expected.get(rid)}"
            for rid in diff if statuses.get(rid) != expected.get(rid)]


def replay_regularization(pair, rid: str) -> list:
    """Re-derive one ProvedZero with its combination and replay it exactly."""
    from ncstar.ncalg import ideal_membership_bounded, replay_combination
    from ncstar.presentations import regularize, sphere_presentation
    base = sphere_presentation(pair)
    rel = next((r for r in sphere_presentation(regularize(pair)).all_relations() if r.rid == rid), None)
    if rel is None:
        return [f"{pair.compact()} {rid}: relation not found"]
    # The smallest bound that proves it gives the cheapest combination; most need only 2.
    for bound in range(max(2, rel.poly.degree()), PRODUCT_BOUND + 1):
        cert = ideal_membership_bounded(rel.poly, base, bound, want_combination=True)
        if cert.status == PROVED_ZERO:
            if replay_combination(rel.poly, base, cert.zero_evidence):
                return []
            return [f"{pair.compact()} {rid}: combination failed exact replay"]
    return [f"{pair.compact()} {rid}: no combination up to product bound {PRODUCT_BOUND}"]


# -- CLI reports (parsed JSON) -------------------------------------------

def report_statuses(payload: dict) -> dict:
    return {c["relation"]: c["status"] for c in payload["report"].get("checks", [])}


def noninjectivity(payload: dict) -> list:
    checks = {c["relation"]: c for c in payload["report"]["checks"]}
    problems = []
    zero = checks.get("X12-vanishes", {})
    if zero.get("status") != PROVED_ZERO:
        problems.append(f"X12-vanishes: {zero.get('status')}")
    elif zero["evidence"]["zero_evidence"].get("lhs_multiple") != "2":
        problems.append("X12-vanishes: factor is not 2")
    nonzero = checks.get("x1x2*-nonzero", {})
    if nonzero.get("status") != PROVED_NONZERO:
        problems.append(f"x1x2*-nonzero: {nonzero.get('status')}")
    elif nonzero["evidence"]["nonzero_evidence"].get("image_diagonal") != NONINJECTIVITY_DIAGONAL:
        problems.append("x1x2*-nonzero: image diagonal is not [0, 0, 0, 0.5]")
    return problems


def witness(payload: dict) -> list:
    checks = {c["relation"]: c for c in payload["report"]["checks"]}
    problems = []
    for suite, rank in WITNESS_RANKS.items():
        c = checks.get(suite)
        if c is None:
            problems.append(f"{suite}: missing")
        elif c["status"] != PROVED_NONZERO:
            problems.append(f"{suite}: {c['status']}")
        elif c["evidence"]["nonzero_evidence"].get("rank") != rank:
            problems.append(f"{suite}: rank {c['evidence']['nonzero_evidence'].get('rank')}, expected {rank}")
    return problems


def is_regular(epsilon, eta) -> bool:
    """Convention A: eps_ij = eta_ij when x_i or x_j is normal.  Convention B:
    each non-normal x_i has a non-normal partner it does not both plainly and
    star-commute with."""
    n = len(epsilon)
    normal = [eta[i][i] == 1 for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and (normal[i] or normal[j]) and epsilon[i][j] != eta[i][j]:
                return False
    return all(normal[i] or any(j != i and not normal[j] and not (epsilon[i][j] and eta[i][j])
                                for j in range(n))
               for i in range(n))


def regularize_report(pair: dict, payload: dict) -> list:
    rep = payload["report"]
    out = rep["output_pair"]
    problems = []
    if rep["input_pair"] != pair:
        problems.append("input pair echoed wrongly")
    if rep["was_regular"] != is_regular(pair["epsilon"], pair["eta"]):
        problems.append(f"was_regular is {rep['was_regular']}")
    if not is_regular(out["epsilon"], out["eta"]):
        problems.append("output pair is not regular")
    n = pair["n"]
    for name in ("epsilon", "eta"):
        if any(out[name][i][j] < pair[name][i][j] for i in range(n) for j in range(n)):
            problems.append(f"output {name} lowers an entry")
    if rep["changed"] != (out != pair) or (rep["was_regular"] and out != pair):
        problems.append("changed flag disagrees with the output")
    return problems


def _write(path, table: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                                    for k, v in sorted(table.items())) + "\n}\n")


def write_theorem_table(path=THEOREM_TABLE) -> None:
    """Covers every pair the benchmark draws for these targets: the n = 3 sweep."""
    from ncstar import cli, verifier
    from ncstar.presentations import pair_from_json_dict
    table = {}
    for target, pair, bound in cli.sweep_tasks(3, cli.SWEEP_TARGETS, cli.RunConfig()):
        p = pair_from_json_dict(pair)
        if target == "hopf":
            report = verifier.verify_comultiplication(p, bound)
        elif target == "sphere-action":
            report = verifier.verify_sphere_action(p, "both", bound)
        else:
            report = verifier.verify_tuple_action(p.epsilon, "both", bound)
        table[theorem_key(target, pair)] = check_signature(c.name for c in report.checks)
    _write(path, table)


def write_regularization_table(path=REGULARIZATION_TABLE) -> None:
    from ncstar import verifier
    from ncstar.presentations import enumerate_pairs, is_regular as is_regular_under_test
    table = {}
    for n in (1, 2, 3):
        for pair in enumerate_pairs(n):
            if not is_regular_under_test(pair).is_regular:
                report = verifier.verify_regularization_consistency(pair)
                table[pair.compact()] = {c.name: c.certificate.status for c in report.checks}
    _write(path, table)


if __name__ == "__main__":
    write_theorem_table()
    write_regularization_table()
