"""End-to-end verification reports: coproduct, actions, anchor, suites."""

import functools
import json

import numpy as np
import pytest

import witness_models as W
from ncstar import cli
from ncstar import presentations as P
from ncstar import repmodels as R
from ncstar import verifier as V
from ncstar.ncalg import (INCONCLUSIVE, Certificate, Letter, PROVED_NONZERO, PROVED_ZERO, Poly,
                          apply_tensor_hom, build_quotient_basis, is_zero_tensor,
                          zero_tensor_certificate)
from ncstar.scalars import Q_ONE

ZERO2 = [[0, 0], [0, 0]]
OFF2 = [[0, 1], [1, 0]]
ONES2 = [[1, 1], [1, 1]]


def _pair(eps, eta):
    return P.validate_pair(eps, eta)


# ---------------------------------------------------------------------------
# coproduct
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps,eta", [
    (OFF2, ONES2),          # classical
    (ZERO2, ZERO2),         # free
    (ZERO2, OFF2),          # the mixed pair behind the non-injectivity example
    ([[0]], [[0]]),         # single non-normal generator
    ([[0]], [[1]]),         # single normal generator
])
def test_comultiplication_proved_zero(eps, eta):
    report = V.verify_comultiplication(_pair(eps, eta))
    assert report.passed and report.overall == PROVED_ZERO
    assert len(report.checks) > 0


def test_reports_at_bound_three_stay_proved_zero():
    # the bound-3 span contains the bound-2 span, so no certificate can be lost;
    # no task gets an orbit table, so every one is reduced
    def reduced(verify, *args):
        return verify(*args, 3, None).overall
    for n in (1, 2):
        pairs = P.enumerate_pairs(n)
        for pair in pairs:
            assert reduced(V.verify_comultiplication, pair) == PROVED_ZERO, pair.compact()
            if P.is_regular(pair).is_regular:
                assert reduced(V.verify_sphere_action, pair, "both") == PROVED_ZERO, pair.compact()
        for eps in {pair.epsilon for pair in pairs}:
            assert reduced(V.verify_tuple_action, eps, "both") == PROVED_ZERO, eps


def test_comultiplication_free_pair_checks_are_unitarity_only():
    report = V.verify_comultiplication(_pair(ZERO2, ZERO2))
    assert all(c.name.startswith("sum:") for c in report.checks)
    assert len(report.checks) == 16


def test_comultiplication_covers_all_relations():
    pair = _pair(OFF2, ONES2)
    pres = P.unitary_qg_presentation(pair)
    report = V.verify_comultiplication(pair)
    assert [c.name for c in report.checks] == [r.rid for r in pres.all_relations()]


# ---------------------------------------------------------------------------
# sphere action
# ---------------------------------------------------------------------------

def test_sphere_action_classical_both_sides():
    report = V.verify_sphere_action(_pair(OFF2, ONES2))
    assert report.passed
    assert len(report.checks) == 12  # 6 relations x 2 sides
    assert {c.name.split(":")[0] for c in report.checks} == {"alpha", "beta"}


def test_sphere_action_free_pair():
    report = V.verify_sphere_action(_pair(ZERO2, ZERO2))
    assert report.passed
    assert len(report.checks) == 4


def test_sphere_action_single_side():
    report = V.verify_sphere_action(_pair(OFF2, ONES2), side="alpha")
    assert report.passed and all(c.name.startswith("alpha:") for c in report.checks)


def test_sphere_action_regularizes_with_notice():
    report = V.verify_sphere_action(_pair(OFF2, OFF2))
    assert report.passed
    assert any("regularized first" in n for n in report.notices)
    # the report's subject is the regularized pair
    assert report.subject["eta"] == [[1, 1], [1, 1]]


def test_sphere_action_regular_pairs_n2_exhaustive():
    for pair in [p for p in P.enumerate_pairs(2) if P.is_regular(p).is_regular]:
        report = V.verify_sphere_action(pair)
        assert report.passed, pair.compact()
        assert not report.notices


def test_sphere_action_invalid_side():
    with pytest.raises(ValueError):
        V.verify_sphere_action(_pair(ZERO2, ZERO2), side="gamma")


# ---------------------------------------------------------------------------
# tuple action
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [ZERO2, OFF2, [[0]]])
def test_tuple_action_proved_zero(eps):
    report = V.verify_tuple_action(eps)
    assert report.passed and report.overall == PROVED_ZERO


def test_tuple_action_epsilon_one_exercises_zero_cases():
    report = V.verify_tuple_action(OFF2)
    zero_checks = [c for c in report.checks if "Rt-zero" in c.name]
    assert zero_checks and all(c.passed for c in zero_checks)


# ---------------------------------------------------------------------------
# the shared relation-image cache
# ---------------------------------------------------------------------------

def _run_target(target, pair):
    if target == "hopf":
        return V.verify_comultiplication(pair)
    if target == "sphere-action":
        return V.verify_sphere_action(pair)
    return V.verify_tuple_action(pair.epsilon)


def _direct_checks(target, pair):
    """(name, certificate) per relation, by the coaction images, apply_tensor_hom and
    is_zero_tensor alone."""
    if target == "hopf":
        qg = tgt = P.unitary_qg_presentation(pair)
        sides = ("",)
    elif target == "sphere-action":
        pair = pair if P.is_regular(pair).is_regular else P.regularize(pair)
        qg, tgt = P.unitary_qg_presentation(pair), P.sphere_presentation(pair)
        sides = ("alpha", "beta")
    else:
        qg, tgt = P.orthogonal_qg_presentation(pair.epsilon), P.tuple_space_presentation(pair.epsilon)
        sides = ("alpha", "beta")
    left, right = build_quotient_basis(qg), build_quotient_basis(tgt)
    out = []
    for side in sides:
        images = V._coaction_images(qg, tgt, side or "alpha")
        out += [(f"{side}:{r.rid}" if side else r.rid,
                 is_zero_tensor(apply_tensor_hom(r.poly, images, qg.generators, tgt.generators),
                                left, right))
                for r in tgt.all_relations()]
    return out


def _checks(report):
    return [(c.name, c.certificate) for c in report.checks]


@pytest.mark.parametrize("target", ["hopf", "sphere-action", "tuple-action"])
def test_image_cache_cold_warm_and_direct_agree(target, empty_tables):
    pairs = P.enumerate_pairs(1) + P.enumerate_pairs(2)
    cold = {}
    for pair in pairs:
        empty_tables()
        cold[pair] = _checks(_run_target(target, pair))
    # one cache, warmed by every pair above, serves every pair again
    for pair in pairs:
        warm = _checks(_run_target(target, pair))
        assert warm == cold[pair] == _direct_checks(target, pair), pair.compact()


def _cached_images(family_name):
    return {key: image for key, image in V._IMAGE_CACHE.items() if key[0] == family_name}


def test_image_cache_keeps_sides_apart(empty_tables):
    pair = _pair(OFF2, ONES2)
    V.verify_sphere_action(pair)
    qg, sph = P.unitary_qg_presentation(pair), P.sphere_presentation(pair)
    cached = _cached_images("sphere")
    shared = {key[3] for key in cached if key[2] == "alpha"} & {key[3] for key in cached if key[2] == "beta"}
    assert shared == {frozenset(r.poly.terms.items()) for r in sph.all_relations()}
    assert any(cached[("sphere", 2, "alpha", k)] != cached[("sphere", 2, "beta", k)] for k in shared)
    for (_, n, side, terms), image in cached.items():
        images = V._coaction_images(qg, sph, side)
        assert image == apply_tensor_hom(Poly(dict(terms)), images, qg.generators, sph.generators)


def test_image_cache_keeps_sizes_apart(empty_tables):
    V.verify_comultiplication(_pair(OFF2, ONES2))
    eps3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    V.verify_comultiplication(_pair(eps3, [[1] * 3] * 3))
    cached = _cached_images("hopf")
    shared = {key[3] for key in cached if key[1] == 2} & {key[3] for key in cached if key[1] == 3}
    assert shared  # the same relation polynomial occurs at n = 2 and n = 3
    for (_, n, _, terms), image in cached.items():
        pres = P.unitary_qg_presentation(P.enumerate_pairs(n)[0])
        gens = pres.generators
        # tensors are equal only over the same code tables, so this pins the rosters too
        assert image == apply_tensor_hom(Poly(dict(terms)), V._coaction_images(pres, pres, "alpha"),
                                         gens, gens)


def _literal_coactions(n):
    """The five coactions, each written out on its own: map name -> generator -> image words."""
    r = range(1, n + 1)
    u, ou, x, tx = (functools.partial(Letter, tag) for tag in ("u", "ou", "x", "tx"))
    return {
        # coproduct: u_ik -> sum_j u_ij (x) u_jk
        ("hopf", "alpha"): {u(i, k): {((u(i, j),), (u(j, k),)) for j in r} for i in r for k in r},
        # sphere alpha: x_i -> sum_j u_ij (x) x_j
        ("sphere", "alpha"): {x(i, 0): {((u(i, j),), (x(j, 0),)) for j in r} for i in r},
        # sphere beta: x_i -> sum_j u_ji (x) x_j
        ("sphere", "beta"): {x(i, 0): {((u(j, i),), (x(j, 0),)) for j in r} for i in r},
        # tuple alpha: x_ik -> sum_j v_ij (x) x_jk
        ("tuple", "alpha"): {tx(i, k): {((ou(i, j),), (tx(j, k),)) for j in r}
                             for i in r for k in r},
        # tuple beta: x_ik -> sum_j v_ji (x) x_jk
        ("tuple", "beta"): {tx(i, k): {((ou(j, i),), (tx(j, k),)) for j in r}
                            for i in r for k in r},
    }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coaction_images_match_literal_maps(n):
    zero = [[0] * n for _ in range(n)]
    pair = _pair(zero, zero)
    unitary = P.unitary_qg_presentation(pair)
    spaces = {
        "hopf": (unitary, unitary),
        "sphere": (unitary, P.sphere_presentation(pair)),
        "tuple": (P.orthogonal_qg_presentation(zero), P.tuple_space_presentation(zero)),
    }
    for (name, side), expected in _literal_coactions(n).items():
        qg, space = spaces[name]
        images = V._coaction_images(qg, space, side)
        assert {g: set(image) for g, image in images.items()} == expected, (name, side)
        for g, image in images.items():
            assert set(image.values()) == {1}
            # every word lies on the rosters: coding the image raises no RosterMismatch
            apply_tensor_hom(Poly.generator(g), images, qg.generators, space.generators)


def test_basis_descriptor_is_copied_per_certificate():
    report = V.verify_comultiplication(_pair(OFF2, ONES2))
    first, second = (c.certificate.zero_evidence for c in report.checks[:2])
    assert first["left_basis"] == second["left_basis"] == first["right_basis"]
    first["left_basis"]["rank"] = -1
    assert second["left_basis"]["rank"] > 0 and first["right_basis"]["rank"] > 0


# ---------------------------------------------------------------------------
# tensor-quotient evidence, built on first read
# ---------------------------------------------------------------------------

def test_a_deferred_certificate_equals_its_eager_twin():
    descriptor = build_quotient_basis(P.unitary_qg_presentation(_pair(OFF2, ONES2))).descriptor()

    def eager(terms):
        return Certificate(PROVED_ZERO, zero_evidence={
            "kind": "tensor-quotient", "left_basis": dict(descriptor),
            "right_basis": dict(descriptor), "terms": terms})
    deferred = zero_tensor_certificate(7, descriptor, descriptor)
    # serialized before anything compares it, and byte for byte
    assert json.dumps(deferred.to_json_dict()) == json.dumps(eager(7).to_json_dict())
    assert zero_tensor_certificate(7, descriptor, descriptor) == eager(7)
    assert eager(7) == zero_tensor_certificate(7, descriptor, descriptor)
    assert zero_tensor_certificate(8, descriptor, descriptor) != eager(7)
    assert zero_tensor_certificate(7, descriptor, descriptor) != Certificate(PROVED_ZERO)


def test_editing_materialized_evidence_touches_no_other_evidence():
    pair = _pair(OFF2, ONES2)
    pres = P.unitary_qg_presentation(pair)
    span = build_quotient_basis(pres)
    descriptor = span.descriptor()
    images = V._coaction_images(pres, pres, "alpha")
    reduced = [is_zero_tensor(apply_tensor_hom(r.poly, images, pres.generators, pres.generators),
                              span, span) for r in pres.all_relations()[:2]]
    table = {}
    V.verify_comultiplication(pair, 2, table)
    carried = [c.certificate for c in V.verify_comultiplication(pair, 2, table).checks[:2]]
    for first, second in (reduced, carried):
        evidence = first.zero_evidence
        evidence["left_basis"]["rank"] = evidence["right_basis"]["rank"] = evidence["terms"] = -1
        assert first.zero_evidence["terms"] > 0  # built afresh on every read, so the edit stays the reader's
        other = second.zero_evidence
        assert other["left_basis"] == other["right_basis"] == descriptor and other["terms"] > 0
    assert span.descriptor() == descriptor


def test_a_warm_carried_pass_builds_no_evidence():
    tasks = cli.sweep_tasks(2, cli.SWEEP_TARGETS, cli.RunConfig())
    runs = [(cli._TARGETS[target].run, P.pair_from_json_dict(d), bound) for target, d, bound in tasks]
    table = {}
    for run, pair, bound in runs:
        run(pair, bound, table)
    certificates = []
    for run, pair, bound in runs:
        report = run(pair, bound, table)
        # what a sweep row reads: names and statuses
        assert len({c.name: c.certificate.status for c in report.checks}) == len(report.checks)
        assert report.passed and report.overall == PROVED_ZERO
        certificates += [c.certificate for c in report.checks]
    assert certificates
    assert all(c._tensor is not None and c._zero_evidence is None for c in certificates)


def test_a_sweep_reads_no_evidence(monkeypatch):
    """A sweep row reads only statuses, so no certificate, reduced or carried, builds its evidence."""
    read = []
    evidence = Certificate.zero_evidence
    monkeypatch.setattr(Certificate, "zero_evidence",
                        property(lambda cert: read.append(cert) or evidence.fget(cert)))
    assert cli.run_sweep(2, cli.SWEEP_TARGETS, cli.RunConfig(jobs=1))["overall_passed"]
    assert read == []


def test_a_carried_report_shares_one_certificate_per_term_count():
    tasks = cli.sweep_tasks(2, cli.SWEEP_TARGETS, cli.RunConfig())
    tasks += cli.sweep_tasks(3, cli.SWEEP_TARGETS, cli.RunConfig(seed=1), 12)
    runs = [(cli._TARGETS[target].run, P.pair_from_json_dict(d), bound) for target, d, bound in tasks]
    table = {}
    for run, pair, bound in runs:
        run(pair, bound, table)
    for run, pair, bound in runs:
        carried, direct = run(pair, bound, table), run(pair, bound, None)
        assert [c.name for c in carried.checks] == [c.name for c in direct.checks]
        shared = {}
        for check, twin in zip(carried.checks, direct.checks):
            assert shared.setdefault(twin.certificate.zero_evidence["terms"], check.certificate) \
                is check.certificate, (pair.compact(), check.name)
            assert check.certificate == twin.certificate, (pair.compact(), check.name)
        assert len({id(c.certificate) for c in carried.checks}) == len(shared)


def test_editing_read_evidence_reaches_no_certificate_sharing_it():
    pair = _pair(ZERO2, OFF2)
    pres = P.unitary_qg_presentation(pair)
    span = build_quotient_basis(pres)
    descriptor = span.descriptor()
    report = V.VerificationReport("hopf", {})
    V._verify_hom(report, V._check_rows(pres.all_relations(), pres, pres, ("hopf", 2, "")),
                  V._coaction_images(pres, pres, "alpha"), ("hopf", 2, ""),
                  (pres.generators, pres.generators), span, span)
    table = {}
    V.verify_comultiplication(pair, 2, table)
    carried = V.verify_comultiplication(pair, 2, table)
    for checks in (report.checks, carried.checks):
        siblings = {}
        for c in checks:
            siblings.setdefault(id(c.certificate), []).append(c)
        group = max(siblings.values(), key=len)
        assert len(group) > 1
        cert = group[0].certificate
        unedited = cert.zero_evidence
        evidence = cert.zero_evidence
        evidence["left_basis"]["rank"] = evidence["right_basis"]["rank"] = evidence["terms"] = -1
        evidence["kind"] = "edited"
        assert cert.zero_evidence == unedited and unedited["terms"] > 0
        assert all(c.certificate.zero_evidence == unedited for c in group)
        assert unedited["left_basis"] == unedited["right_basis"] == descriptor
    assert span.descriptor() == descriptor


# ---------------------------------------------------------------------------
# star twins: a relation whose star is plus or minus an earlier ProvedZero one
# ---------------------------------------------------------------------------

def _hom_checks(relations, span_pres, monkeypatch):
    """The coproduct checks of relations against spans of span_pres, and the reductions they made.

    Its callers empty the per-process tables first (`empty_tables`).
    """
    pres = P.unitary_qg_presentation(_pair(ZERO2, OFF2))
    reduced = []

    def counted(t, left, right):
        reduced.append(t)
        return is_zero_tensor(t, left, right)
    monkeypatch.setattr(V, "is_zero_tensor", counted)
    basis = build_quotient_basis(span_pres)
    images = V._coaction_images(pres, pres, "alpha")
    report = V.VerificationReport("hopf", {})
    V._verify_hom(report, V._check_rows(relations, pres, pres, ("hopf", 2, "")), images,
                  ("hopf", 2, ""), (pres.generators, pres.generators), basis, basis)
    direct = [is_zero_tensor(apply_tensor_hom(r.poly, images, pres.generators, pres.generators),
                             basis, basis) for r in relations]
    return [c.certificate for c in report.checks], direct, len(reduced)


def _relation(rid, pres):
    return next(r for r in pres.all_relations() if r.rid == rid)


def test_star_twin_reuses_only_plus_or_minus_a_proved_zero(monkeypatch, empty_tables):
    pres = P.unitary_qg_presentation(_pair(ZERO2, OFF2))
    # u11* u22 - u22 u11*, whose star is the twin
    partner, twin = _relation("Reta-comm(1,2;1,2)", pres), _relation("Reta-comm(2,1;2,1)", pres)
    assert twin.poly == partner.star
    minus = P.Relation("minus", -partner.star)  # its star is minus the partner
    # its star u11* u22 + u22 u11* has the partner's words, but is not plus or minus it
    u22s, u11 = Letter("u", 2, 2, True), Letter("u", 1, 1)
    other = P.Relation("other", Poly({(u22s, u11): 1, (u11, u22s): 1}))
    certs, direct, reduced = _hom_checks([partner, twin, minus, other], pres, monkeypatch)
    assert certs == direct
    assert [c.status for c in certs] == [PROVED_ZERO] * 3 + [INCONCLUSIVE]
    assert reduced == 2  # the partner and `other`


def test_star_twin_evidence_is_its_own(monkeypatch, empty_tables):
    pres = P.unitary_qg_presentation(_pair(ZERO2, OFF2))
    partner, twin = _relation("sum:u*u(1,2)", pres), _relation("sum:u*u(2,1)", pres)
    (first, second), direct, reduced = _hom_checks([partner, twin], pres, monkeypatch)
    assert reduced == 1 and [first, second] == direct
    a, b = first.zero_evidence, second.zero_evidence
    assert a is not b and a["left_basis"] is not b["left_basis"]
    assert a["right_basis"] is not b["right_basis"]
    b["left_basis"]["rank"] = b["right_basis"]["rank"] = -1
    b["terms"] = -1
    assert first == direct[0] and a["left_basis"]["rank"] > 0 and a["terms"] > 0


def test_a_reduced_star_twin_shares_its_partner_certificate(monkeypatch, empty_tables):
    pres = P.unitary_qg_presentation(_pair(ZERO2, OFF2))
    partner, twin = _relation("sum:u*u(1,2)", pres), _relation("sum:u*u(2,1)", pres)
    (first, second), direct, reduced = _hom_checks([partner, twin], pres, monkeypatch)
    assert reduced == 1 and second is first and [first, second] == direct


def test_star_twin_of_an_inconclusive_partner_is_reduced_directly(monkeypatch, empty_tables):
    pres = P.unitary_qg_presentation(_pair(ZERO2, OFF2))
    partner, twin = _relation("Reta-comm(1,2;1,2)", pres), _relation("Reta-comm(2,1;2,1)", pres)
    assert twin.poly == partner.star
    # without the pair, neither image reduces to 0, and each keeps its own sample survivor
    thin = pres._replace(families=tuple(
        P.RelationFamily(tuple(r for r in f.relations if r not in (partner, twin))) for f in pres.families))
    certs, direct, reduced = _hom_checks([partner, twin], thin, monkeypatch)
    assert reduced == 2 and certs == direct
    assert [c.status for c in certs] == [INCONCLUSIVE] * 2
    assert certs[0].detail != certs[1].detail


def _coactions(n):
    """(map, side, acting presentation, space) of each coaction on every presentation at n."""
    for pair in P.enumerate_pairs(n):
        unitary = P.unitary_qg_presentation(pair)
        yield "hopf", "alpha", unitary, unitary
        for side in ("alpha", "beta"):
            yield "sphere", side, unitary, P.sphere_presentation(pair)
    for eps in sorted({pair.epsilon for pair in P.enumerate_pairs(n)}):
        for side in ("alpha", "beta"):
            yield "tuple", side, P.orthogonal_qg_presentation(eps), P.tuple_space_presentation(eps)


def _term_keys(poly):
    return frozenset(poly.terms.items()), frozenset((-poly).terms.items())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_star_twins_have_equal_image_term_counts(n):
    """A relation and its star, or minus its star, in one presentation have images with
    equal term counts under every coaction: a carried twin's check may state its partner's.
    Each family's check rows name a partner exactly for such a twin: a row with partner k
    is plus or minus the star of row k, with row k's count, and a row with none has no
    earlier plus or minus star in its family."""
    counts, twins, walked, partnered = {}, set(), set(), set()

    def count(name, side, rel, qg, space, images):
        key = (name, side, rel.keys[0])
        if key not in counts:
            counts[key] = len(apply_tensor_hom(rel.poly, images, qg.generators, space.generators).terms)
        return counts[key]
    for name, side, qg, space in _coactions(n):
        images = V._coaction_images(qg, space, side)
        by_key = {rel.keys[0]: rel for rel in space.all_relations()}
        for rel in space.all_relations():
            for twin in [by_key[k] for k in rel.keys[1:] if k in by_key and by_key[k] is not rel]:
                twins.add((name, side, rel.keys[0], twin.keys[0]))
                assert (count(name, side, rel, qg, space, images)
                        == count(name, side, twin, qg, space, images)), (space.label, side, rel.rid, twin.rid)
        family_rows = V._family_check_rows(qg, space, (name, n, "" if name == "hopf" else side))
        for family, rows in zip(space.families, family_rows, strict=True):
            if (family, name, side) in walked:
                continue
            walked.add((family, name, side))
            earlier = set()
            for i, (check, terms, rel, partner) in enumerate(rows):
                assert rel is family.relations[i] and check.endswith(rel.rid)
                star = rel.poly.star()
                if partner is None:
                    assert earlier.isdisjoint(_term_keys(star)), (space.label, side, rel.rid)
                else:
                    _, partner_terms, other, _ = rows[partner]
                    assert partner < i and star in (other.poly, -other.poly), (space.label, rel.rid)
                    assert terms == partner_terms == count(name, side, rel, qg, space, images)
                    partnered.add((name, side))
                earlier.add(_term_keys(rel.poly)[0])
    # sphere relations have no twins; the others do once n > 1
    expected = {("hopf", "alpha")} | ({("tuple", "alpha"), ("tuple", "beta")} if n > 1 else set())
    assert {(name, side) for name, side, _, _ in twins} == partnered == expected


# ---------------------------------------------------------------------------
# the non-injectivity anchor
# ---------------------------------------------------------------------------

def test_noninjectivity_anchor():
    report = V.verify_noninjectivity_example()
    assert report.passed
    zero_check, nonzero_check = report.checks
    assert zero_check.certificate.status == PROVED_ZERO
    ev = zero_check.certificate.zero_evidence
    assert ev["lhs_multiple"] == "2"
    assert {t["relation"] for t in ev["terms"]} == {
        "sum:conj(u)conj(u)*(1,2)", "colprod-tie(1,2;2)"}
    assert nonzero_check.certificate.status == PROVED_NONZERO
    nev = nonzero_check.certificate.nonzero_evidence
    assert nev["threshold"] == V.NONZERO_NORM_THRESHOLD
    assert nev["image_diagonal"] == [0.0, 0.0, 0.0, 0.5]
    assert abs(nev["image_norm"] - 0.5) <= 1e-12
    assert nev["residual_max"] == 0.0


def test_noninjectivity_point_model_is_not_proved_nonzero(monkeypatch):
    # x1 = 1, x2 = 0 is a valid 1x1 model of the mixed sphere, but x1 x2* = 0 in it
    def point_model():
        pres = P.sphere_presentation(_pair(ZERO2, OFF2))
        return R.MatrixModel(pres, 1, {Letter("x", 1, 0): [{0: Q_ONE}], Letter("x", 2, 0): [{}]},
                             True, "point")
    monkeypatch.setattr(R, "noninjectivity_sphere_model", point_model)
    report = V.verify_noninjectivity_example()
    cert = report.checks[1].certificate
    assert cert.status == INCONCLUSIVE
    assert cert.nonzero_evidence["residual_max"] == 0.0
    assert cert.nonzero_evidence["image_norm"] == 0.0
    assert cert.nonzero_evidence["threshold"] == V.NONZERO_NORM_THRESHOLD
    assert not report.passed


def test_noninjectivity_guard_rejects_altered_pair():
    report = V.verify_noninjectivity_example(_pair(ZERO2, ZERO2))
    assert report.checks[0].certificate.status == INCONCLUSIVE
    assert "guard" in report.checks[0].certificate.detail
    assert not report.passed


# ---------------------------------------------------------------------------
# independence suites
# ---------------------------------------------------------------------------

def test_all_suites_pass():
    report = V.verify_independence_suite("all")
    assert report.passed
    by_name = {c.name: c.certificate.nonzero_evidence for c in report.checks}
    assert by_name["probe-products"]["rank"] == 4
    assert by_name["unit-squares"]["rank"] == 3
    assert by_name["torus"]["rank"] == 2
    assert by_name["free-unitary"]["rank"] == 4
    assert by_name["o2plus"]["rank"] == 2
    assert by_name["o2plus"]["residual_max"] == 0.0
    # every default model is exact: each rank rests on a nonzero minor of
    # full size (its determinant is recomputed in test_repmodels), not on
    # singular values above a threshold
    for ev in by_name.values():
        minor = ev["minor"]
        assert len(minor["members"]) == len(minor["entries"]) == ev["expected_rank"]
        assert "singular_values" not in ev and "threshold" not in ev


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown witness suite 'bogus'"):
        V.verify_independence_suite("bogus")


def test_torus_suite_with_degenerate_phases():
    report = V.verify_independence_suite("torus", torus_samples=[(1, 1), (1, 1)])
    cert = report.checks[0].certificate
    assert cert.status == INCONCLUSIVE and not report.passed
    assert cert.detail == "rank shortfall: 1/2"
    assert (cert.nonzero_evidence["rank"], cert.nonzero_evidence["residual_max"]) == (1, 0.0)


def test_suite_over_tolerance_is_one_inconclusive_row():
    # a torus on the phase 0.6+0.8j is a float model, so its residuals are
    # rounding errors near 2.2e-16; the exact models' relations vanish exactly
    report = V.verify_independence_suite("all", residual_tolerance=1e-17,
                                         torus_samples=[(1, 1), (0.6 + 0.8j, 1j)])
    statuses = {c.name: c.certificate.status for c in report.checks}
    assert statuses == {name: PROVED_NONZERO for name in V.INDEPENDENCE_SUITES} | {
        "torus": INCONCLUSIVE}
    cert = report.checks[list(V.INDEPENDENCE_SUITES).index("torus")].certificate
    ev = cert.nonzero_evidence
    assert 1e-17 < ev["residual_max"] < 1e-14 and ev["rank"] == 2
    # which normalization sum rounds worst depends on the float arithmetic
    assert cert.detail.startswith("model 'torus-diagonal' violates gated relation 'Σ ")
    assert cert.detail.endswith(f"with residual {ev['residual_max']:.3g}")


# ---------------------------------------------------------------------------
# regularization consistency
# ---------------------------------------------------------------------------

def test_regularization_consistency_never_fails_n2():
    for pair in P.enumerate_pairs(2):
        report = V.verify_regularization_consistency(pair)
        for c in report.checks:
            assert c.certificate.status in (PROVED_ZERO, INCONCLUSIVE)
        if P.is_regular(pair).is_regular:
            assert not report.checks
            assert report.notices


def test_regularization_consistency_single_generator_conclusive():
    report = V.verify_regularization_consistency(_pair([[0]], [[0]]))
    assert [c.certificate.status for c in report.checks] == [PROVED_ZERO]


# ---------------------------------------------------------------------------
# cross-validation: certified zeros vanish in every witness model
# ---------------------------------------------------------------------------

def test_proved_zero_relations_vanish_in_witness_models():
    pair = _pair(ZERO2, OFF2)
    for pres in (P.unitary_qg_presentation(pair), P.sphere_presentation(pair)):
        models = W.witness_models_for(pres)
        for model in models:
            assert R.model_residuals(model, pres.all_relations()).max <= 1e-9
        for rel in pres.all_relations():
            for model in models:
                assert np.linalg.norm(R.evaluate(rel.poly, model), 2) < 1e-9


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def test_report_json_shape():
    report = V.verify_comultiplication(_pair(ZERO2, ZERO2))
    d = report.to_json_dict()
    assert d["task"] == "hopf" and d["overall"] == PROVED_ZERO
    assert all({"relation", "status", "micros"} <= set(c) for c in d["checks"])
    d2 = report.to_json_dict(include_timings=False)
    assert all("micros" not in c for c in d2["checks"])
