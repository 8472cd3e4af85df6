"""Pair validation, regularity, regularization, and the presentation builders."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ncstar import cli, ncalg
from ncstar import presentations as P
from ncstar.ncalg import Poly

ZERO2 = [[0, 0], [0, 0]]
OFF2 = [[0, 1], [1, 0]]
ONES2 = [[1, 1], [1, 1]]


# ---------------------------------------------------------------------------
# validate_pair
# ---------------------------------------------------------------------------

def test_validate_probe_pair():
    pair = P.validate_pair(OFF2, ZERO2)
    assert pair.n == 2
    assert pair.epsilon == ((0, 1), (1, 0))


def test_validate_smallest():
    pair = P.validate_pair([[0]], [[1]])
    assert pair.n == 1 and pair.eta == ((1,),)


def test_validate_rejects_asymmetric():
    with pytest.raises(ValueError, match=r"\(1,2\)/\(2,1\)"):
        P.validate_pair([[0, 1], [0, 0]], ZERO2)


def test_validate_rejects_bad_diagonal():
    with pytest.raises(ValueError, match=r"\[2,2\]"):
        P.validate_pair([[0, 0], [0, 1]], ZERO2)


def test_validate_rejects_bad_entry():
    for entry in (2, 1.5, "1"):
        with pytest.raises(ValueError, match=r"eta\[1,2\]"):
            P.validate_pair(ZERO2, [[0, entry], [entry, 0]])


def test_validate_rejects_size_mismatch():
    with pytest.raises(ValueError, match="epsilon row 1 has length 2, expected 1"):
        P.validate_pair([[0, 0]], ZERO2)
    with pytest.raises(ValueError, match="eta has 1 rows, expected 2"):
        P.validate_pair(ZERO2, [[0]])


# ---------------------------------------------------------------------------
# is_regular / regularize
# ---------------------------------------------------------------------------

def test_regular_probe_pair():
    rep = P.is_regular(P.validate_pair(OFF2, ZERO2))
    assert rep.is_regular


def test_regular_free_case():
    z3 = [[0] * 3 for _ in range(3)]
    assert P.is_regular(P.validate_pair(z3, z3)).is_regular


def test_not_regular_both_indices():
    rep = P.is_regular(P.validate_pair(OFF2, OFF2))
    assert not rep.is_regular
    assert rep.violations_convention_B == (1, 2)
    assert rep.violations_convention_A == ()


def test_convention_a_violation():
    # x1 normal but eps_12 != eta_12
    rep = P.is_regular(P.validate_pair(OFF2, [[1, 0], [0, 0]]))
    assert (1, 2) in rep.violations_convention_A


def test_regularize_merge_pair():
    out = P.regularize(P.validate_pair(OFF2, OFF2))
    assert out.epsilon == ((0, 1), (1, 0))
    assert out.eta == ((1, 1), (1, 1))


def test_regularize_fixpoint_on_regular():
    pair = P.validate_pair(OFF2, ZERO2)
    assert P.regularize(pair) == pair


def test_regularize_vacuous_single_generator():
    out = P.regularize(P.validate_pair([[0]], [[0]]))
    assert out.eta == ((1,),)


def _pairs_exhaustive(n):
    return P.enumerate_pairs(n)


@pytest.mark.parametrize("n", [1, 2])
def test_regularize_properties_exhaustive_small(n):
    for pair in _pairs_exhaustive(n):
        out = P.regularize(pair)
        assert P.regularize(out) == out, "idempotence"
        assert P.is_regular(out).is_regular, "output regular"
        for m_in, m_out in ((pair.epsilon, out.epsilon), (pair.eta, out.eta)):
            for r_in, r_out in zip(m_in, m_out):
                assert all(a <= b for a, b in zip(r_in, r_out)), "monotone"
        # only eta diagonal and merged off-diagonal entries may change
        for i in range(n):
            for j in range(n):
                if i != j and out.epsilon[i][j] != pair.epsilon[i][j]:
                    assert out.eta[i][i] == 1 or out.eta[j][j] == 1


@st.composite
def random_pairs(draw, n=4):
    eps = [[0] * n for _ in range(n)]
    eta = [[0] * n for _ in range(n)]
    for i in range(n):
        eta[i][i] = draw(st.integers(0, 1))
        for j in range(i + 1, n):
            eps[i][j] = eps[j][i] = draw(st.integers(0, 1))
            eta[i][j] = eta[j][i] = draw(st.integers(0, 1))
    return P.validate_pair(eps, eta)


@given(random_pairs())
@settings(max_examples=60, deadline=None)
def test_regularize_properties_random_n4(pair):
    out = P.regularize(pair)
    assert P.regularize(out) == out
    assert P.is_regular(out).is_regular


# ---------------------------------------------------------------------------
# sphere presentations
# ---------------------------------------------------------------------------

def _rids(pres):
    return [r.rid for r in pres.all_relations()]


def test_sphere_free_only_sums():
    pres = P.sphere_presentation(P.validate_pair(ZERO2, ZERO2))
    assert _rids(pres) == ["sum:x*x", "sum:xx*"]


def test_sphere_classical_counts():
    pres = P.sphere_presentation(P.validate_pair(OFF2, ONES2))
    assert len(pres.relations) == 4  # 1 plain commutator + 3 star commutators
    assert {r.rid for r in pres.relations} == {"eps(1,2)", "eta(1,1)", "eta(1,2)", "eta(2,2)"}
    assert len(pres.all_relations()) == 6


def test_sphere_probe_pair_single_commutator():
    pres = P.sphere_presentation(P.validate_pair(OFF2, ZERO2))
    assert [r.rid for r in pres.relations] == ["eps(1,2)"]


def test_sphere_relations_degree_and_roster():
    for pair in P.enumerate_pairs(2):
        pres = P.sphere_presentation(pair)
        roster = frozenset(pres.generators)
        for rel in pres.all_relations():
            assert rel.poly.degree() <= 2
            for w in rel.poly.terms:
                assert all(l.base() in roster for l in w)


# ---------------------------------------------------------------------------
# unitary presentations
# ---------------------------------------------------------------------------

def test_unitary_free_only_sums():
    pres = P.unitary_qg_presentation(P.validate_pair(ZERO2, ZERO2))
    assert pres.relations == ()
    assert [r.rid.rsplit("(", 1)[0] for r in pres.sums] == [
        label for label in ("sum:u*u", "sum:uu*", "sum:conj(u)conj(u)*", "sum:conj(u)*conj(u)")
        for _ in range(4)]


def test_unitary_classical_no_zero_or_product_families():
    pres = P.unitary_qg_presentation(P.validate_pair(OFF2, ONES2))
    kinds = {r.rid.split("(")[0] for r in pres.relations}
    assert "Reta-zero" not in kinds
    assert "colprod-swap" not in kinds
    assert "Reta-comm" in kinds and "Reps-comm" in kinds


def test_unitary_mixed_pair_families():
    pres = P.unitary_qg_presentation(P.validate_pair(ZERO2, OFF2))
    kinds = {r.rid.split("(")[0] for r in pres.relations}
    assert kinds == {"Reta-comm", "colprod-swap", "colprod-tie", "rowprod-swap", "rowprod-tie"}
    comm = [r for r in pres.relations if r.rid.startswith("Reta-comm")]
    assert {r.rid for r in comm} == {
        "Reta-comm(1,2;1,2)", "Reta-comm(1,2;2,1)",
        "Reta-comm(2,1;1,2)", "Reta-comm(2,1;2,1)"}


def test_unitary_relations_degree_and_roster():
    pres = P.unitary_qg_presentation(P.validate_pair(OFF2, [[1, 0], [0, 0]]))
    roster = frozenset(pres.generators)
    for rel in pres.all_relations():
        assert rel.poly.degree() <= 2
        for w in rel.poly.terms:
            assert all(l.base() in roster for l in w)


@pytest.mark.parametrize("builder", [P.orthogonal_qg_presentation, P.tuple_space_presentation])
def test_starless_relations_degree_and_roster(builder):
    pres = builder([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    roster = frozenset(pres.generators)
    for rel in pres.all_relations():
        assert rel.poly.degree() <= 2
        for w in rel.poly.terms:
            assert all(l.base() in roster for l in w)


# ---------------------------------------------------------------------------
# orthogonal and tuple presentations
# ---------------------------------------------------------------------------

def test_orthogonal_free_only_sums():
    pres = P.orthogonal_qg_presentation(ZERO2)
    assert pres.relations == ()
    assert [r.rid.rsplit("(", 1)[0] for r in pres.sums] == ["sum:row-orth"] * 4 + ["sum:col-orth"] * 4


def test_orthogonal_hyperoctahedral_flavor():
    eps = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    pres = P.orthogonal_qg_presentation(eps)
    kinds = {r.rid.split("(")[0] for r in pres.relations}
    assert kinds == {"Ro-comm", "Ro-zero"}


def test_orthogonal_n2_zero_relations():
    pres = P.orthogonal_qg_presentation(OFF2)
    zero_rids = {r.rid for r in pres.relations if r.rid.startswith("Ro-zero")}
    # u11 u21 = 0 comes from (i,j)=(1,2) with k=l=1
    assert "Ro-zero(1,2;1,1)" in zero_rids
    comm = [r for r in pres.relations if r.rid.startswith("Ro-comm")]
    assert len(comm) == 2  # u11 u22 = u22 u11 and u12 u21 = u21 u12


def test_orthogonal_letters_starless():
    pres = P.orthogonal_qg_presentation(OFF2)
    for rel in pres.all_relations():
        for w in rel.poly.terms:
            assert all(not l.starred for l in w)
    g = pres.generators[0]
    assert g.star() == g  # self-adjoint letters


def test_tuple_space_column_sums_and_zeros():
    pres = P.tuple_space_presentation(OFF2)
    assert {r.rid.rsplit("(", 1)[0] for r in pres.sums} == {"sum:col-orth"}
    zero_rids = {r.rid for r in pres.relations if r.rid.startswith("Rt-zero")}
    # x_1k x_2k = 0 for k in {1,2}: case eps_ij = 1, eps_kk = 0
    assert "Rt-zero(1,2;1,1)" in zero_rids and "Rt-zero(1,2;2,2)" in zero_rids


def test_tuple_space_free_only_sums():
    pres = P.tuple_space_presentation(ZERO2)
    assert pres.relations == ()
    assert len(pres.sums) == 4


# ---------------------------------------------------------------------------
# every presentation with n <= 3, pinned
# ---------------------------------------------------------------------------

def _all_presentations(max_n):
    """Sphere and unitary group of each pair, orthogonal group and tuple space
    of each epsilon on its first appearance, in enumeration order."""
    for n in range(1, max_n + 1):
        seen = set()
        for pair in P.enumerate_pairs(n):
            yield P.sphere_presentation(pair)
            yield P.unitary_qg_presentation(pair)
            if pair.epsilon not in seen:
                seen.add(pair.epsilon)
                yield P.orthogonal_qg_presentation(pair.epsilon)
                yield P.tuple_space_presentation(pair.epsilon)


def test_presentation_digest_is_pinned():
    """Every rid, position, description and term, in insertion order, of the
    1,082 presentations with n <= 3, as the polynomial-arithmetic builders
    made them."""
    digest = hashlib.sha256()
    count = 0
    for pres in _all_presentations(3):
        count += 1
        digest.update(repr((pres.kind, pres.label, pres.generators)).encode())
        for tag, rels in (("R", pres.relations), ("S", pres.sums)):
            for r in rels:
                digest.update(repr((tag, r.rid, r.describe(), list(r.poly.terms.items()))).encode())
    assert count == 1082
    assert digest.hexdigest() == "13a93610b179a4a171d3b18738ac8ea3e6aaf932d3931a3a0b37a3b92e43453c"


def test_relation_pool_survives_a_sweep_and_stays_within_its_kind(monkeypatch):
    """After a full n = 3 sweep in this process, every pooled relation, its
    star and every coded span row equal ones written down afresh, so no
    consumer mutated shared terms; and no entry is shared across kinds."""
    assert cli.run_sweep(3, cli.SWEEP_TARGETS, cli.RunConfig(jobs=1))["overall_passed"]
    pooled = list(_all_presentations(3))
    monkeypatch.setattr(P, "_POOL", {})
    kinds = {}
    for pres, fresh in zip(pooled, _all_presentations(3), strict=True):
        letters = {l for g in pres.generators for l in (g, g.star())}
        for rel, new in zip(pres.all_relations(), fresh.all_relations(), strict=True):
            assert rel is not new
            assert (rel.rid, rel.description, rel.poly) == (new.rid, new.description, new.poly)
            assert rel.star == new.poly.star() and rel.keys == new.keys
            assert {l for w in rel.poly.terms for l in w} <= letters, (pres.label, rel.rid)
            kinds.setdefault(id(rel), set()).add(pres.kind)
    assert all(len(k) == 1 for k in kinds.values())
    assert any(codes.rows for codes in ncalg._CODES.values())
    for codes in ncalg._CODES.values():
        fresh = ncalg._WordCodes(codes.letters)
        for key, (degree, row, terms, charge) in codes.rows.items():
            assert degree == Poly(dict(key)).degree()
            assert row == {fresh.code(w): c for w, c in key}
            assert {fresh.offset(d) + v: c for d, v, c in terms} == row
            charges = {fresh.charge(w) for w, _ in key}
            assert charge == (charges.pop() if len(charges) == 1 else None)


def _four_presentations(pair):
    return (P.sphere_presentation(pair), P.unitary_qg_presentation(pair),
            P.orthogonal_qg_presentation(pair.epsilon), P.tuple_space_presentation(pair.epsilon))


def _random_pairs(n, count, seed):
    """count pairs of size n, each entry above the diagonal (and eta's diagonal) a coin flip."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        eps, eta = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
        for i in range(n):
            eta[i][i] = rng.randint(0, 1)
            for j in range(i + 1, n):
                eps[i][j] = eps[j][i] = rng.randint(0, 1)
                eta[i][j] = eta[j][i] = rng.randint(0, 1)
        pairs.append(P.validate_pair(eps, eta))
    return pairs


def _up_to_sign(poly):
    terms = sorted(poly.terms.items())
    return tuple((w, -c) for w, c in terms) if terms[0][1] < 0 else tuple(terms)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_families_pooled_by_other_pairs_give_a_fresh_build(n, monkeypatch):
    """Each family depends only on its own part of the pair: a presentation
    assembled from families that earlier pairs pooled holds the relations of
    one built into an empty pool, in the same order.  No relation of one
    family is, up to sign, a relation of another, and no star-closed
    polynomial is shared either, which is what lets orbit rows split by
    family."""
    pairs = P.enumerate_pairs(n) if n < 4 else _random_pairs(4, 200, seed=31)
    monkeypatch.setattr(P, "_POOL", {})
    warm = [_four_presentations(pair) for pair in pairs]
    assembled = set()
    for pair, built in zip(pairs, warm):
        monkeypatch.setattr(P, "_POOL", {})
        for pres, fresh in zip(built, _four_presentations(pair), strict=True):
            assert len(pres.families) in (2, 3)
            assert [(r.rid, r.description, r.poly) for r in pres.all_relations()] == [
                (r.rid, r.description, r.poly) for r in fresh.all_relations()], pres.label
            if pres.families in assembled:
                continue
            assembled.add(pres.families)
            signed = [{_up_to_sign(r.poly) for r in f.relations} for f in pres.families]
            closed = [{key for _, _, key in ncalg._star_closed(f.relations)} for f in pres.families]
            for sets in (signed, closed):
                assert sum(map(len, sets)) == len(set().union(*sets)), pres.label


def test_tie_relations_are_pooled_with_their_first_free_index(monkeypatch):
    """colprod-tie(1,2;3) and rowprod-tie(1,2;3) tie index 3 to the first free
    index k0, which their rid omits: k0 = 1 with x1 free, k0 = 2 with x1 normal."""
    monkeypatch.setattr(P, "_POOL", {})
    zero3 = [[0] * 3 for _ in range(3)]

    def u(i, j, s=False):
        return ncalg.Letter("u", i, j, s)

    for diagonal, k0 in ((0, 1), (1, 2), (0, 1)):
        eta = [[diagonal, 1, 0], [1, 0, 0], [0, 0, 0]]
        rels = {r.rid: r.poly for r in P.unitary_qg_presentation(P.validate_pair(zero3, eta)).relations}
        assert rels["colprod-tie(1,2;3)"] == Poly({(u(1, 3, True), u(2, 3)): 1,
                                                   (u(1, k0, True), u(2, k0)): -1})
        assert rels["rowprod-tie(1,2;3)"] == Poly({(u(3, 1, True), u(3, 2)): 1,
                                                   (u(k0, 1, True), u(k0, 2)): -1})


def test_warm_rebuild_adds_nothing_to_the_pool(monkeypatch):
    """A second build of the 1,082 presentations with n <= 3 finds every
    relation, sum and generator tuple in the pool and makes no Letter."""
    monkeypatch.setattr(P, "_POOL", {})
    first = list(_all_presentations(3))
    pooled = dict(P._POOL)
    letters = []

    def counted(*args, cls=P.Letter):
        letters.append(args)
        return cls(*args)

    monkeypatch.setattr(P, "Letter", counted)
    second = list(_all_presentations(3))
    assert len(second) == 1082 and letters == []
    assert P._POOL.keys() == pooled.keys()
    assert all(P._POOL[k] is v for k, v in pooled.items())
    for a, b in zip(first, second, strict=True):
        assert a.generators is b.generators
        assert all(r is s for r, s in zip(a.all_relations(), b.all_relations(), strict=True))


def test_builders_make_no_polynomial_arithmetic(monkeypatch):
    """Each relation is written down from its words, never computed."""
    calls = []
    for op in ("__add__", "__sub__", "__mul__", "__neg__"):
        def counted(*args, fn=getattr(Poly, op), op=op):
            calls.append(op)
            return fn(*args)
        monkeypatch.setattr(Poly, op, counted)
    assert sum(1 for _ in _all_presentations(2)) == 42
    assert calls == []


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_counts():
    assert len(P.enumerate_pairs(1)) == 2
    assert len(P.enumerate_pairs(2)) == 16


def test_enumerate_order_deterministic_and_sorted():
    pairs = P.enumerate_pairs(2)
    flats = [p.flat() for p in pairs]
    assert flats == sorted(flats)
    assert pairs == P.enumerate_pairs(2)


def test_enumerate_too_large():
    with pytest.raises(ValueError, match="exceed the cap of 100000"):
        P.enumerate_pairs(5)


# ---------------------------------------------------------------------------
# pair files
# ---------------------------------------------------------------------------

def test_pair_file_round_trip(tmp_path):
    pair = P.validate_pair(OFF2, ONES2)
    path = tmp_path / "pair.json"
    P.save_pair(pair, path)
    assert P.load_pair(path) == pair


def test_pair_file_eta_omitted(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"n": 2, "epsilon": OFF2}))
    pair = P.load_pair(path)
    assert pair.eta == ((0, 0), (0, 0))


def test_pair_file_requires_full_matrices(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"n": 2, "epsilon": [[0, 1]]}))
    with pytest.raises(ValueError, match="declared n=2 but epsilon has 1 rows"):
        P.load_pair(path)
    path.write_text(json.dumps({"n": 2, "epsilon": [[0, 1], [1]]}))
    with pytest.raises(ValueError, match="row 2"):
        P.load_pair(path)
