"""Word algebra, quotient bases, tensor reduction, ideal membership."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import span_reference
from ncstar import cli
from ncstar import ncalg as A
from ncstar import presentations as P
from ncstar import verifier as V
from ncstar.ncalg import (Letter, Poly, TensorPoly, build_quotient_basis,
                          ideal_membership_bounded, is_zero_tensor, replay_combination,
                          star_word)
from ncstar.scalars import GaussianRational

ZERO2 = [[0, 0], [0, 0]]
OFF2 = [[0, 1], [1, 0]]
ONES2 = [[1, 1], [1, 1]]

x1 = Poly.generator(Letter("x", 1, 0))
x2 = Poly.generator(Letter("x", 2, 0))


def u(i, j, s=False):
    return Poly.generator(Letter("u", i, j, s))


def product_terms(p, q):
    """p (x) q as {(left word, right word): coefficient}."""
    return {(w1, w2): c1 * c2 for w1, c1 in p.items() for w2, c2 in q.items()}


def tensor(p, q, roster):
    """p (x) q, with both legs over one roster."""
    return TensorPoly(product_terms(p, q), roster, roster)


def decoded(t: TensorPoly) -> dict:
    """The terms of t as {(left word, right word): coefficient}, decoded by its own code tables."""
    return {(t.left.word(k1), t.right.word(k2)): c for (k1, k2), c in t.terms.items()}


# ---------------------------------------------------------------------------
# free *-algebra operations
# ---------------------------------------------------------------------------

def test_star_reverses_and_toggles():
    p = x1 * x2.star()
    assert p.star() == x2 * x1.star()
    assert str(p.star()) == "x2.x1*"


def test_commutator_construction():
    rel = x1 * x2 + x2.scale(-1) * x1
    assert rel == x1 * x2 - x2 * x1
    assert rel.degree() == 2


@pytest.mark.parametrize("bad", [1.0, 1j, GaussianRational(1)], ids=["float", "complex", "gaussian"])
def test_only_exact_rationals_enter_a_poly(bad):
    with pytest.raises(TypeError):
        Poly.from_word((Letter("x", 1, 0),), bad)
    with pytest.raises(TypeError):
        x1.scale(bad)
    with pytest.raises(TypeError):
        x1 * bad
    # an integral Fraction is stored as an int
    assert x1.scale(Fraction(4, 2)).terms == {(Letter("x", 1, 0),): 2}


@st.composite
def random_polys(draw, letters=None, max_degree=2, max_terms=4):
    if letters is None:
        letters = [Letter("x", i, 0, s) for i in (1, 2) for s in (False, True)]
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        deg = draw(st.integers(0, max_degree))
        w = tuple(draw(st.sampled_from(letters)) for _ in range(deg))
        c = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        if c:
            terms[w] = c
    return Poly(terms)


@given(random_polys(), random_polys())
@settings(max_examples=80, deadline=None)
def test_star_properties(p, q):
    assert p.star().star() == p
    assert (p + q).star() == p.star() + q.star()
    assert (p * q).star() == q.star() * p.star()


@given(random_polys(), random_polys(), random_polys())
@settings(max_examples=40, deadline=None)
def test_algebra_associativity(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


# ---------------------------------------------------------------------------
# comultiplication
# ---------------------------------------------------------------------------

def _coproduct(n):
    """Roster and coproduct u_ij -> sum_k u_ik (x) u_kj of the free pair of size n."""
    zero = [[0] * n for _ in range(n)]
    pres = P.unitary_qg_presentation(P.validate_pair(zero, zero))
    return pres.generators, V._coaction_images(pres, pres, "alpha")


def test_comultiply_generator_n2():
    image = _coproduct(2)[1][Letter("u", 1, 1)]
    expected = {
        ((Letter("u", 1, 1),), (Letter("u", 1, 1),)): 1,
        ((Letter("u", 1, 2),), (Letter("u", 2, 1),)): 1,
    }
    assert image == expected


def test_comultiply_generator_n1():
    image = _coproduct(1)[1][Letter("u", 1, 1)]
    assert list(image) == [((Letter("u", 1, 1),), (Letter("u", 1, 1),))]


def test_coproduct_of_degree_two_word_has_n_squared_terms():
    n = 3
    roster, images = _coproduct(n)
    p = u(1, 2, True) * u(2, 3)
    t = A.apply_tensor_hom(p, images, roster, roster)
    assert len(t.terms) == n * n
    # spot-check one term: u_1r* u_2p (x) u_r2* u_p3
    key = ((Letter("u", 1, 1, True), Letter("u", 2, 2)),
           (Letter("u", 1, 2, True), Letter("u", 2, 3)))
    assert key in decoded(t)


# A naive reference for apply_tensor_hom: tensor elements as plain
# {(left word, right word): coefficient} dicts, with the algebra written out
# term by term.

def _ref_add(s, t):
    out = dict(s)
    for k, c in t.items():
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c}


def _ref_mul(s, t):
    out = {}
    for (a1, b1), c1 in s.items():
        for (a2, b2), c2 in t.items():
            k = (a1 + a2, b1 + b2)
            out[k] = out[k] + c1 * c2 if k in out else c1 * c2
    return {k: c for k, c in out.items() if c}


def _ref_star(t):
    return {(star_word(a), star_word(b)): c for (a, b), c in t.items()}


def _ref_hom(p, images):
    out = {}
    for w, c in p.items():
        term = {((), ()): c}
        for l in w:
            img = images[l.base()]
            term = _ref_mul(term, _ref_star(img) if l.starred else img)
        out = _ref_add(out, term)
    return out


HOM_ROSTER = (Letter("x", 1, 0), Letter("x", 2, 0))
HOM_LETTERS = [g.star() if s else g for g in HOM_ROSTER for s in (False, True)]


@st.composite
def random_images(draw):
    """A plain {(left word, right word): coefficient} image for each roster
    letter, with nonzero Fraction coefficients."""
    images = {}
    for g in HOM_ROSTER:
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            legs = tuple(tuple(draw(st.sampled_from(HOM_LETTERS)) for _ in range(draw(st.integers(0, 2))))
                         for _ in range(2))
            terms[legs] = Fraction(draw(st.sampled_from([-2, -1, 1, 2])), draw(st.integers(1, 2)))
        images[g] = terms
    return images


@given(random_images(), random_polys(HOM_LETTERS, max_degree=3, max_terms=3),
       random_polys(HOM_LETTERS, max_degree=3, max_terms=3))
@settings(max_examples=60, deadline=None)
def test_apply_tensor_hom_is_a_star_homomorphism(images, p, q):
    def hom(r):
        return decoded(A.apply_tensor_hom(r, images, HOM_ROSTER, HOM_ROSTER))

    assert hom(p) == _ref_hom(p, images)
    assert hom(p * q) == _ref_mul(hom(p), hom(q))
    assert hom(p.star()) == _ref_star(hom(p))
    assert hom(p + q) == _ref_add(hom(p), hom(q))


def test_apply_tensor_hom_needs_every_image_on_its_rosters():
    p = x1 * x2.star()
    image = product_terms(x1, x2)
    with pytest.raises(A.RosterMismatch, match="no image assigned for generator x2"):
        A.apply_tensor_hom(p, {HOM_ROSTER[0]: image}, HOM_ROSTER, HOM_ROSTER)
    # an image with a letter off the rosters is refused in either leg
    x3 = Poly.generator(Letter("x", 3, 0))
    for other in (product_terms(x3, x1), product_terms(x1, x3)):
        with pytest.raises(A.RosterMismatch, match="letter x3\\* is not in the roster"):
            A.apply_tensor_hom(p, {HOM_ROSTER[0]: image, HOM_ROSTER[1]: other}, HOM_ROSTER, HOM_ROSTER)


# ---------------------------------------------------------------------------
# quotient bases
# ---------------------------------------------------------------------------

def test_free_sphere_relation_span_rank_two():
    pres = P.sphere_presentation(P.validate_pair(ZERO2, ZERO2))
    qb = build_quotient_basis(pres, 2)
    assert qb.rank == 2
    assert qb.descriptor()["monomials"] == 21  # 1 + 4 + 16


def test_classical_single_generator_reduce():
    pres = P.sphere_presentation(P.validate_pair([[0]], [[1]]))
    qb = build_quotient_basis(pres, 2)
    x = Poly.generator(Letter("x", 1, 0))
    assert qb.certify(x.star() * x - Poly.one()).status == A.PROVED_ZERO


def test_unitary_free_syzygy_row_reduces():
    pres = P.unitary_qg_presentation(P.validate_pair(ZERO2, ZERO2))
    qb = build_quotient_basis(pres, 2)
    row = u(1, 1) * u(2, 1, True) + u(1, 2) * u(2, 2, True)  # delta_12 = 0
    assert qb.certify(row).status == A.PROVED_ZERO


def _test_matrix_presentations():
    out = []
    for pair in P.enumerate_pairs(2):
        out.append(P.sphere_presentation(pair))
        out.append(P.unitary_qg_presentation(pair))
    for eps in (ZERO2, OFF2):
        out.append(P.orthogonal_qg_presentation(eps))
        out.append(P.tuple_space_presentation(eps))
    return out


def test_quotient_star_compatibility():
    for pres in _test_matrix_presentations():
        qb = build_quotient_basis(pres, 2)
        for rel in pres.all_relations():
            assert qb.certify(rel.poly).status == A.PROVED_ZERO
            assert qb.certify(rel.poly.star()).status == A.PROVED_ZERO


def test_span_grows_with_bound():
    # the bound is the total degree of the products m1 * r * m2, so a larger
    # bound spans more than the relations themselves
    pres = P.unitary_qg_presentation(P.validate_pair(ZERO2, OFF2))
    assert build_quotient_basis(pres, 3).rank > build_quotient_basis(pres, 2).rank


def test_degree_three_product_needs_bound_three():
    pres = P.sphere_presentation(P.validate_pair(OFF2, ZERO2))
    p = x1 * pres.all_relations()[0].poly
    assert p.degree() == 3
    b2, b3 = build_quotient_basis(pres, 2), build_quotient_basis(pres, 3)
    assert b3.certify(p).status == A.PROVED_ZERO
    with pytest.raises(ValueError):
        b2.certify(p)
    # on a tensor leg the degree-2 span leaves x1 * r standing, the degree-3 one kills it
    t = tensor(p, Poly.one(), pres.generators)
    assert is_zero_tensor(t, b2, b2).status == A.INCONCLUSIVE
    assert is_zero_tensor(t, b3, b3).status == A.PROVED_ZERO


def test_dimension_cap(monkeypatch):
    monkeypatch.setattr(A, "SPAN_ENTRY_CAP", 10)
    pres = P.unitary_qg_presentation(P.validate_pair(ZERO2, ZERO2))
    with pytest.raises(A.DimensionCap):
        build_quotient_basis(pres, 2)


def test_reduce_rejects_overweight_words():
    pres = P.sphere_presentation(P.validate_pair(ZERO2, ZERO2))
    qb = build_quotient_basis(pres, 2)
    with pytest.raises(ValueError):
        qb.certify(x1 * x1 * x1)


# ---------------------------------------------------------------------------
# tensor certification
# ---------------------------------------------------------------------------

def test_zero_tensor_is_proved_zero():
    pres = P.unitary_qg_presentation(P.validate_pair(ZERO2, ZERO2))
    qb = build_quotient_basis(pres, 2)
    t = TensorPoly({}, left_roster=pres.generators, right_roster=pres.generators)
    assert is_zero_tensor(t, qb, qb).status == A.PROVED_ZERO


def test_free_generator_tensor_inconclusive():
    pres = P.unitary_qg_presentation(P.validate_pair(ZERO2, ZERO2))
    qb = build_quotient_basis(pres, 2)
    t = tensor(u(1, 1), u(1, 1), pres.generators)
    cert = is_zero_tensor(t, qb, qb)
    assert cert.status == A.INCONCLUSIVE


def test_coproduct_images_of_starred_commutation_vanish_classical():
    pair = P.validate_pair(OFF2, ONES2)
    pres = P.unitary_qg_presentation(pair)
    qb = build_quotient_basis(pres, 2)
    images = V._coaction_images(pres, pres, "alpha")
    for i, j, k, l in itertools.product((1, 2), repeat=4):
        rel = u(i, k, True) * u(j, l) - u(j, l) * u(i, k, True)
        t = A.apply_tensor_hom(rel, images, pres.generators, pres.generators)
        assert is_zero_tensor(t, qb, qb).status == A.PROVED_ZERO


def test_tensors_over_other_rosters_are_not_equal():
    """Equal codes over other code tables stand for other words, in either leg."""
    sphere = P.sphere_presentation(P.validate_pair(ZERO2, ZERO2)).generators
    unitary = P.unitary_qg_presentation(P.validate_pair(ZERO2, ZERO2)).generators
    # x1 and u11 are each the first letter of their roster, so they share a code
    s, t = tensor(x1, x1, sphere), tensor(u(1, 1), u(1, 1), unitary)
    assert s.terms == t.terms
    assert s != t
    assert s == tensor(x1, x1, sphere)
    for (p, left), (q, right) in itertools.permutations(((x1, sphere), (u(1, 1), unitary))):
        mixed = TensorPoly(product_terms(p, q), left, right)
        assert mixed.terms == s.terms
        assert mixed != s and mixed != t


def test_tensor_roster_mismatch_against_basis():
    pres_u = P.unitary_qg_presentation(P.validate_pair(ZERO2, ZERO2))
    pres_s = P.sphere_presentation(P.validate_pair(ZERO2, ZERO2))
    qb_u = build_quotient_basis(pres_u, 2)
    qb_s = build_quotient_basis(pres_s, 2)
    t = tensor(u(1, 1), u(1, 1), pres_u.generators)
    with pytest.raises(A.RosterMismatch):
        is_zero_tensor(t, qb_u, qb_s)


# ---------------------------------------------------------------------------
# bounded ideal membership
# ---------------------------------------------------------------------------

def test_membership_trivial_for_relations():
    pres = P.unitary_qg_presentation(P.validate_pair(ZERO2, OFF2))
    for rel in pres.all_relations()[:6]:
        cert = ideal_membership_bounded(rel.poly, pres, 2)
        assert cert.status == A.PROVED_ZERO
        assert replay_combination(rel.poly, pres, cert.zero_evidence)


def test_replay_refuses_a_nonreal_evidence_coefficient():
    pres = P.unitary_qg_presentation(P.validate_pair(ZERO2, OFF2))
    p = pres.all_relations()[0].poly
    evidence = ideal_membership_bounded(p, pres, 2).zero_evidence
    assert evidence["terms"][0]["coefficient"] == "1/1+0/1i"
    assert replay_combination(p, pres, evidence)
    evidence["terms"][0]["coefficient"] = "1/1+1/1i"
    assert not replay_combination(p, pres, evidence)


def test_replay_refuses_a_vacuous_combination():
    pres = P.sphere_presentation(P.validate_pair(ZERO2, ZERO2))
    x1x2 = Poly.from_word((Letter("x", 1, 0), Letter("x", 2, 0)))
    assert ideal_membership_bounded(x1x2, pres, 4).status == A.INCONCLUSIVE
    assert not replay_combination(x1x2, pres, {"terms": [], "lhs_multiple": "0"})


def _set_term(key, value):
    def tamper(ev):
        ev["terms"][0][key] = value
    return tamper


@pytest.mark.parametrize("tamper", [
    _set_term("relation", "no-such-relation"),
    _set_term("left", "y9"),
    _set_term("coefficient", "one"),
    lambda ev: ev.update(lhs_multiple="two"),
    lambda ev: ev.update(terms=None),
    lambda ev: ev.pop("lhs_multiple"),
], ids=["unknown-relation", "unknown-letter", "bad-coefficient", "bad-multiple",
        "null-terms", "no-multiple"])
def test_replay_refuses_malformed_evidence(tamper):
    pres = P.unitary_qg_presentation(P.validate_pair(ZERO2, OFF2))
    p = pres.all_relations()[0].poly
    evidence = ideal_membership_bounded(p, pres, 2).zero_evidence
    assert replay_combination(p, pres, evidence)
    tamper(evidence)
    assert not replay_combination(p, pres, evidence)


def test_membership_vanishing_column_product_sum():
    # u11.u21* + u12.u22* is the uu*-sum at (1,2), so it collapses to twice the
    # canonical column product and certifies as zero with the factor visible
    pair = P.validate_pair(ZERO2, OFF2)
    pres = P.unitary_qg_presentation(pair)
    p = u(1, 1) * u(2, 1, True) + u(1, 2) * u(2, 2, True)
    cert = ideal_membership_bounded(p, pres, 2)
    assert cert.status == A.PROVED_ZERO
    assert replay_combination(p, pres, cert.zero_evidence)
    # the delta sum at (1,1) vanishes, and so does the column product
    # X(1,2) = u11*.u21 itself: with both columns free a unitarity sum collapses it
    span = A.BoundedSpan(pres, 2)
    assert span.certify(u(1, 1, True) * u(1, 1) + u(1, 2, True) * u(1, 2)
                        - Poly.one()).status == A.PROVED_ZERO
    assert span.certify(u(1, 1, True) * u(2, 1)).status == A.PROVED_ZERO
    # with x2 normal (eta_22 = 1) no unitarity sum collapses X(1,2), though
    # column 1 still swaps it to u21.u11*
    normal = A.BoundedSpan(P.unitary_qg_presentation(P.validate_pair(ZERO2, [[0, 1], [1, 1]])), 2)
    assert normal.certify(u(1, 1, True) * u(2, 1)).status == A.INCONCLUSIVE
    assert normal.certify(u(1, 1, True) * u(2, 1) - u(2, 1) * u(1, 1, True)).status == A.PROVED_ZERO


def test_membership_inconclusive_for_nonzero_product():
    pair = P.validate_pair(OFF2, ZERO2)
    pres = P.sphere_presentation(pair)
    p = x1 * x2.star()
    for bound in (2, 3, 4):
        cert = ideal_membership_bounded(p, pres, bound)
        assert cert.status == A.INCONCLUSIVE, f"bound {bound}"


def test_membership_degree_guard():
    pres = P.sphere_presentation(P.validate_pair(ZERO2, ZERO2))
    with pytest.raises(ValueError):
        ideal_membership_bounded(x1 * x1 * x1, pres, 2)


def _span_targets(pres, bound, a, b):
    """Targets over the generators a, b of pres: some in the span, some not."""
    rels = [r.poly for r in pres.all_relations()]
    half = Fraction(1, 2)
    targets = [
        rels[0],
        rels[-1].scale(half) + rels[0].scale(-3),
        a * b.star(),
        a * rels[0] * b.star(),
        b.star() * rels[-1] + rels[0] * a.scale(half),
    ]
    return [p for p in targets if p.degree() <= bound]


@pytest.mark.parametrize("pair,family,bound", [
    ((ZERO2, OFF2), P.unitary_qg_presentation, 2),
    ((OFF2, ZERO2), P.sphere_presentation, 2),
    ((OFF2, ZERO2), P.sphere_presentation, 3),
    ((OFF2, OFF2), P.sphere_presentation, 4),
])
def test_bounded_span_reuse_matches_one_shot(pair, family, bound):
    pres = family(P.validate_pair(*pair))
    if family is P.unitary_qg_presentation:
        targets = _span_targets(pres, bound, u(1, 2), u(2, 1))
        targets.append(u(1, 1) * u(2, 1, True) + u(1, 2) * u(2, 2, True))
    else:
        targets = _span_targets(pres, bound, x1, x2)
    proved = 0
    for provenance in (True, False):
        span = A.BoundedSpan(pres, bound, provenance=provenance)
        for p in targets:
            cert = span.certify(p)
            assert cert == ideal_membership_bounded(p, pres, bound, want_combination=provenance)
            if cert.status == A.PROVED_ZERO:
                proved += 1
                if provenance:
                    assert replay_combination(p, pres, cert.zero_evidence)
            # the degree guard holds on every query, not only on the first
            with pytest.raises(ValueError):
                span.certify(x1 * x1 * x1 * x1 * x1)
    assert 0 < proved < 2 * len(targets)


def test_bounded_span_dimension_cap_at_build(monkeypatch):
    monkeypatch.setattr(A, "SPAN_ENTRY_CAP", 10)
    pres = P.sphere_presentation(P.validate_pair(ZERO2, ZERO2))
    with pytest.raises(A.DimensionCap):
        A.BoundedSpan(pres, 4)
    # a span restricted to one charge block still counts every monomial up to its bound
    with pytest.raises(A.DimensionCap):
        A.BoundedSpan(pres, 4, targets=(x1 * x1.star(),))
    with pytest.raises(A.DimensionCap):
        ideal_membership_bounded(x1, pres, 4)


def test_oracle_agreement_sample():
    import random
    rng = random.Random(11)
    pair = P.validate_pair(ZERO2, OFF2)
    pres = P.unitary_qg_presentation(pair)
    basis = span_reference.relation_basis(pres)
    rels = pres.all_relations()
    letters = list(pres.generators) + [g.star() for g in pres.generators]
    for trial in range(60):
        if trial % 2 == 0:
            poly = Poly.zero()
            for _ in range(rng.randint(1, 3)):
                poly = poly + rng.choice(rels).poly.scale(rng.randint(-2, 2))
        else:
            terms = {tuple(rng.choice(letters) for _ in range(rng.randint(0, 2))):
                     rng.randint(-2, 2) for _ in range(rng.randint(1, 3))}
            poly = Poly(terms)
        cert = ideal_membership_bounded(poly, pres, 2, want_combination=False)
        assert (cert.status == A.PROVED_ZERO) == span_reference.in_span(basis, poly), poly


def test_certificate_json_shape():
    pair = P.validate_pair(ZERO2, OFF2)
    pres = P.unitary_qg_presentation(pair)
    cert = ideal_membership_bounded(pres.all_relations()[0].poly, pres, 2)
    d = cert.to_json_dict()
    assert d["status"] == "ProvedZero"
    ev = d["zero_evidence"]
    assert ev["kind"] == "linear-combination"
    for term in ev["terms"]:
        assert set(term) == {"relation", "left", "right", "coefficient"}
        assert term["coefficient"].endswith("i")


# ---------------------------------------------------------------------------
# the integer-coded span kernel
# ---------------------------------------------------------------------------

@st.composite
def rosters_and_words(draw):
    """A sorted letter roster and some words of length <= bound over it."""
    letters = draw(st.lists(st.builds(Letter, st.sampled_from(["u", "x", "ou"]), st.integers(1, 3),
                                      st.integers(0, 3), st.booleans()),
                            min_size=1, max_size=7, unique=True))
    bound = draw(st.integers(2, 4))
    words = draw(st.lists(st.lists(st.sampled_from(letters), max_size=bound).map(tuple),
                          min_size=1, max_size=12))
    return sorted(letters), words


@given(rosters_and_words())
@settings(max_examples=80, deadline=None)
def test_word_code_round_trips_and_orders_like_word_key(case):
    letters, words = case
    codes = A._WordCodes(letters)
    for w in words:
        assert codes.word(codes.code(w)) == w
    for w1, w2 in itertools.product(words, repeat=2):
        assert (codes.code(w1) < codes.code(w2)) == (A.word_key(w1) < A.word_key(w2))
        assert (codes.code(w1) == codes.code(w2)) == (w1 == w2)


_REFERENCE_PRESENTATIONS = [
    family(P.validate_pair(*pair))
    for pair in ((ZERO2, OFF2), (OFF2, ONES2), (OFF2, [[0, 1], [1, 1]]))
    for family in (P.unitary_qg_presentation, P.sphere_presentation)
]
_REFERENCE_SPANS = [(pres, A.BoundedSpan(pres, 2, provenance=True), span_reference.relation_basis(pres))
                    for pres in _REFERENCE_PRESENTATIONS]
_RATIONAL = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))


@given(st.sampled_from(_REFERENCE_SPANS), st.data())
@settings(max_examples=80, deadline=None)
def test_certify_matches_reference_on_rational_polys(case, data):
    pres, span, basis = case
    rels = [r.poly for r in pres.all_relations()]
    p = Poly.zero()
    for _ in range(data.draw(st.integers(1, 3))):
        p = p + data.draw(st.sampled_from(rels)).scale(data.draw(_RATIONAL))
    if data.draw(st.booleans()):
        letters = A._roster_letters(pres)
        p = p + data.draw(random_polys(letters, max_degree=2, max_terms=2))
    cert = span.certify(p)
    assert (cert.status == A.PROVED_ZERO) == span_reference.in_span(basis, p)
    if cert.status == A.PROVED_ZERO:
        assert replay_combination(p, pres, cert.zero_evidence)


def _residue_word(span, w) -> list:
    """The residue of one word in span, as [(word code, coefficient), ...]."""
    return span._residue(span._codes.code(w))


def test_word_with_foreign_letter_raises_roster_mismatch():
    pres = P.sphere_presentation(P.validate_pair(ZERO2, ZERO2))
    span = build_quotient_basis(pres, 2)
    y = Letter("y", 1, 0)
    w = (Letter("x", 1, 0), y)
    foreign = "letter y1 is not in the roster"
    with pytest.raises(A.RosterMismatch, match=foreign):
        _residue_word(span, w)
    p = pres.all_relations()[0].poly + Poly.from_word(w, 2)
    with pytest.raises(A.RosterMismatch, match=foreign):
        span.certify(p)
    with pytest.raises(A.RosterMismatch, match=foreign):
        ideal_membership_bounded(p, pres, 2)
    # a tensor with a foreign letter in either leg is refused at construction
    for terms in ({((y,), ()): Fraction(1, 2)}, {((), (y,)): Fraction(1, 2)}):
        with pytest.raises(A.RosterMismatch, match=foreign):
            TensorPoly(terms, pres.generators, pres.generators)
    # even beside a word that lies in the span: u11*.u12 is the relation
    # Reta-zero(1,1;1,2):su
    pres = P.unitary_qg_presentation(P.validate_pair(ZERO2, [[1, 0], [0, 0]]))
    assert "Reta-zero(1,1;1,2):su" in [r.rid for r in pres.relations]
    span = build_quotient_basis(pres, 2)
    zero_word, x9 = (Letter("u", 1, 1, True), Letter("u", 1, 2)), (Letter("x", 9, 0),)
    assert _residue_word(span, zero_word) == []
    for terms in ({(zero_word, x9): 1}, {(x9, zero_word): 1}):
        with pytest.raises(A.RosterMismatch, match="letter x9 is not in the roster"):
            TensorPoly(terms, pres.generators, pres.generators)


def _reference_reduction(terms: dict, left, right) -> tuple:
    """Status and detail, which names the survivor count, of the tensor with
    these {(left word, right word): coefficient} terms, summed word by word
    from `_residue_word` in Fraction arithmetic."""
    coords: dict = {}
    for (w1, w2), c in terms.items():
        for k1, c1 in _residue_word(left, w1):
            for k2, c2 in _residue_word(right, w2):
                coords[k1, k2] = coords.get((k1, k2), 0) + Fraction(c) * c1 * c2
    coords = {k: v for k, v in coords.items() if v}
    if not coords:
        return A.PROVED_ZERO, ""
    k1, k2 = min(coords)
    return A.INCONCLUSIVE, (
        f"{len(coords)} coordinate(s) survive leg-wise reduction, e.g. "
        f"{A.word_str(left._codes.word(k1))} ⊗ {A.word_str(right._codes.word(k2))} "
        f"with coefficient {coords[k1, k2]}")


def _random_terms(rng, pres) -> dict:
    """A few relation-times-word terms and some free words, with Fraction
    coefficients, as {(left word, right word): coefficient}."""
    letters = A._roster_letters(pres)
    # with x1 normal at n = 3, u12.u12* reduces to (1 - u11.u11*) / 2
    words = [(Letter("u", 1, 2), Letter("u", 1, 2, True))]
    words += [tuple(rng.choice(letters) for _ in range(rng.randint(0, 2))) for _ in range(6)]
    rels = [r.poly for r in pres.all_relations()]
    terms: dict = {}

    def add(p, q, c):
        for w1, c1 in p.items():
            for w2, c2 in q.items():
                A._add_term(terms, (w1, w2), Fraction(c) * c1 * c2)

    for _ in range(rng.randint(1, 3)):
        rel, word = rng.choice(rels), Poly.from_word(rng.choice(words))
        p, q = (rel, word) if rng.random() < 0.5 else (word, rel)
        add(p, q, Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    for _ in range(rng.randint(0, 3)):
        add(Poly.from_word(rng.choice(words)), Poly.from_word(rng.choice(words)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    return terms


@pytest.mark.parametrize("eta", [[[1, 0], [0, 0]], [[1, 0, 0], [0, 0, 0], [0, 0, 0]]],
                         ids=["n2", "n3"])
def test_coded_reduction_matches_word_level_reference(eta):
    pres = P.unitary_qg_presentation(P.validate_pair([[0] * len(eta)] * len(eta), eta))
    # two spans, so the reference fills no cache that the coded reduction reads
    span, reference = build_quotient_basis(pres, 2), build_quotient_basis(pres, 2)
    rng = random.Random(len(eta))
    statuses = set()
    for _ in range(60):
        terms = _random_terms(rng, pres)
        cert = is_zero_tensor(TensorPoly(terms, pres.generators, pres.generators), span, span)
        assert (cert.status, cert.detail) == _reference_reduction(terms, reference, reference)
        statuses.add(cert.status)
    assert statuses == {A.PROVED_ZERO, A.INCONCLUSIVE}
    half = _residue_word(span, (Letter("u", 1, 2), Letter("u", 1, 2, True)))
    assert any(c.denominator == 2 for _, c in half) == (len(eta) == 3)


def test_raw_constructors_refuse_inexact_coefficients():
    w = (Letter("x", 1, 0), Letter("x", 2, 0))
    for bad in (-0.5, 1j):
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            Poly({w: 1, w[::-1]: bad})
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        TensorPoly({(w, ()): 0.5}, HOM_ROSTER, HOM_ROSTER)
    # a zero of the wrong type is refused too, not dropped
    with pytest.raises(TypeError):
        Poly({w: 0.0})
    assert Poly({w: Fraction(4, 2), w[::-1]: 0}).terms == {w: 2}


@pytest.mark.parametrize("scales,detail", [
    ((Fraction(1, 3), 1),
     "3 coordinate(s) survive leg-wise reduction, e.g. 1 ⊗ u13 with coefficient 1/6"),
    ((Fraction(-2, 3), 2),
     "3 coordinate(s) survive leg-wise reduction, e.g. 1 ⊗ u13 with coefficient -1/3"),
], ids=["real", "negative"])
def test_inconclusive_tensor_detail_is_pinned(scales, detail):
    # with x1 normal, the unitarity sums give u12.u12* = (1 - u11.u11*) / 2
    zero3 = [[0] * 3 for _ in range(3)]
    pres = P.unitary_qg_presentation(P.validate_pair(zero3, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    span = build_quotient_basis(pres, 2)
    residue = _residue_word(span, (Letter("u", 1, 2), Letter("u", 1, 2, True)))
    assert any(c.denominator == 2 for _, c in residue)
    c1, c2 = scales
    terms = {}
    for p, q, c in ((u(1, 2) * u(1, 2, True), u(1, 3), c1), (u(1, 1) * u(1, 1, True), u(1, 3), c2),
                    (u(2, 3), u(3, 2, True) * u(1, 1), c2)):
        terms.update(product_terms(p.scale(c), q))
    t = TensorPoly(terms, left_roster=pres.generators, right_roster=pres.generators)
    assert is_zero_tensor(t, span, span).detail == detail


def test_span_kernel_makes_no_gaussian_arithmetic(monkeypatch):
    """The whole traffic path stays off GaussianRational arithmetic: the four
    presentation families, the coaction images, the spans, tensor reduction
    and a regularization pass."""
    calls = []
    for op in ("__mul__", "__add__", "__truediv__"):
        def counted(a, b, fn=getattr(GaussianRational, op), op=op):
            calls.append(op)
            return fn(a, b)
        monkeypatch.setattr(GaussianRational, op, counted)
    pair = P.validate_pair(ZERO2, OFF2)
    unitary, sphere = P.unitary_qg_presentation(pair), P.sphere_presentation(pair)
    orthogonal, tuples = P.orthogonal_qg_presentation(OFF2), P.tuple_space_presentation(OFF2)
    for qg, space in ((unitary, unitary), (unitary, sphere), (orthogonal, tuples)):
        left, right = build_quotient_basis(qg, 2), build_quotient_basis(space, 2)
        for side in ("alpha", "beta"):
            images = V._coaction_images(qg, space, side)
            for r in space.all_relations():
                t = A.apply_tensor_hom(r.poly, images, qg.generators, space.generators)
                assert is_zero_tensor(t, left, right).status == A.PROVED_ZERO, r.rid
    assert V.verify_regularization_consistency(P.validate_pair(OFF2, OFF2)).checks
    assert calls == []


# ---------------------------------------------------------------------------
# charge blocks
# ---------------------------------------------------------------------------

def _words(pres, bound):
    """Every word of degree <= bound over pres's roster, in code order."""
    codes = A._roster_codes(pres.generators)
    return [codes.word(k) for k in range(codes.offset(bound + 1))]


def _spheres():
    """Every n = 2 sphere and a seeded sample of n = 3 spheres."""
    return [P.sphere_presentation(pair)
            for pair in P.enumerate_pairs(2) + random.Random(28).sample(P.enumerate_pairs(3), 6)]


def _unitaries():
    """Every n = 2 unitary presentation."""
    return [P.unitary_qg_presentation(pair) for pair in P.enumerate_pairs(2)]


def _classes(block) -> dict:
    """Each word of a class in block but its root, resolved to (root, multiplier,
    combination), after checking that the root is the least word of the class.

    Path compression changes the raw links and never the resolved values.
    """
    classes = {w: A._find(block.links, w) for w in list(block.links)}
    assert all(root < w and root not in block.links for w, (root, _, _) in classes.items())
    return classes


def _block_tables(span):
    """Each of span's blocks as (resolved classes, pivots, row count), by
    charge, after checking that every class word and pivot lead has its
    block's charge."""
    codes = span._codes
    for charge, block in span._blocks.items():
        assert all(codes.charge(codes.word(w)) == charge for w in (*block.links, *block.pivots))
    return {charge: (_classes(block), block.pivots, block.rows) for charge, block in span._blocks.items()}


def _built_blocks(full, built):
    """full's block tables (`_block_tables`) of the charges in built."""
    return {charge: table for charge, table in _block_tables(full).items() if charge in built}


def test_restricted_span_blocks_equal_the_full_span():
    """Each built block has the full span's pivots of its charges and reduces
    every word of its charge as the full span does, on spheres and on unitary
    presentations, whose letters carry a row and a column charge."""
    rng = random.Random(5)
    for pres in _spheres() + _unitaries():
        codes = A._roster_codes(pres.generators)
        charge = codes.charge
        for bound in (2, 3, 4):
            full = A.BoundedSpan(pres, bound)
            words = _words(pres, bound)
            for size in (1, 2, 3):
                targets = [Poly.from_word(w) for w in rng.sample(words, size)]
                built = {charge(w) for p in targets for w in p.terms}
                span = A.BoundedSpan(pres, bound, targets=targets)
                assert _block_tables(span) == _built_blocks(full, built)
                inside = [w for w in words if charge(w) in built]
                assert ([_residue_word(span, w) for w in inside]
                        == [_residue_word(full, w) for w in inside])
                assert span.rank <= full.rank
                assert span.descriptor()["monomials"] == full.descriptor()["monomials"]


def _reference_queries(pres, bound, rng) -> list:
    """Seeded polynomials of degree <= bound: sums of scaled products m1 * r * m2,
    which lie in the span, each again with a free word added, and that word."""
    letters = A._roster_letters(pres)
    rels = [r.poly for r in pres.all_relations()]

    def word(length):
        return Poly.from_word(tuple(rng.choice(letters) for _ in range(length)))
    out = []
    for _ in range(6):
        p = Poly.zero()
        for _ in range(rng.randint(1, 3)):
            r = rng.choice(rels)
            d1 = rng.randint(0, bound - r.degree())
            product = word(d1) * r * word(rng.randint(0, bound - r.degree() - d1))
            p = p + product.scale(Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2))))
        w = word(rng.randint(0, bound))
        out += [p, p + w, w]
    return [p for p in out if not p.is_zero()]


def _reference_mismatches(span, basis, queries) -> list:
    """Where span and a `span_reference` basis disagree: the rank, then each query's membership."""
    out = [] if span.rank == len(basis) else [("rank", span.rank, len(basis))]
    return out + [A.poly_str(p) for p in queries
                  if (span.certify(p).status == A.PROVED_ZERO) != span_reference.in_span(basis, p)]


def test_spans_above_bound_2_match_an_independent_reference():
    """Full spans of every n = 2 sphere at bounds 3 and 4, of sampled n = 2
    unitary presentations at bound 3, of sampled non-regular n = 3 spheres
    at bound 4, and of the n = 2 orthogonal and tuple-space presentations at
    bound 3, with their one-term and w1 + w2 rows, have the rank and the
    memberships of products m1 * r * m2
    enumerated and eliminated in `span_reference`; so do the one-shot
    membership queries of those spheres' regularizations."""
    rng = random.Random(40)
    nonregular = [pair for pair in P.enumerate_pairs(3) if not P.is_regular(pair).is_regular]
    cases = ([(P.sphere_presentation(pair), bound) for pair in P.enumerate_pairs(2) for bound in (3, 4)]
             + [(P.unitary_qg_presentation(pair), 3) for pair in rng.sample(P.enumerate_pairs(2), 4)]
             + [(P.sphere_presentation(pair), V.REGULARIZATION_BOUND) for pair in rng.sample(nonregular, 3)]
             + [(build(eps), 3) for eps in (ZERO2, OFF2)
                for build in (P.orthogonal_qg_presentation, P.tuple_space_presentation)])
    verdicts = []
    for pres, bound in cases:
        basis = span_reference.relation_basis(pres, bound)
        queries = _reference_queries(pres, bound, rng)
        assert _reference_mismatches(A.BoundedSpan(pres, bound), basis, queries) == [], (pres.label, bound)
        verdicts += [span_reference.in_span(basis, p) for p in queries]
        if pres.source_pair.n == 3:
            base_keys = {r.keys[0] for r in pres.all_relations()}
            added = [rel.poly for rel in P.sphere_presentation(P.regularize(pres.source_pair)).all_relations()
                     if rel.keys[0] not in base_keys]
            assert added
            for p in added:
                cert = ideal_membership_bounded(p, pres, bound)
                assert (cert.status == A.PROVED_ZERO) == span_reference.in_span(basis, p), A.poly_str(p)
    assert len(cases) == 43 and 0 < sum(verdicts) < len(verdicts)


def test_the_span_reference_disagrees_with_a_span_missing_one_relation():
    """On two n = 2 spheres where no relation follows from the others at
    bound 3, the reference built without any one relation differs from the
    full span, in rank or in a membership."""
    rng = random.Random(41)
    for eps, eta in ((OFF2, [[1, 0], [0, 0]]), (ZERO2, [[0, 1], [1, 1]])):
        pres = P.sphere_presentation(P.validate_pair(eps, eta))
        span = A.BoundedSpan(pres, 3)
        queries = _reference_queries(pres, 3, rng)
        assert _reference_mismatches(span, span_reference.relation_basis(pres, 3), queries) == []
        for k, family in enumerate(pres.families):
            for rel in family.relations:
                kept = P.RelationFamily(tuple(r for r in family.relations if r is not rel))
                dropped = pres._replace(families=pres.families[:k] + (kept,) + pres.families[k + 1:])
                basis = span_reference.relation_basis(dropped, 3)
                assert _reference_mismatches(span, basis, queries + [rel.poly]), rel.rid


def _edited_free_sphere(*polys):
    """The free n = 2 sphere with one more family, of these relations, put first."""
    pres = P.sphere_presentation(P.validate_pair(ZERO2, ZERO2))
    family = P.RelationFamily(tuple(P.Relation(f"edit{k}", p) for k, p in enumerate(polys)))
    return pres._replace(families=(family,) + pres.families)


def _residue_count(cert) -> int:
    """How many monomials `BoundedSpan.certify` left outside the span."""
    return 0 if cert.status == A.PROVED_ZERO else int(cert.detail.split()[0])


def _resolved(span) -> list:
    """(root, multiplier) of every class word but the roots, over span's blocks."""
    return [(root, m) for block in span._blocks.values() for root, m, _ in _classes(block).values()]


def test_word_classes_the_sphere_spans_never_reach_match_the_reference():
    """Edited n = 2 spheres make classes that no sphere makes: a sign clash
    (x1.x2 - x2.x1 with x1.x2 + x2.x1), a one-term row that meets a class
    (before or after the class's rows), Fraction multipliers (2 and -3),
    anticommuting letters, and rows whose words share a class already.  At
    bounds 2 to 4 each span has the reference's rank, every product of an
    edited relation is ProvedZero, each seeded query has the reference's
    membership and residue count, and every provenance ProvedZero, full or
    one-shot, replays."""
    a, b, x1s = x1 * x2, x2 * x1, x1.star()

    def zero_class(span, _):
        return (A._ZERO, 0) in _resolved(span)
    cases = {
        "sign clash": ((a - b, a + b), zero_class),
        # the larger word first: x2.x1 + x1.x2 links it to x1.x2 with multiplier -1
        "sign clash, larger word first": ((b + a, a - b), zero_class),
        "zero then class": ((b, a - b), zero_class),
        "class then zero": ((a - b, b), zero_class),
        "fraction multipliers": ((a.scale(2) - b.scale(3), (x1 * x1s).scale(2) - (x1s * x1).scale(3),
                                  (x2 * x1s).scale(2) - (x1s * x2).scale(3)),
                                 lambda span, _: any(isinstance(m, Fraction) for _, m in _resolved(span))),
        "fraction clash": ((a - b, a.scale(2) - b.scale(3)), zero_class),
        # x1 and x2 anticommute, and so do x2 and x1*: nonzero classes with
        # multipliers -1, joined through words of other classes
        "anticommuting": ((b + a, x1 * x1s - x1s * x1, x2 * x1s + x1s * x2),
                          lambda span, _: (A._ZERO, 0) not in _resolved(span)
                          and any(m == -1 for _, m in _resolved(span))),
        # a - b again, scaled: every row of it follows from the classes already
        "shared class": ((a - b, a.scale(2) - b.scale(2)), lambda span, plain: span.rank == plain),
    }
    rng = random.Random(42)
    for bound in (2, 3, 4):
        plain = A.BoundedSpan(_edited_free_sphere(a - b), bound).rank
        for name, (polys, reached) in cases.items():
            pres = _edited_free_sphere(*polys)
            basis = span_reference.relation_basis(pres, bound)
            span, full = A.BoundedSpan(pres, bound), A.BoundedSpan(pres, bound, provenance=True)
            assert span.rank == full.rank == len(basis), (name, bound)
            assert reached(span, plain), (name, bound)
            # every product of an edited relation lies in the span
            words = _words(pres, bound - 2)
            for q in polys:
                for r in (q, q.star()):
                    for m1, m2 in itertools.product(words, words):
                        if len(m1) + len(m2) <= bound - 2:
                            product = Poly.from_word(m1) * r * Poly.from_word(m2)
                            assert span.certify(product).status == A.PROVED_ZERO, (name, bound)
            for p in _reference_queries(pres, bound, rng) + list(polys):
                cert = span.certify(p)
                expected = len(span_reference.residue(basis, p))
                assert _residue_count(cert) == expected, (name, bound, A.poly_str(p))
                for proved in (full.certify(p), ideal_membership_bounded(p, pres, bound)):
                    assert proved.status == cert.status
                    if proved.status == A.PROVED_ZERO:
                        assert replay_combination(p, pres, proved.zero_evidence), (name, A.poly_str(p))


def _block_products(pres, bound, built):
    """Every product m1 * r * m2 of degree <= bound whose charge is in built."""
    codes = A._roster_codes(pres.generators)
    charge = codes.charge
    # every relation here has degree 2
    words = _words(pres, bound - 2)
    out = []
    for _, rpoly, _ in A._star_closed_relations(pres):
        rcharge = charge(next(iter(rpoly.terms)))
        for m1 in words:
            for m2 in words:
                if (len(m1) + rpoly.degree() + len(m2) <= bound
                        and charge(m1) + rcharge + charge(m2) in built):
                    out.append(Poly.from_word(m1) * rpoly * Poly.from_word(m2))
    return out


def _combination_cases():
    """(presentation, bounds, target sets): n = 2 and sampled n = 3 spheres, and
    sampled n = 3 unitary presentations, whose targets carry nonzero row
    charges (u11.u21* and u11*.u21, the column products) and column charges."""
    # even and odd charges: at bound 3 an even block holds only the relations themselves
    spheres = [(x1 * x2, x1 * x2.star() * x1), (x1 * x2.star(), x2, x1.star() * x1 + x2 * x2)]
    unitaries = [(u(1, 1) * u(2, 1, True), u(1, 1, True) * u(2, 1)),
                 (u(1, 1) * u(1, 2, True), u(2, 1), u(1, 1) * u(2, 2) - u(1, 2) * u(2, 1))]
    pairs = P.enumerate_pairs(2) + random.Random(29).sample(P.enumerate_pairs(3), 3)
    return ([(P.sphere_presentation(pair), (3, 4), spheres) for pair in pairs]
            + [(P.unitary_qg_presentation(pair), (3,), unitaries)
               for pair in random.Random(36).sample(P.enumerate_pairs(3), 2)])


def test_restricted_span_combinations_equal_the_full_span():
    """A restricted provenance span certifies polynomials of its blocks with
    the full span's combinations: its rows reach each block in the full order."""
    rng = random.Random(29)
    compared = 0
    for pres, bounds, target_sets in _combination_cases():
        charge = A._roster_codes(pres.generators).charge
        for bound in bounds:
            full = A.BoundedSpan(pres, bound, provenance=True)
            for targets in target_sets:
                built = {charge(w) for p in targets for w in p.terms}
                assert len(built) >= 2 and built - {0}
                span = A.BoundedSpan(pres, bound, provenance=True, targets=targets)
                # each built block's pivot rows and their combinations are the full span's
                assert _block_tables(span) == _built_blocks(full, built)
                products = _block_products(pres, bound, built)
                mixed = []
                for _ in range(6 if products else 0):
                    p = Poly.zero()
                    for q in rng.sample(products, min(3, len(products))):
                        p = p + q.scale(Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2))))
                    mixed.append(p)
                for p in products + mixed:
                    if p.is_zero():
                        continue
                    cert = span.certify(p)
                    assert cert.status == A.PROVED_ZERO
                    assert cert == full.certify(p), (pres.label, bound, A.poly_str(p))
                    compared += 1
                for p in targets:
                    assert span.certify(p) == full.certify(p)
    assert compared > 1000


def test_restricted_span_refuses_a_word_of_an_unbuilt_charge():
    pres = P.sphere_presentation(P.validate_pair(OFF2, OFF2))
    a, a_star = Letter("x", 1, 0), Letter("x", 1, 0, True)
    span = A.BoundedSpan(pres, 3, targets=(x1 * x1.star(),))
    assert _residue_word(span, (a_star, a)) == _residue_word(A.BoundedSpan(pres, 3), (a_star, a))
    assert span.certify(pres.sums[0].poly).status == A.PROVED_ZERO
    for w in ((a,), (a, Letter("x", 2, 0))):
        with pytest.raises(ValueError, match="charge block"):
            _residue_word(span, w)
    # one term of an unbuilt charge is enough
    with pytest.raises(ValueError, match="charge block"):
        span.certify(x1 * x1.star() + x1 * x2 - x2 * x1)


def test_a_relation_that_mixes_charges_is_refused():
    """Every relation must keep a word's charge: a presentation edited so that
    one family holds x1.x1* - x1.x2 builds no span, full or restricted, and
    the error names that relation."""
    pres = P.sphere_presentation(P.validate_pair(OFF2, OFF2))
    mixed = P.Relation("mixed", x1 * x1.star() - x1 * x2)
    first = P.RelationFamily(pres.families[0].relations + (mixed,))
    edited = pres._replace(families=(first,) + pres.families[1:])
    named = re.escape(A.poly_str(mixed.poly))
    for targets in (None, (x1 * x1.star(),)):
        assert A.BoundedSpan(pres, 3, targets=targets).rank > 0
        with pytest.raises(ValueError, match=named):
            A.BoundedSpan(edited, 3, targets=targets)
    with pytest.raises(ValueError, match=named):
        ideal_membership_bounded(x1 * x1.star(), edited, 2)


def test_anchor_membership_builds_one_unitary_block():
    """The non-injectivity cross-check's query u11*.u21 puts in only the rows
    of its charge block, fewer than the full unitary span, and gets the full
    span's certificate."""
    pres = P.unitary_qg_presentation(P.validate_pair(ZERO2, OFF2))
    p = u(1, 1, True) * u(2, 1)
    charge = A._roster_codes(pres.generators).charge
    # at bound 2 a block's rows are its relations themselves
    block = sum(charge(next(iter(rpoly.terms))) == charge(*p.terms)
                for _, rpoly, _ in A._star_closed_relations(pres))
    for combination in (False, True):
        span = A.BoundedSpan(pres, 2, provenance=combination, targets=(p,))
        assert [b.rows for b in span._blocks.values()] == [block] == [5]
        cert = ideal_membership_bounded(p, pres, 2, want_combination=combination)
        full = A.BoundedSpan(pres, 2, provenance=combination)
        assert full.descriptor()["relation_rows"] == 32
        assert cert.status == A.PROVED_ZERO
        assert cert == span.certify(p) == full.certify(p)


def test_restricted_membership_evidence_equals_the_full_span():
    """Regularization's added relations: one-shot membership (charge blocks
    only) gives the full span's verdict and combination, which replays."""
    sample = [p for p in P.enumerate_pairs(3) if not P.is_regular(p).is_regular]
    pairs = [p for n in (1, 2) for p in P.enumerate_pairs(n) if not P.is_regular(p).is_regular]
    pairs += random.Random(3).sample(sample, 8)
    proved = 0
    for pair in pairs:
        base = P.sphere_presentation(pair)
        base_keys = {r.keys[0] for r in base.all_relations()}
        full = A.BoundedSpan(base, V.REGULARIZATION_BOUND, provenance=True)
        for rel in P.sphere_presentation(P.regularize(pair)).all_relations():
            if rel.keys[0] in base_keys:
                continue
            cert = ideal_membership_bounded(rel.poly, base, V.REGULARIZATION_BOUND)
            assert cert == full.certify(rel.poly), (pair.compact(), rel.rid)
            if cert.status == A.PROVED_ZERO:
                proved += 1
                assert replay_combination(rel.poly, base, cert.zero_evidence)
    assert proved > 10


def test_restricted_rows_are_kept_per_charge_set_and_bound(monkeypatch):
    """Each build after the first reads rows an earlier build made for one of
    its relations: under another charge set at the same bound, or under the
    same charge set at another bound.  Every build has the pivots and
    combinations of one on a fresh table, and of the full span."""
    target_sets = [(x1 * x2, x1 * x2.star() * x1), (x1 * x2.star(), x2, x1.star() * x1 + x2 * x2)]
    builds = [(3, target_sets[0]), (3, target_sets[1]), (4, target_sets[1]), (4, target_sets[0])]
    for pair in P.enumerate_pairs(2):
        pres = P.sphere_presentation(pair)
        monkeypatch.setattr(A, "_CODES", {})
        spans = [A.BoundedSpan(pres, bound, provenance=True, targets=targets) for bound, targets in builds]
        # the table holds rows for four (charge set, bound) pairs
        assert len({key[0::2] for key in A._roster_codes(pres.generators).row_table}) == 4
        for (bound, targets), span in zip(builds, spans):
            monkeypatch.setattr(A, "_CODES", {})
            fresh = A.BoundedSpan(pres, bound, provenance=True, targets=targets)
            assert _block_tables(span) == _block_tables(fresh), (pair.compact(), bound)
            full = A.BoundedSpan(pres, bound, provenance=True)
            built = {A._roster_codes(pres.generators).charge(w) for p in targets for w in p.terms}
            assert _block_tables(span) == _built_blocks(full, built)


# ---------------------------------------------------------------------------
# shared blocks
# ---------------------------------------------------------------------------

def test_unitaries_differing_in_one_relation_share_every_other_block(monkeypatch):
    """Two unitary presentations that differ in one relation of one charge,
    scaled or dropped, share every block but that charge's; equal keys give
    one block, whose residue cache every span with it reads."""
    monkeypatch.setattr(A, "_BLOCKS", {})
    pres = P.unitary_qg_presentation(P.validate_pair(ZERO2, OFF2))
    codes = A._roster_codes(pres.generators)
    sums = pres.sums
    # a relation that is its own star, so that editing it changes one charge only
    k, rel = next((k, r) for k, r in enumerate(sums) if len(r.star_closed) == 1)
    charge = codes.charge(next(iter(rel.poly.terms)))
    span = build_quotient_basis(pres, 2)
    assert len(A._BLOCKS) == len(span._blocks) > 1
    w = (Letter("u", 1, 1), Letter("u", 2, 1, True))
    res = _residue_word(span, w)
    again = build_quotient_basis(pres, 2)
    assert set(again._blocks) == set(span._blocks)
    assert all(again._blocks[c] is b for c, b in span._blocks.items())
    assert again._blocks[codes.charge(w)].residues[codes.code(w)] is res
    assert _residue_word(again, w) is res == _residue_word(A.BoundedSpan(pres, 2, provenance=True), w)
    for edit, rows in ((P.Relation(rel.rid, rel.poly.scale(2)), 0), (None, -1)):
        relations = sums[:k] + ((edit,) if edit else ()) + sums[k + 1:]
        edited = pres._replace(families=pres.families[:-1] + (P.RelationFamily(relations),))
        before = len(A._BLOCKS)
        other = build_quotient_basis(edited, 2)
        assert len(A._BLOCKS) == before + 1
        assert set(other._blocks) == set(span._blocks)
        assert {c for c, b in span._blocks.items() if other._blocks[c] is not b} == {charge}
        assert (other.descriptor()["relation_rows"] - span.descriptor()["relation_rows"]) == rows


def test_targeted_provenance_and_low_degree_builds_keep_private_blocks(monkeypatch):
    """Only a full build without provenance whose relations all have the
    bound's degree reads or fills the block table."""
    monkeypatch.setattr(A, "_BLOCKS", {})
    pres = P.unitary_qg_presentation(P.validate_pair(ZERO2, OFF2))
    low = P.RelationFamily(pres.families[0].relations + (P.Relation("low", u(1, 1)),))
    edited = pres._replace(families=(low,) + pres.families[1:])
    for bound, kwargs, over in ((2, {"targets": (u(1, 1) * u(2, 1, True),)}, pres),
                                (2, {"provenance": True}, pres), (3, {}, pres), (2, {}, edited)):
        assert A.BoundedSpan(over, bound, **kwargs).rank > 0
        assert A._BLOCKS == {}, (bound, kwargs, over is pres)
    shared = build_quotient_basis(pres, 2)
    assert len(A._BLOCKS) == len(shared._blocks)
    private = A.BoundedSpan(pres, 2, provenance=True)
    assert set(private._blocks) == set(shared._blocks)
    assert not any(b is shared._blocks[c] for c, b in private._blocks.items())


def test_a_build_stopped_inside_a_block_shares_no_part_of_it(monkeypatch):
    """A shared build stopped inside a block (by the entry cap, or by any
    error), here while it makes the block's second class link, stores only
    the blocks it finished, so the next build over the same relations takes
    every row."""
    monkeypatch.setattr(A, "_BLOCKS", {})
    pres = P.unitary_qg_presentation(P.validate_pair(ZERO2, ZERO2))
    # private blocks with the shared build's rows
    whole = A.BoundedSpan(pres, 2, provenance=True)
    made = []

    class Stopping(dict):
        def __setitem__(self, key, value):
            if self:
                raise A.DimensionCap("stopped inside a block's classes")
            super().__setitem__(key, value)

    class StoppingBlock(A._Block):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            self.links = Stopping()
            made.append(self)
    with monkeypatch.context() as m:
        m.setattr(A, "_Block", StoppingBlock)
        with pytest.raises(A.DimensionCap):
            build_quotient_basis(pres, 2)
    # the first block has no class; the second stopped after its first link
    assert len(made) == 2 and len(made[-1].links) == 1
    assert list(A._BLOCKS.values()) == made[:1]
    span = build_quotient_basis(pres, 2)
    assert {c: b.rows for c, b in span._blocks.items()} == {c: b.rows for c, b in whole._blocks.items()}
    assert span.descriptor() == whole.descriptor()


def _sweep_passes(runs, empty_blocks, monkeypatch) -> list:
    """Each task's report over a cold and a warm pass with one fresh orbit
    table; with empty_blocks, each task starts from an emptied block table."""
    orbits, out = {}, []
    for _ in range(2):
        for run, pair, bound in runs:
            if empty_blocks:
                monkeypatch.setattr(A, "_BLOCKS", {})
            out.append(run(pair, bound, orbits).to_json_dict(include_timings=False))
    return out


def test_shared_blocks_change_no_sweep_report(monkeypatch):
    """A whole shuffled n = 3 sweep, cold pass and warm pass, against a warm
    block table gives every task the report it gets against an emptied one."""
    tasks = cli.sweep_tasks(3, cli.SWEEP_TARGETS, cli.RunConfig())
    random.Random(38).shuffle(tasks)
    runs = [(cli._TARGETS[target].run, P.pair_from_json_dict(d), bound) for target, d, bound in tasks]
    monkeypatch.setattr(A, "_BLOCKS", {})
    orbits = {}
    for run, pair, bound in runs:
        run(pair, bound, orbits)
    # the 12,198 blocks that the 234 cold span builds take are these distinct ones
    blocks = dict(A._BLOCKS)
    assert len(blocks) == 351
    shared = _sweep_passes(runs, False, monkeypatch)
    assert A._BLOCKS == blocks and all(A._BLOCKS[key] is b for key, b in blocks.items())
    assert shared == _sweep_passes(runs, True, monkeypatch)
