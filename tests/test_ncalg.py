"""Word algebra, quotient bases, tensor reduction, ideal membership."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import span_reference
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


def tensor(p, q, roster=()):
    """p (x) q, with both legs over one roster."""
    terms = {(w1, w2): c1 * c2 for w1, c1 in p.items() for w2, c2 in q.items()}
    return TensorPoly(terms, left_roster=roster, right_roster=roster)


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
    t = _coproduct(2)[1][Letter("u", 1, 1)]
    expected = {
        ((Letter("u", 1, 1),), (Letter("u", 1, 1),)): 1,
        ((Letter("u", 1, 2),), (Letter("u", 2, 1),)): 1,
    }
    assert t.terms == expected


def test_comultiply_generator_n1():
    t = _coproduct(1)[1][Letter("u", 1, 1)]
    assert list(t.terms) == [((Letter("u", 1, 1),), (Letter("u", 1, 1),))]


def test_coproduct_of_degree_two_word_has_n_squared_terms():
    n = 3
    roster, images = _coproduct(n)
    p = u(1, 2, True) * u(2, 3)
    t = A.apply_tensor_hom(p, images, roster, roster)
    assert len(t.terms) == n * n
    # spot-check one term: u_1r* u_2p (x) u_r2* u_p3
    key = ((Letter("u", 1, 1, True), Letter("u", 2, 2)),
           (Letter("u", 1, 2, True), Letter("u", 2, 3)))
    assert key in t.terms


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
            img = images[l.base()].terms
            term = _ref_mul(term, _ref_star(img) if l.starred else img)
        out = _ref_add(out, term)
    return out


HOM_ROSTER = (Letter("x", 1, 0), Letter("x", 2, 0))
HOM_LETTERS = [g.star() if s else g for g in HOM_ROSTER for s in (False, True)]


@st.composite
def random_images(draw):
    """An image for each roster letter, with nonzero Fraction coefficients."""
    images = {}
    for g in HOM_ROSTER:
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            legs = tuple(tuple(draw(st.sampled_from(HOM_LETTERS)) for _ in range(draw(st.integers(0, 2))))
                         for _ in range(2))
            terms[legs] = Fraction(draw(st.sampled_from([-2, -1, 1, 2])), draw(st.integers(1, 2)))
        images[g] = TensorPoly(terms, left_roster=HOM_ROSTER, right_roster=HOM_ROSTER)
    return images


@given(random_images(), random_polys(HOM_LETTERS, max_degree=3, max_terms=3),
       random_polys(HOM_LETTERS, max_degree=3, max_terms=3))
@settings(max_examples=60, deadline=None)
def test_apply_tensor_hom_is_a_star_homomorphism(images, p, q):
    def hom(r):
        return A.apply_tensor_hom(r, images, HOM_ROSTER, HOM_ROSTER).terms

    assert hom(p) == _ref_hom(p, images)
    assert hom(p * q) == _ref_mul(hom(p), hom(q))
    assert hom(p.star()) == _ref_star(hom(p))
    assert hom(p + q) == _ref_add(hom(p), hom(q))


def test_apply_tensor_hom_needs_every_image_on_its_rosters():
    p = x1 * x2.star()
    image = tensor(x1, x2, HOM_ROSTER)
    with pytest.raises(A.RosterMismatch, match="no image assigned for generator x2"):
        A.apply_tensor_hom(p, {HOM_ROSTER[0]: image}, HOM_ROSTER, HOM_ROSTER)
    other = tensor(x1, x2, HOM_ROSTER[:1])
    with pytest.raises(A.RosterMismatch):
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


def test_word_with_foreign_letter_raises_roster_mismatch():
    pres = P.sphere_presentation(P.validate_pair(ZERO2, ZERO2))
    span = build_quotient_basis(pres, 2)
    y = Letter("y", 1, 0)
    w = (Letter("x", 1, 0), y)
    foreign = "letter y1 is not in the span's roster"
    with pytest.raises(A.RosterMismatch, match=foreign):
        span.residue_word(w)
    p = pres.all_relations()[0].poly + Poly.from_word(w, 2)
    with pytest.raises(A.RosterMismatch, match=foreign):
        span.certify(p)
    with pytest.raises(A.RosterMismatch, match=foreign):
        ideal_membership_bounded(p, pres, 2)
    # a tensor built with no rosters passes the roster checks and fails on the letter
    t = TensorPoly({((y,), ()): Fraction(1, 2)})
    with pytest.raises(A.RosterMismatch, match=foreign):
        is_zero_tensor(t, span, span)


def test_raw_constructors_refuse_inexact_coefficients():
    w = (Letter("x", 1, 0), Letter("x", 2, 0))
    for bad in (-0.5, 1j):
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            Poly({w: 1, w[::-1]: bad})
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        TensorPoly({(w, ()): 0.5})
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
    residue = span.residue_word((Letter("u", 1, 2), Letter("u", 1, 2, True)))
    assert any(c.denominator == 2 for _, c in residue)
    c1, c2 = scales
    terms = {}
    for p, q, c in ((u(1, 2) * u(1, 2, True), u(1, 3), c1), (u(1, 1) * u(1, 1, True), u(1, 3), c2),
                    (u(2, 3), u(3, 2, True) * u(1, 1), c2)):
        terms.update(tensor(p.scale(c), q).terms)
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
