"""Fuzzed replay checks: every certificate must replay bit-exactly."""

import random
from fractions import Fraction

import numpy as np

import witness_models as W
from ncstar import ncalg as A
from ncstar import presentations as P
from ncstar import repmodels as R
from ncstar.ncalg import (Poly, TensorPoly, build_quotient_basis,
                          ideal_membership_bounded, is_zero_tensor,
                          replay_combination)

def _letters(pres):
    out = list(pres.generators)
    if pres.generators[0].tag not in A.HERMITIAN_TAGS:
        out += [g.star() for g in pres.generators]
    return out


def test_membership_evidence_replay_fuzz_bounded_products():
    rng = random.Random(403)
    pair = P.validate_pair([[0, 1], [1, 0]], [[0, 0], [0, 0]])
    pres = P.sphere_presentation(pair)
    letters = _letters(pres)
    rels = pres.all_relations()
    for bound in (3, 4):
        for _ in range(6):
            # a genuine member: words times relations times words
            p = Poly.zero()
            for _ in range(rng.randint(1, 2)):
                m1 = tuple(rng.choice(letters) for _ in range(rng.randint(0, bound - 2)))
                rest = bound - 2 - len(m1)
                m2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, rest)))
                rel = rng.choice(rels)
                c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                p = p + (Poly.from_word(m1) * rel.poly * Poly.from_word(m2)).scale(c)
            cert = ideal_membership_bounded(p, pres, bound)
            assert cert.status == "ProvedZero"
            assert replay_combination(p, pres, cert.zero_evidence)


def test_tensor_zero_soundness_fuzz():
    """Tensors assembled from relation-times-word terms must certify zero AND
    evaluate to zero in pairs of witness models."""
    rng = random.Random(404)
    pair = P.validate_pair([[0, 0], [0, 0]], [[0, 1], [1, 0]])
    qg = P.unitary_qg_presentation(pair)
    sph = P.sphere_presentation(pair)
    left = build_quotient_basis(qg, 2)
    right = build_quotient_basis(sph, 2)
    qg_letters = _letters(qg)
    sph_letters = _letters(sph)
    qg_model = W.diagonal_unitary_model(pair, seed=1)
    sph_model = W.diagonal_sphere_model(pair, seed=1)

    def tensor_eval_norm(terms):
        total = np.zeros((qg_model.dim * sph_model.dim,) * 2, dtype=complex)
        for (wl, wr), c in terms.items():
            ml = R.evaluate(Poly.from_word(wl), qg_model)
            mr = R.evaluate(Poly.from_word(wr), sph_model)
            total += complex(c) * np.kron(ml, mr)
        return float(np.linalg.norm(total, 2))

    for _ in range(20):
        terms = {}  # (left word, right word) -> coefficient
        for _ in range(rng.randint(1, 3)):
            side = rng.random() < 0.5
            if side:
                rel = rng.choice(qg.all_relations()).poly
                w = tuple(rng.choice(sph_letters) for _ in range(rng.randint(0, 2)))
                legs = (rel, Poly.from_word(w))
            else:
                rel = rng.choice(sph.all_relations()).poly
                w = tuple(rng.choice(qg_letters) for _ in range(rng.randint(0, 2)))
                legs = (Poly.from_word(w), rel)
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            for wl, cl in legs[0].items():
                for wr, cr in legs[1].items():
                    terms[wl, wr] = terms.get((wl, wr), 0) + c * cl * cr
        t = TensorPoly(terms, left_roster=qg.generators, right_roster=sph.generators)
        cert = is_zero_tensor(t, left, right)
        assert cert.status == "ProvedZero"
        assert tensor_eval_norm(terms) < 1e-9


def test_noninjectivity_guard_fuzz():
    from ncstar.verifier import verify_noninjectivity_example
    zero3 = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for eps, eta in [
        ([[0, 0], [0, 0]], [[1, 1], [1, 1]]),                 # all normal: no free column
        ([[0, 0], [0, 0]], [[0, 0], [0, 0]]),                 # no star-commutation at all
        (zero3, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]),           # wrong size
    ]:
        report = verify_noninjectivity_example(P.validate_pair(eps, eta))
        assert report.checks[0].certificate.status == "Inconclusive"
        assert not report.passed
