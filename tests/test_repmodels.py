"""Matrix models: exact residuals, witness values, independence ranks."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import witness_models as W
from ncstar import repmodels as R
from ncstar import presentations as P
from ncstar import verifier as V
from ncstar.verifier import RESIDUAL_TOLERANCE, SVD_THRESHOLD
from ncstar.ncalg import INCONCLUSIVE, Letter, Poly
from ncstar.scalars import Q_ONE, QuadExact

x1g, x2g = Letter("x", 1, 0), Letter("x", 2, 0)
g = Poly.generator


def E(i, j, dim=4):
    m = np.zeros((dim, dim), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return m


# ---------------------------------------------------------------------------
# the probe pair
# ---------------------------------------------------------------------------

def test_probe_pair_model_products_match_direct_matrix_oracle():
    m = R.probe_pair_model()
    # independent oracle: raw numpy arithmetic on the fixed matrices
    c = np.sqrt(0.5)
    a = E(3, 1) + c * E(4, 4)
    b = E(2, 1) + E(3, 2) + c * E(4, 4)
    assert np.array_equal(R.evaluate(g(x1g), m), a)
    assert np.array_equal(R.evaluate(g(x2g), m), b)
    assert np.allclose(a @ b, b @ a)
    assert np.allclose(a @ b, np.diag([0, 0, 0, 0.5]))
    assert abs(np.linalg.norm(a @ b, 2) - 0.5) < 1e-12
    diff = a @ b.conj().T - b.conj().T @ a
    assert np.allclose(diff, E(3, 2) - E(2, 1))
    # the exact backing evaluates the product to a bit-exact half
    prod = R.evaluate(g(x1g) * g(x2g), m)
    assert prod[3, 3] == 0.5
    assert np.linalg.norm(prod, 2) == 0.5


def test_probe_pair_model_probe_state_and_anomaly():
    m = R.probe_pair_model()
    rep = R.model_residuals(m)
    assert len([r for _, r in rep.per_relation if r > RESIDUAL_TOLERANCE]) == 2
    by_desc = dict(rep.per_relation)
    assert by_desc["Σ x_i* x_i = 1"] == 1.0
    assert by_desc["Σ x_i x_i* = 1"] == 1.0
    # the commutator holds exactly
    assert by_desc["-x2.x1 + x1.x2 = 0"] == 0.0
    # oracle for the anomaly value: a*a + b*b - 1 = diag(1, 0, -1, 0)
    a = R.evaluate(g(x1g), m)
    b = R.evaluate(g(x2g), m)
    anomaly = a.conj().T @ a + b.conj().T @ b - np.eye(4)
    assert np.allclose(anomaly, np.diag([1, 0, -1, 0]))


def test_probe_products_independent():
    m = R.probe_pair_model()
    gate = [r for r in m.presentation.relations if r.rid.startswith("eps")]
    fam = [g(x1g).star() * g(x2g), g(x1g) * g(x2g).star(),
           g(x2g).star() * g(x1g), g(x2g) * g(x1g).star()]
    assert R.model_residuals(m, gate).max <= RESIDUAL_TOLERANCE
    res = R.check_independence(fam, m, SVD_THRESHOLD)
    assert res.rank == 4
    # images are e12, e32, e21, e23 each plus the 1/2 corner
    imgs = [R.evaluate(p, m) for p in fam]
    assert np.allclose(imgs[0], E(1, 2) + 0.5 * E(4, 4))
    assert np.allclose(imgs[1], E(3, 2) + 0.5 * E(4, 4))
    assert np.allclose(imgs[2], E(2, 1) + 0.5 * E(4, 4))
    assert np.allclose(imgs[3], E(2, 3) + 0.5 * E(4, 4))


def test_unit_vs_squares_rank_three():
    m = R.probe_pair_model()
    gate = [r for r in m.presentation.relations if r.rid.startswith("eps")]
    fam = [g(x2g).star() * g(x2g), g(x2g) * g(x2g).star(), Poly.one()]
    assert R.model_residuals(m, gate).max <= RESIDUAL_TOLERANCE
    assert R.check_independence(fam, m, SVD_THRESHOLD).rank == 3


def test_probe_model_barred_from_full_gate(monkeypatch):
    # the normalization sums hold in the probe model only up to norm 1
    assert R.model_residuals(R.probe_pair_model()).max > RESIDUAL_TOLERANCE
    # so a suite gating it on every relation is Inconclusive, whatever its rank
    monkeypatch.setitem(V.INDEPENDENCE_SUITES, "probe-products",
                        lambda R, seed, dim, samples: (R.probe_pair_model(),
                                                       R.CONJUGATE_PRODUCTS, ""))
    report = V.verify_independence_suite("probe-products")
    cert = report.checks[0].certificate
    assert cert.status == INCONCLUSIVE and not report.passed
    assert cert.nonzero_evidence["rank"] == 4
    assert cert.detail.startswith("model 'probe-4x4' violates gated relation")
    assert cert.detail.endswith("with residual 1")


# ---------------------------------------------------------------------------
# the valid non-injectivity witness
# ---------------------------------------------------------------------------

def test_noninjectivity_model_is_exact_witness():
    m = R.noninjectivity_sphere_model()
    assert R.model_residuals(m).max == 0.0
    image = R.evaluate(g(x1g) * g(x2g).star(), m)
    assert image[3, 3] == 0.5  # bit-exact
    assert np.count_nonzero(image) == 1


# ---------------------------------------------------------------------------
# torus model
# ---------------------------------------------------------------------------

def test_torus_default_samples():
    m = R.torus_model()
    assert R.model_residuals(m).max == 0.0
    v1 = np.diag(R.evaluate(g(x1g).star() * g(x2g), m))
    v2 = np.diag(R.evaluate(g(x1g) * g(x2g).star(), m))
    assert np.allclose(v1, [0.5, 0.5j])
    assert np.allclose(v2, [0.5, -0.5j])
    fam = [g(x1g).star() * g(x2g), g(x1g) * g(x2g).star()]
    assert R.check_independence(fam, m, SVD_THRESHOLD).rank == 2


def test_torus_degenerate_cases():
    # one sample, or two equal ones, cannot separate the two products
    for samples in ([(1, 1)], [(1, 1), (1, 1)]):
        m = R.torus_model(samples)
        assert R.model_residuals(m).max == 0.0
        assert R.check_independence(R.CONJUGATE_PRODUCTS[:2], m, SVD_THRESHOLD).rank == 1



def test_torus_float_phases():
    z = np.exp(0.3j)
    m = R.torus_model([(1, 1), (1, z)])
    assert R.model_residuals(m).max < 1e-12


# ---------------------------------------------------------------------------
# free unitary model
# ---------------------------------------------------------------------------

def test_free_unitary_default():
    m = R.free_unitary_model(4, 0)
    assert R.model_residuals(m).max <= 1e-12
    fam = [g(x1g).star() * g(x2g), g(x1g) * g(x2g).star(),
           g(x2g).star() * g(x1g), g(x2g) * g(x1g).star()]
    assert R.check_independence(fam, m, SVD_THRESHOLD).rank == 4


def test_free_unitary_rejects_dim_two():
    with pytest.raises(ValueError):
        R.free_unitary_model(2, 0)


def test_dim_two_products_always_dependent_oracle():
    # oracle for the precondition: in M2 the adjoint of a unitary is a linear
    # polynomial in it, so the four products never reach rank 4
    for seed in range(8):
        rng = np.random.default_rng(seed)
        us = []
        for _ in range(2):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, _ = np.linalg.qr(z)
            us.append(q)
        u1, u2 = us
        fam = [u1.conj().T @ u2, u1 @ u2.conj().T, u2.conj().T @ u1, u2 @ u1.conj().T]
        sv = np.linalg.svd(np.array([f.reshape(-1) for f in fam]), compute_uv=False)
        assert sv[-1] < 1e-10


def test_free_unitary_deterministic():
    m1 = R.free_unitary_model(4, 3)
    m2 = R.free_unitary_model(4, 3)
    assert all(np.array_equal(m1.assignment[k], m2.assignment[k]) for k in m1.assignment)
    assert m1.seed_used == m2.seed_used


# ---------------------------------------------------------------------------
# o2plus model
# ---------------------------------------------------------------------------

def test_o2plus_exact_orthogonality():
    m = R.o2plus_model()
    rep = R.model_residuals(m)
    assert rep.max == 0.0
    assert all(r == 0.0 for _, r in rep.per_relation)


def test_o2plus_product_difference():
    m = R.o2plus_model()
    v11 = g(Letter("ou", 1, 1))
    v21 = g(Letter("ou", 2, 1))
    diff = R.evaluate(v11 * v21 - v21 * v11, m)
    # scalar block cancels, anticommuting block leaves 2AB = e12 - e21
    assert diff[0, 0] == 0
    assert np.allclose(diff[1:, 1:], np.array([[0, 1], [-1, 0]]))
    assert R.check_independence([v11 * v21, v21 * v11], m, SVD_THRESHOLD).rank == 2


# ---------------------------------------------------------------------------
# point models
# ---------------------------------------------------------------------------

def test_point_model_sphere_values():
    m = W.point_model_sphere(2, 3)
    total = Poly.zero()
    for i in (1, 2, 3):
        xi = g(Letter("x", i, 0))
        total = total + xi.star() * xi
    assert R.evaluate(total, m) == np.array([[1.0 + 0j]])
    assert R.model_residuals(m).max == 0.0


def test_point_model_commutators_vanish():
    pair = P.validate_pair([[0, 1, 0], [1, 0, 0], [0, 0, 0]],
                           [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    m = W.point_model_sphere(2, 3, pair)
    comm = g(Letter("x", 1, 0)) * g(Letter("x", 2, 0)) - g(Letter("x", 2, 0)) * g(Letter("x", 1, 0))
    assert np.all(R.evaluate(comm, m) == 0)
    assert R.model_residuals(m).max == 0.0


# ---------------------------------------------------------------------------
# evaluation semantics
# ---------------------------------------------------------------------------

def test_evaluate_unit_is_identity():
    m = R.probe_pair_model()
    assert np.array_equal(R.evaluate(Poly.one(), m), np.eye(4, dtype=complex))


def test_evaluate_homomorphism_property():
    rng = np.random.default_rng(5)
    m = R.free_unitary_model(4, 1)
    letters = [Letter("x", i, 0, s) for i in (1, 2) for s in (False, True)]
    for _ in range(25):
        def rand_poly():
            terms = {}
            for _ in range(rng.integers(1, 4)):
                w = tuple(letters[rng.integers(len(letters))] for _ in range(rng.integers(0, 3)))
                terms[w] = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            return Poly(terms)
        p, q = rand_poly(), rand_poly()
        lhs = R.evaluate(p * q, m)
        rhs = R.evaluate(p, m) @ R.evaluate(q, m)
        assert np.linalg.norm(lhs - rhs) < 1e-12
        assert np.linalg.norm(R.evaluate(p.star(), m) - R.evaluate(p, m).conj().T) < 1e-12


def test_evaluate_unassigned_generator():
    m = R.probe_pair_model()
    with pytest.raises(KeyError, match="assigns nothing to x3"):
        R.evaluate(g(Letter("x", 3, 0)), m)


def test_check_independence_empty_family():
    with pytest.raises(ValueError):
        R.check_independence([], R.probe_pair_model(), SVD_THRESHOLD)


# ---------------------------------------------------------------------------
# cross-validation witness registry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["sphere", "unitary", "orthogonal", "tuple"])
def test_witness_models_are_valid(kind):
    pair = P.validate_pair([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    if kind == "sphere":
        pres = P.sphere_presentation(pair)
    elif kind == "unitary":
        pres = P.unitary_qg_presentation(pair)
    elif kind == "orthogonal":
        pres = P.orthogonal_qg_presentation([[0, 1], [1, 0]])
    else:
        pres = P.tuple_space_presentation([[0, 1], [1, 0]])
    for model in W.witness_models_for(pres):
        assert R.model_residuals(model, pres.all_relations()).max <= 1e-9, model.label


# ---------------------------------------------------------------------------
# sparse exact evaluation
# ---------------------------------------------------------------------------

_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# mostly exact zeros, like the witness matrices
_entry = st.one_of(st.just(QuadExact()), st.just(QuadExact()), st.just(QuadExact()),
                   st.builds(QuadExact, _small, _small, _small, _small))


def _matrix(rows, cols):
    return st.lists(st.lists(_entry, min_size=cols, max_size=cols).map(tuple),
                    min_size=rows, max_size=rows).map(tuple)


def _rows(a):
    """Sparse rows of a dense exact matrix, the form the models store."""
    return [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in a]


def _dense(rows, width):
    return tuple(tuple(row.get(j, QuadExact()) for j in range(width)) for row in rows)


def _dense_matmul(a, b):
    """Reference: every entry multiplied, zeros included."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = QuadExact()
            for t in range(len(b)):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _identity(dim):
    return tuple(tuple(Q_ONE if i == j else QuadExact() for j in range(dim)) for i in range(dim))


def _zero(dim):
    return tuple(tuple(QuadExact() for _ in range(dim)) for _ in range(dim))


@st.composite
def _matrix_pairs(draw):
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(_matrix(n, k)), draw(_matrix(k, m))


@settings(max_examples=150, deadline=None)
@given(_matrix_pairs())
@example((_zero(3), _zero(3)))
@example(((((QuadExact(0, Fraction(1, 2)),),), ((QuadExact(0, Fraction(1, 2)),),))))
@example((_identity(4), _identity(4)))
@example((_identity(2), ((QuadExact(1, 2, 3, 4), QuadExact()), (QuadExact(), QuadExact(0, 0, -1)))))
# a nonzero product far below any float tolerance must be kept
@example((((QuadExact(Fraction(1, 10**9)),),), ((QuadExact(Fraction(1, 10**9)),),)))
def test_sparse_exact_matmul_equals_dense_product(ab):
    a, b = ab
    product = R._exact_matmul(_rows(a), _rows(b))
    assert product == _rows(_dense_matmul(a, b))


@st.composite
def _exact_models_and_polys(draw):
    dim = draw(st.integers(1, 4))
    exact = {x1g: draw(_matrix(dim, dim)), x2g: draw(_matrix(dim, dim))}
    letters = [Letter("x", i, 0, s) for i in (1, 2) for s in (False, True)]
    words = st.lists(st.sampled_from(letters), max_size=3).map(tuple)
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)).filter(bool)
    terms = draw(st.dictionaries(words, coeffs, min_size=1, max_size=4))
    return exact, Poly(terms)


def _dense_evaluate(p, exact, dim):
    """Reference: each word from the identity, dense products and sums."""
    acc = _zero(dim)
    for w, c in p.items():
        term = _identity(dim)
        for letter in w:
            m = exact[letter.base()]
            if letter.starred:
                m = tuple(tuple(m[j][i].conjugate() for j in range(dim)) for i in range(dim))
            term = _dense_matmul(term, m)
        qc = QuadExact(c)
        acc = tuple(tuple(acc[i][j] + qc * term[i][j] for j in range(dim)) for i in range(dim))
    return acc


@settings(max_examples=100, deadline=None)
@given(_exact_models_and_polys())
def test_sparse_exact_evaluate_equals_dense_reference(case):
    exact, p = case
    dim = len(exact[x1g])
    pres = P.sphere_presentation(P.validate_pair([[0, 0], [0, 0]], [[0, 0], [0, 0]]))
    model = R.MatrixModel(pres, dim, {g: _rows(m) for g, m in exact.items()}, True)
    want = _dense_evaluate(p, exact, dim)
    assert _dense(R._exact_evaluate(p, model), dim) == want
    assert np.array_equal(R.evaluate(p, model), np.array([[complex(x) for x in row] for row in want]))


def test_exactly_vanishing_relations_report_zero():
    # x_i = (sqrt2/2) diag(z_i): the normalization sums vanish exactly, but
    # the same relations in double precision leave a rounding residue
    m = R.torus_model(((1, 1), (1, 1j), (-1, -1j)))
    rep = R.model_residuals(m)
    assert rep.max == 0.0
    assert all(r == 0.0 for _, r in rep.per_relation)
    floats = R.model_residuals(
        R.MatrixModel(m.presentation, m.dim, {x: R.evaluate(g(x), m) for x in m.assignment}))
    assert 0.0 < floats.max < 1e-12
    # a relation that vanishes only by cancellation between its terms
    sq = g(x1g).star() * g(x1g) + g(x2g).star() * g(x2g) - Poly.one()
    assert all(x.is_zero() for row in R._exact_evaluate(sq, m) for x in row.values())
    # a relation that does not vanish keeps a nonzero exact image and residual
    probe = R.probe_pair_model()
    assert dict(R.model_residuals(probe).per_relation)["Σ x_i* x_i = 1"] == 1.0
