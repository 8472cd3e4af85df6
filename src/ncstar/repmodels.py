"""Finite-dimensional matrix models used as nonvanishing and independence witnesses.

A model assigns a matrix to every generator of a presentation; words
evaluate to matrix products and stars to conjugate transposes.  Every model
is exact over Q(sqrt(2), i): the hand-built ones, the torus on phases
exactly on the unit circle, and the free-unitary model, whose two seeded
unitaries are Cayley transforms U = (I - S)(I + S)^-1 of skew-Hermitian S
with small Gaussian-integer entries, exactly unitary over Q(i).  A model
holds each matrix once.

Matrices are sparse rows: one {column: QuadExact} dict per row, exact zeros
never stored.  Products and sums run over each row's nonzero entries only,
and a word's product starts from its first letter's matrix.  An entry is
skipped only when it is exactly zero (`QuadExact.is_zero`), never by a
float tolerance, so every result equals the dense product.

A model is judged exactly.  `model_residuals` names every relation whose
image is not exactly zero, and a gate fails on any of them
(`ResidualReport.violations`).  `check_independence` ranks a family by
elimination over Q(sqrt(2), i) and names a nonzero minor of that size: the
family members and the matrix entries (row, col) it takes.  Floats appear
only as evidence: a residual's or an image's largest entry modulus
(`operator_norm`), which no verdict reads.

This module is imported only by the commands that evaluate a model
(`witness` and `verify noninjectivity`), and it imports no numpy.

A model may be a *probe*: it fails some presentation relations on purpose.
A run gates each model on only the relations its claim rests on, so a probe
model is barred from any claim that depends on the relations it violates
but remains usable for the pure commutation and independence computations
it was written down for.

A builder checks neither residuals nor rank.  The run that uses a model
judges both, so a degenerate sample set shows up there as a rank shortfall.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .ncalg import Letter, Poly, word_str
from .presentations import (Presentation, orthogonal_qg_presentation,
                            sphere_presentation, validate_pair)
from .scalars import GaussianRational, Q_ONE, QuadExact, Q_SQRT2_OVER_2, QuadExact as Q

__all__ = [
    "MatrixModel", "ResidualReport", "IndependenceResult",
    "probe_pair_model", "noninjectivity_sphere_model",
    "torus_model", "phase_text", "free_unitary_model", "o2plus_model", "CONJUGATE_PRODUCTS",
    "model_residuals", "evaluate", "operator_norm", "check_independence",
]


class MatrixModel(NamedTuple):
    """Assignment of dim x dim exact matrices to a presentation's generators."""

    presentation: Presentation
    dim: int
    # Letter (unstarred) -> sparse rows of QuadExact
    assignment: dict
    label: str = ""
    seed_used: Optional[int] = None

    def matrix(self, letter: Letter) -> list:
        """The letter's sparse rows, starred if the letter is."""
        base = letter.base()
        m = self.assignment.get(base)
        if m is None:
            raise KeyError(f"model {self.label!r} assigns nothing to {word_str((base,))}")
        return _exact_star(m) if letter.starred else m


class ResidualReport(NamedTuple):
    per_relation: tuple  # ((description, residual), ...)
    max: float
    # the rows whose image is not exactly zero, each with one nonzero entry,
    # the first found row by row: ((description, residual, (row, col)), ...)
    nonzero: tuple

    def violations(self) -> tuple:
        """The rows that fail a gate: every relation whose image is nonzero,
        however small its float residual (an entry of 1e-400 reads 0.0)."""
        return self.nonzero


class IndependenceResult(NamedTuple):
    rank: int
    # a nonzero rank x rank minor: the family members (indices into the
    # family) and the matrix entries (row, col) it takes
    minor: tuple


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _exact_matmul(a: list, b: list) -> list:
    """Product of two sparse-row matrices; only nonzero entries are ever multiplied."""
    out = []
    for row in a:
        acc = {}
        for t, x in row.items():
            for j, y in b[t].items():
                acc[j] = acc[j] + x * y if j in acc else x * y
        out.append({j: v for j, v in acc.items() if not v.is_zero()})
    return out


def _exact_star(rows: list) -> list:
    """Conjugate transpose of a square sparse-row matrix."""
    out = [{} for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x.conjugate()
    return out


def operator_norm(rows: list) -> float:
    """The largest entry modulus of sparse rows, 0.0 if every entry is exactly zero.

    On a zero or monomial matrix (at most one nonzero entry in every row and
    every column), as every residual and image a default report prints is,
    that is the 2-norm; on any other it is a lower bound of the 2-norm.  An
    exact gate fails on any nonzero entry, so the value is only ever
    evidence.
    """
    return max((abs(complex(x)) for row in rows for x in row.values() if not x.is_zero()),
               default=0.0)


def evaluate(p: Poly, model: MatrixModel) -> list:
    """Sparse rows of the image of p over Q(sqrt(2), i); words become matrix
    products, and an entry may be an exact zero left by cancellation
    between terms."""
    acc = [{} for _ in range(model.dim)]
    for w, c in p.items():
        term = None
        for letter in w:
            m = model.matrix(letter)
            term = m if term is None else _exact_matmul(term, m)
        if term is None:
            term = [{i: Q_ONE} for i in range(model.dim)]
        qc = QuadExact(c)
        for row, out in zip(term, acc):
            for j, x in row.items():
                out[j] = out[j] + qc * x if j in out else qc * x
    return acc


def model_residuals(model: MatrixModel, relations: Optional[Sequence] = None) -> ResidualReport:
    """The residual (`operator_norm`) of each relation's image, by default of
    every relation of the model's presentation (expanded sums included).

    An exactly vanishing relation reports 0.0, and the report names every
    relation whose image is not exactly zero, with one nonzero entry of it,
    the first found row by row.
    """
    if relations is None:
        relations = model.presentation.all_relations()
    rows = []
    nonzero = []
    worst = 0.0
    for rel in relations:
        image = evaluate(rel.poly, model)
        row = (rel.describe(), operator_norm(image))
        entry = next(((i, j) for i, entries in enumerate(image)
                      for j, x in entries.items() if not x.is_zero()), None)
        if entry is not None:
            nonzero.append(row + (entry,))
        rows.append(row)
        worst = max(worst, row[1])
    return ResidualReport(tuple(rows), worst, tuple(nonzero))


def _pivots(vectors: Sequence) -> tuple:
    """Gaussian elimination of sparse exact vectors ({index: QuadExact}), in order.

    Each vector is reduced by the pivots before it; one that stays nonzero
    becomes a pivot at its least nonzero index.  Returns the vectors that did
    (their positions) and their pivot indices.  On those vectors and indices
    the reduced vectors are triangular with a nonzero diagonal, and they
    differ from the originals by a unitriangular change of basis, so the
    original minor is nonzero and its size is the rank.
    """
    pivots = []  # (index, reduced vector scaled to 1 there)
    members = []
    for k, vector in enumerate(vectors):
        v = dict(vector)
        for col, p in pivots:
            f = v.get(col)
            if f is None or f.is_zero():
                continue
            for j, y in p.items():
                v[j] = v[j] - f * y if j in v else -(f * y)
        v = {j: x for j, x in v.items() if not x.is_zero()}
        if v:
            col = min(v)
            inv = v[col].inverse()
            pivots.append((col, {j: x * inv for j, x in v.items()}))
            members.append(k)
    return tuple(members), tuple(col for col, _ in pivots)


def check_independence(family: Sequence[Poly], model: MatrixModel) -> IndependenceResult:
    """Rank of the flattened family, by elimination over Q(sqrt(2), i).

    The result names a nonzero minor of that size.  The model's residuals
    are not checked here: a caller whose claim needs them valid checks
    `model_residuals` too.
    """
    if not family:
        raise ValueError("family must be nonempty")
    dim = model.dim
    vectors = [{i * dim + j: x for i, row in enumerate(evaluate(p, model)) for j, x in row.items()}
               for p in family]
    members, cols = _pivots(vectors)
    return IndependenceResult(len(members), (members, tuple(divmod(c, dim) for c in cols)))


# ---------------------------------------------------------------------------
# the hand-built models
# ---------------------------------------------------------------------------

_X1, _X2 = Letter("x", 1, 0), Letter("x", 2, 0)

# The witness family x1* x2, x1 x2*, x2* x1, x2 x1* of two sphere coordinates.
# The probe and free unitary models separate all four; the torus, whose
# coordinates commute, separates the first two.
CONJUGATE_PRODUCTS = tuple(Poly.from_word(w) for w in (
    (_X1.star(), _X2), (_X1, _X2.star()), (_X2.star(), _X1), (_X2, _X1.star())))


def _probe_pair_rows():
    """a = e31 + c e44 and b = e21 + e32 + c e44 with c = sqrt2/2."""
    c = Q_SQRT2_OVER_2
    return [{}, {}, {0: Q_ONE}, {3: c}], [{}, {0: Q_ONE}, {1: Q_ONE}, {3: c}]


def probe_pair_model() -> MatrixModel:
    """The explicit 4x4 probe pair: non-normal and commuting.

    Both normalization sums evaluate to matrices of operator norm exactly 1,
    while the plain commutator holds exactly.  The model is therefore a probe,
    only admitted for claims that rest on the commutation relations alone.
    """
    a, b = _probe_pair_rows()
    pair = validate_pair([[0, 1], [1, 0]], [[0, 0], [0, 0]])
    pres = sphere_presentation(pair)
    return MatrixModel(pres, 4, {_X1: a, _X2: b}, "probe-4x4")


def noninjectivity_sphere_model() -> MatrixModel:
    """Valid 4x4 witness for the sphere with eta_12 = 1 and free diagonal.

    Re-using the probe matrices with the second coordinate starred makes every
    relation of this sphere hold exactly, while x1 x2* evaluates to
    diag(0, 0, 0, 1/2).
    """
    a, b = _probe_pair_rows()
    pair = validate_pair([[0, 0], [0, 0]], [[0, 1], [1, 0]])
    pres = sphere_presentation(pair)
    # b* = e12 + e23 + c e44
    return MatrixModel(pres, 4, {_X1: a, _X2: _exact_star(b)}, "noninjectivity-4x4")


def _unit_phase(z) -> QuadExact:
    """z as an element of Q(sqrt(2), i), refused unless exactly on the unit circle.

    z is a QuadExact, an int or a Fraction, or a complex or float whose parts
    are read exactly, as the binary fractions they are: 1j passes, while the
    double nearest 0.6 + 0.8i lies just off the circle and QuadExact(3/5, 0,
    4/5) lies on it.
    """
    if isinstance(z, QuadExact):
        q = z
    elif isinstance(z, (int, Fraction)):
        q = Q(z)
    else:
        c = complex(z)
        try:
            q = Q(Fraction(c.real), 0, Fraction(c.imag))
        except (ValueError, OverflowError):  # a nan or an infinite part
            q = None
    if q is None or q * q.conjugate() != Q_ONE:
        raise ValueError(f"phase {z} is not exactly on the unit circle")
    return q


def torus_model(samples: Sequence = ((1, 1), (1, 1j))) -> MatrixModel:
    """Diagonal two-coordinate model from phase samples: x_i = (sqrt2/2) diag(z_i).

    Each phase is exact and exactly on the unit circle (`_unit_phase`), and a
    ValueError names the first that is not.  All entries commute and are
    normal, so every two-coordinate sphere relation holds exactly.  The
    conjugate products need two samples that separate them to reach rank 2;
    fewer leave a rank shortfall for the caller to report.
    """
    samples = [tuple(_unit_phase(z) for z in s) for s in samples]
    pres = sphere_presentation(validate_pair([[0, 1], [1, 0]], [[1, 1], [1, 1]]))
    x1 = [{i: Q_SQRT2_OVER_2 * z1} for i, (z1, _) in enumerate(samples)]
    x2 = [{i: Q_SQRT2_OVER_2 * z2} for i, (_, z2) in enumerate(samples)]
    return MatrixModel(pres, len(samples), {_X1: x1, _X2: x2}, "torus-diagonal")


def phase_text(z) -> str:
    """A torus phase, read as `torus_model` reads it, as exact text.

    A phase in Q(i), as every `witness --phases` phase is, is written as
    `GaussianRational.exact_str` writes it, and `parse_scalar` reads it
    back; one with a sqrt(2) part, which only a QuadExact argument gives,
    as its QuadExact repr.  A phase off the unit circle raises ValueError.
    """
    q = _unit_phase(z)
    if q.b or q.d:
        return repr(q)
    return GaussianRational.from_fractions(q.a, q.c).exact_str()


def _cayley_unitary(rng, dim: int) -> list:
    """U = (I + S)^-1 (I - S) for a seeded skew-Hermitian S with Gaussian-integer
    entries of real and imaginary part in -2..2, as sparse rows over Q(i).

    S has imaginary eigenvalues, so I + S is invertible.  Since S* = -S,
    U* = (I + S)(I - S)^-1, and as I + S, I - S and their inverses commute,
    U* U = U U* = I exactly (Cayley).  U is found by Gauss-Jordan elimination
    of [I + S | I - S].
    """
    s = [[Q()] * dim for _ in range(dim)]
    for i in range(dim):
        s[i][i] = Q(0, 0, rng.randint(-2, 2))
        for j in range(i + 1, dim):
            s[i][j] = Q(rng.randint(-2, 2), 0, rng.randint(-2, 2))
            s[j][i] = -s[i][j].conjugate()
    eye = [[Q_ONE if i == j else Q() for j in range(dim)] for i in range(dim)]
    aug = [[eye[i][j] + s[i][j] for j in range(dim)] + [eye[i][j] - s[i][j] for j in range(dim)]
           for i in range(dim)]
    for col in range(dim):
        pivot = next(r for r in range(col, dim) if not aug[r][col].is_zero())
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(dim):
            f = aug[r][col]
            if r != col and not f.is_zero():
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [{j: x for j, x in enumerate(row[dim:]) if not x.is_zero()} for row in aug]


def free_unitary_model(dim: int = 4, seed: int = 0) -> MatrixModel:
    """Two seeded Cayley unitaries scaled by sqrt2/2 as a free-sphere witness.

    Each unitary is exact over Q(i) (`_cayley_unitary`), so the model is
    exact and every sphere relation holds exactly.  In dimension 2 the four
    products are always dependent (the adjoint of a 2x2 unitary is a
    polynomial of degree <= 1 in it), so dim >= 3 is required.  One draw per
    seed, from `random.Random(seed)`, recorded on the model; a draw whose
    products are dependent is not replaced, and shows as a rank shortfall.
    """
    if dim < 3:
        raise ValueError(f"dim must be at least 3, got {dim}: the four products "
                         "cannot be independent below dimension 3")
    pair = validate_pair([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    pres = sphere_presentation(pair)
    rng = random.Random(seed)
    x1, x2 = ([{j: Q_SQRT2_OVER_2 * x for j, x in row.items()} for row in _cayley_unitary(rng, dim)]
              for _ in range(2))
    return MatrixModel(pres, dim, {_X1: x1, _X2: x2},
                       label=f"free-unitary-{dim}d", seed_used=seed)


def o2plus_model() -> MatrixModel:
    """Classical point plus anticommuting pair for the free orthogonal group at n=2.

    Summand (i) is the rotation-by-45-degrees point, summand (ii) the pair
    A = diag(c, -c), B = c(e12 + e21) with c = sqrt2/2, which squares to 1/2
    each and anticommutes.  All orthogonality relations hold exactly, and the two products v11 v21, v21 v11 stay independent.
    """
    pres = orthogonal_qg_presentation([[0, 0], [0, 0]])
    c = Q_SQRT2_OVER_2
    # the 1x1 point (c, c; c, -c) in the first row and column, A and B after it
    point_a = [{0: c}, {1: c}, {2: -c}]
    point_b = [{0: c}, {2: c}, {1: c}]
    rows = {
        Letter("ou", 1, 1): point_a,
        Letter("ou", 1, 2): point_b,
        Letter("ou", 2, 1): point_b,
        Letter("ou", 2, 2): [{0: -c}, {1: c}, {2: -c}],
    }
    return MatrixModel(pres, 3, rows, "o2plus-point-plus-anticommuting")
