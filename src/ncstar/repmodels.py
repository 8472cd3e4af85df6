"""Finite-dimensional matrix models used as nonvanishing and independence witnesses.

A model assigns a complex matrix to every generator of a presentation; words
evaluate to matrix products and stars to conjugate transposes.  The hand-built
models are exact over Q(sqrt(2), i) so that residuals which vanish
mathematically are reported as exactly 0; seeded pseudo-random models live in
ordinary double precision.  Either way a model holds each matrix once.

Exact matrices are sparse rows: one {column: QuadExact}
dict per row, exact zeros never stored.  Products and sums run over each
row's nonzero entries only, and a word's product starts from its first
letter's matrix.  An entry is skipped only when it is exactly zero
(`QuadExact.is_zero`), never by a float tolerance, so every exact result
equals the dense product.

This module, and with it numpy, is imported only by the commands that evaluate
a model (`witness` and `verify noninjectivity`).

A model may be a *probe*: it fails some presentation relations on purpose.
A run gates each model, at the run's residual tolerance, on only the relations
its claim rests on, so a probe model is barred from any claim that depends
on the relations it violates but remains usable for the pure commutation and
independence computations it was written down for.

A builder checks neither residuals nor rank.  The run that uses a model
judges both, at its own tolerance and singular-value threshold, so a
degenerate sample set shows up there as a rank shortfall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ncalg import Letter, Poly, word_str
from .presentations import (Presentation, orthogonal_qg_presentation,
                            sphere_presentation, validate_pair)
from .scalars import Q_ONE, QuadExact, Q_SQRT2_OVER_2, QuadExact as Q

__all__ = [
    "MatrixModel", "ResidualReport", "IndependenceResult",
    "probe_pair_model", "noninjectivity_sphere_model",
    "torus_model", "free_unitary_model", "o2plus_model", "CONJUGATE_PRODUCTS",
    "UNIT_CIRCLE_TOLERANCE",
    "model_residuals", "evaluate", "operator_norm", "check_independence",
]


# how far from modulus 1 a torus phase sample may be
UNIT_CIRCLE_TOLERANCE = 1e-12

_EXACT_PHASES = {1: Q_ONE, -1: -Q_ONE, 1j: Q(0, 0, 1, 0), -1j: Q(0, 0, -1, 0)}


@dataclass(frozen=True)
class MatrixModel:
    """Assignment of dim x dim matrices, exact or complex, to a presentation's generators."""

    presentation: Presentation
    dim: int
    # Letter (unstarred) -> sparse rows of QuadExact if exact, else np.ndarray
    assignment: dict
    exact: bool = False
    label: str = ""
    seed_used: Optional[int] = None

    def matrix(self, letter: Letter):
        """The letter's matrix, starred if the letter is, in the model's own
        form: sparse exact rows or a complex array."""
        base = letter.base()
        m = self.assignment.get(base)
        if m is None:
            raise KeyError(f"model {self.label!r} assigns nothing to {word_str((base,))}")
        if letter.starred:
            return _exact_star(m) if self.exact else m.conj().T
        return m


@dataclass(frozen=True)
class ResidualReport:
    per_relation: tuple  # ((description, residual), ...)
    max: float

    def worst(self):
        return max(self.per_relation, key=lambda kv: kv[1]) if self.per_relation else ("", 0.0)


@dataclass(frozen=True)
class IndependenceResult:
    rank: int
    singular_values: tuple


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


def _exact_to_complex(rows: list) -> np.ndarray:
    out = np.zeros((len(rows), len(rows)), dtype=complex)
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[i, j] = complex(x)
    return out


def operator_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def _exact_evaluate(p: Poly, model: MatrixModel) -> list:
    """Sparse rows of the image of p over Q(sqrt(2), i); an entry may be an
    exact zero left by cancellation between terms."""
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


def evaluate(p: Poly, model: MatrixModel) -> np.ndarray:
    """Evaluate a polynomial in the model; words become matrix products.

    Exact models are evaluated over Q(sqrt(2), i) and converted to a complex
    array afterwards, so values like 1/2 come out bit-exact and
    an image that vanishes exactly is the zero array.
    """
    if model.exact:
        return _exact_to_complex(_exact_evaluate(p, model))
    acc = np.zeros((model.dim, model.dim), dtype=complex)
    for w, c in p.items():
        term = np.eye(model.dim, dtype=complex)
        for letter in w:
            term = term @ model.matrix(letter)
        acc = acc + complex(c) * term
    return acc


def model_residuals(model: MatrixModel, relations: Optional[Sequence] = None) -> ResidualReport:
    """Operator-norm residual of each relation, by default every relation of
    the model's presentation (expanded sums included).

    An exactly vanishing relation of an exact model evaluates to the zero
    array, so it reports 0.0 regardless of floating point.
    """
    if relations is None:
        relations = model.presentation.all_relations()
    rows = []
    worst = 0.0
    for rel in relations:
        res = operator_norm(evaluate(rel.poly, model))
        rows.append((rel.describe(), res))
        worst = max(worst, res)
    return ResidualReport(tuple(rows), worst)


def check_independence(family: Sequence[Poly], model: MatrixModel,
                       threshold: float) -> IndependenceResult:
    """Numerical rank of the flattened family: its singular values above threshold.

    There is one singular value per member of the family: where the family
    has more members than a matrix has entries, the missing ones are 0.
    The model's residuals are not checked here: a caller whose claim needs
    them valid checks `model_residuals` too.
    """
    if not family:
        raise ValueError("family must be nonempty")
    rows = [evaluate(p, model).reshape(-1) for p in family]
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    rank = int((sv > threshold).sum())
    return IndependenceResult(rank, tuple(float(s) for s in sv) + (0.0,) * (len(family) - len(sv)))


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
    return MatrixModel(pres, 4, {_X1: a, _X2: b}, True, "probe-4x4")


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
    return MatrixModel(pres, 4, {_X1: a, _X2: _exact_star(b)}, True, "noninjectivity-4x4")


def torus_model(samples: Sequence = ((1, 1), (1, 1j))) -> MatrixModel:
    """Diagonal two-coordinate model from phase samples: x_i = (sqrt2/2) diag(z_i).

    All entries commute and are normal, so every two-coordinate sphere relation
    holds.  The conjugate products need two samples that separate them to
    reach rank 2; fewer leave a rank shortfall for the caller to report.
    """
    samples = [tuple(s) for s in samples]
    for z1, z2 in samples:
        for z in (z1, z2):
            # written so that nan fails too: every comparison with nan is false
            if not abs(abs(complex(z)) - 1.0) <= UNIT_CIRCLE_TOLERANCE:
                raise ValueError(f"phase {z} is not on the unit circle")
    pres = sphere_presentation(validate_pair([[0, 1], [1, 0]], [[1, 1], [1, 1]]))
    dim = len(samples)
    exactable = all(z1 in _EXACT_PHASES and z2 in _EXACT_PHASES for z1, z2 in samples)
    if exactable:
        x1 = [{i: Q_SQRT2_OVER_2 * _EXACT_PHASES[z1]} for i, (z1, _) in enumerate(samples)]
        x2 = [{i: Q_SQRT2_OVER_2 * _EXACT_PHASES[z2]} for i, (_, z2) in enumerate(samples)]
    else:
        half = complex(np.sqrt(0.5))
        x1 = np.diag([half * complex(z1) for z1, _ in samples])
        x2 = np.diag([half * complex(z2) for _, z2 in samples])
    return MatrixModel(pres, dim, {_X1: x1, _X2: x2}, exactable, "torus-diagonal")


def free_unitary_model(dim: int = 4, seed: int = 0) -> MatrixModel:
    """Seeded pseudo-random unitaries scaled by sqrt2/2 as a free-sphere witness.

    In dimension 2 the four products are always dependent (the adjoint of a
    2x2 unitary is a polynomial of degree <= 1 in it), so dim >= 3 is required.
    One draw per seed, recorded on the model; a draw whose products are
    dependent is not replaced, and shows as a rank shortfall.
    """
    if dim < 3:
        raise ValueError(f"dim must be at least 3, got {dim}: the four products "
                         "cannot be independent below dimension 3")
    pair = validate_pair([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    pres = sphere_presentation(pair)
    rng = np.random.default_rng(seed)
    us = []
    for _ in range(2):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(z)
        q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        us.append(q)
    half = complex(np.sqrt(0.5))
    return MatrixModel(pres, dim, {_X1: half * us[0], _X2: half * us[1]},
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
    return MatrixModel(pres, 3, rows, True, "o2plus-point-plus-anticommuting")
