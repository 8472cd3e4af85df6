"""Finite-dimensional matrix models used as nonvanishing and independence witnesses.

A model assigns a complex matrix to every generator of a presentation; words
evaluate to matrix products and stars to conjugate transposes.  The hand-built
models keep an exact backing over Q(sqrt(2), i) so that residuals which vanish
mathematically are reported as exactly 0; seeded pseudo-random models live in
ordinary double precision.

Exact evaluation is sparse: the witness matrices are mostly zero, so products
and sums run over each row's nonzero entries only, and a word's product starts
from its first letter's matrix.  An entry is skipped only when it is exactly
zero (`QuadExact.is_zero`), never by a float tolerance, so every exact result
equals the dense product.

This module, and with it numpy, is imported only by the commands that evaluate
a model (`witness` and `verify noninjectivity`).

A model may be a *probe*: it fails some presentation relations on purpose.
Its violations are derived, on first read, from one residual report against
its tolerance.  Probe models are barred from any claim that depends on the
relations they violate, but remain usable for the pure commutation and
independence computations they were written down for.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .ncalg import Letter, Poly, word_str
from .presentations import (Presentation, orthogonal_qg_presentation,
                            sphere_presentation, validate_pair)
from .scalars import Q_ONE, Q_ZERO, QuadExact, Q_SQRT2_OVER_2, QuadExact as Q

__all__ = [
    "MatrixModel", "ResidualReport", "IndependenceResult",
    "probe_pair_model", "noninjectivity_sphere_model",
    "torus_model", "free_unitary_model", "o2plus_model", "direct_sum", "CONJUGATE_PRODUCTS",
    "UNIT_CIRCLE_TOLERANCE",
    "model_residuals", "gated_residuals", "evaluate", "operator_norm", "check_independence",
    "WitnessInvalid", "UnassignedGenerator", "PresentationMismatch",
    "DegenerateSamples",
]


class WitnessInvalid(RuntimeError):
    """The witness model violates relations its claim depends on."""


class UnassignedGenerator(KeyError):
    pass


class PresentationMismatch(ValueError):
    pass


class DegenerateSamples(ValueError):
    pass


# how far from modulus 1 a torus phase sample may be
UNIT_CIRCLE_TOLERANCE = 1e-12

_EXACT_PHASES = {1: Q_ONE, -1: -Q_ONE, 1j: Q(0, 0, 1, 0), -1j: Q(0, 0, -1, 0)}


@dataclass(frozen=True)
class MatrixModel:
    """Assignment of dim x dim complex matrices to a presentation's generators."""

    presentation: Presentation
    dim: int
    assignment: dict  # Letter (unstarred) -> np.ndarray
    exact: Optional[dict] = None  # Letter -> tuple of tuples of QuadExact
    residual_tolerance: float = 1e-9
    label: str = ""
    seed_used: Optional[int] = None

    def matrix(self, letter: Letter) -> np.ndarray:
        base = letter.base()
        m = self.assignment.get(base)
        if m is None:
            raise UnassignedGenerator(f"model {self.label!r} assigns nothing to {word_str((base,))}")
        if letter.starred:
            return m.conj().T
        return m

    @cached_property
    def violations(self) -> tuple:
        """The relations whose residual exceeds the tolerance, computed on first read."""
        return tuple(desc for desc, r in model_residuals(self).per_relation
                     if r > self.residual_tolerance)

    @property
    def probe(self) -> bool:
        return bool(self.violations)


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

def _exact_rows(a) -> list:
    """Sparse rows of an exact matrix: one {column: entry} dict per row, exact zeros left out."""
    return [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in a]


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


def _exact_dense(rows: list, width: int):
    return tuple(tuple(row.get(j, Q_ZERO) for j in range(width)) for row in rows)


def _exact_star(a):
    n = len(a)
    return tuple(tuple(a[j][i].conjugate() for j in range(n)) for i in range(n))


def _exact_to_complex(a) -> np.ndarray:
    return np.array([[complex(x) for x in row] for row in a], dtype=complex)


def operator_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def evaluate(p: Poly, model: MatrixModel):
    """Evaluate a polynomial in the model; words become matrix products.

    Models with an exact backing are evaluated over Q(sqrt(2), i) and converted
    to a complex array afterwards, so values like 1/2 come out bit-exact.  The
    exact products run over sparse rows: an entry is skipped only when it is
    exactly zero (`QuadExact.is_zero`), so the result equals the dense product.
    Returns (matrix, exact_matrix_or_None).
    """
    if model.exact is not None:
        letters = {}  # letter -> sparse rows of its (starred) matrix
        acc = [{} for _ in range(model.dim)]
        for w, c in p.items():
            term = None
            for letter in w:
                m = letters.get(letter)
                if m is None:
                    m = model.exact.get(letter.base())
                    if m is None:
                        raise UnassignedGenerator(f"model {model.label!r} assigns nothing to {word_str((letter.base(),))}")
                    if letter.starred:
                        m = _exact_star(m)
                    m = letters[letter] = _exact_rows(m)
                term = m if term is None else _exact_matmul(term, m)
            if term is None:
                term = [{i: Q_ONE} for i in range(model.dim)]
            qc = QuadExact(c)
            for row, out in zip(term, acc):
                for j, x in row.items():
                    out[j] = out[j] + qc * x if j in out else qc * x
        exact = _exact_dense(acc, model.dim)
        return _exact_to_complex(exact), exact
    acc = np.zeros((model.dim, model.dim), dtype=complex)
    for w, c in p.items():
        term = np.eye(model.dim, dtype=complex)
        for letter in w:
            term = term @ model.matrix(letter)
        acc = acc + complex(c) * term
    return acc, None


def evaluate_matrix(p: Poly, model: MatrixModel) -> np.ndarray:
    return evaluate(p, model)[0]


def model_residuals(model: MatrixModel, relations: Optional[Sequence] = None) -> ResidualReport:
    """Operator-norm residual of each relation, by default every relation of
    the model's presentation (expanded sums included).

    Exactly-zero evaluations report 0.0 regardless of floating point.
    """
    if relations is None:
        relations = model.presentation.all_relations()
    rows = []
    worst = 0.0
    for rel in relations:
        mat, exact = evaluate(rel.poly, model)
        if exact is not None and all(x.is_zero() for row in exact for x in row):
            res = 0.0
        else:
            res = operator_norm(mat)
        rows.append((rel.describe(), res))
        worst = max(worst, res)
    return ResidualReport(tuple(rows), worst)


def gated_residuals(model: MatrixModel, gate: object = "all") -> ResidualReport:
    """Residual report of the gated relations; raise WitnessInvalid if one exceeds tolerance.

    gate: "all" checks every presentation relation of the model, and a list of
    Relations checks just those (used for probe models whose claims only rely
    on a relation subset).
    """
    report = model_residuals(model, None if gate == "all" else gate)
    if report.max > model.residual_tolerance:
        desc, res = report.worst()
        raise WitnessInvalid(
            f"model {model.label!r} violates gated relation {desc!r} with residual {res:.3g}")
    return report


def check_independence(family: Sequence[Poly], model: MatrixModel,
                       threshold: float = 1e-6) -> IndependenceResult:
    """Numerical rank of the flattened family via singular values.

    The model's residuals are not checked here: a caller whose claim needs
    them valid calls `gated_residuals` first.
    """
    if not family:
        raise ValueError("family must be nonempty")
    rows = [evaluate_matrix(p, model).reshape(-1) for p in family]
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    rank = int((sv > threshold).sum())
    return IndependenceResult(rank, tuple(float(s) for s in sv))


# ---------------------------------------------------------------------------
# the hand-built models
# ---------------------------------------------------------------------------

_X1, _X2 = Letter("x", 1, 0), Letter("x", 2, 0)

# The witness family x1* x2, x1 x2*, x2* x1, x2 x1* of two sphere coordinates.
# The probe and free unitary models separate all four; the torus, whose
# coordinates commute, separates the first two.
CONJUGATE_PRODUCTS = tuple(Poly.from_word(w) for w in (
    (_X1.star(), _X2), (_X1, _X2.star()), (_X2.star(), _X1), (_X2, _X1.star())))


def _finish_exact_model(pres, dim, exact_assignment, label) -> MatrixModel:
    assignment = {g: _exact_to_complex(m) for g, m in exact_assignment.items()}
    return MatrixModel(pres, dim, assignment, exact_assignment, label=label)


def _probe_pair_matrices():
    c = Q_SQRT2_OVER_2
    a = [[Q_ZERO] * 4 for _ in range(4)]
    b = [[Q_ZERO] * 4 for _ in range(4)]
    a[2][0] = Q_ONE          # e_31
    a[3][3] = c
    b[1][0] = Q_ONE          # e_21
    b[2][1] = Q_ONE          # e_32
    b[3][3] = c
    frz = lambda m: tuple(tuple(row) for row in m)
    return frz(a), frz(b)


def probe_pair_model() -> MatrixModel:
    """The explicit 4x4 probe pair: non-normal, commuting, with recorded violations.

    Both normalization sums evaluate to matrices of operator norm exactly 1,
    while the plain commutator holds exactly.  The model therefore stays in
    probe state and is only admitted for claims that rest on the commutation
    relations alone.
    """
    a, b = _probe_pair_matrices()
    pair = validate_pair([[0, 1], [1, 0]], [[0, 0], [0, 0]])
    pres = sphere_presentation(pair)
    exact = {Letter("x", 1, 0): a, Letter("x", 2, 0): b}
    return _finish_exact_model(pres, 4, exact, "probe-4x4")


def noninjectivity_sphere_model() -> MatrixModel:
    """Valid 4x4 witness for the sphere with eta_12 = 1 and free diagonal.

    Re-using the probe matrices with the second coordinate starred makes every
    relation of this sphere hold exactly, while x1 x2* evaluates to
    diag(0, 0, 0, 1/2).
    """
    a, b = _probe_pair_matrices()
    pair = validate_pair([[0, 0], [0, 0]], [[0, 1], [1, 0]])
    pres = sphere_presentation(pair)
    exact = {Letter("x", 1, 0): a, Letter("x", 2, 0): _exact_star(b)}
    return _finish_exact_model(pres, 4, exact, "noninjectivity-4x4")


def torus_model(samples: Sequence = ((1, 1), (1, 1j))) -> MatrixModel:
    """Diagonal two-coordinate model from phase samples: x_i = (sqrt2/2) diag(z_i).

    All entries commute and are normal, so every two-coordinate sphere relation
    holds; the sample set must separate the conjugate products or the model is
    rejected as degenerate.
    """
    samples = [tuple(s) for s in samples]
    if len(samples) < 2:
        raise DegenerateSamples("need at least 2 phase samples")
    for z1, z2 in samples:
        for z in (z1, z2):
            # written so that nan fails too: every comparison with nan is false
            if not abs(abs(complex(z)) - 1.0) <= UNIT_CIRCLE_TOLERANCE:
                raise ValueError(f"phase {z} is not on the unit circle")
    pres = sphere_presentation(validate_pair([[0, 1], [1, 0]], [[1, 1], [1, 1]]))
    dim = len(samples)
    exactable = all(z1 in _EXACT_PHASES and z2 in _EXACT_PHASES for z1, z2 in samples)
    if exactable:
        x1 = tuple(tuple(Q_SQRT2_OVER_2 * _EXACT_PHASES[samples[i][0]] if i == j else Q_ZERO
                         for j in range(dim)) for i in range(dim))
        x2 = tuple(tuple(Q_SQRT2_OVER_2 * _EXACT_PHASES[samples[i][1]] if i == j else Q_ZERO
                         for j in range(dim)) for i in range(dim))
        model = _finish_exact_model(pres, dim, {Letter("x", 1, 0): x1, Letter("x", 2, 0): x2},
                                    "torus-diagonal")
    else:
        half = complex(np.sqrt(0.5))
        x1 = np.diag([half * complex(z1) for z1, _ in samples])
        x2 = np.diag([half * complex(z2) for _, z2 in samples])
        model = MatrixModel(pres, dim, {Letter("x", 1, 0): x1, Letter("x", 2, 0): x2},
                            label="torus-diagonal")
    probe_rank = check_independence(CONJUGATE_PRODUCTS[:2], model)
    if probe_rank.rank < 2:
        raise DegenerateSamples(
            f"samples {samples} only span rank {probe_rank.rank} on the conjugate products")
    return model


def free_unitary_model(dim: int = 4, seed: int = 0) -> MatrixModel:
    """Seeded pseudo-random unitaries scaled by sqrt2/2 as a free-sphere witness.

    In dimension 2 the four products are always dependent (the adjoint of a
    2x2 unitary is a polynomial of degree <= 1 in it), so dim >= 3 is required.
    Degenerate draws re-sample deterministically with an incremented seed, at
    most 16 times; the final seed is recorded on the model.
    """
    if dim < 3:
        raise ValueError(f"dim must be at least 3, got {dim}: the four products "
                         "cannot be independent below dimension 3")
    pair = validate_pair([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    pres = sphere_presentation(pair)
    for attempt in range(16):
        s = seed + attempt
        rng = np.random.default_rng(s)
        us = []
        for _ in range(2):
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            q, r = np.linalg.qr(z)
            q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
            us.append(q)
        half = complex(np.sqrt(0.5))
        model = MatrixModel(pres, dim,
                            {_X1: half * us[0], _X2: half * us[1]},
                            label=f"free-unitary-{dim}d", seed_used=s)
        if check_independence(CONJUGATE_PRODUCTS, model).rank == 4:
            return model
    raise DegenerateSamples("no independent draw within 16 seeded attempts")


def o2plus_model() -> MatrixModel:
    """Classical point plus anticommuting pair for the free orthogonal group at n=2.

    Summand (i) is the rotation-by-45-degrees point, summand (ii) the pair
    A = diag(c, -c), B = c(e12 + e21) with c = sqrt2/2, which squares to 1/2
    each and anticommutes.  All orthogonality relations hold exactly over the
    exact backing, and the two products v11 v21, v21 v11 stay independent.
    """
    pres = orthogonal_qg_presentation([[0, 0], [0, 0]])
    c = Q_SQRT2_OVER_2
    point = {
        Letter("ou", 1, 1): ((c,),),
        Letter("ou", 1, 2): ((c,),),
        Letter("ou", 2, 1): ((c,),),
        Letter("ou", 2, 2): ((-c,),),
    }
    A = ((c, Q_ZERO), (Q_ZERO, -c))
    B = ((Q_ZERO, c), (c, Q_ZERO))
    pauli = {
        Letter("ou", 1, 1): A,
        Letter("ou", 1, 2): B,
        Letter("ou", 2, 1): B,
        Letter("ou", 2, 2): A,
    }
    m1 = _finish_exact_model(pres, 1, point, "o2plus-point")
    m2 = _finish_exact_model(pres, 2, pauli, "o2plus-anticommuting")
    return replace(direct_sum([m1, m2]), label="o2plus-point-plus-anticommuting")


def direct_sum(models: Sequence[MatrixModel]) -> MatrixModel:
    """Block-diagonal sum; any relation's residual is the max over the parts."""
    if not models:
        raise ValueError("need at least one model")
    first = models[0]
    for m in models[1:]:
        if m.presentation.label != first.presentation.label:
            raise PresentationMismatch(
                f"cannot sum models of {m.presentation.label} and {first.presentation.label}")
    dim = sum(m.dim for m in models)
    gens = first.presentation.generators
    assignment = {}
    for g in gens:
        blocks = []
        for m in models:
            if g not in m.assignment:
                raise UnassignedGenerator(f"model {m.label!r} assigns nothing to {word_str((g,))}")
            blocks.append(m.assignment[g])
        out = np.zeros((dim, dim), dtype=complex)
        pos = 0
        for b in blocks:
            out[pos:pos + b.shape[0], pos:pos + b.shape[0]] = b
            pos += b.shape[0]
        assignment[g] = out
    exact = None
    if all(m.exact is not None for m in models):
        exact = {}
        for g in gens:
            rows = []
            pos = 0
            for m in models:
                for r, row in enumerate(m.exact[g]):
                    rows.append(tuple([Q_ZERO] * pos + list(row) + [Q_ZERO] * (dim - pos - m.dim)))
                pos += m.dim
            exact[g] = tuple(rows)
    return MatrixModel(first.presentation, dim, assignment, exact,
                       residual_tolerance=first.residual_tolerance,
                       label="(+)".join(m.label for m in models))
