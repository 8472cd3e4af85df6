"""Cross-validation witness models for arbitrary presentations.

Each model satisfies every relation of its presentation, so a relation the
span certifies as zero must vanish in it.  They are weak witnesses (diagonal,
commuting or one-dimensional) and serve only as cross-checks of ProvedZero
claims; no command builds them.  The seeded diagonal models are complex
arrays in double precision (`FloatModel`), with a numpy evaluator of their
own (`evaluate`); the others are exact `repmodels.MatrixModel`s.
"""

from typing import NamedTuple, Optional

import numpy as np

from ncstar import repmodels as R
from ncstar.ncalg import Letter
from ncstar.presentations import (CommutationPair, Presentation, sphere_presentation,
                                  unitary_qg_presentation, validate_pair)
from ncstar.scalars import Q_ONE


class FloatModel(NamedTuple):
    """Assignment of dim x dim complex arrays to a presentation's generators."""

    presentation: Presentation
    dim: int
    assignment: dict  # Letter (unstarred) -> complex array
    label: str = ""
    seed_used: Optional[int] = None


def to_array(rows: list, dim: int) -> np.ndarray:
    """Exact sparse rows as a complex array, each entry rounded once."""
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[i, j] = complex(x)
    return out


def evaluate(p, model) -> np.ndarray:
    """p's image as a complex array.

    A `FloatModel` is evaluated in double precision, each word a product of
    arrays from the identity; an exact model is evaluated exactly
    (`repmodels.evaluate`) and converted afterwards.
    """
    if not isinstance(model, FloatModel):
        return to_array(R.evaluate(p, model), model.dim)
    acc = np.zeros((model.dim, model.dim), dtype=complex)
    for w, c in p.items():
        term = np.eye(model.dim, dtype=complex)
        for letter in w:
            m = model.assignment[letter.base()]
            term = term @ (m.conj().T if letter.starred else m)
        acc = acc + complex(c) * term
    return acc


def residual_max(model, relations) -> float:
    """The largest 2-norm of the relations' images (`evaluate`)."""
    return max((float(np.linalg.norm(evaluate(r.poly, model), 2)) for r in relations), default=0.0)


def point_model_sphere(k: int, n: int, pair: CommutationPair = None) -> R.MatrixModel:
    """One-dimensional sphere point, exact: x_k maps to 1, the others to 0.

    The point is a model of every sphere on n coordinates; `pair` picks the
    presentation, by default the free sphere.
    """
    if not (1 <= k <= n):
        raise ValueError(f"k={k} outside 1..{n}")
    if pair is None:
        pair = validate_pair([[0] * n for _ in range(n)], [[0] * n for _ in range(n)])
    exact = {Letter("x", i, 0): [{0: Q_ONE} if i == k else {}] for i in range(1, n + 1)}
    return R.MatrixModel(sphere_presentation(pair), 1, exact, f"sphere-point-{k}")


def diagonal_sphere_model(pair: CommutationPair, seed: int = 0, dim: int = 2) -> FloatModel:
    """Commuting normal diagonal model, valid for every sphere presentation."""
    n = pair.n
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(n)
    assignment = {Letter("x", i, 0): scale * np.diag(np.exp(2j * np.pi * rng.random(dim)))
                  for i in range(1, n + 1)}
    return FloatModel(sphere_presentation(pair), dim, assignment,
                      label=f"sphere-diagonal-{n}", seed_used=seed)


def diagonal_unitary_model(pair: CommutationPair, seed: int = 0, dim: int = 2) -> FloatModel:
    """Diagonal-phase model u_ij = delta_ij z_i, valid for every unitary presentation."""
    n = pair.n
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random((n, dim)))
    assignment = {Letter("u", i, j): np.diag(phases[i - 1]) if i == j
                  else np.zeros((dim, dim), dtype=complex)
                  for i in range(1, n + 1) for j in range(1, n + 1)}
    return FloatModel(unitary_qg_presentation(pair), dim, assignment,
                      label=f"unitary-diagonal-{n}", seed_used=seed)


def signed_point_model(pres: Presentation, seed: int = 0) -> R.MatrixModel:
    """Signed identity character for orthogonal-qg or tuple-space presentations."""
    n = pres.source_pair.n
    rng = np.random.default_rng(seed)
    signs = rng.choice([Q_ONE, -Q_ONE], size=n)
    tag = "ou" if pres.kind == "orthogonal-qg" else "tx"
    exact = {Letter(tag, i, j): [{0: signs[i - 1]} if i == j else {}]
             for i in range(1, n + 1) for j in range(1, n + 1)}
    return R.MatrixModel(pres, 1, exact, f"{pres.kind}-signed-point")


def witness_models_for(pres: Presentation, seed: int = 0) -> list:
    """Valid witness models available for cross-checking ProvedZero claims."""
    pair = pres.source_pair
    if pres.kind == "complex-sphere":
        models = [diagonal_sphere_model(pair, seed)]
        models += [point_model_sphere(k, pair.n, pair) for k in range(1, pair.n + 1)]
        return models
    if pres.kind == "unitary-qg":
        return [diagonal_unitary_model(pair, seed), diagonal_unitary_model(pair, seed + 1)]
    if pres.kind in ("orthogonal-qg", "tuple-space"):
        models = [signed_point_model(pres, seed), signed_point_model(pres, seed + 1)]
        if pres.kind == "orthogonal-qg" and pair.n == 2 and all(x == 0 for row in pair.epsilon for x in row):
            models.append(R.o2plus_model())
        return models
    raise ValueError(f"unknown presentation kind {pres.kind!r}")
