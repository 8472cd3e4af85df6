"""Certificate-level replays of the structural facts about the presented algebras.

Each verification builds a degree-bounded relation span (`build_quotient_basis`)
for each algebra involved, pushes every defining relation through the map
under test, and certifies that the image vanishes leg-wise in the tensor
quotient:

* the coproduct u_ij -> sum_k u_ik (x) u_kj respects every quantum-unitary
  relation (so the pair really carries a quantum group structure),
* the coordinate actions on the sphere and on the tuple space preserve all
  sphere / tuple relations, and
* the first-column homomorphism into the quantum unitary algebra kills the
  product x1 x2* for the mixed pair, while a 4x4 model shows the product is
  nonzero in the sphere itself.

The coproduct and the four actions (alpha and beta, on the sphere and on the
tuple space) are one coaction rule, `_coaction_images`: x_ic goes to
sum_j q_ij (x) x_jc (alpha) or to sum_j q_ji (x) x_jc (beta), where q is the
generator matrix of the acting quantum group and sphere coordinates carry
c = 0; the coproduct is the alpha coaction of the quantum unitary group on
itself.  One routine, `_verify_hom`, pushes relations through it.  A
relation's image depends only on its polynomial, n and the map, never on the
pair, so the routine builds each image once per process and reuses it for
every later pair.  The relations themselves are pooled per process too
(`presentations.Relation`), each with its star.

Within one map and one pair of spans, a relation whose star is plus or minus
one already certified ProvedZero is ProvedZero without a second reduction:
the map is a *-homomorphism and both spans are star-closed, so an image
vanishes leg-wise exactly when its leg-wise star does.  An Inconclusive is
never reused, since its detail names a survivor of its own.

The matrix models (`repmodels`, and with it numpy) are loaded on demand: only
the non-injectivity witness check and the independence suites import them, so
the purely algebraic tasks never pay for numpy.

Inconclusive is never conflated with failure: it means the bounded certificate
search did not settle the claim.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Optional

from .ncalg import (Certificate, INCONCLUSIVE, Letter, PROVED_NONZERO,
                    PROVED_ZERO, Poly, TensorPoly, apply_tensor_hom,
                    build_quotient_basis, ideal_membership_bounded, is_zero_tensor,
                    poly_str, replay_combination, word_str)
from .presentations import (CommutationPair, Presentation, is_regular,
                            orthogonal_qg_presentation, regularize,
                            sphere_presentation, tuple_space_presentation,
                            unitary_qg_presentation, validate_pair)
from .scalars import GaussianRational

__all__ = [
    "CheckResult", "VerificationReport",
    "verify_comultiplication", "verify_sphere_action", "verify_tuple_action",
    "verify_noninjectivity_example", "verify_independence_suite",
    "verify_regularization_consistency", "INDEPENDENCE_SUITES", "witness_suites",
]


@dataclass
class CheckResult:
    name: str
    certificate: Certificate
    expected: str = PROVED_ZERO
    micros: int = 0

    @property
    def passed(self) -> bool:
        return self.certificate.status == self.expected

    def to_json_dict(self, include_timings=True) -> dict:
        out = {"relation": self.name, "status": self.certificate.status}
        if self.expected != PROVED_ZERO:
            out["expected"] = self.expected
        ev = self.certificate.to_json_dict()
        ev.pop("status", None)
        if ev:
            out["evidence"] = ev
        if include_timings:
            out["micros"] = self.micros
        return out


@dataclass
class VerificationReport:
    task: str
    subject: dict
    checks: list = field(default_factory=list)
    notices: list = field(default_factory=list)

    @property
    def overall(self) -> str:
        statuses = [c.certificate.status for c in self.checks]
        if any(s == INCONCLUSIVE for s in statuses):
            return INCONCLUSIVE
        if all(s == PROVED_ZERO for s in statuses):
            return PROVED_ZERO
        return PROVED_NONZERO

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self, include_timings=True) -> dict:
        return {
            "task": self.task,
            "pair": self.subject,
            "checks": [c.to_json_dict(include_timings) for c in self.checks],
            "overall": self.overall,
            "passed": self.passed,
            "notices": list(self.notices),
        }


# The default residual tolerance of every witness model gate.
RESIDUAL_TOLERANCE = 1e-9

# The default singular-value threshold of the independence suites' rank.
SVD_THRESHOLD = 1e-6

# The operator norm a witness image must exceed to be reported nonzero.
NONZERO_NORM_THRESHOLD = 1e-6


def _timed(report: VerificationReport, name: str, thunk, expected=PROVED_ZERO):
    t0 = time.perf_counter_ns()
    cert = thunk()
    micros = (time.perf_counter_ns() - t0) // 1000
    report.checks.append(CheckResult(name, cert, expected, micros))
    return cert


# ---------------------------------------------------------------------------
# coproduct and action replays
# ---------------------------------------------------------------------------

# A relation's image depends only on its polynomial, n, the image family and
# the side, never on the (epsilon, eta) pair, and sweeps meet the same few
# hundred relations again and again; so each image is built once per process.
_IMAGE_CACHE: dict = {}


def _coaction_images(qg: Presentation, space: Presentation, side: str) -> dict:
    """The coaction of `qg` on `space`, as a generator assignment.

    Each generator x_ic of `space` goes to sum_j q_ij (x) x_jc (alpha) or to
    sum_j q_ji (x) x_jc (beta), where q is the n x n generator matrix of `qg`
    (u or ou) and sphere coordinates carry c = 0.  The coproduct is the alpha
    coaction of the quantum unitary group on itself.
    """
    tag, n = qg.generators[0].tag, qg.source_pair.n
    images = {}
    for g in space.generators:
        terms = {((Letter(tag, g.row, j) if side == "alpha" else Letter(tag, j, g.row),),
                  (Letter(g.tag, j, g.col),)): 1 for j in range(1, n + 1)}
        images[g] = TensorPoly(terms, left_roster=qg.generators, right_roster=space.generators)
    return images


def _verify_hom(report: VerificationReport, relations, images: dict, family: tuple,
                left, right) -> None:
    """Push each relation through the *-homomorphism `images` and reduce its image.

    `family` is (name, n, side) and names the assignment; with the relation's
    terms it keys the image cache.  Each relation becomes one timed check; a
    nonempty side prefixes its name ("alpha:rid").
    A star twin of an earlier ProvedZero in this call (see the module
    docstring) gets its partner's verdict and term count, with fresh evidence.
    """
    side = family[2]
    lg, rg = left.presentation.generators, right.presentation.generators
    proved: dict = {}  # term key of each ProvedZero relation so far -> its evidence
    for rel in relations:
        def thunk(rel=rel):
            key, star_key, negated_star_key = rel.keys
            partner = proved.get(star_key) or proved.get(negated_star_key)
            if partner is not None:
                cert = Certificate(PROVED_ZERO, zero_evidence={
                    **partner, "left_basis": left.descriptor(), "right_basis": right.descriptor()})
            else:
                t = _IMAGE_CACHE.get(family + (key,))
                if t is None:
                    t = _IMAGE_CACHE[family + (key,)] = apply_tensor_hom(rel.poly, images, lg, rg)
                cert = is_zero_tensor(t, left, right)
            if cert.status == PROVED_ZERO:
                proved[key] = cert.zero_evidence
            return cert
        _timed(report, f"{side}:{rel.rid}" if side else rel.rid, thunk)


def verify_comultiplication(pair: CommutationPair, bound: int = 2) -> VerificationReport:
    """Certify that the coproduct is a *-homomorphism on the quantum unitary algebra.

    Every defining relation (the exchange families, the starred families, and
    all four unitarity sums for the matrix and its conjugate) is pushed through
    the coproduct and reduced leg-wise at the given degree bound.
    """
    pres = unitary_qg_presentation(pair)
    report = VerificationReport("hopf", pair.to_json_dict())
    basis = build_quotient_basis(pres, bound)
    _verify_hom(report, pres.all_relations(), _coaction_images(pres, pres, "alpha"),
                ("hopf", pair.n, ""), basis, basis)
    return report


def _verify_actions(report: VerificationReport, qg: Presentation, space: Presentation,
                    family: str, side: str, bound: int) -> VerificationReport:
    """Certify that the alpha and/or beta coaction of `qg` preserves every relation of `space`."""
    if side not in ("alpha", "beta", "both"):
        raise ValueError(f"side must be alpha, beta, or both, not {side!r}")
    left = build_quotient_basis(qg, bound)
    right = build_quotient_basis(space, bound)
    for s in (("alpha", "beta") if side == "both" else (side,)):
        _verify_hom(report, space.all_relations(), _coaction_images(qg, space, s),
                    (family, qg.source_pair.n, s), left, right)
    return report


def verify_sphere_action(pair: CommutationPair, side: str = "both",
                         bound: int = 2) -> VerificationReport:
    """Certify that the coordinate actions preserve all sphere relations.

    The statement assumes a regular pair; non-regular input is regularized
    first and the report carries a notice saying so.
    """
    report = VerificationReport("sphere-action", pair.to_json_dict())
    reg = is_regular(pair)
    if not reg.is_regular:
        pair = regularize(pair)
        report.notices.append(
            "input pair was not regular; regularized first "
            f"(A violations {list(reg.violations_convention_A)}, "
            f"B violations {list(reg.violations_convention_B)})")
        report.subject = pair.to_json_dict()
    return _verify_actions(report, unitary_qg_presentation(pair), sphere_presentation(pair),
                           "sphere", side, bound)


def verify_tuple_action(epsilon, side: str = "both", bound: int = 2) -> VerificationReport:
    """Certify that the orthogonal quantum group acts on the tuple space."""
    qg = orthogonal_qg_presentation(epsilon)
    eps = qg.source_pair.epsilon
    report = VerificationReport("tuple-action", {"n": len(eps), "epsilon": [list(r) for r in eps]})
    return _verify_actions(report, qg, tuple_space_presentation(epsilon), "tuple", side, bound)


# ---------------------------------------------------------------------------
# the non-injectivity anchor
# ---------------------------------------------------------------------------

_NONINJ_EPSILON = ((0, 0), (0, 0))
_NONINJ_ETA = ((0, 1), (1, 0))


def verify_noninjectivity_example(pair: Optional[CommutationPair] = None) -> VerificationReport:
    """Two checks: the column product X(1,2) vanishes in the quantum unitary
    algebra (with the exact factor 2 visible in the certificate), while the
    4x4 witness shows x1 x2* is nonzero in the sphere itself.

    This is a regression anchor: both checks are expected to stay certified.
    """
    if pair is None:
        pair = validate_pair(_NONINJ_EPSILON, _NONINJ_ETA)
    report = VerificationReport("noninjectivity", pair.to_json_dict())
    n, eta = pair.n, pair.eta

    guard_ok = (n == 2 and eta[0][1] == 1 and eta[0][0] == 0 and eta[1][1] == 0)

    def check_zero():
        if not guard_ok:
            return Certificate(INCONCLUSIVE,
                               detail="guard: the column product X(1,2) needs eta_12 = 1 "
                                      "and a free diagonal; the supplied pair has neither")
        pres = unitary_qg_presentation(pair)
        x12_word = (Letter("u", 1, 1, True), Letter("u", 2, 1))
        p = Poly.from_word(x12_word)
        # 2 * u11*.u21  =  (u11*.u21 + u12*.u22)  -  (u12*.u22 - u11*.u21)
        evidence = {
            "kind": "linear-combination",
            "product_bound": 2,
            "lhs_multiple": "2",
            "lhs": word_str(x12_word),
            "terms": [
                {"relation": "sum:conj(u)conj(u)*(1,2)", "left": "1", "right": "1",
                 "coefficient": GaussianRational(1).exact_str()},
                {"relation": "colprod-tie(1,2;2)", "left": "1", "right": "1",
                 "coefficient": GaussianRational(-1).exact_str()},
            ],
        }
        if not replay_combination(p, pres, evidence):
            return Certificate(INCONCLUSIVE, detail="constructed combination failed exact replay")
        cross = ideal_membership_bounded(p, pres, 2, want_combination=False)
        if cross.status != PROVED_ZERO:
            return Certificate(INCONCLUSIVE, detail="bounded membership cross-check disagreed")
        return Certificate(PROVED_ZERO, zero_evidence=evidence,
                           detail="2·X(1,2) equals the conjugate-unitarity sum at (1,2) "
                                  "minus the column tie; replayed exactly")

    _timed(report, "X12-vanishes", check_zero)

    def check_nonzero():
        # the witness is a model of the mixed pair's own sphere, epsilon = 0 included
        if not (guard_ok and pair.epsilon == _NONINJ_EPSILON):
            return Certificate(INCONCLUSIVE, detail="guard: witness model targets the mixed pair")
        from . import repmodels
        model = repmodels.noninjectivity_sphere_model()
        residuals = repmodels.model_residuals(model)
        if residuals.max > RESIDUAL_TOLERANCE:
            return Certificate(INCONCLUSIVE,
                               detail=f"witness model residual {residuals.max:.3g} above tolerance")
        x1 = Poly.generator(Letter("x", 1, 0))
        x2s = Poly.generator(Letter("x", 2, 0, True))
        image = repmodels.evaluate(x1 * x2s, model)
        norm = repmodels.operator_norm(image)
        diag = [float(image[i, i].real) for i in range(model.dim)]
        evidence = {
            "model": model.label,
            "dim": model.dim,
            "poly": "x1.x2*",
            "image_diagonal": diag,
            "image_norm": norm,
            "residual_max": residuals.max,
            "threshold": NONZERO_NORM_THRESHOLD,
        }
        if norm <= NONZERO_NORM_THRESHOLD:
            return Certificate(INCONCLUSIVE, nonzero_evidence=evidence,
                               detail=f"witness image norm {norm} is not above the threshold")
        return Certificate(PROVED_NONZERO, nonzero_evidence=evidence,
                           detail=f"witness image diag{tuple(diag)} with norm {norm}")

    _timed(report, "x1x2*-nonzero", check_nonzero, expected=PROVED_NONZERO)
    return report


# ---------------------------------------------------------------------------
# independence suites
# ---------------------------------------------------------------------------

def _x(i, star=False):
    return Poly.generator(Letter("x", i, 0, star))


def _ou(i, j):
    return Poly.generator(Letter("ou", i, j))


# Each row takes (repmodels, seed, dim, torus samples) and returns (model,
# family, gate).  The family is expected to be linearly independent in the
# model, so its expected rank is its length; the gate is the rid prefix of the
# relations the claim rests on, "" for all of them.  A row calls its builder
# through the module, so a rebound attribute is seen.
INDEPENDENCE_SUITES = {
    "probe-products": lambda R, seed, dim, samples: (
        R.probe_pair_model(), R.CONJUGATE_PRODUCTS, "eps"),
    "unit-squares": lambda R, seed, dim, samples: (
        R.probe_pair_model(), [_x(2, True) * _x(2), _x(2) * _x(2, True), Poly.one()], "eps"),
    "torus": lambda R, seed, dim, samples: (
        R.torus_model(samples) if samples else R.torus_model(), R.CONJUGATE_PRODUCTS[:2], ""),
    "free-unitary": lambda R, seed, dim, samples: (
        R.free_unitary_model(dim, seed), R.CONJUGATE_PRODUCTS, ""),
    "o2plus": lambda R, seed, dim, samples: (
        R.o2plus_model(), [_ou(1, 1) * _ou(2, 1), _ou(2, 1) * _ou(1, 1)], ""),
}


def witness_suites(suite: str) -> list:
    """The suite names that one suite name or "all" stands for."""
    if suite == "all":
        return list(INDEPENDENCE_SUITES)
    if suite not in INDEPENDENCE_SUITES:
        raise ValueError(f"unknown witness suite {suite!r}")
    return [suite]


def verify_independence_suite(suites="all", *, svd_threshold: float = SVD_THRESHOLD,
                              residual_tolerance: float = RESIDUAL_TOLERANCE,
                              seed: int = 0, dim: int = 4,
                              torus_samples=None) -> VerificationReport:
    """Run one named witness suite, or "all": build the model, gate on residuals, test rank.

    Each check reports the singular values; ProvedNonzero means the gated
    relations hold within the tolerance and the family reached its expected
    rank above the threshold.  Otherwise the check is Inconclusive, and its
    detail names the worst gated relation or the rank shortfall.
    """
    names = witness_suites(suites)
    from . import repmodels
    report = VerificationReport("witness", {"suites": names, "seed": seed, "dim": dim})

    for name in names:
        def thunk(row=INDEPENDENCE_SUITES[name]):
            model, fam, gate = row(repmodels, seed, dim, torus_samples)
            expected = len(fam)
            residuals = repmodels.model_residuals(
                model, [r for r in model.presentation.all_relations() if r.rid.startswith(gate)])
            result = repmodels.check_independence(fam, model, svd_threshold)
            evidence = {
                "model": model.label,
                "dim": model.dim,
                "family": [poly_str(p) for p in fam],
                "rank": result.rank,
                "expected_rank": expected,
                "singular_values": list(result.singular_values),
                "threshold": svd_threshold,
            }
            if model.seed_used is not None:
                evidence["seed"] = model.seed_used
            if not gate:
                evidence["residual_max"] = residuals.max
            if residuals.max > residual_tolerance:
                desc, res = residuals.worst()
                return Certificate(INCONCLUSIVE, nonzero_evidence=evidence,
                                   detail=f"model {model.label!r} violates gated relation "
                                          f"{desc!r} with residual {res:.3g}")
            if result.rank == expected:
                return Certificate(PROVED_NONZERO, nonzero_evidence=evidence,
                                   detail=f"rank {result.rank}/{expected}")
            return Certificate(INCONCLUSIVE, nonzero_evidence=evidence,
                               detail=f"rank shortfall: {result.rank}/{expected}")

        _timed(report, name, thunk, expected=PROVED_NONZERO)
    return report


# ---------------------------------------------------------------------------
# regularization consistency
# ---------------------------------------------------------------------------

# the product bound of the regularization-consistency span
REGULARIZATION_BOUND = 4


def verify_regularization_consistency(pair: CommutationPair) -> VerificationReport:
    """Check which added relations of the regularized sphere are bounded consequences.

    Some added relations rest on operator-theoretic facts, not on
    finite-degree algebra, so Inconclusive results here are reported rather
    than failed.  Over the non-regular pairs with n <= 3 at bound 4, the
    conclusive cases are mostly the forced-normality relations eta(i,i) (203
    ProvedZero, 108 Inconclusive); the merge relations eps(i,j) / eta(i,j)
    almost never reduce (6 ProvedZero, 576 Inconclusive).
    All added relations are certified against one product span of the base
    sphere, built before the first of them.
    """
    report = VerificationReport("regularization-consistency", pair.to_json_dict())
    reg = regularize(pair)
    if reg == pair:
        report.notices.append("pair is already regular; nothing to check")
        return report
    base = sphere_presentation(pair)
    target = sphere_presentation(reg)
    base_keys = {r.keys[0] for r in base.all_relations()}
    span = build_quotient_basis(base, REGULARIZATION_BOUND)
    for rel in target.all_relations():
        if rel.keys[0] not in base_keys:
            _timed(report, rel.rid, functools.partial(span.certify, rel.poly))
    return report
