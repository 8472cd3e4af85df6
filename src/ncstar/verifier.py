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

A simultaneous permutation sigma of the indices maps the presentations of a
pair (epsilon, eta) onto those of (sigma epsilon, sigma eta), by u_ij ->
u_sigma(i)sigma(j), x_i -> x_sigma(i) and tx_ij -> tx_sigma(i)sigma(j), and it
commutes with every coaction above.  So a sweep reduces the coproduct and the
actions once per orbit key, in one orbit table it hands every task; a one-shot
`ncstar verify` hands None and computes no key.  A task's key is its map,
sides and bound, the least relabeling of its matrices over S_n (`_canonical`;
the sphere action takes the pair after `regularize`, the tuple action epsilon
alone), and each span's rows: its star-closed relations relabeled by the
task's own sigma, each up to sign (`_rows`).  A task whose key is absent is
reduced as above, and its span ranks are kept if every check is ProvedZero.
A task whose key is present builds no span and reduces no image: every check
is ProvedZero with evidence of its own, its span descriptors (its
presentation, its own row count, the kept rank) and its image's term count.
Its row count is what a build would insert: each star-closed relation gives
`relation_rows` of its degree at the bound.  This is sound at every bound: a
span is spanned by the products m1 * r * m2 over its star-closed relations r,
so equal rows up to sign make this task's spans the relabeled spans of the
task that was reduced, and the relabeling, which acts on both legs of each
image as the coaction does, carries that task's vanishing images onto this
task's.  An Inconclusive is never carried, and no verdict is ever upgraded.

The matrix models (`repmodels`, and with it numpy) are loaded on demand: only
the non-injectivity witness check and the independence suites import them, so
the purely algebraic tasks never pay for numpy.

Inconclusive is never conflated with failure: it means the bounded certificate
search did not settle the claim.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .ncalg import (Certificate, INCONCLUSIVE, Letter, PROVED_NONZERO,
                    PROVED_ZERO, Poly, _roster_letters, _star_closed_relations,
                    apply_tensor_hom, build_quotient_basis, ideal_membership_bounded,
                    is_zero_tensor, poly_str, relation_rows, replay_combination,
                    span_descriptor, word_str, zero_tensor_certificate)
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
# hundred relations again and again; so each image is built, and its words
# coded, once per process.
_IMAGE_CACHE: dict = {}


def _coaction_images(qg: Presentation, space: Presentation, side: str) -> dict:
    """The coaction of `qg` on `space`, as a generator assignment for `apply_tensor_hom`.

    Each generator x_ic of `space` goes to sum_j q_ij (x) x_jc (alpha) or to
    sum_j q_ji (x) x_jc (beta), where q is the n x n generator matrix of `qg`
    (u or ou) and sphere coordinates carry c = 0, written as a plain
    {(left word, right word): coefficient} dict.  The coproduct is the alpha
    coaction of the quantum unitary group on itself.
    """
    tag, n = qg.generators[0].tag, qg.source_pair.n
    return {g: {((Letter(tag, g.row, j) if side == "alpha" else Letter(tag, j, g.row),),
                 (Letter(g.tag, j, g.col),)): 1 for j in range(1, n + 1)}
            for g in space.generators}


def _verify_hom(report: VerificationReport, relations, images: dict, family: tuple,
                left, right, carried: bool = False) -> None:
    """Push each relation through the *-homomorphism `images` and reduce its image.

    `family` is (name, n, side) and names the assignment; with the relation's
    terms it keys the image cache.  Each relation becomes one timed check; a
    nonempty side prefixes its name ("alpha:rid").
    A star twin of an earlier ProvedZero in this call (see the module
    docstring) gets its partner's verdict and term count, with fresh evidence.
    When `carried`, the orbit table has shown that every image vanishes, so
    each one gets the ProvedZero `is_zero_tensor` would give it, unreduced;
    then `left` and `right` need only a presentation and a descriptor.
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
                cert = (zero_tensor_certificate if carried else is_zero_tensor)(t, left, right)
            if cert.status == PROVED_ZERO:
                proved[key] = cert.zero_evidence
            return cert
        _timed(report, f"{side}:{rel.rid}" if side else rel.rid, thunk)


# ---------------------------------------------------------------------------
# permutation orbits
# ---------------------------------------------------------------------------

# An orbit table: (map, sides, bound, canonical matrices, each span's rows) ->
# the span ranks of a task reduced with it whose checks all came out ProvedZero;
# a span's rows are its star-closed relations relabeled into canonical indices,
# each up to sign, as a sorted tuple of row ids (`_rows`).  This one is the default.
_ORBITS: dict = {}


def _canonical(matrices) -> tuple:
    """(the least relabeling of the n x n matrices over S_n, a sigma that gives it).

    sigma maps index i to sigma[i] (0-based); entry (sigma[i], sigma[j]) of a
    relabeled matrix is entry (i, j) of the original.  A relabeling is
    written as one flat tuple, the matrices' rows in order.  Brute force over
    n! permutations, reached only by sweeps (n <= 4) and callers with a table.
    """
    n = len(matrices[0])
    best = None
    for sigma in itertools.permutations(range(n)):
        inverse = sorted(range(n), key=sigma.__getitem__)
        image = [m[inverse[a]][inverse[b]] for m in matrices for a in range(n) for b in range(n)]
        if best is None or image < best[0]:
            best = (image, sigma)
    return tuple(best[0]), best[1]


# relabeled row up to sign -> its id; the row is its (word, coefficient)
# pairs, sorted, with the first coefficient positive, so p and -p get one id
_ROW_IDS: dict = {}

# (sigma, bound, roster size) -> {term key of a star-closed relation: (the id
# of its relabeled row, the rows a span at the bound inserts for it)}, so a
# warm task reads each relation once
_RELABELED: dict = {}


def _row_id(poly: Poly, sigma: tuple) -> int:
    """The id of poly with each index i (1-based) relabeled to sigma[i - 1] + 1, up to sign.

    A sphere coordinate's column 0 stays 0.
    """
    row = sorted((tuple(Letter(l.tag, sigma[l.row - 1] + 1, l.col and sigma[l.col - 1] + 1, l.starred)
                        for l in w), c) for w, c in poly.items())
    if row[0][1] < 0:
        row = [(w, -c) for w, c in row]
    return _ROW_IDS.setdefault(tuple(row), len(_ROW_IDS))


def _rows(pres: Presentation, sigma: tuple, bound: int) -> tuple:
    """(the sorted ids of pres's star-closed relations under sigma, its span's row count).

    The count is what a build of that span at this bound inserts: `relation_rows`
    of each star-closed relation's degree, over pres's roster.
    """
    letters = len(_roster_letters(pres))
    ids = _RELABELED.get((sigma, bound, letters))
    if ids is None:
        ids = _RELABELED[sigma, bound, letters] = {}
    rows, count = set(), 0
    for _, poly, key in _star_closed_relations(pres):
        hit = ids.get(key)
        if hit is None:
            hit = ids[key] = (_row_id(poly, sigma), relation_rows(poly.degree(), bound, letters))
        rows.add(hit[0])
        count += hit[1]
    return tuple(sorted(rows)), count


class _Described(NamedTuple):
    """A carried task's span: its presentation and descriptor, with no echelon table."""

    presentation: Presentation
    fields: dict

    def descriptor(self) -> dict:
        return dict(self.fields)


def _verify_coaction(report: VerificationReport, matrices: tuple, qg: Presentation,
                     space: Presentation, family: str, sides: tuple, bound: int,
                     orbits: Optional[dict]) -> VerificationReport:
    """Certify that the coaction of `qg` preserves every relation of `space`, on each side.

    A side "" is the alpha coaction with unprefixed check names (the
    coproduct, where `space` is `qg`).  `matrices`, the pair data, place the
    task in its orbit in `orbits`; with None no key is computed.
    """
    presentations = (qg,) if space is qg else (qg, space)
    if orbits is not None:
        canonical, sigma = _canonical(matrices)
        rows = [_rows(pres, sigma, bound) for pres in presentations]
        key = (family, sides, bound, canonical) + tuple(ids for ids, _ in rows)
    ranks = None if orbits is None else orbits.get(key)
    carried = ranks is not None
    if carried:
        spans = [_Described(pres, span_descriptor(pres, bound, count, rank))
                 for pres, (_, count), rank in zip(presentations, rows, ranks)]
    else:
        spans = [build_quotient_basis(pres, bound) for pres in presentations]
    left, right = spans[0], spans[-1]
    first = len(report.checks)
    for side in sides:
        _verify_hom(report, space.all_relations(), _coaction_images(qg, space, side or "alpha"),
                    (family, qg.source_pair.n, side), left, right, carried)
    if orbits is not None and not carried and all(c.passed for c in report.checks[first:]):
        orbits[key] = tuple(s.rank for s in spans)
    return report


def verify_comultiplication(pair: CommutationPair, bound: int = 2,
                            orbits: Optional[dict] = _ORBITS) -> VerificationReport:
    """Certify that the coproduct is a *-homomorphism on the quantum unitary algebra.

    Every defining relation (the exchange families, the starred families, and
    all four unitarity sums for the matrix and its conjugate) is pushed through
    the coproduct and reduced leg-wise at the given degree bound.  `orbits` is
    an orbit table or None.  It, and both actions' `orbits`, default to
    `_ORBITS` only because perfbench calls them positionally and its sweep-n3
    rests on the carry; once perfbench runs through `cli._TARGETS`, drop it.
    """
    pres = unitary_qg_presentation(pair)
    report = VerificationReport("hopf", pair.to_json_dict())
    return _verify_coaction(report, (pair.epsilon, pair.eta), pres, pres, "hopf", ("",), bound, orbits)


def _sides(side: str) -> tuple:
    if side not in ("alpha", "beta", "both"):
        raise ValueError(f"side must be alpha, beta, or both, not {side!r}")
    return ("alpha", "beta") if side == "both" else (side,)


def verify_sphere_action(pair: CommutationPair, side: str = "both", bound: int = 2,
                         orbits: Optional[dict] = _ORBITS) -> VerificationReport:
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
    return _verify_coaction(report, (pair.epsilon, pair.eta), unitary_qg_presentation(pair),
                            sphere_presentation(pair), "sphere", _sides(side), bound, orbits)


def verify_tuple_action(epsilon, side: str = "both", bound: int = 2,
                        orbits: Optional[dict] = _ORBITS) -> VerificationReport:
    """Certify that the orthogonal quantum group acts on the tuple space."""
    qg = orthogonal_qg_presentation(epsilon)
    eps = qg.source_pair.epsilon
    report = VerificationReport("tuple-action", {"n": len(eps), "epsilon": [list(r) for r in eps]})
    return _verify_coaction(report, (eps,), qg, tuple_space_presentation(epsilon), "tuple",
                            _sides(side), bound, orbits)


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
