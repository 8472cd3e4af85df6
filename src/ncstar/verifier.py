"""Certificate-level replays of the structural facts about the presented algebras.

Each verification builds a degree-bounded relation span (`build_quotient_basis`)
for each algebra involved, pushes every defining relation through the map
under test, and certifies that the image vanishes leg-wise in the tensor
quotient.  A span is a set of charge blocks (`ncalg.BoundedSpan`); at bound
2, where every relation here has degree 2, a block's rows are the relations
of its charge, so the full spans of every task take their blocks, pivots
and cached residues alike, from one per-process table and build only the
blocks it lacks: a sphere-action task takes the unitary blocks its pair's
coproduct task built.  The regularization check's targeted bound-4 spans
keep private blocks: within a pass none of their blocks repeats, so keeping
them would only hold memory.  The facts checked:

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
itself.  A relation's image depends only on its polynomial, n and the map,
never on the pair, so each image is built once per process and reused for
every later pair.  The relations themselves are pooled per process too
(`presentations.Relation`), each with its star, and a presentation is the
union of its relation families (`presentations.RelationFamily`): the
epsilon relations, the eta relations and the sums, each fixed by one part of
the pair.  So is each coaction's generator assignment.

A relation family is the unit of the walk.  Its check rows under one (map,
n, side), each relation's check name, image term count and star-twin
partner, are made once per process from the cached images (`_check_rows`,
kept in `_CHECK_ROWS`), and every task, reduced or carried, walks them.  A
relation's partner is an earlier relation of its family whose polynomial is
plus or minus its star.  The map is a *-homomorphism and both spans are
star-closed, so an image vanishes leg-wise exactly when its leg-wise star
does; and the image of r* is the leg-wise star (a (x) b -> a* (x) b*) of
the image of r, which maps the word pairs of one one to one onto those of
the other, so twins have equal term counts (negating r* keeps its word
pairs).  A twin takes its partner's count and builds no image.  A reduced
task (`_verify_hom`) reduces each row's image, except that a twin shares
its partner's certificate if that is a tensor-quotient ProvedZero.  An
Inconclusive is never reused, since its detail names a survivor of its own.

A simultaneous permutation sigma of the indices maps the presentations of a
pair (epsilon, eta) onto those of (sigma epsilon, sigma eta), by u_ij ->
u_sigma(i)sigma(j), x_i -> x_sigma(i) and tx_ij -> tx_sigma(i)sigma(j), and it
commutes with every coaction above.  So a sweep reduces the coproduct and the
actions once per orbit key, in one orbit table it hands every task; a one-shot
`ncstar verify` hands None and computes no key.  A task's key is its map,
sides and bound, the least relabeling of its matrices over S_n (`_canonical`;
the sphere action takes the pair after `regularize`, the tuple action epsilon
alone), and each span's rows: per family, its star-closed relations
relabeled by the task's own sigma, each up to sign and each counted, sorted
once per (family, sigma) (`_rows`).  A task whose key is absent is reduced
as above; if every check is ProvedZero, the key records each span's row
count and rank.  A task whose key is present builds no span and reduces no
image: every check is ProvedZero with the evidence of its span descriptors
(its presentation, the recorded counts) and its row's image term count, as
`is_zero_tensor` states it (`zero_tensor_certificate`), and takes 0
microseconds.  That certificate keeps only the count and the task's two
descriptors, and builds its evidence dict, with fresh copies of both, each
time it is read, so the task makes one per distinct term count and its
checks with that count share it; a sweep row reads only statuses, so it
builds no evidence.

This is sound at every bound: a span is spanned by the products
m1 * r * m2 over its star-closed relations r, so equal rows make this task's
spans, row for row, the relabeled spans of the task that was reduced, and the
relabeling, which acts on both legs of each image as the coaction does,
carries that task's vanishing images onto this task's.  An Inconclusive is
never carried, and no verdict is ever upgraded.

The matrix models (`repmodels`) are loaded on demand: only the
non-injectivity witness check and the independence suites import them.
Every model is exact, and passes its residual gate only if every gated
relation vanishes exactly (`_gate_failure`).  The non-injectivity model's
residuals, image norm and image diagonal are read from its exact entries,
and an independence suite's ProvedNonzero names a nonzero minor of the
family's images, found by exact elimination.

Inconclusive is never conflated with failure: it means the bounded certificate
search did not settle the claim.
"""

from __future__ import annotations

import functools
import itertools
import time
from typing import Optional

from .ncalg import (Certificate, INCONCLUSIVE, Letter, PROVED_NONZERO,
                    PROVED_ZERO, Poly, _star_closed, apply_tensor_hom,
                    build_quotient_basis, ideal_membership_bounded, is_zero_tensor,
                    poly_str, replay_combination, span_descriptor, word_str,
                    zero_tensor_certificate)
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


class CheckResult:
    """One check's verdict.

    `micros` is the time its certificate took: for a reduced relation, its
    image's reduction (not the image's build, which its check row paid); 0
    for a carried check.
    """

    __slots__ = ("name", "certificate", "expected", "micros")

    def __init__(self, name: str, certificate: Certificate, expected: str = PROVED_ZERO,
                 micros: int = 0):
        self.name = name
        self.certificate = certificate
        self.expected = expected
        self.micros = micros

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


class VerificationReport:
    """A task's checks, in the order they ran, and its notices."""

    def __init__(self, task: str, subject: dict):
        self.task = task
        self.subject = subject
        self.checks = []
        self.notices = []

    @property
    def overall(self) -> str:
        statuses = {c.certificate.status for c in self.checks}
        if INCONCLUSIVE in statuses:
            return INCONCLUSIVE
        if statuses <= {PROVED_ZERO}:
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


# The operator norm a witness image must exceed to be reported nonzero.
NONZERO_NORM_THRESHOLD = 1e-6


def _gate_failure(model, residuals) -> Optional[str]:
    """The detail of a model failing its residual gate, naming the worst
    violated relation; None if it passes.  A model passes only if every
    gated relation vanishes exactly, and a failure names a nonzero entry of
    the exact image, whose float residual may read 0 (an entry of 1e-400)."""
    violations = residuals.violations()
    if not violations:
        return None
    desc, _, (i, j) = max(violations, key=lambda row: row[1])
    return (f"model {model.label!r} violates gated relation {desc!r}: "
            f"its exact image is nonzero at entry ({i}, {j})")


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

# (qg generators, space generators, side) -> the coaction's generator
# assignment, made once per process; nothing may mutate one
_COACTIONS: dict = {}


def _coaction_images(qg: Presentation, space: Presentation, side: str) -> dict:
    """The coaction of `qg` on `space`, as a generator assignment for `apply_tensor_hom`.

    Each generator x_ic of `space` goes to sum_j q_ij (x) x_jc (alpha) or to
    sum_j q_ji (x) x_jc (beta), where q is the n x n generator matrix of `qg`
    (u or ou) and sphere coordinates carry c = 0, written as a plain
    {(left word, right word): coefficient} dict.  The coproduct is the alpha
    coaction of the quantum unitary group on itself.
    """
    key = (qg.generators, space.generators, side)
    images = _COACTIONS.get(key)
    if images is None:
        tag, n = qg.generators[0].tag, qg.source_pair.n
        images = _COACTIONS[key] = {
            g: {((Letter(tag, g.row, j) if side == "alpha" else Letter(tag, j, g.row),),
                 (Letter(g.tag, j, g.col),)): 1 for j in range(1, n + 1)}
            for g in space.generators}
    return images


def _image(rel, images: dict, family: tuple, rosters: tuple):
    """rel's image under `images`, read from `_IMAGE_CACHE` and built on a miss.

    `family` is (map, n, side) and names the assignment; with the relation's
    terms it keys the cache.  `rosters` holds the two legs' generators.
    """
    key = family + (rel.keys[0],)
    t = _IMAGE_CACHE.get(key)
    if t is None:
        t = _IMAGE_CACHE[key] = apply_tensor_hom(rel.poly, images, *rosters)
    return t


def _verify_hom(report: VerificationReport, rows: tuple, images: dict, family: tuple,
                rosters: tuple, left, right) -> None:
    """Prove zero the image under the *-homomorphism `images` of each check row's relation.

    `rows` are one relation family's check rows (`_check_rows`), `family`
    and `rosters` are as in `_image`, and each image is reduced against the
    spans `left` and `right` by this module's `is_zero_tensor`, read at each
    call, so a wrapper bound over that name sees every reduction.
    Each row becomes one timed check.  A row whose partner's certificate is
    a tensor-quotient ProvedZero shares it, since a star twin's term count
    and span descriptors are its partner's (see the module docstring); every
    other row's image is reduced.  A check's `micros` covers its reduction:
    its row's image was built when the row was made, unless it is a twin's.
    """
    checks, clock = report.checks, time.perf_counter_ns
    certs = []
    for name, _, rel, partner in rows:
        t0 = clock()
        cert = None if partner is None else certs[partner]
        if cert is None or cert._tensor is None:
            cert = is_zero_tensor(_image(rel, images, family, rosters), left, right)
        certs.append(cert)
        checks.append(CheckResult(name, cert, PROVED_ZERO, (clock() - t0) // 1000))


# (relation family, map, n, side) -> the family's check rows (`_check_rows`),
# made once per process; a `RelationFamily` hashes by identity, so an entry
# serves no other
_CHECK_ROWS: dict = {}


def _check_rows(relations, qg: Presentation, space: Presentation, family: tuple) -> tuple:
    """(check name, image term count, relation, partner index or None) of each relation.

    `family` is (map, n, side) as in `_image`, and names the coaction of qg
    on space; a nonempty side prefixes the name ("alpha:rid").  A relation's
    partner is the first earlier one whose term key is plus or minus that of
    its star: it is a star twin, and takes its partner's count, which equals
    its own (see the module docstring), so no image is built for it.  Every
    other relation's image is built.
    """
    side = family[2]
    prefix = f"{side}:" if side else ""
    images, rosters = _coaction_images(qg, space, side or "alpha"), (qg.generators, space.generators)
    first: dict = {}  # term key -> the index of the first row with it
    rows = []
    for rel in relations:
        key, star_key, negated_star_key = rel.keys
        partner = first.get(star_key, first.get(negated_star_key))
        terms = len(_image(rel, images, family, rosters).terms) if partner is None else rows[partner][1]
        first.setdefault(key, len(rows))
        rows.append((prefix + rel.rid, terms, rel, partner))
    return tuple(rows)


def _family_check_rows(qg: Presentation, space: Presentation, family: tuple) -> list:
    """The check rows of each of space's relation families, read from `_CHECK_ROWS`."""
    rows = []
    for fam in space.families:
        key = (fam,) + family
        fam_rows = _CHECK_ROWS.get(key)
        if fam_rows is None:
            fam_rows = _CHECK_ROWS[key] = _check_rows(fam.relations, qg, space, family)
        rows.append(fam_rows)
    return rows


# ---------------------------------------------------------------------------
# permutation orbits
# ---------------------------------------------------------------------------

# An orbit table: (map, sides, bound, canonical matrices, each span's rows) ->
# the (relation_rows, rank) of each span built by a task whose checks all came
# out ProvedZero; a span's rows are its star-closed relations relabeled into
# canonical indices, each up to sign, one row id each, sorted (`_rows`).
_ORBITS: dict = {}


def _canonical(matrices) -> tuple:
    """(the least relabeling of the n x n matrices over S_n, a sigma that gives it).

    sigma maps index i to sigma[i] (0-based); entry (sigma[i], sigma[j]) of a
    relabeled matrix is entry (i, j) of the original.  A relabeling is
    written as one flat tuple, the matrices' rows in order; of the sigmas
    that give the least one, the first in `itertools.permutations` order is
    returned.  Brute force over n! permutations (`_permutations`), each
    dropped at its first entry above the least so far; reached only by
    sweeps (n <= 4) and callers with a table.
    """
    best = least = None
    for sigma, inverse in _permutations(len(matrices[0])):
        rows = [m[a] for m in matrices for a in inverse]
        if best is None or _precedes(rows, inverse, best):
            best, least = [row[b] for row in rows for b in inverse], sigma
    return tuple(best), least


@functools.cache
def _permutations(n: int) -> tuple:
    """(sigma, its inverse) for each sigma of S_n, in `itertools.permutations` order."""
    pairs = []
    for sigma in itertools.permutations(range(n)):
        inverse = [0] * n
        for i, s in enumerate(sigma):
            inverse[s] = i
        pairs.append((sigma, tuple(inverse)))
    return tuple(pairs)


def _precedes(rows, inverse: tuple, best: list) -> bool:
    """Whether the relabeling with these original rows and inverse sigma is below best.

    Compared entry by entry, stopping at the first that differs; a tie is
    not below.
    """
    k = 0
    for row in rows:
        for b in inverse:
            x = row[b]
            if x != best[k]:
                return x < best[k]
            k += 1
    return False


# relabeled row up to sign -> its id; the row is its (word, coefficient)
# pairs, sorted, with the first coefficient positive, so p and -p get one id
_ROW_IDS: dict = {}

# sigma -> {term key of a star-closed relation: the id of its relabeled row},
# so each relation is relabeled once per sigma, whichever families hold it
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


# (family, sigma) -> the sorted ids of the family's star-closed relations
# under sigma; a `RelationFamily` hashes by identity, so an entry serves no
# other
_FAMILY_ROWS: dict = {}


def _row_ids(family, sigma: tuple) -> tuple:
    """The sorted ids of the family's star-closed relations under sigma."""
    ids = _RELABELED.setdefault(sigma, {})
    rows = []
    for _, poly, key in _star_closed(family.relations):
        rid = ids.get(key)
        if rid is None:
            rid = ids[key] = _row_id(poly, sigma)
        rows.append(rid)
    return tuple(sorted(rows))


def _rows(pres: Presentation, sigma: tuple) -> tuple:
    """The ids of pres's star-closed relations under sigma, one sorted tuple per family.

    Equal per-family multisets give an equal whole multiset, so a key made
    of them carries no more than one made of the whole.  It carries no less
    either: a relabeling keeps each word's stars and each polynomial's terms
    and signs, so no relabeled polynomial of a builder's family, nor its
    star, is one of another family.
    """
    rows = []
    for family in pres.families:
        ids = _FAMILY_ROWS.get((family, sigma))
        if ids is None:
            ids = _FAMILY_ROWS[family, sigma] = _row_ids(family, sigma)
        rows.append(ids)
    return tuple(rows)


def _verify_coaction(report: VerificationReport, matrices: tuple, qg: Presentation,
                     space: Presentation, family: str, sides: tuple, bound: int,
                     orbits: Optional[dict]) -> VerificationReport:
    """Certify that the coaction of `qg` preserves every relation of `space`, on each side.

    A side "" is the alpha coaction with unprefixed check names (the
    coproduct, where `space` is `qg`).  `matrices`, the pair data, place the
    task in its orbit in `orbits`, whose record holds what its span builds
    measured; with None no key is computed.  A recorded task gets its checks
    from the check rows of `space`'s families and reduces nothing.
    """
    presentations = (qg,) if space is qg else (qg, space)
    n = qg.source_pair.n
    record = None
    if orbits is not None:
        canonical, sigma = _canonical(matrices)
        key = (family, sides, bound, canonical) + tuple(_rows(pres, sigma) for pres in presentations)
        record = orbits.get(key)
    if record is not None:
        described = [span_descriptor(pres, bound, rows, rank)
                     for pres, (rows, rank) in zip(presentations, record)]
        left, right = described[0], described[-1]
        shared: dict = {}  # image term count -> the certificate of every check with it
        append = report.checks.append
        for side in sides:
            for rows in _family_check_rows(qg, space, (family, n, side)):
                for name, terms, _, _ in rows:
                    cert = shared.get(terms)
                    if cert is None:
                        cert = shared[terms] = zero_tensor_certificate(terms, left, right)
                    append(CheckResult(name, cert))
        return report
    spans = [build_quotient_basis(pres, bound) for pres in presentations]
    left, right = spans[0], spans[-1]
    rosters = (qg.generators, space.generators)
    first = len(report.checks)
    for side in sides:
        images = _coaction_images(qg, space, side or "alpha")
        for rows in _family_check_rows(qg, space, (family, n, side)):
            _verify_hom(report, rows, images, (family, n, side), rosters, left, right)
    if orbits is not None and all(c.passed for c in report.checks[first:]):
        orbits[key] = tuple((s.descriptor()["relation_rows"], s.rank) for s in spans)
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
        failure = _gate_failure(model, residuals)
        if failure:
            return Certificate(INCONCLUSIVE, detail=failure)
        x1 = Poly.generator(Letter("x", 1, 0))
        x2s = Poly.generator(Letter("x", 2, 0, True))
        image = repmodels.evaluate(x1 * x2s, model)
        norm = repmodels.operator_norm(image)
        diag = [complex(row[i]).real if i in row else 0.0 for i, row in enumerate(image)]
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


def verify_independence_suite(suites="all", *, seed: int = 0, dim: int = 4,
                              torus_samples=None) -> VerificationReport:
    """Run one named witness suite, or "all": build the model, gate on residuals, test rank.

    ProvedNonzero means the gated relations vanish exactly and the family
    reached its expected rank.  The rank is exact: its evidence names a
    nonzero minor of that size, by the family members and the matrix
    entries (row, col) it takes.  Otherwise the check is Inconclusive, and
    its detail names the worst gated relation or the rank shortfall.
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
            result = repmodels.check_independence(fam, model)
            members, entries = result.minor
            evidence = {
                "model": model.label,
                "dim": model.dim,
                "family": [poly_str(p) for p in fam],
                "rank": result.rank,
                "expected_rank": expected,
                "minor": {"members": list(members), "entries": [list(e) for e in entries]},
            }
            if model.seed_used is not None:
                evidence["seed"] = model.seed_used
            if name == "torus" and torus_samples:
                # each sample's phases, exactly, so a checker can rebuild the torus
                evidence["phases"] = [[repmodels.phase_text(z) for z in s] for s in torus_samples]
            if not gate:
                evidence["residual_max"] = residuals.max
            failure = _gate_failure(model, residuals)
            if failure:
                return Certificate(INCONCLUSIVE, nonzero_evidence=evidence, detail=failure)
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
    sphere, built before the first of them.  Every relation conserves
    charge, so that span holds only the charge blocks of the added
    relations' terms (`BoundedSpan`), which gives each the verdict and
    combination of the full span: over the 426 pairs, 51,744 rows instead
    of 497,020.  Those rows are 677 distinct ones: each span replays the
    rows its roster's table keeps per charge, relation and bound, and makes
    only those no earlier span that built the same charge has made.
    """
    report = VerificationReport("regularization-consistency", pair.to_json_dict())
    reg = regularize(pair)
    if reg == pair:
        report.notices.append("pair is already regular; nothing to check")
        return report
    base = sphere_presentation(pair)
    base_keys = {r.keys[0] for r in base.all_relations()}
    added = [rel for rel in sphere_presentation(reg).all_relations() if rel.keys[0] not in base_keys]
    span = build_quotient_basis(base, REGULARIZATION_BOUND, targets=[rel.poly for rel in added])
    for rel in added:
        _timed(report, rel.rid, functools.partial(span.certify, rel.poly))
    return report
