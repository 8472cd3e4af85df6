"""Commutation-pair data and the four presentation families built from it.

A pair of symmetric 0/1 matrices (epsilon, eta) prescribes which coordinates
commute plainly (epsilon) and which commute against stars (eta, whose diagonal
encodes normality).  This module validates pairs, checks and enforces the two
regularity conventions, and constructs the presentations of

* the noncommutative complex sphere on n coordinates,
* the partial-commutation quantum unitary group on n^2 entries,
* the partial-commutation quantum orthogonal group (self-adjoint entries), and
* the quantum space of sphere tuples it acts on.

Every relation is stated as the paper writes it, as a word equation: two
words for lhs = rhs (x_i x_j = x_j x_i), one word for lhs = 0, or a sum of
words equal to delta for the normalizations.  Its polynomial is written down
from those words directly, with no polynomial arithmetic.

A presentation is assembled from pooled relation families, each a function
of one part of the pair: the epsilon family (n and epsilon), the eta family
(n and eta) and the sums (n alone), and it holds its relations only there.
All values are immutable, and every operation here is a pure function: the
builders' shared pool (`_POOL`) changes what is built only in speed.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import NamedTuple

from .ncalg import Letter, Poly, poly_str

__all__ = [
    "CommutationPair", "validate_pair", "RegularityReport", "is_regular", "regularize",
    "Relation", "RelationFamily", "Presentation", "sphere_presentation", "unitary_qg_presentation",
    "orthogonal_qg_presentation", "tuple_space_presentation", "enumerate_pairs",
    "pair_from_json_dict", "load_pair", "save_pair",
]

Matrix = tuple  # tuple[tuple[int, ...], ...]


def _freeze(m, name: str = "matrix") -> Matrix:
    """m as nested tuples; m must be a list of rows, each itself a list."""
    if not isinstance(m, (list, tuple)):
        raise ValueError(f"{name} must be a list of rows, not {m!r}")
    for i, row in enumerate(m, start=1):
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"{name} row {i} must be a list, not {row!r}")
    return tuple(tuple(row) for row in m)


class CommutationPair(NamedTuple):
    """Validated (epsilon, eta) data: symmetric 0/1 matrices, epsilon zero-diagonal."""

    n: int
    epsilon: Matrix
    eta: Matrix

    def compact(self) -> str:
        e = "/".join("".join(str(x) for x in row) for row in self.epsilon)
        h = "/".join("".join(str(x) for x in row) for row in self.eta)
        return f"eps={e};eta={h}"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "epsilon": [list(r) for r in self.epsilon],
                "eta": [list(r) for r in self.eta]}

    def flat(self) -> tuple:
        return tuple(x for row in self.epsilon for x in row) + tuple(x for row in self.eta for x in row)


def validate_pair(epsilon, eta) -> CommutationPair:
    """Validate raw matrices; the raised error names the offending index."""
    eps = _freeze(epsilon, "epsilon")
    et = _freeze(eta, "eta")
    n = len(eps)
    if n < 1:
        raise ValueError("epsilon must be a nonempty square matrix")
    for name, m in (("epsilon", eps), ("eta", et)):
        if len(m) != n:
            raise ValueError(f"{name} has {len(m)} rows, expected {n}")
        for i, row in enumerate(m, start=1):
            if len(row) != n:
                raise ValueError(f"{name} row {i} has length {len(row)}, expected {n}")
            for j, x in enumerate(row, start=1):
                # type(), not isinstance(): True is an int, but not an entry
                if type(x) is not int or x not in (0, 1):
                    raise ValueError(f"{name}[{i},{j}] = {x!r} is not in {{0, 1}}")
    for name, m in (("epsilon", eps), ("eta", et)):
        for i in range(n):
            for j in range(i + 1, n):
                if m[i][j] != m[j][i]:
                    raise ValueError(f"{name} is not symmetric at ({i + 1},{j + 1})/({j + 1},{i + 1})")
    for i in range(n):
        if eps[i][i] != 0:
            raise ValueError(f"epsilon[{i + 1},{i + 1}] must be 0")
    return CommutationPair(n, eps, et)


class RegularityReport(NamedTuple):
    is_regular: bool
    violations_convention_A: tuple  # pairs (i, j), 1-based, i < j
    violations_convention_B: tuple  # indices i, 1-based


def is_regular(pair: CommutationPair) -> RegularityReport:
    """Check the two regularity conventions.

    Convention A: eps_ij must equal eta_ij whenever x_i or x_j is normal.
    Convention B: every non-normal x_i needs a non-normal partner x_j that it
    does not both plainly and star-commute with.
    """
    n, eps, eta = pair.n, pair.epsilon, pair.eta
    bad_a = []
    for i in range(n):
        for j in range(i + 1, n):
            if (eta[i][i] == 1 or eta[j][j] == 1) and eps[i][j] != eta[i][j]:
                bad_a.append((i + 1, j + 1))
    bad_b = []
    for i in range(n):
        if eta[i][i] == 1:
            continue
        ok = any(
            j != i and eta[j][j] == 0 and (eps[i][j] == 0 or eta[i][j] == 0)
            for j in range(n)
        )
        if not ok:
            bad_b.append(i + 1)
    return RegularityReport(not bad_a and not bad_b, tuple(bad_a), tuple(bad_b))


def regularize(pair: CommutationPair) -> CommutationPair:
    """Least fixpoint of the two normality-propagation rules.

    R1: if every non-normal partner of a non-normal x_i both plainly and
    star-commutes with it (vacuously if there is none), x_i is forced normal.
    R2: once x_i or x_j is normal, the two commutation notions for (i, j)
    coincide, so both entries merge to their maximum.

    Both rules only ever raise entries, so the iteration is a monotone closure;
    the output is regular and a regular input is returned unchanged.
    """
    n = pair.n
    eps = [list(row) for row in pair.epsilon]
    eta = [list(row) for row in pair.eta]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if eta[i][i] == 0:
                if all(
                    eps[i][j] == 1 and eta[i][j] == 1
                    for j in range(n)
                    if j != i and eta[j][j] == 0
                ):
                    eta[i][i] = 1
                    changed = True
        for i in range(n):
            for j in range(n):
                if i != j and (eta[i][i] == 1 or eta[j][j] == 1):
                    m = max(eps[i][j], eta[i][j])
                    if eps[i][j] != m or eta[i][j] != m:
                        eps[i][j] = eps[j][i] = m
                        eta[i][j] = eta[j][i] = m
                        changed = True
    return CommutationPair(n, _freeze(eps), _freeze(eta))


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

class Relation:
    """One relation polynomial asserted equal to zero.

    Builders share one Relation per relation template (`_POOL`), so its
    star, keys, star rid and star-closed entries are worked out once per
    process; nothing may mutate it or its terms.  Two relations are equal
    when their rid, polynomial and description are.
    """

    def __init__(self, rid: str, poly: Poly, description: str = ""):
        self.rid = rid
        self.poly = poly
        self.description = description

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (self.rid, self.poly, self.description) == (other.rid, other.poly, other.description)

    def describe(self) -> str:
        return self.description or f"{poly_str(self.poly)} = 0"

    @functools.cached_property
    def star(self) -> Poly:
        return self.poly.star()

    @functools.cached_property
    def star_rid(self) -> str:
        """The rid a span gives the star of this relation."""
        return f"star({self.rid})"

    @functools.cached_property
    def keys(self) -> tuple:
        """The term sets of poly, of its star and of minus its star, as dict keys."""
        star = self.star.terms
        return (frozenset(self.poly.terms.items()), frozenset(star.items()),
                frozenset((w, -c) for w, c in star.items()))

    @functools.cached_property
    def star_closed(self) -> tuple:
        """(rid, poly, term key) of the relation and of its star, each nonzero polynomial once."""
        key, star_key, _ = self.keys
        own = ((self.rid, self.poly, key),) if key else ()
        if star_key and star_key != key:
            return own + ((self.star_rid, self.star, star_key),)
        return own


class RelationFamily:
    """A pooled run of relations that depends on one part of a pair.

    One object per family and process (`_POOL`); it compares and hashes by
    identity, so a consumer may keep what it derives from a family's
    relations under the family itself.
    """

    __slots__ = ("relations",)

    def __init__(self, relations: tuple):
        self.relations = relations  # tuple[Relation, ...]


class Presentation(NamedTuple):
    """A presentation as the union of its relation families, the sums last.

    The families are the only place its relations are held; equal
    presentations have the same family objects.  To edit one, replace one of
    its families (`pres._replace(families=...)`).
    """

    kind: str  # complex-sphere | unitary-qg | orthogonal-qg | tuple-space
    generators: tuple  # tuple[Letter, ...], unstarred
    families: tuple  # tuple[RelationFamily, ...], the sums last
    source_pair: CommutationPair

    def all_relations(self) -> tuple:
        return self.relations + self.sums

    @property
    def relations(self) -> tuple:
        """The relations of every family but the sums."""
        # joined by +, not tuple(chain(...)): a tuple built from an iterator
        # grows by reallocation, and over repeated regularization passes
        # that raised the peak RSS pass after pass
        relations = ()
        for family in self.families[:-1]:
            relations += family.relations
        return relations

    @property
    def sums(self) -> tuple:
        """The normalization and delta-sum relations."""
        return self.families[-1].relations

    @property
    def label(self) -> str:
        return f"{self.kind}[n={self.source_pair.n};{self.source_pair.compact()}]"


# What the builders have handed out, so that a warm rebuild makes no Letter,
# no rid, no Relation and no family:
# * (kind, part, argument) -> RelationFamily, for the part "epsilon", "eta"
#   or "sums" of a presentation kind, whose argument is epsilon, eta or n;
# * (name, indices...) -> (dedup key, Relation) for a word equation, or
#   (None, None) for a trivial lhs == rhs, so that every family holding a
#   relation holds one Relation, which works out its star and keys once;
#   "Reps-comm" is keyed by (i, j, k, l), and a tie by (i, j, k, k0), since
#   its rid omits k0;
# * ("generators", tag, n) for a generator tuple.
# Sweeps meet the same few families again and again; filled on demand, so
# nothing is built at import.
_POOL: dict = {}


def _pooled(key: tuple, build):
    """The pool entry under key; build() makes it on the first call in this process."""
    entry = _POOL.get(key)
    if entry is None:
        entry = _POOL[key] = build()
    return entry


def _generators(tag: str, n: int) -> tuple:
    """x_1..x_n for the sphere tag "x", else the n x n entries g_ij row by row."""
    idx = range(1, n + 1)
    cols = (0,) if tag == "x" else idx
    return _pooled(("generators", tag, n), lambda: tuple(Letter(tag, i, j) for i in idx for j in cols))


def _presentation(kind: str, tag: str, pair: CommutationPair, parts) -> Presentation:
    """kind's presentation of pair, assembled from one pooled family per part.

    parts lists (part, argument, build); the family is pooled under (kind,
    part, argument) and build(argument) makes it.  The last part is the sums.
    """
    families = tuple(_pooled((kind, part, arg), lambda: build(arg)) for part, arg, build in parts)
    return Presentation(kind, _generators(tag, pair.n), families, pair)


class _RelationBuilder:
    """The relations of one family, in order, each present once up to sign."""

    def __init__(self):
        self.relations = []
        self._seen = set()

    def add(self, key: tuple, equation):
        """The word equation under template key; equation() gives (rid, lhs, rhs).

        It stands for lhs = rhs, or lhs = 0 when rhs is None.  equation is
        called once per process; a trivial equation is dropped, and so is
        one already present up to sign.
        """
        dedup, rel = _pooled(key, lambda: _equation_entry(*equation()))
        if rel is None or dedup in self._seen:
            return
        self._seen.add(dedup)
        self.relations.append(rel)

    def family(self) -> RelationFamily:
        return RelationFamily(tuple(self.relations))


def _equation_entry(rid: str, lhs: tuple, rhs) -> tuple:
    """(dedup key, Relation) for lhs = rhs or lhs = 0, or (None, None) if trivial."""
    if lhs == rhs:
        return None, None
    if rhs is None:
        return frozenset((lhs,)), Relation(rid, Poly({lhs: 1}))
    return frozenset((lhs, rhs)), Relation(rid, Poly({lhs: 1, rhs: -1}))


def _sum_relation(rid: str, words, delta: bool, description: str) -> Relation:
    """The relation "sum of the words = delta", delta being 0 or 1."""
    terms = dict.fromkeys(words, 1)
    if delta:
        terms[()] = -1
    return Relation(rid, Poly(terms), description)


def _sphere_family(name: str, m: Matrix) -> RelationFamily:
    """x_i x_j = x_j x_i where epsilon_ij = 1 (name "eps"), x_i* x_j = x_j x_i* where eta_ij = 1 ("eta")."""
    gens = _generators("x", len(m))

    def equation(i, j):
        a, b = gens[i - 1], gens[j - 1]
        if name == "eta":
            a = a.star()
        return f"{name}({i},{j})", (a, b), (b, a)

    rb = _RelationBuilder()
    for i, j in itertools.combinations_with_replacement(range(1, len(m) + 1), 2):
        if m[i - 1][j - 1]:
            rb.add((name, i, j), functools.partial(equation, i, j))
    return rb.family()


def _sphere_sums(n: int) -> RelationFamily:
    gens = _generators("x", n)
    return RelationFamily((_sum_relation("sum:x*x", [(x.star(), x) for x in gens], True, "Σ x_i* x_i = 1"),
                           _sum_relation("sum:xx*", [(x, x.star()) for x in gens], True, "Σ x_i x_i* = 1")))


def sphere_presentation(pair: CommutationPair) -> Presentation:
    """The noncommutative complex sphere on x_1..x_n for this pair."""
    return _presentation("complex-sphere", "x", pair, (
        ("epsilon", pair.epsilon, functools.partial(_sphere_family, "eps")),
        ("eta", pair.eta, functools.partial(_sphere_family, "eta")),
        ("sums", pair.n, _sphere_sums)))


def _delta_sums(label: str, n: int, word_maker, title: str = "") -> tuple:
    """For each (i,j): sum_k word_maker(i, j, k) = delta_ij, e.g. sum_k u_ik* u_jk = delta_ij.

    Each is described as "title (i,j)", by default "label entry (i,j)".
    """
    idx = range(1, n + 1)
    return tuple(_sum_relation(f"{label}({i},{j})", [word_maker(i, j, k) for k in idx], i == j,
                               f"{title or label + ' entry'} ({i},{j})")
                 for i in idx for j in idx)


def _u(i, j, s=False):
    return Letter("u", i, j, s)


def _unitary_epsilon(eps: Matrix) -> RelationFamily:
    """The plain exchange family of the unitary group: three epsilon-conditioned cases."""
    rb = _RelationBuilder()
    for i, j, k, l in itertools.product(range(1, len(eps) + 1), repeat=4):
        ei, ek = eps[i - 1][j - 1], eps[k - 1][l - 1]
        if ei and ek:
            rb.add(("Reps-comm", i, j, k, l), lambda: (
                f"Reps-comm({i},{j};{k},{l})", (_u(i, k), _u(j, l)), (_u(j, l), _u(i, k))))
        elif ei:
            rb.add(("Reps-xrow", i, j, k, l), lambda: (
                f"Reps-xrow({i},{j};{k},{l})", (_u(i, k), _u(j, l)), (_u(j, k), _u(i, l))))
        elif ek:
            rb.add(("Reps-xcol", i, j, k, l), lambda: (
                f"Reps-xcol({i},{j};{k},{l})", (_u(i, k), _u(j, l)), (_u(i, l), _u(j, k))))
    return rb.family()


def _unitary_eta(eta: Matrix) -> RelationFamily:
    """The starred commutation family of the unitary group and its fourfold equalities."""
    rb = _RelationBuilder()
    idx = range(1, len(eta) + 1)
    for i, j, k, l in itertools.product(idx, repeat=4):
        hi, hk = eta[i - 1][j - 1], eta[k - 1][l - 1]
        if hi and hk:
            rb.add(("Reta-comm", i, j, k, l), lambda: (
                f"Reta-comm({i},{j};{k},{l})", (_u(i, k, True), _u(j, l)), (_u(j, l), _u(i, k, True))))
        elif (hi and k != l) or (hk and i != j):
            # exactly one of hi, hk is set here
            rb.add(("Reta-zero:su", i, j, k, l), lambda: (
                f"Reta-zero({i},{j};{k},{l}):su", (_u(i, k, True), _u(j, l)), None))
            rb.add(("Reta-zero:us", i, j, k, l), lambda: (
                f"Reta-zero({i},{j};{k},{l}):us", (_u(i, k), _u(j, l, True)), None))
    # fourfold equalities: column products u_ik* u_jk and row products u_ki* u_kj
    free = [k for k in idx if eta[k - 1][k - 1] == 0]
    if free:
        k0 = free[0]
        for i in idx:
            for j in idx:
                if not eta[i - 1][j - 1]:
                    continue
                for k in free:
                    rb.add(("colprod-swap", i, j, k), lambda: (
                        f"colprod-swap({i},{j};{k})", (_u(i, k, True), _u(j, k)), (_u(j, k), _u(i, k, True))))
                    rb.add(("rowprod-swap", i, j, k), lambda: (
                        f"rowprod-swap({i},{j};{k})", (_u(k, i, True), _u(k, j)), (_u(k, j), _u(k, i, True))))
                    if k != k0:
                        rb.add(("colprod-tie", i, j, k, k0), lambda: (
                            f"colprod-tie({i},{j};{k})",
                            (_u(i, k, True), _u(j, k)), (_u(i, k0, True), _u(j, k0))))
                        rb.add(("rowprod-tie", i, j, k, k0), lambda: (
                            f"rowprod-tie({i},{j};{k})",
                            (_u(k, i, True), _u(k, j)), (_u(k0, i, True), _u(k0, j))))
    return rb.family()


def _unitary_sums(n: int) -> RelationFamily:
    return RelationFamily(
        _delta_sums("sum:u*u", n, lambda i, j, k: (_u(k, i, True), _u(k, j)))
        + _delta_sums("sum:uu*", n, lambda i, j, k: (_u(i, k), _u(j, k, True)))
        + _delta_sums("sum:conj(u)conj(u)*", n, lambda i, j, k: (_u(i, k, True), _u(j, k)))
        + _delta_sums("sum:conj(u)*conj(u)", n, lambda i, j, k: (_u(k, i), _u(k, j, True))))


def unitary_qg_presentation(pair: CommutationPair) -> Presentation:
    """The partial-commutation quantum unitary group on n^2 entries u_ij."""
    return _presentation("unitary-qg", "u", pair, (("epsilon", pair.epsilon, _unitary_epsilon),
                                                   ("eta", pair.eta, _unitary_eta),
                                                   ("sums", pair.n, _unitary_sums)))


def _epsilon_family(tag: str, prefix: str, eps: Matrix) -> RelationFamily:
    """The epsilon-conditioned exchange family of n x n self-adjoint generators g.

    For each (i,j;k,l): if eps_ij and eps_kl, g_ik g_jl = g_jl g_ik; if just one
    of them is 1, g_ik g_jl = 0.  The orthogonal group and the tuple space both
    carry it, each under its own prefix.
    """
    rb = _RelationBuilder()
    comm, zero = f"{prefix}-comm", f"{prefix}-zero"
    for i, j, k, l in itertools.product(range(1, len(eps) + 1), repeat=4):
        ei, ek = eps[i - 1][j - 1], eps[k - 1][l - 1]
        if ei and ek:
            rb.add((comm, i, j, k, l), lambda: (
                f"{comm}({i},{j};{k},{l})",
                (Letter(tag, i, k), Letter(tag, j, l)), (Letter(tag, j, l), Letter(tag, i, k))))
        elif ei or ek:
            rb.add((zero, i, j, k, l), lambda: (
                f"{zero}({i},{j};{k},{l})", (Letter(tag, i, k), Letter(tag, j, l)), None))
    return rb.family()


def _validate_epsilon(epsilon) -> CommutationPair:
    eps = _freeze(epsilon, "epsilon")
    n = len(eps)
    zeros = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    return validate_pair(eps, zeros)


def _orthogonal_sums(n: int) -> RelationFamily:
    def v(i, j):
        return Letter("ou", i, j)

    return RelationFamily(_delta_sums("sum:row-orth", n, lambda i, j, k: (v(i, k), v(j, k)))
                          + _delta_sums("sum:col-orth", n, lambda i, j, k: (v(k, i), v(k, j))))


def orthogonal_qg_presentation(epsilon) -> Presentation:
    """The partial-commutation quantum orthogonal group (self-adjoint entries)."""
    pair = _validate_epsilon(epsilon)
    return _presentation("orthogonal-qg", "ou", pair, (
        ("epsilon", pair.epsilon, functools.partial(_epsilon_family, "ou", "Ro")),
        ("sums", pair.n, _orthogonal_sums)))


def _tuple_sums(n: int) -> RelationFamily:
    def x(i, j):
        return Letter("tx", i, j)

    return RelationFamily(_delta_sums("sum:col-orth", n, lambda i, j, k: (x(k, i), x(k, j)),
                                      "column orthonormality"))


def tuple_space_presentation(epsilon) -> Presentation:
    """The quantum space of n sphere columns with epsilon-conditioned mixing."""
    pair = _validate_epsilon(epsilon)
    return _presentation("tuple-space", "tx", pair, (
        ("epsilon", pair.epsilon, functools.partial(_epsilon_family, "tx", "Rt")),
        ("sums", pair.n, _tuple_sums)))


# the most candidate pairs enumerate_pairs will list: 2^16 at n = 4
_PAIR_CAP = 100_000


def enumerate_pairs(n: int) -> list:
    """All valid pairs of size n in lexicographic order of flattened entries."""
    if n < 1:
        raise ValueError("n must be positive")
    count = 2 ** (n * n)
    if count > _PAIR_CAP:
        raise ValueError(f"{count} candidate pairs exceed the cap of {_PAIR_CAP} (n={n})")
    off = [(i, j) for i in range(n) for j in range(i + 1, n)]
    diag = list(range(n))
    pairs = []
    for eps_bits in itertools.product((0, 1), repeat=len(off)):
        eps = [[0] * n for _ in range(n)]
        for (i, j), b in zip(off, eps_bits):
            eps[i][j] = eps[j][i] = b
        for eta_off in itertools.product((0, 1), repeat=len(off)):
            for eta_diag in itertools.product((0, 1), repeat=n):
                eta = [[0] * n for _ in range(n)]
                for (i, j), b in zip(off, eta_off):
                    eta[i][j] = eta[j][i] = b
                for i, b in zip(diag, eta_diag):
                    eta[i][i] = b
                pairs.append(CommutationPair(n, _freeze(eps), _freeze(eta)))
    pairs.sort(key=lambda p: p.flat())
    return pairs


# ---------------------------------------------------------------------------
# pair files
# ---------------------------------------------------------------------------

def pair_from_json_dict(data: dict) -> CommutationPair:
    if not isinstance(data, dict):
        raise ValueError(f"a pair file must hold a JSON object, not {type(data).__name__}")
    unknown = sorted(set(data) - {"n", "epsilon", "eta"})
    if unknown:
        raise ValueError(f"pair file has unknown key {unknown[0]!r} (expected n, epsilon, eta)")
    if "epsilon" not in data:
        raise ValueError("pair file is missing the 'epsilon' matrix")
    eps = _freeze(data["epsilon"], "epsilon")
    n = data.get("n", len(eps))
    if type(n) is not int:
        raise ValueError(f"n must be an integer, not {n!r}")
    if n != len(eps):
        raise ValueError(f"declared n={n} but epsilon has {len(eps)} rows")
    # only a missing eta means all-zero; a null one is refused like any non-list
    eta = data["eta"] if "eta" in data else [[0] * n for _ in range(n)]
    return validate_pair(eps, eta)


def load_pair(path) -> CommutationPair:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"pair file {str(path)!r} is not valid UTF-8 JSON: {exc}") from exc
    return pair_from_json_dict(data)


def save_pair(pair: CommutationPair, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pair.to_json_dict(), fh, indent=2)
        fh.write("\n")
