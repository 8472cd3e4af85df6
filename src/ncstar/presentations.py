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

All values are immutable, and every operation here is a pure function: the
builders' shared relation pool (`_POOL`) changes what is built only in speed.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

from .ncalg import Letter, Poly, poly_str

__all__ = [
    "CommutationPair", "validate_pair", "RegularityReport", "is_regular", "regularize",
    "Relation", "Presentation", "sphere_presentation", "unitary_qg_presentation",
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


@dataclass(frozen=True)
class CommutationPair:
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


@dataclass(frozen=True)
class RegularityReport:
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

@dataclass(frozen=True)
class Relation:
    """One relation polynomial asserted equal to zero.

    Builders share one Relation per word equation (`_POOL`), so its star and
    keys are worked out once per process; nothing may mutate their terms.
    """

    rid: str
    poly: Poly
    description: str = ""

    def describe(self) -> str:
        return self.description or f"{poly_str(self.poly)} = 0"

    @functools.cached_property
    def star(self) -> Poly:
        return self.poly.star()

    @functools.cached_property
    def keys(self) -> tuple:
        """The term sets of poly, of its star and of minus its star, as dict keys."""
        star = self.star.terms
        return (frozenset(self.poly.terms.items()), frozenset(star.items()),
                frozenset((w, -c) for w, c in star.items()))


@dataclass(frozen=True)
class Presentation:
    kind: str  # complex-sphere | unitary-qg | orthogonal-qg | tuple-space
    generators: tuple  # tuple[Letter, ...], unstarred
    relations: tuple  # tuple[Relation, ...]
    sums: tuple  # tuple[Relation, ...]: the normalization and delta-sum relations
    source_pair: CommutationPair

    def all_relations(self) -> tuple:
        return self.relations + self.sums

    @property
    def label(self) -> str:
        return f"{self.kind}[n={self.source_pair.n};{self.source_pair.compact()}]"


# Every Relation the builders have handed out, keyed by its word equation.
# Sweeps meet the same few hundred relations again and again; filled on
# demand, so nothing is built at import.
_POOL: dict = {}


class _RelationBuilder:
    def __init__(self):
        self.relations = []
        self._seen = set()

    def add(self, rid: str, lhs: tuple, rhs=None):
        """The word equation lhs = rhs, or lhs = 0; dropped if trivial or already present up to sign."""
        if lhs == rhs:
            return
        key = lhs if rhs is None else frozenset((lhs, rhs))
        if key in self._seen:
            return
        self._seen.add(key)
        rel = _POOL.get((rid, lhs, rhs))
        if rel is None:
            rel = _POOL[rid, lhs, rhs] = Relation(
                rid, Poly({lhs: 1} if rhs is None else {lhs: 1, rhs: -1}))
        self.relations.append(rel)


def _sum_relation(rid: str, words, delta: bool, description: str) -> Relation:
    """The relation "sum of the words = delta", delta being 0 or 1."""
    words = tuple(words)
    key = (rid, words, delta, description)
    rel = _POOL.get(key)
    if rel is None:
        terms = dict.fromkeys(words, 1)
        if delta:
            terms[()] = -1
        rel = _POOL[key] = Relation(rid, Poly(terms), description)
    return rel


def sphere_presentation(pair: CommutationPair) -> Presentation:
    """The noncommutative complex sphere on x_1..x_n for this pair."""
    n, eps, eta = pair.n, pair.epsilon, pair.eta
    gens = tuple(Letter("x", i, 0) for i in range(1, n + 1))
    rb = _RelationBuilder()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if eps[i - 1][j - 1]:
                rb.add(f"eps({i},{j})", (gens[i - 1], gens[j - 1]), (gens[j - 1], gens[i - 1]))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if eta[i - 1][j - 1]:
                xi_star = gens[i - 1].star()
                rb.add(f"eta({i},{j})", (xi_star, gens[j - 1]), (gens[j - 1], xi_star))
    sums = (_sum_relation("sum:x*x", [(x.star(), x) for x in gens], True, "Σ x_i* x_i = 1"),
            _sum_relation("sum:xx*", [(x, x.star()) for x in gens], True, "Σ x_i x_i* = 1"))
    return Presentation("complex-sphere", gens, tuple(rb.relations), sums, pair)


def _delta_sums(label: str, n: int, word_maker) -> tuple:
    """For each (i,j): sum_k word_maker(i, j, k) = delta_ij, e.g. sum_k u_ik* u_jk = delta_ij."""
    idx = range(1, n + 1)
    return tuple(_sum_relation(f"{label}({i},{j})", [word_maker(i, j, k) for k in idx], i == j,
                               f"{label} entry ({i},{j})")
                 for i in idx for j in idx)


def unitary_qg_presentation(pair: CommutationPair) -> Presentation:
    """The partial-commutation quantum unitary group on n^2 entries u_ij."""
    n, eps, eta = pair.n, pair.epsilon, pair.eta
    gens = tuple(Letter("u", i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    rb = _RelationBuilder()

    def u(i, j, s=False):
        return Letter("u", i, j, s)

    idx = range(1, n + 1)
    # plain exchange family: three epsilon-conditioned cases
    for i, j, k, l in itertools.product(idx, repeat=4):
        ei, ek = eps[i - 1][j - 1], eps[k - 1][l - 1]
        if ei and ek:
            rb.add(f"Reps-comm({i},{j};{k},{l})", (u(i, k), u(j, l)), (u(j, l), u(i, k)))
        elif ei:
            rb.add(f"Reps-xrow({i},{j};{k},{l})", (u(i, k), u(j, l)), (u(j, k), u(i, l)))
        elif ek:
            rb.add(f"Reps-xcol({i},{j};{k},{l})", (u(i, k), u(j, l)), (u(i, l), u(j, k)))
    # starred commutation family
    for i, j, k, l in itertools.product(idx, repeat=4):
        hi, hk = eta[i - 1][j - 1], eta[k - 1][l - 1]
        if hi and hk:
            rb.add(f"Reta-comm({i},{j};{k},{l})",
                   (u(i, k, True), u(j, l)), (u(j, l), u(i, k, True)))
        elif (hi and k != l) or (hk and i != j):
            # exactly one of hi, hk is set here
            rb.add(f"Reta-zero({i},{j};{k},{l}):su", (u(i, k, True), u(j, l)))
            rb.add(f"Reta-zero({i},{j};{k},{l}):us", (u(i, k), u(j, l, True)))
    # fourfold equalities: column products u_ik* u_jk and row products u_ki* u_kj
    free = [k for k in idx if eta[k - 1][k - 1] == 0]
    if free:
        k0 = free[0]
        for i in idx:
            for j in idx:
                if not eta[i - 1][j - 1]:
                    continue
                for k in free:
                    rb.add(f"colprod-swap({i},{j};{k})",
                           (u(i, k, True), u(j, k)), (u(j, k), u(i, k, True)))
                    rb.add(f"rowprod-swap({i},{j};{k})",
                           (u(k, i, True), u(k, j)), (u(k, j), u(k, i, True)))
                    if k != k0:
                        rb.add(f"colprod-tie({i},{j};{k})",
                               (u(i, k, True), u(j, k)), (u(i, k0, True), u(j, k0)))
                        rb.add(f"rowprod-tie({i},{j};{k})",
                               (u(k, i, True), u(k, j)), (u(k0, i, True), u(k0, j)))
    sums = (_delta_sums("sum:u*u", n, lambda i, j, k: (u(k, i, True), u(k, j)))
            + _delta_sums("sum:uu*", n, lambda i, j, k: (u(i, k), u(j, k, True)))
            + _delta_sums("sum:conj(u)conj(u)*", n, lambda i, j, k: (u(i, k, True), u(j, k)))
            + _delta_sums("sum:conj(u)*conj(u)", n, lambda i, j, k: (u(k, i), u(k, j, True))))
    return Presentation("unitary-qg", gens, tuple(rb.relations), sums, pair)


def _epsilon_family(rb: _RelationBuilder, tag: str, prefix: str, eps: Matrix) -> None:
    """The epsilon-conditioned exchange family of n x n self-adjoint generators g.

    For each (i,j;k,l): if eps_ij and eps_kl, g_ik g_jl = g_jl g_ik; if just one
    of them is 1, g_ik g_jl = 0.  The orthogonal group and the tuple space both
    carry it.
    """
    idx = range(1, len(eps) + 1)
    for i, j, k, l in itertools.product(idx, repeat=4):
        a, b = Letter(tag, i, k), Letter(tag, j, l)
        ei, ek = eps[i - 1][j - 1], eps[k - 1][l - 1]
        if ei and ek:
            rb.add(f"{prefix}-comm({i},{j};{k},{l})", (a, b), (b, a))
        elif ei or ek:
            rb.add(f"{prefix}-zero({i},{j};{k},{l})", (a, b))


def _validate_epsilon(epsilon) -> CommutationPair:
    eps = _freeze(epsilon, "epsilon")
    n = len(eps)
    zeros = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    return validate_pair(eps, zeros)


def orthogonal_qg_presentation(epsilon) -> Presentation:
    """The partial-commutation quantum orthogonal group (self-adjoint entries)."""
    pair = _validate_epsilon(epsilon)
    n, eps = pair.n, pair.epsilon
    gens = tuple(Letter("ou", i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    rb = _RelationBuilder()
    _epsilon_family(rb, "ou", "Ro", eps)

    def v(i, j):
        return Letter("ou", i, j)

    sums = (_delta_sums("sum:row-orth", n, lambda i, j, k: (v(i, k), v(j, k)))
            + _delta_sums("sum:col-orth", n, lambda i, j, k: (v(k, i), v(k, j))))
    return Presentation("orthogonal-qg", gens, tuple(rb.relations), sums, pair)


def tuple_space_presentation(epsilon) -> Presentation:
    """The quantum space of n sphere columns with epsilon-conditioned mixing."""
    pair = _validate_epsilon(epsilon)
    n, eps = pair.n, pair.epsilon
    gens = tuple(Letter("tx", i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    rb = _RelationBuilder()
    _epsilon_family(rb, "tx", "Rt", eps)

    def x(i, j):
        return Letter("tx", i, j)

    idx = range(1, n + 1)
    col = tuple(_sum_relation(f"sum:col-orth({k},{l})", [(x(i, k), x(i, l)) for i in idx], k == l,
                              f"column orthonormality ({k},{l})")
                for k in idx for l in idx)
    return Presentation("tuple-space", gens, tuple(rb.relations), col, pair)


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
    if "epsilon" not in data:
        raise ValueError("pair file is missing the 'epsilon' matrix")
    eps = _freeze(data["epsilon"], "epsilon")
    n = data.get("n", len(eps))
    if type(n) is not int:
        raise ValueError(f"n must be an integer, not {n!r}")
    if n != len(eps):
        raise ValueError(f"declared n={n} but epsilon has {len(eps)} rows")
    eta = data.get("eta")
    if eta is None:
        eta = [[0] * n for _ in range(n)]
    return validate_pair(eps, eta)


def load_pair(path) -> CommutationPair:
    with open(path, "r", encoding="utf-8") as fh:
        return pair_from_json_dict(json.load(fh))


def save_pair(pair: CommutationPair, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pair.to_json_dict(), fh, indent=2)
        fh.write("\n")
