"""Exact noncommutative *-polynomial engine.

Words are tuples of star-decorated letters; polynomials map words to exact
rational coefficients: a Python int, or a Fraction where a value is not
integral.  Every relation here has rational coefficients, so the word algebra
runs over Q, and star only reverses and stars words.  On top of the free
*-algebra the module provides:

* one degree-bounded relation span, `BoundedSpan`: the span of all products
  m1 * r * m2 of total degree <= bound, brought to echelon form once per
  presentation by exact sparse Gaussian elimination (`build_quotient_basis`
  is the name verifications build it through).  The elimination keys each
  word by its integer code over the sorted letter roster (`_WordCodes`),
  which sorts like the word, and keeps the coefficients of the polynomials
  themselves; a residue is a list of (word code, coefficient) pairs, and a
  word with a letter outside the roster raises `RosterMismatch`.
  `GaussianRational` appears only at the certificate boundary, to format and
  parse evidence coefficients,
* two-leg tensor polynomials, certified zero by reducing each leg against a
  span (`is_zero_tensor`); `TensorPoly` is a plain value with no arithmetic,
  and relation images are built by `apply_tensor_hom` alone, and
* degree-bounded two-sided ideal membership against the same span, with an
  explicit linear combination as evidence when the span tracks provenance;
  `ideal_membership_bounded` is the one-shot form.

Everything here is pure and exact; no floating point enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .scalars import GaussianRational, parse_scalar

__all__ = [
    "Letter", "Word", "Poly", "TensorPoly", "BoundedSpan", "Certificate",
    "apply_tensor_hom",
    "build_quotient_basis", "is_zero_tensor", "ideal_membership_bounded",
    "replay_combination", "word_str", "poly_str",
    "RosterMismatch", "DimensionCap",
]

# Letter tags whose generators are self-adjoint; star() leaves them unstarred.
HERMITIAN_TAGS = frozenset({"ou", "tx"})

# The most monomials, and sparse pivot entries, one relation span may hold;
# read each time a span is built.
SPAN_ENTRY_CAP = 2_000_000

# Sorted letter roster -> {relation term key: (degree, {word code: coefficient})}.
# A roster depends only on a presentation's kind and n, so a sweep codes each
# relation once per roster, and every span inserts a copy of the row.
_CODED_ROWS: dict = {}

# Display names for tags (the orthogonal family prints as u, the tuple family as x).
_TAG_DISPLAY = {"x": "x", "u": "u", "ou": "u", "tx": "x"}


class RosterMismatch(ValueError):
    """Operands were built over different generator rosters."""


class DimensionCap(RuntimeError):
    """A bounded linear-algebra construction exceeded its configured size cap."""


class Letter(NamedTuple):
    """One star-decorated generator occurrence.

    Sorting a Letter compares (tag, row, col, starred), which is the letter
    order every echelon table leads by: unstarred < starred and single-index
    generators carry col = 0.
    """

    tag: str
    row: int
    col: int
    starred: bool = False

    def star(self) -> "Letter":
        if self.tag in HERMITIAN_TAGS:
            return self
        return Letter(self.tag, self.row, self.col, not self.starred)

    def base(self) -> "Letter":
        """The unstarred generator this letter decorates."""
        if self.starred:
            return Letter(self.tag, self.row, self.col, False)
        return self


Word = tuple  # tuple[Letter, ...]; the empty tuple is the unit 1


def letter_str(l: Letter) -> str:
    name = _TAG_DISPLAY.get(l.tag, l.tag)
    if l.col == 0:
        body = f"{name}{l.row}" if l.row < 10 else f"{name}[{l.row}]"
    elif l.row < 10 and l.col < 10:
        body = f"{name}{l.row}{l.col}"
    else:
        body = f"{name}[{l.row},{l.col}]"
    return body + ("*" if l.starred else "")


def word_str(w: Word) -> str:
    if not w:
        return "1"
    return ".".join(letter_str(l) for l in w)


def word_key(w: Word):
    """Length-lexicographic sort key induced by the letter order."""
    return (len(w), w)


def star_word(w: Word) -> Word:
    return tuple(l.star() for l in reversed(w))


def _rational(c):
    """c as an exact rational: an int, or a Fraction where c is not integral."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"a coefficient must be an int or a Fraction, not {type(c).__name__}")


def _rational_terms(terms: Optional[dict]) -> dict:
    """terms with each coefficient passed through `_rational` and the zeros left out."""
    if not terms:
        return {}
    exact = {k: _rational(c) for k, c in terms.items()}
    return {k: c for k, c in exact.items() if c}


class Poly:
    """Finite map Word -> int or Fraction with no zero coefficients stored.

    The constructor refuses any other coefficient type with a TypeError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = _rational_terms(terms)

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls({(): 1})

    @classmethod
    def from_word(cls, w: Word, c=1) -> "Poly":
        return cls({tuple(w): c})

    @classmethod
    def generator(cls, l: Letter) -> "Poly":
        return cls({(l,): 1})

    def items(self):
        return self.terms.items()

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            cur = out.get(w)
            s = c if cur is None else cur + c
            if not s:
                out.pop(w, None)
            else:
                out[w] = s
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p.terms = {w: -c for w, c in self.terms.items()}
        return p

    def scale(self, c) -> "Poly":
        c = _rational(c)
        if not c:
            return Poly.zero()
        p = Poly.__new__(Poly)
        p.terms = {w: v * c for w, v in self.terms.items()}
        return p

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                cur = out.get(w)
                s = c if cur is None else cur + c
                if not s:
                    out.pop(w, None)
                else:
                    out[w] = s
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def star(self) -> "Poly":
        """Reverse and star every word; conjugation is the identity on Q."""
        p = Poly.__new__(Poly)
        p.terms = {star_word(w): c for w, c in self.terms.items()}
        return p

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"Poly({poly_str(self)})"

    def __str__(self) -> str:
        return poly_str(self)


def poly_str(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for w in sorted(p.terms, key=word_key, reverse=True):
        c = p.terms[w]
        cs = str(c)
        if not w:
            parts.append(cs)
        elif cs == "1":
            parts.append(word_str(w))
        elif cs == "-1":
            parts.append(f"-{word_str(w)}")
        else:
            parts.append(f"{cs}·{word_str(w)}")
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


# ---------------------------------------------------------------------------
# tensor polynomials
# ---------------------------------------------------------------------------

class TensorPoly:
    """Element of the algebraic tensor product of two word algebras.

    terms maps (left word, right word) to a coefficient; each leg references
    only its own roster.  A value type: images are built by `apply_tensor_hom`
    and reduced by `is_zero_tensor`.
    """

    __slots__ = ("terms", "left_roster", "right_roster")

    def __init__(self, terms: Optional[dict] = None, *, left_roster=(), right_roster=()):
        self.left_roster = tuple(left_roster)
        self.right_roster = tuple(right_roster)
        self.terms = _rational_terms(terms)

    def items(self):
        return self.terms.items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "TensorPoly(0)"
        parts = [
            f"{c}·{word_str(a)}⊗{word_str(b)}"
            for (a, b), c in sorted(self.terms.items(), key=lambda kv: (word_key(kv[0][0]), word_key(kv[0][1])))
        ]
        return "TensorPoly(" + " + ".join(parts) + ")"


def apply_tensor_hom(p: Poly, images: dict, left_roster, right_roster) -> TensorPoly:
    """Extend a generator assignment Letter -> TensorPoly to p as a *-homomorphism.

    Each word expands over plain {(left word, right word): coefficient} dicts:
    a starred letter takes the leg-wise star of its image (the coefficients
    are rational, so they stay as they are), and a word maps to the leg-wise
    product of its letters' images.  Every image must be built over the two
    given rosters.
    """
    rosters = (tuple(left_roster), tuple(right_roster))
    letters: dict = {}
    out: dict = {}
    for w, c in p.items():
        acc = {((), ()): c}
        for l in w:
            img = letters.get(l)
            if img is None:
                base = images.get(l.base())
                if base is None:
                    raise RosterMismatch(f"no image assigned for generator {letter_str(l.base())}")
                if (base.left_roster, base.right_roster) != rosters:
                    raise RosterMismatch(f"image of {letter_str(l.base())} built over other rosters")
                img = base.terms
                if l.starred:
                    img = {(star_word(a), star_word(b)): v for (a, b), v in img.items()}
                letters[l] = img
            prod: dict = {}
            for (a1, b1), c1 in acc.items():
                for (a2, b2), c2 in img.items():
                    _add_term(prod, (a1 + a2, b1 + b2), c1 * c2)
            acc = prod
        for k, v in acc.items():
            _add_term(out, k, v)
    return TensorPoly(out, left_roster=rosters[0], right_roster=rosters[1])


def _add_term(acc: dict, k, v) -> None:
    cur = acc.get(k)
    s = v if cur is None else cur + v
    if not s:
        acc.pop(k, None)
    else:
        acc[k] = s


# ---------------------------------------------------------------------------
# integer word codes and exact echelon tables (the elimination behind BoundedSpan)
# ---------------------------------------------------------------------------

class _WordCodes:
    """Integer codes for the words over one sorted letter roster.

    With s letters, a word of length d gets offset(d) plus its base-s value,
    where offset(d) counts the words shorter than d.  Codes order words
    exactly as `word_key` does, so an echelon table keyed by codes leads by
    the same words as one keyed by the words themselves.
    """

    __slots__ = ("letters", "index", "base")

    def __init__(self, letters: Sequence[Letter]):
        self.letters = tuple(letters)
        self.index = {l: k for k, l in enumerate(self.letters)}
        self.base = len(self.letters)

    def offset(self, d: int) -> int:
        s = self.base
        return d if s == 1 else (s ** d - 1) // (s - 1)

    def code(self, w: Word) -> int:
        """The code of w; a letter outside the roster raises RosterMismatch."""
        v = 0
        for l in w:
            k = self.index.get(l)
            if k is None:
                raise RosterMismatch(f"letter {letter_str(l)} is not in the span's roster")
            v = v * self.base + k
        return self.offset(len(w)) + v

    def word(self, key: int) -> Word:
        """The word a code stands for."""
        d = 0
        while self.offset(d + 1) <= key:
            d += 1
        v = key - self.offset(d)
        out = []
        for _ in range(d):
            v, k = divmod(v, self.base)
            out.append(self.letters[k])
        return tuple(reversed(out))


def _eliminate(row: dict, c, prow: dict) -> None:
    """row -= c * prow, in place, dropping zeros and keeping integral values ints."""
    get = row.get
    for w, v in prow.items():
        s = get(w, 0) - c * v
        if s.__class__ is Fraction and s.denominator == 1:
            s = s.numerator
        if s:
            row[w] = s
        else:
            del row[w]


def _scale(row: dict, x) -> None:
    """row *= x, in place, keeping integral values ints."""
    for w, v in row.items():
        v = v * x
        row[w] = v.numerator if v.denominator == 1 else v


def _accumulate(acc: dict, x, r1: list, r2: list) -> None:
    """acc += x * (r1 (x) r2), keyed by (m1, m2, denominator), with int numerators.

    Each product keeps its own denominator in the key, so the loop runs on
    ints only (Fraction arithmetic per product doubled the time of the
    slowest n = 3 sweep tasks); zeros are dropped.
    """
    xn, xd = x.numerator, x.denominator
    for m1, n1 in r1:
        a1, d1 = xn * n1.numerator, xd * n1.denominator
        for m2, n2 in r2:
            k = (m1, m2, d1 * n2.denominator)
            s = acc.get(k, 0) + a1 * n2.numerator
            if s:
                acc[k] = s
            else:
                del acc[k]


def _rref_insert(pivots: dict, row: dict, combo: Optional[dict] = None):
    """Insert one row {code: coefficient} into an exact echelon pivot table.

    Mutates pivots and consumes row and combo: they are reduced and scaled
    in place and stored as the new pivot, whose lead coefficient is 1.
    """
    while row:
        lead = max(row)
        c = row[lead]
        hit = pivots.get(lead)
        if hit is None:
            if c != 1:
                # a lead of -1 is negated, any other is inverted
                inv = -1 if c == -1 else 1 / Fraction(c)
                _scale(row, inv)
                if combo is not None:
                    _scale(combo, inv)
            pivots[lead] = (row, combo)
            return lead
        prow, pcombo = hit
        # prow leads with coefficient 1, so this removes lead from row
        _eliminate(row, c, prow)
        if combo is not None and pcombo is not None:
            _eliminate(combo, c, pcombo)
    return None


def _rref_reduce(pivots: dict, row: dict, on_use=None) -> dict:
    """Reduce a row against the pivot table; returns the residue (mutates row)."""
    while True:
        lead = max((w for w in row if w in pivots), default=None)
        if lead is None:
            return row
        c = row[lead]
        prow, pcombo = pivots[lead]
        if on_use is not None:
            on_use(c, pcombo)
        _eliminate(row, c, prow)


def _roster_letters(pres) -> list:
    """The generators and their stars, sorted; a self-adjoint generator is its own star."""
    return sorted({l for g in pres.generators for l in (g, g.star())})


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

PROVED_ZERO = "ProvedZero"
PROVED_NONZERO = "ProvedNonzero"
INCONCLUSIVE = "Inconclusive"


@dataclass
class Certificate:
    status: str
    zero_evidence: Optional[dict] = None
    nonzero_evidence: Optional[dict] = None
    detail: str = ""

    def to_json_dict(self) -> dict:
        out = {"status": self.status}
        if self.zero_evidence is not None:
            out["zero_evidence"] = self.zero_evidence
        if self.nonzero_evidence is not None:
            out["nonzero_evidence"] = self.nonzero_evidence
        if self.detail:
            out["detail"] = self.detail
        return out


def is_zero_tensor(t: TensorPoly, left: BoundedSpan, right: BoundedSpan) -> Certificate:
    """Leg-wise quotient reduction of a tensor element.

    ProvedZero is sound because both spans contain only genuine relations; a
    nonzero reduction is merely Inconclusive until a matrix witness exists.
    t reduces to rational coefficients keyed by pairs of word codes; a word
    with a letter outside its span's roster raises RosterMismatch.  The
    products are summed as int numerators per denominator (`_accumulate`)
    and folded into rationals once at the end.
    """
    if t.left_roster and tuple(t.left_roster) != tuple(left.presentation.generators):
        raise RosterMismatch("left leg roster does not match the left basis")
    if t.right_roster and tuple(t.right_roster) != tuple(right.presentation.generators):
        raise RosterMismatch("right leg roster does not match the right basis")
    acc: dict = {}
    # residue_word's own cache, read here first: nearly every word is a hit
    cached1, cached2 = left._residue_cache.get, right._residue_cache.get
    for (w1, w2), c in t.items():
        r1 = cached1(w1)
        if r1 is None:
            r1 = left.residue_word(w1)
        if not r1:
            continue
        r2 = cached2(w2)
        if r2 is None:
            r2 = right.residue_word(w2)
        if not r2:
            continue
        _accumulate(acc, c, r1, r2)
    coords: dict = {}
    for (m1, m2, d), v in acc.items():
        _add_term(coords, (m1, m2), Fraction(v, d))
    if not coords:
        return Certificate(PROVED_ZERO, zero_evidence={
            "kind": "tensor-quotient",
            "left_basis": left.descriptor(),
            "right_basis": right.descriptor(),
            "terms": len(t.terms),
        })
    # codes sort like words, so this is the least surviving pair of words
    k1, k2 = min(coords)
    return Certificate(
        INCONCLUSIVE,
        detail=(f"{len(coords)} coordinate(s) survive leg-wise reduction, "
                f"e.g. {word_str(left._codes.word(k1))} ⊗ {word_str(right._codes.word(k2))} "
                f"with coefficient {coords[k1, k2]}"),
    )


# ---------------------------------------------------------------------------
# bounded product spans
# ---------------------------------------------------------------------------

class BoundedSpan:
    """The span of all products m1 * r * m2 of total degree <= bound.

    r runs over the star-closed relations of one presentation and m1, m2 over
    words in its letters; this is a Macaulay matrix in the sense of F4.  The
    echelon table is built once, at construction, over integer word codes
    (`_WordCodes`) with int coefficients, or Fraction ones where a value is
    not integral (a `Poly` holds no other kind).  Tensor legs reduce single
    words against it through a per-word residue cache (`residue_word`), and
    `certify` decides membership of one polynomial; both raise
    RosterMismatch on a word with a letter outside the roster.
    With provenance, each pivot also tracks the exact combination of products
    it stands for, so ProvedZero can carry evidence.  Every relation of the
    presentations here has degree 2, so at bound 2 the span is that of the
    relations themselves.
    """

    def __init__(self, presentation, bound: int, *, provenance: bool = False):
        if bound < 2:
            raise ValueError("degree bound must be at least 2")
        self.presentation = presentation
        self.bound = bound
        self.provenance = provenance
        codes = self._codes = _WordCodes(_roster_letters(presentation))
        # the number of words of degree <= bound; the words themselves are never needed
        monomials = codes.offset(bound + 1)
        entry_cap = self._entry_cap = SPAN_ENTRY_CAP
        if monomials > entry_cap:
            raise DimensionCap(f"{monomials} monomials up to degree {bound} exceed "
                               f"the configured cap {entry_cap}")
        self._pivots: dict = {}
        self._residue_cache: dict = {}
        self._entries = 0
        self._rows = 0
        power = [codes.base ** d for d in range(bound + 1)]
        offset = [codes.offset(d) for d in range(bound + 1)]
        coded = _CODED_ROWS.setdefault(codes.letters, {})
        for rid, rpoly, key in _star_closed_relations(presentation):
            hit = coded.get(key)
            if hit is None:
                hit = coded[key] = (rpoly.degree(), {codes.code(w): c for w, c in rpoly.items()})
            degree, row = hit
            pad = bound - degree
            if pad == 0:
                # the relation's own row, copied: inserting consumes it
                self._insert(dict(row), rid, 0, 0)
                continue
            # each term as (length, base-s value, coefficient); m1 and m2 run over
            # the words of length <= pad in ascending order, and m1 * w * m2 has
            # the code offset(|m1 w m2|) + (v1 * s^|w| + v_w) * s^|m2| + v2
            terms = [(len(w), codes.code(w) - codes.offset(len(w)), c) for w, c in rpoly.items()]
            for d1 in range(pad + 1):
                for v1 in range(power[d1]):
                    head = [(d1 + d, v1 * power[d] + v, c) for d, v, c in terms]
                    for d2 in range(pad - d1 + 1):
                        p2 = power[d2]
                        shifted = [(offset[d + d2] + v * p2, c) for d, v, c in head]
                        for v2 in range(p2):
                            self._insert({k + v2: c for k, c in shifted}, rid,
                                         offset[d1] + v1, offset[d2] + v2)
        # the span never changes after construction; every caller of
        # descriptor() gets its own copy, so editing one certificate cannot
        # change another
        self._descriptor = {
            "presentation": presentation.label,
            "degree_bound": bound,
            "relation_rows": self._rows,
            "rank": self.rank,
            "monomials": monomials,
        }

    def _insert(self, row: dict, rid: str, m1: int, m2: int):
        combo = {(rid, m1, m2): 1} if self.provenance else None
        _rref_insert(self._pivots, row, combo)
        self._rows += 1
        # row is consumed: what is left of it is the new pivot row, and pivot
        # rows never change once stored, so a running count is exact
        self._entries += len(row)
        if self._entries > self._entry_cap:
            raise DimensionCap(f"product span at bound {self.bound} exceeded "
                               f"{self._entry_cap} sparse entries")

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def descriptor(self) -> dict:
        return dict(self._descriptor)

    def residue_word(self, w: Word) -> list:
        """Reduced coordinates of a single word, as [(word code, coefficient), ...].

        Each coefficient is an int, or a Fraction where it is not integral;
        the list is empty when the word lies in the span.  A word with a
        letter outside the roster raises RosterMismatch.
        """
        res = self._residue_cache.get(w)
        if res is None:
            row = _rref_reduce(self._pivots, {self._codes.code(w): 1})
            res = self._residue_cache[w] = list(row.items())
        return res

    def certify(self, p: Poly) -> Certificate:
        """Membership of p in the span.

        ProvedZero evidence (with provenance) carries the exact linear
        combination, with cleared denominators, so the certificate shows
        integer coefficients such as the factor 2 in the vanishing
        column-product computation.
        """
        _check_product_degree(p, self.bound)
        code = self._codes.code
        row = {code(w): _rational(c) for w, c in p.items()}
        used: dict = {}
        on_use = None
        if self.provenance:
            def on_use(c, pcombo):
                _eliminate(used, -c, pcombo)
        residue = _rref_reduce(self._pivots, row, on_use)
        if residue:
            return Certificate(INCONCLUSIVE, detail=f"{len(residue)} monomial(s) "
                                                    "outside the bounded product span")
        if not self.provenance:
            return Certificate(PROVED_ZERO, zero_evidence={
                "kind": "linear-combination", "product_bound": self.bound, "terms": None})
        mult = lcm(*(x.denominator for x in used.values()))
        word = self._codes.word
        terms = [
            {"relation": rid, "left": word_str(word(m1)), "right": word_str(word(m2)),
             "coefficient": GaussianRational.from_fractions(used[rid, m1, m2] * mult).exact_str()}
            for rid, m1, m2 in sorted(used)
        ]
        return Certificate(PROVED_ZERO, zero_evidence={
            "kind": "linear-combination",
            "product_bound": self.bound,
            "lhs_multiple": str(mult),
            "terms": terms,
        })


def build_quotient_basis(pres, bound: int = 2) -> BoundedSpan:
    """The span every verification reduces against: products of total degree <= bound."""
    return BoundedSpan(pres, bound)


def _check_product_degree(p: Poly, product_bound: int):
    if p.degree() > product_bound:
        raise ValueError(f"degree {p.degree()} exceeds product bound {product_bound}")


def ideal_membership_bounded(p: Poly, pres, product_bound: int = 2, *,
                             want_combination: bool = True) -> Certificate:
    """One-shot membership of p in the span of m1 * r * m2, total degree <= product_bound.

    Builds a BoundedSpan for this single query; callers with several targets
    over one presentation should build the span once and certify each.
    """
    _check_product_degree(p, product_bound)
    return BoundedSpan(pres, product_bound, provenance=want_combination).certify(p)


def _star_closed_relations(pres):
    """(rid, poly, term key) of each relation and its star, each polynomial once."""
    out = []
    seen = set()
    for rel in pres.all_relations():
        key, star_key, _ = rel.keys
        for rid, poly, k in ((rel.rid, rel.poly, key), (f"star({rel.rid})", rel.star, star_key)):
            if k in seen or not k:
                continue
            seen.add(k)
            out.append((rid, poly, k))
    return out


def replay_combination(p: Poly, pres, evidence: dict) -> bool:
    """Exactly recompute lhs_multiple * p == sum coeff_i * (m1_i r_i m2_i).

    The multiple must be a nonzero integer, or any p would replay against an
    empty combination.  Every relation is rational, so a coefficient with a
    nonzero imaginary part cannot be part of a valid combination.  Evidence
    that cannot be read (an unknown relation or letter, a malformed number,
    missing terms) replays as False.
    """
    rels = {rid: poly for rid, poly, _ in _star_closed_relations(pres)}
    letters = {word_str((l,)): l for l in _roster_letters(pres)}

    def parse_word(text):
        if text == "1":
            return ()
        return tuple(letters[tok] for tok in text.split("."))

    try:
        mult = int(str(evidence["lhs_multiple"]))
        total = Poly.zero()
        for term in evidence["terms"]:
            rpoly = rels[term["relation"]]
            m1 = parse_word(term["left"])
            m2 = parse_word(term["right"])
            c = parse_scalar(term["coefficient"])
            if c.b:
                return False
            total = total + (Poly.from_word(m1) * rpoly * Poly.from_word(m2)).scale(c.re)
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError):
        return False
    return mult != 0 and total == p.scale(mult)
