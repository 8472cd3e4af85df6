"""Exact noncommutative *-polynomial engine.

Words are tuples of star-decorated letters; polynomials map words to exact
rational coefficients: a Python int, or a Fraction where a value is not
integral.  Every relation here has rational coefficients, so the word algebra
runs over Q, and star only reverses and stars words.  On top of the free
*-algebra the module provides:

* one degree-bounded relation span, `BoundedSpan`: the span of all products
  m1 * r * m2 of total degree <= bound, built once per presentation
  (`build_quotient_basis` is the name verifications build it through): the
  one- and two-term rows join words into signed classes, and only the wider
  rows go through exact sparse Gaussian elimination.  The span keys each
  word by its integer code over the sorted letter roster (`_WordCodes`, one
  table per roster and process from `_roster_codes`), which sorts like the
  word, and keeps the coefficients of the polynomials themselves; a word
  with a letter outside the roster raises `RosterMismatch`.  Every relation
  keeps a word's charge (g_ij carries a row charge e_i and a column charge
  f_j), so a span is a set of independent charge blocks, each with its own
  classes, pivots and residue cache; a residue is a list of (word code,
  coefficient) pairs, cached in its word's block.  A full bound-2 span without
  provenance takes its blocks from one per-process table (`_BLOCKS`) and
  builds only those the table lacks.  Every other span replays each
  relation's rows from the roster's row table, one entry per built charge
  (or one for every charge), and a span given `targets` builds only the
  blocks of the targets' terms, each exactly as the full span holds it.
  `GaussianRational` appears only at the certificate boundary, to format and
  parse evidence coefficients,
* two-leg tensor polynomials, certified zero by reducing each leg against a
  span (`is_zero_tensor`) on integer word codes; `TensorPoly` is a plain
  value with no arithmetic, its terms keyed by the codes of their two words
  over the code tables of its two legs, and relation images are built by
  `apply_tensor_hom` alone, and
* degree-bounded two-sided ideal membership against the same span, with an
  explicit linear combination as evidence when the span tracks provenance;
  `ideal_membership_bounded` is the one-shot form, and builds only the
  charge blocks of its query.

Everything here is pure and exact; no floating point enters this module.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .scalars import GaussianRational, parse_scalar

__all__ = [
    "Letter", "Word", "Poly", "TensorPoly", "BoundedSpan", "Certificate",
    "apply_tensor_hom",
    "build_quotient_basis", "span_descriptor", "is_zero_tensor", "zero_tensor_certificate",
    "ideal_membership_bounded",
    "replay_combination", "word_str", "poly_str",
    "RosterMismatch", "DimensionCap",
]

# Letter tags whose generators are self-adjoint; star() leaves them unstarred.
HERMITIAN_TAGS = frozenset({"ou", "tx"})

# The most monomials, and sparse entries, one relation span may hold: a pivot
# row's entries count one each, and so does each class link (`_Block`); read
# each time a span is built.
SPAN_ENTRY_CAP = 2_000_000

# Generator tuple -> the `_WordCodes` of its words, one table per roster and
# process (`_roster_codes`).  Spans and tensor legs over one roster share it,
# so a tensor's codes read every such span's residue cache directly.
_CODES: dict = {}

# A word's charge packs its row and column counts into one int, one digit each
# (`_WordCodes`).  A count never exceeds the word's length; a roster with a
# starred letter has at least two letters, so the monomial cap keeps its spans'
# words far shorter than _CHARGE_BASE / 2.  No count carries into the next:
# equal ints, equal charges.
_CHARGE_BASE = 1 << 16

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

    Built from {(left word, right word): coefficient} and the generator
    tuples of its two legs, its rosters.  terms maps (left word code, right
    word code) to a coefficient, over the two rosters' code tables `left` and
    `right` (`_roster_codes`); each word is coded once, here, so a letter
    outside its leg's roster raises RosterMismatch.  A value type: images are
    built by `apply_tensor_hom` and reduced by `is_zero_tensor`; nothing may
    mutate terms.
    """

    __slots__ = ("terms", "left", "right")

    def __init__(self, terms: dict, left_roster, right_roster):
        self.left, self.right = _roster_codes(tuple(left_roster)), _roster_codes(tuple(right_roster))
        code1, code2 = self.left.code, self.right.code
        self.terms = {(code1(w1), code2(w2)): c for (w1, w2), c in _rational_terms(terms).items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return self.left is other.left and self.right is other.right and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "TensorPoly(0)"
        # codes sort like words
        parts = [f"{c}·{word_str(self.left.word(k1))}⊗{word_str(self.right.word(k2))}"
                 for (k1, k2), c in sorted(self.terms.items())]
        return "TensorPoly(" + " + ".join(parts) + ")"


def apply_tensor_hom(p: Poly, images: dict, left_roster, right_roster) -> TensorPoly:
    """Extend a generator assignment to p as a *-homomorphism, over two rosters.

    images maps each generator to {(left word, right word): coefficient}.  A
    starred letter takes the leg-wise star of its image (the coefficients are
    rational, so they stay as they are), and a word maps to the leg-wise
    product of its letters' images.  The result is coded over the two rosters,
    so a letter outside either raises RosterMismatch.
    """
    letters: dict = {}
    out: dict = {}
    for w, c in p.items():
        acc = {((), ()): c}
        for l in w:
            img = letters.get(l)
            if img is None:
                img = images.get(l.base())
                if img is None:
                    raise RosterMismatch(f"no image assigned for generator {letter_str(l.base())}")
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
    return TensorPoly(out, left_roster, right_roster)


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

    __slots__ = ("letters", "index", "base", "rows", "row_table", "_letter_charges", "_charges",
                 "_blocks", "_by_code")

    def __init__(self, letters: Sequence[Letter]):
        self.letters = tuple(letters)
        self.index = {l: k for k, l in enumerate(self.letters)}
        self.base = len(self.letters)
        # relation term key -> `coded_relation`: a sweep codes each relation once
        # per roster, and every span builds its rows from that
        self.rows: dict = {}
        # (charge, coded terms, bound) -> `_relation_rows`: a relation's rows in that
        # charge's block (charge None: in every block, for a full build), made by
        # the first span that builds it and replayed by every later one, whatever
        # other charges either builds; an entry may hold no row; a span that takes
        # shared blocks (`_BLOCKS`) never touches it
        self.row_table: dict = {}
        # each letter's charge, by index: g_ij carries e_i + f_j, its star the
        # negative, and a self-adjoint letter 0; e_i and f_j are digits i and n + j
        # over the n rows, then the nonzero columns (the torus x -> D x of a
        # sphere, u -> D1 u D2 of a matrix)
        digit = {axis: _CHARGE_BASE ** k for k, axis in enumerate(sorted(
            {(0, l.row) for l in self.letters} | {(1, l.col) for l in self.letters if l.col}))}
        self._letter_charges = [
            0 if l.star() == l else (-1 if l.starred else 1) * (digit[0, l.row] + digit.get((1, l.col), 0))
            for l in self.letters]
        # the charge tables are filled by the first span built over the roster
        # (`charge_tables`, `code_charges`)
        self._charges: list = []
        self._blocks: list = []
        self._by_code: list = []

    def offset(self, d: int) -> int:
        s = self.base
        return d if s == 1 else (s ** d - 1) // (s - 1)

    def code(self, w: Word) -> int:
        """The code of w; a letter outside the roster raises RosterMismatch."""
        v = 0
        for l in w:
            k = self.index.get(l)
            if k is None:
                raise RosterMismatch(f"letter {letter_str(l)} is not in the roster")
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

    def coded_relation(self, poly: Poly) -> tuple:
        """(degree, row, terms, charge) of a relation polynomial.

        row is {word code: coefficient}, and terms holds each term as
        (length, base-s value, coefficient), both in the polynomial's order;
        charge is that of every term, and terms of different charges raise
        ValueError.
        """
        row = {self.code(w): c for w, c in poly.items()}
        terms = tuple((len(w), self.code(w) - self.offset(len(w)), c) for w, c in poly.items())
        charges = {self.charge(w) for w in poly.terms}
        if len(charges) > 1:
            raise ValueError(f"relation {poly_str(poly)} = 0 mixes charges")
        return poly.degree(), row, terms, charges.pop()

    def charge(self, w: Word) -> int:
        """The sum of w's letter charges, packed into one int (`_CHARGE_BASE`).

        A letter outside the roster raises RosterMismatch.
        """
        per_letter = self._letter_charges
        out = 0
        for l in w:
            k = self.index.get(l)
            if k is None:
                raise RosterMismatch(f"letter {letter_str(l)} is not in the roster")
            out += per_letter[k]
        return out

    def charge_tables(self, length: int) -> tuple:
        """(charges, blocks), each a list indexed by word length d <= length.

        charges[d][v] is the charge of the length-d word with base-s value v,
        and blocks[d] maps a charge to the base-s values of the length-d
        words that carry it, ascending.  Built once per roster, up to the
        longest length asked for.
        """
        charges, blocks = self._charges, self._blocks
        if not charges:
            charges.append([0])
            blocks.append({0: [0]})
        per_letter = self._letter_charges
        while len(charges) <= length:
            row = [c + lc for c in charges[-1] for lc in per_letter]
            block: dict = {}
            for v, c in enumerate(row):
                block.setdefault(c, []).append(v)
            charges.append(row)
            blocks.append(block)
        return charges, blocks

    def code_charges(self, length: int) -> list:
        """The charge of every word of length <= length, in a list indexed by word code.

        The codes of the length-d words run from offset(d) on, in base-s
        value order, so the list is `charge_tables`' rows end to end; built
        once per roster, up to the longest length asked for.
        """
        by_code = self._by_code
        if len(by_code) < self.offset(length + 1):
            charges = self.charge_tables(length)[0]
            d = 0
            while self.offset(d) < len(by_code):
                d += 1
            for row in charges[d:length + 1]:
                by_code.extend(row)
        return by_code


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


def _exact(x):
    """x, an int or a Fraction, as an int where it is integral."""
    return x.numerator if x.__class__ is Fraction and x.denominator == 1 else x


def _ratio(x, y):
    """x / y exactly, for a nonzero y: an int where it is integral."""
    if y == 1 or y == -1:
        return x * y
    return _exact(Fraction(x) / y)


# The root of every zero class of a `_Block`; no word code is negative, so it is
# less than every word and a class joined with it keeps it as root.
_ZERO = -1


def _find(links: dict, w: int) -> tuple:
    """(root, multiplier, combination) of w's class: w - multiplier * root lies in the span.

    The combination says how; it is None without provenance, and for a root,
    which is its own root with multiplier 1.  The root `_ZERO` (a zero
    class) has multiplier 0.
    Compresses the path: every link on it is replaced by its resolved one,
    whose combination sums those along the path, so the resolved values do
    not depend on which words were looked up before.
    """
    hit = links.get(w)
    if hit is None:
        return w, 1, None
    up = links.get(hit[0])
    if up is None:
        return hit
    path = [w]
    while up is not None:
        path.append(hit[0])
        hit, up = up, links.get(up[0])
    # hit is the link of path[-1], and names the root; resolve the rest top down:
    # node - pm * parent = pc and parent - m * root = combo
    root, m, combo = hit
    for node in reversed(path[:-1]):
        _, pm, pc = links[node]
        m = _exact(pm * m)
        if pc is not None:
            pc = dict(pc)
            _eliminate(pc, -pm, combo)
        combo = pc
        links[node] = (root, m, combo)
    return links[w]


def _join(links: dict, w1: int, w2: int, m, combo: Optional[dict]) -> bool:
    """Join the classes of w1 and w2, given that w1 - m * w2 lies in the span.

    combo is that combination (None without provenance), and is consumed.
    The larger root links to the smaller; a class whose multipliers clash
    goes to zero, and so does one joined with a zero class.  With w2 `_ZERO`
    and m 0, w1 lies in the span, and its class goes to zero.  False when
    the row follows from the classes already.
    """
    # each word's link read inline unless it is a root or there is a path to compress
    hit = links.get(w1)
    r1, a, c1 = (w1, 1, None) if hit is None else hit if hit[0] not in links else _find(links, w1)
    hit = links.get(w2)
    r2, b, c2 = (w2, 1, None) if hit is None else hit if hit[0] not in links else _find(links, w2)
    # a * r1 - m * b * r2 lies in the span, by combo - c1 + m * c2
    mb = _exact(m * b)
    if r1 == r2:
        k = _exact(a - mb)
        if not k:
            return False
        # k * r1 lies in the span
        node, root, mult, scale = r1, _ZERO, 0, k
    elif r1 > r2:
        node, root, mult, scale = r1, r2, _ratio(mb, a), a
    else:
        node, root, mult, scale = r2, r1, _ratio(a, mb), -mb
    if combo is not None:
        if c1:
            _eliminate(combo, 1, c1)
        if c2:
            _eliminate(combo, -m, c2)
        _scale(combo, _ratio(1, scale))
    links[node] = (root, mult, combo)
    return True


def _normalize(links: dict, terms, combo: Optional[dict]) -> dict:
    """The row of these (word code, coefficient) terms, each word of a class
    written as its multiple of the class's root.

    Words of zero classes drop out.  combo, the row's combination (None
    where none is kept), loses c times each word's link combination, so
    that it stays the combination of the row returned.
    """
    out: dict = {}
    get = links.get
    for w, c in terms:
        hit = get(w)
        if hit is not None:
            # the link read inline unless there is a path to compress
            w, m, wc = hit if hit[0] not in links else _find(links, w)
            if combo is not None:
                _eliminate(combo, c, wc)
            if not m:
                continue
            c = c * m
        s = out.get(w, 0) + c
        if s.__class__ is Fraction and s.denominator == 1:
            s = s.numerator
        if s:
            out[w] = s
        else:
            del out[w]
    return out


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


def _roster_codes(generators: tuple) -> _WordCodes:
    """The process's one code table for the words over these generators and their stars.

    Its letters are sorted, and a self-adjoint generator is its own star.
    """
    codes = _CODES.get(generators)
    if codes is None:
        codes = _CODES[generators] = _WordCodes(sorted({l for g in generators for l in (g, g.star())}))
    return codes


def _roster_letters(pres) -> tuple:
    """The generators of pres and their stars, sorted."""
    return _roster_codes(pres.generators).letters


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

PROVED_ZERO = "ProvedZero"
PROVED_NONZERO = "ProvedNonzero"
INCONCLUSIVE = "Inconclusive"


class Certificate:
    """A verdict with its evidence: status, zero or nonzero evidence, and a detail line.

    Two certificates are equal when their status, both evidences and detail
    are.  A tensor-quotient ProvedZero (`zero_tensor_certificate`) keeps only
    its term count and span descriptors, and builds its zero evidence afresh
    on every read, so it is a value: what a reader edits is the reader's own,
    and one object may stand for every check with the same count and spans.
    A certificate built with explicit evidence keeps and returns that dict.
    """

    __slots__ = ("status", "nonzero_evidence", "detail", "_zero_evidence", "_tensor")

    def __init__(self, status: str, zero_evidence: Optional[dict] = None,
                 nonzero_evidence: Optional[dict] = None, detail: str = ""):
        self.status = status
        self._zero_evidence = zero_evidence
        self.nonzero_evidence = nonzero_evidence
        self.detail = detail
        self._tensor = None  # (terms, left descriptor, right descriptor) of a tensor-quotient ProvedZero

    @property
    def zero_evidence(self) -> Optional[dict]:
        if self._tensor is None:
            return self._zero_evidence
        terms, left, right = self._tensor
        return {"kind": "tensor-quotient", "left_basis": dict(left), "right_basis": dict(right),
                "terms": terms}

    def __eq__(self, other):
        if not isinstance(other, Certificate):
            return NotImplemented
        return ((self.status, self.zero_evidence, self.nonzero_evidence, self.detail)
                == (other.status, other.zero_evidence, other.nonzero_evidence, other.detail))

    def __repr__(self) -> str:
        return (f"Certificate(status={self.status!r}, zero_evidence={self.zero_evidence!r}, "
                f"nonzero_evidence={self.nonzero_evidence!r}, detail={self.detail!r})")

    def to_json_dict(self) -> dict:
        out = {"status": self.status}
        zero_evidence = self.zero_evidence
        if zero_evidence is not None:
            out["zero_evidence"] = zero_evidence
        if self.nonzero_evidence is not None:
            out["nonzero_evidence"] = self.nonzero_evidence
        if self.detail:
            out["detail"] = self.detail
        return out


def zero_tensor_certificate(terms: int, left: dict, right: dict) -> Certificate:
    """The ProvedZero `is_zero_tensor` gives a tensor of this many terms that vanishes
    in spans with these descriptors.

    It keeps the count and the two dicts, which no one may edit afterwards,
    and builds its evidence, with fresh copies of both, on every read; so
    checks with equal (terms, left, right) may share one certificate.
    """
    cert = Certificate(PROVED_ZERO)
    cert._tensor = (terms, left, right)
    return cert


def is_zero_tensor(t: TensorPoly, left: BoundedSpan, right: BoundedSpan) -> Certificate:
    """Leg-wise quotient reduction of a tensor element.

    ProvedZero is sound because both spans contain only genuine relations; a
    nonzero reduction is merely Inconclusive until a matrix witness exists.
    t's legs must be coded over the spans' own code tables, which is one
    identity test, since there is one table per roster and process; its
    terms' codes then key each span's residue cache directly.  The products
    are summed as int numerators per denominator (`_accumulate`) and folded
    into rationals once at the end.
    """
    if t.left is not left._codes or t.right is not right._codes:
        raise RosterMismatch("the tensor's legs are not coded over the spans' rosters")
    acc: dict = {}
    # the residue cache read inline: nearly every code is a hit
    cached1, cached2 = left._residue_cache.get, right._residue_cache.get
    for (k1, k2), c in t.terms.items():
        r1 = cached1(k1)
        if r1 is None:
            r1 = left._residue(k1)
        if not r1:
            continue
        r2 = cached2(k2)
        if r2 is None:
            r2 = right._residue(k2)
        if not r2:
            continue
        _accumulate(acc, c, r1, r2)
    coords: dict = {}
    for (m1, m2, d), v in acc.items():
        _add_term(coords, (m1, m2), Fraction(v, d))
    if not coords:
        return zero_tensor_certificate(len(t.terms), left._descriptor, right._descriptor)
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

# (code table, bound, the term keys of one charge's relations in build order)
# -> that charge's `_Block`, made by the first span that needs it and taken by
# every later one; only spans that share blocks read or fill it (`BoundedSpan`)
_BLOCKS: dict = {}


class _Block:
    """One charge block of a span: its word classes, the pivots of its wider
    rows, its residue cache, and counts.

    links holds the signed word classes that the one- and two-term rows make
    (`_join`): it maps each word code that is not its class's
    root, the least code of the class, to (parent, multiplier, combination),
    and each root of a zero class to (`_ZERO`, 0, combination); `_find`
    resolves a word.  pivots maps a lead word code to (row, combination) as
    `_rref_insert` stores the rows of three or more terms, each first
    normalized through the classes (`_normalize`).  residues maps a word code
    of this charge to its residue; rows counts the rows put in.  entries, the
    sparse entries its links and pivot rows hold, is set on a shared block,
    which every span that takes it counts against its cap.
    """

    __slots__ = ("links", "pivots", "residues", "rows", "entries")

    def __init__(self):
        self.links: dict = {}
        self.pivots: dict = {}
        self.residues: dict = {}
        self.rows = 0
        self.entries = 0


class BoundedSpan:
    """The span of all products m1 * r * m2 of total degree <= bound.

    r runs over the star-closed relations of one presentation and m1, m2 over
    words in its letters; this is a Macaulay matrix in the sense of F4.  It
    is built once, at construction, over integer word codes (`_WordCodes`,
    one table per roster and process) with int coefficients, or Fraction
    ones where a value is not integral (a `Poly` holds no other kind).
    Tensor legs reduce single words against it through a residue cache
    keyed by word code (`_residue`), and `certify` decides membership of one
    polynomial, raising RosterMismatch on a word with a letter outside the
    roster.  With provenance, each class link and each pivot also tracks the
    exact combination of products it stands for, so ProvedZero can carry
    evidence.  Every relation of the presentations here has degree 2, so at
    bound 2 the span is that of the relations themselves.

    Word classes.  Every relation but the sums is a binomial (w1 = +-w2,
    with rational multipliers in general) or a monomial (w = 0), and so is
    each of its rows; rows of that kind only say that two words are equal up
    to a factor, as in a partially commutative monoid (Diekert, Combinatorics
    on Traces, 1990).  Each block keeps them as signed classes (`_Block`,
    `_join`): each class is represented by its least word code, every other
    word maps to (representative, multiplier), and a class goes to zero when
    the multipliers of a cycle clash or a one-term row meets it.  Only the
    rows of three or more terms are eliminated (`_rref_insert`), each first
    normalized: every word becomes its multiple of its class's
    representative, and words of zero classes drop out (`_normalize`).  In
    the max-code order the leads of the class rows are every word that is
    not a representative and every word of a zero class, and the normalized
    wider rows hold none of them; so the leads of the span are the two sets
    side by side, the rank is the number of class links plus the number of
    pivots, and a word's residue, its normalized form reduced by the pivots,
    is the unique element of w + span that holds no lead.  Ranks, residues
    and membership do not depend on the order rows go in, only the
    combinations do.

    Charge blocks.  A word's charge sums its letters' (`_WordCodes.charge`):
    g_ij carries a row charge e_i and a column charge f_j, its star the
    negative, a self-adjoint letter none.  Every relation family keeps it (it
    grades the diagonal torus u -> D1 u D2), and `coded_relation` refuses a
    relation that does not, so each row m1 * r * m2 lies in one charge, and
    rows of different charges share no word: the matrix splits into
    independent blocks (Faugère, F4, 1999).  A span is its blocks, one
    `_Block` per charge some row reaches, each with its own classes, pivots,
    residue cache and counts; `rank` and `relation_rows` are sums over them.  A word
    is reduced against the block of its charge only (`_residue` finds it by
    `_WordCodes.code_charges`), and a word of a charge no row reaches is its
    own residue.

    Shared blocks.  A full build (no `targets`) without provenance, in which
    every star-closed relation has degree equal to the bound, as in every
    bound-2 span of the four presentation builders, takes its blocks from one
    per-process table (`_BLOCKS`) and makes only the ones it lacks.  Each row
    is then a relation itself, so a block's rows are its charge's relations,
    and the table keys it by the code table, the bound and those relations'
    exact term keys in build order: equal keys, equal rows in equal order,
    equal classes and pivots.  Without provenance no link or pivot names a
    relation id, and a residue is the unique element of w + span holding no
    lead, so every
    span with the block may read and fill its residue cache; a span's own
    cache starts with every residue its blocks hold.  A sweep's tasks meet
    the same few hundred blocks again and again (the 234 span builds of an
    n = 3 sweep take 12,198 blocks, 347 of them distinct), and a
    `sphere-action` task takes the unitary blocks its pair's `hopf` task
    made.  Every other build keeps private blocks: a combination names
    relation ids, which two presentations may give one polynomial
    differently; below the bound's degree a block also holds products of
    relations of other charges, which its key would have to name; and
    targeted builds (regularization's bound-4 spans) repeat no block within
    a pass, so keeping theirs alive would only hold memory.

    Given `targets`, a sequence of polynomials, the span inserts only the
    rows whose charge is that of some target term, each block's rows in the
    order of the full build, so each block it builds is the full span's of
    that charge: residues and combinations inside a built block are exactly
    the full span's, while `rank` and `relation_rows` count only the built
    blocks.  `certify` and `_residue` raise ValueError on a word of a charge
    that was not built.

    Every build that does not share blocks has one row path: it replays each
    relation's rows from its roster's table (`_WordCodes.row_table`), keyed
    by one built charge (None for a full build, which builds every block),
    the relation's coded terms and the bound, as flat arrays of the rows'
    word codes and their m1 and m2 codes (`_relation_rows`); a targeted
    build reads one entry per relation and built charge, in ascending
    charge order.  The relations of one or two terms go first, each joining
    the classes of its rows as it reads the arrays in pairs (`_join_rows`);
    then the wider ones, each row normalized and eliminated.  Rows come per
    entry in one order: m1 ascending, then |m2|, then m2 ascending, one run
    per length; a full build's run is every m2 of that length.  The first
    span to need an entry makes it, visiting only the m1 some m2 completes
    into the entry's block (`_completions`, shared inside that build by
    relations whose charge leaves m1 * m2 one charge to carry); every later
    span that builds the charge puts in the same rows in the same order,
    whatever other charges it builds, so its classes, pivots, residues,
    rank, `relation_rows` and combinations there are those of the first.  A
    block's rows arrive in the same order under every charge set that
    builds it, so a targeted build's blocks are the full build's.
    """

    def __init__(self, presentation, bound: int, *, provenance: bool = False,
                 targets: Optional[Sequence[Poly]] = None):
        if bound < 2:
            raise ValueError("degree bound must be at least 2")
        self.presentation = presentation
        self.bound = bound
        self.provenance = provenance
        codes = self._codes = _roster_codes(presentation.generators)
        # the number of words of degree <= bound; the words themselves are never needed
        monomials = codes.offset(bound + 1)
        entry_cap = self._entry_cap = SPAN_ENTRY_CAP
        if monomials > entry_cap:
            raise DimensionCap(f"{monomials} monomials up to degree {bound} exceed "
                               f"the configured cap {entry_cap}")
        blocks = self._blocks = {}  # charge -> `_Block`
        self._residue_cache: dict = {}
        self._entries = 0
        coded = codes.rows
        relations = []
        # charge -> the term keys of its relations, in order, while every relation
        # so far may share blocks
        shared = {} if targets is None and not provenance else None
        for rid, rpoly, key in _star_closed_relations(presentation):
            hit = coded.get(key)
            if hit is None:
                hit = coded[key] = codes.coded_relation(rpoly)
            relations.append((rid, hit))
            if shared is not None:
                if hit[0] == bound:
                    shared.setdefault(hit[3], []).append(key)
                else:
                    shared = None
        # a block's one- and two-term rows make its classes first (`_join_rows`), and
        # its wider rows go in normalized through them (`_insert`)
        relations.sort(key=lambda entry: len(entry[1][2]) > 2)
        # the charges of the built blocks; None when every block is built
        wanted = self._charges = None if targets is None else {
            codes.charge(w) for p in targets for w in p.terms}
        # each word's charge by code, up to the bound: for the factors m1 and m2
        # of a row, and for `_residue`
        by_code = self._by_code = codes.code_charges(bound)
        insert = self._insert
        if shared is not None:
            for charge, keys in shared.items():
                table_key = (codes, bound, tuple(keys))
                block = _BLOCKS.get(table_key)
                if block is None:
                    block = blocks[charge] = _Block()
                    before = self._entries
                    for key in sorted(keys, key=lambda key: len(coded[key][2]) > 2):
                        row = coded[key][1]
                        if len(row) > 2:
                            insert(block, row.items(), None)
                            continue
                        # a one-term row pairs its word with `_ZERO` by 0 (`_join_rows`)
                        (k1, c1), (k2, c2) = (*row.items(), (_ZERO, 0))[:2]
                        block.rows += 1
                        self._entries += _join(block.links, k1, k2, _ratio(-c2, c1), None)
                    if self._entries > self._entry_cap:
                        self._over_cap()
                    block.entries = self._entries - before
                    # stored only once whole: a build stopped by the cap leaves no block
                    _BLOCKS[table_key] = block
                else:
                    self._entries += block.entries
                    # the span's residue cache starts with every residue its blocks hold
                    self._residue_cache.update(block.residues)
                blocks[charge] = block
            if self._entries > self._entry_cap:
                self._over_cap()
        else:
            # charge -> `_Block`, made by the first row that reaches it
            blocks = defaultdict(_Block)
            power = [codes.base ** d for d in range(bound + 1)]
            offset = [codes.offset(d) for d in range(bound + 1)]
            charges, charge_blocks = codes.charge_tables(bound)
            table = codes.row_table
            # the charge each table entry builds: None, every charge
            parts = (None,) if wanted is None else sorted(wanted)
            # left factors for the rows the table lacks, by the charge m1 * m2 must
            # carry: shared by relations whose charge leaves one need
            completions: dict = {}
            provenance = self.provenance
            for rid, (degree, _, terms, rcharge) in relations:
                pad = bound - degree
                coefficients = [c for _, _, c in terms]
                for part in parts:
                    rows = table.get((part, terms, bound))
                    if rows is None:
                        # every term of r has the charge rcharge (`coded_relation`)
                        need = None if part is None else part - rcharge
                        visits = []
                        for d1 in range(pad + 1):
                            entry = completions.get((need, d1, pad))
                            if entry is None:
                                entry = completions[need, d1, pad] = _completions(
                                    charges, charge_blocks, need, d1, pad - d1)
                            visits.append(entry)
                        # kept even when it reaches no row, so it is never made again
                        rows = table[part, terms, bound] = _relation_rows(
                            terms, visits, power, offset)
                    # each row is len(terms) word codes, one per term in order, and an
                    # m1, m2 pair; a row's words all have its charge
                    words, factors = rows
                    if not factors:
                        continue
                    if len(terms) <= 2:
                        self._join_rows(blocks, words, factors, coefficients, rid)
                        continue
                    factor = iter(factors)
                    for ks, m1, m2 in zip(zip(*[iter(words)] * len(terms)), factor, factor):
                        insert(blocks[by_code[ks[0]]], zip(ks, coefficients),
                               {(rid, m1, m2): 1} if provenance else None)
            self._blocks = dict(blocks)
        self._finish()

    def _join_rows(self, blocks: dict, words, factors, coefficients: list, rid) -> None:
        """Join the classes of each row m1 * r * m2 of a relation r of one or two terms.

        words holds the rows' word codes, len(coefficients) per row, and
        factors their m1 and m2 codes (`_relation_rows`); each row goes to
        the block of its charge.  A row c1 * w1 + c2 * w2 says that
        w1 = -(c2 / c1) * w2, and a row c1 * w1 that w1 = 0.  Each class link
        made counts as one sparse entry.
        """
        by_code, provenance = self._by_code, self.provenance
        factor, added = iter(factors), 0
        # a one-term row pairs its word with `_ZERO`, less than every word, by 0
        c1, c2 = coefficients if len(coefficients) == 2 else (coefficients[0], 0)
        m, x1 = _ratio(-c2, c1), _ratio(1, c1)
        inverse, x2 = (_ratio(1, m), _ratio(1, c2)) if c2 else (None, None)
        word = iter(words)
        for k1, k2, m1, m2 in zip(word, word if c2 else repeat(_ZERO), factor, factor):
            block = blocks[by_code[k1]]
            block.rows += 1
            links = block.links
            if k1 in links or k2 in links:
                added += _join(links, k1, k2, m, {(rid, m1, m2): x1} if provenance else None)
            # two roots, so two classes: the larger links to the smaller
            elif k1 > k2:
                links[k1] = (k2, m, {(rid, m1, m2): x1} if provenance else None)
                added += 1
            else:
                links[k2] = (k1, inverse, {(rid, m1, m2): x2} if provenance else None)
                added += 1
        self._entries += added
        if self._entries > self._entry_cap:
            self._over_cap()

    def _insert(self, block: _Block, terms, combo: Optional[dict]):
        """Insert a row of three or more (word code, coefficient) terms, with its
        combination (None without provenance), into its block's pivots, once
        normalized through the block's classes."""
        row = _normalize(block.links, terms, combo)
        _rref_insert(block.pivots, row, combo)
        block.rows += 1
        # row is consumed: what is left of it is the new pivot row, and pivot
        # rows never change once stored, so a running count is exact
        self._entries += len(row)
        if self._entries > self._entry_cap:
            self._over_cap()

    def _over_cap(self):
        """Raise DimensionCap: the span's sparse entries passed the cap."""
        raise DimensionCap(f"product span at bound {self.bound} exceeded "
                           f"{self._entry_cap} sparse entries")

    def _finish(self) -> None:
        """Sum the blocks' ranks and rows into the span's rank and descriptor."""
        rank = rows = 0
        for block in self._blocks.values():
            rank += len(block.links) + len(block.pivots)
            rows += block.rows
        self.rank = rank
        # the span never changes after construction; every caller of
        # descriptor() gets its own copy, so editing one certificate cannot
        # change another
        self._descriptor = span_descriptor(self.presentation, self.bound, rows, rank)

    def descriptor(self) -> dict:
        return dict(self._descriptor)

    def _check_built(self, words) -> None:
        """Raise ValueError on a word whose charge block this span did not build."""
        if self._charges is not None:
            charge = self._codes.charge
            for w in words:
                if charge(w) not in self._charges:
                    raise ValueError(f"{word_str(w)} lies in a charge block this span did not build")

    def _residue(self, key: int) -> list:
        """The residue of the word with this code, read from or cached in its block.

        Cached in this span under the code as well, where `is_zero_tensor`
        reads it first; a word of a charge with no block is its own residue.
        """
        by_code, codes = self._by_code, self._codes
        charge = by_code[key] if key < len(by_code) else codes.charge(codes.word(key))
        if self._charges is not None and charge not in self._charges:
            self._check_built((codes.word(key),))
        block = self._blocks.get(charge)
        if block is None:
            res = [(key, 1)]
        else:
            res = block.residues.get(key)
            if res is None:
                row = _normalize(block.links, ((key, 1),), None)
                res = block.residues[key] = list(_rref_reduce(block.pivots, row).items())
        self._residue_cache[key] = res
        return res

    def certify(self, p: Poly) -> Certificate:
        """Membership of p in the span, decided block by block.

        ProvedZero evidence (with provenance) carries the exact linear
        combination, with cleared denominators, so the certificate shows
        integer coefficients such as the factor 2 in the vanishing
        column-product computation.  A term of an unbuilt charge raises
        ValueError.
        """
        _check_product_degree(p, self.bound)
        code, charge_of = self._codes.code, self._codes.charge
        parts: dict = {}  # charge -> {word code: coefficient}
        for w, c in p.items():
            parts.setdefault(charge_of(w), {})[code(w)] = _rational(c)
        if self._charges is not None and not self._charges.issuperset(parts):
            self._check_built(p.terms)
        used: dict = {}
        on_use = None
        if self.provenance:
            def on_use(c, pcombo):
                _eliminate(used, -c, pcombo)
        residue = 0
        for charge, row in parts.items():
            block = self._blocks.get(charge)
            if block is not None:
                # what normalizing takes out of p is the words' link combinations
                taken = {} if self.provenance else None
                row = _rref_reduce(block.pivots, _normalize(block.links, row.items(), taken), on_use)
                if taken:
                    _eliminate(used, 1, taken)
            residue += len(row)
        if residue:
            return Certificate(INCONCLUSIVE, detail=f"{residue} monomial(s) "
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


def span_descriptor(pres, bound: int, relation_rows: int, rank: int) -> dict:
    """How a span of pres at this bound, with these row and rank counts, names itself in evidence."""
    return {
        "presentation": pres.label,
        "degree_bound": bound,
        "relation_rows": relation_rows,
        "rank": rank,
        "monomials": _roster_codes(pres.generators).offset(bound + 1),
    }


def build_quotient_basis(pres, bound: int = 2, *, targets: Optional[Sequence[Poly]] = None) -> BoundedSpan:
    """The span every verification reduces against: products of total degree <= bound.

    With targets, only the charge blocks of the targets' terms are built
    (`BoundedSpan`), on any presentation; the queries must then lie in those
    blocks.  A relation that mixes charges raises ValueError.
    """
    return BoundedSpan(pres, bound, targets=targets)


def _check_product_degree(p: Poly, product_bound: int):
    if p.degree() > product_bound:
        raise ValueError(f"degree {p.degree()} exceeds product bound {product_bound}")


def ideal_membership_bounded(p: Poly, pres, product_bound: int = 2, *,
                             want_combination: bool = True) -> Certificate:
    """One-shot membership of p in the span of m1 * r * m2, total degree <= product_bound.

    Builds a BoundedSpan for this single query, holding only the charge
    blocks of p's terms; the verdict and the combination are the full
    span's.  Callers with several targets over one presentation should build
    the span once and certify each.
    """
    _check_product_degree(p, product_bound)
    return BoundedSpan(pres, product_bound, provenance=want_combination, targets=(p,)).certify(p)


def _completions(charges: list, blocks: list, need: Optional[int], d1: int, rest: int) -> list:
    """The left factors m1 of length d1 that some m2 completes, as (v1, runs) by ascending v1.

    m1 * m2, with |m2| <= rest, must carry the charge need: the built block's
    less the relation's.  runs lists (|m2|, run) by ascending length, each
    run the ascending m2 values of that length whose charge completes m1's;
    the m1 of one charge share their runs.  With need None every charge is
    built: every m1, each with every m2 of each length.  Called only while a
    build makes rows its roster's table lacks (`_relation_rows`), so a
    charge's entries are made in the first pass that builds it, not per span.
    """
    if need is None:
        runs = [(d2, range(len(charges[d2]))) for d2 in range(rest + 1)]
        return [(v1, runs) for v1 in range(len(charges[d1]))]
    left = blocks[d1]
    by_charge: dict = {}
    for d2 in range(rest + 1):
        right = blocks[d2]
        # the pairs (c1, c2) with c1 + c2 = need, found from the smaller side
        if len(left) <= len(right):
            found = [(c1, need - c1) for c1 in left if need - c1 in right]
        else:
            found = [(need - c2, c2) for c2 in right if need - c2 in left]
        for c1, c2 in found:
            by_charge.setdefault(c1, []).append((d2, right[c2]))
    charge = charges[d1]
    return [(v1, by_charge[charge[v1]]) for v1 in sorted(v for c1 in by_charge for v in left[c1])]


def _relation_rows(terms: tuple, visits: list, power: list, offset: list) -> tuple:
    """The rows m1 * r * m2 of a span build, in insertion order, as (words, factors).

    terms is r's coded terms and visits[|m1|] its `_completions` entry.  words
    holds each row's word codes, one per term of r in terms order, and factors
    each row's m1 and m2 codes; both are flat arrays, so a row is len(terms)
    words and two factors.  m1 * w * m2 has the code
    offset(|m1 w m2|) + (v1 * s^|w| + v_w) * s^|m2| + v2.
    """
    words, factors = array("q"), array("q")
    for d1, pairs in enumerate(visits):
        for v1, runs in pairs:
            m1 = offset[d1] + v1
            head = [(d1 + d, v1 * power[d] + v) for d, v, _ in terms]
            for d2, run in runs:
                p2, o2 = power[d2], offset[d2]
                shifted = [offset[d + d2] + v * p2 for d, v in head]
                words.extend([k + v2 for v2 in run for k in shifted])
                factors.extend([m for v2 in run for m in (m1, o2 + v2)])
    return words, factors


def _star_closed_relations(pres):
    """(rid, poly, term key) of each relation of pres and its star, each polynomial once."""
    return _star_closed(pres.all_relations())


def _star_closed(relations):
    """(rid, poly, term key) of each of the relations and its star, each polynomial once."""
    seen = set()
    for rel in relations:
        for entry in rel.star_closed:
            if entry[2] not in seen:
                seen.add(entry[2])
                yield entry


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
