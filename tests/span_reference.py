"""Reference check for bounded product-span membership.

Enumerates every product m1 * r * m2 of degree <= bound, for r over a
presentation's relations and their stars and m1, m2 over words in its letters
and their stars, and decides membership, rank and residues by exact
Fraction elimination written here, so that it shares no enumeration or
elimination code with `ncstar.ncalg`.
"""

import itertools
from fractions import Fraction


def _reduce(basis, row: dict) -> dict:
    # each basis row is zero at the pivots of the rows before it, so one pass
    # in insertion order clears every pivot
    for pivot, brow in basis:
        c = row.get(pivot)
        if c:
            for w, v in brow.items():
                row[w] = row.get(w, 0) - c * v
    return {w: v for w, v in row.items() if v}


def _products(pres, bound: int):
    """Every product m1 * r * m2 of degree <= bound, as {word: Fraction}."""
    letters = sorted({l for g in pres.generators for l in (g, g.star())})
    words = [list(itertools.product(letters, repeat=d)) for d in range(bound + 1)]
    for rel in pres.all_relations():
        for poly in (rel.poly, rel.poly.star()):
            pad = bound - poly.degree()
            for d1 in range(pad + 1):
                for d2 in range(pad - d1 + 1):
                    for m1 in words[d1]:
                        for m2 in words[d2]:
                            yield {m1 + w + m2: Fraction(c) for w, c in poly.terms.items()}


def relation_basis(pres, bound: int = 2) -> list:
    """Echelon rows (pivot word, word -> Fraction) spanning every product
    m1 * r * m2 of degree <= bound; at bound 2, with every relation of degree
    2, the relations and their stars themselves.  Each pivot is its row's
    greatest word, longer words first, then by letters, so the pivots are
    the greatest words of the span's elements."""
    basis = []
    for product in _products(pres, bound):
        row = _reduce(basis, product)
        if row:
            pivot = max(row, key=lambda w: (len(w), w))
            inv = 1 / row[pivot]
            basis.append((pivot, {w: v * inv for w, v in row.items()}))
    return basis


def residue(basis, p) -> dict:
    """The element of p + span holding no pivot of basis; one element has
    that property, so with `relation_basis`' pivots it is p's normal form."""
    return _reduce(basis, {w: Fraction(c) for w, c in p.terms.items()})


def in_span(basis, p) -> bool:
    """Whether p is a Q-linear combination of the rows of basis."""
    return not residue(basis, p)
