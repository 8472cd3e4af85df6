"""Reference check for bound-2 relation-span membership.

Decides whether p is a Q-linear combination of a presentation's relations and
their stars, by exact Fraction elimination written here, so that it shares no
elimination code with `ncstar.ncalg`.
"""

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


def relation_basis(pres) -> list:
    """Echelon rows (pivot word, word -> Fraction) spanning the relations and their stars."""
    basis = []
    for rel in pres.all_relations():
        for poly in (rel.poly, rel.poly.star()):
            assert poly.degree() == 2, f"{rel.rid}: bound 2 spans only degree-2 relations"
            row = _reduce(basis, {w: Fraction(c) for w, c in poly.terms.items()})
            if row:
                pivot = next(iter(row))
                inv = 1 / row[pivot]
                basis.append((pivot, {w: v * inv for w, v in row.items()}))
    return basis


def in_span(basis, p) -> bool:
    """Whether p is a Q-linear combination of the rows of basis."""
    return not _reduce(basis, {w: Fraction(c) for w, c in p.terms.items()})
