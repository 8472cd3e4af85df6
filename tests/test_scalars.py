"""Exact scalars: the certificate's Gaussian rationals and the sqrt(2) field."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncstar.scalars import GaussianRational, Q_ONE, Q_SQRT2_OVER_2, QuadExact, parse_scalar

ONE = GaussianRational(1)
I = GaussianRational(0, 1)
MINUS_ONE = GaussianRational(-1)

small = st.integers(min_value=-50, max_value=50)
nonzero_den = st.integers(min_value=1, max_value=20)
gaussians = st.builds(GaussianRational, small, small, nonzero_den)


def test_normalization_and_equality():
    assert GaussianRational(2, 4, 6) == GaussianRational(1, 2, 3)
    assert GaussianRational(1, 0, -2) == GaussianRational(-1, 0, 2)
    assert hash(GaussianRational(3, 0, 3)) == hash(ONE)


def test_basic_values():
    assert (ONE + MINUS_ONE).is_zero()
    assert I * I == MINUS_ONE


def test_division_exact():
    x = GaussianRational(3, 5, 7)
    y = GaussianRational(-2, 1, 3)
    assert (x / y) * y == x
    with pytest.raises(ZeroDivisionError):
        x / GaussianRational(0)


def test_exact_str_round_trip_examples():
    for g in (ONE, MINUS_ONE, I, GaussianRational(1, 0, 2), GaussianRational(-3, 7, 12)):
        assert parse_scalar(g.exact_str()) == g
    assert ONE.exact_str() == "1/1+0/1i"
    assert GaussianRational(1, -1, 2).exact_str() == "1/2-1/2i"


@given(gaussians, gaussians)
def test_field_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians, gaussians, gaussians)
def test_field_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(gaussians)
def test_exact_str_round_trip(a):
    assert parse_scalar(a.exact_str()) == a


def test_quad_sqrt2_squares_to_half():
    half = Q_SQRT2_OVER_2 * Q_SQRT2_OVER_2
    assert half == QuadExact(Fraction(1, 2))
    assert complex(half) == 0.5 + 0j


def test_quad_complex_structure():
    i = QuadExact(0, 0, 1, 0)
    assert (i * i) == -Q_ONE
    z = QuadExact(1, 2, 3, 4)
    assert z.conjugate().conjugate() == z
    assert (z + -z).is_zero()
    w = QuadExact(0, 1, 0, 0)
    assert abs(complex(w * w) - 2.0) == 0.0


def _full_product(x, y):
    """The dense product formula over Q(sqrt2, i): all 16 component products."""
    a1, b1, c1, d1 = x.a, x.b, x.c, x.d
    a2, b2, c2, d2 = y.a, y.b, y.c, y.d
    return QuadExact(a1 * a2 + 2 * b1 * b2 - (c1 * c2 + 2 * d1 * d2),
                     a1 * b2 + b1 * a2 - (c1 * d2 + d1 * c2),
                     a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
                     a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)


# components that are often zero, as every witness entry's are
_sparse = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=6))
quads = st.builds(QuadExact, _sparse, _sparse, _sparse, _sparse)


@given(quads, quads)
def test_quad_sparse_product_matches_full_formula(x, y):
    assert x * y == _full_product(x, y)
