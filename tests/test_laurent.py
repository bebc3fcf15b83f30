import pytest
from hypothesis import given, settings, strategies as st

from clusterlab.errors import InexactDivisionError
from clusterlab.laurent import LaurentPoly, divide_exact


def P(n, terms):
    return LaurentPoly(n, terms)


x1 = LaurentPoly.variable(2, 0)
x2 = LaurentPoly.variable(2, 1)
one = LaurentPoly.one(2)


def test_add_additive_inverse():
    assert (x1 + (-x1)).is_zero()


def test_add_collects_like_terms():
    assert (x1 + x2) + x2 == P(2, {(1, 0): 1, (0, 1): 2})


def test_add_disjoint_supports():
    inv = P(2, {(-1, 0): 1})
    assert inv + x2 == P(2, {(-1, 0): 1, (0, 1): 1})


def test_add_rejects_variable_mismatch():
    with pytest.raises(ValueError):
        x1 + LaurentPoly.variable(3, 0)


def test_negative_power_raises():
    with pytest.raises(ValueError):
        x1 ** -1


def test_mul_difference_of_squares():
    assert (x1 + one) * (x1 - one) == P(2, {(2, 0): 1, (0, 0): -1})


def test_mul_unit_monomials():
    assert P(2, {(-1, 0): 1}) * x1 == one


def test_mul_by_inverse_monomial():
    got = (x2 + one) * P(2, {(-1, 0): 1})
    assert got == P(2, {(-1, 1): 1, (-1, 0): 1})


def test_divide_by_monomial():
    assert divide_exact(x2 + one, x1) == P(2, {(-1, 1): 1, (-1, 0): 1})


def test_divide_polynomial():
    num = P(2, {(2, 0): 1, (0, 0): -1})
    assert divide_exact(num, x1 - one) == x1 + one


def test_divide_inexact_raises():
    with pytest.raises(InexactDivisionError):
        divide_exact(x1 + x2, x1 + one)


def test_divide_integer_content_matters():
    two_x = P(1, {(1,): 2})
    with pytest.raises(InexactDivisionError):
        divide_exact(LaurentPoly.variable(1, 0), two_x)


def test_denominator_vector_of_initial_variable():
    assert x1.denominator_vector() == (-1, 0)


def test_denominator_vector_after_one_mutation():
    # expansion of the A2 exchange (x2 + 1)/x1, checked by hand
    p = P(2, {(-1, 1): 1, (-1, 0): 1})
    assert p.denominator_vector() == (1, 0)


def test_denominator_vector_deeper_variable():
    p = P(2, {(-1, 0): 1, (-1, -1): 1, (0, -1): 1})  # (x1 + x2 + 1)/(x1 x2)
    assert p.denominator_vector() == (1, 1)


def test_denominator_vector_zero_raises():
    with pytest.raises(ValueError):
        LaurentPoly.zero(2).denominator_vector()


def test_serialization_deterministic_order():
    p = P(2, {(0, 0): 3, (1, 1): -1, (2, 0): 5, (-1, 0): 2})
    assert p.to_str() == "5 * x1^2 + -x1 * x2 + 3 + 2 * x1^-1"
    assert LaurentPoly.zero(2).to_str() == "0"


@st.composite
def _poly2(draw):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exps = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        terms[exps] = draw(st.integers(-5, 5))
    return LaurentPoly(2, terms)


polys2 = _poly2()


@given(polys2, polys2)
@settings(max_examples=200, deadline=None)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(polys2, polys2, polys2)
@settings(max_examples=200, deadline=None)
def test_add_mul_associative_distributive(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys2, polys2)
@settings(max_examples=200, deadline=None)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(polys2, polys2)
@settings(max_examples=200, deadline=None)
def test_divide_round_trip(a, b):
    if b.is_zero():
        return
    assert divide_exact(a * b, b) == a


@given(polys2, st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_denominator_additive_for_monomial_factors(p, e1, e2, c):
    if p.is_zero():
        return
    m = LaurentPoly.monomial(2, (e1, e2), c)
    dv_prod = (p * m).denominator_vector()
    expected = tuple(a + b for a, b in
                     zip(p.denominator_vector(), m.denominator_vector()))
    assert dv_prod == expected
