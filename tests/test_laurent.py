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
        LaurentPoly(2).denominator_vector()


def test_serialization_deterministic_order():
    p = P(2, {(0, 0): 3, (1, 1): -1, (2, 0): 5, (-1, 0): 2})
    assert p.to_str() == "5 * x1^2 + -x1 * x2 + 3 + 2 * x1^-1"
    assert LaurentPoly(2).to_str() == "0"


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
    m = LaurentPoly(2, {(e1, e2): c})
    dv_prod = (p * m).denominator_vector()
    expected = tuple(a + b for a, b in
                     zip(p.denominator_vector(), m.denominator_vector()))
    assert dv_prod == expected


@st.composite
def _poly3(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(-2, 2)) for _ in range(3))
        terms[exps] = draw(st.integers(-4, 4))
    return LaurentPoly(3, terms)


polys3 = _poly3()


def _scan_divide(num, den):
    """Leading-term division that finds each leading term by scanning the
    whole remainder: the oracle for divide_exact's heap."""
    n = num.n_vars
    if num.is_zero():
        return num
    num_min, den_min = num.min_exponents(), den.min_exponents()
    rem = {tuple(a - b for a, b in zip(e, num_min)): c for e, c in num.terms()}
    den0 = {tuple(a - b for a, b in zip(e, den_min)): c for e, c in den.terms()}
    def grlex(e):
        return (sum(e), e)
    den_lead = max(den0, key=grlex)
    quotient = {}
    while rem:
        lead = max(rem, key=grlex)
        q_e = tuple(a - b for a, b in zip(lead, den_lead))
        if min(q_e) < 0 or rem[lead] % den0[den_lead]:
            raise InexactDivisionError("scan")
        q_c = rem[lead] // den0[den_lead]
        quotient[q_e] = q_c
        for e, c in den0.items():
            te = tuple(a + b for a, b in zip(q_e, e))
            rem[te] = rem.get(te, 0) - q_c * c
            if not rem[te]:
                del rem[te]
    shift = tuple(a - b for a, b in zip(num_min, den_min))
    return LaurentPoly(n, {tuple(a + b for a, b in zip(e, shift)): c
                           for e, c in quotient.items()})


def _quotient_or_error(num, den, divide):
    try:
        return divide(num, den)
    except InexactDivisionError:
        return InexactDivisionError


@given(polys3, polys3)
@settings(max_examples=200, deadline=None)
def test_divide_round_trip_three_variables(a, b):
    if b.is_zero():
        return
    assert divide_exact(a * b, b) == a


@given(polys3, polys3, st.tuples(*[st.integers(-2, 2)] * 3),
       st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_divide_raises_on_a_non_divisible_pair(a, b, exps, c):
    # a Laurent polynomial with two or more terms is not a unit, so it does
    # not divide a * b plus a monomial
    if len(b) < 2:
        return
    with pytest.raises(InexactDivisionError):
        divide_exact(a * b + LaurentPoly(3, {exps: c}), b)


@given(polys3, polys3, polys3)
@settings(max_examples=200, deadline=None)
def test_divide_agrees_with_a_full_scan(a, b, c):
    # divisible and non-divisible pairs alike: the heap raises exactly when
    # the scan does, and otherwise returns the same quotient
    if b.is_zero():
        return
    for num in (a, a * b, a * b + c, a * b * b, c * c):
        assert _quotient_or_error(num, b, divide_exact) == \
            _quotient_or_error(num, b, _scan_divide)


def _assert_canonical(p):
    rebuilt = LaurentPoly(p.n_vars, dict(p.terms()))
    assert p == rebuilt and hash(p) == hash(rebuilt)
    assert all(c != 0 for _, c in p.terms())
    assert all(type(e) is tuple and len(e) == p.n_vars for e, _ in p.terms())


@given(polys3, polys3, st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_arithmetic_results_are_canonical(a, b, k):
    results = [a + b, a - b, -a, a * b, a ** k, b ** k]
    if not b.is_zero():
        results.append(divide_exact(a * b, b))
    for p in results:
        _assert_canonical(p)


@given(polys3)
@settings(max_examples=200, deadline=None)
def test_power_zero_is_one_and_power_one_is_self(p):
    assert p ** 0 == LaurentPoly.one(3)
    assert p ** 1 is p
    assert p ** 3 == p * p * p
