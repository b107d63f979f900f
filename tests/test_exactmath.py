import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tysys.errors import DivisionByZeroPoly, EvalDivisionByZero, InverseOfZero
from tysys.exactmath import (
    LaurentPoly,
    RationalFunction,
    SemifieldElement,
    evaluate,
    expr_from_json,
    expr_to_json,
    gens,
    laurent_divide_exact,
    one_plus,
    random_nonzero_rational,
)

x, y = gens("x", "y")
one = LaurentPoly.one()


def rf(p, q=None):
    return RationalFunction(p if isinstance(p, LaurentPoly) else LaurentPoly.constant(p),
                            q)


# --- Laurent polynomials ---------------------------------------------------


def test_difference_of_squares():
    assert (x + 1) * (x - 1) == x * x - 1


def test_laurent_cancellation():
    assert x ** -1 * x == one


def test_product_of_one_plus_gens():
    y1, y2 = gens("y1", "y2")
    assert (1 + y1) * (1 + y2) == 1 + y1 + y2 + y1 * y2


def test_unused_generators_are_pruned():
    p = x * y * (x * y) ** -1
    assert p == one
    assert p.vars == ()


def test_poly_str_and_repr_smoke():
    p = 2 * x ** 2 - y + Fraction(1, 3)
    assert "x" in str(p) and "LaurentPoly" in repr(p)


small_coeff = st.integers(-4, 4)
small_exp = st.integers(-2, 3)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        mono = (draw(small_exp), draw(small_exp))
        terms[mono] = Fraction(draw(small_coeff))
    return LaurentPoly(("x", "y"), terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_evaluate_is_a_homomorphism(a, b):
    at = {"x": Fraction(3, 2), "y": Fraction(-5, 7)}
    assert (a + b).evaluate(at) == a.evaluate(at) + b.evaluate(at)
    assert (a * b).evaluate(at) == a.evaluate(at) * b.evaluate(at)


# --- exact Laurent division --------------------------------------------------


def test_divide_exact_basic():
    assert laurent_divide_exact(x * x - 1, x - 1) == x + 1


def test_divide_by_monomial_always_works():
    q = laurent_divide_exact(x + y, x)
    assert q == 1 + x ** -1 * y


def test_divide_exact_absent():
    assert laurent_divide_exact(x + 1, x + 2) is None


def test_divide_by_zero_rejected():
    with pytest.raises(DivisionByZeroPoly):
        laurent_divide_exact(x, LaurentPoly.zero())


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_divide_exact_roundtrip(a, b):
    if b.is_zero():
        return
    q = laurent_divide_exact(a * b, b)
    assert q is not None and q == a


# --- rational functions ------------------------------------------------------


def test_rf_add_and_reduce():
    f = rf(x) / rf(x + 1) + rf(1) / rf(x + 1)
    assert f == rf(1)


def test_rf_inv():
    f = RationalFunction(x, 1 + y)
    assert f.inv() == RationalFunction(1 + y, x)
    assert f * f.inv() == rf(1)


def test_rf_inverse_of_zero():
    with pytest.raises(InverseOfZero):
        rf(0).inv()


def test_eq_exact_without_canonical_form():
    assert RationalFunction(x * x - 1, x - 1) == rf(x + 1)
    assert not rf(LaurentPoly.gen("y1")) == RationalFunction(one, LaurentPoly.gen("y1"))


def test_rf_evaluate():
    f = RationalFunction(1 + y, x)
    assert f.evaluate({"x": 2, "y": 3}) == 2
    assert rf(x ** -1).evaluate({"x": Fraction(1, 2)}) == 2
    with pytest.raises(EvalDivisionByZero):
        RationalFunction(one, x - 1).evaluate({"x": 1})


def test_monomial_denominator_is_folded():
    f = RationalFunction(x + y, x)
    assert f.is_laurent()
    assert f.num == 1 + x ** -1 * y


def test_eq_agrees_with_random_evaluation():
    rng = random.Random(11)
    f = RationalFunction(x * x - 1, x - 1)
    g = rf(x + 1)
    for _ in range(20):
        at = {"x": random_nonzero_rational(rng), "y": random_nonzero_rational(rng)}
        if (x - 1).evaluate(at) == 0:
            continue
        assert f.evaluate(at) == g.evaluate(at)


# --- semifield ---------------------------------------------------------------


def sf_gen(name):
    return SemifieldElement.gen(name)


def test_sf_inv_and_one_plus():
    y1 = sf_gen("y1")
    assert y1.inv() == SemifieldElement.from_num_den(one, LaurentPoly.gen("y1"))
    assert one_plus(y1) == SemifieldElement.from_num_den(1 + LaurentPoly.gen("y1"), one)
    got = one_plus(y1.inv())
    want = SemifieldElement.from_num_den(LaurentPoly.gen("y1") + 1, LaurentPoly.gen("y1"))
    assert got == want


def test_sf_positivity_is_structural():
    y1, y2 = sf_gen("y1"), sf_gen("y2")
    e = one_plus(y1) * one_plus(y2.inv()) ** 3 / (y1 * y2)
    assert e.num.has_positive_coeffs() and e.den.has_positive_coeffs()
    assert e.num.has_nonnegative_exponents() and e.den.has_nonnegative_exponents()


def test_sf_negative_coefficients_rejected():
    with pytest.raises(ValueError):
        SemifieldElement.from_num_den(x - 1, one)


def test_sf_mul_cancels_factored_parts():
    y1 = sf_gen("y1")
    e = one_plus(y1)
    assert e * e.inv() == SemifieldElement.from_fraction(1)


def test_sf_addition():
    y1, y2 = sf_gen("y1"), sf_gen("y2")
    s = y1 + y2
    g1, g2 = LaurentPoly.gen("y1"), LaurentPoly.gen("y2")
    assert s == SemifieldElement.from_num_den(g1 + g2, one)
    assert (y1 / y2 + 1) == SemifieldElement.from_num_den(g1 + g2, g2)


def test_sf_evaluate_matches_expansion():
    rng = random.Random(5)
    y1, y2 = sf_gen("y1"), sf_gen("y2")
    e = one_plus(y1 * y2.inv()) * y1 ** 2 / one_plus(y2)
    for _ in range(10):
        at = {"y1": abs(random_nonzero_rational(rng)), "y2": abs(random_nonzero_rational(rng))}
        assert evaluate(e, at) == e.num.evaluate(at) / e.den.evaluate(at)


# --- misc --------------------------------------------------------------------


def test_random_nonzero_rational_deterministic():
    a = [random_nonzero_rational(random.Random(7)) for _ in range(3)]
    b = [random_nonzero_rational(random.Random(7)) for _ in range(3)]
    assert a == b
    rng = random.Random(0)
    assert all(random_nonzero_rational(rng) != 0 for _ in range(200))


def test_expr_json_roundtrip():
    f = RationalFunction(x * x + y, 1 + x)
    assert expr_from_json(expr_to_json(f)) == f
    e = one_plus(sf_gen("y1")) / sf_gen("y2")
    back = expr_from_json(expr_to_json(e), semifield=True)
    assert back == e
