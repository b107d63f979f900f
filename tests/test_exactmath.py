import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tysys.errors import DivisionByZeroPoly, EvalDivisionByZero, InverseOfZero
from tysys.exactmath import (
    LaurentPoly,
    RationalFunction,
    SemifieldElement,
    evaluate,
    expr_to_json,
    fraction_from_text,
    fraction_to_text,
    gens,
    laurent_divide_exact,
    one_plus,
    random_nonzero_rational,
    value_text,
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


def term_walk_product(a, b):
    """a * b by the full walk over both term sets, with no unit shortcut."""
    names, ta, tb = walk_aligned(a, b)
    out = {}
    for ma, ca in ta.items():
        for mb, cb in tb.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return LaurentPoly(names, out)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.sampled_from(["one", "int", "fraction"]), st.booleans())
@example(LaurentPoly(("x", "y"), {(0, 0): Fraction(1)}), one, "one", True)
def test_products_match_term_walk(p, q, unit, left):
    """A unit factor, on either side and as a polynomial, an int or a
    Fraction, returns the other factor; other products walk both term sets.
    Where p is the unit too, the product is a unit, but either factor."""
    unit = {"one": LaurentPoly.one(), "int": 1, "fraction": Fraction(1)}[unit]
    for got, want in ((unit * p if left else p * unit, term_walk_product(p, one)),
                      (p * q, term_walk_product(p, q))):
        assert (got.vars, got.terms, hash(got)) == (want.vars, want.terms, hash(want))
    product = unit * p if left else p * unit
    if p.is_one():
        assert product.is_one()
    else:
        assert product is p


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


def rescanning_divide_exact(p, q):
    """Reference for laurent_divide_exact: the same division with
    remainder, finding the leading monomial by rescanning the remainder."""
    if p.is_zero():
        return LaurentPoly.zero()
    names, a, b = walk_aligned(p, q)
    shift_a, a = walk_shift(a)
    shift_b, b = walk_shift(b)

    def grlex(mono):
        return (sum(mono), mono)

    lead_b = max(b, key=grlex)
    quotient = {}
    rem = dict(a)
    while rem:
        lead = max(rem, key=grlex)
        diff = tuple(x - y for x, y in zip(lead, lead_b))
        if any(e < 0 for e in diff):
            return None
        coeff = Fraction(rem[lead]) / b[lead_b]
        quotient[diff] = coeff
        for mb, c in b.items():
            m = tuple(x + y for x, y in zip(diff, mb))
            nv = rem.get(m, Fraction(0)) - coeff * c
            if nv:
                rem[m] = nv
            else:
                rem.pop(m, None)
    back = {v: sa - sb for v, sa, sb in zip(names, shift_a, shift_b) if sa != sb}
    return LaurentPoly(names, quotient).mul_monomial(1, back)


def polys3(min_terms=0, max_terms=5):
    monos = st.tuples(*[st.integers(-2, 3)] * 3)
    coeffs = st.fractions(-5, 5, max_denominator=3).filter(bool)
    return st.dictionaries(monos, coeffs, min_size=min_terms, max_size=max_terms) \
        .map(lambda terms: LaurentPoly(("x", "y", "z"), terms))


@settings(max_examples=50, deadline=None)
@given(polys3(), polys3(min_terms=1))
@example(LaurentPoly(("z",), {(1,): Fraction(1, 3), (0,): 1}), LaurentPoly.constant(3))
def test_heap_division_matches_rescanning_on_products(p, q):
    got = laurent_divide_exact(p * q, q)
    assert got == rescanning_divide_exact(p * q, q) == p


@settings(max_examples=50, deadline=None)
@given(polys3(), polys3(min_terms=2), polys3(min_terms=1, max_terms=1))
def test_heap_division_matches_rescanning_on_nondivisible_pairs(p, q, unit):
    # q is not a monomial, so not a unit of the Laurent ring: it divides
    # p*q + unit only if it divided the unit
    a = p * q + unit
    assert laurent_divide_exact(a, q) is None
    assert rescanning_divide_exact(a, q) is None


@settings(max_examples=80, deadline=None)
@given(polys3(max_terms=4), polys3(min_terms=1, max_terms=3), st.booleans())
@example(x + 2, x - 1, True)
@example(x + 2, x - 1, False)
def test_division_matches_rescanning(a, b, make_divisible):
    # the rejection by values at 1 (Gauss's lemma) refuses only quotients
    # that the division refuses too, also where the divisor vanishes at 1
    if make_divisible:
        a = a * b
    assert laurent_divide_exact(a, b) == rescanning_divide_exact(a, b)


# --- the kernel's builtin loops against term walks --------------------------------
#
# The kernel sums and compares exponents through C builtins (map over
# operator functions, zip(*terms) columns, one itemgetter per remap); these
# oracles walk every exponent of every term in Python instead.


def walk_natural_key(name):
    return tuple(int(p) if p.isdigit() else p for p in re.split(r"(\d+)", name))


def walk_aligned(a, b):
    """a._aligned(b): the union of the generators in natural order, and each
    term set with every monomial written out over it."""
    if a.vars == b.vars:
        return a.vars, a.terms, b.terms
    names = sorted(set(a.vars) | set(b.vars), key=walk_natural_key)
    pos = {n: i for i, n in enumerate(names)}

    def remap(poly):
        out = {}
        for m, c in poly.terms.items():
            full = [0] * len(names)
            for v, e in zip(poly.vars, m):
                full[pos[v]] = e
            out[tuple(full)] = c
        return out

    return tuple(names), remap(a), remap(b)


def walk_min_exponents(poly):
    return {v: min(m[i] for m in poly.terms) for i, v in enumerate(poly.vars)}


def walk_shift(terms):
    """laurent_divide_exact's shift step: the least exponent of each
    generator, and the terms divided by that monomial."""
    n = len(next(iter(terms)))
    shift = [min(m[i] for m in terms) for i in range(n)]
    return shift, {tuple(e - s for e, s in zip(m, shift)): c for m, c in terms.items()}


def walk_canonical(variables, terms):
    """(vars, terms) of LaurentPoly(variables, terms): integral coefficients
    as ints, zero terms and unused generators dropped, the generators in
    natural order."""
    clean = {}
    for mono, coeff in terms.items():
        c = Fraction(coeff)
        if c:
            clean[tuple(mono)] = c.numerator if c.denominator == 1 else c
    used = sorted((v for i, v in enumerate(variables) if any(m[i] for m in clean)),
                  key=walk_natural_key)
    cols = [list(variables).index(v) for v in used]
    return tuple(used), {tuple(m[i] for i in cols): c for m, c in clean.items()}


def walk_reduce_pair(num, den):
    """_reduce_pair with the term-walk minima: a monomial denominator, the
    unit among them, is folded into the numerator; otherwise both sides are
    divided by their joint content and their common monomial, and den's
    leading coefficient is made positive."""
    if num.is_zero():
        return LaurentPoly.constant(0), LaurentPoly.constant(1)
    if len(den.terms) == 1:
        ((mono, coeff),) = den.terms.items()
        powers = {v: -e for v, e in zip(den.vars, mono) if e}
        return num.mul_monomial(Fraction(1) / coeff, powers), LaurentPoly.constant(1)
    c_num, c_den = num.content(), den.content()
    g = Fraction(math.gcd(c_num.numerator * c_den.denominator,
                          c_den.numerator * c_num.denominator),
                 c_num.denominator * c_den.denominator)
    num, den = num * LaurentPoly.constant(1 / g), den * LaurentPoly.constant(1 / g)
    mins_n, mins_d = walk_min_exponents(num), walk_min_exponents(den)
    shared = {v: -min(mins_n[v], mins_d[v]) for v in set(mins_n) & set(mins_d)}
    num, den = num.mul_monomial(1, shared), den.mul_monomial(1, shared)
    lead = max(den.terms, key=lambda m: (sum(m), m))
    return (-num, -den) if den.terms[lead] < 0 else (num, den)


def shape(poly):
    """What two equal polynomials must share: generators, terms, the type
    of each coefficient, and the hash."""
    return poly.vars, poly.terms, {m: type(c) for m, c in poly.terms.items()}, hash(poly)


def walk_shape(variables, terms):
    """shape() of the polynomial a term walk gives as (variables, terms);
    the hash is that of the polynomial built from them."""
    types = {m: type(c) for m, c in terms.items()}
    return variables, terms, types, hash(LaurentPoly(variables, terms))


WALK_NAMES = ("x", "y", "x2", "x10")
walk_coeffs = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3),
                        st.just(Fraction(4, 2)))


@st.composite
def raw_polys(draw):
    """(variables, terms) for LaurentPoly: up to three generators in any
    order, exponents from -2 to 2, coefficients zero, int, integral Fraction
    or Fraction."""
    variables = tuple(draw(st.lists(st.sampled_from(WALK_NAMES), unique=True, max_size=3)))
    monos = st.tuples(*[st.integers(-2, 2)] * len(variables))
    return variables, draw(st.dictionaries(monos, walk_coeffs, max_size=4))


# one shared generator, disjoint generators, a constant operand (one
# generator in all), the zero polynomial, Fractions and negative exponents
WALK_EXAMPLES = [
    ((("x", "y"), {(1, 0): 1, (0, -1): 2}), (("x2", "x"), {(1, 1): Fraction(1, 2), (0, -1): 3})),
    ((("x",), {(1,): 1, (0,): 1}), (("y",), {(-1,): Fraction(2, 3), (2,): -1})),
    (((), {(): 3}), (("x",), {(2,): 1, (-1,): Fraction(-1, 2)})),
    ((("x10", "x2"), {(1, -2): Fraction(4, 2), (0, 1): 0}), ((), {})),
]


def walk_examples(*rest):
    """example(a, b, *more) for each pair of WALK_EXAMPLES and each tuple
    more of rest (only the pair where rest is empty)."""
    def apply(test):
        for a, b in WALK_EXAMPLES:
            for more in rest or [()]:
                test = example(a, b, *more)(test)
        return test

    return apply


@settings(max_examples=120, deadline=None)
@given(raw_polys(), raw_polys())
@walk_examples()
def test_construction_and_alignment_match_term_walks(a, b):
    for variables, terms in (a, b):
        assert shape(LaurentPoly(variables, terms)) == walk_shape(*walk_canonical(variables, terms))
    p, q = LaurentPoly(*a), LaurentPoly(*b)
    assert p._aligned(q) == walk_aligned(p, q)
    assert p.min_exponents() == walk_min_exponents(p)
    assert shape(p * q) == shape(term_walk_product(p, q))
    sum_names, ta, tb = walk_aligned(p, q)
    total = {m: ta.get(m, 0) + tb.get(m, 0) for m in {**ta, **tb}}
    assert shape(p + q) == walk_shape(*walk_canonical(sum_names, total))


@settings(max_examples=120, deadline=None)
@given(raw_polys(), raw_polys(), st.sampled_from(["unit", "monomial", "general"]))
@walk_examples(("unit",), ("monomial",), ("general",))
def test_reduce_pair_matches_term_walk(a, b, kind):
    num = LaurentPoly(*a)
    den = {"unit": LaurentPoly.constant(1),
           "monomial": LaurentPoly.monomial(Fraction(-2, 3), {"x": -1, "x10": 2}),
           "general": LaurentPoly(*b) + LaurentPoly.gen("y")}[kind]
    if den.is_zero():
        return
    got = RationalFunction(num, den)
    want = walk_reduce_pair(num, den)
    assert (shape(got.num), shape(got.den)) == (shape(want[0]), shape(want[1]))
    if kind == "unit" and num:
        assert got.num is num  # a unit denominator is not folded


@settings(max_examples=120, deadline=None)
@given(raw_polys(), raw_polys(), st.booleans())
@walk_examples((True,), (False,))
def test_division_shapes_match_rescanning(a, b, make_divisible):
    p, q = LaurentPoly(*a), LaurentPoly(*b)
    if q.is_zero():
        return
    top = p * q if make_divisible else p
    got, want = laurent_divide_exact(top, q), rescanning_divide_exact(top, q)
    assert (got is None) == (want is None)
    if got is not None:
        assert shape(got) == shape(want)


# --- the shared unit and zero ---------------------------------------------------


def test_unit_and_zero_are_shared_and_immutable():
    assert LaurentPoly.one() is LaurentPoly.one() and LaurentPoly.zero() is LaurentPoly.zero()
    assert LaurentPoly.one().terms == {(): 1} and LaurentPoly.zero().terms == {}
    for shared in (LaurentPoly.one(), LaurentPoly.zero()):
        for name in ("vars", "terms", "_hash", "new"):
            with pytest.raises(AttributeError):
                setattr(shared, name, None)


@settings(max_examples=60, deadline=None)
@given(raw_polys(), raw_polys())
@walk_examples()
def test_kernel_operations_leave_operands_alone(a, b):
    """No operation writes into an operand's terms; _aligned hands out an
    operand's own terms when the generators match."""
    operands = (LaurentPoly(*a), LaurentPoly(*b), LaurentPoly.one(), LaurentPoly.zero())
    before = [(p.vars, dict(p.terms)) for p in operands]
    for p in operands:
        -p, p ** 0, p ** 2, p.mul_monomial(Fraction(1, 2), {"x": 1, "y": -1})
        if p.is_monomial():
            p ** -2
        for q in operands:
            p + q, p - q, p * q
            if q:
                laurent_divide_exact(p, q)
                RationalFunction(p, q).reduced()
    assert [(p.vars, p.terms) for p in operands] == before
    assert LaurentPoly.one().terms == {(): 1} and LaurentPoly.zero().terms == {}


# --- the kernel against a route that keeps every coefficient a Fraction -------

XYZ = ("x", "y", "z")


def assert_canonical(poly):
    """Each stored coefficient is a nonzero int, or a Fraction whose
    denominator is > 1."""
    for c in poly.terms.values():
        assert (type(c) is int and c) or (type(c) is Fraction and c.denominator > 1), c
    return poly


def fraction_terms(poly):
    """poly as {exponents over x, y, z: Fraction}."""
    pos = [XYZ.index(v) for v in poly.vars]
    out = {}
    for mono, c in poly.terms.items():
        full = [0, 0, 0]
        for i, e in zip(pos, mono):
            full[i] = e
        out[tuple(full)] = Fraction(c)
    return out


def route_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def route_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def route_pow(a, n):
    if n < 0:
        ((m, c),) = a.items()
        a, n = {tuple(-e for e in m): Fraction(1) / c}, -n
    out = {(0, 0, 0): Fraction(1)}
    for _ in range(n):
        out = route_mul(out, a)
    return out


def route_content(coeffs):
    """gcd of the numerators over lcm of the denominators."""
    num, den = 0, 1
    for c in coeffs:
        num, den = math.gcd(num, c.numerator), math.lcm(den, c.denominator)
    return Fraction(num, den)


def route_reduce(num, den):
    """RationalFunction's reduction: fold a monomial denominator; else divide
    both sides by the content of all their coefficients and by the common
    monomial of the generators both use, with den's leading coefficient
    made positive."""
    one = {(0, 0, 0): Fraction(1)}
    if not num:
        return {}, one
    if len(den) == 1:
        return route_mul(num, route_pow(den, -1)), one
    lead = max(den, key=lambda m: (sum(m), m))
    g = route_content([*num.values(), *den.values()]) * (1 if den[lead] > 0 else -1)
    shared = tuple(min(m[i] for m in (*num, *den))
                   if any(m[i] for m in num) and any(m[i] for m in den) else 0
                   for i in range(3))
    scale = {tuple(-e for e in shared): 1 / g}
    return route_mul(num, scale), route_mul(den, scale)


mixed_coeffs = st.one_of(st.integers(-6, 6), st.fractions(-5, 5, max_denominator=4)) \
    .filter(bool)
mixed_polys = st.dictionaries(st.tuples(*[st.integers(-2, 3)] * 3), mixed_coeffs,
                              max_size=5).map(lambda terms: LaurentPoly(XYZ, terms))


@settings(max_examples=150, deadline=None)
@given(mixed_polys, mixed_polys, mixed_coeffs,
       st.tuples(*[st.integers(-2, 2)] * 3), st.integers(-3, 3), st.booleans())
def test_kernel_matches_the_fraction_route(a, b, coeff, shift, n, make_divisible):
    fa, fb = fraction_terms(assert_canonical(a)), fraction_terms(assert_canonical(b))
    assert fraction_terms(assert_canonical(a + b)) == route_add(fa, fb)
    assert fraction_terms(assert_canonical(a * b)) == route_mul(fa, fb)
    assert fraction_terms(assert_canonical(a ** abs(n))) == route_pow(fa, abs(n))
    if len(fa) == 1:
        assert fraction_terms(assert_canonical(a ** n)) == route_pow(fa, n)
    moved = a.mul_monomial(coeff, dict(zip(XYZ, shift)))
    assert fraction_terms(assert_canonical(moved)) == route_mul(fa, {shift: Fraction(coeff)})
    assert a.content() == route_content(fa.values())
    if not b:
        return
    top = a * b if make_divisible else a
    got = laurent_divide_exact(top, b)
    want = rescanning_divide_exact(top, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert fraction_terms(assert_canonical(got)) == fraction_terms(want)
    f = RationalFunction(a, b)
    want_num, want_den = route_reduce(fa, fb)
    assert fraction_terms(assert_canonical(f.num)) == want_num
    assert fraction_terms(assert_canonical(f.den)) == want_den
    reduced = f.reduced()
    assert_canonical(reduced.num), assert_canonical(reduced.den)
    assert reduced == f


def test_integral_coefficients_are_ints():
    assert [type(c) for c in (3 * x * x ** -1 + Fraction(4, 2) * y).terms.values()] == [int, int]
    assert (3 * x) ** -1 == LaurentPoly.monomial(Fraction(1, 3), {"x": -1})
    assert LaurentPoly.constant(Fraction(6, 3)).terms == {(): 2}
    assert type(LaurentPoly.constant(Fraction(6, 3)).terms[()]) is int
    assert str(3 * x + Fraction(1, 2)) == "3*x + 1/2"
    assert expr_to_json(rf(3 * x, 2 * y))["num"] == [["3/2", [1, -1]]]
    assert type((3 * x).evaluate({"x": 1})) is Fraction


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
    assert f.den.is_one()
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


@settings(max_examples=60, deadline=None)
@given(st.fractions())
def test_fraction_text_matches_str(value):
    assert fraction_to_text(value) == str(value)
    assert fraction_from_text(fraction_to_text(value)) == value


def test_fraction_text_past_the_digit_limit():
    value = Fraction(-(7 ** 9000), 3 ** 9001)
    text = fraction_to_text(value)
    assert len(text) > 2 * 4300 and text.startswith("-")
    assert fraction_from_text(text) == value


@pytest.mark.parametrize("value", [
    Fraction(2 ** 1000 - 1, 3),
    Fraction(-1, 2 ** 1000 - 3),
], ids=["numerator", "denominator"])
def test_value_text_keeps_values_up_to_1000_bits(value):
    assert value_text(value) == str(value)


@pytest.mark.parametrize("value,bits", [
    (Fraction(2 ** 1000 + 1, 3), 1001),
    (Fraction(-1, 2 ** 1000 + 3), 1001),
    (Fraction(7 ** 9000), 25267),
], ids=["numerator", "denominator", "past the digit limit"])
def test_value_text_clips_values_past_1000_bits(value, bits):
    import hashlib

    digest = hashlib.sha256(fraction_to_text(value).encode()).hexdigest()[:12]
    assert value_text(value) == f"<{bits}-bit rational, sha256 {digest}>"


@pytest.mark.parametrize("text", ["1/0", "-3/000", "1.5", "1e5", " 2", "", None, 4])
def test_fraction_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        fraction_from_text(text)


# --- semifield equality: factored form first, cross-multiplication behind --------

SF_GENS = ("y1", "y2", "y3")
G1, G2, G3 = (LaurentPoly.gen(n) for n in SF_GENS)
SF_FACTORS = (1 + G1, 1 + G2, 1 + G1 + G2, G1 + G3, 1 + G1 * G2 + G3)


@st.composite
def semifield_elements(draw):
    coeff = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    powers = {n: draw(st.integers(-2, 2)) for n in SF_GENS}
    factors = {f: draw(st.integers(-2, 2)) for f in SF_FACTORS}
    return SemifieldElement(coeff, powers, factors)


def cross_multiplied_eq(a, b):
    return a.num * b.den == b.num * a.den


@settings(max_examples=60, deadline=None)
@given(semifield_elements(), semifield_elements())
def test_sf_eq_agrees_with_cross_multiplication(a, b):
    assert (a == b) == cross_multiplied_eq(a, b)
    assert (a == a * b / b) is True


@settings(max_examples=60, deadline=None)
@given(semifield_elements())
def test_sf_eq_on_equal_values_in_another_factored_form(a):
    # rebuilt from the expanded num/den, each side becomes one factor
    b = SemifieldElement.from_num_den(a.num, a.den)
    assert cross_multiplied_eq(a, b)
    assert a == b and b == a


def test_sf_eq_fallback_path_runs():
    y1, y2 = sf_gen("y1"), sf_gen("y2")
    factored = one_plus(y1) * one_plus(y2)
    expanded = SemifieldElement.from_num_den((1 + G1) * (1 + G2), one)
    assert factored._factors != expanded._factors
    assert factored == expanded
    assert not factored == expanded * y1


# --- sympy as a second oracle (optional) -----------------------------------------


def _to_sympy(poly, symbols):
    sympy = pytest.importorskip("sympy")
    pos = dict(zip(("x", "y", "z"), symbols))
    total = sympy.Integer(0)
    for mono, coeff in poly.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for name, e in zip(poly.vars, mono):
            term *= pos[name] ** e
        total += term
    return total


@settings(max_examples=30, deadline=None)
@given(polys3(max_terms=4), polys3(min_terms=1, max_terms=3), st.booleans())
def test_division_against_sympy(a, b, make_divisible):
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("x y z")
    if make_divisible:
        a = a * b
    ratio = sympy.cancel(_to_sympy(a, symbols) / _to_sympy(b, symbols))
    _, den = sympy.fraction(ratio)
    got = laurent_divide_exact(a, b)
    assert (got is not None) == sympy.Poly(den, *symbols).is_monomial
    if got is not None:
        assert sympy.cancel(_to_sympy(got, symbols) - ratio) == 0


@settings(max_examples=30, deadline=None)
@given(polys3(max_terms=3), polys3(min_terms=1, max_terms=3),
       polys3(min_terms=1, max_terms=3), polys3(max_terms=3), st.booleans())
def test_rational_function_eq_against_sympy(a, b, h, c, make_equal):
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("x y z")
    f = RationalFunction(a, b)
    g = RationalFunction(a * h, b * h) if make_equal else RationalFunction(c, h)
    difference = (_to_sympy(f.num, symbols) / _to_sympy(f.den, symbols)
                  - _to_sympy(g.num, symbols) / _to_sympy(g.den, symbols))
    assert (f == g) == (sympy.cancel(difference) == 0)


# --- cached successors and inverse twins against fresh construction ---------------


def uncached(a):
    """The same factored form as a, with nothing derived yet."""
    return SemifieldElement(a._coeff, a._powers, a._factors)


def same_form(a, b):
    return ((a._coeff, a._powers, a._factors, a.num, a.den)
            == (b._coeff, b._powers, b._factors, b.num, b.den))


@settings(max_examples=60, deadline=None)
@given(semifield_elements(), st.booleans(), st.booleans())
def test_sf_one_plus_twins_match_from_num_den(a, twin_first, expand_first):
    fresh = uncached(a)
    want = SemifieldElement.from_num_den(fresh.num + fresh.den, fresh.den)
    want_inv = SemifieldElement.from_num_den(fresh.num + fresh.den, fresh.num)
    if expand_first:
        a.num, a.den
    twin = a.inv()
    if twin_first:
        got_inv, got = twin.one_plus(), a.one_plus()
    else:
        got, got_inv = a.one_plus(), twin.one_plus()
    assert same_form(got, want) and same_form(got_inv, want_inv)
    assert a.one_plus() is got and twin.one_plus() is got_inv


@settings(max_examples=60, deadline=None)
@given(semifield_elements(), st.booleans())
def test_sf_set_one_plus_gives_both_successors(a, built_first):
    fresh = uncached(a)
    if built_first:
        a.one_plus(), a.inv().one_plus()
    atom = a.num + a.den
    a.set_one_plus([LaurentPoly.one(), atom])
    # any successor built before is replaced: the atoms over the negative
    # part of the factored form, with the unit atom dropped
    want = {f: e for f, e in fresh._factors.items() if e < 0}
    want[atom] = want.get(atom, 0) + 1
    assert a.one_plus()._factors == {f: e for f, e in want.items() if e}
    assert a.one_plus() == fresh.one_plus()
    assert a.inv().one_plus() == fresh.inv().one_plus()


@settings(max_examples=60, deadline=None)
@given(semifield_elements(), st.booleans())
def test_sf_inverse_twins(a, expand_first):
    if expand_first:
        a.num
    twin = a.inv()
    assert twin.inv() is a and a.inv() is twin
    assert twin.num is a.den and twin.den is a.num
    fresh = uncached(a)
    negated = SemifieldElement(1 / fresh._coeff, {v: -e for v, e in fresh._powers.items()},
                               {f: -e for f, e in fresh._factors.items()})
    assert same_form(twin, negated)


@settings(max_examples=60, deadline=None)
@given(semifield_elements(), semifield_elements())
def test_sf_every_constructor_leaves_a_fraction_coefficient(a, b):
    # __init__ keeps the coefficient it is given: each route passes a Fraction
    a.set_one_plus([a.num + a.den])
    built = {"*": a * b, "inv": a.inv(), "** 0": a ** 0, "** 3": a ** 3, "** -2": a ** -2,
             "successor": a.one_plus(), "successor of the twin": a.inv().one_plus(),
             "from_num_den": SemifieldElement.from_num_den(a.num, a.den),
             "from_fraction of an int": SemifieldElement.from_fraction(3)}
    assert {name: type(c._coeff) for name, c in built.items()} \
        == dict.fromkeys(built, Fraction)


@settings(max_examples=60, deadline=None)
@given(polys3(max_terms=3), polys3(min_terms=1, max_terms=3))
def test_rf_one_plus_and_inv_match_fresh_construction(a, b):
    f = RationalFunction(a, b)
    got = one_plus(f)
    want = 1 + RationalFunction(a, b)
    assert (got.num, got.den) == (want.num, want.den)
    if f.is_zero():
        with pytest.raises(InverseOfZero):
            f.inv()
        return
    twin = f.inv()
    want = RationalFunction(f.den, f.num)
    assert (twin.num, twin.den) == (want.num, want.den)


MONOMIAL_NAMES = ("x", "y", "z", "w", "x2", "x10")


@settings(max_examples=80, deadline=None)
@given(polys3(), st.fractions(-5, 5, max_denominator=3),
       st.dictionaries(st.sampled_from(MONOMIAL_NAMES), st.integers(-3, 3)))
def test_mul_monomial_matches_product(p, coeff, powers):
    got = p.mul_monomial(coeff, powers)
    want = p * LaurentPoly.monomial(coeff, powers)
    assert got.vars == want.vars and got.terms == want.terms
