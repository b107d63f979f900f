"""The fused reads, each against an independent route.

slot_product multiplies a factor list into one pair as it reads it; it is
compared with the list of pairs that slot_pairs reads, multiplied by
pair_product, and with the product of Fractions.  The Cauchy steps
(TRelation.solve, YRelation.solve) read the right-hand side and the
inverted lhs[0] as one running pair, reduced by one gcd below ONE_GCD_BITS
bits; at the bound the read stops and reduced_quotient cross-cancels the
coprime pairs.  Their results are compared with Fractions and with
reduced_quotient over the pairs of slot_pairs, below the bound, above it,
and where the running pair crosses it partway through a list; the value
sizes are derived from the bound.  Integers that log the running product
they are multiplied into show where a Y-solve stops.  pair_quotient's one
gcd is compared with Fractions, and the t2y check on a table's store
(check_covered) with the coverage filter followed by the check.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tables import table_of
from test_relation_offsets import _without_edges

from tysys import tsystem, ysystem
from tysys.acceptance import FINITE_TYPE, MIXED44_ROWS
from tysys.cartan import new_cartan
from tysys.errors import ZeroDivisor
from tysys.exactmath import RationalFunction
from tysys.tsystem import (
    ONE_GCD_BITS,
    LatticeVar,
    SystemSpec,
    lay,
    pair_product,
    pair_quotient,
    propagate_t,
    reduced_quotient,
    ring_pair,
    slot_pairs,
    slot_product,
    t_relation,
)
from tysys.ysystem import (
    _one_plus,
    _one_plus_inverse,
    check_covered,
    check_y_solution,
    covered_y_relations,
    propagate_y,
    t_to_y,
    y_relation,
)

MIXED44 = SystemSpec(new_cartan(MIXED44_ROWS), 2, restricted=False)


# --- slot_product against slot_pairs and Fractions -----------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-60, 60).filter(bool), st.integers(1, 60))
                .filter(lambda pq: pq[0] + pq[1] and gcd(*pq) == 1), min_size=1, max_size=7),
       st.data())
def test_slot_product_is_the_product_of_slot_pairs(pairs, data):
    # a store with some slots empty, read from its last slot at exponents
    # +-1 and +-2 through no form or either Y form: on the store filled, the
    # product must be slot_pairs' product and the Fractions' product; on the
    # store as laid, an empty slot read gives None
    last = len(pairs) - 1
    empty = data.draw(st.sets(st.integers(0, last)))
    store = [None if j in empty else pair for j, pair in enumerate(pairs)]
    offsets = data.draw(st.lists(st.tuples(st.integers(-last, 0),
                                           st.sampled_from([-2, -1, 1, 2])), max_size=6))
    form = data.draw(st.sampled_from([None, _one_plus, _one_plus_inverse]))
    want_pairs = slot_pairs(list(store), pairs.__getitem__, last, offsets, form)
    got = slot_product(list(pairs), last, offsets, form)
    want = Fraction(1)
    for off, exp in offsets:
        p, q = pairs[last + off] if form is None else form(*pairs[last + off])
        want *= Fraction(p, q) ** exp
    assert got == pair_product(want_pairs)
    assert Fraction(*got) == want
    read = {last + off for off, _ in offsets}
    assert slot_product(store, last, offsets, form) == (None if read & empty else got)


def test_slot_product_reads_laurent_pairs():
    x, y = RationalFunction.gen("x"), RationalFunction.gen("y")
    store = [ring_pair(x / (y + 1)), ring_pair(y)]
    offsets = ((-1, 1), (0, -2))
    n, d = slot_product(store, 1, offsets, _one_plus)
    assert RationalFunction(n, d) == (1 + x / (y + 1)) / (1 + y) ** 2


# --- the Cauchy steps on both sides of ONE_GCD_BITS ----------------------------------


class Traced(int):
    """An int whose sums, powers and products stay Traced; each product
    logs the bit length of its left operand, the running product that a
    read multiplies a factor into."""

    log = []

    def __add__(self, other):
        return Traced(int(self) + int(other))

    __radd__ = __add__

    def __pow__(self, exp):
        return Traced(int(self) ** exp)

    def __mul__(self, other):
        Traced.log.append(int(self).bit_length())
        return Traced(int(self) * int(other))

    def __rmul__(self, other):
        Traced.log.append(int(other).bit_length())
        return Traced(int(other) * int(self))


def _value(rng, bits, negative):
    """A reduced pair p / q of about bits bits each, p < 0 if negative."""
    p = rng.getrandbits(bits) | 1 << (bits - 1)
    q = rng.getrandbits(bits) | 1 << (bits - 1)
    g = gcd(p, q)
    return (-p // g if negative else p // g), q // g


def _laid(rel, values):
    """rel laid on values ({LatticeVar: pair}): (store, slot of lhs[1],
    Compiled), the slot of lhs[1] emptied, as a fill's store has it."""
    store, [(i, at)] = lay([rel], values.get)
    store[i] = None
    return store, i, at


def _fraction_solve(rel, values):
    """lhs[1] of rel from Fractions: the right-hand side over lhs[0]."""
    def value(var):
        return Fraction(*values[var])
    if rel.kind == "T":
        rhs = _prod(value(v) ** e for v, e in rel.factors(0)) \
            + _prod(value(v) ** e for v, e in rel.factors(1))
    else:
        rhs = (_prod((1 + value(v)) ** e for v, e in rel.factors(0))
               / _prod((1 + 1 / value(v)) ** e for v, e in rel.factors(1)))
    got = rhs / value(rel.lhs[0])
    return got.numerator, got.denominator


def _prod(values):
    out = Fraction(1)
    for v in values:
        out *= v
    return out


def _pairs_solve(rel, store, i, at):
    """lhs[1] by reduced_quotient over the coprime pairs of slot_pairs, with
    no running product: the reference for the fused reads."""
    first = slot_pairs(store, None, i, at.first, rel.forms[0])
    second = slot_pairs(store, None, i, at.second, rel.forms[1])
    lhs = slot_pairs(store, None, i, at.lhs)
    if rel.kind == "T":
        n, d = tsystem.TRelation.sum_pair(pair_product(first), pair_product(second))
        g = gcd(n, d)
        return reduced_quotient([(n // g, d // g), *lhs])
    return reduced_quotient([*first, *((b, a) for a, b in second), *lhs])


def _spied(monkeypatch, module):
    """The calls of module.reduced_quotient, each recorded in the returned
    list as the Traced log it found: the products of the fused read."""
    calls = []

    def spy(pairs):
        calls.append(Traced.log[:])
        return reduced_quotient(pairs)

    monkeypatch.setattr(module, "reduced_quotient", spy)
    return calls


def _y_running_bits(rel, values):
    """The running bits of a Y-solve's fused read after each factor (n and
    d as YRelation.solve multiplies them), the inverted lhs[0] last."""
    n = d = 1
    out = []
    for i, inverted in ((0, False), (1, True)):
        for var, exp in rel.factors(i):
            p, q = values[var]
            a, b = (p, p + q) if inverted else (p + q, q)
            n, d = n * a ** exp, d * b ** exp
            out.append(n.bit_length() + d.bit_length())
    p, q = values[rel.lhs[0]]
    out.append((n * q).bit_length() + (d * p).bit_length())
    return out


def _values(rel, rng, bits, traced=False):
    wrap = Traced if traced else int
    out = {}
    for j, var in enumerate(rel.variables()):
        p, q = _value(rng, bits, negative=j % 2 == 0)
        out[var] = wrap(p), wrap(q)
    return out


Y_STENCILS = [y_relation(MIXED44, 0, 1, 0), y_relation(MIXED44, 2, 2, 0)]
T_STENCILS = [t_relation(MIXED44, 1, 1, 0), t_relation(MIXED44, 2, 1, 0)]


@pytest.mark.parametrize("rel", Y_STENCILS, ids=["9+1 factors", "5+2 factors"])
def test_y_solve_on_both_sides_of_one_gcd_bits(rel, monkeypatch):
    # factors of ONE_GCD_BITS / (2 * count) bits, give or take: the fused
    # read below the bound, crossing it partway through the first list, and
    # past it at the first factor
    count = len(rel.numerator) + len(rel.denominator) + 1
    cases = {"below": ONE_GCD_BITS // (4 * count) - 4,
             "crossing": ONE_GCD_BITS // 8 + 16,
             "above": ONE_GCD_BITS // 2 + 8}
    rng = random.Random(22)
    seen = set()
    for case, bits in cases.items():
        values = _values(rel, rng, bits)
        running = _y_running_bits(rel, values)
        crosses = next((j for j, b in enumerate(running) if b >= ONE_GCD_BITS), None)
        seen.add("below" if crosses is None else "crossing"
                 if 0 < crosses < len(rel.numerator) else "above" if crosses == 0 else "")
        store, i, at = _laid(rel, values)
        want = _fraction_solve(rel, values)
        assert _pairs_solve(rel, store, i, at) == want
        calls = _spied(monkeypatch, ysystem)
        Traced.log = []
        assert rel.solve(store, None, i, at) == want, case
        # the large path is reduced_quotient's, and only there
        assert len(calls) == (crosses is not None), case
        # the fused read multiplies only while the running pair is below
        traced = _values(rel, random.Random(case), bits, traced=True)
        store, i, at = _laid(rel, traced)
        Traced.log = []
        calls = _spied(monkeypatch, ysystem)
        assert rel.solve(store, None, i, at) == _fraction_solve(rel, traced)
        before = calls[0] if calls else Traced.log
        assert before and max(before) < ONE_GCD_BITS, case
    assert seen == {"below", "crossing", "above"}


@pytest.mark.parametrize("rel", T_STENCILS, ids=["1+3 factors", "1+2 factors"])
def test_t_solve_on_both_sides_of_one_gcd_bits(rel, monkeypatch):
    count = len(rel.term_a) + len(rel.term_m) + 1
    rng = random.Random(21)
    sides = set()
    for bits in (ONE_GCD_BITS // (4 * count) - 4, ONE_GCD_BITS // (2 * count) + 8,
                 ONE_GCD_BITS // 2):
        values = _values(rel, rng, bits)
        store, i, at = _laid(rel, values)
        first = slot_product(store, i, at.first)
        second = slot_product(store, i, at.second)
        n, d = rel.sum_pair(first, second)
        q, p = values[rel.lhs[0]]
        small = n.bit_length() + d.bit_length() + p.bit_length() + q.bit_length() < ONE_GCD_BITS
        sides.add(small)
        want = _fraction_solve(rel, values)
        assert _pairs_solve(rel, store, i, at) == want
        calls = _spied(monkeypatch, tsystem)
        assert rel.solve(store, None, i, at) == want
        assert len(calls) == (not small)
    assert sides == {True, False}


@pytest.mark.parametrize("negative", [False, True])
def test_solves_put_the_sign_on_the_numerator(negative):
    # lhs[0] negative or positive, every size: the denominator is positive
    for rel in (*T_STENCILS, *Y_STENCILS):
        for bits in (3, 40, ONE_GCD_BITS // 4):
            values = _values(rel, random.Random(bits), bits)
            p, q = values[rel.lhs[0]]
            values[rel.lhs[0]] = (-abs(p) if negative else abs(p)), q
            store, i, at = _laid(rel, values)
            got = rel.solve(store, None, i, at)
            assert got == _fraction_solve(rel, values) and got[1] > 0


def test_solve_demands_in_reading_order():
    # empty slots are solved on demand, each once, first list, second list,
    # then lhs[0], whether the read stops at the bound or not
    for rel in (*T_STENCILS, *Y_STENCILS):
        for bits in (5, ONE_GCD_BITS // 8, ONE_GCD_BITS):
            values = _values(rel, random.Random(bits), bits)
            full, i, at = _laid(rel, values)
            store = [None] * len(full)
            order = []

            def demand(j):
                order.append(j)
                store[j] = full[j]
                return full[j]

            assert rel.solve(store, demand, i, at) == _fraction_solve(rel, values)
            reads = [i + off for offs in (at.first, at.second, at.lhs) for off, _ in offs]
            assert order == list(dict.fromkeys(reads))


@pytest.mark.parametrize("side", [0, 1], ids=["1 + Y", "1 + Y^-1"])
@pytest.mark.parametrize("bits", [4, ONE_GCD_BITS // 2], ids=["fused", "past the bound"])
def test_a_vanishing_y_side_names_the_centre(side, bits):
    # Y = -1 in either list makes its factor zero; the fused read and the
    # coprime pairs raise the same text
    rel = y_relation(MIXED44, 2, 2, 5)
    values = _values(rel, random.Random(bits), bits)
    var = next(rel.factors(side))[0]
    values[var] = (-1, 1)
    store, i, at = _laid(rel, values)
    with pytest.raises(ZeroDivisor) as raised:
        rel.solve(store, None, i, at)
    assert str(raised.value) == f"degenerate side at {rel.center.label('Y')}"


# --- pair_quotient ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 30, 10 ** 30).filter(bool)),
       st.tuples(st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 30, 10 ** 30).filter(bool)))
def test_pair_quotient_is_the_fraction_quotient(top, bottom):
    if bottom[0] == 0:
        with pytest.raises(ZeroDivisionError):
            pair_quotient(top, bottom)
        return
    want = Fraction(*top) / Fraction(*bottom)
    got = pair_quotient(top, bottom)
    assert got == (want.numerator, want.denominator) and type(got[0]) is int


def test_pair_quotient_of_laurent_pairs_is_the_rational_function():
    x, y = RationalFunction.gen("x"), RationalFunction.gen("y")
    top, bottom = ring_pair((x + y) / (y * y)), ring_pair((x + y) * x / y)
    want = ((x + y) / (y * y)) / ((x + y) * x / y)
    assert pair_quotient(top, bottom) == (want.num, want.den)


# --- t2y: the mapped Y-table's store -----------------------------------------------------


def _tables():
    for name, level in (("A2", 2), ("B2", 3), ("B3", 4)):
        sys = SystemSpec(new_cartan(FINITE_TYPE[name]), level)
        t_table = propagate_t(sys, (0, 24), rng=random.Random(f"t2y {name}"))
        y_table = t_to_y(t_table)[0]
        yield f"{name} mapped", y_table
        yield f"{name} holed", _without_edges(y_table)
    sys = SystemSpec(new_cartan(FINITE_TYPE["A2"]), 2)
    symbolic = {LatticeVar(a, m, k): RationalFunction.gen(f"x{a}{k}")
                for a in range(2) for m in (1,) for k in range(2)}
    y_table = t_to_y(propagate_t(sys, (0, 8), initial=symbolic))[0]
    yield "A2 symbolic", y_table
    yield "A2 symbolic, one value doubled", table_of(
        "Y", sys, y_table.window,
        {**y_table.values, LatticeVar(0, 1, 4): y_table.values[LatticeVar(0, 1, 4)] * 2},
        y_table.meta)
    yield "MIXED44 holed", _without_edges(propagate_y(MIXED44, (0, 10), rng=random.Random(9)))


@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_check_covered_is_the_filter_then_the_check(mode):
    failing = 0
    for name, y_table in _tables():
        relations = covered_y_relations(y_table)
        want = check_y_solution(y_table, relations, mode=mode, rng=random.Random(name))
        got_relations, got = check_covered(y_table, mode=mode, rng=random.Random(name))
        assert list(got_relations) == list(relations) and got == want, name
        failing += bool(got)
    assert failing >= 3
