"""Differential tests of the pair route: relation checks, solves and the
T -> Y map on numerator/denominator pairs, against the Fraction value
route.

The oracles are the value formulas the pair route replaced, written out
here: the check, the T- and Y-solves, the Y -> T reconstruction and the
roundtrip, and (in test_ysystem and test_cluster) the T -> Y maps and the
claim identities.  Outcomes are compared with their types: a result, or the
type and message of what was raised.
"""

import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tables import table_of
from test_cluster import value_route_t_to_y_b
from test_ysystem import value_route_claim, value_route_mapped_y, value_route_t_to_y

from tysys import cluster, ysystem
from tysys.acceptance import FINITE_TYPE, MIXED44_ROWS
from tysys.cartan import new_cartan
from tysys.errors import DegenerateData, ZeroDivisor
from tysys.exactmath import RationalFunction, evaluate
from tysys.tsystem import (
    ONE_GCD_BITS,
    LatticeVar,
    Layout,
    SystemSpec,
    TRelation,
    ValueTable,
    _propagate,
    check_relations,
    enumerate_relations,
    factor_product,
    fill_lattice,
    lay,
    pair_value,
    propagate_t,
    reduced_quotient,
    ring_pair,
    t_relation,
    violation,
)
from tysys.ysystem import (
    YRelation,
    claim_identities_check,
    companion_identities,
    companions_hold,
    enumerate_y_relations,
    propagate_y,
    roundtrip_check,
    t_to_y,
    y_relation,
    y_to_t,
)

A3 = new_cartan(FINITE_TYPE["A3"])
B2 = new_cartan(FINITE_TYPE["B2"])
MIXED44 = new_cartan(MIXED44_ROWS)


def _typed(value):
    """value with the type of every number and table entry made explicit."""
    if isinstance(value, ValueTable):
        return ("table", value.kind, value.window,
                [(var, _typed(v)) for var, v in sorted(value.values.items())])
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_typed(v) for v in value]
    if isinstance(value, dict):
        return {key: _typed(v) for key, v in value.items()}
    if isinstance(value, (int, Fraction)):
        return type(value).__name__, value
    return value


def outcome(call):
    """What call() gives: its result, or the type and message it raises."""
    try:
        return "returns", _typed(call())
    except Exception as exc:  # the comparison covers every failure
        return "raises", type(exc).__name__, str(exc)


def oracle_check(relations, value, label):
    """The check as Fraction values: the record of every failing relation."""
    out = []
    for rel in relations:
        lhs = value(rel.lhs[0]) * value(rel.lhs[1])
        rhs = rel.rhs(value)
        if not rel.holds(lhs, rhs):
            out.append(violation(label(rel), lhs, rhs))
    return out


def laid(values):
    """The pair of a laid slot: the ring pair of values' entry, None where
    values lacks one."""
    return lambda var: ring_pair(values.get(var))


def holds_exactly(rel, pair):
    """rel.holds_exactly on the values of pair laid on rel's slots."""
    store, [read] = lay([rel], pair)
    return rel.holds_exactly(store, *read)


def assert_checks_agree(relations, values, kind):
    """Per relation: the same verdict, the same records, or the same error,
    on the pair route and on the oracle.  Returns the failures."""
    get = values.__getitem__
    label = lambda rel: rel.center.label(kind)  # noqa: E731
    failures = 0
    for rel in relations:
        got = outcome(lambda: check_relations([rel], laid(values), get, label))
        assert got == outcome(lambda: oracle_check([rel], get, label))
        if got[0] == "returns":
            verdict = rel.holds(get(rel.lhs[0]) * get(rel.lhs[1]), rel.rhs(get))
            assert holds_exactly(rel, laid(values)) is verdict
            failures += not verdict
    return failures


def perturbations(values, rng):
    """The table and copies with a few entries negated, set to -1, scaled,
    or replaced by an int."""
    keys = sorted(values)
    out = [dict(values)]
    for change in (lambda v: -v, lambda v: Fraction(-1), lambda v: 3 * v,
                   lambda v: int(v.numerator) or 1):
        copy = dict(values)
        for var in rng.sample(keys, min(3, len(keys))):
            copy[var] = change(copy[var])
        out.append(copy)
    return out


def lattice_tables(cm, level, window, seed):
    """(kind, values, relations) for the Y-system and, where restricted
    T-propagation runs (max d < 3), the T-system."""
    sys = SystemSpec(cm, level)
    out = [("Y", propagate_y(sys, window, rng=random.Random(seed)).values,
            enumerate_y_relations(sys, window))]
    if max(cm.d) < 3:
        out.append(("T", propagate_t(sys, window, rng=random.Random(seed)).values,
                    enumerate_relations(sys, window)))
    return out


# --- checks ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FINITE_TYPE) + ["MIXED44"])
def test_checks_match_value_route_on_every_finite_type(name):
    cm = MIXED44 if name == "MIXED44" else new_cartan(FINITE_TYPE[name])
    rng = random.Random(name)
    for level in (2, 3, 4):
        for kind, values, relations in lattice_tables(cm, level, (0, 10), level):
            failures = [assert_checks_agree(relations, table, kind)
                        for table in perturbations(values, rng)]
            assert failures[0] == 0 and sum(failures) > 0, (level, kind)


def test_unrestricted_mixed44_checks_match_value_route():
    # values of about 1k bits
    sys = SystemSpec(MIXED44, 2, restricted=False)
    table = propagate_y(sys, (0, 9), rng=random.Random(4))
    relations = [rel for rel in enumerate_y_relations(sys, table.window)
                 if all(v in table.values for v in rel.variables())]
    for values in perturbations(table.values, random.Random(2)):
        assert_checks_agree(relations, values, "Y")


def test_exchange_matrix_checks_with_exponent_two_match_value_route():
    # B of B2 at level 2 has an entry -2: T(B) and Y(B) factors of exponent 2
    em = cluster.exchange_matrix_for_level(B2, 2)
    seq = cluster.run_sequence(em, (0, 10), mode="numeric", rng=random.Random(6))
    relations = {"T": [rel.shift(u) for rel in cluster._tb_relations(em)
                       for u in range(1, 10)]}
    for eps in (1, -1):
        relations[eps] = [rel.shift(u) for rel in cluster._yb_relations(em, eps)
                          for u in range(1, 10)]
    assert any(exp == 2 for rel in relations["T"] for _, exp in rel.term_m + rel.term_a)
    assert any(exp == 2 for eps in (1, -1) for rel in relations[eps]
               for _, exp in rel.numerator + rel.denominator)
    for family, values in (("T", seq.x), (1, seq.y), (-1, seq.y)):
        as_lattice = {LatticeVar(i, 1, u): v for (i, u), v in values.items()}
        for table in perturbations(as_lattice, random.Random(str(family))):
            # Y(B) holds on one parity class only, so both verdicts occur
            assert_checks_agree(relations[family], table, "Y")
    lo, hi = seq.u_range
    tb = [rel.shift(u) for rel in cluster._tb_relations(em) for u in range(lo + 1, hi)]
    yb = [rel.shift(u) for i, rel in enumerate(cluster._yb_relations(em, 1))
          for u in range(lo + 1, hi) if cluster._parity_sign(em, i, u) == -1]
    for check, oracle in (
            (lambda: cluster.check_tb(seq),
             lambda: oracle_check(tb, lambda var: seq.x[var.a, var.k],
                                  cluster._label(em, "T(B)"))),
            (lambda: cluster.check_yb(seq, 1),
             lambda: oracle_check(yb, lambda var: seq.y[var.a, var.k],
                                  cluster._label(em, "Y+(B)"))),
            (lambda: cluster.t_to_y_b(seq.x, em, -1),
             lambda: value_route_t_to_y_b(seq.x, em, -1))):
        assert outcome(check) == outcome(oracle)


def _y_table_with(var_of, replacement):
    """A level-4 A3 Y-table and one relation, with the variable var_of(rel)
    of that relation replaced."""
    sys = SystemSpec(A3, 4)
    values = dict(propagate_y(sys, (0, 12), rng=random.Random(1)).values)
    rel = y_relation(sys, 1, 2, 6)
    values[var_of(rel)] = replacement
    return rel, values


@pytest.mark.parametrize("where", ["lhs", "numerator", "denominator"])
@pytest.mark.parametrize("replacement", [Fraction(-1), 0, -2, Fraction(-5, 3)])
def test_special_values_in_each_factor_list(where, replacement):
    # Y = -1 zeroes a 1 + Y or a 1 + Y^-1 factor; a zero Y in a 1 + Y^-1
    # factor raises InverseOfZero on both routes
    pick = {"lhs": lambda rel: rel.lhs[0],
            "numerator": lambda rel: rel.numerator[0][0],
            "denominator": lambda rel: rel.denominator[1][0]}[where]
    rel, values = _y_table_with(pick, replacement)
    assert_checks_agree([rel], values, "Y")
    got = outcome(lambda: check_relations([rel], laid(values), values.__getitem__, str))
    if where == "denominator" and replacement == 0:
        assert got == ("raises", "InverseOfZero", "inverse of zero")
    elif where != "lhs" or replacement != 0:
        assert got[1][1], (where, replacement)


small_rationals = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2, Fraction(-1), Fraction(1, 2)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=6))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A3 Y", "B2 T", "B2 Y", "MIXED44 Y"]),
       st.lists(st.tuples(st.integers(0, 10 ** 6), small_rationals), max_size=4))
def test_perturbed_checks_match_value_route(case, changes):
    name, kind = case.split()
    cm = {"A3": A3, "B2": B2, "MIXED44": MIXED44}[name]
    sys = SystemSpec(cm, 3)
    window = (0, 8)
    if kind == "T":
        table, relations = propagate_t(sys, window, rng=random.Random(3)), \
            enumerate_relations(sys, window)
    else:
        table, relations = propagate_y(sys, window, rng=random.Random(3)), \
            enumerate_y_relations(sys, window)
    values = dict(table.values)
    keys = sorted(values)
    for index, replacement in changes:
        values[keys[index % len(keys)]] = replacement
    assert_checks_agree(relations, values, kind)


# --- solves ---------------------------------------------------------------------------


def slot_values(store, demand, layout):
    """The value reader of a fill's store: var -> the value of the pair at
    its slot, solved on demand where the slot is empty."""
    def value(var):
        i = layout.slot(var)
        return pair_value(*(store[i] or demand(i)))

    return value


def paired(solve, layout):
    """A value solve as the slot solve fill_lattice runs: it reads values
    built from the store's pairs, and its value goes back as a pair."""
    return lambda store, demand, i: ring_pair(solve(slot_values(store, demand, layout)))


class ValueT(TRelation):
    """A T-relation whose Cauchy step is the value formula rhs / lhs[0]."""

    __slots__ = ()

    def solve(self, store, demand, i, at):
        rel = self.shift(at.layout.var(i).k - self.lhs[1].k)
        value = slot_values(store, demand, at.layout)
        return ring_pair(rel.rhs(value) / value(rel.lhs[0]))


class ValueY(YRelation):
    """A Y-relation whose Cauchy step is the value formula
    numerator / (denominator lhs[0])."""

    __slots__ = ()

    def solve(self, store, demand, i, at):
        rel = self.shift(at.layout.var(i).k - self.lhs[1].k)
        value = slot_values(store, demand, at.layout)
        num, den = rel.rhs(value)
        if den == 0 or num == 0:
            raise ZeroDivisor(f"degenerate side at {rel.center.label('Y')}")
        return ring_pair(num / (den * value(rel.lhs[0])))


def value_solved(cls, relation):
    """The relation builder relation with every relation built as cls."""
    def build(sys, a, m, k):
        rel = relation(sys, a, m, k)
        return cls(rel.center, rel.lhs, *(tuple(rel.factors(i)) for i in (0, 1)))

    return build


def oracle_propagate_y(sys, window, initial):
    """propagate_y with the Y-solve written as Fraction values."""
    return _propagate("Y", sys, window, value_solved(ValueY, y_relation), initial, None)


def oracle_propagate_t(sys, window, initial):
    """propagate_t with the T-solve written as Fraction values."""
    return _propagate("T", sys, window, value_solved(ValueT, t_relation), initial, None)


def slab(sys, kind, window, draw):
    """Initial data for the free slab of width 2 d_a, value by value."""
    top = sys.max_m_t if kind == "T" else sys.max_m_y
    lo = window[0]
    return {LatticeVar(a, m, k): draw()
            for a in range(sys.cm.r) for m in range(1, top(a) + 1)
            for k in range(lo, lo + 2 * sys.cm.d[a])}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A3", "B2", "MIXED44"]), st.randoms(use_true_random=False),
       st.sampled_from([[Fraction(-1)], [2, -3], [Fraction(1, 3), Fraction(-2, 5)]]))
def test_solves_match_value_route(name, rng, specials):
    # initial data of small rationals with ints, negatives and some Y = -1;
    # no rng, so a degenerate side or a solved zero raises at its variable
    cm = {"A3": A3, "B2": B2, "MIXED44": MIXED44}[name]
    sys = SystemSpec(cm, 2 if name == "MIXED44" else 3)
    window = (0, 7)

    def draw():
        if rng.random() < 0.2:
            return rng.choice(specials)
        return Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))

    y_initial = slab(sys, "Y", window, draw)
    got = outcome(lambda: propagate_y(sys, window, initial=y_initial))
    assert got == outcome(lambda: oracle_propagate_y(sys, window, y_initial))
    if max(cm.d) < 3:
        t_initial = slab(sys, "T", window, draw)
        assert outcome(lambda: propagate_t(sys, window, initial=t_initial)) \
            == outcome(lambda: oracle_propagate_t(sys, window, t_initial))


def test_degenerate_and_zero_solves_name_their_variable():
    sys = SystemSpec(A3, 3)
    y_initial = slab(sys, "Y", (0, 6), lambda: Fraction(2))
    y_initial[LatticeVar(1, 1, 1)] = Fraction(-1)
    got = outcome(lambda: propagate_y(sys, (0, 6), initial=y_initial))
    assert got == outcome(lambda: oracle_propagate_y(sys, (0, 6), y_initial))
    assert got == ("raises", "ZeroDivisor", "degenerate side at Y[a=1,m=1,k=1]")
    # T(a=1, m=1, k=2) = (T_2(1) + T_1(1)^0 T(a=2, m=1, k=1)) / T(a=1, m=1, k=0) = 0
    t_initial = slab(sys, "T", (0, 6), lambda: Fraction(1))
    t_initial[LatticeVar(1, 1, 1)] = Fraction(-1)
    got = outcome(lambda: propagate_t(sys, (0, 6), initial=t_initial))
    assert got == outcome(lambda: oracle_propagate_t(sys, (0, 6), t_initial))
    assert got == ("raises", "ZeroDivisor", "solved zero at T[a=1,m=1,k=2]")


def oracle_y_to_t(y_table, rng, free):
    """y_to_t about the default centre, with both rules written as Fraction
    values."""
    sys = y_table.system
    cm = sys.cm
    lo, hi = y_table.window
    center = (lo + hi) // 2
    caps = {a: sys.max_m_y(a) + 1 for a in range(cm.r)}
    span = range(lo - max(cm.d), hi + max(cm.d) + 1)
    y_vals = y_table.values

    def rule(var):
        a, m, k = var
        if k not in span or not 1 <= m <= caps[a]:
            return None
        da = cm.d[a]
        if m == 1:
            sign = 1 if k >= center + da else -1
            kc = k - sign * da
            y1 = y_vals.get(LatticeVar(a, 1, kc))
            if y1 is None:
                return None
            coupling = t_relation(sys, a, 1, kc).term_m
            opposite = LatticeVar(a, 1, k - 2 * sign * da)

            def solve(value):
                product = factor_product(value, coupling)
                far = value(opposite)
                if y1 == 0 or far == 0:
                    raise ZeroDivisor(f"degenerate extension at {var.label()}")
                return (1 + 1 / y1) * product / far
        else:
            ym = y_vals.get(LatticeVar(a, m - 1, k))
            if ym is None:
                return None

            def solve(value):
                left = value(LatticeVar(a, m - 1, k - da))
                right = value(LatticeVar(a, m - 1, k + da))
                below = Fraction(1) if m == 2 else value(LatticeVar(a, m - 2, k))
                if ym == -1:
                    raise ZeroDivisor(f"1 + Y vanishes under {var.label()}")
                return left * right / ((1 + ym) * below)

        return paired(solve, layout)

    # the rules read at most 2 d_max slices from the variable they solve
    layout = Layout([(a, m) for a in range(cm.r) for m in range(1, caps[a] + 1)],
                    span.start - 2 * max(cm.d), span.stop - 1 + 2 * max(cm.d))
    slab = [LatticeVar(a, 1, k) for a in range(cm.r)
            for k in range(center - cm.d[a], center + cm.d[a])]
    initial = {var: Fraction(1) for var in slab} if free == "unit" else None
    targets = [layout.slot((a, m, k)) for a in range(cm.r)
               for m in range(1, caps[a] + 1) for k in span]
    pairs = fill_lattice("T", layout, slab, targets, lambda i: rule(layout.var(i)), rng,
                         initial, partial=True)
    ks = [v.k for v in pairs]
    meta = {"free_choice": free, "center": center}
    return ValueTable("T", sys, (min(ks), max(ks)), pairs, meta)


def oracle_roundtrip(y_table, rng, free):
    """roundtrip_check on oracle_y_to_t, with the mapped Y-values and the
    claim identities compared as values."""
    t_table = oracle_y_to_t(y_table, rng, free)
    mapped = {rel.center: y for rel, y, _, _ in value_route_mapped_y(t_table)}
    region = ysystem.recoverable_region(y_table, list(mapped))
    mismatches = [violation(var.label("Y"), mapped[var], y_table.values[var])
                  for var in region if mapped[var] != y_table.values[var]]
    claim = value_route_claim(t_table, y_table)
    return {"compared": len(region), "mismatches": mismatches, "claim_violations": claim,
            "pass": bool(region) and not mismatches and not claim}, t_table


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(A3, 4, 14), (B2, 3, 16), (MIXED44, 2, 8)]),
       st.integers(0, 2 ** 16), st.sampled_from(["random", "unit"]),
       st.lists(st.tuples(st.integers(0, 10 ** 6),
                          st.sampled_from([Fraction(-1), Fraction(-2, 3), Fraction(5)])),
                max_size=2))
def test_y_to_t_and_roundtrip_match_value_route(case, seed, free, changes):
    cm, cap, width = case
    y_table = propagate_y(SystemSpec(cm, cap, restricted=False), (0, width),
                          rng=random.Random(seed))
    keys, values = sorted(y_table.values), dict(y_table.values)
    for index, replacement in changes:
        values[keys[index % len(keys)]] = replacement
    y_table = table_of("Y", y_table.system, y_table.window, values)
    got = outcome(lambda: y_to_t(y_table, rng=random.Random(seed), free=free))
    want = outcome(lambda: oracle_y_to_t(y_table, random.Random(seed), free))
    if got[:2] == ("raises", "DegenerateData"):
        # the reconstruction stops at the given Y; the oracle solves the same
        # zero, or meets the same vanishing 1 + Y, and fails after its retries
        assert want[:2] == ("raises", "ZeroDivisor"), want
        with pytest.raises(DegenerateData, match=re.escape(got[2])):
            roundtrip_check(y_table, rng=random.Random(seed), free=free)
        return
    assert got == want
    assert outcome(lambda: roundtrip_check(y_table, rng=random.Random(seed), free=free)) \
        == outcome(lambda: oracle_roundtrip(y_table, random.Random(seed), free))
    if got[0] == "returns":
        t_table = y_to_t(y_table, rng=random.Random(seed), free=free)
        assert outcome(lambda: claim_identities_check(t_table, y_table)) \
            == outcome(lambda: value_route_claim(t_table, y_table))


def test_y_to_t_int_entries_stay_exact():
    # 1 + 1/Y with an int Y is a float; the pair route keeps every
    # reconstructed value an exact Fraction
    y_table = propagate_y(SystemSpec(A3, 4, restricted=False), (0, 12),
                          rng=random.Random(21))
    as_ints = {var: 2 * (var.a + 1) for var in y_table.values}
    ints = table_of("Y", y_table.system, y_table.window, as_ints)
    t_table = y_to_t(ints, free="unit")
    assert all(type(v) is Fraction for v in t_table.values.values())


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-10 ** 40, 10 ** 40),
                          st.integers(-10 ** 40, 10 ** 40).filter(bool))
                .filter(lambda pair: gcd(*pair) == 1), max_size=6))
def test_reduced_quotient_is_the_fraction_product(pairs):
    # coprime pairs, of either sign, are the precondition
    want = Fraction(1)
    for a, b in pairs:
        want *= Fraction(a, b)
    got = reduced_quotient(pairs)
    assert type(got) is tuple and got == (want.numerator, want.denominator)
    assert gcd(*got) == 1 and got[1] > 0


def _fraction_product(pairs):
    want = Fraction(1)
    for a, b in pairs:
        want *= Fraction(a, b)
    return want.numerator, want.denominator


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-2 ** 1400, 2 ** 1400),
                          st.integers(-2 ** 1400, 2 ** 1400).filter(bool))
                .filter(lambda pair: gcd(*pair) == 1), max_size=6))
def test_reduced_quotient_of_large_pairs_is_the_fraction_product(pairs):
    # up to 16800 bits in all: both sides of ONE_GCD_BITS, one gcd of the
    # product below it and cross-cancelling above
    assert reduced_quotient(pairs) == _fraction_product(pairs)


def test_reduced_quotient_on_both_sides_of_one_gcd_bits():
    rng = random.Random(19)
    sides = set()
    for bits in (ONE_GCD_BITS // 4 - 40, ONE_GCD_BITS // 4 + 40):
        # pairs sharing factors across pairs (6 / 35, 35 / 22 x, 11 / 3),
        # about 4 * bits bits in all
        big = rng.getrandbits(bits) | 1 << (bits - 1)
        pairs = [(6 * big, 35), (35, 22 * (2 * big + 1)), (11, 3), (2 * big + 1, big)]
        pairs = [(a // gcd(a, b), b // gcd(a, b)) for a, b in pairs]
        sides.add(sum(a.bit_length() + b.bit_length() for a, b in pairs) < ONE_GCD_BITS)
        assert reduced_quotient(pairs) == _fraction_product(pairs)
        pairs[0] = (-pairs[0][0], pairs[0][1])
        assert reduced_quotient(pairs) == _fraction_product(pairs)
    assert sides == {True, False}


# --- T -> Y ---------------------------------------------------------------------------


def oracle_t_to_y(t_table):
    """t_to_y as values: Y = coupling / inner and the companion records of
    value_route_t_to_y; the boundary quantity collapses to 1 on every
    tamely laced system, so it adds no record."""
    values = {rel.center: y for rel, y, _, _ in value_route_mapped_y(t_table)}
    y_table = table_of("Y", t_table.system, t_table.window, values)
    return y_table, value_route_t_to_y(t_table)


def _t_table(cm, level, window, seed, restricted=True):
    if restricted:
        return propagate_t(SystemSpec(cm, level), window, rng=random.Random(seed))
    y_table = propagate_y(SystemSpec(cm, level, restricted=False), window,
                          rng=random.Random(seed))
    return y_to_t(y_table, rng=random.Random(seed + 1))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A3", "B2", "MIXED44"]),
       st.lists(st.tuples(st.integers(0, 10 ** 6), small_rationals), max_size=3))
def test_t_to_y_and_claims_match_value_route(name, changes):
    # zero T-values included: a vanishing inner raises at its Y-variable in
    # t_to_y and as the division of values in claim_identities_check
    if name == "MIXED44":
        t_table = _t_table(MIXED44, 2, (0, 8), 5, restricted=False)
    else:
        t_table = _t_table({"A3": A3, "B2": B2}[name], 3, (0, 10), 5)
    y_table, _ = t_to_y(t_table)
    keys = sorted(t_table.values)
    values = dict(t_table.values)
    for index, replacement in changes:
        values[keys[index % len(keys)]] = replacement
    broken = table_of("T", t_table.system, t_table.window, values)
    assert outcome(lambda: t_to_y(broken)) == outcome(lambda: oracle_t_to_y(broken))
    for table in (broken, t_table):
        assert outcome(lambda: claim_identities_check(table, y_table)) \
            == outcome(lambda: value_route_claim(table, y_table))


def test_zero_inner_raises_alike():
    t_table = _t_table(A3, 3, (0, 10), 5)
    broken = table_of("T", t_table.system, t_table.window,
                      {**t_table.values, LatticeVar(0, 2, 5): 0})
    y_table, _ = t_to_y(t_table)
    got = outcome(lambda: t_to_y(broken))
    assert got == outcome(lambda: oracle_t_to_y(broken)) == (
        "raises", "ZeroDivisor", "vanishing T pair under Y[a=1,m=1,k=5]")
    got = outcome(lambda: claim_identities_check(broken, y_table))
    assert got == outcome(lambda: value_route_claim(broken, y_table))
    assert got[:2] == ("raises", "ZeroDivisionError")


def _unreduced(value, scale):
    """value as an unreduced integer pair (N, D), both scaled by a nonzero
    factor, so that D may be negative."""
    return value.numerator * scale, value.denominator * scale


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
       st.sampled_from([0, 0, Fraction(1), Fraction(-2, 3), Fraction(7, 2)]),
       st.sampled_from([0, 0, 1, Fraction(-1, 2)]),
       st.lists(st.integers(-4, 4).filter(bool), min_size=3, max_size=3))
def test_companions_hold_on_pairs_is_the_value_identities(inner, coupling, offset, scales):
    # a zero coupling with inner == pair passes the sum test but not the
    # companion 1 + Y^-1 = pair / coupling
    pair = inner + coupling + offset
    found = companion_identities("at p", coupling / inner, pair, inner, coupling)
    values = [Fraction(v) for v in (pair, inner, coupling)]
    as_pairs = [_unreduced(v, s) for v, s in zip(values, scales)]
    reduced = [v.as_integer_ratio() for v in values]
    assert companions_hold(*as_pairs) == companions_hold(*reduced) == (found == [])


def test_roundtrip_mismatches_match_value_route(monkeypatch):
    # a reconstruction that went wrong: the roundtrip must report the same
    # mismatches and claim violations as the Fraction value route
    y_table = propagate_y(SystemSpec(A3, 4, restricted=False), (0, 16),
                          rng=random.Random(21))
    t_table = y_to_t(y_table, rng=random.Random(5))
    values = dict(t_table.values)
    for var in sorted(values)[::9]:
        values[var] = -2 * values[var]
    broken = table_of("T", t_table.system, t_table.window, values, t_table.meta)
    monkeypatch.setattr(ysystem, "y_to_t", lambda *args, **kwargs: broken)
    report, _ = roundtrip_check(y_table)
    recovered = ysystem.t_to_y(broken)[0].values
    region = ysystem.recoverable_region(y_table, list(recovered))
    assert report["compared"] == len(region)
    assert report["mismatches"] == [
        violation(var.label("Y"), recovered[var], y_table.values[var])
        for var in region if recovered[var] != y_table.values[var]] != []
    assert report["claim_violations"] == value_route_claim(broken, y_table) != []


def test_symbolic_tables_take_the_value_route():
    # rational functions in the initial data: every solve, check and T -> Y
    # step takes the value route, and agrees with the rational route on the
    # data evaluated at a point
    sys = SystemSpec(new_cartan(FINITE_TYPE["A2"]), 2)
    names = {LatticeVar(a, 1, k): f"x{a}{k}" for a in range(2) for k in range(2)}
    point = {name: Fraction(i + 2, i + 5) for i, name in enumerate(sorted(names.values()))}
    symbolic = {var: RationalFunction.gen(name) for var, name in names.items()}
    rational = {var: point[name] for var, name in names.items()}
    for propagate, enumerate_kind in ((propagate_t, enumerate_relations),
                                      (propagate_y, enumerate_y_relations)):
        table = propagate(sys, (0, 8), initial=symbolic)
        assert isinstance(table.values[LatticeVar(0, 1, 6)], RationalFunction)
        exact = propagate(sys, (0, 8), initial=rational)
        assert {var: evaluate(v, point) for var, v in table.values.items()} == exact.values
        relations = enumerate_kind(sys, (0, 8))
        assert check_relations(relations, table.pairs().get, table.get, str) == [] \
            == check_relations(relations, exact.pairs().get, exact.get, str)
    t_table = propagate_t(sys, (0, 8), initial=symbolic)
    y_table, bad = t_to_y(t_table)
    exact_y, exact_bad = t_to_y(propagate_t(sys, (0, 8), initial=rational))
    assert bad == exact_bad == [] and claim_identities_check(t_table, y_table) == []
    assert {var: evaluate(v, point) for var, v in y_table.values.items()} == exact_y.values
