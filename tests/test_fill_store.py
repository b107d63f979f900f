"""Lattice propagation against an independent route, and at the window edges.

The independent route never calls fill_lattice.  It is a naive loop over
values: slice by slice, it solves every variable it can from values already
known (Relation.rhs for propagation, the two Y -> T rules written as values
for the reconstruction), and repeats over the slice until nothing more is
solved.  It starts from the produced table's own free data, so the tables
must agree value for value, variable for variable.

The edge tests pin what the scheduler produces where a stencil meets the
window's edge: the error texts, the tables of windows barely wider than the
free slab, and the variables of a partial reconstruction.  The last tests
pin the one-line error of a sample drawn without an rng, and slot_pairs'
inverted reads against the explicit swap.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tysys.acceptance import FINITE_TYPE, MIXED44_ROWS
from tysys.cartan import new_cartan
from tysys.errors import DegenerateData, UnschedulableDependency
from tysys.exactmath import RationalFunction
from tysys.tsystem import (
    LatticeVar,
    SystemSpec,
    factor_product,
    pair_product,
    propagate_t,
    slot_pairs,
    t_relation,
)
from tysys.ysystem import propagate_y, roundtrip_check, y_relation, y_to_t

from tables import table_of

MIXED44 = new_cartan(MIXED44_ROWS)


def _solved_in_passes(pending, solve, values):
    """Solve the variables of pending into values, each by solve(var, get)
    once every value it reads is known: passes over the list until one
    solves nothing.  Returns the variables left unsolved."""
    while pending:
        left = []
        for var in pending:
            try:
                values[var] = solve(var, values.__getitem__)
            except KeyError:
                left.append(var)
        if len(left) == len(pending):
            return left
        pending = left
    return []


def naive_propagate(kind, table):
    """The table that Cauchy propagation must produce from table's free
    data, slice by slice: every variable of a slice is lhs[1] of the
    relation centred d_a slices below it, solved as rel.rhs / lhs[0] on
    values.  The first 2 d_a slices of each node, and the levels above every
    relation centre, are free and read from table."""
    sys = table.system
    lo, hi = table.window
    d = sys.cm.d
    top = sys.max_m_t if kind == "T" else sys.max_m_y
    build = t_relation if kind == "T" else y_relation

    def solve(var, get):
        rel = build(sys, var.a, var.m, var.k - d[var.a])
        if kind == "T":
            return rel.rhs(get) / get(rel.lhs[0])
        num, den = rel.rhs(get)
        return num / (den * get(rel.lhs[0]))

    values = {}
    for k in range(lo, hi + 1):
        pending = []
        for a in range(sys.cm.r):
            for m in range(1, top(a) + 1):
                var = LatticeVar(a, m, k)
                if k < lo + 2 * d[a] or m > sys.max_center_m(a, kind):
                    values[var] = table.values[var]
                else:
                    pending.append(var)
        assert _solved_in_passes(pending, solve, values) == [], (kind, k)
    return values


def naive_y_to_t(y_table, t_table):
    """The T-table that y_to_t must produce from t_table's free data (level
    1 on the 2 d_a slices around the centre slice), by its two rules written
    as values:

        T(a, 1, k) = (1 + 1/Y(a, 1, kc)) M(a, 1, kc) / T(a, 1, k - 2 s d_a),
        T(a, m, k) = T(a, m-1, k-d_a) T(a, m-1, k+d_a) / ((1 + Y(a, m-1, k)) T(a, m-2, k)),

    with kc = k - s d_a, s = 1 above the free slices and -1 below, M the
    coupling product of the T-relation and T(a, 0, k) = 1.  Every variable
    within d_max slices of the Y window, up to one level above the Y-table's
    cap, that the rules reach."""
    sys = y_table.system
    cm = sys.cm
    lo, hi = y_table.window
    centre = t_table.meta["center"]
    y = y_table.values
    d, reach = cm.d, max(cm.d)

    def solve(var, get):
        a, m, k = var
        if m == 1:
            s = 1 if k >= centre + d[a] else -1
            kc = k - s * d[a]
            coupling = factor_product(get, t_relation(sys, a, 1, kc).term_m)
            opposite = get(LatticeVar(a, 1, k - 2 * s * d[a]))
            return (1 + 1 / y[LatticeVar(a, 1, kc)]) * coupling / opposite
        below = 1 if m == 2 else get(LatticeVar(a, m - 2, k))
        return (get(LatticeVar(a, m - 1, k - d[a])) * get(LatticeVar(a, m - 1, k + d[a]))
                / ((1 + y[LatticeVar(a, m - 1, k)]) * below))

    free = [LatticeVar(a, 1, k) for a in range(cm.r) for k in range(centre - d[a], centre + d[a])]
    values = {var: t_table.values[var] for var in free}
    pending = [LatticeVar(a, m, k) for k in range(lo - reach, hi + reach + 1)
               for a in range(cm.r) for m in range(1, sys.max_m_y(a) + 2)
               if LatticeVar(a, m, k) not in values]
    _solved_in_passes(pending, solve, values)
    return values


def _finite_systems(max_d=3):
    for name, rows in sorted(FINITE_TYPE.items()):
        cm = new_cartan(rows)
        if max(cm.d) <= max_d:
            for level in (2, 3, 4):
                yield f"{name} L{level}", SystemSpec(cm, level)


@pytest.mark.parametrize("name,sys", list(_finite_systems(max_d=2)))
def test_propagate_t_matches_the_naive_loop(name, sys):
    table = propagate_t(sys, (-3, 30), rng=random.Random(f"T {name}"))
    assert naive_propagate("T", table) == table.values


@pytest.mark.parametrize("name,sys", list(_finite_systems()))
def test_propagate_y_matches_the_naive_loop(name, sys):
    table = propagate_y(sys, (-3, 30), rng=random.Random(f"Y {name}"))
    assert naive_propagate("Y", table) == table.values


def test_propagate_y_unrestricted_matches_the_naive_loop():
    table = propagate_y(SystemSpec(MIXED44, 2, restricted=False), (0, 12),
                        rng=random.Random(12))
    assert naive_propagate("Y", table) == table.values


def test_symbolic_propagate_t_matches_the_naive_loop():
    # B2 at level 2: the values are Laurent polynomials in the slab's symbols
    sys = SystemSpec(new_cartan(FINITE_TYPE["B2"]), 2)
    initial = {LatticeVar(a, m, k): RationalFunction.gen(f"x{a}{m}{k}")
               for a in range(2) for m in range(1, sys.max_m_t(a) + 1)
               for k in range(2 * sys.cm.d[a])}
    table = propagate_t(sys, (0, 6), initial=initial)
    assert all(value.den.is_one() for value in table.values.values())
    assert naive_propagate("T", table) == table.values


def _y_tables():
    cases = [(FINITE_TYPE["A3"], 4, 14), (FINITE_TYPE["B2"], 3, 16),
             (FINITE_TYPE["G2"], 2, 18), (MIXED44_ROWS, 2, 8)]
    for rows, cap, width in cases:
        sys = SystemSpec(new_cartan(rows), cap, restricted=False)
        yield propagate_y(sys, (0, width), rng=random.Random(cap * width))


@pytest.mark.parametrize("free", ["random", "unit"])
@pytest.mark.parametrize("hole", [False, True])
def test_y_to_t_matches_the_naive_rules(free, hole):
    for y_table in _y_tables():
        if hole:
            # a missing Y-value leaves everything that needs it undetermined
            var = sorted(y_table.values)[len(y_table.values) // 3]
            y_table = table_of("Y", y_table.system, y_table.window,
                               {**y_table.values, var: None})
        t_table = y_to_t(y_table, rng=random.Random(4), free=free)
        assert naive_y_to_t(y_table, t_table) == t_table.values


# --- the window's edges ----------------------------------------------------------------


@pytest.mark.parametrize("level", [2, 3, 4])
def test_weight_three_needs_a_slice_below_the_window(level):
    sys = SystemSpec(new_cartan(FINITE_TYPE["G2"]), level)
    with pytest.raises(UnschedulableDependency) as raised:
        propagate_t(sys, (0, 16), rng=random.Random(1))
    assert str(raised.value) == ("solving T[a=2,m=3,k=2] needs T[a=1,m=1,k=-1] "
                                 "at a not-yet-filled slice")
    assert raised.value.var == "T[a=1,m=1,k=-1]"


def _dump_digest(table, tmp_path):
    path = tmp_path / "table.json"
    table.dump(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# (matrix, level, width, kind): size and sha256 of the dumped table on the
# window -3 .. -3 + width - 1, a width of 2 d_max and 2 d_max + 1 slices;
# the first is the free slab of the weight-2 nodes and solves only the others
NARROW = {
    ("B2", 2, 4, "T"): (16, "293a295678ed3ea0c0ba8bd7078512398e7409dd6a5f3216e8b0fb4c2101525a"),
    ("B2", 2, 4, "Y"): (16, "f6eec5be4a8eb09c8bb47506e30f301e8e416204f70bb6626f48a931f264bb09"),
    ("B2", 2, 5, "T"): (20, "2c6d772e23eacd67f8fa8d2679e708ecbf3bee0879cb6d9137b5fff7891e1d83"),
    ("B2", 2, 5, "Y"): (20, "7c23e9de1f6b61e95eecf5c9c5811fa2c93f7bc556ab25a2af82ba57a22f7ad7"),
    ("B2", 3, 4, "T"): (28, "66489127aaaaf2a5ce1255955f4674d71bff012e16df8c2e9dd216486adb4c78"),
    ("B2", 3, 4, "Y"): (28, "201e9526ef8d6205c6a27619e2be84f88d454f10df3d6a76bfaf8710941de587"),
    ("B2", 3, 5, "T"): (35, "02d301bce1803e5c4b324af149fbb2902bb730bcc2bc0d633f585b81e789cfbd"),
    ("B2", 3, 5, "Y"): (35, "c3c02c570608cce517d7d1f736ce29d272db7f29915f96da079d6559c1347a20"),
    ("C3", 2, 4, "T"): (28, "071d58fc24e5ff1ee11b91cf876e023c9aaaf9bdc441f84f68c12346ede6f720"),
    ("C3", 2, 4, "Y"): (28, "57e0c2650c2dac76b90bad7972c8a498dd27e2364674f95db3ee8a6e44f31928"),
    ("C3", 2, 5, "T"): (35, "9dca4a879b2dc52a431b8ea4882bf338b5148b39e6672b32642219983f8418e9"),
    ("C3", 2, 5, "Y"): (35, "445a5b191eb3d2b111bba7d8b341cf9b15328dc70466b1491014d84ab6278a6c"),
    ("C3", 3, 4, "T"): (48, "78947e13812be721a276b325e812b448af7890ce51247b1371b566e1f237000c"),
    ("C3", 3, 4, "Y"): (48, "b6635665f2e36dd882cf81cf087bd2c811d8fc46d87ca50ab3c5d442ea87757c"),
    ("C3", 3, 5, "T"): (60, "a2a64a2e3f3fcb95a647ef64a8773a0dcc8b942bfb1d1194df954a63f92b22ec"),
    ("C3", 3, 5, "Y"): (60, "d9c8414022d0eb416bbd51ad561e57d4c683201359ed337391dde680ffff0d61"),
}


@pytest.mark.parametrize("case", sorted(NARROW))
def test_narrow_window_tables(case, tmp_path):
    name, level, width, kind = case
    sys = SystemSpec(new_cartan(FINITE_TYPE[name]), level)
    propagate = propagate_t if kind == "T" else propagate_y
    table = propagate(sys, (-3, -3 + width - 1),
                      rng=random.Random(f"{name}/{level}/{width}/{kind}"))
    assert (len(table), _dump_digest(table, tmp_path)) == NARROW[case]


def _variables_digest(table):
    return hashlib.sha256(repr([tuple(v) for v in sorted(table)]).encode()).hexdigest()


@pytest.mark.parametrize("free", ["random", "unit"])
@pytest.mark.parametrize("hole,size,digest", [
    (None, 168, "3b5d2d99e881c3df6e51728eea9efe806995fd30f857d9153611ecd4eaf85fb4"),
    (LatticeVar(1, 1, 4), 140, "797cdc9056e6f5930befa90b824dfa1302a8ab7b8a3c79f9d5f20911b9e19cd7"),
])
def test_partial_reconstruction_variables(free, hole, size, digest):
    # A3 unrestricted at cap 4 on 0..14: the reconstruction covers -1..15,
    # and a missing Y(a=2, m=1, k=4) leaves 28 more variables undetermined
    sys = SystemSpec(new_cartan(FINITE_TYPE["A3"]), 4, restricted=False)
    y_table = propagate_y(sys, (0, 14), rng=random.Random(21))
    if hole is not None:
        y_table = table_of("Y", sys, y_table.window, {**y_table.values, hole: None})
    t_table = y_to_t(y_table, rng=random.Random(5), free=free)
    assert t_table.window == (-1, 15)
    assert (len(t_table), _variables_digest(t_table)) == (size, digest)


def test_degenerate_data_of_the_growth_probe():
    # the seed that bench/probes.py uses for its probe (d): propagate_y draws
    # Y(a=2, m=1, k=0) = -1 on MIXED44 at cap 2, and the reconstruction
    # stops there without a resample, whatever the free data
    sys = SystemSpec(MIXED44, 2, restricted=False)
    y_table = propagate_y(sys, (0, 12), rng=random.Random(2017044716))
    assert y_table.values[LatticeVar(1, 1, 0)] == Fraction(-1)
    message = "Y[a=2,m=1,k=0] = -1 leaves 1 + Y^-1 zero under T[a=2,m=1,k=-1]"
    for call in (lambda: roundtrip_check(y_table, rng=random.Random(0)),
                 lambda: y_to_t(y_table, rng=random.Random(0)),
                 lambda: y_to_t(y_table, free="unit")):
        with pytest.raises(DegenerateData) as raised:
            call()
        assert str(raised.value) == message


# --- without an rng -------------------------------------------------------------------


def _a3_y_table():
    sys = SystemSpec(new_cartan(FINITE_TYPE["A3"]), 4, restricted=False)
    return propagate_y(sys, (0, 14), rng=random.Random(21))


@pytest.mark.parametrize("call", [
    lambda a2, y_table: propagate_t(a2, (0, 8)),
    lambda a2, y_table: propagate_y(a2, (0, 8)),
    lambda a2, y_table: y_to_t(y_table),
    lambda a2, y_table: roundtrip_check(y_table),
], ids=["propagate_t", "propagate_y", "y_to_t", "roundtrip_check"])
def test_a_sample_without_an_rng_is_a_one_line_error(call):
    a2, y_table = SystemSpec(new_cartan(FINITE_TYPE["A2"]), 2), _a3_y_table()
    with pytest.raises(ValueError) as raised:
        call(a2, y_table)
    assert str(raised.value) == ("a random nonzero rational draws its values from rng, "
                                 "but rng is None")


def test_unit_free_data_needs_no_rng():
    y_table = _a3_y_table()
    t_table = y_to_t(y_table, free="unit")
    assert t_table.values == y_to_t(y_table, rng=random.Random(5), free="unit").values
    report, _ = roundtrip_check(y_table, free="unit")
    assert report["pass"] and report["compared"] > 0


# --- slot reads at a negative exponent ------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 40))
                .filter(lambda pair: pair[0] and pair[0] + pair[1]), min_size=1, max_size=6),
       st.data())
def test_slot_pairs_inverts_at_a_negative_exponent(pairs, data):
    # pairs in a store whose odd slots are empty and solved on demand, read
    # from the last slot; a negative exponent must read the explicit swap
    # (q, p), raised to -exp, and the product must be the Fractions' product
    last = len(pairs) - 1
    store = [pair if j % 2 == 0 else None for j, pair in enumerate(pairs)]
    offsets = data.draw(st.lists(st.tuples(st.integers(-last, 0),
                                           st.sampled_from([-2, -1, 1, 2])), max_size=5))
    form = data.draw(st.sampled_from([None, lambda p, q: (p + q, q)]))
    got = slot_pairs(store, lambda j: pairs[j], last, offsets, form)
    expected, product = [], Fraction(1)
    for off, exp in offsets:
        p, q = pairs[last + off] if form is None else form(*pairs[last + off])
        if exp < 0:
            p, q = q, p
        expected.append((p ** abs(exp), q ** abs(exp)))
        product *= Fraction(p, q) ** abs(exp)
    assert got == expected
    assert Fraction(*pair_product(got)) == product
