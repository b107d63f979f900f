"""Values built without a final gcd: every stored lattice value is in lowest
terms, every call reads a table's store as it is then, and a degenerate
Y-value stops the Y -> T reconstruction at once."""

import random
from fractions import Fraction
from math import gcd

import pytest

from tysys import tsystem
from tysys.acceptance import FINITE_TYPE, MIXED44_ROWS
from tysys.cartan import new_cartan
from tysys.cli import main
from tysys.errors import DegenerateData, ZeroDivisor
from tysys.exactmath import LaurentPoly, coprime_fraction
from tysys.tsystem import (
    LatticeVar,
    Layout,
    SystemSpec,
    ValueTable,
    check_t_solution,
    enumerate_relations,
    lay,
    propagate_t,
    t_relation,
)
from tysys.ysystem import (
    check_y_solution,
    enumerate_y_relations,
    propagate_y,
    t_to_y,
    y_relation,
    y_to_t,
)

from tables import table_of


def assert_lowest_terms(table: ValueTable):
    for var, value in table.values.items():
        n, d = value.numerator, value.denominator
        assert d > 0 and gcd(n, d) == 1, (table.kind, var, n, d)


def assert_maps_in_lowest_terms(y_table: ValueTable, seed):
    """y_to_t with both free choices, and t_to_y of each result."""
    for free in ("random", "unit"):
        t_table = y_to_t(y_table, rng=random.Random(seed), free=free)
        assert t_table.values
        assert_lowest_terms(t_table)
        mapped, violations = t_to_y(t_table)
        assert violations == [] and mapped.values
        assert_lowest_terms(mapped)


@pytest.mark.parametrize("name", sorted(FINITE_TYPE))
def test_solved_values_are_in_lowest_terms(name):
    cm = new_cartan(FINITE_TYPE[name])
    for level in (2, 3, 4):
        sys = SystemSpec(cm, level)
        seed = f"lowest terms {name} {level}"
        assert_lowest_terms(propagate_y(sys, (0, 10), rng=random.Random(seed)))
        if max(cm.d) < 3:
            # restricted T-propagation cannot schedule max d = 3
            t_table = propagate_t(sys, (0, 10), rng=random.Random(seed))
            assert_lowest_terms(t_table)
            mapped, violations = t_to_y(t_table)
            assert violations == [] and mapped.values
            assert_lowest_terms(mapped)
        free = SystemSpec(cm, level, restricted=False)
        y_table = propagate_y(free, (0, 8), rng=random.Random(seed))
        assert_lowest_terms(y_table)
        assert_maps_in_lowest_terms(y_table, seed)


def test_mixed44_values_are_in_lowest_terms():
    sys = SystemSpec(new_cartan(MIXED44_ROWS), 2, restricted=False)
    y_table = propagate_y(sys, (0, 9), rng=random.Random(4))
    assert_lowest_terms(y_table)
    assert_maps_in_lowest_terms(y_table, 5)


@pytest.mark.parametrize("n, d", [(3, 4), (-3, 4), (3, -4), (-3, -4), (0, 1), (0, -1),
                                  (7, 1), (2 ** 200 + 1, -(2 ** 199))])
def test_coprime_fraction_is_the_fraction(n, d):
    got = coprime_fraction(n, d)
    want = Fraction(n, d)
    assert type(got) is Fraction and got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert hash(got) == hash(want) and str(got) == str(want)


# --- the Cauchy step ----------------------------------------------------------------


def _solve_cases():
    """(kind, relation) for every relation centre of both kinds on every
    finite type at levels 2-4, and of the Y-kind on MIXED44 unrestricted at
    cap 2."""
    systems = [SystemSpec(new_cartan(FINITE_TYPE[name]), level)
               for name in sorted(FINITE_TYPE) for level in (2, 3, 4)]
    mixed = SystemSpec(new_cartan(MIXED44_ROWS), 2, restricted=False)
    for sys, kinds in [(sys, ("T", "Y")) for sys in systems] + [(mixed, ("Y",))]:
        for kind in kinds:
            build = t_relation if kind == "T" else y_relation
            for a in range(sys.cm.r):
                for m in range(1, sys.max_center_m(a, kind) + 1):
                    yield kind, build(sys, a, m, 3)


def _solve(rel, pair):
    """rel.solve on a store laid out over rel's variables, each slot read
    through pair(key) when the solve first asks for it."""
    ks = [v.k for v in rel.variables()]
    layout = Layout(sorted({(v.a, v.m) for v in rel.variables()}), min(ks), max(ks))
    store = [None] * len(layout)

    def demand(i):
        store[i] = got = pair(tuple(layout.var(i)))
        return got

    return rel.solve(store, demand, layout.slot(rel.lhs[1]), rel.compile(layout))


def test_solve_makes_its_relation_hold():
    rng = random.Random(15)
    for kind, rel in _solve_cases():
        pairs = {}

        def pair(key):
            # a random reduced pair, never Y = -1, so no side vanishes
            while key not in pairs:
                n, d = rng.randint(-30, 30) or 1, rng.randint(1, 30)
                if n != -d:
                    pairs[key] = (n // gcd(n, d), d // gcd(n, d))
            return pairs[key]

        n, d = pairs[tuple(rel.lhs[1])] = _solve(rel, pair)
        assert d > 0 and gcd(n, d) == 1, (kind, rel)
        store, [read] = lay([rel], pairs.get)
        assert rel.holds_exactly(store, *read) is True, (kind, rel)


def test_laurent_solve_is_reduced_by_exact_division():
    # A2 level 2: T(1, 1, 1) T(1, 1, -1) = 1 + T(2, 1, 0); with
    # T(1, 1, -1) = (1 + y) / x and T(2, 1, 0) = y the solve is x / 1
    x, y = LaurentPoly.gen("x"), LaurentPoly.gen("y")
    one = LaurentPoly.one()
    rel = t_relation(SystemSpec(new_cartan(FINITE_TYPE["A2"]), 2), 0, 1, 0)
    pairs = {(0, 1, -1): (1 + y, x), (1, 1, 0): (y, one)}
    assert _solve(rel, pairs.__getitem__) == (x, one)


def test_vanishing_y_side_names_the_centre():
    rel = y_relation(SystemSpec(new_cartan(FINITE_TYPE["A2"]), 2), 0, 1, 5)
    pairs = {(0, 1, 4): (2, 1), (1, 1, 5): (-1, 1)}
    with pytest.raises(ZeroDivisor, match=r"^degenerate side at Y\[a=1,m=1,k=5\]$"):
        _solve(rel, pairs.__getitem__)


# --- every call reads the store as it is then -------------------------------------------


def _triple(table, var):
    """Write three times the value at var into the table's store, in place."""
    store = table.pairs()
    store.store[store.layout.slot(var)] = tsystem.ring_pair(3 * table.get(var))


def test_checks_read_a_changed_entry():
    sys = SystemSpec(new_cartan(FINITE_TYPE["B3"]), 3)
    window = (0, 12)
    for table, relations, check in (
            (propagate_y(sys, window, rng=random.Random(1)),
             enumerate_y_relations(sys, window), check_y_solution),
            (propagate_t(sys, window, rng=random.Random(1)),
             enumerate_relations(sys, window), check_t_solution)):
        assert check(table, relations) == []
        _triple(table, LatticeVar(1, 2, 6))
        assert check(table, relations) != []


def test_t_to_y_reads_a_changed_entry():
    sys = SystemSpec(new_cartan(FINITE_TYPE["B3"]), 3)
    t_table = propagate_t(sys, (0, 12), rng=random.Random(2))
    before, violations = t_to_y(t_table)
    assert violations == []
    _triple(t_table, LatticeVar(0, 1, 6))
    after, violations = t_to_y(t_table)
    assert violations != []
    # T(a=1, m=1, 6) is an inner factor of Y(a=1, m=2, 6)
    changed = LatticeVar(0, 2, 6)
    assert after.values[changed] != before.values[changed]


# --- degenerate Y-data ------------------------------------------------------------------


@pytest.fixture
def draws(monkeypatch):
    """The number of free values fill_lattice has sampled."""
    count = [0]
    original = tsystem.random_nonzero_rational

    def counting(rng):
        count[0] += 1
        return original(rng)

    monkeypatch.setattr(tsystem, "random_nonzero_rational", counting)
    return count


def _a3_y_table(changes):
    """An unrestricted A3 Y-table at cap 4 on 0..14 (reconstruction centre 7),
    with the given entries replaced."""
    sys = SystemSpec(new_cartan(FINITE_TYPE["A3"]), 4, restricted=False)
    y_table = propagate_y(sys, (0, 14), rng=random.Random(21))
    return table_of("Y", sys, y_table.window, {**y_table.values, **changes})


# level-1 extension: T(a=1, m=1, k=10) = (1 + 1/Y(a=1, m=1, k=9)) M / T(a=1, m=1, k=8);
# level-raising rule: T(a=1, m=3, k=7) = T_2(6) T_2(8) / ((1 + Y(a=1, m=2, k=7)) T_1(7))
DEGENERATE = [
    (LatticeVar(0, 1, 9), Fraction(-1), "Y[a=1,m=1,k=9] = -1 leaves 1 + Y^-1 zero "
                                         "under T[a=1,m=1,k=10]"),
    (LatticeVar(0, 1, 9), 0, "Y[a=1,m=1,k=9] = 0 leaves 1 + Y^-1 undefined "
                             "under T[a=1,m=1,k=10]"),
    (LatticeVar(0, 2, 7), Fraction(-1), "Y[a=1,m=2,k=7] = -1 leaves 1 + Y zero "
                                         "under T[a=1,m=3,k=7]"),
]


@pytest.mark.parametrize("var, value, message", DEGENERATE)
def test_degenerate_y_raises_without_resampling(draws, var, value, message):
    y_table = _a3_y_table({var: value})
    draws[0] = 0
    with pytest.raises(DegenerateData) as err:
        y_to_t(y_table, rng=random.Random(3))
    assert str(err.value) == message
    # one attempt: the six free T(a, 1, k) of A3 (2 d_a slices per node)
    assert draws[0] == 6
    with pytest.raises(DegenerateData) as err:
        y_to_t(y_table, free="unit")
    assert str(err.value) == message


def test_y2t_on_degenerate_data_is_one_line(tmp_path, capsys):
    path = tmp_path / "a3.txt"
    path.write_text("3\n2 -1 0\n-1 2 -1\n0 -1 2\n")
    var, value, message = DEGENERATE[0]
    y_table = _a3_y_table({var: value})
    y_table.dump(tmp_path / "y.json")
    for extra in ([], ["--roundtrip"]):
        code = main(["sys", "y2t", str(path), "--level", "unrestricted", "--mcap", "4",
                     "--in", str(tmp_path / "y.json"), *extra])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines() == [f"tysys: {message}"]
