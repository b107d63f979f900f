import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tysys.acceptance import FINITE_TYPE
from tysys.cartan import new_cartan
from tysys.errors import LevelOutOfRange, WindowTooNarrow, ZeroDivisor
from tysys.exactmath import random_nonzero_rational
from tysys.tsystem import LatticeVar, SystemSpec, propagate_t, table_from_json
from tysys.ysystem import (
    check_y_solution,
    claim_identities_check,
    companion_identities,
    companions_hold,
    covered_y_relations,
    detect_period,
    enumerate_y_relations,
    propagate_y,
    recoverable_region,
    roundtrip_check,
    t_to_y,
    y_relation,
    y_relation_via_transpose,
    y_to_t,
    z_term,
)

from tables import table_of

A1 = new_cartan([[2]])
A2 = new_cartan([[2, -1], [-1, 2]])
A3 = new_cartan([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
B2_LIKE = new_cartan([[2, -1], [-2, 2]])
G2_LIKE = new_cartan([[2, -1], [-3, 2]])
MIXED44 = new_cartan([
    [2, -1, 0, 0],
    [-3, 2, -2, -2],
    [0, -1, 2, -1],
    [0, -1, -1, 2],
])


def V(a, m, k):
    return LatticeVar(a, m, k)


# --- relation structure ---------------------------------------------------------


def test_z_term_p1():
    assert z_term(A2, 1, 1, 4, 7) == [(V(1, 4, 7), 1)]


def test_z_term_p2_expansion():
    got = z_term(B2_LIKE, 1, 2, 3, 0)
    assert got == [(V(1, 5, 0), 1), (V(1, 6, 1), 1), (V(1, 6, -1), 1), (V(1, 7, 0), 1)]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_z_term_count_is_p_squared(p):
    assert len(z_term(A2, 0, p, 2, 0)) == p * p


def test_y_relation_a2_level2():
    sys = SystemSpec(A2, 2)
    rel = y_relation(sys, 0, 1, 5)
    assert rel.lhs == (V(0, 1, 4), V(0, 1, 6))
    assert rel.numerator == ((V(1, 1, 5), 1),)
    assert rel.denominator == ()


def test_y_relation_skips_non_integral_neighbor_level():
    # node 2 of the B2-like matrix at odd m: the half level is not integral;
    # cap 3 centres node 2's relations up to m = t_2 * 3 - 2 = 4
    sys = SystemSpec(B2_LIKE, 3, restricted=False)
    rel = y_relation(sys, 1, 3, 0)
    assert rel.numerator == ()
    rel2 = y_relation(sys, 1, 4, 0)
    assert rel2.numerator == ((V(0, 2, 0), 1),)


def test_y_relation_drops_boundary_denominator():
    sys = SystemSpec(A2, 4)
    top = sys.max_m_y(0)
    rel = y_relation(sys, 0, top, 0)
    assert rel.denominator == ((V(0, top - 1, 0), 1),)
    rel2 = y_relation(sys, 0, 2, 0)
    assert len(rel2.denominator) == 2


@pytest.mark.parametrize("cm", [A3, B2_LIKE, G2_LIKE, MIXED44])
def test_transposed_relation_matches_direct(cm):
    # cap 8 centres every node's relations up to m = t_a * 8 - 2 >= 6
    sys = SystemSpec(cm, 8, restricted=False)
    for a in range(cm.r):
        for m in range(1, 7):
            for k in range(-3, 4):
                direct = y_relation(sys, a, m, k)
                transposed = y_relation_via_transpose(cm, a, m, k)
                assert direct == transposed


# --- propagation -----------------------------------------------------------------


def test_propagate_y_a2_hand_values():
    sys = SystemSpec(A2, 2)
    init = {V(a, 1, k): Fraction(1) for a in range(2) for k in range(2)}
    table = propagate_y(sys, (0, 6), initial=init, rng=random.Random(0))
    assert table.values[V(0, 1, 2)] == 2
    assert table.values[V(1, 1, 2)] == 2
    assert table.values[V(0, 1, 3)] == 3  # (1 + 2) / 1


# periodic finite-type orbits stay bounded; the indefinite rank-4 matrix is
# not periodic and its exact entries double in size per slice, so its window
# stays small
@pytest.mark.parametrize("cm,level,width", [(A2, 2, 30), (A3, 3, 30),
                                            (B2_LIKE, 2, 30), (G2_LIKE, 2, 30),
                                            (MIXED44, 2, 12)])
def test_propagate_y_self_consistency(cm, level, width):
    sys = SystemSpec(cm, level)
    table = propagate_y(sys, (0, width), rng=random.Random(9))
    rels = enumerate_y_relations(sys, table.window)
    assert rels and check_y_solution(table, rels) == []


def test_propagate_y_unrestricted_capped():
    sys = SystemSpec(MIXED44, 2, restricted=False)
    table = propagate_y(sys, (0, 10), rng=random.Random(13))
    rels = enumerate_y_relations(sys, table.window)
    assert rels and check_y_solution(table, rels) == []
    for a in range(4):
        assert V(a, sys.max_m_y(a), 10) in table.values


def test_check_y_detects_perturbation():
    sys = SystemSpec(A2, 2)
    table = propagate_y(sys, (0, 12), rng=random.Random(2))
    table = table_of("Y", sys, table.window,
                     {**table.values, V(0, 1, 6): table.values[V(0, 1, 6)] + 1})
    rels = enumerate_y_relations(sys, table.window)
    assert check_y_solution(table, rels)


def test_check_y_all_ones_fails():
    sys = SystemSpec(A2, 2)
    vals = {V(a, 1, k): Fraction(1) for a in range(2) for k in range(5)}
    table = table_of("Y", sys, (0, 4), vals)
    rels = enumerate_y_relations(sys, (0, 4))
    assert check_y_solution(table, rels)


# --- T -> Y ------------------------------------------------------------------------


def test_t_to_y_a1_is_constant_one():
    sys = SystemSpec(A1, 2)
    vals = {V(0, 1, k): v for k, v in enumerate(
        [Fraction(1), Fraction(3), Fraction(2), Fraction(2, 3), Fraction(1), Fraction(3)])}
    table = table_of("T", sys, (0, 5), vals)
    y_table, violations = t_to_y(table)
    assert violations == []
    assert set(y_table.values.values()) == {Fraction(1)}


@pytest.mark.parametrize("cm,level", [(A2, 2), (A2, 3), (A3, 2), (B2_LIKE, 2)])
def test_t_to_y_satisfies_y_system(cm, level):
    sys = SystemSpec(cm, level)
    t_table = propagate_t(sys, (0, 30), rng=random.Random(77))
    y_table, violations = t_to_y(t_table)
    assert violations == []
    rels = enumerate_y_relations(sys, y_table.window)
    rels = [r for r in rels if all(v in y_table.values for v in r.variables())]
    assert rels and check_y_solution(y_table, rels) == []


def _held_by_membership(y_table):
    """The relations on the table's window whose variables it holds, each
    variable looked up in the table."""
    rels = enumerate_y_relations(y_table.system, y_table.window)
    return [r for r in rels if all(v in y_table for v in r.variables())]


def _t_values(sys, window, rng):
    """A solved T-table where restricted propagation reaches (max d <= 2),
    random T-values otherwise; t_to_y maps either."""
    if max(sys.cm.d) < 3:
        return propagate_t(sys, window, rng=rng)
    lo, hi = window
    return table_of("T", sys, window, {
        V(a, m, k): random_nonzero_rational(rng) for a in range(sys.cm.r)
        for m in range(1, sys.max_m_t(a) + 1) for k in range(lo, hi + 1)})


@pytest.mark.parametrize("name", sorted(FINITE_TYPE))
def test_covered_y_relations_is_the_membership_filter(name):
    cm = new_cartan(FINITE_TYPE[name])
    holes = 0
    for level in (2, 3, 4):
        sys = SystemSpec(cm, level)
        rng = random.Random(f"{name} {level}")
        t_table = _t_values(sys, (-2, 22), rng)
        full = t_to_y(t_table)[0]
        for y_table in (full, propagate_y(sys, (-2, 22), rng=rng)):
            covered = covered_y_relations(y_table)
            assert covered and list(covered) == _held_by_membership(y_table)
        # a T-table loaded with one entry deleted leaves holes in the Y-table
        data = t_table.to_json()
        data["entries"] = [e for e in data["entries"] if (e["a"], e["m"], e["k"]) != (1, 1, 10)]
        y_table, _ = t_to_y(table_from_json(data, sys=sys, kind="T"))
        covered = covered_y_relations(y_table)
        assert list(covered) == _held_by_membership(y_table)
        holes += len(covered) < len(covered_y_relations(full))
    # A1 at level 2 has one level, whose Y = M / (T_0 T_2) = 1 reads no T-value
    assert holes == (2 if name == "A1" else 3)


def test_boundary_quantity_collapses_to_unit():
    # every coupling factor at the top level lands exactly on the boundary
    for cm, level in ((A2, 2), (B2_LIKE, 2), (B2_LIKE, 5), (G2_LIKE, 3), (MIXED44, 2)):
        sys = SystemSpec(cm, level)
        from tysys.tsystem import m_term, _boundary_filter

        for a in range(cm.r):
            for k in range(-4, 5):
                assert _boundary_filter(sys, m_term(cm, a, sys.boundary_m(a), k)) == ()


# --- Y -> T reconstruction -----------------------------------------------------------


def unrestricted_y(cm, cap, width, seed):
    sys = SystemSpec(cm, cap, restricted=False)
    return propagate_y(sys, (0, width), rng=random.Random(seed))


def test_y_to_t_roundtrip_simply_laced():
    y_table = unrestricted_y(A3, 4, 16, 21)
    report, t_table = roundtrip_check(y_table, rng=random.Random(5))
    assert report["pass"], report
    assert report["compared"] > 100


def test_y_to_t_roundtrip_b2_like():
    y_table = unrestricted_y(B2_LIKE, 3, 20, 22)
    report, _ = roundtrip_check(y_table, rng=random.Random(6))
    assert report["pass"], report
    assert report["compared"] > 100


def test_y_to_t_roundtrip_mixed44():
    y_table = unrestricted_y(MIXED44, 2, 12, 23)
    report, _ = roundtrip_check(y_table, rng=random.Random(7))
    assert report["pass"], report
    assert report["compared"] > 100


def test_roundtrip_tests_each_covered_variable_once(monkeypatch):
    # one Y == coupling / inner test per Y-variable whose T-relation factors
    # the reconstructed table covers, for the region and the claims alike
    from tysys import ysystem

    calls = []
    real = ysystem._is_quotient

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ysystem, "_is_quotient", counted)
    y_table = unrestricted_y(A3, 4, 16, 21)
    report, t_table = roundtrip_check(y_table, rng=random.Random(5))
    covered = [var for var in y_table.values if _t_sides(t_table, var) is not None]
    assert report["pass"] and report["compared"] > 100
    assert len(calls) == len(covered)


def test_y_to_t_unit_policy():
    y_table = unrestricted_y(A2, 3, 14, 31)
    report, t_table = roundtrip_check(y_table, free="unit")
    assert report["pass"]
    assert t_table.meta["free_choice"] == "unit"
    assert t_table.values[V(0, 1, t_table.meta["center"])] == 1


def test_y_to_t_free_choices_change_t_not_y():
    y_table = unrestricted_y(A3, 3, 14, 41)
    t1 = y_to_t(y_table, rng=random.Random(1))
    t2 = y_to_t(y_table, rng=random.Random(2))
    common = set(t1.values) & set(t2.values)
    assert any(t1.values[v] != t2.values[v] for v in common)
    y1, _ = t_to_y(t1)
    y2, _ = t_to_y(t2)
    region = set(recoverable_region(y_table, y1)) & set(recoverable_region(y_table, y2))
    assert region
    for var in region:
        assert y1.values[var] == y2.values[var] == y_table.values[var]


def test_y_to_t_rejects_restricted():
    sys = SystemSpec(A2, 2)
    table = propagate_y(sys, (0, 10), rng=random.Random(3))
    with pytest.raises(LevelOutOfRange):
        y_to_t(table, rng=random.Random(0))


def test_y_to_t_window_too_narrow():
    # the free data sit around the middle slice 10 of the window 0..20
    y_table = unrestricted_y(A2, 2, 20, 4)
    y_table = table_of("Y", y_table.system, y_table.window,
                       {v: x for v, x in y_table.values.items() if v.k != 10})
    with pytest.raises(WindowTooNarrow, match="k=10"):
        y_to_t(y_table, rng=random.Random(0))


def test_one_plus_identities_equivalent_given_value_identity():
    # with Y = coupling/inner fixed, the pair relation makes the two
    # one-plus identities stand or fall together
    rng = random.Random(61)
    from tysys.exactmath import random_nonzero_rational

    for _ in range(40):
        inner = random_nonzero_rational(rng)
        coupling = random_nonzero_rational(rng)
        y = coupling / inner
        if y in (0, -1):
            continue
        pair = inner + coupling  # the relation holds
        assert (1 + y == pair / inner) and (1 + 1 / y == pair / coupling)
        pair += 1  # the relation broken
        assert (1 + y == pair / inner) == (1 + 1 / y == pair / coupling) == False


def test_claim_identities_fail_on_perturbation():
    y_table = unrestricted_y(A2, 3, 14, 51)
    t_table = y_to_t(y_table, rng=random.Random(8))
    assert claim_identities_check(t_table, y_table) == []
    var = V(0, 1, t_table.meta["center"] + 2)
    broken = table_of("T", t_table.system, t_table.window,
                      {**t_table.values, var: t_table.values[var] + 1})
    assert claim_identities_check(broken, y_table)


nonzero = st.fractions(-6, 6, max_denominator=5).filter(bool)


@settings(max_examples=80, deadline=None)
@given(nonzero, st.fractions(-6, 6, max_denominator=5), st.fractions(-2, 2, max_denominator=3))
def test_companions_hold_is_the_value_identities(inner, coupling, offset):
    # for Y = coupling/inner, the T-relation form passes exactly where the
    # value route reports nothing; offset 0 makes the relation hold
    pair = inner + coupling + offset
    found = companion_identities("at p", coupling / inner, pair, inner, coupling)
    pairs = (Fraction(v).as_integer_ratio() for v in (pair, inner, coupling))
    assert companions_hold(*pairs) == (found == [])


def _t_sides(table, var):
    """(rel, inner, coupling): the T-relation centred at var and its products
    T_{m-1} T_{m+1} and M as values, or None where the table does not cover
    a factor."""
    from tysys.errors import MissingValue
    from tysys.tsystem import factor_product, t_relation

    rel = t_relation(table.system, *var)
    try:
        inner = factor_product(table.get, rel.term_a)
        return rel, inner, factor_product(table.get, rel.term_m)
    except MissingValue:
        return None


def _t_pair(table, rel):
    """T(k-d) T(k+d), the product of rel's left-hand side, or None."""
    if rel.lhs[0] in table.values and rel.lhs[1] in table.values:
        return table.values[rel.lhs[0]] * table.values[rel.lhs[1]]
    return None


def value_route_mapped_y(t_table):
    """(rel, Y, inner, coupling) with Y = coupling / inner and the products
    as values, at every point t_to_y maps: the T-relations centred at the
    Y-variables whose inner and coupling factors the table covers.  A
    vanishing inner raises."""
    from tysys.ysystem import _centred_relations

    for rel in _centred_relations(t_table):
        sides = _t_sides(t_table, rel.center)
        if sides is None:
            continue
        _, inner, coupling = sides
        if inner == 0:
            raise ZeroDivisor(f"vanishing T pair under {rel.center.label('Y')}")
        yield rel, coupling / inner, inner, coupling


def value_route_t_to_y(t_table):
    """The companion records of t_to_y, every point compared as values."""
    violations = []
    for rel, y, inner, coupling in value_route_mapped_y(t_table):
        pair = _t_pair(t_table, rel)
        if pair is not None:
            violations += companion_identities(rel.center.label("Y"), y, pair, inner,
                                               coupling)
    return violations


def value_route_claim(t_table, y_table):
    """claim_identities_check with every companion compared as values."""
    from tysys.tsystem import violation

    violations = []
    for var, y in sorted(y_table.values.items()):
        sides = _t_sides(t_table, var)
        pair = None if sides is None else _t_pair(t_table, sides[0])
        if pair is None:
            continue
        _, inner, coupling = sides
        if y != coupling / inner:
            violations.append(violation(f"value {var.label('Y')}", y, coupling / inner))
        violations += companion_identities(var.label("Y"), y, pair, inner, coupling)
    return violations


def test_lattice_companion_checks_match_value_route():
    y_table = unrestricted_y(A2, 3, 14, 51)
    t_table = y_to_t(y_table, rng=random.Random(8))
    var = V(0, 1, t_table.meta["center"] + 2)
    broken_t = table_of("T", t_table.system, t_table.window,
                        {**t_table.values, var: t_table.values[var] + 1})
    broken_y = table_of("Y", y_table.system, y_table.window,
                        {**y_table.values, V(1, 1, 9): y_table.values[V(1, 1, 9)] * 2})
    for t, y in ((t_table, y_table), (broken_t, y_table), (t_table, broken_y)):
        assert claim_identities_check(t, y) == value_route_claim(t, y)
    assert value_route_claim(broken_t, y_table) and value_route_claim(t_table, broken_y)
    assert t_to_y(broken_t)[1] == value_route_t_to_y(broken_t) != []
    assert t_to_y(t_table)[1] == value_route_t_to_y(t_table) == []


# --- periodicity -----------------------------------------------------------------------


def test_a2_level2_orbit_period_ten():
    sys = SystemSpec(A2, 2)
    table = propagate_y(sys, (0, 24), rng=random.Random(17))
    assert detect_period(table, 12) == 10


def test_a2_level2_symmetric_start_period_five():
    sys = SystemSpec(A2, 2)
    init = {V(a, 1, k): Fraction(1) for a in range(2) for k in range(2)}
    table = propagate_y(sys, (0, 24), initial=init, rng=random.Random(0))
    assert detect_period(table, 12) == 5


def _dual_coxeter(name, rank):
    return {"A": rank + 1, "B": 2 * rank - 1, "C": rank + 1, "D": 6, "F": 9,
            "G": 4}[name[0]]


# restricted T-propagation cannot start on G2 (max d = 3)
@pytest.mark.parametrize("name,kind", [
    (name, kind) for name in FINITE_TYPE for kind in ("T", "Y")
    if (name, kind) != ("G2", "T")])
def test_finite_type_period_and_half_period_symmetry(name, kind):
    # X^a_m(k + t(h^v + l)) = X^{w(a)}_{t_a l - m}(k), with w the node
    # reversal for A_r and the identity otherwise; so 2t(h^v + l) is a period
    cm = new_cartan(FINITE_TYPE[name])
    propagate = propagate_t if kind == "T" else propagate_y
    for level in (2, 3, 4):
        full = 2 * cm.t * (_dual_coxeter(name, cm.r) + level)
        table = propagate(SystemSpec(cm, level), (0, full + 2 * max(cm.d) + 1),
                          rng=random.Random(level))
        period = detect_period(table, full)
        assert period is not None and full % period == 0, (level, period)
        compared = 0
        for (a, m, k), val in table.values.items():
            later = table.values.get(V(a, m, k + full // 2))
            if later is None:
                continue
            mirror = cm.r - 1 - a if name[0] == "A" else a
            assert later == table.values[V(mirror, cm.t_a[a] * level - m, k)], \
                (level, a, m, k)
            compared += 1
        assert compared, level


def _e_type(rank):
    """E_rank: the chain 0..rank-2 with node rank-1 attached to node 2, so
    that the arms from the branch node have lengths 2, rank-4 and 1."""
    rows = [[0] * rank for _ in range(rank)]
    for a in range(rank):
        rows[a][a] = 2
    for a, b in [(a, a + 1) for a in range(rank - 2)] + [(2, rank - 1)]:
        rows[a][b] = rows[b][a] = -1
    return rows


# Coxeter numbers; the half-period map reverses the chain of E6 (swapping its
# two arms of length 2) and is the identity on E7 and E8
E_TYPE = {"E6": (6, 12), "E7": (7, 18), "E8": (8, 30)}


@pytest.mark.parametrize("name,kind", [(name, kind) for name in E_TYPE
                                       for kind in ("T", "Y")])
def test_e_type_period_and_half_period_symmetry(name, kind):
    # X^a_m(k + h + l) = X^{w(a)}_{l - m}(k), so 2(h + l) is a period
    rank, h = E_TYPE[name]
    cm = new_cartan(_e_type(rank))
    assert cm.t == 1 and cm.tamely_laced

    def mirror(a):
        return rank - 2 - a if name == "E6" and a < rank - 1 else a

    propagate = propagate_t if kind == "T" else propagate_y
    for level in (2, 3, 4):
        full = 2 * (h + level)
        table = propagate(SystemSpec(cm, level), (0, full + 3), rng=random.Random(level))
        period = detect_period(table, full)
        assert period is not None and full % period == 0, (level, period)
        compared = moved = 0
        for (a, m, k), val in table.values.items():
            later = table.values.get(V(a, m, k + full // 2))
            if later is None:
                continue
            assert later == table.values[V(mirror(a), level - m, k)], (level, a, m, k)
            compared += 1
            moved += mirror(a) != a
        assert compared and (moved > 0) == (name == "E6"), level


# --- resampling keeps the order of random draws ----------------------------------------


def _table_digest(table):
    h = hashlib.sha256()
    for var, val in sorted(table.values.items()):
        h.update(f"{var.a},{var.m},{var.k}:{val.numerator}/{val.denominator};".encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("cm,cap,width,seed,digest", [
    (A3, 4, 16, 11, "1a441a39a27f04ed"),
    (B2_LIKE, 3, 20, 45, "41cddeb2661fc52f"),
])
def test_propagate_y_resample_draw_order(cm, cap, width, seed, digest):
    # both runs hit a vanishing right-hand side mid-window and redraw
    table = unrestricted_y(cm, cap, width, seed)
    assert _table_digest(table) == digest
