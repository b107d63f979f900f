import random
from fractions import Fraction

import pytest

from tysys.cartan import new_cartan
from tysys.errors import (
    EmptyWindow,
    LevelOutOfRange,
    MissingValue,
    NotTamelyLaced,
    UnschedulableDependency,
)
from tysys.exactmath import random_nonzero_rational
from tysys.tsystem import (
    LatticeVar,
    SystemSpec,
    check_t_solution,
    enumerate_relations,
    identity_check_1,
    identity_check_2,
    m_term,
    m_term_unified,
    propagate_t,
    s_term,
    _s_offsets,
    t_relation,
    table_from_json,
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


# --- structural term builders -------------------------------------------------


def test_s_term_weight_one():
    assert s_term(A2, 1, 5, 3) == [(V(1, 5, 3), 1)]


def test_s_term_weight_two_even_level():
    # two factors at the half level, shifted one slice left and right
    assert s_term(B2_LIKE, 0, 6, 0) == [(V(0, 3, -1), 1), (V(0, 3, 1), 1)]


def test_s_term_weight_three_level_3m_plus_1():
    got = s_term(G2_LIKE, 0, 7, 0)
    assert got == [(V(0, 3, 0), 1), (V(0, 2, -1), 1), (V(0, 2, 1), 1)]


def test_s_term_unit_drop_and_raw_count():
    assert s_term(B2_LIKE, 0, 1, 0) == [(V(0, 1, 0), 1)]
    for b, cm in ((0, B2_LIKE), (0, G2_LIKE), (1, A2)):
        for m in range(1, 8):
            offsets = list(_s_offsets(cm.d[b], m))
            assert len(offsets) == cm.d[b]
            assert len(s_term(cm, b, m, 0)) == sum(1 for level, _ in offsets if level)


def test_m_term_simple_cases():
    assert m_term(A1, 0, 3, 5) == ()
    assert m_term(A2, 0, 4, 2) == ((V(1, 4, 2), 1),)
    # rank-4 matrix, node 1 has d=3 and its only neighbor is the d=1 hub
    assert m_term(MIXED44, 0, 1, 0) == ((V(1, 3, 0), 1),)


def test_m_term_counts():
    for cm in (A3, B2_LIKE, G2_LIKE, MIXED44):
        for a in range(cm.r):
            if cm.d[a] != 1:
                continue
            m = 3 * max(cm.d) + 2  # large enough that nothing drops to level 0
            total = sum(e for _, e in m_term(cm, a, m, 0))
            assert total == sum(cm.d[b] for b in cm.neighbors(a))


@pytest.mark.parametrize("cm", [A3, B2_LIKE, G2_LIKE, MIXED44])
def test_unified_form_matches_piecewise(cm):
    rng = random.Random(20)
    for _ in range(50):
        a = rng.randrange(cm.r)
        m = rng.randint(1, 9)
        k = rng.randint(-10, 10)
        piecewise = dict(m_term(cm, a, m, k))
        unified = dict(m_term_unified(cm, a, m, k))
        assert piecewise == unified


def test_factor_shift_bound():
    for cm in (A3, B2_LIKE, G2_LIKE, MIXED44):
        for a in range(cm.r):
            for m in range(1, 10):
                for var, _ in m_term(cm, a, m, 0):
                    assert abs(var.k) <= max(cm.d[a], cm.d[var.a] - 1)


# --- relations ----------------------------------------------------------------


def test_relation_a1_level2_all_units():
    sys = SystemSpec(A1, 2)
    rel = t_relation(sys, 0, 1, 4)
    assert rel.lhs == (V(0, 1, 3), V(0, 1, 5))
    assert rel.term_a == () and rel.term_m == ()


def test_relation_a2_level2():
    sys = SystemSpec(A2, 2)
    rel = t_relation(sys, 0, 1, 0)
    assert rel.term_a == ()
    assert rel.term_m == ((V(1, 1, 0), 1),)


def test_relation_upper_boundary_unit():
    sys = SystemSpec(A2, 3)
    rel = t_relation(sys, 0, 2, 0)
    assert rel.term_a == ((V(0, 1, 0), 1),)  # the m+1 = 3 factor is a unit


def test_relation_level_out_of_range():
    sys = SystemSpec(A2, 2)
    with pytest.raises(LevelOutOfRange):
        t_relation(sys, 0, 2, 0)
    with pytest.raises(LevelOutOfRange):
        t_relation(sys, 0, 0, 0)


@pytest.mark.parametrize("restricted", [True, False])
def test_system_needs_an_integer_level(restricted):
    with pytest.raises(LevelOutOfRange) as err:
        SystemSpec(A2, None, restricted=restricted)
    assert str(err.value) == "a system needs an integer level, got None"


def test_no_boundary_levels_after_substitution():
    sys = SystemSpec(MIXED44, 2)
    for a in range(4):
        for m in (1, sys.max_m_t(a)):
            rel = t_relation(sys, a, m, 0)
            for var in rel.variables():
                assert 1 <= var.m <= sys.max_m_t(var.a)


def test_enumerate_counts():
    assert len(enumerate_relations(SystemSpec(A1, 2), (0, 3))) == 2
    assert len(enumerate_relations(SystemSpec(A2, 2), (0, 3))) == 4
    # window narrower than twice the largest weight leaves node 1 empty
    rels = enumerate_relations(SystemSpec(MIXED44, 2), (0, 4))
    assert not any(rel.center.a == 0 for rel in rels)
    with pytest.raises(EmptyWindow):
        enumerate_relations(SystemSpec(A2, 2), (3, 2))


# --- checking and propagation ---------------------------------------------------


def table_a1(changes=()):
    """The A1 level-2 solution 1, 3, 2, 2/3 on 0..3, with changes applied
    (table_of: None leaves a hole)."""
    sys = SystemSpec(A1, 2)
    vals = {V(0, 1, k): v for k, v in enumerate([Fraction(1), Fraction(3),
                                                 Fraction(2), Fraction(2, 3)])}
    return table_of("T", sys, (0, 3), {**vals, **dict(changes)})


def test_check_a1_hand_iteration():
    table = table_a1()
    rels = enumerate_relations(table.system, table.window)
    assert check_t_solution(table, rels) == []


def test_check_detects_perturbation():
    table = table_a1({V(0, 1, 2): Fraction(5)})
    rels = enumerate_relations(table.system, table.window)
    assert len(check_t_solution(table, rels)) == 1


def test_check_all_ones_fails():
    sys = SystemSpec(A2, 2)
    vals = {V(a, 1, k): Fraction(1) for a in range(2) for k in range(4)}
    table = table_of("T", sys, (0, 3), vals)
    rels = enumerate_relations(sys, (0, 3))
    assert 0 < len(check_t_solution(table, rels)) == len(rels)


@pytest.mark.parametrize("kind", ["T", "Y"])
def test_numeric_mode_needs_a_sample(kind):
    from tysys.ysystem import check_y_solution, enumerate_y_relations, propagate_y

    sys = SystemSpec(new_cartan([[2, -1, 0], [-1, 2, -1], [0, -2, 2]]), 4)
    if kind == "T":
        solve, enumerate_kind, check = propagate_t, enumerate_relations, check_t_solution
    else:
        solve, enumerate_kind, check = propagate_y, enumerate_y_relations, check_y_solution
    table = solve(sys, (0, 20), rng=random.Random(3))
    var = sorted(table.values)[len(table.values) // 2]
    table = table_of(kind, sys, table.window, {**table.values, var: 3 * table.values[var]})
    rels = enumerate_kind(sys, table.window)
    exact = check(table, rels)
    assert exact and check(table, rels, mode="numeric", rng=random.Random(1)) == exact


def _symbolic_a2_tables():
    """(kind, table, relations, check) for the T- and the Y-table of A2 at
    level 2 on 0..12, propagated from four symbols."""
    from tysys.exactmath import RationalFunction
    from tysys.ysystem import check_y_solution, enumerate_y_relations, propagate_y

    sys = SystemSpec(A2, 2)
    initial = {V(a, 1, k): RationalFunction.gen(f"x{a}{k}") for a in range(2) for k in range(2)}
    for kind, solve, enumerate_kind, check in (
            ("T", propagate_t, enumerate_relations, check_t_solution),
            ("Y", propagate_y, enumerate_y_relations, check_y_solution)):
        table = solve(sys, (0, 12), initial=initial)
        yield kind, table, enumerate_kind(sys, table.window), check


def test_symbolic_solves_are_laurent_polynomials():
    # the A2 values are Laurent polynomials in the four symbols; each solve
    # reduces its quotient by exact division, so every one is stored with
    # denominator 1, and the exact check multiplies polynomials of few terms
    for kind, table, rels, check in _symbolic_a2_tables():
        assert all(value.den.is_one() for value in table.values.values()), kind
        assert check(table, rels) == []


def test_numeric_mode_samples_symbolic_tables():
    # a relation that fails at a sample point is checked exactly, so the
    # records are those of exact mode
    for kind, table, rels, check in _symbolic_a2_tables():
        assert check(table, rels, mode="numeric", rng=random.Random(1)) == []
        broken = table_of(kind, table.system, table.window,
                          {**table.values, V(1, 1, 4): 3 * table.values[V(1, 1, 4)]})
        exact = check(broken, rels)
        assert exact and check(broken, rels, mode="numeric", rng=random.Random(1)) == exact


def test_numeric_mode_evaluates_before_it_multiplies(monkeypatch):
    # relations that hold at every point build no product of rational
    # functions, and the rng gives one value per symbol at each of the three
    # sample points
    from tysys import tsystem
    from tysys.exactmath import RationalFunction

    counts = {"mul": 0, "draws": 0}
    mul, draw = RationalFunction.__mul__, tsystem.random_nonzero_rational

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counted_draw(rng):
        counts["draws"] += 1
        return draw(rng)

    for kind, table, rels, check in _symbolic_a2_tables():
        counts.update(mul=0, draws=0)
        with monkeypatch.context() as patch:
            patch.setattr(RationalFunction, "__mul__", counted_mul)
            patch.setattr(RationalFunction, "__rmul__", counted_mul)
            patch.setattr(tsystem, "random_nonzero_rational", counted_draw)
            assert check(table, rels, mode="numeric", rng=random.Random(7)) == []
        assert counts == {"mul": 0, "draws": 3 * 4}, kind


def test_check_missing_value():
    table = table_a1({V(0, 1, 3): None})
    rels = enumerate_relations(table.system, table.window)
    with pytest.raises(MissingValue):
        check_t_solution(table, rels)


def test_propagate_a1_period_four():
    sys = SystemSpec(A1, 2)
    init = {V(0, 1, 0): Fraction(1), V(0, 1, 1): Fraction(3)}
    table = propagate_t(sys, (0, 5), initial=init, rng=random.Random(0))
    want = [1, 3, 2, Fraction(2, 3), 1, 3]
    assert [table.values[V(0, 1, k)] for k in range(6)] == want


@pytest.mark.parametrize("cm,level", [(A2, 2), (A2, 3), (A3, 2), (B2_LIKE, 2), (B2_LIKE, 3)])
def test_propagate_self_consistency(cm, level):
    sys = SystemSpec(cm, level)
    table = propagate_t(sys, (0, 24), rng=random.Random(42))
    rels = enumerate_relations(sys, table.window)
    assert rels and check_t_solution(table, rels) == []


def test_propagate_needs_weight_order():
    # node 0 (weight 2) values at the current slice feed node 1's couplings
    sys = SystemSpec(B2_LIKE, 2)
    table = propagate_t(sys, (0, 14), rng=random.Random(7))
    for k in range(15):
        assert V(1, 1, k) in table.values and V(0, 1, k) in table.values


def test_propagate_unschedulable_for_weight_three():
    sys = SystemSpec(G2_LIKE, 2)
    with pytest.raises(UnschedulableDependency):
        propagate_t(sys, (0, 16), rng=random.Random(1))


def test_propagate_rejects_unrestricted():
    with pytest.raises(LevelOutOfRange):
        propagate_t(SystemSpec(A2, 3, restricted=False), (0, 10), rng=random.Random(0))


def test_table_json_roundtrip():
    sys = SystemSpec(B2_LIKE, 2)
    table = propagate_t(sys, (0, 9), rng=random.Random(3))
    back = table_from_json(table.to_json(), sys, "T")
    assert back.values == table.values
    assert back.window == table.window
    again = table_from_json(table.to_json(), sys=sys, kind="T")
    assert again.values == table.values
    with pytest.raises(ValueError, match="not 'Y'"):
        table_from_json(table.to_json(), sys=sys, kind="Y")
    with pytest.raises(ValueError, match="another system: level 2, not 3"):
        table_from_json(table.to_json(), sys=SystemSpec(B2_LIKE, 3), kind="T")
    with pytest.raises(ValueError, match="a table is a JSON object"):
        table_from_json(table.to_json()["entries"], sys=sys, kind="T")


def test_failed_dump_leaves_no_file(tmp_path):
    from tysys.exactmath import RationalFunction

    table = propagate_t(SystemSpec(A2, 2), (0, 4), rng=random.Random(1))
    # a symbolic value after the first entry, so that the dump has written
    # some text when it fails
    var = sorted(table.values)[1]
    table = table_of("T", table.system, table.window,
                     {**table.values, var: RationalFunction.gen("x")})
    out = tmp_path / "table.json"
    with pytest.raises(TypeError, match=r"T\[a=1,m=1,k=1\] is not a rational"):
        table.dump(out)
    assert not out.exists()


# --- telescoping identities ------------------------------------------------------


def random_node_table(rng, max_m, window):
    return {(m, k): random_nonzero_rational(rng)
            for m in range(0, max_m + 1)
            for k in range(window[0], window[1] + 1)}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_identity_1(p):
    rng = random.Random(100 + p)
    values = random_node_table(rng, 4 * p + 2, (-2, 14))
    assert identity_check_1(p, (-2, 14), values)


def test_identity_1_hand_expansion_p2():
    # independent cross-check of one center against the fully written-out form
    rng = random.Random(55)
    values = random_node_table(rng, 10, (-4, 4))
    m, k = 2, 0

    def v(mm, kk):
        return values[(mm, kk)]

    lhs = v(4, -2) * v(4, 2) / (v(2, 0) * v(6, 0))
    rhs = (v(3, -1) * v(3, 1) / (v(2, 0) * v(4, 0))
           * v(4, 0) * v(4, 2) / (v(3, 1) * v(5, 1))
           * v(4, -2) * v(4, 0) / (v(3, -1) * v(5, -1))
           * v(5, -1) * v(5, 1) / (v(4, 0) * v(6, 0)))
    assert lhs == rhs
    assert identity_check_1(2, (-4, 4), values)


@pytest.mark.parametrize("db", [1, 2, 3])
def test_identity_2(db):
    rng = random.Random(200 + db)
    values = random_node_table(rng, 6, (-2, 14))
    assert identity_check_2(db, (-2, 14), values)


def test_identity_2_non_multiple_is_one():
    rng = random.Random(31)
    values = random_node_table(rng, 5, (-3, 9))
    db, m, k = 3, 4, 2
    from tysys.tsystem import _s_value

    lhs = (_s_value(values, db, m, k - 1) * _s_value(values, db, m, k + 1)
           / (_s_value(values, db, m - 1, k) * _s_value(values, db, m + 1, k)))
    assert lhs == 1


def test_propagate_rejects_negative_retries():
    sys = SystemSpec(A2, 2)
    with pytest.raises(ValueError, match="-1"):
        propagate_t(sys, (0, 10), rng=random.Random(0), retries=-1)


# --- compiled stencils against the independent routes ----------------------------


def test_stencils_match_independent_routes():
    from tysys.acceptance import FINITE_TYPE, MIXED44_ROWS
    from tysys.tsystem import _boundary_filter
    from tysys.ysystem import y_relation, y_relation_via_transpose

    centres = 0
    for rows in [*FINITE_TYPE.values(), MIXED44_ROWS]:
        cm = new_cartan(rows)
        systems = [SystemSpec(cm, level) for level in (2, 3, 4)]
        systems.append(SystemSpec(cm, 3, restricted=False))
        for sys in systems:
            for a in range(cm.r):
                for m in range(1, sys.max_center_m(a, "T") + 1):
                    for k in range(20):
                        centres += 1
                        assert t_relation(sys, a, m, k).term_m == \
                            _boundary_filter(sys, m_term_unified(cm, a, m, k))
                for m in range(1, sys.max_center_m(a, "Y") + 1):
                    for k in range(20):
                        centres += 1
                        direct = y_relation(sys, a, m, k)
                        transposed = y_relation_via_transpose(cm, a, m, k)
                        if sys.restricted:
                            assert direct.numerator == transposed.numerator
                        else:
                            assert direct == transposed
    assert centres == 23640


def test_tamely_laced_checked_once_per_matrix(monkeypatch):
    from tysys import cartan

    calls = []
    original = cartan.is_tamely_laced
    monkeypatch.setattr(cartan, "is_tamely_laced",
                        lambda cm: calls.append(cm) or original(cm))
    cm = new_cartan([[2, -1], [-2, 2]])
    sys = SystemSpec(cm, 3)
    for k in range(50):
        m_term(cm, 0, 2, k)
        s_term(cm, 0, 3, k)
        t_relation(sys, 1, 2, k)
    assert len(calls) == 1
    bad = new_cartan([[2, -2], [-2, 2]])
    for fn in (m_term, m_term_unified):
        with pytest.raises(NotTamelyLaced):
            fn(bad, 0, 1, 0)
    with pytest.raises(NotTamelyLaced):
        s_term(bad, 0, 1, 0)
