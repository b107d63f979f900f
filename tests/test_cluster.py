import functools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tysys.cartan import bipartite_double, new_cartan
from tysys.cluster import (
    Seed,
    b_of_c,
    check_b1,
    check_b2,
    check_bb,
    check_tb,
    check_x_parity,
    check_y_parity,
    check_yb,
    correspondence_check,
    exchange_matrix_for_level,
    initial_seed,
    laurent_check,
    mutate_matrix,
    mutate_seed,
    mutate_seed_composed,
    new_exchange_matrix,
    random_parity_exchange,
    run_sequence,
    sequence_checks,
    seven_node_example,
    square_product,
    t_to_y_b,
)
from tysys.errors import (
    ConditionsViolated,
    LevelOutOfRange,
    NoParity,
    NotBipartite,
    NotSymmetrizable,
    ZeroDivisor,
)
from tysys.exactmath import LaurentPoly, RationalFunction, SemifieldElement
from tysys.tsystem import SystemSpec, check_relations, factor_product, propagate_t, ring_pair
from tysys.ysystem import companion_identities

A2 = new_cartan([[2, -1], [-1, 2]])
A3 = new_cartan([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
D4 = new_cartan([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
CYCLE3 = new_cartan([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

BA2 = new_exchange_matrix([[0, 1], [-1, 0]], parity=(1, -1))


def x_gen(i):
    return RationalFunction.gen(f"x{i}")


def y_gen(i):
    return SemifieldElement.gen(f"y{i}")


# --- matrices -----------------------------------------------------------------


def test_matrix_validation():
    with pytest.raises(NotSymmetrizable):
        new_exchange_matrix([[0, 1], [1, 0]])
    with pytest.raises(NotSymmetrizable):
        new_exchange_matrix([[1, 1], [-1, 0]])
    with pytest.raises(NotSymmetrizable):
        new_exchange_matrix([[0, 1], [0, 0]])


def test_mutation_row_col_negation_and_involution():
    rng = random.Random(4)
    for _ in range(20):
        em = random_parity_exchange(rng, rng.randint(2, 5))
        k = rng.randrange(em.n)
        mutated = mutate_matrix(em, k)
        assert all(mutated[k, j] == -em[k, j] for j in range(em.n))
        assert all(mutated[i, k] == -em[i, k] for i in range(em.n))
        assert mutate_matrix(mutated, k).b == em.b
        assert mutated.d == em.d


def test_mutation_index_error():
    with pytest.raises(IndexError):
        mutate_matrix(BA2, 2)


def test_b_of_c_a2():
    em = b_of_c(A2)
    assert em.rows() == [[0, 1], [-1, 0]]
    assert em.parity == (1, -1)


def test_b_of_c_keeps_symmetrizer():
    b2 = new_cartan([[2, -1], [-2, 2]])
    em = b_of_c(b2)
    assert em.d == b2.d


def test_plus_mutation_negates_b_of_c():
    em = b_of_c(A2)
    assert mutate_matrix(em, 0).b == ((0, -1), (1, 0))


def test_parity_conditions_on_b_of_c():
    for cm in (A2, A3, new_cartan([[2, -1], [-2, 2]])):
        em = b_of_c(cm)
        assert check_b1(em) and check_b2(em) and check_bb(em)


def test_no_parity_raises():
    em = new_exchange_matrix([[0, 1], [-1, 0]])
    with pytest.raises(NoParity):
        check_b1(em)


def test_seven_node_example_conditions():
    em = seven_node_example()
    assert em.plus_nodes() == [1, 2]  # the two hub nodes
    assert check_b1(em)
    assert check_b2(em)
    assert check_bb(em)


def test_b2_equivalent_to_bb_on_random_matrices():
    rng = random.Random(99)
    agree = 0
    holds = 0
    for _ in range(100):
        em = random_parity_exchange(rng, rng.randint(2, 6))
        left, right = check_b2(em), check_bb(em)
        assert left == right
        agree += 1
        holds += left
    assert agree == 100
    assert 0 < holds < 100  # the sample contains both kinds


def test_square_product_a2_a2():
    em = square_product(A2, A2)
    assert em.n == 4
    assert check_b1(em) and check_bb(em) and check_b2(em)
    assert em.d == (1, 1, 1, 1)
    # orientation around the unit square alternates
    assert em.labels == ("1.1", "1.2", "2.1", "2.2")


def test_square_product_symmetrizer_multiplies():
    b2 = new_cartan([[2, -1], [-2, 2]])
    em = square_product(b2, A2)
    assert em.d == (2, 2, 1, 1)
    assert check_b1(em) and check_b2(em)


def tabled_square_product(cm, cm2, parity, parity2):
    """square_product with each edge's orientation spelled out as parity
    4-tuples (p_i, p'_i', p_j, p'_j')."""
    r, r2 = cm.r, cm2.r
    n = r * r2
    rows = [[0] * n for _ in range(n)]
    for i in range(r):
        for ip in range(r2):
            for j in range(r):
                for jp in range(r2):
                    signs = (parity[i], parity2[ip], parity[j], parity2[jp])
                    value = 0
                    if ip == jp and cm[i, j] < 0:
                        if signs in ((-1, 1, 1, 1), (1, -1, -1, -1)):
                            value = -cm[i, j]
                        elif signs in ((1, 1, -1, 1), (-1, -1, 1, -1)):
                            value = cm[i, j]
                    elif i == j and cm2[ip, jp] < 0:
                        if signs in ((1, 1, 1, -1), (-1, -1, -1, 1)):
                            value = -cm2[ip, jp]
                        elif signs in ((1, -1, 1, 1), (-1, 1, -1, -1)):
                            value = cm2[ip, jp]
                    rows[i * r2 + ip][j * r2 + jp] = value
    pair_parity = tuple(p * p2 for p in parity for p2 in parity2)
    labels = tuple(f"{i + 1}.{ip + 1}" for i in range(r) for ip in range(r2))
    em = new_exchange_matrix(rows, pair_parity, labels)
    if not (check_b1(em) and check_bb(em)):
        raise ConditionsViolated("square product failed its own conditions")
    return em


def test_square_product_sign_rules_match_the_parity_table():
    # every pair of finite types, each on its own bipartition: the same
    # matrix as the table, or the same error
    from test_rational_route import outcome
    from tysys.acceptance import FINITE_TYPE
    from tysys.cartan import bipartition

    matrices = [new_cartan(rows) for rows in FINITE_TYPE.values()]
    compared = 0
    for cm in matrices:
        for cm2 in matrices:
            want = outcome(lambda: tabled_square_product(cm, cm2, bipartition(cm),
                                                         bipartition(cm2)))
            assert outcome(lambda: square_product(cm, cm2)) == want
            compared += 1
    assert compared == 169


def test_exchange_matrix_for_level_is_the_explicit_build():
    # B(C) written out at level 2, and at levels 3-5 the parity table of the
    # square product with the ladder, its odd nodes in the + class
    from tysys.acceptance import FINITE_TYPE
    from tysys.cartan import a_type_rows, bipartition, is_simply_laced

    compared = 0
    for rows in FINITE_TYPE.values():
        cm = new_cartan(rows)
        if not is_simply_laced(cm):
            continue
        p = bipartition(cm)
        want = new_exchange_matrix([[-p[i] * cm[i, j] if cm[i, j] < 0 else 0
                                     for j in range(cm.r)] for i in range(cm.r)], p)
        assert exchange_matrix_for_level(cm, 2) == want
        for level in (3, 4, 5):
            odd_plus = tuple(1 if i % 2 == 0 else -1 for i in range(level - 1))
            want = tabled_square_product(cm, new_cartan(a_type_rows(level - 1)), p, odd_plus)
            assert exchange_matrix_for_level(cm, level) == want
        compared += 4
    assert compared == 20  # A1-A4 and D4 at levels 2-5


def test_an_odd_cycle_is_not_bipartite():
    for call in (lambda: b_of_c(CYCLE3), lambda: square_product(CYCLE3, A2),
                 lambda: square_product(A2, CYCLE3)):
        with pytest.raises(NotBipartite, match="^adjacency graph has an odd cycle$"):
            call()


# --- seeds ---------------------------------------------------------------------


def test_seed_mutation_exchange():
    seed = initial_seed(BA2)
    out = mutate_seed(seed, 0)
    assert out.x[0] == (1 + LaurentPoly.gen("x2")) / x_gen(1)
    assert out.x[1] == x_gen(2)
    assert out.y[0] == y_gen(1).inv()
    g1, g2 = LaurentPoly.gen("y1"), LaurentPoly.gen("y2")
    assert out.y[1] == SemifieldElement.from_num_den(g2 * g1, g1 + 1)
    assert out.matrix.b == ((0, -1), (1, 0))


def test_seed_mutation_involution():
    rng = random.Random(6)
    for _ in range(8):
        em = random_parity_exchange(rng, rng.randint(2, 4))
        seed = initial_seed(em)
        k = rng.randrange(em.n)
        back = mutate_seed(mutate_seed(seed, k), k)
        assert back.matrix.b == em.b
        assert all(back.x[i] == seed.x[i] for i in range(em.n))
        assert all(back.y[i] == seed.y[i] for i in range(em.n))


def test_seed_mutation_keeps_unchanged_coefficients():
    # B(A3) has B_13 = 0: mutating node 1 keeps y3 itself, and the new y1 is
    # the inverse twin of the old one
    em = exchange_matrix_for_level(A3, 2)
    assert em[0, 2] == 0 and em[0, 1] != 0
    for seed in (initial_seed(em), initial_seed(em, numeric=True, rng=random.Random(3))):
        out = mutate_seed(seed, 0)
        assert out.y[2] is seed.y[2]
        assert out.y[1] is not seed.y[1]
    seed = initial_seed(em)
    out = mutate_seed(seed, 0)
    assert out.y[0] is seed.y[0].inv() and out.y[0].inv() is seed.y[0]


def test_composed_mutation_order_independent():
    em = exchange_matrix_for_level(A3, 2)
    seed = initial_seed(em)
    plus = em.plus_nodes()
    assert len(plus) >= 2
    fwd = mutate_seed_composed(seed, plus)
    rev = mutate_seed_composed(seed, list(reversed(plus)))
    assert fwd.matrix.b == rev.matrix.b
    assert all(fwd.x[i] == rev.x[i] for i in range(em.n))
    assert all(fwd.y[i] == rev.y[i] for i in range(em.n))


# --- sequences -------------------------------------------------------------------


def test_run_sequence_requires_conditions():
    # non-alternating orientation of the rank-3 path: B1 holds, B2 fails
    em = new_exchange_matrix([[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
                             parity=(1, -1, 1))
    assert check_b1(em) and not check_b2(em) and not check_bb(em)
    with pytest.raises(ConditionsViolated):
        run_sequence(em, (0, 2))


@pytest.fixture(scope="module")
def ba2_seq():
    return run_sequence(BA2, (-2, 10), mode="symbolic")


def test_sequence_parity_lemmas(ba2_seq):
    assert check_x_parity(ba2_seq) == []
    assert check_y_parity(ba2_seq) == []


def test_sequence_satisfies_tb(ba2_seq):
    assert check_tb(ba2_seq) == []


def test_sequence_satisfies_yb_both_signs(ba2_seq):
    assert check_yb(ba2_seq, 1) == []
    assert check_yb(ba2_seq, -1) == []


def test_sequence_laurent(ba2_seq):
    assert laurent_check(ba2_seq) == []


def test_numeric_sequence_is_not_laurent_checked():
    # a numeric run holds no polynomials: the check refuses it in one line,
    # and the sequence's checks leave it out instead of passing it
    seq = run_sequence(BA2, (-2, 4), mode="numeric", rng=random.Random(3))
    with pytest.raises(ValueError, match="numeric mode") as caught:
        laurent_check(seq)
    assert "\n" not in str(caught.value)
    checks = sequence_checks(seq)
    assert "Laurent" not in checks and len(checks) == 7
    assert list(sequence_checks(run_sequence(BA2, (-2, 4), mode="symbolic"))) == [
        "x parity", "y parity", "T(B)", "Y+(B)", "Y-(B)", "Laurent", "T-to-Y +", "T-to-Y -"]


def test_perturbed_family_fails(ba2_seq):
    import copy

    broken = copy.copy(ba2_seq)
    broken.x = dict(ba2_seq.x)
    broken.x[(0, 3)] = broken.x[(0, 3)] * 2
    assert check_tb(broken)


@pytest.mark.parametrize("eps,u,centres", [
    (1, 4, ["(1,3)", "(1,5)", "(2,4)"]),
    (-1, 3, ["(1,2)", "(1,4)", "(2,3)"]),
], ids=["Y+", "Y-"])
def test_perturbed_coefficients_fail_yb(ba2_seq, eps, u, centres):
    # y_1(u) lies in the class that the sign-eps system checks
    import copy

    broken = copy.copy(ba2_seq)
    broken.y = dict(ba2_seq.y)
    broken.y[(0, u)] = broken.y[(0, u)] * 2
    sign = "+" if eps > 0 else "-"
    labels = [v["relation"] for v in check_yb(broken, eps)]
    assert labels == [f"Y{sign}(B) at {c}" for c in centres]
    assert check_yb(broken, -eps) == []


@pytest.mark.parametrize("eps", [1, -1], ids=["Y+", "Y-"])
def test_perturbed_family_fails_t_to_y_b(ba2_seq, eps):
    x = dict(ba2_seq.x)
    x[(0, 3)] = x[(0, 3)] * 2
    labels = [v["relation"] for v in t_to_y_b(x, BA2, eps=eps)[1]]
    sign = "+" if eps > 0 else "-"
    assert labels == [
        "one-plus at (1,2)", "one-plus-inverse at (1,2)",
        "one-plus at (1,4)", "one-plus-inverse at (1,4)",
        "one-plus at (2,3)", "one-plus-inverse at (2,3)",
        f"mapped Y{sign}(B) at (1,3)", f"mapped Y{sign}(B) at (2,2)",
        f"mapped Y{sign}(B) at (2,4)",
    ]


def test_t_to_y_b_both_signs(ba2_seq):
    lo, hi = ba2_seq.u_range
    for eps in (1, -1):
        y_values, violations = t_to_y_b(ba2_seq.x, BA2, eps=eps)
        assert violations == []


# --- T -> Y(B): the exact route against the value route ----------------------------


def value_route_t_to_y_b(t_values, em, eps=1, u_range=None):
    """The value-level T -> Y(B) check, the oracle of t_to_y_b: both
    companion identities compared as values at every interior point, and
    every mapped Y(B) relation cross-multiplied."""
    from tysys.cluster import _label, _yb_relations

    stencils = _yb_relations(em, eps)
    if u_range is None:
        us = [u for _, u in t_values]
        u_range = (min(us), max(us))
    lo, hi = u_range

    def t(var):
        return t_values[var.a, var.k]

    y_values = {}
    violations = []
    for i, stencil in enumerate(stencils):
        for u in range(lo, hi + 1):
            rel = stencil.shift(u)
            coupling = factor_product(t, rel.numerator)
            inner = factor_product(t, rel.denominator)
            if inner == 0:
                raise ZeroDivisor(f"vanishing T pair at ({em.label(i)},{u})")
            y = y_values[(i, u)] = coupling / inner
            if lo < u < hi:
                pair = t(rel.lhs[0]) * t(rel.lhs[1])
                violations += companion_identities(f"at ({em.label(i)},{u})", y, pair,
                                                   inner, coupling)
    rels = [rel.shift(u) for rel in stencils for u in range(lo + 1, hi)]
    violations += check_relations(
        rels, lambda key: ring_pair(y_values.get((key[0], key[2]))),
        lambda var: y_values[var.a, var.k], _label(em, f"mapped Y{'+' if eps > 0 else '-'}(B)"))
    return y_values, violations


def assert_routes_agree(t_values, em, u_range=None):
    """Equal Y-values and byte-identical violation lists for both signs, or
    the same error where a zero value leaves Y undefined, ZeroDivisor naming
    the point of a vanishing inner product; returns the violations."""
    found = []
    for eps in (1, -1):
        try:
            oracle_y, oracle = value_route_t_to_y_b(t_values, em, eps, u_range)
        except (ZeroDivisionError, ZeroDivisor) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                t_to_y_b(t_values, em, eps)
            continue
        y_values, violations = t_to_y_b(t_values, em, eps)
        assert violations == oracle
        assert y_values.keys() == oracle_y.keys()
        assert all(y_values[key] == oracle_y[key] for key in oracle_y)
        found += violations
    return found


def criterion_8_belts():
    return [exchange_matrix_for_level(A2, 2), exchange_matrix_for_level(A3, 2),
            square_product(A2, A2)]


@pytest.fixture(scope="module")
def belt_families():
    return [(em, run_sequence(em, (-1, 11), mode="symbolic", coefficients=False).x)
            for em in criterion_8_belts()]


def test_t_to_y_b_matches_value_route_on_belts(belt_families):
    for em, x in belt_families:
        assert assert_routes_agree(x, em) == []


def test_t_to_y_b_matches_value_route_on_perturbed_family(ba2_seq):
    x = dict(ba2_seq.x)
    x[(0, 3)] = x[(0, 3)] * 2
    assert assert_routes_agree(x, BA2)


@functools.lru_cache(maxsize=None)
def short_belt(index):
    em = criterion_8_belts()[index]
    return em, run_sequence(em, (-1, 5), mode="symbolic", coefficients=False).x


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2),
       st.lists(st.tuples(st.integers(0, 3), st.integers(-1, 5),
                          st.fractions(-3, 3, max_denominator=3)),
                min_size=1, max_size=2))
def test_t_to_y_b_matches_value_route_on_scaled_points(belt, scalings):
    em, x = short_belt(belt)
    x = dict(x)
    for i, u, factor in scalings:
        key = (i % em.n, u)
        x[key] = x[key] * factor
    assert_routes_agree(x, em)


def test_t_to_y_b_matches_value_route_on_numeric_sequence():
    em = exchange_matrix_for_level(A3, 2)
    seq = run_sequence(em, (-3, 6), mode="numeric", rng=random.Random(12))
    assert all(isinstance(val, Fraction) for val in seq.x.values())
    assert assert_routes_agree(seq.x, em) == []
    x = dict(seq.x)
    x[(1, 2)] = x[(1, 2)] * 3
    assert assert_routes_agree(x, em)


def tb_family(em, u_range, rng):
    """A numeric solution of T(B) at every node and time, from random
    positive values at u = 0, 1.  T(B) does not read the parity."""
    lo, hi = u_range
    x = {(i, u): Fraction(rng.randint(1, 9), rng.randint(1, 9))
         for i in range(em.n) for u in (0, 1)}
    for u in range(1, hi):
        for i in range(em.n):
            plus = minus = Fraction(1)
            for j in range(em.n):
                if em[j, i] > 0:
                    plus *= x[(j, u)] ** em[j, i]
                elif em[j, i] < 0:
                    minus *= x[(j, u)] ** -em[j, i]
            x[(i, u + 1)] = (plus + minus) / x[(i, u - 1)]
    return x


@pytest.mark.parametrize("rows,parity,flagged", [
    ([[0, 1, 0], [-1, 0, -1], [0, 1, 0]], (1, 1, -1), [0, 1]),
    ([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], (1, -1, 1), [0, 1, 2]),
], ids=["B(A3) parity (1,1,-1)", "3-cycle parity (1,-1,1)"])
def test_exponent_check_flags_wrong_parity(rows, parity, flagged):
    from tysys.cluster import _mapped_exponents_agree, _yb_relations

    em = new_exchange_matrix(rows, parity)
    for eps in (1, -1):
        agree = _mapped_exponents_agree(_yb_relations(em, eps))
        assert [i for i, ok in enumerate(agree) if not ok] == flagged
    x = tb_family(em, (0, 6), random.Random(5))
    # the companions hold, so the flagged stencils alone reach the value route
    violations = assert_routes_agree(x, em)
    assert violations
    assert not any(v["relation"].startswith("one-plus") for v in violations)


def test_exponent_check_holds_on_the_parity_matrices():
    from tysys.cluster import _mapped_exponents_agree, _yb_relations

    doubled, _ = bipartite_double(CYCLE3)
    for em in criterion_8_belts() + [exchange_matrix_for_level(doubled, 2),
                                     exchange_matrix_for_level(A3, 4)]:
        for eps in (1, -1):
            assert all(_mapped_exponents_agree(_yb_relations(em, eps)))


def test_t_to_y_b_on_the_doubled_three_cycle():
    # the criterion-9 double of the 3-cycle, rank 6, with cluster entries of
    # thousands of terms: the value route took about a minute here
    doubled, _ = bipartite_double(CYCLE3)
    em = exchange_matrix_for_level(doubled, 2)
    seq = run_sequence(em, (-5, 5), mode="symbolic", coefficients=False)
    for eps in (1, -1):
        y_values, violations = t_to_y_b(seq.x, em, eps)
        assert violations == []
        assert len(y_values) == em.n * 11


def test_t_to_y_b_raises_on_a_hole_inside_the_family():
    # outside the family's u range a T-value is absent; inside it, a missing
    # one is an error, not a point to skip
    em = exchange_matrix_for_level(A3, 2)
    x = dict(run_sequence(em, (-1, 6), mode="symbolic", coefficients=False).x)
    del x[(1, 3)]
    for eps in (1, -1):
        with pytest.raises(KeyError) as caught:
            t_to_y_b(x, em, eps)
        assert caught.value.args == ((1, 3),)


def test_both_t_to_y_maps_read_the_one_generator(monkeypatch, ba2_seq):
    # the lattice map, the claim check and the exchange-matrix map all read
    # their products through ysystem.mapped_points
    from tysys import cluster, ysystem

    t_table = propagate_t(SystemSpec(A2, 2), (0, 12), rng=random.Random(3))
    y_table = ysystem.t_to_y(t_table)[0]

    def broken(relations, value):
        raise RuntimeError("mapped_points")

    monkeypatch.setattr(ysystem, "mapped_points", broken)
    monkeypatch.setattr(cluster, "mapped_points", broken)
    calls = [lambda: ysystem.t_to_y(t_table),
             lambda: ysystem.claim_identities_check(t_table, y_table),
             lambda: t_to_y_b(ba2_seq.x, BA2)]
    for call in calls:
        with pytest.raises(RuntimeError, match="mapped_points"):
            call()


def test_y_coefficients_stay_subtraction_free(ba2_seq):
    for val in ba2_seq.y.values():
        assert val.num.has_positive_coeffs() and val.den.has_positive_coeffs()


def test_seven_node_sequence_yb():
    # weight-2 arrows make the symbolic family huge; keep the symbolic run
    # short and push further with exact numeric values
    em = seven_node_example()
    seq = run_sequence(em, (0, 2), mode="symbolic")
    assert check_yb(seq, 1) == []
    assert check_yb(seq, -1) == []
    assert check_tb(seq) == []
    numeric = run_sequence(em, (-2, 8), mode="numeric", rng=random.Random(44))
    assert check_yb(numeric, 1) == []
    assert check_yb(numeric, -1) == []
    assert check_tb(numeric) == []


def test_numeric_mode_matches_structure():
    em = exchange_matrix_for_level(A3, 2)
    seq = run_sequence(em, (0, 6), mode="numeric", rng=random.Random(12))
    assert check_tb(seq) == []
    assert check_yb(seq, 1) == []
    assert check_x_parity(seq) == []


def test_auto_mode_switches_to_numeric():
    em = exchange_matrix_for_level(A3, 2)
    with pytest.warns(UserWarning):
        seq = run_sequence(em, (0, 20), mode="auto", rng=random.Random(8))
    assert seq.mode == "numeric"
    assert check_tb(seq) == []


def test_numeric_seed_needs_an_rng():
    em = exchange_matrix_for_level(A3, 2)
    with pytest.raises(ValueError, match="rng"):
        initial_seed(em, numeric=True)
    with pytest.raises(ValueError, match="rng"):
        run_sequence(em, (0, 4), mode="numeric")
    # the auto budget switches to numeric mode, which needs the rng too
    with pytest.warns(UserWarning), pytest.raises(ValueError, match="rng"):
        run_sequence(em, (0, 20))


# --- correspondence ----------------------------------------------------------------


@pytest.mark.parametrize("level", [1, 0, -1])
def test_correspondence_needs_level_two(level):
    message = f"needs level >= 2, got {level}$"
    with pytest.raises(LevelOutOfRange, match=message):
        exchange_matrix_for_level(A3, level)
    for cm in (A3, CYCLE3):  # bipartite, and routed through the double
        with pytest.raises(LevelOutOfRange, match=message):
            correspondence_check(cm, level)


def test_correspondence_a3_level2():
    report = correspondence_check(A3, 2, rng=random.Random(1))
    assert report["pass"], report["violations"][:3]
    assert not report["routed_through_double"]


def test_correspondence_a2_level3():
    report = correspondence_check(A2, 3, rng=random.Random(2))
    assert report["pass"], report["violations"][:3]
    assert report["exchange_size"] == 4


def test_correspondence_nonbipartite_via_double():
    report = correspondence_check(CYCLE3, 2, rng=random.Random(3))
    assert report["pass"], report["violations"][:3]
    assert report["routed_through_double"]
    assert report["exchange_size"] == 6


def _kinds(report):
    """The kind of each violation record: a relation-level record names its
    kind in its label and carries no values; a value-level one carries both
    sides."""
    return {"value" if "lhs" in v else v["relation"].split(" at ")[0]
            for v in report["violations"]}


def test_correspondence_fails_on_a_perturbed_cluster(monkeypatch):
    import tysys.cluster as cluster

    def perturbed(*args, **kwargs):
        seq = run_sequence(*args, **kwargs)
        seq.x[(1, 2)] = seq.x[(1, 2)] * 2
        return seq

    monkeypatch.setattr(cluster, "run_sequence", perturbed)
    report = correspondence_check(A3, 2)
    assert report["pass"] is False
    assert _kinds(report) == {"value"}


def test_correspondence_fails_on_a_wrong_exchange_matrix(monkeypatch):
    # A1 x A2 has A3's rank and bipartition, but node 1 loses its neighbour
    import tysys.cluster as cluster

    wrong = new_cartan([[2, 0, 0], [0, 2, -1], [0, -1, 2]])
    monkeypatch.setattr(cluster, "exchange_matrix_for_level",
                        lambda cm, level: b_of_c(wrong))
    report = correspondence_check(A3, 2)
    assert report["pass"] is False
    assert "relation mismatch" in _kinds(report)


def test_correspondence_fails_on_a_broken_doubling_map(monkeypatch):
    # every cell sent to the first copy of the double
    import tysys.cluster as cluster

    monkeypatch.setattr(cluster, "_doubling_map", lambda r: lambda b, m, v: b)
    report = correspondence_check(CYCLE3, 2)
    assert report["pass"] is False
    assert _kinds(report) == {"double mismatch"}


def test_t_to_y_b_names_a_vanishing_inner_once(ba2_seq):
    x = dict(ba2_seq.x)
    x[(1, 2)] = 0
    with pytest.raises(ZeroDivisor, match=r"^vanishing T pair at \(1,2\)$"):
        t_to_y_b(x, BA2)


@pytest.mark.parametrize("cm", [A2, A3, D4], ids=["A2", "A3", "D4"])
@pytest.mark.parametrize("level", [2, 3, 4])
def test_restricted_y_stencils_are_the_yb_relations(cm, level):
    """The Y half of the relation-level dictionary: each restricted lattice
    Y-stencil, read through correspondence_check's identification (a, m) ->
    pair node, is the Y^eps(B) relation of that node shifted to u, with
    eps = -1 at level 2 and eps = +1 at levels 3 and 4, and never with the
    other sign."""
    from tysys.cluster import _node, _yb_relations
    from tysys.ysystem import y_relation

    em = exchange_matrix_for_level(cm, level)
    sys = SystemSpec(cm, level)

    def node(v):  # correspondence_check's flat identification
        return _node(v.a if level == 2 else v.a * (level - 1) + (v.m - 1), v.k)

    def read(rel):
        return (tuple(map(node, rel.lhs)),
                *(tuple(sorted((node(v), e) for v, e in terms))
                  for terms in (rel.numerator, rel.denominator)))

    eps = -1 if level == 2 else 1
    compared = 0
    for a in range(cm.r):
        for m in range(1, level):
            for u in range(-4, 5):
                rel = y_relation(sys, a, m, u)
                i = node(rel.center).a
                twin, other = (_yb_relations(em, s)[i].shift(u) for s in (eps, -eps))
                got = read(rel)
                assert got == (twin.lhs, twin.numerator, twin.denominator), (a, m, u)
                assert got != (other.lhs, other.numerator, other.denominator), (a, m, u)
                compared += 1
    assert compared == cm.r * (level - 1) * 9


def test_plus_minus_systems_swap_under_inversion(ba2_seq):
    # Y -> 1/Y turns every + relation into the - relation at the same center
    from tysys.cluster import _parity_sign, _yb_relations

    em = ba2_seq.matrix
    lo, hi = ba2_seq.u_range
    inverted = {key: val.inv() for key, val in ba2_seq.y.items()}
    minus = _yb_relations(em, -1)
    hit = 0
    for i in range(em.n):
        for u in range(lo + 1, hi):
            if _parity_sign(em, i, u) != -1:
                continue  # centers of the + system
            lhs = inverted[(i, u - 1)] * inverted[(i, u + 1)]
            num, den = minus[i].shift(u).rhs(lambda v: inverted[(v.a, v.k)])
            assert lhs * den == num
            hit += 1
    assert hit


def test_tb_invariant_under_negation_and_parity_swap(ba2_seq):
    from dataclasses import replace

    negated = replace(BA2, b=tuple(tuple(-v for v in row) for row in BA2.b),
                      parity=tuple(-s for s in BA2.parity))
    assert check_tb(replace(ba2_seq, matrix=negated)) == []


def test_sequence_json_dump(ba2_seq):
    data = ba2_seq.to_json()
    assert data["u_range"] == [-2, 10]
    assert "(1,0)" in data["x"] and "(2,5)" in data["y"]


# --- cluster-only sequences ------------------------------------------------------


@pytest.mark.parametrize("reader", [
    check_y_parity,
    lambda seq: check_yb(seq, 1),
    lambda seq: check_yb(seq, -1),
    lambda seq: seq.to_json(),
], ids=["check_y_parity", "check_yb+", "check_yb-", "to_json"])
def test_cluster_only_sequence_refuses_y_readers(reader):
    seq = run_sequence(BA2, (-2, 4), mode="symbolic", coefficients=False)
    assert seq.y is None
    with pytest.raises(ValueError, match="cluster-only"):
        reader(seq)


@pytest.mark.parametrize("cm,level", [(A3, 2), (A2, 3), (CYCLE3, 2)],
                         ids=["A3 level 2", "A2 level 3", "3-cycle level 2"])
def test_cluster_only_x_equals_full_run(cm, level):
    # the matrices of criterion 9; the 3-cycle through its bipartite double
    from tysys.cartan import bipartite_double, bipartition

    if bipartition(cm) is None:
        cm, _ = bipartite_double(cm)
    em = exchange_matrix_for_level(cm, level)
    full = run_sequence(em, (-4, 4), mode="symbolic")
    alone = run_sequence(em, (-4, 4), mode="symbolic", coefficients=False)
    assert alone.y is None
    assert alone.x.keys() == full.x.keys()
    assert all(alone.x[key] == full.x[key] for key in full.x)


def test_cluster_only_numeric_run_keeps_the_draws():
    em = exchange_matrix_for_level(A3, 2)
    full = run_sequence(em, (-3, 6), mode="numeric", rng=random.Random(12))
    alone = run_sequence(em, (-3, 6), mode="numeric", rng=random.Random(12),
                         coefficients=False)
    assert alone.x == full.x


# --- coefficients from F-polynomials --------------------------------------------

BELT_U = (-1, 11)


def f_walks():
    """The criterion-8 belts and B(D4)."""
    return {"B(A2)": exchange_matrix_for_level(A2, 2), "B(A3)": exchange_matrix_for_level(A3, 2),
            "B(A2)xB(A2)": square_product(A2, A2), "B(D4)": exchange_matrix_for_level(D4, 2)}


def walk_seeds(start, u_range):
    """{u: seed} along the alternating walk of run_sequence from start."""
    em = start.matrix
    plus, minus = em.plus_nodes(), em.minus_nodes()
    seeds = {0: start}
    for u in range(0, u_range[1]):
        seeds[u + 1] = mutate_seed_composed(seeds[u], plus if u % 2 == 0 else minus)
    for u in range(0, u_range[0], -1):
        seeds[u - 1] = mutate_seed_composed(seeds[u], minus if u % 2 == 0 else plus)
    return seeds


@pytest.mark.parametrize("name", list(f_walks()))
def test_f_polynomials_are_positive_with_constant_term_one(name):
    for seed in walk_seeds(initial_seed(f_walks()[name]), BELT_U).values():
        for f in seed.f:
            assert f.terms.get((0,) * len(f.vars)) == 1
            assert all(type(c) is int and c > 0 for c in f.terms.values())
            assert f.has_nonnegative_exponents()


@pytest.mark.parametrize("name", list(f_walks()))
def test_coefficients_are_factored_over_the_f_polynomials(name):
    # y_j = y^{c_j} prod_i F_i^{B_ij}: the factors are given by the seed, and
    # the old F_k of each mutation has cancelled
    for seed in walk_seeds(initial_seed(f_walks()[name]), BELT_U).values():
        for j, yj in enumerate(seed.y):
            want = {}
            for i, f in enumerate(seed.f):
                if not f.is_one():
                    want[f] = want.get(f, 0) + seed.matrix[i, j]
            assert yj._factors == {f: e for f, e in want.items() if e}


def test_coefficient_terms_stay_small():
    seq = run_sequence(square_product(A2, A2), BELT_U, mode="symbolic")
    assert max(len(p.terms) for y in seq.y.values() for p in (y.num, y.den)) <= 8


def test_belts_build_no_generic_successor(monkeypatch):
    calls = []
    generic = SemifieldElement.from_num_den

    def counted(num, den):
        calls.append(1)
        return generic(num, den)

    monkeypatch.setattr(SemifieldElement, "from_num_den", staticmethod(counted))
    for em in criterion_8_belts():
        checks = sequence_checks(run_sequence(em, BELT_U, mode="symbolic"))
        assert not any(checks.values())
    assert calls == []


def test_seed_without_f_mutates_through_the_generic_successor():
    em = exchange_matrix_for_level(A3, 2)
    start = initial_seed(em)
    given = walk_seeds(start, (-2, 6))
    # fresh generators, so that no successor the F-route gave is shared
    generic = walk_seeds(Seed(em, start.x, tuple(y_gen(i + 1) for i in range(em.n))), (-2, 6))
    assert all(seed.f is None for seed in generic.values())
    for u, seed in given.items():
        assert all(a == b for a, b in zip(generic[u].y, seed.y))


def test_f_division_that_is_not_exact_raises():
    seed = initial_seed(BA2)
    bad = Seed(BA2, seed.x, seed.y, (LaurentPoly.gen("y1") + 2, LaurentPoly.one()))
    with pytest.raises(ArithmeticError, match="does not divide"):
        mutate_seed(bad, 0)


def _sympy_poly(poly, sympy):
    symbols = [sympy.Symbol(v) for v in poly.vars]
    return sympy.Add(*(c * sympy.Mul(*(s ** e for s, e in zip(symbols, mono)))
                       for mono, c in poly.terms.items()))


def _sympy_coefficients(em, u_range, sympy):
    """{(i, u): y_i(u)} by the coefficient rule in sympy, cancelled after
    every mutation: an independent route to run_sequence's y."""

    def mutate(b, y, k):
        out = []
        for i, yi in enumerate(y):
            if i == k:
                out.append(1 / yi)
            elif b[k][i] > 0:
                out.append(yi * (1 + 1 / y[k]) ** -b[k][i])
            else:
                out.append(yi * (1 + y[k]) ** -b[k][i])
        return [sympy.cancel(v) for v in out]

    plus, minus = em.plus_nodes(), em.minus_nodes()
    start = sympy.symbols(f"y1:{em.n + 1}")
    values = {(i, 0): v for i, v in enumerate(start)}
    # rightwards from even u mutate the + class, leftwards the - class
    for step, last in ((1, u_range[1]), (-1, u_range[0])):
        m, y = em, start
        for u in range(0, last, step):
            for k in (plus if (u % 2 == 0) == (step > 0) else minus):
                y, m = mutate(m.b, y, k), mutate_matrix(m, k)
            values.update(((i, u + step), v) for i, v in enumerate(y))
    return values


@pytest.mark.parametrize("name", list(f_walks()))
def test_coefficients_match_sympy_in_lowest_terms(name):
    sympy = pytest.importorskip("sympy")
    em = f_walks()[name]
    seq = run_sequence(em, BELT_U, mode="symbolic")
    oracle = _sympy_coefficients(em, BELT_U, sympy)
    assert oracle.keys() == seq.y.keys()
    for key, y in seq.y.items():
        num, den = _sympy_poly(y.num, sympy), _sympy_poly(y.den, sympy)
        top, bottom = sympy.fraction(oracle[key])
        assert sympy.expand(num * bottom - den * top) == 0, key
        assert sympy.gcd(num, den) == 1, key
