"""Acceptance suite: one callable per criterion, each returning a verdict
record, plus a driver that runs them all.  Used by tests/test_acceptance.py
and by the command line front end.

Everything here is exact arithmetic at desk scale.  Finite-type restricted
orbits are periodic, so their windows can be wide; the indefinite rank-4
matrix is not periodic and its exact entries roughly double in size per
slice, so its windows stay small (see the module docstring of ysystem).
"""

from __future__ import annotations

import random
import time

from . import cartan, cluster, tsystem, ysystem
from .cartan import a_type_rows as _a_type, new_cartan
from .exactmath import random_nonzero_rational
from .tsystem import SystemSpec

MIXED44_ROWS = [
    [2, -1, 0, 0],
    [-3, 2, -2, -2],
    [0, -1, 2, -1],
    [0, -1, -1, 2],
]


def _b_type(rank):
    rows = _a_type(rank)
    rows[rank - 1][rank - 2] = -2
    return rows


def _c_type(rank):
    rows = _a_type(rank)
    rows[rank - 2][rank - 1] = -2
    return rows


FINITE_TYPE = {
    "A1": _a_type(1), "A2": _a_type(2), "A3": _a_type(3), "A4": _a_type(4),
    "B2": _b_type(2), "B3": _b_type(3), "B4": _b_type(4),
    "C2": _c_type(2), "C3": _c_type(3), "C4": _c_type(4),
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
    "G2": [[2, -1], [-3, 2]],
}


def _verdict(cid, name, budget, start, failures):
    elapsed = time.time() - start
    return {
        "id": cid,
        "name": name,
        "pass": not failures,
        "seconds": round(elapsed, 3),
        "budget_seconds": budget,
        "within_budget": elapsed < budget,
        "failures": failures,
    }


def criterion_1_cartan_classification(seed=0):
    start = time.time()
    failures = []
    cm = new_cartan(MIXED44_ROWS)
    if cm.d != (3, 1, 2, 2) or cm.t != 6:
        failures.append(f"rank-4 example: d={cm.d}, t={cm.t}")
    if not cartan.is_tamely_laced(cm):
        failures.append("rank-4 example not recognized as tamely laced")
    if cartan.is_tamely_laced(new_cartan([[2, -2], [-2, 2]])):
        failures.append("affine rank-2 double bond wrongly accepted")
    for name, rows in FINITE_TYPE.items():
        if not cartan.is_tamely_laced(new_cartan(rows)):
            failures.append(f"finite type {name} rejected")
    return _verdict(1, "Cartan classification", 1.0, start, failures)


def criterion_2_unified_form(seed=0):
    start = time.time()
    failures = []
    mats = {"mixed44": MIXED44_ROWS, "B2": [[2, -1], [-2, 2]],
            "G2": [[2, -1], [-3, 2]], "A3": _a_type(3)}
    for name, rows in mats.items():
        cm = new_cartan(rows)
        for a in range(cm.r):
            for m in range(1, 7):
                for k in range(0, 20):
                    direct = tsystem.m_term(cm, a, m, k)
                    if direct != tsystem.m_term_unified(cm, a, m, k):
                        failures.append(f"{name} at (a={a + 1},m={m},k={k})")
    return _verdict(2, "Unified coupling form", 5.0, start, failures)


def telescoping_failures(ps, window, rng):
    """Both telescoping identities on random single-node tables, the first
    at every p in ps, then the second at every weight in ps; returns the
    (identity number, p) pairs that fail."""
    failed = []
    for p in ps:
        values = {(m, k): random_nonzero_rational(rng)
                  for m in range(0, 5 * p + 3)
                  for k in range(window[0], window[1] + 1)}
        if not tsystem.identity_check_1(p, window, values):
            failed.append((1, p))
    for db in ps:
        values = {(m, k): random_nonzero_rational(rng)
                  for m in range(0, 8)
                  for k in range(window[0], window[1] + 1)}
        if not tsystem.identity_check_2(db, window, values):
            failed.append((2, db))
    return failed


def criterion_3_telescoping_identities(seed=0):
    start = time.time()
    failures = [f"first identity fails at p={p}" if which == 1
                else f"second identity fails at weight {p}"
                for which, p in telescoping_failures((1, 2, 3), (-4, 28),
                                                     random.Random(seed + 300))]
    return _verdict(3, "Telescoping identities", 10.0, start, failures)


def criterion_4_t_to_y(seed=0):
    start = time.time()
    failures = []
    cases = [("A2", _a_type(2), 2), ("A2", _a_type(2), 3),
             ("A3", _a_type(3), 2), ("A3", _a_type(3), 3),
             ("B2", [[2, -1], [-2, 2]], 2)]
    for name, rows, level in cases:
        sys = SystemSpec(new_cartan(rows), level)
        rng = random.Random(seed + 17 * level)
        t_table = tsystem.propagate_t(sys, (0, 39), rng=rng)
        rels = tsystem.enumerate_relations(sys, t_table.window)
        bad = tsystem.check_t_solution(t_table, rels)
        if bad:
            failures.append(f"{name} level {level}: T self-consistency {len(bad)}")
            continue
        y_table, violations = ysystem.t_to_y(t_table)
        if violations:
            failures.append(f"{name} level {level}: companion identities "
                            f"{len(violations)}")
        yrels, bad = ysystem.check_covered(y_table)
        if not yrels or bad:
            failures.append(f"{name} level {level}: mapped Y-system "
                            f"{len(bad)} of {len(yrels)}")
    return _verdict(4, "T-to-Y map with boundary cancellation", 30.0, start, failures)


def criterion_5_y_to_t_roundtrip(seed=0):
    start = time.time()
    failures = []
    cases = [("A3", _a_type(3), 4, 16),
             ("B2", [[2, -1], [-2, 2]], 3, 20),
             ("mixed44", MIXED44_ROWS, 2, 12)]
    for name, rows, cap, width in cases:
        sys = SystemSpec(new_cartan(rows), cap, restricted=False)
        y_table = ysystem.propagate_y(sys, (0, width), rng=random.Random(seed + 5))
        report, t_table = ysystem.roundtrip_check(y_table, rng=random.Random(seed + 6))
        if not report["pass"]:
            failures.append(f"{name}: roundtrip {report['mismatches'][:2]}"
                            f" claim {report['claim_violations'][:2]}")
            continue
        again, other = ysystem.roundtrip_check(y_table, rng=random.Random(seed + 7))
        t_pairs, other_pairs = t_table.pairs(), other.pairs()
        if not any(t_pairs[v] != other_pairs[v] for v in t_pairs.keys() & other_pairs.keys()):
            failures.append(f"{name}: distinct free choices gave identical T")
        if not again["pass"]:
            failures.append(f"{name}: second reconstruction broke the Y image")
    return _verdict(5, "Y-to-T reconstruction roundtrip", 60.0, start, failures)


def criterion_6_transposed_relations(seed=0):
    start = time.time()
    failures = []
    mats = {"mixed44": MIXED44_ROWS, "B2": [[2, -1], [-2, 2]],
            "G2": [[2, -1], [-3, 2]], "A3": _a_type(3)}
    for name, rows in mats.items():
        cm = new_cartan(rows)
        # level 7 is the smallest cap whose Y-relation centres reach m = 5
        # on every node: t_a * 7 - 2 >= 5
        sys = SystemSpec(cm, 7, restricted=False)
        for a in range(cm.r):
            for m in range(1, 6):
                for k in range(0, 20):
                    if ysystem.y_relation(sys, a, m, k) != \
                            ysystem.y_relation_via_transpose(cm, a, m, k):
                        failures.append(f"{name} at (a={a + 1},m={m},k={k})")
    cm = new_cartan(_a_type(2))
    for p in (1, 2, 3, 4):
        if len(ysystem.z_term(cm, 0, p, 3, 0)) != p * p:
            failures.append(f"coupling factor count wrong at p={p}")
    return _verdict(6, "Transposed-exponent Y-relations", 20.0, start, failures)


def criterion_7_cluster_engine(seed=0):
    start = time.time()
    failures = []
    rng = random.Random(seed + 70)
    for _ in range(25):
        em = cluster.random_parity_exchange(rng, rng.randint(2, 6))
        k = rng.randrange(em.n)
        if cluster.mutate_matrix(cluster.mutate_matrix(em, k), k).b != em.b:
            failures.append("matrix mutation not involutive")
        seed_ = cluster.initial_seed(em)
        back = cluster.mutate_seed(cluster.mutate_seed(seed_, k), k)
        if not (back.matrix.b == em.b
                and all(back.x[i] == seed_.x[i] for i in range(em.n))
                and all(back.y[i] == seed_.y[i] for i in range(em.n))):
            failures.append("seed mutation not involutive")
    em = cluster.exchange_matrix_for_level(new_cartan(_a_type(3)), 2)
    plus = em.plus_nodes()
    s0 = cluster.initial_seed(em)
    fwd = cluster.mutate_seed_composed(s0, plus)
    rev = cluster.mutate_seed_composed(s0, list(reversed(plus)))
    if not all(fwd.x[i] == rev.x[i] and fwd.y[i] == rev.y[i] for i in range(em.n)):
        failures.append("composed mutation depends on the order")
    seven = cluster.seven_node_example()
    if not (cluster.check_b1(seven) and cluster.check_b2(seven)
            and cluster.check_bb(seven)):
        failures.append("rank-7 example fails the parity conditions")
    for _ in range(100):
        em = cluster.random_parity_exchange(rng, rng.randint(2, 6))
        if cluster.check_b2(em) != cluster.check_bb(em):
            failures.append("mutation and bilinear conditions disagree")
    return _verdict(7, "Cluster mutation engine", 30.0, start, failures)


def criterion_8_bipartite_belt(seed=0):
    start = time.time()
    failures = []
    a2 = new_cartan(_a_type(2))
    a3 = new_cartan(_a_type(3))
    belts = [("B(A2)", cluster.exchange_matrix_for_level(a2, 2)),
             ("B(A3)", cluster.exchange_matrix_for_level(a3, 2)),
             ("B(A2)xB(A2)", cluster.square_product(a2, a2))]
    for name, em in belts:
        seq = cluster.run_sequence(em, (-1, 11), mode="symbolic")
        for label, bad in cluster.sequence_checks(seq).items():
            if bad:
                failures.append(f"{name}: {label} ({len(bad)})")
    return _verdict(8, "Bipartite mutation belt", 120.0, start, failures)


def criterion_9_correspondence(seed=0):
    start = time.time()
    failures = []
    cases = [("A3 level 2", _a_type(3), 2),
             ("A2 level 3", _a_type(2), 3),
             ("3-cycle level 2", [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], 2)]
    for name, rows, level in cases:
        report = cluster.correspondence_check(new_cartan(rows), level,
                                              rng=random.Random(seed + 9))
        if not report["pass"]:
            failures.append(f"{name}: {report['violations'][:2]}")
    return _verdict(9, "Restricted-system correspondence", 60.0, start, failures)


def criterion_10_periodicity(seed=0):
    start = time.time()
    failures = []
    sys = SystemSpec(new_cartan(_a_type(2)), 2)
    table = ysystem.propagate_y(sys, (0, 24), rng=random.Random(seed + 10))
    period = ysystem.detect_period(table, 10)
    if period is None:
        failures.append("orbit did not return within 10 slices")
    elif period != 10:
        # generic data: the full orbit period, not the symmetric half
        failures.append(f"unexpected period {period}")
    return _verdict(10, "Periodicity smoke test", 5.0, start, failures)


CRITERIA = [
    criterion_1_cartan_classification,
    criterion_2_unified_form,
    criterion_3_telescoping_identities,
    criterion_4_t_to_y,
    criterion_5_y_to_t_roundtrip,
    criterion_6_transposed_relations,
    criterion_7_cluster_engine,
    criterion_8_bipartite_belt,
    criterion_9_correspondence,
    criterion_10_periodicity,
]


def run_all(seed=0, echo=None):
    """Run every criterion; returns the list of verdict records."""
    results = []
    for fn in CRITERIA:
        verdict = fn(seed)
        results.append(verdict)
        if echo is not None:
            status = "PASS" if verdict["pass"] else "FAIL"
            echo(f"criterion {verdict['id']:>2} {status} "
                 f"({verdict['seconds']:.2f}s) {verdict['name']}")
    return results
