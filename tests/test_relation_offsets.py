"""Relations reached at an offset k read their stencil's tuples with k added.

The differential test writes every relation out itself, from its stencil
with k added, and compares all the readers; the guard test runs the solvers
and checks with per-centre factor tuples forbidden.  The window-edge tests
compare the readers of a table's store against key-based value routes on
tables without their first and last slices, where an offset that left the
store or wrapped into a neighbouring cell would read another value.
"""

import json
import random

import pytest

from tables import table_of
from test_rational_route import oracle_check
from test_ysystem import _held_by_membership, value_route_mapped_y, value_route_t_to_y

from tysys.acceptance import FINITE_TYPE, MIXED44_ROWS
from tysys.cartan import new_cartan
from tysys.cluster import _label, _tb_relations, check_tb, exchange_matrix_for_level, run_sequence
from tysys.errors import MissingValue
from tysys.exactmath import random_nonzero_rational
from tysys.tsystem import (
    LatticeVar,
    Relation,
    SystemSpec,
    TRelation,
    check_t_solution,
    enumerate_relations,
    lay,
    propagate_t,
    ring_pair,
    slot_pairs,
    t_relation,
)
from tysys.ysystem import (
    check_y_solution,
    covered_y_relations,
    enumerate_y_relations,
    propagate_y,
    roundtrip_check,
    t_to_y,
    y_relation,
    y_to_t,
)

MATRICES = {**FINITE_TYPE, "MIXED44": MIXED44_ROWS}


def _systems(cm, periodic):
    """Levels 2-4 and the unrestricted cap 3, each with a window reaching
    below k = 0; a narrower one where the values grow (every unrestricted
    system, and MIXED44, which is not of finite type)."""
    wide = (-8, 8) if periodic else (-4, 4)
    out = [(SystemSpec(cm, level), wide) for level in (2, 3, 4)]
    return out + [(SystemSpec(cm, 3, restricted=False), (-4, 4))]


def _lists(rel):
    """rel's two factor lists, by their names."""
    if isinstance(rel, TRelation):
        return rel.term_a, rel.term_m
    return rel.numerator, rel.denominator


def _written_out(stencil, k):
    """stencil's centre, left-hand side and factor lists, each variable
    written out with k added, as a relation of the stencil's class."""
    def at(var):
        return LatticeVar(var.a, var.m, var.k + k)

    return type(stencil)(at(stencil.center), tuple(map(at, stencil.lhs)),
                         *(tuple((at(v), e) for v, e in factors)
                           for factors in _lists(stencil)))


def _values(sys, kind, window, rng):
    """A solved table of the kind on the window where a solver reaches it:
    propagate_y, propagate_t (restricted, max d <= 2) or y_to_t
    (unrestricted).  Restricted G2 T-values are random."""
    if kind == "Y":
        return dict(propagate_y(sys, window, rng=rng).values)
    if not sys.restricted:
        return dict(y_to_t(propagate_y(sys, window, rng=rng), rng=rng).values)
    if max(sys.cm.d) < 3:
        return dict(propagate_t(sys, window, rng=rng).values)
    lo, hi = window
    return {LatticeVar(a, m, k): random_nonzero_rational(rng)
            for a in range(sys.cm.r) for m in range(1, sys.max_m_t(a) + 1)
            for k in range(lo, hi + 1)}


def _read(reader, values):
    """reader(get), or the name of the exception it raises; get takes a
    LatticeVar or a plain (a, m, k) key."""
    def get(var):
        try:
            return values[var]
        except KeyError:
            raise MissingValue(LatticeVar(*var).label()) from None

    try:
        return reader(get)
    except MissingValue as err:
        return f"missing {err}"


def _missing(i):
    raise MissingValue(f"slot {i}")


def _pair_reads(rel, values):
    """(holds_exactly, the pairs of both factor lists) of rel, read from the
    values laid on rel's slots (lay) through slot_pairs and the forms; a
    missing value is laid as None, and the factor lists are then
    "missing"."""
    store, [(i, at)] = lay([rel], lambda key: ring_pair(values.get(key)))
    try:
        lists = [slot_pairs(store, _missing, i, offsets, form)
                 for offsets, form in zip((at.first, at.second), rel.forms)]
    except MissingValue:
        lists = "missing"
    return rel.holds_exactly(store, i, at), lists


def _compare(rel, ref, tables):
    """Assert that rel and ref agree, as relations and on every table;
    returns rel's holds_exactly on each table."""
    assert rel.center == ref.center
    assert rel.lhs == ref.lhs
    assert _lists(rel) == _lists(ref)
    assert list(rel.variables()) == list(ref.variables())
    assert json.dumps(rel.to_json()) == json.dumps(ref.to_json())
    assert rel == ref and ref == rel and not rel != ref
    assert hash(rel) == hash(ref)
    verdicts = []
    for values in tables:
        got = _pair_reads(rel, values)
        assert got == _pair_reads(ref, values)
        verdicts.append(got[0])
        assert _read(rel.rhs, values) == _read(ref.rhs, values)
    return verdicts


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_offset_reads_match_written_out_relations(name):
    cm = new_cartan(MATRICES[name])
    rng = random.Random(f"offsets {name}")
    held = failed = negative = 0
    for sys, window in _systems(cm, name in FINITE_TYPE):
        kinds = [("T", enumerate_relations(sys, window), t_relation),
                 ("Y", enumerate_y_relations(sys, window), y_relation)]
        for kind, relations, at_centre in kinds:
            values = _values(sys, kind, window, rng)
            tripled = dict(values)
            var = sorted(tripled)[len(tripled) // 2]
            tripled[var] *= 3
            for rel in relations:
                c = rel.center
                stencil = at_centre(sys, c.a, c.m, 0)
                ref = _written_out(stencil, c.k)
                verdict, tripled_verdict = _compare(rel, ref, (values, tripled))
                # the relation one slice later is a different one
                assert rel != at_centre(sys, c.a, c.m, c.k + 1)
                negative += c.k < 0
                solved = kind == "Y" or sys.restricted and max(cm.d) < 3
                if solved:
                    assert verdict is True
                held += verdict is True
                failed += tripled_verdict is False
    assert held and failed and negative


def test_offset_relation_keeps_the_stencil_tuples():
    sys = SystemSpec(new_cartan(MATRICES["B3"]), 3)
    stencil = t_relation(sys, 1, 2, 0)
    rel = stencil.shift(-7).shift(4)
    assert rel.center == LatticeVar(1, 2, -3)
    assert rel == t_relation(sys, 1, 2, -3)
    assert hash(rel) == hash(t_relation(sys, 1, 2, -3))
    assert rel != y_relation(sys, 1, 2, -3)
    assert repr(rel).startswith("TRelation(center=LatticeVar(a=1, m=2, k=-3)")


@pytest.fixture
def no_factor_tuples(monkeypatch):
    """Building a factor tuple for a relation at a nonzero offset raises."""
    original = Relation._factor_tuple

    def guarded(self, i):
        if self.k:
            raise AssertionError(f"per-centre factor tuple built at {self.center}")
        return original(self, i)

    monkeypatch.setattr(Relation, "_factor_tuple", guarded)
    sys = SystemSpec(new_cartan(MATRICES["A2"]), 2)
    with pytest.raises(AssertionError):
        t_relation(sys, 0, 1, 3).term_a
    assert t_relation(sys, 0, 1, 0).term_m == ((LatticeVar(1, 1, 0), 1),)


def test_lattice_solves_and_checks_read_offsets(no_factor_tuples):
    sys = SystemSpec(new_cartan(MATRICES["B3"]), 3)
    window = (0, 40)
    t_table = propagate_t(sys, window, rng=random.Random(31))
    assert check_t_solution(t_table, enumerate_relations(sys, window)) == []
    y_table = propagate_y(sys, window, rng=random.Random(32))
    assert check_y_solution(y_table, enumerate_y_relations(sys, window)) == []
    y_mapped, violations = t_to_y(t_table)
    assert violations == [] and y_mapped.values


def test_t_to_y_and_roundtrip_read_offsets(no_factor_tuples):
    sys = SystemSpec(new_cartan(MATRICES["A2"]), 3, restricted=False)
    y_table = propagate_y(sys, (0, 14), rng=random.Random(33))
    report, t_table = roundtrip_check(y_table, rng=random.Random(34))
    assert report["pass"] and report["compared"]
    y_back, violations = t_to_y(t_table)
    assert violations == [] and y_back.values


# --- window edges on the laid store ------------------------------------------------

EDGE_WINDOW = (0, 10)
EDGE_SYSTEMS = {"A2 level 2": (FINITE_TYPE["A2"], 2, True),
                "B2 level 3": (FINITE_TYPE["B2"], 3, True),
                "MIXED44 cap 2": (MIXED44_ROWS, 2, False)}


def _without_edges(table):
    """table without its values at the first and the last slice of its first
    and its last cell, and with the values one slice inside those tripled."""
    values = dict(table.values)
    cells = sorted({(v.a, v.m) for v in values})
    for a, m in (cells[0], cells[-1]):
        ks = [v.k for v in values if (v.a, v.m) == (a, m)]
        for k, inside in ((min(ks), min(ks) + 1), (max(ks), max(ks) - 1)):
            del values[LatticeVar(a, m, k)]
            values[LatticeVar(a, m, inside)] *= 3
    return table_of(table.kind, table.system, table.window, values, table.meta)


@pytest.mark.parametrize("name", sorted(EDGE_SYSTEMS))
def test_window_edges_match_the_key_routes(name):
    rows, level, restricted = EDGE_SYSTEMS[name]
    sys = SystemSpec(new_cartan(rows), level, restricted=restricted)
    rng = random.Random(f"edges {name}")
    y_table = propagate_y(sys, EDGE_WINDOW, rng=rng)
    t_table = propagate_t(sys, EDGE_WINDOW, rng=rng) if restricted else y_to_t(y_table, rng=rng)
    t_table, y_table = _without_edges(t_table), _without_edges(y_table)
    covered = covered_y_relations(y_table)
    assert list(covered) == _held_by_membership(y_table)
    t_relations = [rel for rel in enumerate_relations(sys, t_table.window)
                   if all(v in t_table for v in rel.variables())]
    for table, relations, check in ((t_table, t_relations, check_t_solution),
                                    (y_table, covered, check_y_solution)):
        records = check(table, relations)
        assert records and records == oracle_check(
            relations, table.get, lambda rel: rel.center.label(table.kind))
    y_mapped, records = t_to_y(t_table)
    points = list(value_route_mapped_y(t_table))
    assert y_mapped.values == {rel.center: y for rel, y, _, _ in points}
    assert records and records == value_route_t_to_y(t_table)


def test_cluster_check_centred_next_to_the_window_edges():
    em = exchange_matrix_for_level(new_cartan(FINITE_TYPE["A3"]), 2)
    lo, hi = -1, 6
    seq = run_sequence(em, (lo, hi), mode="numeric", rng=random.Random(7))
    seq.x[0, lo] *= 3
    seq.x[em.n - 1, hi] *= 3
    relations = [rel.shift(u) for rel in _tb_relations(em) for u in range(lo + 1, hi)]
    records = check_tb(seq)
    assert records == oracle_check(relations, lambda var: seq.x[var.a, var.k],
                                   _label(em, "T(B)"))
    assert {f"T(B) at (1,{lo + 1})", f"T(B) at ({em.n},{hi - 1})"} \
        <= {record["relation"] for record in records}
