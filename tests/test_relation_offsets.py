"""Relations reached at an offset k read their stencil's tuples with k added.

The differential test writes every relation out itself, from its stencil
with k added, and compares all the readers; the guard test runs the solvers
and checks with per-centre factor tuples forbidden.
"""

import json
import random

import pytest

from tysys.acceptance import FINITE_TYPE, MIXED44_ROWS
from tysys.cartan import new_cartan
from tysys.errors import MissingValue
from tysys.exactmath import random_nonzero_rational
from tysys.tsystem import (
    LatticeVar,
    Relation,
    SystemSpec,
    TRelation,
    check_t_solution,
    enumerate_relations,
    pair_reader,
    propagate_t,
    t_relation,
)
from tysys.ysystem import (
    check_y_solution,
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


def _paired(rel, reader):
    """get -> rel.reader(pair_reader(get)): a pair-route reader of rel on a
    value getter."""
    return lambda get: getattr(rel, reader)(pair_reader(get))


def _compare(rel, ref, tables):
    assert rel.center == ref.center
    assert rel.lhs == ref.lhs
    assert _lists(rel) == _lists(ref)
    assert list(rel.variables()) == list(ref.variables())
    assert json.dumps(rel.to_json()) == json.dumps(ref.to_json())
    assert rel == ref and ref == rel and not rel != ref
    assert hash(rel) == hash(ref)
    for values in tables:
        for reader in ("holds_exactly", "rhs_pairs"):
            assert _read(_paired(rel, reader), values) == _read(_paired(ref, reader), values)
        assert _read(rel.rhs, values) == _read(ref.rhs, values)


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
                _compare(rel, ref, (values, tripled))
                # the relation one slice later is a different one
                assert rel != at_centre(sys, c.a, c.m, c.k + 1)
                negative += c.k < 0
                solved = kind == "Y" or sys.restricted and max(cm.d) < 3
                verdict = _read(_paired(rel, "holds_exactly"), values)
                if solved:
                    assert verdict is True
                held += verdict is True
                failed += _read(_paired(rel, "holds_exactly"), tripled) is False
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
