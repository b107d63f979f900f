"""Relation families read as runs: a stencil and the range of offsets k it is
read at.  enumerate_relations returns its runs, the checks and the T -> Y map
walk each run slot by slot, and a plain list of relations is read as runs
of one through the same walk.

Each test compares the two readings of one family: the run walk against the
same relations passed as a plain list, on every finite type at levels 2-4
(G2 on the Y side only, since restricted T-propagation does not schedule
max d = 3) and on MIXED44 unrestricted, on clean, corrupted and holed tables,
in exact and numeric mode.  t_to_y's Y-store is compared with Y = M /
(T_{m-1} T_{m+1}) computed from Fractions by factor_product, and the
family's len, iteration and to_json (the bytes of sys gen) with
the relations written out stencil by stencil.
"""

import json
import random
from fractions import Fraction

import pytest

from test_table_store import _symbolic_initial, corrupt, hole, outcome
from test_ysystem import value_route_t_to_y
from tysys.acceptance import FINITE_TYPE, MIXED44_ROWS
from tysys.cartan import format_matrix_text, new_cartan
from tysys.cli import main
from tysys.errors import EmptyWindow
from tysys.slots import Runs
from tysys.tsystem import (
    LatticeVar,
    Relation,
    SystemSpec,
    check_t_solution,
    enumerate_relations,
    factor_product,
    propagate_t,
    t_relation,
)
from tysys.ysystem import (
    _compile_y,
    check_covered,
    check_y_solution,
    enumerate_y_relations,
    mapped_points,
    propagate_y,
    t_to_y,
    y_relation,
    y_to_t,
)

MIXED44 = SystemSpec(new_cartan(MIXED44_ROWS), 2, restricted=False)
WINDOW = (-2, 11)
EDITS = ("clean", "corrupted", "holed")
MODES = ("exact", "numeric")


def _systems():
    """(label, system) for every finite type at levels 2-4, and MIXED44
    unrestricted."""
    for name in sorted(FINITE_TYPE):
        for level in (2, 3, 4):
            yield f"{name} L{level}", SystemSpec(new_cartan(FINITE_TYPE[name]), level)
    yield "MIXED44", MIXED44


SYSTEMS = list(_systems())


def _edited(table, edit):
    if edit == "corrupted":
        return corrupt(table, len(table) // 2)
    return hole(table, len(table) // 3) if edit == "holed" else table


def _written_out(sys, kind, window):
    """The family of enumerate_relations written out: each stencil shifted
    to every offset at which all of its variables lie in the window."""
    lo, hi = window
    at_centre = t_relation if kind == "T" else y_relation
    out = []
    for a in range(sys.cm.r):
        for m in range(1, sys.max_center_m(a, kind) + 1):
            stencil = at_centre(sys, a, m, 0)
            ks = [v.k for v in stencil.variables()]
            out += [at_centre(sys, a, m, k) for k in range(lo - min(ks), hi - max(ks) + 1)]
    return out


def _family(sys, kind, window):
    return (enumerate_relations(sys, window) if kind == "T"
            else enumerate_y_relations(sys, window))


# --- the family reads as its list ---------------------------------------------------


@pytest.mark.parametrize("label,sys", SYSTEMS, ids=[label for label, _ in SYSTEMS])
def test_enumerate_relations_reads_as_the_written_out_list(label, sys):
    for kind in ("T", "Y"):
        rels, want = _family(sys, kind, WINDOW), _written_out(sys, kind, WINDOW)
        assert isinstance(rels, Runs) and len(rels) == len(want) > 0
        assert list(rels) == want
        assert [rel.to_json() for rel in rels] == [rel.to_json() for rel in want]
        # one run per stencil that fits, read at a range of offsets
        assert all(type(ks) is range and ks for _, ks in rels.runs)


@pytest.mark.parametrize("kind", ["T", "Y"])
@pytest.mark.parametrize("name", ["A3", "C3", "G2"])
def test_sys_gen_writes_the_written_out_relations(tmp_path, capsys, name, kind):
    matrix = tmp_path / "m.txt"
    matrix.write_text(format_matrix_text(FINITE_TYPE[name]))
    out = tmp_path / "gen.json"
    command = "gen-t" if kind == "T" else "gen-y"
    assert main(["sys", command, str(matrix), "--level", "3", "--window=-2..11",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    want = _written_out(SystemSpec(new_cartan(FINITE_TYPE[name]), 3), kind, WINDOW)
    assert payload["relations"] == [rel.to_json() for rel in want]
    # the bytes that json.dump writes of that payload
    assert out.read_text() == json.dumps(payload, sort_keys=True, indent=1)


def test_a_window_where_no_relation_fits_fails(tmp_path, capsys):
    sys = SystemSpec(new_cartan(FINITE_TYPE["A2"]), 2)
    for kind in ("T", "Y"):
        rels = _family(sys, kind, (0, 1))
        assert len(rels) == 0 and list(rels) == [] and rels.runs == []
        with pytest.raises(EmptyWindow):
            _family(sys, kind, (3, 2))
    table = propagate_y(sys, (0, 1), rng=random.Random(1))
    assert check_y_solution(table, enumerate_y_relations(sys, (0, 1))) == []
    assert list(check_covered(table)[0]) == []
    matrix = tmp_path / "a2.txt"
    matrix.write_text(format_matrix_text(FINITE_TYPE["A2"]))
    t_file = tmp_path / "t.json"
    for argv in (["solve-t", "--window", "0..1", "--out", str(t_file)],
                 ["solve-y", "--window", "0..1"], ["t2y", "--in", str(t_file)]):
        code = main(["sys", argv[0], str(matrix), "--level", "2", *argv[1:]])
        report = json.loads(capsys.readouterr().out)
        assert code == 1 and report["relations_checked"] == 0
        assert report["violations"] == [{"relation": "no relation lies inside the window"}]


# --- the checks: the run walk against the plain list ----------------------------------


def _tables(sys, kind):
    """A solved kind table of sys on WINDOW: MIXED44's T-table is the
    reconstruction of its Y-table."""
    if kind == "Y":
        return propagate_y(sys, WINDOW, rng=random.Random(4))
    if sys.restricted:
        return propagate_t(sys, WINDOW, rng=random.Random(4))
    return y_to_t(propagate_y(sys, WINDOW, rng=random.Random(4)), rng=random.Random(5))


def _walk_cases():
    for label, sys in SYSTEMS:
        kinds = ["Y"] if max(sys.cm.d) == 3 and sys.restricted else ["T", "Y"]
        for kind in kinds:
            for edit in EDITS:
                yield f"{label} {kind} {edit}", sys, kind, edit


WALK_CASES = list(_walk_cases())


def _checked(table, relations, mode):
    check = check_t_solution if table.kind == "T" else check_y_solution
    return outcome(lambda: check(table, relations, mode, random.Random(7)))


@pytest.mark.parametrize("label,sys,kind,edit", WALK_CASES,
                         ids=[case[0] for case in WALK_CASES])
def test_the_run_walk_equals_the_plain_list(label, sys, kind, edit):
    table = _edited(_tables(sys, kind), edit)
    rels = _family(sys, kind, table.window)
    if not sys.restricted and kind == "T":
        # the reconstruction covers part of its window: the relations it holds
        rels = Runs((rel, [k for k in ks if all(v in table for v in rel.shift(k).variables())])
                    for rel, ks in rels.runs)
    plain = list(rels)
    assert len(plain) == len(rels) > 0
    for mode in MODES:
        got = _checked(table, rels, mode)
        assert got == _checked(table, plain, mode)
        if edit == "corrupted":
            assert got and isinstance(got, list)
        elif edit == "clean":
            assert got == []
    if kind == "T":
        y_table, violations = t_to_y(table)
        assert (edit == "corrupted") is bool(violations)
        points = [(rel.shift(k), *rest) for rel, k, *rest in mapped_points(rels, table.pairs())]
        assert points == [(rel, *rest) for rel, _, *rest in mapped_points(plain, table.pairs())]
        table = y_table
    for mode in MODES:
        covered, got = check_covered(table, mode, random.Random(8))
        assert isinstance(covered, Runs) and len(covered) == len(list(covered))
        assert got == check_y_solution(table, list(covered), mode, random.Random(8))


@pytest.mark.parametrize("kind", ["T", "Y"])
@pytest.mark.parametrize("edit", ["clean", "corrupted"])
def test_the_numeric_walk_on_symbolic_tables_equals_the_plain_list(kind, edit):
    # numeric mode evaluates the rational functions at random points and
    # walks, sample by sample, the relations that held so far
    sys = SystemSpec(new_cartan(FINITE_TYPE["A2"]), 2)
    propagate = propagate_t if kind == "T" else propagate_y
    table = _edited(propagate(sys, (0, 9), initial=_symbolic_initial(sys)), edit)
    rels = _family(sys, kind, table.window)
    for mode in MODES:
        got = _checked(table, rels, mode)
        assert got == _checked(table, list(rels), mode)
        assert bool(got) is (edit == "corrupted")


# --- the T -> Y map against Fractions --------------------------------------------------


def fraction_route(t_table):
    """{var: Y} with Y = M / (T_{m-1} T_{m+1}) as a Fraction, built by
    factor_product from the T-table's values, at every Y-variable of the
    window whose factors the table holds."""
    values = {var: Fraction(*got) for var, got in t_table.pairs().items()}
    sys = t_table.system
    lo, hi = t_table.window
    out = {}
    for a in range(sys.cm.r):
        for m in range(1, sys.max_m_y(a) + 1):
            for k in range(lo, hi + 1):
                rel = t_relation(sys, a, m, k)
                try:
                    inner = factor_product(values.__getitem__, rel.term_a)
                    coupling = factor_product(values.__getitem__, rel.term_m)
                except KeyError:
                    continue
                out[LatticeVar(a, m, k)] = coupling / inner
    return out


T_CASES = [case for case in WALK_CASES if " T " in case[0]]


@pytest.mark.parametrize("label,sys,kind,edit", T_CASES, ids=[case[0] for case in T_CASES])
def test_t_to_y_equals_the_fraction_route(label, sys, kind, edit):
    table = _edited(_tables(sys, "T"), edit)
    y_table, violations = t_to_y(table)
    want = fraction_route(table)
    assert want and dict(y_table.pairs()) == {var: y.as_integer_ratio()
                                              for var, y in want.items()}
    assert violations == value_route_t_to_y(table)


# --- a relation is built only for a record ---------------------------------------------


def test_relations_are_built_only_for_records(monkeypatch):
    built = []
    shift = Relation.shift

    def counted(rel, k):
        built.append(k)
        return shift(rel, k)

    sys = SystemSpec(new_cartan(FINITE_TYPE["B3"]), 3)
    table = propagate_t(sys, WINDOW, rng=random.Random(2))
    cells = sum(sys.max_m_y(a) for a in range(sys.cm.r))
    monkeypatch.setattr(Relation, "shift", counted)
    rels = enumerate_relations(sys, WINDOW)
    assert check_t_solution(table, rels) == [] and not built
    y_table, violations = t_to_y(table)
    # the map reads one stencil per Y cell (t_relation) and no relation per centre
    assert violations == [] and len(built) == cells
    built.clear()
    assert check_covered(y_table)[1] == [] and not built
    corrupt(table, len(table) // 2)
    records = check_t_solution(table, rels)
    assert 0 < len(built) == len(records)
    built.clear()
    records = t_to_y(table)[1]
    # one relation per failing point, each giving one or two records
    assert 0 < len(built) - cells <= len(records)


def test_runs_of_one_read_a_shifted_relation_at_its_own_slot():
    # a relation already shifted, passed alone, reads where it is centred
    sys = SystemSpec(new_cartan(FINITE_TYPE["A3"]), 2)
    table = propagate_y(sys, WINDOW, rng=random.Random(3))
    stencil = _compile_y(sys, 1, 1)
    for k in range(-1, 11):
        rel = stencil.shift(k)
        assert check_y_solution(table, [rel]) == check_y_solution(
            table, Runs([(stencil.shift(k - 4), range(4, 5))])) == []
    corrupt(table, 5)
    assert check_y_solution(table, list(enumerate_y_relations(sys, WINDOW))) \
        == check_y_solution(table, enumerate_y_relations(sys, WINDOW)) != []
