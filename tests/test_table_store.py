"""The table store read in place, each reader against the same pairs on a
second layout, and the fused reads and the scheduler's visit against the
routes they replaced.

A solved, mapped or loaded table is the SlotStore that its fill, map or
loader wrote, and the checks, the T -> Y map, the roundtrip, the period scan
and dump read that store in place at compiled offsets.  Each test builds
the twin of a table, the same pairs on the table's cells over its window
with no padding, and compares what the two give: reports, mapped and
reconstructed tables, periods and dump bytes, on clean, corrupted and holed
T- and Y-tables, restricted and unrestricted (MIXED44), symbolic and
rational, in exact and numeric mode.  The twin is read in place at other
offsets where a family of relations fits its window, and laid through its
get where one reads past it: the T -> Y map and the claim check of every
T-table, the roundtrip's recoverable region of an unrestricted Y-table.  A
spy on Layout.keys, which only laying calls, shows which route ran.  The
values of a table are a read-only dict built once from its pairs.

The fused identity reads (TRelation.holds_exactly, YRelation.holds_exactly)
are compared with slot_product through each list's form followed by the
kind's identity, at exponents other than 1 and on Laurent pairs.  The
scheduler's visit, which calls a target's solve itself, is compared with
the visit through demand that it replaced, store for store and error text
for error text.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tysys import tsystem, ysystem
from tysys.acceptance import FINITE_TYPE, MIXED44_ROWS
from tysys.cartan import new_cartan
from tysys.errors import (
    DegenerateData,
    InverseOfZero,
    MissingValue,
    UnschedulableDependency,
    ZeroDivisor,
)
from tysys.exactmath import RationalFunction, random_nonzero_rational
from tysys.tsystem import (
    SAMPLE,
    LatticeVar,
    Layout,
    SlotStore,
    SystemSpec,
    TRelation,
    ValueTable,
    check_t_solution,
    enumerate_relations,
    lay,
    propagate_t,
    reduced_value,
    ring_pair,
    slot_product,
    table_from_json,
)
from tysys.ysystem import (
    YRelation,
    check_covered,
    check_y_solution,
    claim_identities_check,
    detect_period,
    enumerate_y_relations,
    propagate_y,
    recoverable_region,
    roundtrip_check,
    t_to_y,
    y_to_t,
)

from tables import table_of

MIXED44 = SystemSpec(new_cartan(MIXED44_ROWS), 2, restricted=False)


def _system(name, level):
    return SystemSpec(new_cartan(FINITE_TYPE[name]), level)


@pytest.fixture
def laid(monkeypatch):
    """The layouts laid from keys since the fixture was set up; Layout.keys
    is called only where a store is laid, never where one is read in
    place."""
    calls = []
    keys = Layout.keys

    def spy(layout):
        calls.append(layout)
        return keys(layout)

    monkeypatch.setattr(Layout, "keys", spy)
    return calls


def twin(table):
    """A table of the same pairs on a second layout: the table's cells over
    its window, with no slice of padding, so that lay lays the relations
    that read past the window, through the store's get, where the table's
    own store is read in place."""
    store = table.pairs()
    layout = Layout(store.layout.cells, *table.window)
    other = SlotStore(layout)
    for var, got in store.items():
        other.store[layout.slot(var)] = got
    assert other == store
    return ValueTable(table.kind, table.system, table.window, other, dict(table.meta))


def _filled(table):
    store = table.pairs().store
    return store, [i for i, got in enumerate(store) if got is not None]


def corrupt(table, nth):
    """The nth filled pair p / q of the table's store becomes (p + q) / q,
    still reduced."""
    store, filled = _filled(table)
    p, q = store[filled[nth]]
    store[filled[nth]] = (p + q, q)
    return table


def hole(table, nth):
    """The nth filled slot of the table's store emptied."""
    store, filled = _filled(table)
    store[filled[nth]] = None
    return table


def outcome(call):
    """call()'s result, or the type and text of what it raised."""
    try:
        return call()
    except (ArithmeticError, LookupError, RuntimeError, TypeError, ValueError) as err:
        return type(err), str(err)


def _covered(table, mode, seed):
    """check_covered, its relations as a list."""
    relations, records = check_covered(table, mode, random.Random(seed))
    return list(relations), records


def _dumped(table, path):
    table.dump(path)
    return path.read_bytes()


def _symbolic_initial(sys):
    """Symbols for the free slab of a Cauchy propagation on sys from k = 0."""
    cm = sys.cm
    return {LatticeVar(a, m, k): RationalFunction.gen(f"x{a}{m}{k}")
            for a in range(cm.r) for m in range(1, sys.max_m_t(a) + 1)
            for k in range(2 * cm.d[a])}


# --- T-tables: the checks, the T -> Y map, the claim check, period and dump ----------


def _edited(table, edit):
    if edit == "corrupted":
        return corrupt(table, len(table) // 2)
    return hole(table, len(table) // 3) if edit == "holed" else table


EDITS = ("clean", "corrupted", "holed")
MODES = ("exact", "numeric")


def _t_tables():
    """(label, make, mode): make() solves a T-table, clean, corrupted or
    holed."""
    for name, level, window in (("B3", 2, (0, 20)), ("C3", 3, (-2, 14)), ("D4", 2, (0, 16))):
        for edit in EDITS:
            def make(sys=_system(name, level), window=window, edit=edit):
                return _edited(propagate_t(sys, window, rng=random.Random(level)), edit)

            for mode in MODES:
                yield f"{name} L{level} {edit} {mode}", make, mode
    for edit in EDITS:
        def make(sys=_system("A2", 2), edit=edit):
            return _edited(propagate_t(sys, (0, 7), initial=_symbolic_initial(sys)), edit)

        for mode in MODES:
            yield f"A2 symbolic {edit} {mode}", make, mode


def _t_reports(table, mode, tmp_path):
    sys, window = table.system, table.window
    rels = enumerate_relations(sys, window)
    reports = [outcome(lambda: check_t_solution(table, rels, mode, random.Random(5))),
               outcome(lambda: detect_period(table, 12)),
               outcome(lambda: _dumped(table, tmp_path / "t.json"))]
    y_table, violations = t_to_y(table)
    y_twin = twin(y_table)
    reports += [violations, outcome(lambda: claim_identities_check(table, y_table))]
    for y in (y_table, y_twin):
        reports.append(outcome(lambda: _covered(y, mode, 6)))
    return reports + [y_table.values]


@pytest.mark.parametrize("case", list(_t_tables()), ids=lambda case: case[0])
def test_t_table_in_place_equals_the_materialized_route(case, tmp_path, laid):
    label, make, mode = case
    table = make()
    other = twin(table)
    got = _t_reports(table, mode, tmp_path)
    # every reader reads the table, its Y-image and the Y-image's twin in
    # place, violation records and numeric samples included
    assert not laid
    assert got == _t_reports(other, mode, tmp_path)
    # the T -> Y map and the claim check read T past the twin's window
    assert len(laid) == 2
    # a corrupted value fails the check, and a hole is a missing value
    if "holed" in label:
        assert got[0][0] is MissingValue
    else:
        assert bool(got[0]) is ("corrupted" in label)


@pytest.mark.parametrize("case", [case for case in _t_tables()
                                  if case[0].endswith("corrupted exact")
                                  and "symbolic" not in case[0]], ids=lambda case: case[0])
def test_a_failing_check_keeps_the_table_read_in_place(case, tmp_path, laid):
    # the violation records are built from the stored pairs, one value at a
    # time: the corrupted table is read in place and left as it was
    label, make, mode = case
    table = make()
    before = list(table.pairs().store)
    got = _t_reports(table, mode, tmp_path)
    assert got[0] and got[4] and not laid
    assert table.pairs().store == before


# --- Y-tables: the checks, the roundtrip, period and dump ----------------------------


def _y_tables():
    """(label, make, mode): make() solves a Y-table, clean, corrupted or
    holed."""
    systems = [("A3 L3", _system("A3", 3), (0, 24)), ("F4 L2", _system("F4", 2), (0, 16)),
               ("MIXED44", MIXED44, (0, 9))]
    for name, sys, window in systems:
        for edit in EDITS:
            def make(sys=sys, window=window, edit=edit):
                return _edited(propagate_y(sys, window, rng=random.Random(2)), edit)

            for mode in MODES:
                yield f"{name} {edit} {mode}", make, mode
    for edit in ("clean", "corrupted"):
        def make(sys=_system("A2", 2), edit=edit):
            return _edited(propagate_y(sys, (0, 11), initial=_symbolic_initial(sys)), edit)

        for mode in MODES:
            yield f"A2 symbolic {edit} {mode}", make, mode


def _y_reports(table, mode, tmp_path):
    rels = enumerate_y_relations(table.system, table.window)
    reports = [outcome(lambda: check_y_solution(table, rels, mode, random.Random(7))),
               outcome(lambda: _covered(table, mode, 8)),
               outcome(lambda: detect_period(table, 30)),
               outcome(lambda: _dumped(table, tmp_path / "y.json"))]
    if not table.system.restricted:
        got = outcome(lambda: roundtrip_check(table, rng=random.Random(3)))
        if isinstance(got, tuple) and len(got) == 2 and isinstance(got[1], ValueTable):
            report, t_table = got
            got = report, t_table.values, recoverable_region(table, t_table)
        reports.append(got)
    return reports


@pytest.mark.parametrize("case", list(_y_tables()), ids=lambda case: case[0])
def test_y_table_in_place_equals_the_materialized_route(case, tmp_path, laid):
    label, make, mode = case
    table = make()
    other = twin(table)
    got = _y_reports(table, mode, tmp_path)
    assert not laid
    assert got == _y_reports(other, mode, tmp_path)
    # the recoverable region reads Y one level below past the twin's window
    assert bool(laid) is not table.system.restricted
    if "holed" in label:
        assert got[0][0] is MissingValue
    else:
        assert bool(got[0]) is ("corrupted" in label)


def test_a_loaded_table_is_read_in_place(tmp_path, laid):
    # the loader writes the padded store that t2y maps and checks in place
    sys = _system("B3", 2)
    table = propagate_t(sys, (0, 16), rng=random.Random(9))
    loaded = table_from_json(json.loads(_dumped(table, tmp_path / "t.json")), sys, "T")
    assert loaded.pairs() == table.pairs()
    got = _t_reports(loaded, "exact", tmp_path)
    assert not laid
    assert got == _t_reports(table, "exact", tmp_path) == _t_reports(twin(loaded), "exact",
                                                                    tmp_path)


def test_a_table_reads_out_of_its_store_by_laying(laid):
    # relations that read past the store's padding are laid, not wrapped
    sys = _system("A2", 2)
    table = propagate_t(sys, (0, 6), rng=random.Random(1))
    other = twin(table)
    near = enumerate_relations(sys, (0, 6))
    far = [rel for rel in enumerate_relations(sys, (0, 40)) if rel.center.k == 30]
    assert check_t_solution(table, near) == [] and not laid
    got = outcome(lambda: check_t_solution(table, far))
    assert laid
    assert got == outcome(lambda: check_t_solution(other, far))
    assert got == (MissingValue, "missing value for T[a=1,m=1,k=29]")


def _read_only(values, var):
    """Every mutator of a dict, each called on values at var."""
    def ior():
        view = values
        view |= {var: 1}

    return [lambda: values.__setitem__(var, 1), lambda: values.__delitem__(var),
            values.clear, lambda: values.pop(var), values.popitem,
            lambda: values.setdefault(var, 1), lambda: values.update({var: 1}), ior]


def test_values_are_a_read_only_dict_built_once_from_the_pairs():
    for table in (propagate_t(_system("A2", 2), (0, 12), rng=random.Random(4)),
                  hole(propagate_y(MIXED44, (0, 6), rng=random.Random(4)), 5)):
        store = table.pairs()
        filled = {store.layout.var(i): got for i, got in enumerate(store.store) if got}
        assert len(store) == len(table) == len(filled) == len(store.values())
        assert set(table) == set(store) == set(filled) and dict(store.items()) == filled
        values = table.values
        assert isinstance(values, dict) and table.values is values
        assert values == {var: reduced_value(*got) for var, got in filled.items()}
        for mutate in _read_only(values, next(iter(values))):
            with pytest.raises(TypeError, match="read-only"):
                mutate()
        assert values == {var: reduced_value(*got) for var, got in filled.items()}
        # equal pairs are one tuple in the store, and give one value
        shared = {}
        for var, got in store.items():
            first = shared.setdefault(got, (got, values[var]))
            assert first[0] is got and first[1] is values[var]
        if table.kind == "T":
            # T(1, 1, k + 5) = T(2, 1, k): ten values, each solved as its own
            # tuple before the read
            fresh = propagate_t(_system("A2", 2), (0, 12), rng=random.Random(4)).pairs()
            assert len({id(got) for got in fresh.values()}) == len(filled) == 26
            assert len(shared) == 10


# --- the fused identity reads ------------------------------------------------------


def _relation(cls, first_exps, second_exps):
    """A relation of kind cls on three nodes: lhs on node 0, its first list
    on node 1 and its second on node 2, one level per factor."""
    first = tuple((LatticeVar(1, 1 + j, j % 2), e) for j, e in enumerate(first_exps))
    second = tuple((LatticeVar(2, 1 + j, -(j % 2)), e) for j, e in enumerate(second_exps))
    return cls(LatticeVar(0, 1, 0), (LatticeVar(0, 1, -1), LatticeVar(0, 1, 1)), first, second)


def _reference(rel, store, i, at):
    """The check as it read before the fused reads: slot_product through
    each list's form, then the kind's identity."""
    lhs = slot_product(store, i, at.pair)
    first = None if lhs is None else slot_product(store, i, at.first, rel.forms[0])
    second = None if first is None else slot_product(store, i, at.second, rel.forms[1])
    return None if second is None else rel.identity(lhs, first, second)


def _holding(rel, values):
    """values with lhs[1] set so that rel holds, as Fractions or
    RationalFunctions."""
    def prod(terms):
        out = Fraction(1)
        for term in terms:
            out = out * term
        return out

    get = values.__getitem__
    if rel.kind == "T":
        rhs = (prod(get(v) ** e for v, e in rel.factors(0))
               + prod(get(v) ** e for v, e in rel.factors(1)))
    else:
        rhs = (prod((1 + get(v)) ** e for v, e in rel.factors(0))
               / prod((1 + 1 / get(v)) ** e for v, e in rel.factors(1)))
    return {**values, rel.lhs[1]: rhs / get(rel.lhs[0])}


def _compare_reads(rel, values, empty=None):
    store, [(i, at)] = lay([rel], lambda key: ring_pair(values.get(key)))
    if empty is not None:
        store[i + empty] = None
    return outcome(lambda: rel.holds_exactly(store, i, at)), \
        outcome(lambda: _reference(rel, store, i, at))


EXPS = st.lists(st.sampled_from([1, 2, 3, -1, -2]), min_size=0, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([TRelation, YRelation]), EXPS, EXPS, st.integers(0, 2 ** 32),
       st.booleans())
def test_fused_identity_reads_match_slot_product(cls, first, second, seed, holding):
    rel = _relation(cls, first, second)
    rng = random.Random(seed)
    values = {var: random_nonzero_rational(rng) for var in rel.variables()}
    # 1 + Y must not vanish for a Y-relation that is to hold
    values = {var: v if v != -1 else Fraction(2) for var, v in values.items()}
    if holding:
        values = _holding(rel, values)
    fused, reference = _compare_reads(rel, values)
    assert fused == reference
    assert fused is holding or not holding and fused in (True, False)
    for empty in {off for off, _ in at_offsets(rel)}:
        fused, reference = _compare_reads(rel, values, empty)
        assert fused == reference is None


def at_offsets(rel):
    store, [(i, at)] = lay([rel], lambda key: (1, 1))
    return at.pair + at.first + at.second


def test_fused_identity_reads_laurent_pairs():
    x, y, z = (RationalFunction.gen(name) for name in "xyz")
    for cls in (TRelation, YRelation):
        rel = _relation(cls, [2, -1], [1, 3])
        values = dict(zip(sorted(rel.variables()),
                          [x / (y + 1), x + z, y / (x + 2), z, x * y + 1, 1 / (z + 3)]))
        values = _holding(rel, values)
        assert _compare_reads(rel, values) == (True, True)
        values[rel.lhs[0]] = values[rel.lhs[0]] * 2
        assert _compare_reads(rel, values) == (False, False)


def test_a_vanishing_one_plus_inverse_still_raises():
    rel = _relation(YRelation, [1], [1, 2])
    values = {var: Fraction(3, 7) for var in rel.variables()}
    values[rel.denominator[1][0]] = Fraction(0)
    fused, reference = _compare_reads(rel, values)
    assert fused == reference == (InverseOfZero, "inverse of zero")
    # an empty slot read before the vanishing factor gives None, as before
    store, [(i, at)] = lay([rel], lambda key: ring_pair(values.get(key)))
    store[i] = None
    assert rel.holds_exactly(store, i, at) is None is _reference(rel, store, i, at)


# --- the scheduler's visit against the demand route ----------------------------------


def demand_route(kind, layout, free, targets, rule, rng, initial=None, partial=False,
                 retries=16):
    """fill_lattice as it visited before it called a target's solve itself:
    every target that is still empty goes through demand."""
    initial = initial or {}
    free = [(var, layout.slot(var)) for var in free]
    last_error = None
    for _ in range(retries + 1):
        store = [None] * len(layout)
        undetermined, active, sampled = set(), {}, [False]

        def take(i, value=None):
            if value is None:
                sampled[0], value = True, random_nonzero_rational(rng)
            store[i] = got = ring_pair(value)
            return got

        def demand(i):
            how = None if i in undetermined or i in active else rule(i)
            if how is None:
                undetermined.add(i)
                var = layout.var(i)
                needer = layout.var(next(reversed(active))) if active else var
                raise UnschedulableDependency(
                    var.label(kind), f"solving {needer.label(kind)} needs "
                    f"{var.label(kind)} at a not-yet-filled slice")
            if how is SAMPLE:
                return take(i)
            active[i] = True
            try:
                got = how(store, demand, i)
            except UnschedulableDependency:
                undetermined.add(i)
                raise
            finally:
                del active[i]
            if not got[0]:
                raise ZeroDivisor(f"solved zero at {layout.var(i).label(kind)}")
            store[i] = got
            return got

        for var, i in free:
            if not take(i, initial.get(var))[0]:
                raise ZeroDivisor(f"initial value for {var.label(kind)} is zero")
        try:
            for i in targets:
                if store[i] is None:
                    try:
                        demand(i)
                    except UnschedulableDependency:
                        if not partial:
                            raise
            return SlotStore(layout, store)
        except ZeroDivisor as err:
            last_error = err
            if rng is None or not sampled[0] or isinstance(err, DegenerateData):
                raise
    raise ZeroDivisor(f"retries exhausted: {last_error}")


def _both_routes(monkeypatch, call):
    """(outcome of call with the direct visit, with the demand route); a
    table is given as its store and the types of its pairs' parts."""
    def run():
        got = outcome(call)
        if isinstance(got, ValueTable):
            store = got.pairs().store
            return got.window, store, [type(part) for pair in store if pair for part in pair]
        return got

    direct = run()
    with monkeypatch.context() as patch:
        patch.setattr(tsystem, "fill_lattice", demand_route)
        patch.setattr(ysystem, "fill_lattice", demand_route)
        return direct, run()


def _a3_y_table(hole_at=None):
    sys = SystemSpec(new_cartan(FINITE_TYPE["A3"]), 4, restricted=False)
    table = propagate_y(sys, (0, 14), rng=random.Random(21))
    if hole_at is not None:
        table = table_of("Y", sys, table.window, {**table.values, hole_at: None})
    return table


@pytest.mark.parametrize("name,call", [
    ("T B3", lambda: propagate_t(_system("B3", 3), (0, 24), rng=random.Random(1))),
    ("T F4", lambda: propagate_t(_system("F4", 2), (-3, 20), rng=random.Random(2))),
    ("T symbolic", lambda: propagate_t(_system("A2", 2), (0, 6),
                                       initial=_symbolic_initial(_system("A2", 2)))),
    ("Y G2", lambda: propagate_y(_system("G2", 3), (0, 30), rng=random.Random(3))),
    ("Y MIXED44", lambda: propagate_y(MIXED44, (0, 10), rng=random.Random(4))),
    ("y_to_t", lambda: y_to_t(_a3_y_table(), rng=random.Random(5))),
    ("y_to_t holed", lambda: y_to_t(_a3_y_table(LatticeVar(1, 1, 4)), free="unit")),
    ("y_to_t MIXED44 holed", lambda: y_to_t(hole(propagate_y(MIXED44, (0, 10),
                                                             rng=random.Random(7)), 30),
                                           rng=random.Random(8))),
    ("y_to_t G2 holed", lambda: y_to_t(hole(propagate_y(
        SystemSpec(new_cartan(FINITE_TYPE["G2"]), 2, restricted=False), (0, 16),
        rng=random.Random(9)), 11), free="unit")),
    ("unschedulable", lambda: propagate_t(_system("G2", 2), (0, 16), rng=random.Random(1))),
    ("solved zero", lambda: propagate_t(_system("A2", 2), (0, 6), initial={
        LatticeVar(a, 1, k): Fraction(-1 if (a, k) == (1, 1) else 1)
        for a in range(2) for k in range(2)})),
    ("degenerate", lambda: y_to_t(propagate_y(MIXED44, (0, 12),
                                              rng=random.Random(2017044716)), free="unit")),
])
def test_the_direct_visit_equals_the_demand_route(monkeypatch, name, call):
    direct, demanded = _both_routes(monkeypatch, call)
    assert direct == demanded
    expected = {"unschedulable": UnschedulableDependency, "solved zero": ZeroDivisor,
                "degenerate": DegenerateData}
    if name in expected:
        assert direct[0] is expected[name]
        assert direct[1] == {
            "unschedulable": "solving T[a=2,m=3,k=2] needs T[a=1,m=1,k=-1] "
                             "at a not-yet-filled slice",
            "solved zero": "solved zero at T[a=1,m=1,k=2]",
            "degenerate": "Y[a=2,m=1,k=0] = -1 leaves 1 + Y^-1 zero under T[a=2,m=1,k=-1]",
        }[name]
    else:
        assert isinstance(direct[1], list) and any(direct[1])


@pytest.mark.parametrize("partial", [False, True])
def test_a_cycle_through_the_visited_target_names_the_same_slots(partial):
    # slot 1 reads slot 2, which reads slot 1 back: the visit solves slot 1
    # itself, and the demand of slot 1 from inside must fail as it did when
    # the visit went through demand, naming slot 1 and its needer, slot 2
    layout = Layout([(0, 1)], 0, 3)

    def reads(other):
        def solve(store, demand, i):
            p, q = store[other] or demand(other)
            return p + q, q
        return solve

    rules = {1: reads(2), 2: reads(1), 3: reads(0)}
    got = [outcome(lambda: fill("T", layout, [LatticeVar(0, 1, 0)], [1, 2, 3], rules.get, None,
                                {LatticeVar(0, 1, 0): Fraction(2)}, partial).store)
           for fill in (tsystem.fill_lattice, demand_route)]
    assert got[0] == got[1]
    if partial:
        assert got[0] == [(2, 1), None, None, (3, 1)]
    else:
        assert got[0] == (UnschedulableDependency, "solving T[a=1,m=1,k=2] needs "
                                                   "T[a=1,m=1,k=1] at a not-yet-filled slice")
