"""Large exact work on two cores: a forked child takes half of a slice's
solves (presolved), of a check's walk (Runs.failing) or of the roundtrip's
comparison (_compare_to_t), and the outputs stay those of one process.

With FORK_WORK at 0 every walk and slice that can fork does, and each test
compares that with FORK_WORK infinite, which forks nothing: the same
tables, records (through json.dumps), errors and draws, on passing and on
tampered tables.  A child that fails has its half run again here, and a
slice whose halves fail is solved again in order.  No test leaves a child
behind; nothing forks on one CPU, without os.fork or beside a second
thread; and at the package's own bound the CLI's finite-type commands and
the cluster criteria fork nothing.
"""

import io
import json
import os
import random
import threading
from contextlib import redirect_stdout

import pytest

from test_table_store import corrupt, hole, outcome
from tysys import slots
from tysys.acceptance import (
    FINITE_TYPE,
    MIXED44_ROWS,
    criterion_8_bipartite_belt,
    criterion_9_correspondence,
)
from tysys.cartan import format_matrix_text, new_cartan
from tysys.cli import main
from tysys.errors import InverseOfZero, ZeroDivisor
from tysys.slots import Compiled, Layout, forked, lay, step, walked
from tysys.tsystem import (
    SAMPLE,
    LatticeVar,
    SystemSpec,
    check_t_solution,
    enumerate_relations,
    fill_lattice,
    propagate_t,
)
from tysys.ysystem import (
    check_y_solution,
    claim_identities_check,
    enumerate_y_relations,
    propagate_y,
    roundtrip_check,
    y_to_t,
)

MIXED44 = SystemSpec(new_cartan(MIXED44_ROWS), 2, restricted=False)
WINDOW = (0, 12)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls from here on, counted; each still forks."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def twice(monkeypatch, call, seed=11):
    """call(rng) with nothing forked, then with everything forked that can
    be, each as (its outcome, the rng's state after it), with a fresh
    random.Random(seed) each."""
    got = []
    for work in (float("inf"), 0):
        monkeypatch.setattr(slots, "FORK_WORK", work)
        rng = random.Random(seed)
        got.append((outcome(lambda: call(rng)), rng.getstate()))
    return got


def same(monkeypatch, forks, call, seed=11):
    """twice's sequential outcome, which the forked one equals, and the
    forked run forked."""
    sequential, parallel = twice(monkeypatch, call, seed)
    assert sequential == parallel
    assert forks
    return sequential[0]


def _pairs(table):
    return table.pairs().store


def _growth_y(rng, window=WINDOW):
    return propagate_y(MIXED44, window, rng=rng)


def _covered(table, relations):
    return [rel for rel in relations if all(v in table for v in rel.variables())]


# --- the fill ---------------------------------------------------------------------


def test_a_forked_fill_gives_the_sequential_table_and_draws(monkeypatch, forks):
    store = same(monkeypatch, forks, lambda rng: _pairs(_growth_y(rng)))
    assert store.count(None) < len(store) // 2


def test_restricted_fills_give_the_sequential_tables(monkeypatch, forks):
    sys = SystemSpec(new_cartan(FINITE_TYPE["B3"]), 3)
    same(monkeypatch, forks, lambda rng: (_pairs(propagate_t(sys, (0, 30), rng=rng)),
                                          _pairs(propagate_y(sys, (0, 30), rng=rng))))


def test_y_to_t_gives_the_sequential_table(monkeypatch):
    y_table = _growth_y(random.Random(3))
    sequential, parallel = twice(monkeypatch, lambda rng: _pairs(y_to_t(y_table, rng=rng)))
    assert sequential == parallel


def _fill(rng, solve, cells=4):
    """fill_lattice on cells cells over slices 0..3: slice 0 free, the last
    cell drawn, and the others solved by solve from the slot one slice
    back."""
    layout = Layout([(0, m) for m in range(1, cells + 1)], 0, 3)
    size = layout.size
    at = Compiled(layout, ((-size, -1),), ((-size, 1),), (), ((-size, 1), (0, 1)))
    rules = [step(solve, at)] * (cells - 1) + [SAMPLE]
    free = [LatticeVar(0, m, 0) for m in range(1, cells + 1)]
    return fill_lattice("T", layout, free, range(size, len(layout)),
                        lambda i: rules[i % size], rng).store


def _squares_failing_at(slot):
    def solve(store, demand, i, at):
        if i == slot:
            raise ValueError(f"no value at slot {i}")
        p, q = store[i + at.first[0][0]]
        return p * p + q * q, q * p

    return solve


def test_a_forked_slice_writes_the_sequential_values(monkeypatch, forks):
    same(monkeypatch, forks, lambda rng: _fill(rng, _squares_failing_at(-1)))
    assert len(forks) == 3


def test_a_failure_in_the_childs_half_raises_in_order_with_the_draws_of_one_process(
        monkeypatch, forks):
    # slot 10, the last solve of slice 2, falls in the child's half: slice 1
    # forks and is written, slice 2 forks, fails, and is solved in order,
    # which raises before the slice's sample is drawn
    error = same(monkeypatch, forks, lambda rng: _fill(rng, _squares_failing_at(10)))
    assert error == (ValueError, "no value at slot 10")
    assert len(forks) == 2


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("vanishing", ["raises", "solved zero"])
def test_a_vanishing_solve_redraws_the_samples_as_in_one_process(monkeypatch, forks, seed,
                                                                  vanishing):
    # a solve that vanishes on some values, raising or solving zero: the
    # slice is solved again in order, and each ZeroDivisor redraws the
    # samples as one process does
    def solve(store, demand, i, at):
        p, q = store[i + at.first[0][0]]
        if (p + q) % 3 == 0:
            if vanishing == "raises":
                raise ZeroDivisor(f"degenerate at slot {i}")
            return 0, q
        return p * p + q * q, q * p

    same(monkeypatch, forks, lambda rng: _fill(rng, solve, cells=6), seed)


def test_a_solve_that_reads_its_own_slice_is_solved_in_order(monkeypatch, forks):
    # each solve reads the slot before it: the halves demand, and the visit
    # solves the slice, in order
    layout = Layout([(0, m) for m in range(1, 5)], 0, 3)
    at = Compiled(layout, ((-1, -1),), ((-1, 1),), (), ((-1, 1), (0, 1)))

    def solve(store, demand, i, at):
        p, q = store[i - 1] or demand(i - 1)
        return p + 2 * q, q

    rules = [None] + [step(solve, at)] * 3

    def fill(rng):
        free = [LatticeVar(0, 1, k) for k in range(4)] + [LatticeVar(0, m, 0) for m in (2, 3, 4)]
        return fill_lattice("T", layout, free, range(4, 16), lambda i: rules[i % 4], rng).store

    same(monkeypatch, forks, fill)


# --- the checks and the comparison ------------------------------------------------


@pytest.mark.parametrize("edit", ["clean", "corrupted", "holed"])
def test_a_forked_y_check_gives_the_sequential_records(monkeypatch, forks, edit):
    y_table = _growth_y(random.Random(4))
    if edit == "corrupted":
        corrupt(y_table, len(y_table) - 5)
    relations = enumerate_y_relations(MIXED44, WINDOW)
    covered = _covered(y_table, relations)
    if edit == "holed":
        hole(y_table, len(y_table) - 7)
    records = same(monkeypatch, forks,
                   lambda rng: json.dumps(check_y_solution(y_table, covered)))
    assert (records == "[]") is (edit == "clean")


@pytest.mark.parametrize("edit", ["clean", "corrupted"])
def test_a_forked_t_check_gives_the_sequential_records(monkeypatch, forks, edit):
    t_table = y_to_t(_growth_y(random.Random(5)), rng=random.Random(6))
    if edit == "corrupted":
        corrupt(t_table, len(t_table) - 3)
    covered = _covered(t_table, enumerate_relations(t_table.system, t_table.window))
    records = same(monkeypatch, forks,
                   lambda rng: json.dumps(check_t_solution(t_table, covered)))
    assert (records == "[]") is (edit == "clean")


@pytest.mark.parametrize("edit", ["clean", "corrupted", "holed"])
def test_a_forked_roundtrip_gives_the_sequential_report(monkeypatch, forks, edit):
    y_table = _growth_y(random.Random(7))
    if edit == "corrupted":
        corrupt(y_table, len(y_table) // 4)
    elif edit == "holed":
        hole(y_table, len(y_table) // 2)

    def roundtrip(rng):
        report, t_table = roundtrip_check(y_table, rng=rng)
        return json.dumps(report), _pairs(t_table)

    report, _ = same(monkeypatch, forks, roundtrip)
    if edit != "holed":  # a hole only narrows the recoverable region
        assert json.loads(report)["pass"] is (edit == "clean")


def test_a_check_that_raises_gives_the_sequential_error(monkeypatch, forks):
    # a zero Y read inverted by the last relation that inverts one: 1 + Y^-1
    # is undefined there
    y_table = _growth_y(random.Random(8))
    relations = enumerate_y_relations(MIXED44, WINDOW)
    var = [rel for rel in relations if rel.denominator][-1].denominator[0][0]
    _pairs(y_table)[y_table.pairs().layout.slot(var)] = (0, 1)
    error = same(monkeypatch, forks, lambda rng: check_y_solution(y_table, relations))
    assert error == (InverseOfZero, "inverse of zero")


def test_a_walk_that_raises_in_the_childs_half_raises_after_the_first_halfs_items(
        monkeypatch, forks):
    y_table = _growth_y(random.Random(8))
    relations = enumerate_y_relations(MIXED44, WINDOW)
    last = (len(relations.runs) - 1, relations.runs[-1][1][-1])

    def walk(runs):
        for r, (_, ks) in enumerate(runs.runs):
            for k in ks:
                if (r, k) == last:
                    raise ValueError(f"item {r}, {k}")
                yield r, k

    def items(rng):
        got = []
        try:
            got.extend(walked(walk, relations, *lay(relations, y_table.pairs())))
        except ValueError as err:
            return got, str(err)

    got, error = same(monkeypatch, forks, items)
    assert len(got) == len(relations) - 1 and error == "item %d, %d" % last


def test_a_comparison_with_a_zero_t_gives_the_sequential_records(monkeypatch, forks):
    y_table = _growth_y(random.Random(9))
    t_table = y_to_t(y_table, rng=random.Random(10))
    store = _pairs(t_table)
    store[max(i for i, got in enumerate(store) if got)] = (0, 1)
    records = same(monkeypatch, forks,
                   lambda rng: json.dumps(claim_identities_check(t_table, y_table)))
    assert json.loads(records)


def test_a_comparison_that_raises_gives_the_sequential_error(monkeypatch, forks):
    # T(4, 1, k) = 0 under the last Y(4, 2, k) whose T-relation the table
    # holds: its inner vanishes where its left-hand side has a pair
    y_table = _growth_y(random.Random(9))
    t_table = y_to_t(y_table, rng=random.Random(10))
    k = max(var.k for var in y_table if (var.a, var.m) == (3, 2)
            and LatticeVar(3, 1, var.k) in t_table and LatticeVar(3, 3, var.k) in t_table)
    _pairs(t_table)[t_table.pairs().layout.slot((3, 1, k))] = (0, 1)
    error = same(monkeypatch, forks, lambda rng: claim_identities_check(t_table, y_table))
    assert error[0] is ZeroDivisionError


# --- when nothing forks -----------------------------------------------------------


def _growth_pass(rng):
    y_table = _growth_y(rng, (0, 10))
    report, t_table = roundtrip_check(y_table, rng=rng)
    covered = _covered(y_table, enumerate_y_relations(MIXED44, (0, 10)))
    return _pairs(y_table), check_y_solution(y_table, covered), report, _pairs(t_table)


def test_one_cpu_forks_nothing(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    sequential, parallel = twice(monkeypatch, _growth_pass)
    assert sequential == parallel and not forks


def test_no_fork_forks_nothing(monkeypatch):
    monkeypatch.delattr(os, "fork")
    sequential, parallel = twice(monkeypatch, _growth_pass)
    assert sequential == parallel


def test_a_second_thread_forks_nothing(monkeypatch, forks):
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(60,))
    thread.start()
    try:
        sequential, parallel = twice(monkeypatch, _growth_pass)
    finally:
        done.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert sequential == parallel and not forks


def test_a_refused_fork_runs_the_childs_half_here(monkeypatch):
    def refused():
        raise OSError("no process")

    monkeypatch.setattr(os, "fork", refused)
    sequential, parallel = twice(monkeypatch, _growth_pass)
    assert sequential == parallel


def test_the_child_is_reaped_however_the_block_ends():
    with pytest.raises(KeyboardInterrupt):
        with forked(lambda: [sum(range(10 ** 7))]):
            raise KeyboardInterrupt
    with forked(lambda: iter([(2 ** 100000 + 1, -3)])) as theirs:
        assert theirs() == [(2 ** 100000 + 1, -3)]


def test_a_child_that_fails_has_its_half_run_here():
    parent = os.getpid()

    def there():
        if os.getpid() != parent:
            os._exit(3)
        return ["here"]

    with forked(there) as theirs:
        assert theirs() == ["here"]
    with forked(lambda: [LatticeVar(0, 1, 2)]) as theirs:  # marshal writes no named tuple
        assert theirs() == [LatticeVar(0, 1, 2)]


# --- the package's own bound ------------------------------------------------------


@pytest.mark.parametrize("name,level", [("F4", 4), ("C4", 4), ("B4", 4), ("F4", 2),
                                        ("G2", 4)])
def test_finite_type_cli_commands_never_fork(forks, tmp_path, name, level):
    rows = FINITE_TYPE[name]
    matrix = tmp_path / "m.txt"
    matrix.write_text(format_matrix_text(rows), encoding="utf-8")
    common = [str(matrix), "--level", str(level), "--seed", "5"]
    t_file = tmp_path / "t.json"
    commands = [["sys", "solve-y", *common, "--window", "0..79"],
                ["period", "scan", *common, "--window", "0..79", "--max-period", "200"]]
    if max(new_cartan(rows).d) < 3:
        commands += [["sys", "solve-t", *common, "--window", "0..79", "--out", str(t_file)],
                     ["sys", "t2y", *common, "--in", str(t_file)]]
    for argv in commands:
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    assert not forks


def test_the_cluster_criteria_never_fork(forks):
    assert criterion_8_bipartite_belt()["pass"]
    assert criterion_9_correspondence()["pass"]
    assert not forks
