"""Flat slot stores: the values of a lattice table in one list, and the
reads of relation families on it.

A Layout numbers the slots of the cells (a, m) over the slices lo..hi,
slice-major, so that a stencil's variables sit at fixed slot offsets from
the variable it solves, whatever the slice; a relation compiled to a layout
(Relation.compile, Compiled) reads its values as store[i + offset].  A
SlotStore is such a list with its layout: fill_lattice fills one and
returns it, the table loader and the T -> Y map write one, and a ValueTable
is one such store and nothing else.  A family of relations is a list of
runs (Runs): a stencil and the offsets k it is read at, the relation at k
sitting one slice, Layout.size slots, after the one at k - 1.  lay gives
one read per run of a family on a SlotStore in place, or lays the values
it reads once on a store of its own; the checks and the T -> Y map walk
each run slot by slot, and slot_product and slot_pairs read one factor
list from a store.

Exact values can grow to hundreds of thousands of bits, where nearly all of
the time goes to CPython's bigint products, gcds and divisions.  Where the
estimated work of a walk over runs (walked), or of the solves of one slice
of a fill (presolved), is large, one forked child (forked) takes half of it,
so that the work runs on two cores; the outputs, the errors and the draws
are those of one process.
"""

from __future__ import annotations

import marshal
import os
import signal
import threading
from bisect import bisect
from collections.abc import Mapping
from contextlib import contextmanager
from itertools import accumulate, chain, groupby
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class LatticeVar(NamedTuple):
    """One T- or Y-variable: node a (0-based), level m, scaled coordinate k."""

    a: int
    m: int
    k: int

    def label(self, kind: str = "T") -> str:
        return f"{kind}[a={self.a + 1},m={self.m},k={self.k}]"

    def shifted(self, k: int) -> "LatticeVar":
        return LatticeVar(self.a, self.m, self.k + k)


Factor = Tuple[LatticeVar, int]


class Layout:
    """The slots of a fill's store: the cells (a, m) in their order and the
    slices lo..hi, slice-major.  (a, m, k) is slot (k - lo) * size + cell,
    cell its index in cells, so a stencil's variables sit at fixed offsets
    from the variable it solves, whatever the slice (Relation.compile)."""

    __slots__ = ("cells", "cell", "size", "lo", "hi")

    def __init__(self, cells: Sequence[Tuple[int, int]], lo: int, hi: int):
        self.cells, self.lo, self.hi = list(cells), lo, hi
        self.cell = {cell: c for c, cell in enumerate(self.cells)}
        self.size = len(self.cells)

    def __len__(self) -> int:
        return (self.hi - self.lo + 1) * self.size

    def slot(self, var) -> int:
        a, m, k = var
        return (k - self.lo) * self.size + self.cell[a, m]

    def var(self, i: int) -> LatticeVar:
        k, c = divmod(i, self.size)
        a, m = self.cells[c]
        return LatticeVar(a, m, k + self.lo)

    def keys(self) -> List[tuple]:
        """The plain (a, m, k) key of every slot, in slot order."""
        return [(a, m, k) for k in range(self.lo, self.hi + 1) for a, m in self.cells]

    def offset(self, var, target) -> int:
        """The slot of var less the slot of target."""
        return self.slot(var) - self.slot(target)

    def offsets(self, target, factors: Iterable[Factor]) -> Tuple[Tuple[int, int], ...]:
        """The factors as (slot offset from target, exponent) pairs."""
        base = self.slot(target)
        return tuple((self.slot(var) - base, exp) for var, exp in factors)


class Compiled(NamedTuple):
    """A stencil compiled to a layout (Relation.compile): its inverted
    lhs[0], its two factor lists and its left-hand side, each as (slot
    offset, exponent) pairs from the variable it solves."""

    layout: Layout
    lhs: Tuple[Tuple[int, int], ...]
    first: Tuple[Tuple[int, int], ...]
    second: Tuple[Tuple[int, int], ...]
    pair: Tuple[Tuple[int, int], ...]

    def filled(self, store: list, i: int) -> bool:
        """Whether every slot the stencil reads from slot i holds a pair."""
        for off, _ in self.pair + self.first + self.second:
            if store[i + off] is None:
                return False
        return True


def _reach(stencils: Iterable) -> int:
    """The most slices between a stencil's lhs[1] and a variable it reads
    (Relation.reach)."""
    return max((abs(k) for rel in stencils for k in rel.reach()), default=0)


class SlotStore(Mapping):
    """Ring pairs on the slots of a Layout, in one flat list, store, None at
    a slot without one: the store that fill_lattice fills and returns, and
    whose list the table loader and the T -> Y map write by slot.  Read as
    a mapping, it is the {var: pair} of its filled slots, in (a, m, k)
    order when the layout's cells are sorted; a ValueTable is one, and lay
    reads it in place."""

    __slots__ = ("layout", "store")

    def __init__(self, layout: Layout, store: Optional[list] = None):
        self.layout = layout
        self.store = [None] * len(layout) if store is None else store

    def __getitem__(self, var) -> tuple:
        a, m, k = var
        layout = self.layout
        c = layout.cell.get((a, m))
        got = None if c is None or not layout.lo <= k <= layout.hi \
            else self.store[(k - layout.lo) * layout.size + c]
        if got is None:
            raise KeyError(var)
        return got

    def __len__(self) -> int:
        return len(self.store) - self.store.count(None)

    def __iter__(self) -> Iterator[LatticeVar]:
        return (var for var, _ in self.items())

    def items(self) -> Iterator[Tuple[LatticeVar, tuple]]:
        """(var, pair) of every filled slot, cell by cell, slice by slice."""
        layout = self.layout
        for c, (a, m) in enumerate(layout.cells):
            for k, got in enumerate(self.store[c::layout.size], layout.lo):
                if got is not None:
                    # LatticeVar(a, m, k), without the Python-level __new__
                    yield tuple.__new__(LatticeVar, (a, m, k)), got


class Runs:
    """A family of relations as runs: runs is a list of (rel, ks), the
    relations rel.shift(k) for the offsets k of ks, ascending, run by run.
    Iterated, it gives those relations in that order, each built as it is
    read; len builds none.  enumerate_relations gives one run per stencil,
    and a plain list of relations is read as runs of one (as_runs)."""

    __slots__ = ("runs",)

    def __init__(self, runs: Iterable):
        self.runs = list(runs)

    def __len__(self) -> int:
        return sum(len(ks) for _, ks in self.runs)

    def __iter__(self) -> Iterator:
        for rel, ks in self.runs:
            for k in ks:
                yield rel.shift(k)

    def failing(self, store: list, reads: Sequence) -> Iterator[tuple]:
        """(r, k, ok) for every relation rel.shift(k) of the runs, runs[r]
        = (rel, ks), whose fused identity (rel.holds_exactly) does not hold
        at its slot of store, start + k * size with reads[r] = (start,
        Compiled) (lay): ok is False, or None where a slot it reads is
        empty.  The one walk of the checks, in two processes where its
        work is large (walked)."""
        return walked(lambda runs: runs._failing(store, reads), self, store, reads)

    def _failing(self, store: list, reads: Sequence) -> Iterator[tuple]:
        for r, ((rel, ks), (start, at)) in enumerate(zip(self.runs, reads)):
            holds, size = rel.holds_exactly, at.layout.size
            for k in ks:
                ok = holds(store, start + k * size, at)
                if not ok:
                    yield r, k, ok


def as_runs(relations: Iterable) -> Runs:
    """relations as a Runs: itself, or each relation a run of one."""
    if isinstance(relations, Runs):
        return relations
    return Runs((rel, range(1)) for rel in relations)


def _reads(layout: Layout, runs: Sequence) -> Optional[list]:
    """[(start, Compiled)] of the runs on layout: the stencil of each run
    compiled to the layout, once per stencil (the relations that share one
    pair of factor lists, which only a stencil's shifts do, since every
    relation built otherwise gets its own), and the slot start from which
    rel.shift(k) reads at start + k * layout.size, the slot of its lhs[1].
    None where a relation reads a cell or a slice outside the layout, which
    an offset would read wrapped into a neighbouring cell."""
    compiled, reads, size = {}, [], layout.size
    for rel, ks in runs:
        got = compiled.get(id(rel._lists))
        if got is None:
            try:
                at = rel.compile(layout)
            except KeyError:  # a variable in a cell that the layout lacks
                return None
            base, (low, high) = rel._lhs[1].k, rel.reach()
            # the offsets k at which the stencil's variables lie in the layout
            got = compiled[id(rel._lists)] = (layout.slot(rel._lhs[1]), at,
                                              layout.lo - base - low, layout.hi - base - high)
        base, at, low, high = got
        if ks and not low <= rel.k + ks[0] <= rel.k + ks[-1] <= high:
            return None
        reads.append((base + rel.k * size, at))
    return reads


def lay(relations: Iterable, pair) -> Tuple[list, list]:
    """The values that a family of relations reads, laid once: (store,
    reads), reads[r] the (start, Compiled) of the run r of as_runs(relations)
    (_reads): rel.shift(k) of the run (rel, ks) is read at slot
    start + k * size of store, size the slots per slice of the Compiled's
    layout, so that a relation that is a run of one is read at slot start.

    pair is a SlotStore, or a function of the plain (a, m, k) key giving
    the ring pair there, or None where a value is missing or has none.  A
    SlotStore whose layout holds every variable the relations read is read
    in place: store is its list; one that does not is read through its get.
    Otherwise the layout spans the cells of the stencils' variables, in
    sorted order, and the slices of the relations' lhs[1], padded by the
    stencils' reach (_reach), so that no offset leaves the store or wraps
    into a neighbouring cell, and store holds the pair at the key of every
    slot (Layout.keys)."""
    runs = as_runs(relations).runs
    if isinstance(pair, SlotStore):
        reads = _reads(pair.layout, runs)
        if reads is not None:
            return pair.store, reads
        pair = pair.get
    stencils = {id(rel._lists): rel for rel, _ in runs}.values()
    ks = [rel._lhs[1].k + rel.k + k for rel, ks in runs if ks for k in (ks[0], ks[-1])] or [0]
    reach = _reach(stencils)
    layout = Layout(sorted({(v.a, v.m) for rel in stencils for v in rel.variables()}),
                    min(ks) - reach, max(ks) + reach)
    return [pair(key) for key in layout.keys()], _reads(layout, runs)


def slot_product(store: list, i: int, offsets,
                 form: Optional[Callable] = None) -> Optional[tuple]:
    """The product (n, d) of the factors a / b over the (offset, exp) pairs
    of offsets on a laid store (lay), multiplied as they are read, without
    a gcd: (a, b) is (p, q), or form(p, q), for the ring pair (p, q) at slot
    i + offset of store, raised to exp, and a negative exp reads the
    inverted pair (b ** -exp, a ** -exp), as slot_pairs does.  An empty
    slot gives None."""
    n = d = 1
    for off, exp in offsets:
        got = store[i + off]
        if got is None:
            return None
        a, b = got if form is None else form(*got)
        if exp == 1:
            n *= a
            d *= b
        elif exp > 0:
            n *= a ** exp
            d *= b ** exp
        else:
            n *= b ** -exp
            d *= a ** -exp
    return n, d


def slot_pairs(store: list, demand: Callable, i: int, offsets,
               form: Optional[Callable] = None) -> list:
    """[(a ** exp, b ** exp)] over the (offset, exp) pairs of offsets, where
    (a, b) is (p, q), or form(p, q), for the ring pair (p, q) at slot
    i + offset of store, solved on demand (demand(slot)) where that slot is
    empty; a / b is the factor.  A negative exp reads the inverted pair
    (b ** -exp, a ** -exp).  The coprime pairs of the reads that
    reduced_quotient reduces; slot_product reads their product."""
    pairs = []
    for off, exp in offsets:
        got = store[i + off] or demand(i + off)
        if form is not None:
            got = form(*got)
        pairs.append(got if exp == 1 else (got[0] ** exp, got[1] ** exp) if exp > 0
                     else (got[1] ** -exp, got[0] ** -exp))
    return pairs


# ---------------------------------------------------------------------------
# two processes for large exact work
# ---------------------------------------------------------------------------


# A value of b bits in all, numerator and denominator, costs about
# b ** WORK_POWER to read into a product, a gcd or a division (the exponent of
# Karatsuba multiplication, log2 3), and the estimated work of a walk or of a
# slice of solves is that cost summed over the values it reads.  On a 2-core
# AMD EPYC VM (Python 3.11.7) the checks of lattice_growth and of lattice_periodic
# alike ran about 5e7 of these units per ms, and the solves of lattice_growth
# about 2e7.  Work above FORK_WORK, about 21 ms of checks or 50 ms of solves
# there, is halved with one forked child (forked), whose fork, transfer back
# and reaping take about 0.5-0.7 ms, a few percent of it at most.  The largest
# walk of lattice_periodic is about 3.7e8, and the tables of about 10 ms on
# which tests count calls stay below it too.  Of the power-of-two bounds, this
# is the highest that forks the last two slices of lattice_growth's fill
# (seed 1), and below it a fork costs over 5% of the least work it can take
# (BENCH_31.json)
WORK_POWER = 1.585
FORK_WORK = 2 ** 30


def _forkable() -> bool:
    """Whether a forked child can take half of the work: os.fork exists,
    this process may run on two CPUs or more, and it runs one thread, since
    a child forked beside another thread can inherit a lock that no one
    releases."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


def _top(pairs: Iterable) -> int:
    """The largest bit length of an integer of the ring pairs, None
    skipped; TypeError where a pair is not of ints."""
    return max(map(int.bit_length, chain.from_iterable(filter(None, pairs))), default=0)


def _worth(reads: int, top: int) -> bool:
    """Whether reads values, none of more than top bits per integer, may
    reach FORK_WORK (its upper bound, in C-speed reads only) and a child can
    take half of it."""
    return reads * (2 * top) ** WORK_POWER > FORK_WORK and _forkable()


def _cut(store: list, items: Sequence) -> Optional[int]:
    """The index that cuts items, (slot i, offsets) pairs, each reading the
    int pairs at i + offset for its offsets, an empty slot free, into two
    halves of about equal work, an item weighing the cost of its product,
    (its bits in all) ** WORK_POWER; None where the estimated work of all,
    the cost summed over the values read, is not above FORK_WORK."""
    work, weights = 0.0, []
    for i, offsets in items:
        bits = [got[0].bit_length() + got[1].bit_length()
                for got in map(store.__getitem__, (i + off for off in offsets)) if got is not None]
        work += sum(b ** WORK_POWER for b in bits)
        weights.append(sum(bits) ** WORK_POWER)
    if len(weights) < 2 or work <= FORK_WORK:
        return None
    weights = list(accumulate(weights))
    return min(max(bisect(weights, weights[-1] / 2), 1), len(weights) - 1)


@contextmanager
def forked(there: Callable) -> Iterator[Callable]:
    """Runs there(), an iterable of values that marshal writes, in one forked
    child while the with block runs, and gives the block a function that
    returns its items: the child's, sent back through a pipe by marshal as
    a list, or, where the child failed, there() run again here, whose items
    come and whose error is raised as one process gives them.  The child
    writes nothing but the pipe and leaves through os._exit; it is reaped
    however the block ends, and killed first where its items were not read.
    Where no process can be forked, there() runs here when its items are
    asked for."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        yield there
        return
    if not pid:
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pipe.write(marshal.dumps(list(there())))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    pipe = open(read, "rb")

    def value():
        nonlocal pid
        data = pipe.read()
        _, status = os.waitpid(pid, 0)
        pid = 0
        return marshal.loads(data) if status == 0 else there()

    try:
        yield value
    finally:
        pipe.close()
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def walked(walk: Callable, runs: Runs, store: list, reads: Sequence) -> Iterator:
    """The items of walk(runs), an iterator of values that marshal writes,
    over the runs read at reads on store (lay).  Where their estimated work
    is large, the items (r, k) are cut into two Runs of about equal work, the
    first walked here, item by item, while one forked child walks the
    second, whose items follow: the same items in the same order, and an
    error of the second half raised after the first half's items."""
    try:
        top = _top(store)
    except TypeError:  # values that are not int pairs
        top = 0
    cut = None
    if _worth(sum(len(ks) * (len(at.pair) + len(at.first) + len(at.second))
                  for (_, ks), (_, at) in zip(runs.runs, reads)), top):
        cut = _cut(store, [(start + k * at.layout.size,
                            [off for off, _ in at.pair + at.first + at.second])
                           for (_, ks), (start, at) in zip(runs.runs, reads) for k in ks])
    if cut is None:
        yield from walk(runs)
        return
    first, second = [], []
    for rel, ks in runs.runs:
        first.append((rel, ks[:cut]))
        second.append((rel, ks[cut:]))
        cut = max(cut - len(ks), 0)
    with forked(lambda: walk(Runs(second))) as theirs:
        yield from walk(Runs(first))
        yield from theirs()


def step(solve: Callable, at: Compiled) -> Callable:
    """solve(store, demand, i, at) as a fill's solve of (store, demand, i)
    (fill_lattice), carrying the (offset, exp) pairs it reads as its
    attribute reads, by which presolved weighs a slice."""
    def rule(store, demand, i):
        return solve(store, demand, i, at)

    rule.reads = at.first + at.second + at.lhs
    return rule


def _refuse(i: int):
    """A demand that solves nothing: the halves of a slice read filled slots."""
    raise LookupError(f"slot {i} is empty")


def presolved(targets: Iterable[int], store: list, rule: Callable, size: int) -> Iterator[int]:
    """The slots of targets in order, for a fill to visit (fill_lattice), the
    targets of a slice, size slots, following each other.  Before the visit
    reaches a slice, its empty targets whose solves carry their reads (step)
    are solved, where their estimated work is large, half in one forked
    child and half here, and written to store only if every solve gives a
    nonzero pair.  Such a solve reads filled slots only, since its demand
    raises (_refuse), and no write lands before the last solve, so it draws
    nothing and gives the value the visit would; where one raises, a demand
    included, nothing is written, and the visit solves the slice in order,
    raising where one process raises.  The visit draws the slice's samples,
    in order, either way."""
    top = seen = 0  # the largest bit length in the store's slots before seen
    for s, group in groupby(targets, size.__rfloordiv__):
        group = list(group)
        if top is not None and len(group) > 1:
            try:
                top = max(top, _top(store[seen:s * size]))
            except TypeError:  # values that are not int pairs
                top = None
            else:
                seen = max(seen, s * size)
                _presolve(store, group, rule, top)
        yield from group


def _presolve(store: list, group: list, rule: Callable, top: int):
    """presolved's two halves of a slice's targets group, the integers of
    the slices before it of at most top bits."""
    solves = [(i, how) for i, how in zip(group, map(rule, group))
              if store[i] is None and hasattr(how, "reads")]
    if not _worth(sum(len(how.reads) for _, how in solves), top):
        return
    cut = _cut(store, [(i, [off for off, _ in how.reads]) for i, how in solves])
    if cut is None:
        return

    def solve(part):
        return [how(store, _refuse, i) for i, how in part]

    try:
        with forked(lambda: solve(solves[cut:])) as theirs:
            got = solve(solves[:cut]) + theirs()
    except Exception:  # the visit solves the slice again, in order, and raises there
        return
    if all(n for n, _ in got):
        for (i, _), pair in zip(solves, got):
            store[i] = pair
