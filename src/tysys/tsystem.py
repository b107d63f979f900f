"""T-system lattice: relations compiled once per system and read at an
offset k, unit boundary substitution, solution checking, the one lattice
scheduler (used for Cauchy propagation here and by ysystem), and the
telescoping identities used everywhere for cross-verification.

Relations do not change under k -> k + 1, so each one is compiled once per
(kind, a, m) as a stencil centred at k = 0.  The relation centred at
(a, m, k) is that stencil read at offset k: it keeps the stencil's tuples,
and every reader adds k to the variables as it reads them.  A family of
relations is a list of runs (Runs): each stencil with the range of offsets
it is read at, which the checks and the T -> Y map walk slot by slot,
building a relation only for a violation record.

The scheduler, the solves and the checks pass ring pairs (numerator,
denominator) around, and every read of a relation's values reads a flat
store, a list indexed by the slots of a Layout, at the offsets of the
relation's stencil compiled to that layout (Relation.compile), and
multiplies each factor list into one pair as it reads it: no list of pairs
and no second call.  fill_lattice keeps the values it solves in such a
store and returns it as a SlotStore, the layout and the list, which is the
table; the loader and the T -> Y map write their tables' stores the same
way (table_store).  The checks, the maps, the period scan and dump read a
table's store in place (lay, ValueTable.pairs); where relations read past
a table's store, and on the cluster side, the values a check reads are
laid once per call (lay): a store over the cells and slices the relations
span, padded by the stencils' reach, None where a value is missing or has
no ring pair.  Fractions or RationalFunctions are built only where
something reads a table's values, and for violation records.  Each
relation is one identity on pairs, read by each kind's fused
holds_exactly, and numeric mode checks it on the table's store evaluated
at random points, then exactly where it fails.

Propagation takes one Cauchy step per kind, the kind's solve: lhs[1] is
the right-hand side times the inverted lhs[0], read as one running pair
and reduced by one gcd (lowest_terms) while it stays below ONE_GCD_BITS
bits.  A larger product, or a Laurent polynomial, is reduced as before by
reduced_quotient (cross-cancelling of coprime factor pairs, or exact
division), so no second gcd builds the value (exactmath.coprime_fraction).
The Y-solve and both Y -> T rules are reduced by construction, since
1 + p/q = (p + q)/q and 1 + q/p = (p + q)/p are coprime for a reduced p/q,
as is every value read and its inverse; above the bound the T-solve
reduces its one sum pair with one gcd first.  Products that are not
reduced go through pair_value, which normalises.

The spectral parameter u = k/t is kept as the integer k throughout.  A shift
of d_a/t is the integer shift d_a, and a shift of 1/t is 1.  Levels m are per
node; node a of a level-L system carries m = 1 .. t_a*L - 1 (restricted) with
unit values placed structurally at m = 0 and m = t_a*L.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import (Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from .cartan import CartanMatrix
from .errors import (
    DegenerateData,
    EmptyWindow,
    LevelOutOfRange,
    MissingValue,
    NotTamelyLaced,
    UnschedulableDependency,
    ZeroDivisor,
)
from .exactmath import (
    RationalFunction,
    coprime_fraction,
    evaluate,
    fraction_to_text,
    pair_from_text,
    random_nonzero_rational,
    value_text,
)
from .slots import (  # noqa: F401 (the package's names for the slot store)
    Compiled,
    Factor,
    LatticeVar,
    Layout,
    Runs,
    SlotStore,
    _reach,
    as_runs,
    lay,
    slot_pairs,
    slot_product,
)


@dataclass(frozen=True)
class SystemSpec:
    """System descriptor: Cartan matrix plus level/cap bookkeeping.

    Every system has an integer level.  restricted=True is the level-L
    system with unit boundary at m = t_a*L.  restricted=False is an
    unrestricted window whose levels are capped in the same node-dependent
    shape (m <= t_a*level for T, t_a*level - 1 for Y) but with no boundary
    condition.
    """

    cm: CartanMatrix
    level: int
    restricted: bool = True
    # compiled relations centred at k = 0, keyed by (kind, a, m)
    _stencils: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if not self.cm.tamely_laced:
            raise NotTamelyLaced("T/Y systems require a tamely laced Cartan matrix")
        if not isinstance(self.level, int):
            raise LevelOutOfRange(f"a system needs an integer level, got {self.level!r}")
        if self.restricted and self.level < 2:
            raise LevelOutOfRange("restricted systems need level >= 2")
        if self.level < 1:
            raise LevelOutOfRange("level cap must be positive")

    def boundary_m(self, a: int) -> Optional[int]:
        if self.restricted:
            return self.cm.t_a[a] * self.level
        return None

    def max_m_t(self, a: int) -> int:
        top = self.cm.t_a[a] * self.level
        return top - 1 if self.restricted else top

    def max_m_y(self, a: int) -> int:
        return self.cm.t_a[a] * self.level - 1

    def max_center_m(self, a: int, kind: str) -> int:
        """Largest m for which the relation centered at (a, m) stays inside
        the variable range (the m+1 factor is the binding constraint)."""
        if self.restricted:
            return self.cm.t_a[a] * self.level - 1
        top = self.max_m_t(a) if kind == "T" else self.max_m_y(a)
        return top - 1

    def cells(self, kind: str) -> List[Tuple[int, int]]:
        """The cells (a, m) of the kind's variables, node by node, level by
        level: m up to max_m_t or max_m_y."""
        top = self.max_m_t if kind == "T" else self.max_m_y
        return [(a, m) for a in range(self.cm.r) for m in range(1, top(a) + 1)]

    def describe(self) -> dict:
        return {
            "matrix": self.cm.rows(),
            "level": self.level,
            "restricted": self.restricted,
        }


class Relation:
    """One relation: a stencil's centre, left-hand side and two factor lists,
    compiled once, read at an offset k.

    The relation centred k slices after the stencil's centre keeps the
    stencil's tuples and adds k as it reads them, so shift is O(1) and
    nothing per centre is built: variables and to_json read the stored
    tuples with the offset.  Values are read from slots only: each kind's
    Cauchy step (solve) and check (holds_exactly, one fused read of the
    kind's identity) read a store at the stencil's compiled offsets
    (compile) from the slot of lhs[1].  The
    named factor lists of the subclasses are the stored tuples at k = 0 and
    new tuples otherwise, for equality and for callers that keep the list.
    Treated as immutable; equal relations (same kind, centre, left-hand
    side and factor lists) hash alike whatever their offsets."""

    __slots__ = ("_center", "_lhs", "_lists", "k")
    # the letter of the kind's labels, the JSON keys of the two factor
    # lists, and how ring pairs read each one
    kind: str
    keys: Tuple[str, str]
    forms: Tuple[Optional[Callable], Optional[Callable]] = (None, None)

    def __init__(self, center: LatticeVar, lhs: Tuple[LatticeVar, LatticeVar],
                 first: Tuple[Factor, ...], second: Tuple[Factor, ...], k: int = 0):
        self._center, self._lhs, self._lists, self.k = center, lhs, (first, second), k

    def shift(self, k: int) -> "Relation":
        """The same relation centred k slices later, sharing the tuples:
        its stencil's centre, left-hand side and the one pair of factor
        lists, whose identity lay reads as the stencil's."""
        rel = object.__new__(type(self))
        rel._center, rel._lhs, rel._lists, rel.k = self._center, self._lhs, self._lists, self.k + k
        return rel

    @property
    def center(self) -> LatticeVar:
        return self._center.shifted(self.k) if self.k else self._center

    @property
    def lhs(self) -> Tuple[LatticeVar, LatticeVar]:
        k = self.k
        if not k:
            return self._lhs
        (a0, m0, k0), (a1, m1, k1) = self._lhs
        return LatticeVar(a0, m0, k0 + k), LatticeVar(a1, m1, k1 + k)

    def factors(self, i: int) -> Iterator[Factor]:
        """Factor list i, one (variable, exponent) at a time, offset added."""
        k = self.k
        for (a, m, kv), exp in self._lists[i]:
            yield LatticeVar(a, m, kv + k), exp

    def _factor_tuple(self, i: int) -> Tuple[Factor, ...]:
        """Factor list i as a tuple: the stored one at k = 0, else built."""
        return tuple(self.factors(i)) if self.k else self._lists[i]

    def variables(self) -> Iterator[LatticeVar]:
        yield from self.lhs
        for i in (0, 1):
            for var, _ in self.factors(i):
                yield var

    def reach(self) -> Tuple[int, int]:
        """The slices from lhs[1] to the lowest and to the highest variable
        the stencil reads, the same at every offset."""
        top = self._lhs[1].k
        ks = [v.k - top for v in self._lhs]
        ks += [v.k - top for factors in self._lists for v, _ in factors]
        return min(ks), max(ks)

    def compile(self, layout: "Layout") -> "Compiled":
        """The stencil compiled to layout: lhs[0] and both factor lists as
        (slot offset, exponent) pairs from lhs[1], the variable that solve
        solves, lhs[0] at exponent -1 as solve reads it, and the left-hand
        side as the checks read it.  Offsets do not change under a shift."""
        lhs0, target = self._lhs
        lhs = layout.offset(lhs0, target)
        return Compiled(layout, ((lhs, -1),),
                        *(layout.offsets(target, factors) for factors in self._lists),
                        ((lhs, 1), (0, 1)))

    def to_json(self) -> dict:
        """Centre, left-hand side and both factor lists, 1-based."""
        c, k = self.center, self.k
        out = {"center": {"a": c.a + 1, "m": c.m, "k": c.k},
               "lhs": [[v.a + 1, v.m, v.k] for v in self.lhs]}
        for key, factors in zip(self.keys, self._lists):
            out[key] = [[v.a + 1, v.m, v.k + k, e] for v, e in factors]
        return out

    def _key(self) -> tuple:
        return (self.center, self.lhs, self._factor_tuple(0), self._factor_tuple(1))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        center, lhs, first, second = self._key()
        return (f"{type(self).__name__}(center={center!r}, lhs={lhs!r}, "
                f"{self.keys[0]}={first!r}, {self.keys[1]}={second!r})")


class TRelation(Relation):
    """One instantiated T-system equation:
    lhs[0] * lhs[1] = prod(term_a) + prod(term_m), units already substituted."""

    __slots__ = ()
    kind = "T"
    keys = ("termA", "termM")

    @property
    def term_a(self) -> Tuple[Factor, ...]:
        return self._factor_tuple(0)

    @property
    def term_m(self) -> Tuple[Factor, ...]:
        return self._factor_tuple(1)

    def rhs(self, value):
        """prod(term_a) + prod(term_m), reading each variable through value(var)."""
        return (factor_product(value, self._lists[0], self.k)
                + factor_product(value, self._lists[1], self.k))

    @staticmethod
    def holds(lhs, rhs) -> bool:
        return lhs == rhs

    @staticmethod
    def sum_pair(first, second) -> tuple:
        """P_a / Q_a + P_m / Q_m as the pair (P_a Q_m + P_m Q_a, Q_a Q_m),
        no gcd: the right-hand side of the T-identity, written once."""
        (an, ad), (mn, md) = first, second
        return an * md + mn * ad, ad * md

    @staticmethod
    def identity(lhs, first, second) -> bool:
        """p0 p1 / q0 q1 == P_a / Q_a + P_m / Q_m, cross-multiplied."""
        n, d = TRelation.sum_pair(first, second)
        return lhs[0] * d == lhs[1] * n

    def holds_exactly(self, store, i: int, at: "Compiled") -> Optional[bool]:
        """identity at slot i of a laid store (lay), the slot of lhs[1], in
        one read and without a gcd: the left-hand side, then each factor
        list multiplied into one pair as it is read at the offsets of at,
        as slot_product reads it, then the sum pair cross-multiplied.  None
        where a slot it reads is empty."""
        got, top = store[i + at.pair[0][0]], store[i]
        if got is None or top is None:
            return None
        ln, ld = got[0] * top[0], got[1] * top[1]
        lists = []
        for offsets in (at.first, at.second):
            n = d = 1
            for off, exp in offsets:
                got = store[i + off]
                if got is None:
                    return None
                if exp == 1:
                    n *= got[0]
                    d *= got[1]
                else:
                    p, q = got if exp > 0 else got[::-1]
                    n *= p ** abs(exp)
                    d *= q ** abs(exp)
            lists.append((n, d))
        (an, ad), (mn, md) = lists
        return ln * (ad * md) == ld * (an * md + mn * ad)

    def solve(self, store, demand, i: int, at: "Compiled") -> tuple:
        """The Cauchy step: lhs[1] at slot i of a fill's store, as a reduced
        ring pair with the sign on the numerator.  Each factor list is read
        into one pair at the offsets of at (compile), as slot_product reads
        it, an empty slot solved on demand (demand(slot)), then lhs[0];
        lhs[1] is the sum pair (sum_pair) times the inverted lhs[0].
        Integers of fewer than ONE_GCD_BITS bits in all are multiplied out
        and reduced by one gcd (lowest_terms).  Larger ones reduce the sum
        pair by its one gcd and reduced_quotient cross-cancels it with
        lhs[0]; a Laurent quotient goes to reduced_quotient whole."""
        lists = []
        for offsets in (at.first, at.second):
            n = d = 1
            for off, exp in offsets:
                got = store[i + off] or demand(i + off)
                if exp == 1:
                    n *= got[0]
                    d *= got[1]
                else:
                    a, b = got if exp > 0 else got[::-1]
                    n *= a ** abs(exp)
                    d *= b ** abs(exp)
            lists.append((n, d))
        (an, ad), (mn, md) = lists
        n, d = an * md + mn * ad, ad * md
        off = at.lhs[0][0]
        p, q = store[i + off] or demand(i + off)
        if isinstance(n, int) and isinstance(q, int):
            if n.bit_length() + d.bit_length() + q.bit_length() + p.bit_length() < ONE_GCD_BITS:
                return lowest_terms(n * q, d * p)
            n, d = lowest_terms(n, d)
        return reduced_quotient(((n, d), (q, p)))


def _aggregate(factors: Iterable[Factor]) -> Tuple[Factor, ...]:
    agg: Dict[LatticeVar, int] = {}
    for var, exp in factors:
        agg[var] = agg.get(var, 0) + exp
    return tuple(sorted(agg.items()))


def s_term(cm: CartanMatrix, b: int, m: int, k: int) -> List[Factor]:
    """The coupling factors of node b at composite level m, centered at k.

    Factor number k' = 1..d_b sits at level 1 + floor((m-k')/d_b) and scaled
    shift 2k' - 1 - m + floor((m-k')/d_b)*d_b.  Level-0 factors are units and
    are dropped.
    """
    if not cm.tamely_laced:
        raise NotTamelyLaced("s_term requires a tamely laced matrix")
    if m < 0:
        raise LevelOutOfRange("s_term needs m >= 0")
    return [(LatticeVar(b, level, k + shift), 1) for level, shift in _s_offsets(cm.d[b], m)
            if level]


def _s_offsets(db: int, m: int) -> Iterator[Tuple[int, int]]:
    """(level, shift) of the d_b factors of s_term at composite level m >= 0,
    level 0 included."""
    for kp in range(1, db + 1):
        e = (m - kp) // db
        yield 1 + e, 2 * kp - 1 - m + e * db


def m_term(cm: CartanMatrix, a: int, m: int, k: int) -> Tuple[Factor, ...]:
    """Coupling product of the relation centered at (a, m, k): for d_a > 1 the
    neighbors enter at level (d_a/d_b) m and the same slice, for d_a = 1 they
    enter through their s_term factors."""
    if not cm.tamely_laced:
        raise NotTamelyLaced("m_term requires a tamely laced matrix")
    da = cm.d[a]
    factors: List[Factor] = []
    for b in cm.neighbors(a):
        if da > 1:
            factors.append((LatticeVar(b, (da // cm.d[b]) * m, k), 1))
        else:
            factors.extend(s_term(cm, b, m, k))
    return _aggregate(factors)


def m_term_unified(cm: CartanMatrix, a: int, m: int, k: int) -> Tuple[Factor, ...]:
    """Same product assembled from the single double-product closed form
    (over neighbors b and k' = 1..-C_ab), used as an independent route."""
    if not cm.tamely_laced:
        raise NotTamelyLaced("m_term_unified requires a tamely laced matrix")
    da = cm.d[a]
    factors: List[Factor] = []
    for b in cm.neighbors(a):
        db = cm.d[b]
        cab = cm[a, b]
        cba = cm[b, a]
        for kp in range(1, -cab + 1):
            e = da * (m - kp) // db
            level = -cba + e
            if level <= 0:
                continue
            # db * (-2k'+1)/C_ab is integral for every tamely laced matrix
            num = db * (-2 * kp + 1)
            assert num % cab == 0
            shift = num // cab + db * (-cba + e - 1) - da * m
            factors.append((LatticeVar(b, level, k + shift), 1))
    return _aggregate(factors)


def _boundary_filter(sys: SystemSpec, factors: Iterable[Factor]) -> Tuple[Factor, ...]:
    """Drop unit factors: level 0 always, level t_b*L when restricted.
    Anything beyond the boundary would be a bug, so it raises."""
    kept = []
    for var, exp in factors:
        if var.m == 0:
            continue
        top = sys.boundary_m(var.a)
        if top is not None:
            if var.m == top:
                continue
            if var.m > top:
                raise LevelOutOfRange(f"factor {var.label()} beyond the boundary")
        kept.append((var, exp))
    return tuple(kept)


def stencil(sys: SystemSpec, kind: str, a: int, m: int):
    """The kind relation centred at (a, m, 0), built once per system by the
    kind's compiler (COMPILERS).  Relations do not change when k is
    shifted: the one centred at (a, m, k) is this stencil read at offset k."""
    key = (kind, a, m)
    rel = sys._stencils.get(key)
    if rel is None:
        top = sys.max_center_m(a, kind)
        if not 1 <= m <= top:
            raise LevelOutOfRange(
                f"center level m={m} outside 1..{top} for node {a + 1}")
        rel = sys._stencils[key] = COMPILERS[kind](sys, a, m)
    return rel


def _compile_t(sys: SystemSpec, a: int, m: int) -> TRelation:
    da = sys.cm.d[a]
    lhs = (LatticeVar(a, m, -da), LatticeVar(a, m, da))
    term_a = _boundary_filter(
        sys, ((LatticeVar(a, m - 1, 0), 1), (LatticeVar(a, m + 1, 0), 1)))
    term_m = _boundary_filter(sys, m_term(sys.cm, a, m, 0))
    return TRelation(LatticeVar(a, m, 0), lhs, term_a, term_m)


# each kind's compiler of its stencils, (sys, a, m) -> the relation centred
# at (a, m, 0); ysystem, which imports this module, adds "Y"
COMPILERS: Dict[str, Callable] = {"T": _compile_t}


def t_relation(sys: SystemSpec, a: int, m: int, k: int) -> TRelation:
    """Relation centered at (a, m, k) with unit boundaries substituted."""
    return stencil(sys, "T", a, m).shift(k)


def _check_window(window) -> Tuple[int, int]:
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise EmptyWindow(f"window {lo}..{hi} is empty")
    return lo, hi


def enumerate_relations(sys: SystemSpec, window, kind: str = "T") -> Runs:
    """All kind relations whose variables (after unit substitution) lie in
    the window, ordered by node, level and centre, as runs: the kind's
    stencils, each with the range of offsets at which it fits, a stencil
    that fits nowhere left out.  Unrestricted windows additionally exclude
    centers whose m+1 factor would exceed the level cap."""
    lo, hi = _check_window(window)
    runs = []
    for a in range(sys.cm.r):
        for m in range(1, sys.max_center_m(a, kind) + 1):
            rel = stencil(sys, kind, a, m)
            low, high = rel.reach()
            ks = range(lo - low - rel._lhs[1].k, hi - high - rel._lhs[1].k + 1)
            if ks:
                runs.append((rel, ks))
    return Runs(runs)


# ---------------------------------------------------------------------------
# value tables
# ---------------------------------------------------------------------------


class ValueTable:
    """Concrete values (Fractions, or rational functions in symbolic mode)
    for the lattice variables of one system on one window.  Unit boundary
    variables are never stored; relations substitute them structurally.

    A table is its store: the SlotStore of reduced ring pairs that its fill,
    map or loader wrote, its Layout and flat list.  len, `in`, dump and the
    period scan read it, and the checks and the maps read it in place at
    compiled offsets (lay).  get builds one value from its stored pair
    (reduced_value).  values is a read-only {var: value} dict, built once
    from the pairs with one value per distinct pair; equal pairs then share
    one tuple in the store, so that a periodic table, which repeats each of
    its values once per period, holds one copy of each.  values is a
    snapshot of the store at its first read: a later write into
    pairs().store is not seen there.  Nothing in this package writes a
    finished table's store."""

    def __init__(self, kind: str, system: SystemSpec, window: Tuple[int, int],
                 pairs: SlotStore, meta: Optional[dict] = None):
        self.kind, self.system, self.window = kind, system, window
        self.meta = {} if meta is None else meta
        self._pairs, self._values = pairs, None

    @property
    def values(self) -> Dict[LatticeVar, object]:
        if self._values is None:
            # equal pairs first become one tuple, whose copies are freed
            # before the values are built
            store, shared = self._pairs.store, {}
            for i, got in enumerate(store):
                if got is not None:
                    store[i] = shared.setdefault(got, got)
            value = {id(got): reduced_value(*got) for got in shared}
            self._values = _ReadOnlyValues({var: value[id(got)]
                                            for var, got in self._pairs.items()})
        return self._values

    def pairs(self) -> SlotStore:
        """The table's store, read in place by lay; not to be changed."""
        return self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, var) -> bool:
        return var in self._pairs

    def __iter__(self) -> Iterator[LatticeVar]:
        return iter(self._pairs)

    def get(self, var: LatticeVar):
        """The value at var, built from its stored pair (reduced_value);
        MissingValue where the table has none."""
        try:
            return reduced_value(*self._pairs[var])
        except KeyError:
            raise MissingValue(var.label(self.kind)) from None

    def _header(self) -> dict:
        """Every key of to_json but "entries"."""
        return {"kind": self.kind, "system": self.system.describe(),
                "window": list(self.window), "meta": self.meta}

    def to_json(self) -> dict:
        entries = [
            {"a": v.a + 1, "m": v.m, "k": v.k, "kind": self.kind,
             "value": fraction_to_text(reduced_value(*got))}
            for v, got in sorted(self._pairs.items())
        ]
        return {**self._header(), "entries": entries}

    def dump(self, path):
        """Write json.dumps(to_json(), sort_keys=True, indent=1) and a
        newline, byte for byte, from the ring pairs: "entries", the first
        key in sorted order, is written entry by entry from one template,
        and json writes the other keys.  A value is written by str(), or
        by fraction_to_text past the interpreter's digit limit.  The whole
        text is built first, so that a value that cannot be written (one
        that is not a rational) leaves no file behind."""
        text = io.StringIO()
        text.write('{\n "entries": [')
        kind, sep = self.kind, ""
        # a SlotStore gives its pairs sorted already
        for var, got in sorted(self._pairs.items()):
            if not isinstance(got[0], int):
                raise TypeError(f"{var.label(kind)} is not a rational")
            n, d = got
            try:
                value = str(n) if d == 1 else f"{n}/{d}"
            except ValueError:  # past the digit limit
                value = fraction_to_text(coprime_fraction(n, d))
            text.write(_ENTRY % (sep, var.a + 1, var.k, kind, var.m, value))
            sep = ","
        rest = json.dumps(self._header(), sort_keys=True, indent=1)
        text.write(("\n ],\n" if sep else "],\n") + rest[2:] + "\n")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.getvalue())


class _ReadOnlyValues(dict):
    """ValueTable.values: a dict that no call changes."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a table's values are read-only: its store holds its pairs")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = \
        _read_only


# one entry of ValueTable.dump: separator, a (1-based), k, kind, m, value
_ENTRY = ('%s\n  {\n   "a": %d,\n   "k": %d,\n   "kind": "%s",\n   "m": %d,\n'
          '   "value": "%s"\n  }')


def table_from_json(data, sys: SystemSpec, kind: str) -> ValueTable:
    """Load a table dump of kind values ('T' or 'Y') for the system sys.
    The dump names its system and kind; where either differs from sys or
    kind, a ValueError names what differs.  Every entry is checked against
    sys: malformed input raises ValueError with a one-line message.  Each
    entry goes straight to its slot (_entry_slot), with no LatticeVar
    built, and pair_from_text reads every value."""
    if not isinstance(data, dict):
        raise ValueError("a table is a JSON object")
    missing = [key for key in ("entries", "window", "system", "kind") if key not in data]
    if missing:
        raise ValueError(f"table has no {', '.join(map(repr, missing))} field")
    entries, window, sdesc = data["entries"], data["window"], data["system"]
    if not (isinstance(window, list) and len(window) == 2
            and all(_is_int(k) for k in window)):
        raise ValueError(f"table window must be two integers, got {window!r}")
    window = tuple(window)
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"table meta must be an object, got {meta!r:.40}")
    if not isinstance(sdesc, dict):
        raise ValueError(f"table system descriptor is malformed: {sdesc!r:.40}")
    differ = [f"{key} {sdesc.get(key)!r}, not {want!r}"
              for key, want in sys.describe().items() if sdesc.get(key) != want]
    if differ:
        raise ValueError(f"table is for another system: {'; '.join(differ)}")
    if data["kind"] != kind:
        raise ValueError(f"table holds {data['kind']!r} values, not {kind!r}")
    if not isinstance(entries, list):
        raise ValueError("table entries must be an array")
    top = sys.max_m_t if kind == "T" else sys.max_m_y
    tops = [top(a) for a in range(sys.cm.r)]
    pairs = table_store(sys, kind, window)
    layout, store = pairs.layout, pairs.store
    for row in entries:
        i = _entry_slot(row, kind, layout, tops, window)
        try:
            got = pair_from_text(row.get("value"))
        except ValueError as err:
            raise ValueError(f"{layout.var(i).label(kind)}: {err}") from None
        if not got[0]:
            raise ValueError(f"{layout.var(i).label(kind)}: zero value")
        if store[i] is not None:
            raise ValueError(f"{layout.var(i).label(kind)} appears twice")
        store[i] = got
    return ValueTable(kind, sys, window, pairs, meta)


def table_store(sys: SystemSpec, kind: str, window) -> "SlotStore":
    """An empty SlotStore for a kind table of sys on window: every cell
    (a, m) of the kind, in order, and the window's slices padded by the
    reach of the kind's stencils (_reach), so that every relation whose
    lhs[1] lies in the window is read in place (lay)."""
    reach = _reach(stencil(sys, kind, a, m) for a in range(sys.cm.r)
                   for m in range(1, sys.max_center_m(a, kind) + 1))
    return SlotStore(Layout(sys.cells(kind), window[0] - reach, window[1] + reach))


def _is_int(value) -> bool:
    """Whether value is an int, as JSON reads one: a bool is not."""
    return type(value) is int


def _entry_slot(row, kind: str, layout: Layout, tops: list, window) -> int:
    """The slot in layout of one table entry, checked against the highest
    level tops[a] of each node and the window; a LatticeVar is built only
    for the message of an entry that fails."""
    if not isinstance(row, dict):
        raise ValueError(f"table entry {row!r:.40} is not an object")
    if row.get("kind", kind) != kind:
        raise ValueError(f"table mixes kinds {row['kind']!r} and {kind!r}")
    a, m, k = row.get("a"), row.get("m"), row.get("k")
    if not type(a) is type(m) is type(k) is int:  # _is_int of all three
        raise ValueError(f"table entry needs integers a, m and k: "
                         f"{ {'a': a, 'm': m, 'k': k} }")
    c = layout.cell.get((a - 1, m))
    if c is not None and window[0] <= k <= window[1]:
        return (k - layout.lo) * layout.size + c
    label = LatticeVar(a - 1, m, k).label(kind)
    if not 1 <= a <= len(tops):
        raise ValueError(f"{label}: node {a} is outside 1..{len(tops)}")
    top = tops[a - 1]
    if not 1 <= m <= top:
        raise ValueError(f"{label}: level m={m} is outside 1..{top}")
    raise ValueError(f"{label}: k={k} is outside the window {window[0]}..{window[1]}")


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def violation(relation: str, lhs, rhs) -> dict:
    """One violation record: the relation's label and both sides, through
    value_text; a (numerator, denominator) side is written as a quotient."""
    if isinstance(rhs, tuple):
        rhs = f"({value_text(rhs[0])}) / ({value_text(rhs[1])})"
    return {"relation": relation, "lhs": value_text(lhs), "rhs": value_text(rhs)}


def check_relations(relations: Iterable, pair: Callable, value: Callable,
                    label: Callable) -> List[dict]:
    """The one check of T- and Y-relations, lattice or exchange-matrix.

    The values are laid once on the slots the relations read (lay):
    pair(key) gives the ring pair at each slot's (a, m, k) key, or None
    where a value is missing or has none, or pair is a table's SlotStore,
    read in place.  Each run of the family (as_runs) is walked slot by
    slot; where every slot a relation reads holds a pair, the kind's fused
    read rel.holds_exactly decides the exact check as one identity of
    integers or of Laurent polynomials.  Otherwise (semifield values, or a
    missing value), the relation is built and its sides, read through
    value(var), are compared by rel.holds.  Each failure is recorded as
    violation(label(rel), lhs, rhs), from the sides as values."""
    relations = as_runs(relations)
    violations = []
    for r, k, ok in relations.failing(*lay(relations, pair)):
        rel = relations.runs[r][0].shift(k)
        lhs = value(rel.lhs[0]) * value(rel.lhs[1])
        rhs = rel.rhs(value)
        if ok is None:
            ok = rel.holds(lhs, rhs)
        if not ok:
            violations.append(violation(label(rel), lhs, rhs))
    return violations


# random points at which numeric mode evaluates a symbolic table
SAMPLES = 3


def _check_table(table: ValueTable, relations: Iterable, mode: str, rng) -> List[dict]:
    """check_relations on a table's ring pairs, read in place or laid once
    (lay).  Numeric mode evaluates the table at SAMPLES random assignments
    of the symbols of its rational functions, drawn from rng, and checks
    each relation's exact identity on the evaluated pairs, a SlotStore on
    the table's layout read as the table's store is, each sample walking
    the relations that held so far; only a relation that fails at a point
    goes on to the exact check, which writes its record.  A table without
    rational functions is checked exactly.  Records read the table's values
    through table.get, which builds them from the stored pairs."""
    pairs = table.pairs()
    relations = as_runs(relations)
    if mode == "numeric":
        symbolic = [got for got in pairs.store if got is not None
                    and not isinstance(got[0], int)]
        if symbolic:
            names = sorted({n for num, den in symbolic for n in num.vars + den.vars})
            runs, failed = relations.runs, set()
            for _ in range(SAMPLES):
                at = {n: random_nonzero_rational(rng) for n in names}
                evaluated = SlotStore(pairs.layout, [
                    None if got is None else ring_pair(evaluate(reduced_value(*got), at))
                    for got in pairs.store])
                store, reads = lay(relations, evaluated)
                held = Runs((rel, [k for k in ks if (r, k) not in failed])
                            for r, (rel, ks) in enumerate(runs))
                failed.update((r, k) for r, k, _ in held.failing(store, reads))
            # the runs keep their reads: only their offsets are filtered
            relations = Runs((rel, [k for k in ks if (r, k) in failed])
                             for r, (rel, ks) in enumerate(runs))
    return check_relations(relations, pairs, table.get,
                           lambda rel: rel.center.label(table.kind))


def check_t_solution(table: ValueTable, relations: Iterable[TRelation],
                     mode: str = "exact", rng=None) -> List[dict]:
    """Violation report for a T-value table; empty list means pass.

    exact mode checks each relation's identity on the values' ring pairs
    (cross-multiplied, Laurent polynomials for symbolic values); numeric mode
    evaluates symbolic entries at random assignments, checks the same
    identity there, and checks exactly only the relations that fail.
    """
    return _check_table(table, relations, mode, rng)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def factor_product(value: Callable, factors: Iterable[Factor], k: int = 0):
    """prod value(var) ** exp over the factors, each variable read k slices
    later."""
    result = Fraction(1)
    for (a, m, kv), exp in factors:
        result = result * value(LatticeVar(a, m, kv + k)) ** exp
    return result


# ---------------------------------------------------------------------------
# ring pairs: every value as numerator / denominator in its own ring
# ---------------------------------------------------------------------------


def ring_pair(v):
    """v as (numerator, denominator) in its ring: integers in lowest terms
    for an int or a Fraction, the Laurent polynomials of a RationalFunction.
    None for a value without one (a semifield element, or None)."""
    if isinstance(v, (int, Fraction)):
        return v.as_integer_ratio()
    if isinstance(v, RationalFunction):
        return v.num, v.den
    return None


def pair_product(pairs: Iterable[tuple]) -> tuple:
    """(prod a, prod b) over the pairs: multiplied out, no gcd."""
    n = d = 1
    for a, b in pairs:
        n *= a
        d *= b
    return n, d


def pair_value(n, d):
    """The value n / d of a ring pair (d nonzero), normalised: a Fraction
    for integers, a RationalFunction, reduced as every one is, for Laurent
    polynomials.  For products that are not reduced by construction."""
    return Fraction(n, d) if isinstance(n, int) else RationalFunction(n, d)


def lowest_terms(n: int, d: int) -> tuple:
    """n / d for integers, d nonzero, as one reduced pair by one gcd, the
    sign on the numerator."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


def pair_quotient(top, bottom) -> tuple:
    """top / bottom for two ring pairs, as one reduced ring pair, the sign
    on the numerator: one gcd for integers (lowest_terms), a
    RationalFunction's reduction for Laurent polynomials.  A zero bottom
    raises as the division of values does."""
    if bottom[0] == 0:
        pair_value(*top) / pair_value(*bottom)
    n, d = top[0] * bottom[1], top[1] * bottom[0]
    return lowest_terms(n, d) if isinstance(n, int) else ring_pair(RationalFunction(n, d))


def _pair_bits(pair: tuple) -> int:
    return pair[0].bit_length() + pair[1].bit_length()


# integer pairs of fewer bits than this in all are reduced by one gcd of
# their product, larger ones by cross-cancelling; of the power-of-two bounds,
# this one gives the least time summed over the solves of lattice_periodic
# and lattice_growth (BENCH_19.json).  It also decides how a solve reads:
# the running product of its factors is multiplied out only while it stays
# below the bound (TRelation.solve, YRelation.solve)
ONE_GCD_BITS = 8192


def reduced_quotient(pairs: Sequence[tuple]) -> tuple:
    """prod a / b over coprime ring pairs (every b nonzero) as one reduced
    pair (n, d), the sign on the numerator: the large path of the solves,
    whose fused read stops at ONE_GCD_BITS bits, and of the Y -> T rules.

    Integer pairs of fewer than ONE_GCD_BITS bits in all are multiplied out
    and reduced by one gcd (lowest_terms).  Larger ones are cross-cancelled against the
    running product n / d, gcd(n, b) and gcd(a, d) (Henrici's product rule;
    Knuth, TAOCP vol. 2, 4.5.1), smallest pair first: the gcds and products
    then meet the largest factors only at the end, when they meet them
    once.  With every pair coprime the product stays in lowest terms, so no
    further gcd is taken.  reduced_value builds the Fraction from either.
    Laurent polynomial pairs are multiplied out, reduced once as a
    RationalFunction reduces, and then by exact division
    (RationalFunction.reduced), so a quotient that is a Laurent polynomial
    is returned with denominator 1."""
    bits = 0
    for a, b in pairs:
        if not isinstance(a, int):
            value = RationalFunction(*pair_product(pairs)).reduced()
            return value.num, value.den
        bits += a.bit_length() + b.bit_length()
    if bits < ONE_GCD_BITS:
        return lowest_terms(*pair_product(pairs))
    n = d = 1
    for a, b in sorted(pairs, key=_pair_bits):
        g, h = gcd(n, b), gcd(a, d)
        if g > 1:
            n //= g
            b //= g
        if h > 1:
            a //= h
            d //= h
        n *= a
        d *= b
    return (-n, -d) if d < 0 else (n, d)


def reduced_value(n, d):
    """The value n / d of a reduced ring pair, built without a second
    reduction."""
    return coprime_fraction(n, d) if isinstance(n, int) else RationalFunction(n, d, _reduced=True)


# rule(slot) result for a free value drawn when the visit reaches the slot
SAMPLE = "sample"


def fill_lattice(kind: str, layout: Layout, free: List[LatticeVar], targets: Iterable[int],
                 rule: Callable, rng, initial: Optional[dict] = None,
                 partial: bool = False, retries: int = 16) -> SlotStore:
    """The one scheduler and resample loop behind propagate_t, propagate_y
    and y_to_t; returns the filled store, a SlotStore on layout of reduced
    ring pairs with the sign on the numerator, which the caller's
    ValueTable keeps as it is.

    The values are kept in one flat store, a list indexed by the slots of
    layout, free values included; no value and no {var: pair} dict is
    built.  The free variables take initial[var] where given, else a
    random sample, in their order; then the slots of targets are visited in
    order.  rule(slot) is None when no rule determines the slot's variable,
    SAMPLE for a free value drawn when it is reached, or solve(store,
    demand, slot), which returns its reduced ring pair, sign on the
    numerator, reading each variable it needs as store[slot + offset] and
    calling demand(slot + offset) where that slot is still empty: demand
    solves a missing dependency on demand, by its rule.  The visit calls a
    target's solve itself, and demand only for a slot that it reaches out
    of order.  A rule reads only slots inside the layout, so the layout
    must reach as many slices beyond the slots that have a rule as their
    rules read: an offset then never reads a neighbouring cell, and a slot
    beyond has no rule.  A dependency that no rule determines raises
    UnschedulableDependency; with partial, the target that needs it is left
    out instead.  A ZeroDivisor redraws every sample, up to retries (>= 0)
    times, when there is an rng and something was sampled; a DegenerateData,
    which no sample changes, raises at once.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    initial = initial or {}
    free = [(var, layout.slot(var)) for var in free]
    last_error = None
    for _ in range(retries + 1):
        store = [None] * len(layout)
        undetermined = set()
        active = {}  # slots being solved on demand, innermost last
        visiting = None  # the target whose solve the visit runs
        sampled = False

        def take(i, value=None):
            """The pair of a free value: value, or a sample where it is None."""
            nonlocal sampled
            if value is None:
                sampled, value = True, random_nonzero_rational(rng)
            store[i] = got = ring_pair(value)
            return got

        def demand(i):
            how = None if i in undetermined or i in active or i == visiting else rule(i)
            if how is None:
                undetermined.add(i)
                var = layout.var(i)
                inner = next(reversed(active)) if active else visiting
                needer = var if inner is None else layout.var(inner)
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
                if store[i] is not None:
                    continue
                how = None if i in undetermined else rule(i)
                try:
                    if how is None or how is SAMPLE:
                        visiting = None
                        demand(i)
                        continue
                    visiting = i
                    got = how(store, demand, i)
                except UnschedulableDependency:
                    undetermined.add(i)
                    if not partial:
                        raise
                    continue
                if not got[0]:
                    raise ZeroDivisor(f"solved zero at {layout.var(i).label(kind)}")
                store[i] = got
            return SlotStore(layout, store)
        except ZeroDivisor as err:
            last_error = err
            if rng is None or not sampled or isinstance(err, DegenerateData):
                raise
        finally:
            # demand calls itself through its closure: unbound, the store is
            # freed with its table, not later by the cyclic collector
            demand = None
    raise ZeroDivisor(f"retries exhausted: {last_error}")


def _propagate(kind: str, sys: SystemSpec, window, relation: Callable,
               initial: Optional[dict], rng, retries: int = 16) -> ValueTable:
    """Cauchy propagation of a kind table on the window: the first 2*d_a
    slices of each node are free (drawn node by node, level by level), and
    every later variable, visited slice by slice, is lhs[1] of the relation
    centred d_a slices below it and solved by its Cauchy step (the kind's
    solve).  The stencil of each cell, relation(sys, a, m, 0),
    is compiled once to slot offsets; the layout reaches as many slices
    beyond the window as the farthest variable a stencil reads, and a slot
    there has no rule.  A level above every relation centre
    (sys.max_center_m) is sampled instead."""
    lo, hi = _check_window(window)
    cells = sys.cells(kind)
    stencils = [relation(sys, a, m, 0) if m <= sys.max_center_m(a, kind) else SAMPLE
                for a, m in cells]
    reach = _reach(rel for rel in stencils if rel is not SAMPLE)
    layout = Layout(cells, lo - reach, hi + reach)
    # each solve with its compiled stencil bound (a closure calls faster
    # than a partial with a keyword)
    rules = [rel if rel is SAMPLE else
             lambda store, demand, i, solve=rel.solve, at=rel.compile(layout):
             solve(store, demand, i, at) for rel in stencils]
    # the rule of every slot, None beyond the window
    pad = [None] * (reach * layout.size)
    by_slot = pad + rules * (hi - lo + 1) + pad
    slab = [LatticeVar(a, m, k) for a, m in cells
            for k in range(lo, min(hi + 1, lo + 2 * sys.cm.d[a]))]
    pairs = fill_lattice(kind, layout, slab, range(len(pad), len(by_slot) - len(pad)),
                         by_slot.__getitem__, rng, initial, retries=retries)
    return ValueTable(kind, sys, (lo, hi), pairs)


def propagate_t(sys: SystemSpec, window, initial: Optional[dict] = None,
                rng=None, retries: int = 16) -> ValueTable:
    """Fill the window from an initial slab of width 2*d_a per node, solving
    T(a, m, k) from the relation centered d_a slices earlier through its
    Cauchy step (TRelation.solve: the sum pair over lhs[0], one gcd).

    A coupling factor that is not ready yet is solved first; that resolves
    every dependency when max d <= 2.  A factor outside the window (which
    happens for max d >= 3) raises UnschedulableDependency naming it.  A
    vanishing right-hand side resamples the free initial data up to
    retries times.  Symbolic values that are Laurent polynomials are
    stored with denominator 1 (reduced_quotient).
    """
    if not sys.restricted:
        raise LevelOutOfRange("propagate_t handles restricted systems only; "
                              "unrestricted T-solutions come from y_to_t")
    return _propagate("T", sys, window, t_relation, initial, rng, retries)


# ---------------------------------------------------------------------------
# telescoping identities
# ---------------------------------------------------------------------------


def identity_check_1(p: int, window, values: Dict[Tuple[int, int], Fraction]) -> bool:
    """Telescoping identity for one node with arbitrary nonzero values:

      T_pm(k-p) T_pm(k+p) / (T_p(m-1)(k) T_p(m+1)(k))
        = prod over j = -p+1..p-1 and k' = 1..p-|j| of
            T_{pm+j}(kt-1) T_{pm+j}(kt+1) / (T_{pm+j-1}(kt) T_{pm+j+1}(kt)),

    with kt = k + p - |j| + 1 - 2k'.  values maps (m, k) -> Fraction; the
    identity is checked exactly at every center the table covers.
    """
    from .ysystem import z_term  # ysystem imports this module

    lo, hi = _check_window(window)

    def val(m, k):
        try:
            return values[(m, k)]
        except KeyError:
            raise MissingValue(f"(m={m},k={k})") from None

    checked = False
    for (m, k) in sorted(values):
        if m % p or m == 0 or not lo <= k - p <= k + p <= hi:
            continue
        try:
            lhs = val(m, k - p) * val(m, k + p) / (val(m - p, k) * val(m + p, k))
            rhs = Fraction(1)
            # the coupling factors of the Y-relations; z_term reads no matrix
            for (_, level, kt), _ in z_term(None, 0, p, m // p, k):
                rhs *= (val(level, kt - 1) * val(level, kt + 1)
                        / (val(level - 1, kt) * val(level + 1, kt)))
        except MissingValue:
            continue
        checked = True
        if lhs != rhs:
            return False
    if not checked:
        raise MissingValue("no fully covered center in the window")
    return True


def _s_value(values, db: int, m: int, k: int) -> Fraction:
    """Composite-level product at (m, k) built from single-node values, with
    level-0 factors treated as units."""
    result = Fraction(1)
    for level, shift in _s_offsets(db, m):
        if not level:
            continue
        key = (level, k + shift)
        if key not in values:
            raise MissingValue(f"(m={key[0]},k={key[1]})")
        result *= values[key]
    return result


def identity_check_2(db: int, window, values: Dict[Tuple[int, int], Fraction]) -> bool:
    """Second telescoping identity, through the composite-level products:

      S_m(k-1) S_m(k+1) / (S_{m-1}(k) S_{m+1}(k))
        = T_{m/db}(k-db) T_{m/db}(k+db) / (T_{m/db-1}(k) T_{m/db+1}(k))
          when db divides m, and 1 otherwise,

    where level-0 T factors are units.  Checked exactly on every covered
    center; values maps (m, k) -> Fraction for a single node of weight db.
    """
    lo, hi = _check_window(window)
    max_m = max((m for m, _ in values), default=0)
    checked = False
    for m in range(1, db * max_m):
        for k in range(lo + db, hi - db + 1):
            try:
                lhs = (_s_value(values, db, m, k - 1) * _s_value(values, db, m, k + 1)
                       / (_s_value(values, db, m - 1, k) * _s_value(values, db, m + 1, k)))
                if m % db == 0:
                    mm = m // db
                    upper = values.get((mm + 1, k))
                    lower = Fraction(1) if mm == 1 else values.get((mm - 1, k))
                    outer_l = values.get((mm, k - db))
                    outer_r = values.get((mm, k + db))
                    if None in (upper, lower, outer_l, outer_r):
                        continue
                    rhs = outer_l * outer_r / (lower * upper)
                else:
                    rhs = Fraction(1)
            except MissingValue:
                continue
            checked = True
            if lhs != rhs:
                return False
    if not checked:
        raise MissingValue("no fully covered center in the window")
    return True
