"""Y-system lattice: relation generation (direct and via transposed coupling
exponents), solution checking, Cauchy propagation, the value-level map from
T-solutions to Y-solutions, and the converse reconstruction of a T-solution
from an unrestricted Y-solution.

Conventions, in scaled coordinates (u = k/t): a relation centered at (a, m, k)
reads

    Y(a,m,k-d_a) * Y(a,m,k+d_a) = N / D,
    N = prod of (1 + Y(b, ., .)) coupling factors,
    D = (1 + Y(a,m-1,k)^-1) * (1 + Y(a,m+1,k)^-1),

where denominator factors at level 0, and at level t_a*L in the restricted
system, are dropped (the inverse of those variables is treated as 0), and a
d_a = 1 coupling factor whose neighbor level m/d_b is not integral is 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Dict, Iterable, List, Optional, Tuple

from .cartan import CartanMatrix
from .errors import (
    DegenerateData,
    InverseOfZero,
    LevelOutOfRange,
    NotTamelyLaced,
    WindowTooNarrow,
    ZeroDivisor,
)
from .exactmath import inverse, one_plus
from .tsystem import (
    COMPILERS,
    Factor,
    LatticeVar,
    Layout,
    ONE_GCD_BITS,
    Relation,
    Runs,
    SlotStore,
    SystemSpec,
    TRelation,
    ValueTable,
    _aggregate,
    _boundary_filter,
    _check_table,
    _propagate,
    as_runs,
    enumerate_relations,
    fill_lattice,
    lay,
    lowest_terms,
    m_term,
    m_term_unified,
    pair_quotient,
    pair_value,
    reduced_quotient,
    reduced_value,
    slot_pairs,
    slot_product,
    stencil,
    t_relation,
    table_store,
    violation,
)


def _one_plus(p, q) -> tuple:
    """1 + p/q as the ring pair (p + q, q), reduced when p/q is, since
    gcd(p + q, q) = gcd(p, q)."""
    return p + q, q


def _one_plus_inverse(p, q) -> tuple:
    """1 + q/p as the ring pair (p + q, p), reduced when p/q is; raises as
    exactmath.inverse does for p = 0."""
    if p == 0:
        raise InverseOfZero("inverse of zero")
    return p + q, p


class YRelation(Relation):
    """One instantiated Y-system equation.  numerator lists (1+Y) factors,
    denominator lists (1+Y^-1) factors; boundary factors are already gone.
    Its forms read a factor of Y = p / q as the ring pair (p + q, q) in the
    numerator and (p + q, p) in the denominator."""

    __slots__ = ()
    kind = "Y"
    keys = ("numerator", "denominator")
    forms = (_one_plus, _one_plus_inverse)

    @property
    def numerator(self) -> Tuple[Factor, ...]:
        return self._factor_tuple(0)

    @property
    def denominator(self) -> Tuple[Factor, ...]:
        return self._factor_tuple(1)

    def rhs(self, value):
        """(numerator, denominator) of the right-hand side, reading each
        variable through value(var)."""
        num = Fraction(1)
        for var, exp in self.factors(0):
            num = num * one_plus(value(var)) ** exp
        den = Fraction(1)
        for var, exp in self.factors(1):
            den = den * one_plus(inverse(value(var))) ** exp
        return num, den

    @staticmethod
    def holds(lhs, rhs) -> bool:
        """Cross-multiplied, never divided."""
        num, den = rhs
        return lhs * den == num

    @staticmethod
    def identity(lhs, num, den) -> bool:
        """p0 p1 / q0 q1 == (N_n / N_d) / (D_n / D_d), cross-multiplied once,
        with N_n / N_d the product of the 1 + Y factors and D_n / D_d that of
        the 1 + Y^-1 factors; the forms read, and raise, as rhs does."""
        (ln, ld), (nn, nd), (dn, dd) = lhs, num, den
        return ln * dn * nd == ld * dd * nn

    def holds_exactly(self, store, i: int, at) -> Optional[bool]:
        """identity at slot i of a laid store (lay), the slot of lhs[1], in
        one read and without a gcd: the left-hand side, then each factor
        list multiplied into one pair as it is read at the offsets of at,
        a factor Y = p / q written inline as its form (p + q, q) in the
        numerator and (p + q, p) in the denominator, as slot_product reads
        it through forms.  None where a slot it reads is empty; a factor
        1 + Y^-1 of Y = 0 raises InverseOfZero, as _one_plus_inverse does."""
        got, top = store[i + at.pair[0][0]], store[i]
        if got is None or top is None:
            return None
        ln, ld = got[0] * top[0], got[1] * top[1]
        lists = []
        for offsets, inverted in ((at.first, False), (at.second, True)):
            n = d = 1
            for off, exp in offsets:
                got = store[i + off]
                if got is None:
                    return None
                p, q = got
                if inverted and p == 0:
                    raise InverseOfZero("inverse of zero")
                a, b = p + q, p if inverted else q
                if exp == 1:
                    n *= a
                    d *= b
                else:
                    a, b = (a, b) if exp > 0 else (b, a)
                    n *= a ** abs(exp)
                    d *= b ** abs(exp)
            lists.append((n, d))
        (nn, nd), (dn, dd) = lists
        return ln * dn * nd == ld * dd * nn

    def solve(self, store, demand, i: int, at) -> tuple:
        """The Cauchy step: lhs[1] at slot i of a fill's store, as a reduced
        ring pair with the sign on the numerator: the product of the 1 + Y
        factors (p + q, q), the inverted 1 + Y^-1 factors (p, p + q) and the
        inverted lhs[0] (q, p), read in that order at the offsets of at
        (compile), an empty slot solved on demand (demand(slot)).  They are
        multiplied into one running pair as they are read and reduced by
        one gcd (lowest_terms).  The read stops as soon as the running pair
        reaches ONE_GCD_BITS bits, or is a Laurent polynomial, and the
        factors are read again as coprime pairs (solve_pairs), which
        reduced_quotient cross-cancels or reduces as a RationalFunction.
        A zero product of the factor lists means that a factor vanished:
        solve_pairs raises ZeroDivisor naming the centre."""
        n = d = 1
        for offsets, inverted in ((at.first, False), (at.second, True)):
            for off, exp in offsets:
                p, q = store[i + off] or demand(i + off)
                a, b = (p, p + q) if inverted else (p + q, q)
                if exp != 1:
                    a, b = a ** exp, b ** exp
                n *= a
                d *= b
                if not isinstance(n, int) or n.bit_length() + d.bit_length() >= ONE_GCD_BITS:
                    return self.solve_pairs(store, demand, i, at)
        if not n or not d:
            return self.solve_pairs(store, demand, i, at)
        off = at.lhs[0][0]
        p, q = store[i + off] or demand(i + off)
        n, d = n * q, d * p
        if not isinstance(n, int) or n.bit_length() + d.bit_length() >= ONE_GCD_BITS:
            return self.solve_pairs(store, demand, i, at)
        return lowest_terms(n, d)

    def solve_pairs(self, store, demand, i: int, at) -> tuple:
        """solve by reduced_quotient over the coprime pairs of the factors,
        read by slot_pairs in solve's order; ZeroDivisor, naming the
        centre, where a factor vanishes."""
        num = slot_pairs(store, demand, i, at.first, self.forms[0])
        den = slot_pairs(store, demand, i, at.second, self.forms[1])
        if any(x == 0 for x, _ in den) or any(x == 0 for x, _ in num):
            centre = at.layout.var(i).shifted(self._center.k - self._lhs[1].k)
            raise ZeroDivisor(f"degenerate side at {centre.label(self.kind)}")
        return reduced_quotient([*num, *((b, a) for a, b in den),
                                 *slot_pairs(store, demand, i, at.lhs)])


def z_term(cm: CartanMatrix, b: int, p: int, m: int, k: int) -> List[Factor]:
    """The p^2 coupling factors (1 + Y(b, pm+j, k + p - |j| + 1 - 2k')) for
    j = -p+1..p-1 and k' = 1..p-|j|; level-0 factors (possible only at m = 0)
    are dropped."""
    out = []
    for j in range(-p + 1, p):
        width = p - abs(j)
        level = p * m + j
        if level <= 0:
            continue
        for kp in range(1, width + 1):
            out.append((LatticeVar(b, level, k + width + 1 - 2 * kp), 1))
    return out


def _compile_y(sys: SystemSpec, a: int, m: int) -> YRelation:
    cm = sys.cm
    da = cm.d[a]
    numerator: List[Factor] = []
    for b in cm.neighbors(a):
        db = cm.d[b]
        if da > 1:
            numerator.extend(z_term(cm, b, da // db, m, 0))
        elif m % db == 0:
            numerator.append((LatticeVar(b, m // db, 0), 1))
    denominator = _boundary_filter(
        sys, ((LatticeVar(a, m - 1, 0), 1), (LatticeVar(a, m + 1, 0), 1)))
    return YRelation(LatticeVar(a, m, 0), (LatticeVar(a, m, -da), LatticeVar(a, m, da)),
                     _aggregate(numerator), denominator)


COMPILERS["Y"] = _compile_y


def y_relation(sys: SystemSpec, a: int, m: int, k: int) -> YRelation:
    """Relation centered at (a, m, k) with the boundary conventions applied."""
    return stencil(sys, "Y", a, m).shift(k)


def y_relation_via_transpose(cm: CartanMatrix, a: int, m: int, k: int) -> YRelation:
    """Numerator rebuilt from the transposed coupling exponents: the factor
    (1+Y(b,K,v)) enters with the exponent that T(a,m,k) carries in the
    coupling product of the T-relation centered at (b, K, v).  Must agree
    with y_relation for every tamely laced matrix."""
    if not cm.tamely_laced:
        raise NotTamelyLaced("transposed relation requires a tamely laced matrix")
    da = cm.d[a]
    target = LatticeVar(a, m, k)
    agg: Dict[LatticeVar, int] = {}
    reach = max(da - 1, 0)
    for b in cm.neighbors(a):
        # centers on a heavier neighbor sit at level m/d_b, centers on a
        # lighter one anywhere in [d_a(m-1)+1, d_a m + d_a - 1]
        for level in range(1, da * (m + 1) + 1):
            for v in range(k - reach, k + reach + 1):
                exp = dict(m_term_unified(cm, b, level, v)).get(target, 0)
                if exp:
                    var = LatticeVar(b, level, v)
                    agg[var] = agg.get(var, 0) + exp
    # level 0 is the unit boundary of every system
    denominator = tuple((LatticeVar(a, n, k), 1) for n in (m - 1, m + 1) if n)
    return YRelation(target, (LatticeVar(a, m, k - da), LatticeVar(a, m, k + da)),
                     tuple(sorted(agg.items())), denominator)


def enumerate_y_relations(sys: SystemSpec, window) -> Runs:
    return enumerate_relations(sys, window, "Y")


def covered_y_relations(y_table: ValueTable) -> Runs:
    """The relations of enumerate_y_relations on the table's window whose
    slots all hold a pair of the table, read in place or laid once (lay),
    in the same order, as runs."""
    relations = enumerate_y_relations(y_table.system, y_table.window)
    store, reads = lay(relations, y_table.pairs())
    return Runs((rel, [k for k in ks if at.filled(store, start + k * at.layout.size)])
                for (rel, ks), (start, at) in zip(relations.runs, reads))


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def check_y_solution(table: ValueTable, relations: Iterable[YRelation],
                     mode: str = "exact", rng=None) -> List[dict]:
    """Violation report for a Y-value table; empty list means pass."""
    return _check_table(table, relations, mode, rng)


def check_covered(y_table: ValueTable, mode: str = "exact", rng=None):
    """(covered_y_relations(y_table), check_y_solution of the table on
    them, with mode and rng)."""
    relations = covered_y_relations(y_table)
    return relations, _check_table(y_table, relations, mode, rng)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def propagate_y(sys: SystemSpec, window, initial: Optional[dict] = None,
                rng=None, retries: int = 16) -> ValueTable:
    """Fill the window from an initial slab of width 2*d_a per node.

    Every right-hand side factor of a Y-relation sits strictly below the
    slice being solved, so slice-major order works for every tamely laced
    matrix, restricted or capped unrestricted.  In the unrestricted case the
    top level t_a*level - 1 of each node has no relation inside the cap and
    is extended with sampled values instead; relations centered below it hold
    exactly either way.

    Each variable is solved by the Cauchy step of the relation centred d_a
    slices earlier (YRelation.solve): the factors, (p + q, q) and
    (p, p + q) for a reduced Y = p / q, and the inverted left-hand value,
    multiplied into one running pair as they are read and reduced by one
    gcd.  Where that pair reaches ONE_GCD_BITS bits the factors, each
    coprime, go to reduced_quotient, which builds the solved value without
    a gcd beyond its own reduction.
    """
    return _propagate("Y", sys, window, y_relation, initial, rng, retries)


# ---------------------------------------------------------------------------
# T -> Y
# ---------------------------------------------------------------------------


def mapped_points(relations, pair):
    """(rel, k, inner, coupling, lhs) for every T-relation rel.shift(k) of
    the runs of relations (as_runs), rel the run's stencil, whose two
    factor lists find a pair in every slot: the products of its first list
    (inner), its second list (coupling) and its left-hand side as ring
    pairs (N, D), N / D the product, each multiplied as it is read
    (slot_product), without a gcd.  Each run is walked slot by slot, and
    no relation is built.  The values are read where the relations read
    them (lay): in place where pair is a T-table's SlotStore, else laid
    once, pair(key) giving the ring pair at each slot's (a, m, k) key, or
    None to leave a variable out; lhs is None where a left-hand slot is
    empty."""
    relations = as_runs(relations)
    store, reads = lay(relations, pair)
    for (rel, ks), (start, at) in zip(relations.runs, reads):
        first, second, size = at.first, at.second, at.layout.size
        for k in ks:
            i = start + k * size
            inner = slot_product(store, i, first)
            coupling = None if inner is None else slot_product(store, i, second)
            if coupling is not None:
                yield rel, k, inner, coupling, slot_product(store, i, at.pair)


def _is_quotient(y, top, bottom) -> bool:
    """p / q == top / bottom for the ring pairs y = (p, q), top and bottom,
    cross-multiplied; a zero bottom raises as the division of values does."""
    if bottom[0] == 0:
        pair_quotient(top, bottom)
    p, q = y
    return p * top[1] * bottom[0] == q * top[0] * bottom[1]


def _centred_relations(t_table: ValueTable) -> Runs:
    """The T-relation centred at every Y-variable of the T-table's system on
    its window, in (a, m, k) order: one run per Y cell over the window."""
    sys = t_table.system
    lo, hi = t_table.window
    return Runs((t_relation(sys, a, m, 0), range(lo, hi + 1)) for a, m in sys.cells("Y"))


def companions_hold(pair, inner, coupling) -> bool:
    """Both companion identities of Y = coupling / inner, in T-relation form.

    1 + Y = pair / inner and 1 + Y^-1 = pair / coupling hold exactly when
    coupling is nonzero and pair == inner + coupling: the T-identity
    (TRelation.identity) on the ring pairs (N, D) of mapped_points, no
    division and no successor.  Sound only where Y is coupling / inner with
    inner nonzero; where it fails, companion_identities builds the
    violation records."""
    return coupling[0] != 0 and TRelation.identity(pair, inner, coupling)


def companion_identities(label: str, y, pair, inner, coupling) -> List[dict]:
    """The two companion identities behind T -> Y at one point, compared as
    values,

        1 + Y    = pair / inner
        1 + Y^-1 = pair / coupling

    with pair = T(k-d) T(k+d), inner = T_{m-1} T_{m+1} and coupling = M on
    the lattice (for an exchange matrix, the Y(B) stencil's denominator and
    numerator products of T).  A zero Y or coupling is a violation.  The
    checks call it only where companions_hold fails, so that it builds the
    records of the failures."""
    violations = []
    lhs, rhs = one_plus(y), pair / inner
    if not lhs == rhs:
        violations.append(violation(f"one-plus {label}", lhs, rhs))
    if y == 0 or coupling == 0:
        lhs, rhs, ok = 0, "unit", False
    else:
        lhs, rhs = one_plus(inverse(y)), pair / coupling
        ok = lhs == rhs
    if not ok:
        violations.append(violation(f"one-plus-inverse {label}", lhs, rhs))
    return violations


def map_t_to_y(points, label, pairs: SlotStore, under: str = "under "):
    """The one T -> Y map, of the lattice and of the exchange-matrix
    systems: Y = coupling / inner at every point of mapped_points, as a
    reduced ring pair written into the Y-store pairs at the slot of the
    relation's centre, a fixed number of slots per slice along a run; a
    vanishing inner raises ZeroDivisor, naming the point as under +
    label(rel) (a cluster label, "at (node,u)", takes no "under ").  Where
    a point has a pair, the companion identities are checked in the exact
    form of companions_hold, and compared as values by
    companion_identities, labelled label(rel), only where that fails: the
    relation is built only for such a record.

    Returns (pairs, violations, failed), failed the slots of pairs where
    the companions failed."""
    violations, failed = [], set()
    store, size, slot = pairs.store, pairs.layout.size, pairs.layout.slot
    run = None
    for rel, k, inner, coupling, pair in points:
        if rel is not run:
            run, start = rel, slot(rel._center) + rel.k * size
        if not inner[0]:
            raise ZeroDivisor(f"vanishing T pair {under}{label(rel.shift(k))}")
        j = start + k * size
        y = store[j] = pair_quotient(coupling, inner)
        if pair is not None and not companions_hold(pair, inner, coupling):
            failed.add(j)
            violations += companion_identities(label(rel.shift(k)), reduced_value(*y),
                                               pair_value(*pair), pair_value(*inner),
                                               pair_value(*coupling))
    return pairs, violations, failed


def t_to_y(t_table: ValueTable):
    """Map a T-solution to the Y-family Y = M / (T_{m-1} T_{m+1}) on the
    sub-window where the formula's factors exist.

    Returns (y_table, violations).  The violations cover the two companion
    identities

        1 + Y(a,m,k)      = T(a,m,k-d) T(a,m,k+d) / (T_{m-1} T_{m+1})
        1 + Y(a,m,k)^-1   = T(a,m,k-d) T(a,m,k+d) / M

    wherever their factors exist and, for restricted systems, the boundary
    quantity M(a, t_a*L, k), which must collapse to exactly 1.  Each point
    is first checked in the exact T-relation form of companions_hold; only
    where that fails are the identities compared as values.
    """
    sys = t_table.system
    points = mapped_points(_centred_relations(t_table), t_table.pairs())
    pairs, violations, _ = map_t_to_y(points, lambda rel: rel.center.label("Y"),
                                      table_store(sys, "Y", t_table.window))
    lo, hi = t_table.window
    if sys.restricted:
        for a in range(sys.cm.r):
            # the boundary quantity is the same stencil at every k
            if _boundary_filter(sys, m_term(sys.cm, a, sys.boundary_m(a), 0)):
                violations += [violation(f"boundary quantity at node {a + 1}, k={k}",
                                         "non-unit factors remain", 1)
                               for k in range(lo, hi + 1)]
    return ValueTable("Y", sys, t_table.window, pairs), violations


# ---------------------------------------------------------------------------
# Y -> T reconstruction
# ---------------------------------------------------------------------------


def y_to_t(y_table: ValueTable, rng=None, free: str = "random",
           retries: int = 16) -> ValueTable:
    """Reconstruct an unrestricted T-solution whose image under t_to_y is the
    given Y-solution.

    Free data: T(a, 1, k) on the 2*d_a slices around the centre slice
    (lo + hi) // 2 of the Y window; a Y-table without a value there raises
    WindowTooNarrow.  With free = "random" they are drawn from rng, and a
    solved zero redraws them up to retries times; with free = "unit" they
    are all 1.  meta records free and the centre.  Level 1 is extended
    outward (the extension of a node consumes the d_a-fold levels of its
    lighter neighbors, which the level-raising rule supplies on demand);
    levels m >= 2 come from the level-raising rule.  A variable is
    determined when its rule's Y-value lies in the table and its
    dependencies are determined; the returned table covers exactly these,
    within d_max slices of the Y window.

    Both rules are one rule body on fill_lattice's flat store, read from a
    table per node and direction for the extension and per cell for the
    level-raising rule: the Y it reads; how that Y enters, (p + q, p) for
    1 + Y^-1 with Y = p / q under the extension and (q, p + q) for the
    inverse of 1 + Y under level raising; and the T it reads as slot
    offsets from the variable it solves, each with its exponent, -1 where
    it enters inverted (the opposite T under the extension, the T two
    levels down under level raising).  The body reads the T-pairs, then
    checks the Y, then multiplies the coprime factors with reduced_quotient,
    which builds each value without a gcd beyond its own reduction.  A
    given Y = 0 or -1 under the extension (1 + Y^-1 undefined or zero), or
    -1 under the level-raising rule (1 + Y zero), leaves T zero or undefined
    whatever the free T data: it raises DegenerateData, naming the Y
    variable, without a resample.
    """
    sys = y_table.system
    if sys.restricted:
        raise LevelOutOfRange("reconstruction applies to unrestricted Y-solutions only")
    cm = sys.cm
    d = cm.d
    lo, hi = y_table.window
    center = (lo + hi) // 2
    for a in range(cm.r):
        probe = LatticeVar(a, 1, center)
        if probe not in y_table:
            raise WindowTooNarrow(probe.label("Y"))
    span = range(lo - max(d), hi + max(d) + 1)
    y_pair = y_table.pairs().get
    cells = sys.cells("T")
    couplings = [t_relation(sys, a, 1, 0).term_m for a in range(cm.r)]
    # a rule reads 2 d_a slices away, and a coupling up to d_a beyond its stencil
    reach = 2 * max(d) + max((abs(var.k) for coupling in couplings for var, _ in coupling),
                             default=0)
    layout = Layout(cells, span.start - reach, span.stop - 1 + reach)
    # each rule, keyed (a, m, sign): the level and slice shift from the
    # variable it solves to the Y it reads, whether that Y enters as
    # 1 + Y^-1 (else as the inverse of 1 + Y), and the T it reads as
    # (slot offset, exponent) pairs.  Level 1 is extended from below (sign 1,
    # centre k - d_a) or from above (sign -1) by the coupling and the inverted
    # opposite T; level m >= 2 (sign 0) reads T(a, m-1, k -+ d_a) and the
    # inverted T(a, m-2, k), which is 1 at m = 2.
    rules = {(a, 1, sign): (0, -sign * d[a], True, layout.offsets(
        (a, 1, sign * d[a]), (*couplings[a], ((a, 1, -sign * d[a]), -1))))
        for a in range(cm.r) for sign in (1, -1)}
    rules.update({(a, m, 0): (-1, 0, False, layout.offsets(
        (a, m, 0), [((a, m - 1, -d[a]), 1), ((a, m - 1, d[a]), 1),
                    *([((a, m - 2, 0), -1)] if m > 2 else [])]))
        for a, m in cells if m > 1})

    def rule(i):
        a, m, k = layout.var(i)
        if k not in span:
            return None
        sign = 0 if m > 1 else 1 if k >= center + d[a] else -1
        dm, dk, inverted, offsets = rules[a, m, sign]
        y_var = LatticeVar(a, m + dm, k + dk)
        y = y_pair(y_var)
        if y is None:
            return None
        yp, yq = y
        factor = (yp + yq, yp) if inverted else (yq, yp + yq)

        def solve(store, demand, i):
            pairs = slot_pairs(store, demand, i, offsets)
            # after the dependencies: an undetermined variable must not raise
            if not factor[0] or not factor[1]:
                raise DegenerateData(f"{y_var.label('Y')} = {-1 if yp else 0} leaves "
                                     f"1 + Y{'^-1' if inverted else ''} "
                                     f"{'zero' if yp else 'undefined'} under "
                                     f"{layout.var(i).label()}")
            return reduced_quotient([factor, *pairs])

        return solve

    slab = [LatticeVar(a, 1, k) for a in range(cm.r)
            for k in range(center - d[a], center + d[a])]
    initial = {var: Fraction(1) for var in slab} if free == "unit" else None
    targets = [layout.slot((a, m, k)) for a, m in cells for k in span]
    pairs = fill_lattice("T", layout, slab, targets, rule, rng, initial, partial=True,
                         retries=retries)
    ks = [v.k for v in pairs]
    meta = {"free_choice": free, "center": center}
    return ValueTable("T", sys, (min(ks), max(ks)), pairs, meta)


# ---------------------------------------------------------------------------
# claim identities and the roundtrip
# ---------------------------------------------------------------------------


def claim_identities_check(t_table: ValueTable, y_table: ValueTable) -> List[dict]:
    """Pointwise verification, wherever every factor exists, of

        Y   = M / (T_{m-1} T_{m+1})
        1+Y = T(k-d) T(k+d) / (T_{m-1} T_{m+1})
        1+Y^-1 = T(k-d) T(k+d) / M

    on the ring pairs of mapped_points, cross-multiplied.  Where the first
    holds, the other two are checked in the T-relation form of
    companions_hold, and compared as values only where that fails.
    """
    return _compare_to_t(t_table, y_table)[2]


def _compare_to_t(t_table: ValueTable, y_table: ValueTable):
    """(covered, differing, claim violations) from one walk over the
    Y-table's variables in sorted order: the variables whose T-relation
    factors the T-table holds, each tested once for Y == coupling / inner;
    coupling / inner at those where that fails; and the records of
    claim_identities_check.  A vanishing inner is left out without a pair,
    and raises as the division of values does with one.  Records are built
    from values."""
    covered, differing, violations = [], {}, []
    y_pairs = y_table.pairs()
    relations = [t_relation(t_table.system, *var) for var in sorted(y_pairs)]
    for rel, k, inner, coupling, pair in mapped_points(relations, t_table.pairs()):
        if pair is None and inner[0] == 0:
            continue
        var = rel.shift(k).center
        covered.append(var)
        if not _is_quotient(y_pairs[var], coupling, inner):
            differing[var] = reduced_value(*pair_quotient(coupling, inner))
        if pair is None:
            continue
        if var in differing:
            violations.append(violation(f"value {var.label('Y')}", y_table.get(var),
                                        differing[var]))
        elif companions_hold(pair, inner, coupling):
            continue
        violations += companion_identities(var.label("Y"), y_table.get(var), pair_value(*pair),
                                           pair_value(*inner), pair_value(*coupling))
    return covered, differing, violations


def _relation_holds(store: list, rel: YRelation, i: int, at) -> bool:
    """Whether the Y-relation rel, read at slot i of a laid table (lay), is
    defined on the table and holds exactly (holds_exactly); a value without
    a ring pair fails, and so does a factor 1 + Y^-1 that vanishes, which
    leaves the relation undefined.  A filled relation demands no slot."""
    return (at.filled(store, i)
            and slot_product(store, i, at.second, rel.forms[1])[0] != 0
            and bool(rel.holds_exactly(store, i, at)))


def recoverable_region(y_table: ValueTable, recovered) -> List[LatticeVar]:
    """Variables of the input Y-table that the reconstruction provably
    recovers: level 1 wherever the recovered table is defined, and level m
    wherever levels m-1 (shifted), m-2, and the input relation centered one
    level below all cooperate.  recovered is the recovered Y-table or the
    collection of its variables.  The relations centred one level below are
    read on the table's store in place, or laid once (lay)."""
    sys = y_table.system
    order = sorted((var for var in recovered if var in y_table), key=lambda v: (v.m, v.a, v.k))
    below = {}
    for var in order:
        try:
            below[var] = y_relation(sys, var.a, var.m - 1, var.k)
        except LevelOutOfRange:  # level 1, or no relation centred one level below
            pass
    store, reads = lay(list(below.values()), y_table.pairs())
    read = {var: (rel, *got) for (var, rel), got in zip(below.items(), reads)}
    good: set = set()
    for var in order:
        a, m, k = var
        da = sys.cm.d[a]
        if m == 1 or (LatticeVar(a, m - 1, k - da) in good
                      and LatticeVar(a, m - 1, k + da) in good
                      and (m == 2 or LatticeVar(a, m - 2, k) in good)
                      and var in read and _relation_holds(store, *read[var])):
            good.add(var)
    return sorted(good)


def roundtrip_check(y_table: ValueTable, rng=None, free: str = "random",
                    retries: int = 16):
    """y_to_t (with rng, free and retries) followed by t_to_y, compared
    exactly on the recoverable region.

    Returns (report dict, t_table).  The report counts the compared variables
    and lists mismatches (none expected) plus any claim-identity violations.
    """
    t_table = y_to_t(y_table, rng=rng, free=free, retries=retries)
    covered, differing, claim = _compare_to_t(t_table, y_table)
    region = recoverable_region(y_table, covered)
    mismatches = [violation(var.label("Y"), differing[var], y_table.get(var))
                  for var in region if var in differing]
    report = {
        "compared": len(region),
        "mismatches": mismatches,
        "claim_violations": claim,
        "pass": bool(region) and not mismatches and not claim,
    }
    return report, t_table


# ---------------------------------------------------------------------------
# empirical period detection
# ---------------------------------------------------------------------------


def detect_period(table: ValueTable, max_period: int) -> Optional[int]:
    """Smallest p <= max_period with value(a,m,k) == value(a,m,k+p) for every
    stored pair of values, or None; a p that compared nothing is skipped.
    Purely empirical; values are compared as the table's ring pairs,
    cross-multiplied, read in place from the table's SlotStore, where
    (a, m, k + p) is the slot p slices after (a, m, k)."""
    if max_period < 1:
        raise ValueError(f"max_period must be >= 1, got {max_period}")
    pairs = table.pairs()
    size, store = pairs.layout.size, pairs.store
    for p in range(1, max_period + 1):
        compared = 0
        ok = True
        for got, other in zip(store, islice(store, p * size, None)):
            if got is None or other is None:
                continue
            compared += 1
            if got[0] * other[1] != got[1] * other[0]:
                ok = False
                break
        if ok and compared:
            return p
    return None
