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

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .cartan import CartanMatrix
from .errors import (
    LevelOutOfRange,
    NotTamelyLaced,
    WindowTooNarrow,
    ZeroDivisor,
)
from .exactmath import evaluate, inverse, one_plus
from .tsystem import (
    SAMPLE,
    Factor,
    LatticeVar,
    SolvePolicy,
    SystemSpec,
    ValueTable,
    _aggregate,
    _boundary_filter,
    _propagate,
    _sample_assignments,
    _shift,
    enumerate_relations,
    factor_product,
    fill_lattice,
    g_exponents,
    m_term,
    stencil,
    t_relation,
)


@dataclass(frozen=True)
class YRelation:
    """One instantiated Y-system equation.  numerator lists (1+Y) factors,
    denominator lists (1+Y^-1) factors; boundary factors are already gone."""

    center: LatticeVar
    lhs: Tuple[LatticeVar, LatticeVar]
    numerator: Tuple[Factor, ...]
    denominator: Tuple[Factor, ...]

    def variables(self) -> Iterable[LatticeVar]:
        yield from self.lhs
        for var, _ in self.numerator:
            yield var
        for var, _ in self.denominator:
            yield var

    def shift(self, k: int) -> "YRelation":
        """The same relation centred k slices later."""
        return YRelation(self.center.shifted(k), tuple(v.shifted(k) for v in self.lhs),
                         _shift(self.numerator, k), _shift(self.denominator, k))

    def to_json(self) -> dict:
        def fx(factors):
            return [[v.a + 1, v.m, v.k, e] for v, e in factors]

        c = self.center
        return {
            "center": {"a": c.a + 1, "m": c.m, "k": c.k},
            "lhs": [[v.a + 1, v.m, v.k] for v in self.lhs],
            "numerator": fx(self.numerator),
            "denominator": fx(self.denominator),
        }


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


def y_relation(sys: SystemSpec, a: int, m: int, k: int) -> YRelation:
    """Relation centered at (a, m, k) with the boundary conventions applied."""
    return stencil(sys, "Y", a, m, _compile_y).shift(k)


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
                exp = g_exponents(cm, b, level, v).get(target, 0)
                if exp:
                    var = LatticeVar(b, level, v)
                    agg[var] = agg.get(var, 0) + exp
    sys = SystemSpec(cm, None, restricted=False)
    denominator = _boundary_filter(
        sys, ((LatticeVar(a, m - 1, k), 1), (LatticeVar(a, m + 1, k), 1)))
    return YRelation(target, (LatticeVar(a, m, k - da), LatticeVar(a, m, k + da)),
                     tuple(sorted(agg.items())), denominator)


def enumerate_y_relations(sys: SystemSpec, window) -> List[YRelation]:
    return enumerate_relations(sys, window, "Y", _compile_y)


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def _y_rhs(value, rel: YRelation):
    """(numerator, denominator) of the right-hand side, reading each
    variable through value(var)."""
    num = Fraction(1)
    for var, exp in rel.numerator:
        num = num * one_plus(value(var)) ** exp
    den = Fraction(1)
    for var, exp in rel.denominator:
        den = den * one_plus(inverse(value(var))) ** exp
    return num, den


def check_y_solution(table: ValueTable, relations: Iterable[YRelation],
                     mode: str = "exact", rng=None, samples: int = 3) -> List[dict]:
    """Violation report for a Y-value table; empty list means pass."""
    violations = []
    assignments = None
    if mode == "numeric":
        assignments = _sample_assignments(table.values.values(), rng, samples)
    for rel in relations:
        for var in rel.variables():
            table.get(var)
        lhs = table.get(rel.lhs[0]) * table.get(rel.lhs[1])
        num, den = _y_rhs(table.get, rel)
        if mode == "exact":
            ok = lhs * den == num
        else:
            ok = all(evaluate(lhs, at) * evaluate(den, at) == evaluate(num, at)
                     for at in assignments)
        if not ok:
            violations.append({
                "relation": rel.center.label("Y"),
                "lhs": str(lhs),
                "rhs": f"({num}) / ({den})",
            })
    return violations


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def propagate_y(sys: SystemSpec, window, initial: Optional[dict] = None,
                rng=None, policy: SolvePolicy = SolvePolicy()) -> ValueTable:
    """Fill the window from an initial slab of width 2*d_a per node.

    Every right-hand side factor of a Y-relation sits strictly below the
    slice being solved, so slice-major order works for every tamely laced
    matrix, restricted or capped unrestricted.  In the unrestricted case the
    top level t_a*level - 1 of each node has no relation inside the cap and
    is extended with sampled values instead; relations centered below it hold
    exactly either way.
    """
    if sys.level is None:
        raise LevelOutOfRange("propagation needs a level or an m-cap")

    def solver(var):
        a, m, k = var
        if m > sys.max_center_m(a, "Y"):
            return SAMPLE
        rel = y_relation(sys, a, m, k - sys.cm.d[a])

        def solve(value):
            num, den = _y_rhs(value, rel)
            if den == 0 or num == 0:
                raise ZeroDivisor(f"degenerate side at {rel.center.label('Y')}")
            return num / (den * value(rel.lhs[0]))

        return solve

    return _propagate("Y", sys, window, solver, initial, rng, policy)


# ---------------------------------------------------------------------------
# T -> Y
# ---------------------------------------------------------------------------


def _t_value(table: ValueTable, var: LatticeVar):
    """Table value with the structural units filled in."""
    if var.m == 0:
        return Fraction(1)
    top = table.system.boundary_m(var.a)
    if top is not None and var.m == top:
        return Fraction(1)
    return table.values.get(var)


def _coupling_value(table: ValueTable, a: int, m: int, k: int):
    """Value of the coupling product of the relation centered at (a, m, k),
    or None where the table does not cover it."""
    result = Fraction(1)
    for var, exp in t_relation(table.system, a, m, k).term_m:
        val = _t_value(table, var)
        if val is None:
            return None
        result = result * val ** exp
    return result


def t_to_y(t_table: ValueTable):
    """Map a T-solution to the Y-family Y = M / (T_{m-1} T_{m+1}) on the
    sub-window where the formula's factors exist.

    Returns (y_table, violations).  The violations cover the two companion
    identities

        1 + Y(a,m,k)      = T(a,m,k-d) T(a,m,k+d) / (T_{m-1} T_{m+1})
        1 + Y(a,m,k)^-1   = T(a,m,k-d) T(a,m,k+d) / M

    wherever their factors exist and, for restricted systems, the boundary
    quantity M(a, t_a*L, k), which must collapse to exactly 1.
    """
    sys = t_table.system
    cm = sys.cm
    values: Dict[LatticeVar, Fraction] = {}
    violations: List[dict] = []
    lo, hi = t_table.window
    for a in range(cm.r):
        top = sys.max_m_y(a)
        if top is None:
            top = max((v.m for v in t_table.values if v.a == a), default=0)
        da = cm.d[a]
        for m in range(1, top + 1):
            for k in range(lo, hi + 1):
                below = _t_value(t_table, LatticeVar(a, m - 1, k))
                above = _t_value(t_table, LatticeVar(a, m + 1, k))
                coupling = _coupling_value(t_table, a, m, k)
                if below is None or above is None or coupling is None:
                    continue
                if below * above == 0:
                    raise ZeroDivisor(f"vanishing T pair under Y[a={a + 1},m={m},k={k}]")
                var = LatticeVar(a, m, k)
                y = coupling / (below * above)
                values[var] = y
                left = _t_value(t_table, LatticeVar(a, m, k - da))
                right = _t_value(t_table, LatticeVar(a, m, k + da))
                if left is None or right is None:
                    continue
                shifted = left * right
                if 1 + y != shifted / (below * above):
                    violations.append({"relation": f"one-plus {var.label('Y')}",
                                       "lhs": str(1 + y),
                                       "rhs": str(shifted / (below * above))})
                if coupling == 0 or y == 0:
                    violations.append({"relation": f"one-plus-inverse {var.label('Y')}",
                                       "lhs": "0", "rhs": "unit"})
                elif 1 + 1 / y != shifted / coupling:
                    violations.append({"relation": f"one-plus-inverse {var.label('Y')}",
                                       "lhs": str(1 + 1 / y),
                                       "rhs": str(shifted / coupling)})
    if sys.restricted:
        for a in range(cm.r):
            # the boundary quantity is the same stencil at every k
            if _boundary_filter(sys, m_term(cm, a, sys.boundary_m(a), 0)):
                violations += [{
                    "relation": f"boundary quantity at node {a + 1}, k={k}",
                    "lhs": "non-unit factors remain",
                    "rhs": "1",
                } for k in range(lo, hi + 1)]
    y_table = ValueTable("Y", sys, t_table.window, values)
    return y_table, violations


# ---------------------------------------------------------------------------
# Y -> T reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeChoicePolicy:
    kind: str = "random"  # "random" or "unit"
    max_retries: int = 16
    bits: int = 8


def y_to_t(y_table: ValueTable, rng=None,
           policy: FreeChoicePolicy = FreeChoicePolicy(),
           center: Optional[int] = None) -> ValueTable:
    """Reconstruct an unrestricted T-solution whose image under t_to_y is the
    given Y-solution.

    Free data: T(a, 1, k) on the 2*d_a slices around the chosen center slice.
    Level 1 is extended outward (the extension of a node consumes the d_a-fold
    levels of its lighter neighbors, which the level-raising rule supplies on
    demand); levels m >= 2 come from the level-raising rule.  A variable is
    determined when its rule's Y-value lies in the table and its
    dependencies are determined; the returned table covers exactly these,
    within d_max slices of the Y window.
    """
    sys = y_table.system
    if sys.restricted:
        raise LevelOutOfRange("reconstruction applies to unrestricted Y-solutions only")
    cm = sys.cm
    lo, hi = y_table.window
    if center is None:
        center = (lo + hi) // 2
    for a in range(cm.r):
        probe = LatticeVar(a, 1, center)
        if probe not in y_table.values:
            raise WindowTooNarrow(probe.label("Y"))
    caps = {a: (sys.max_m_y(a) + 1 if sys.level is not None else
                max(cm.d) + 1) for a in range(cm.r)}
    span = range(lo - max(cm.d), hi + max(cm.d) + 1)
    y_vals = y_table.values

    def rule(var):
        a, m, k = var
        if k not in span or not 1 <= m <= caps[a]:
            return None
        da = cm.d[a]
        if m == 1:
            sign = 1 if k >= center + da else -1
            kc = k - sign * da
            y1 = y_vals.get(LatticeVar(a, 1, kc))
            if y1 is None:
                return None
            coupling = t_relation(sys, a, 1, kc).term_m
            opposite = LatticeVar(a, 1, k - 2 * sign * da)

            def solve(value):
                product = factor_product(value, coupling)
                far = value(opposite)
                if y1 == 0 or far == 0:
                    raise ZeroDivisor(f"degenerate extension at {var.label()}")
                return (1 + 1 / y1) * product / far
        else:
            ym = y_vals.get(LatticeVar(a, m - 1, k))
            if ym is None:
                return None

            def solve(value):
                left = value(LatticeVar(a, m - 1, k - da))
                right = value(LatticeVar(a, m - 1, k + da))
                below = Fraction(1) if m == 2 else value(LatticeVar(a, m - 2, k))
                # after the dependencies: an undetermined variable must not raise
                if ym == -1:
                    raise ZeroDivisor(f"1 + Y vanishes under {var.label()}")
                return left * right / ((1 + ym) * below)

        return solve

    free = [LatticeVar(a, 1, k) for a in range(cm.r)
            for k in range(center - cm.d[a], center + cm.d[a])]
    initial = {var: Fraction(1) for var in free} if policy.kind == "unit" else None
    targets = [LatticeVar(a, m, k) for a in range(cm.r)
               for m in range(1, caps[a] + 1) for k in span]
    values = fill_lattice("T", free, targets, rule, rng, policy, initial, partial=True)
    ks = [v.k for v in values]
    meta = {"free_choice": policy.kind, "center": center}
    return ValueTable("T", sys, (min(ks), max(ks)), values, meta)


# ---------------------------------------------------------------------------
# claim identities and the roundtrip
# ---------------------------------------------------------------------------


def claim_identities_check(t_table: ValueTable, y_table: ValueTable) -> List[dict]:
    """Pointwise verification, wherever every factor exists, of

        Y   = M / (T_{m-1} T_{m+1})
        1+Y = T(k-d) T(k+d) / (T_{m-1} T_{m+1})
        1+Y^-1 = T(k-d) T(k+d) / M
    """
    cm = t_table.system.cm
    violations = []
    for var, y in sorted(y_table.values.items()):
        a, m, k = var
        da = cm.d[a]
        below = _t_value(t_table, LatticeVar(a, m - 1, k))
        above = _t_value(t_table, LatticeVar(a, m + 1, k))
        left = _t_value(t_table, LatticeVar(a, m, k - da))
        right = _t_value(t_table, LatticeVar(a, m, k + da))
        coupling = _coupling_value(t_table, a, m, k)
        if None in (below, above, left, right) or coupling is None:
            continue
        pair = left * right
        inner = below * above
        if y != coupling / inner:
            violations.append({"relation": f"value {var.label('Y')}",
                               "lhs": str(y), "rhs": str(coupling / inner)})
        if 1 + y != pair / inner:
            violations.append({"relation": f"one-plus {var.label('Y')}",
                               "lhs": str(1 + y), "rhs": str(pair / inner)})
        if y != 0 and coupling != 0 and 1 + 1 / y != pair / coupling:
            violations.append({"relation": f"one-plus-inverse {var.label('Y')}",
                               "lhs": str(1 + 1 / y), "rhs": str(pair / coupling)})
    return violations


def _relation_holds(y_table: ValueTable, a: int, m: int, k: int) -> bool:
    sys = y_table.system
    top = sys.max_center_m(a, "Y")
    if m < 1 or (top is not None and m > top):
        return False
    rel = y_relation(sys, a, m, k)
    vals = y_table.values
    if any(v not in vals for v in rel.variables()):
        return False
    num, den = _y_rhs(vals.__getitem__, rel)
    return den != 0 and vals[rel.lhs[0]] * vals[rel.lhs[1]] * den == num


def recoverable_region(y_table: ValueTable, recovered: ValueTable) -> List[LatticeVar]:
    """Variables of the input Y-table that the reconstruction provably
    recovers: level 1 wherever the recovered table is defined, and level m
    wherever levels m-1 (shifted), m-2, and the input relation centered one
    level below all cooperate."""
    cm = y_table.system.cm
    good: set = set()
    for var in sorted(recovered.values, key=lambda v: (v.m, v.a, v.k)):
        a, m, k = var
        if var not in y_table.values:
            continue
        if m == 1:
            good.add(var)
            continue
        da = cm.d[a]
        if (LatticeVar(a, m - 1, k - da) in good
                and LatticeVar(a, m - 1, k + da) in good
                and (m == 2 or LatticeVar(a, m - 2, k) in good)
                and _relation_holds(y_table, a, m - 1, k)):
            good.add(var)
    return sorted(good)


def roundtrip_check(y_table: ValueTable, rng=None,
                    policy: FreeChoicePolicy = FreeChoicePolicy(),
                    center: Optional[int] = None):
    """y_to_t followed by t_to_y, compared exactly on the recoverable region.

    Returns (report dict, t_table).  The report counts the compared variables
    and lists mismatches (none expected) plus any claim-identity violations.
    """
    t_table = y_to_t(y_table, rng=rng, policy=policy, center=center)
    recovered, _ = t_to_y(t_table)
    region = recoverable_region(y_table, recovered)
    mismatches = []
    for var in region:
        if recovered.values[var] != y_table.values[var]:
            mismatches.append({"relation": var.label("Y"),
                               "lhs": str(recovered.values[var]),
                               "rhs": str(y_table.values[var])})
    claim = claim_identities_check(t_table, y_table)
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
    stored pair, or None.  Purely empirical."""
    lo, hi = table.window
    for p in range(1, max_period + 1):
        compared = 0
        ok = True
        for var, val in table.values.items():
            other = table.values.get(LatticeVar(var.a, var.m, var.k + p))
            if other is None:
                continue
            compared += 1
            if other != val:
                ok = False
                break
        if ok and compared:
            return p
    return None
