"""Skew-symmetrizable exchange matrices, seed mutation with exact clusters and
semifield coefficients, the alternating parity-class mutation sequence, and
the verification layer tying those sequences back to the lattice T- and
Y-systems (including the bipartite Cartan construction and the square
product).

Index conventions match the rest of the package: 0-based in the API, 1-based
in files and serialized output.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .cartan import (
    CartanMatrix,
    a_type_rows,
    bipartite_double,
    bipartition,
    is_simply_laced,
    minimal_symmetrizer,
    new_cartan,
    parse_matrix_text,
)
from .errors import (
    ConditionsViolated,
    InverseOfZero,
    LevelOutOfRange,
    NoParity,
    NotBipartite,
    NotSimplyLaced,
    NotSymmetrizable,
)
from .exactmath import (
    LaurentPoly,
    RationalFunction,
    SemifieldElement,
    inverse,
    laurent_divide_exact,
    one_plus,
    random_positive_rational,
)
from .tsystem import (
    LatticeVar,
    Layout,
    Runs,
    SlotStore,
    SystemSpec,
    TRelation,
    check_relations,
    reduced_value,
    ring_pair,
    t_relation,
)
from .ysystem import YRelation, map_t_to_y, mapped_points

SYMBOLIC_STEP_LIMIT = 14
SYMBOLIC_RANK_LIMIT = 10


@dataclass(frozen=True)
class ExchangeMatrix:
    """Skew-symmetrizable integer matrix, its minimal skew-symmetrizer, an
    optional parity split (+1/-1 per node), and display labels."""

    b: tuple
    d: tuple
    parity: Optional[tuple] = None
    labels: tuple = ()

    @property
    def n(self) -> int:
        return len(self.b)

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.b[i][j]

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i + 1)

    def rows(self) -> list:
        return [list(row) for row in self.b]

    def require_parity(self) -> tuple:
        if self.parity is None:
            raise NoParity("operation needs a parity split")
        return self.parity

    def plus_nodes(self) -> list:
        return [i for i, s in enumerate(self.require_parity()) if s > 0]

    def minus_nodes(self) -> list:
        return [i for i, s in enumerate(self.require_parity()) if s < 0]


def new_exchange_matrix(entries: Sequence[Sequence[int]], parity=None,
                        labels=()) -> ExchangeMatrix:
    rows = [tuple(int(v) for v in row) for row in entries]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("exchange matrix must be square")
    for i in range(n):
        if rows[i][i] != 0:
            raise NotSymmetrizable("nonzero diagonal entry")
        for j in range(n):
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise NotSymmetrizable(f"zero pattern broken at ({i + 1},{j + 1})")
            if rows[i][j] * rows[j][i] > 0:
                raise NotSymmetrizable(f"entries at ({i + 1},{j + 1}) must have opposite signs")

    # d_i B_ij = -d_j B_ji, propagated over the support graph
    d = minimal_symmetrizer(rows, "skew-symmetrizer")
    for i in range(n):
        for j in range(n):
            if d[i] * rows[i][j] != -d[j] * rows[j][i]:
                raise NotSymmetrizable("DB is not skew-symmetric")
    if parity is not None:
        parity = tuple(parity)
        if len(parity) != n or any(s not in (1, -1) for s in parity):
            raise ValueError("parity must assign +1/-1 to every node")
    return ExchangeMatrix(tuple(rows), d, parity, tuple(labels))


def mutate_matrix(em: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation at node k; involutive and skew-symmetrizer preserving."""
    n = em.n
    if not 0 <= k < n:
        raise IndexError(f"mutation index {k} out of range 0..{n - 1}")
    b = em.b
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == k or j == k:
                row.append(-b[i][j])
            else:
                row.append(b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2)
        out.append(tuple(row))
    return replace(em, b=tuple(out))


def check_b1(em: ExchangeMatrix) -> bool:
    """Every nonzero entry joins the two parity classes."""
    parity = em.require_parity()
    return all(parity[i] != parity[j]
               for i in range(em.n) for j in range(em.n) if em[i, j])


def composed_mutation(em: ExchangeMatrix, nodes: Sequence[int]) -> ExchangeMatrix:
    out = em
    for k in nodes:
        out = mutate_matrix(out, k)
    return out


def check_b2(em: ExchangeMatrix) -> bool:
    """Both composed parity-class mutations negate the matrix."""
    em.require_parity()
    neg = tuple(tuple(-v for v in row) for row in em.b)
    return (composed_mutation(em, em.plus_nodes()).b == neg
            and composed_mutation(em, em.minus_nodes()).b == neg)


def check_bb(em: ExchangeMatrix) -> bool:
    """Bilinear reformulation of check_b2: for i, j in the same class the
    positive-path and negative-path weights through the other class agree."""
    parity = em.require_parity()
    for i in range(em.n):
        for j in range(em.n):
            if parity[i] != parity[j]:
                continue
            pos = sum(em[i, k] * em[k, j] for k in range(em.n)
                      if em[i, k] > 0 and em[k, j] > 0)
            neg = sum(em[i, k] * em[k, j] for k in range(em.n)
                      if em[i, k] < 0 and em[k, j] < 0)
            if pos != neg:
                return False
    return True


def _bipartition(cm: CartanMatrix) -> tuple:
    """cm's own bipartition (cartan.bipartition), the lowest node of each
    component in the + class; NotBipartite where its graph has an odd
    cycle."""
    parity = bipartition(cm)
    if parity is None:
        raise NotBipartite("adjacency graph has an odd cycle")
    return parity


def b_of_c(cm: CartanMatrix) -> ExchangeMatrix:
    """Exchange matrix of a bipartite Cartan matrix on its own bipartition:
    -C on (+,-) entries, +C on (-,+) entries, zero elsewhere.  Every edge
    joins unlike parities, so the entry at an edge is -p_i C_ij."""
    parity = _bipartition(cm)
    rows = [[-parity[i] * cm[i, j] if cm[i, j] < 0 else 0 for j in range(cm.r)]
            for i in range(cm.r)]
    return new_exchange_matrix(rows, parity)


def square_product(cm: CartanMatrix, cm2: CartanMatrix) -> ExchangeMatrix:
    """Square product of two bipartite Cartan matrices on the pair index set,
    with the alternating orientation around every unit square.  Pairs are
    flattened first-index-major; the pair (i, i') is in the + class when the
    two matrices' own bipartitions agree on it.  The orientation is two sign
    rules, for C_ij < 0 and C'_i'j' < 0 (edges, which join unlike parities):

        B[(i,i'), (j,i')] =  p_i p'_i' C_ij
        B[(i,i'), (i,j')] = -p_i p'_i' C'_i'j'
    """
    parity, parity2 = _bipartition(cm), _bipartition(cm2)
    r, r2 = cm.r, cm2.r

    def flat(i, ip):
        return i * r2 + ip

    n = r * r2
    rows = [[0] * n for _ in range(n)]
    for i in range(r):
        for ip in range(r2):
            sign, row = parity[i] * parity2[ip], rows[flat(i, ip)]
            for j in range(r):
                if cm[i, j] < 0:
                    row[flat(j, ip)] = sign * cm[i, j]
            for jp in range(r2):
                if cm2[ip, jp] < 0:
                    row[flat(i, jp)] = -sign * cm2[ip, jp]
    pair_parity = tuple(parity[i] * parity2[ip]
                        for i in range(r) for ip in range(r2))
    labels = tuple(f"{i + 1}.{ip + 1}" for i in range(r) for ip in range(r2))
    em = new_exchange_matrix(rows, pair_parity, labels)
    if not (check_b1(em) and check_bb(em)):
        raise ConditionsViolated("square product failed its own conditions")
    return em


# ---------------------------------------------------------------------------
# seeds and mutation sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Seed:
    """Exchange matrix with a cluster x, a coefficient tuple y and the
    F-polynomials f of the coefficients.  Symbolic seeds carry rational
    functions, semifield elements and one F-polynomial (a LaurentPoly) per
    node, so that y_j = y^{c_j} prod_i F_i^{B_ij} (Fomin-Zelevinsky IV,
    Prop. 3.13) is each coefficient's factored form.  Numeric seeds carry
    plain Fractions (positive for y) and f = None.  A cluster-only seed has
    y = None and f = None."""

    matrix: ExchangeMatrix
    x: tuple
    y: Optional[tuple]
    f: Optional[tuple] = None


def initial_seed(em: ExchangeMatrix, numeric=False, rng=None) -> Seed:
    """The seed of generators x_i, y_i and F_i = 1, or, when numeric, of
    random positive Fractions drawn from rng."""
    if numeric:
        if rng is None:
            raise ValueError("a numeric seed draws its values from rng, but rng is None")
        x = tuple(random_positive_rational(rng) for _ in range(em.n))
        y = tuple(random_positive_rational(rng) for _ in range(em.n))
        return Seed(em, x, y)
    x = tuple(RationalFunction.gen(f"x{i + 1}") for i in range(em.n))
    y = tuple(SemifieldElement.gen(f"y{i + 1}") for i in range(em.n))
    return Seed(em, x, y, tuple(LaurentPoly.one() for _ in range(em.n)))


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Seed mutation at node k: the standard exchange relations for the
    cluster entry and the coefficient tuple, then the matrix flips.  The two
    exchange relations never read each other, so a cluster-only seed
    (y = None) skips the coefficients.

    A seed with F-polynomials first takes the new F_k' = (num(y_k) +
    den(y_k)) / F_k, an exact division (Fomin-Zelevinsky IV, Prop. 5.1),
    and hands y_k the atoms F_k, F_k' of its successors
    (SemifieldElement.set_one_plus).  The coefficient rule then writes every
    new y_i over the new F-polynomials, and F_k cancels.  A seed without
    them (f = None) mutates its semifield y through the generic
    SemifieldElement.one_plus."""
    em = seed.matrix
    n = em.n
    if not 0 <= k < n:
        raise IndexError(f"mutation index {k} out of range 0..{n - 1}")
    xk = seed.x[k]
    if isinstance(xk, Fraction) and xk == 0:
        raise InverseOfZero("cluster entry is zero")
    plus = Fraction(1)
    minus = Fraction(1)
    for j in range(n):
        bjk = em[j, k]
        if bjk > 0:
            plus = plus * seed.x[j] ** bjk
        elif bjk < 0:
            minus = minus * seed.x[j] ** (-bjk)
    new_xk = (plus + minus) * inverse(xk)
    if isinstance(new_xk, RationalFunction):
        new_xk = new_xk.reduced()
    x = tuple(new_xk if i == k else v for i, v in enumerate(seed.x))
    if seed.y is None:
        return Seed(mutate_matrix(em, k), x, None)

    yk, f = seed.y[k], seed.f
    if f is not None:
        fk = laurent_divide_exact(yk.num + yk.den, f[k])
        if fk is None:
            raise ArithmeticError(f"F-polynomial of node {em.label(k)} does not divide "
                                  "num + den of its coefficient")
        yk.set_one_plus((f[k], fk))
        f = tuple(fk if i == k else v for i, v in enumerate(f))
    # an unchanged coefficient is kept as the same object, so the inverse and
    # successor it has built travel with it
    y = []
    for i, yi in enumerate(seed.y):
        bki = em[k, i]
        if i == k:
            y.append(inverse(yk))
        elif bki > 0:
            y.append(yi * one_plus(inverse(yk)) ** (-bki))
        elif bki < 0:
            y.append(yi * one_plus(yk) ** (-bki))
        else:
            y.append(yi)
    return Seed(mutate_matrix(em, k), x, tuple(y), f)


def mutate_seed_composed(seed: Seed, nodes: Sequence[int]) -> Seed:
    for k in nodes:
        seed = mutate_seed(seed, k)
    return seed


@dataclass
class SequenceResult:
    """Clusters x_i(u) and coefficients y_i(u) along the alternating
    parity-class mutation sequence, with x(0), y(0) the initial seed.  A
    cluster-only sequence has y = None."""

    matrix: ExchangeMatrix
    u_range: Tuple[int, int]
    x: Dict[Tuple[int, int], object] = field(default_factory=dict)
    y: Optional[Dict[Tuple[int, int], object]] = field(default_factory=dict)
    mode: str = "symbolic"

    def require_y(self, reader: str) -> dict:
        if self.y is None:
            raise ValueError(f"{reader} reads the coefficients y, but the "
                             "sequence was run cluster-only (y is None)")
        return self.y

    def to_json(self) -> dict:
        from .exactmath import expr_to_json, fraction_to_text

        y = self.require_y("to_json")
        text = fraction_to_text if self.mode == "numeric" else expr_to_json

        def dump(values):
            return {f"({i + 1},{u})": text(val) for (i, u), val in sorted(values.items())}

        return {
            "matrix": self.matrix.rows(),
            "parity": list(self.matrix.parity),
            "u_range": list(self.u_range),
            "mode": self.mode,
            "x": dump(self.x),
            "y": dump(y),
        }


def run_sequence(em: ExchangeMatrix, u_range, mode: str = "auto",
                 rng=None, coefficients: bool = True) -> SequenceResult:
    """Walk the alternating sequence: from even u the composed + mutation
    steps right, from odd u the composed - mutation; stepping left uses the
    involutivity of the same maps.  The matrix alternates between B and -B.

    Symbolic arithmetic is used up to moderate sizes; beyond
    SYMBOLIC_STEP_LIMIT steps or SYMBOLIC_RANK_LIMIT nodes the run switches
    to numeric (random positive initial values) with a warning.

    coefficients=False runs the clusters alone: the seeds carry y = None and
    the result's y is None.  The clusters and the random draws are those of
    the full run.
    """
    parity = em.require_parity()
    if not (check_b1(em) and check_b2(em)):
        raise ConditionsViolated("matrix must satisfy the parity conditions")
    lo, hi = int(u_range[0]), int(u_range[1])
    if lo > 0 or hi < 0 or lo > hi:
        raise ValueError("u range must contain 0")
    if mode == "auto":
        steps = hi - lo
        if steps > SYMBOLIC_STEP_LIMIT or em.n > SYMBOLIC_RANK_LIMIT:
            warnings.warn(
                f"sequence of {steps} steps at rank {em.n} exceeds the symbolic "
                "budget; switching to numeric verification", stacklevel=2)
            mode = "numeric"
        else:
            mode = "symbolic"
    plus, minus = em.plus_nodes(), em.minus_nodes()
    start = initial_seed(em, numeric=(mode == "numeric"), rng=rng)
    result = SequenceResult(em, (lo, hi), y={} if coefficients else None,
                            mode=mode)
    if not coefficients:
        start = replace(start, y=None, f=None)

    def record(u, seed):
        for i in range(em.n):
            result.x[(i, u)] = seed.x[i]
            if coefficients:
                result.y[(i, u)] = seed.y[i]

    record(0, start)
    seed = start
    for u in range(0, hi):
        seed = mutate_seed_composed(seed, plus if u % 2 == 0 else minus)
        record(u + 1, seed)
    seed = start
    for u in range(0, lo, -1):
        seed = mutate_seed_composed(seed, minus if u % 2 == 0 else plus)
        record(u - 1, seed)
    return result


# ---------------------------------------------------------------------------
# verification of sequences
# ---------------------------------------------------------------------------


def _parity_sign(em: ExchangeMatrix, i: int, u: int) -> int:
    return em.parity[i] * (1 if u % 2 == 0 else -1)


def _parity_violations(seq: SequenceResult, name: str, values: dict, step: int,
                       partner) -> List[dict]:
    """values_i(u) equals partner(values_i(u + step)) on the + parity class
    and partner(values_i(u - step)) on the -."""
    em = seq.matrix
    lo, hi = seq.u_range
    violations = []
    for (i, u), val in sorted(values.items()):
        other = u + step * _parity_sign(em, i, u)
        if lo <= other <= hi and not val == partner(values[(i, other)]):
            violations.append({"relation": f"{name}[{em.label(i)}]({u}) vs ({other})"})
    return violations


def check_x_parity(seq: SequenceResult) -> List[dict]:
    """x_i(u) equals x_i(u-1) on the + parity class and x_i(u+1) on the -."""
    return _parity_violations(seq, "x", seq.x, -1, lambda x: x)


def check_y_parity(seq: SequenceResult) -> List[dict]:
    """y_i(u) equals y_i(u+1)^-1 on the + parity class and y_i(u-1)^-1 on the -."""
    return _parity_violations(seq, "y", seq.require_y("check_y_parity"), 1, inverse)


def _node(i: int, u: int = 0) -> LatticeVar:
    """Cluster node i at time u (the level-2 identification)."""
    return LatticeVar(i, 1, u)


def _factors(em: ExchangeMatrix, i: int, sign: int) -> tuple:
    """(node j, |B_ji|) at u = 0 for the j with sign * B_ji > 0, j ascending."""
    return tuple((_node(j), abs(em[j, i])) for j in range(em.n) if sign * em[j, i] > 0)


def _tb_relations(em: ExchangeMatrix) -> List[TRelation]:
    """T(B) of every node i as a lattice relation centred at u = 0:
    x_i(u-1) x_i(u+1) = prod_{B_ji>0} x_j(u)^{B_ji} + prod_{B_ji<0} x_j(u)^{-B_ji}."""
    return [TRelation(_node(i), (_node(i, -1), _node(i, 1)),
                      _factors(em, i, 1), _factors(em, i, -1)) for i in range(em.n)]


def _yb_relations(em: ExchangeMatrix, eps: int) -> List[YRelation]:
    """Y^eps(B) of every node i as a lattice relation centred at u = 0: the
    (1 + y_j) factors are the j with eps parity_i B_ji > 0, the (1 + y_j^-1)
    factors those with eps parity_i B_ji < 0."""
    parity = em.require_parity()
    return [YRelation(_node(i), (_node(i, -1), _node(i, 1)),
                      _factors(em, i, eps * parity[i]), _factors(em, i, -eps * parity[i]))
            for i in range(em.n)]


def _at(var) -> Tuple[int, int]:
    """The key (node, u) of a cluster family at the lattice variable, or
    (a, m, k) key, var of the level-2 identification (_node)."""
    return var[0], var[2]


def _check(relations, values: dict, label) -> List[dict]:
    """check_relations on a cluster family of values kept by (node, u): the
    values laid on the slots the relations read, None where the family
    lacks one, and read by key for the value route."""
    return check_relations(relations, lambda var: ring_pair(values.get(_at(var))),
                           lambda var: values[_at(var)], label)


def _label(em: ExchangeMatrix, prefix: str):
    return lambda rel: f"{prefix} at ({em.label(rel.center.a)},{rel.center.k})"


def check_tb(seq: SequenceResult) -> List[dict]:
    """The cluster family satisfies the exchange-matrix T-system of
    seq.matrix at every interior point: x_i(u-1) x_i(u+1) =
    prod_{B_ji>0} x_j(u)^{B_ji} + prod_{B_ji<0} x_j(u)^{-B_ji}."""
    em = seq.matrix
    lo, hi = seq.u_range
    rels = Runs((rel, range(lo + 1, hi)) for rel in _tb_relations(em))
    return _check(rels, seq.x, _label(em, "T(B)"))


def check_yb(seq: SequenceResult, eps: int) -> List[dict]:
    """The coefficient family satisfies the sign-eps Y-system of seq.matrix
    on its parity class: centers are the (i, u) of the opposite class, so
    that every variable in the relation lies in the class being checked."""
    em = seq.matrix
    lo, hi = seq.u_range
    y = seq.require_y("check_yb")
    rels = Runs((rel, [u for u in range(lo + 1, hi) if _parity_sign(em, i, u) == -eps])
                for i, rel in enumerate(_yb_relations(em, eps)))
    return _check(rels, y, _label(em, f"Y{'+' if eps > 0 else '-'}(B)"))


def _mapped_exponents_agree(stencils: List[YRelation]) -> List[bool]:
    """Per Y(B) stencil: whether the mapped relation is a monomial identity
    in the T-atoms (node, time offset).  Both sides are written as exponent
    vectors after substituting Y_i = coupling_i / inner_i on the left, and
    1 + Y_j = pair_j / inner_j, 1 + Y_j^-1 = pair_j / coupling_j on the right
    (pair_j = T_j(-1) T_j(+1)).  The answer depends on B and the parity
    only, so it holds or fails for every shift of the stencil at once."""

    def add(vec, factors, shift, times):
        for var, exp in factors:
            key = (var.a, var.k + shift)
            vec[key] = vec.get(key, 0) + times * exp

    def pair(j):
        return tuple((var, 1) for var in stencils[j].lhs)

    agree = []
    for rel in stencils:
        lhs: Dict[Tuple[int, int], int] = {}
        rhs: Dict[Tuple[int, int], int] = {}
        for var in rel.lhs:
            add(lhs, stencils[var.a].numerator, var.k, 1)
            add(lhs, stencils[var.a].denominator, var.k, -1)
        for var, exp in rel.numerator:
            add(rhs, pair(var.a), var.k, exp)
            add(rhs, stencils[var.a].denominator, var.k, -exp)
        for var, exp in rel.denominator:
            add(rhs, pair(var.a), var.k, -exp)
            add(rhs, stencils[var.a].numerator, var.k, exp)
        agree.append({key: e for key, e in lhs.items() if e}
                     == {key: e for key, e in rhs.items() if e})
    return agree


def t_to_y_b(t_values: Dict[Tuple[int, int], object], em: ExchangeMatrix,
             eps: int = 1):
    """Map a T(B) solution to Y_i(u) = prod_j T_j(u)^{+-B_ji} (sign from the
    parity of i, flipped for eps = -1) and verify both companion identities
    and the resulting sign-eps Y-system.

    This is the lattice map ysystem.map_t_to_y read through the level-2
    identification: each node's Y(B) stencil is a T-relation with its
    denominator list first (inner) and its numerator list second
    (coupling), read as one run over the u range of t_values, and t_values
    is laid on the slots they read.  Y = coupling / inner is computed at
    every point and written by slot into a store of the n nodes over the u
    range, the pairs that the mapped Y(B) relations at interior u read in
    place, and the values returned are built from them.  At
    each interior point the companion identities are checked exactly in
    their T(B) form, inner + coupling == pair (ysystem.companions_hold), and
    compared as values only where that fails.  A shifted mapped Y(B) relation
    is established without values when its stencil's exponent vectors agree
    (_mapped_exponents_agree) and the T(B) form failed at none of its
    numerator and denominator points, each of which, at an interior u, has
    a pair and was checked.  Both sides are then the same Laurent monomial
    in the T-atoms, and its denominators, the inner and coupling products,
    are nonzero there, so the relation holds.  Every other mapped relation
    goes through check_relations.

    Returns (y_values, violations).
    """
    stencils = _yb_relations(em, eps)
    us = [u for _, u in t_values]
    lo, hi = min(us), max(us)

    def pair(key):
        """The ring pair of T_i(u) at the (i, 1, u) key inside the u range (a
        hole raises KeyError), None outside."""
        return ring_pair(t_values[_at(key)]) if lo <= key[2] <= hi else None

    forms = Runs((TRelation(rel.center, rel.lhs, rel.denominator, rel.numerator),
                  range(lo, hi + 1)) for rel in stencils)
    layout = Layout([_node(i)[:2] for i in range(em.n)], lo, hi)
    pairs, violations, failed = map_t_to_y(
        mapped_points(forms, pair), lambda rel: f"at ({em.label(rel.center.a)},{rel.center.k})",
        SlotStore(layout), under="")
    y_values = {_at(var): reduced_value(*y) for var, y in pairs.items()}
    agree = _mapped_exponents_agree(stencils)
    rels = []
    for i, stencil in enumerate(stencils):
        # the slots of the stencil's factors at u = 0, read u slices later
        slots = [layout.slot(var) for var, _ in stencil.numerator + stencil.denominator]
        rels.append((stencil, [u for u in range(lo + 1, hi) if not agree[i] or any(
            j + u * layout.size in failed for j in slots)]))
    violations += check_relations(Runs(rels), pairs, lambda var: y_values[_at(var)],
                                  _label(em, f"mapped Y{'+' if eps > 0 else '-'}(B)"))
    return y_values, violations


def laurent_check(seq: SequenceResult) -> List[dict]:
    """Every cluster entry is a Laurent polynomial in the initial cluster,
    certified by exact division of numerator by denominator.  A numeric
    sequence holds no polynomials to certify: it raises ValueError."""
    if seq.mode == "numeric":
        raise ValueError("laurent_check certifies symbolic cluster entries, but the "
                         "sequence was run in numeric mode")
    violations = []
    for (i, u), val in sorted(seq.x.items()):
        if val.den.is_one():
            continue
        if laurent_divide_exact(val.num, val.den) is None:
            violations.append({"relation": f"x[{seq.matrix.label(i)}]({u}) not Laurent"})
    return violations


def sequence_checks(seq: SequenceResult) -> Dict[str, List[dict]]:
    """The eight checks of an alternating sequence, by label, in order: both
    parities, T(B), Y+(B), Y-(B), the Laurent certificates and the T -> Y(B)
    map of both signs.  A numeric sequence has no Laurent certificates to
    check, so "Laurent" is left out of its seven."""
    em = seq.matrix
    return {
        "x parity": check_x_parity(seq),
        "y parity": check_y_parity(seq),
        "T(B)": check_tb(seq),
        "Y+(B)": check_yb(seq, 1),
        "Y-(B)": check_yb(seq, -1),
        **({} if seq.mode == "numeric" else {"Laurent": laurent_check(seq)}),
        "T-to-Y +": t_to_y_b(seq.x, em, 1)[1],
        "T-to-Y -": t_to_y_b(seq.x, em, -1)[1],
    }


# ---------------------------------------------------------------------------
# correspondence with the restricted lattice systems
# ---------------------------------------------------------------------------


def exchange_matrix_for_level(cm: CartanMatrix, level: int) -> ExchangeMatrix:
    """B(C) at level 2; the square product with the path matrix of rank
    level-1 (odd path nodes in the + class) at level >= 3."""
    if level < 2:
        raise LevelOutOfRange(f"the exchange matrix needs level >= 2, got {level}")
    if level == 2:
        return b_of_c(cm)
    return square_product(cm, new_cartan(a_type_rows(level - 1)))


# the slices u at which correspondence_check compares values
CORRESPONDENCE_WINDOW = (-4, 4)


def _doubling_map(r: int):
    def node(b: int, m: int, v: int) -> int:
        return b if (m + 1 + v) % 2 == 0 else r + b

    return node


def _read_through(rel: TRelation, node) -> tuple:
    """A lattice relation read through an identification: its left-hand side
    and both factor lists, in order, each variable v read as node(v) and
    each list sorted."""
    return (tuple(map(node, rel.lhs)),
            *(tuple(sorted((node(v), e) for v, e in terms))
              for terms in (rel.term_a, rel.term_m)))


def _double_relation_bijection(cm: CartanMatrix, doubled: CartanMatrix,
                               level: int) -> List[dict]:
    """Relations of the restricted system of a nonbipartite simply laced
    matrix map one-to-one onto the alternating-class relations of its
    bipartite double.  The doubling map depends on u only through
    (m + 1 + u) mod 2, so the first two slices of CORRESPONDENCE_WINDOW
    stand for all."""
    sys_c = SystemSpec(cm, level)
    sys_d = SystemSpec(doubled, level)
    node = _doubling_map(cm.r)

    def double(v):
        return LatticeVar(node(v.a, v.m, v.k), v.m, v.k)

    lo = CORRESPONDENCE_WINDOW[0]
    violations = []
    for a in range(cm.r):
        for m in range(1, level):
            for u in (lo, lo + 1):
                # the twin is centred at the node of its left-hand side
                twin = t_relation(sys_d, node(a, m, u + 1), m, u)
                if _read_through(t_relation(sys_c, a, m, u), double) \
                        != (twin.lhs, twin.term_a, twin.term_m):
                    violations.append({"relation": f"double mismatch at "
                                                   f"(a={a + 1},m={m},u={u})"})
    return violations


def correspondence_check(cm: CartanMatrix, level: int, rng=None) -> dict:
    """The restricted-system / cluster-sequence dictionary for a simply laced
    matrix, as two statements, under the identification of cell (a, m)
    with node a (level - 1) + m - 1 of the exchange matrix B, k kept:

    1. Relation level: every restricted lattice T-stencil, read through
       the identification, is the T(B) stencil of its node: the same
       left-hand side and the same two factor lists.  Both families are
       these stencils shifted by u, so one comparison per cell covers
       every slice.
    2. Value level: the clusters of a cluster-only run_sequence over the
       window padded by one slice (the check never reads y) solve T(B) at
       every node and u of CORRESPONDENCE_WINDOW (check_tb), in exact
       symbolic arithmetic.  By 1 these centres are the lattice centres,
       so the clusters, pulled back through the identification, solve the
       restricted T-system there.  A symbolic run draws nothing from rng.

    Nonbipartite input is routed through the bipartite double first, with
    the extra relation-level bijection check.
    """
    if not is_simply_laced(cm):
        raise NotSimplyLaced("the correspondence applies to simply laced matrices")
    original = cm
    routed = bipartition(cm) is None
    if routed:
        cm, _ = bipartite_double(cm)
    em = exchange_matrix_for_level(cm, level)
    violations = _double_relation_bijection(original, cm, level) if routed else []
    sys_c = SystemSpec(cm, level)
    tb = _tb_relations(em)

    def node(v):
        return _node(v.a * (level - 1) + v.m - 1, v.k)

    for a in range(cm.r):
        for m in range(1, level):
            lhs, *lists = _read_through(t_relation(sys_c, a, m, 0), node)
            twin = tb[node(LatticeVar(a, m, 0)).a]
            if lhs != twin.lhs or set(lists) != {twin.term_a, twin.term_m}:
                violations.append({"relation": f"relation mismatch at (a={a + 1},m={m})"})
    lo, hi = CORRESPONDENCE_WINDOW
    violations += check_tb(run_sequence(em, (lo - 1, hi + 1), mode="symbolic", rng=rng,
                                        coefficients=False))
    return {
        "pass": not violations,
        "violations": violations,
        "routed_through_double": routed,
        "exchange_size": em.n,
    }


# ---------------------------------------------------------------------------
# file format and test-data helpers
# ---------------------------------------------------------------------------


def read_exchange_file(path) -> ExchangeMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        rows, parity = parse_matrix_text(fh.read())
    return new_exchange_matrix(rows, parity)


def random_parity_exchange(rng, n: int) -> ExchangeMatrix:
    """Random skew-symmetrizable matrix respecting a random parity split
    (entries only between the classes); not generally mutation-compatible."""
    while True:
        parity = tuple(rng.choice((1, -1)) for _ in range(n))
        if n == 1 or len(set(parity)) == 2:
            break
    d = [rng.choice((1, 1, 2, 3)) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if parity[i] == parity[j]:
                continue
            s = rng.randint(-2, 2)
            rows[i][j] = d[j] * s
            rows[j][i] = -d[i] * s
    return new_exchange_matrix(rows, parity)


def seven_node_example() -> ExchangeMatrix:
    """Rank-7 skew-symmetric matrix outside both standard families, with
    two double arrows into a hub; satisfies the parity conditions for
    I+ = {2, 3} (1-based)."""
    pos = {(2, 1): 2, (1, 3): 2, (3, 4): 1, (3, 5): 1, (3, 6): 1, (3, 7): 1,
           (4, 2): 1, (5, 2): 1, (6, 2): 1, (7, 2): 1}
    rows = [[0] * 7 for _ in range(7)]
    for (i, j), v in pos.items():
        rows[i - 1][j - 1] = v
        rows[j - 1][i - 1] = -v
    parity = tuple(1 if i in (1, 2) else -1 for i in range(7))
    return new_exchange_matrix(rows, parity)
