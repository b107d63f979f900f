"""Generalized Cartan matrices: validation, symmetrizers, lacing classification,
bipartitions, and the bipartite double construction.

Node indices are 0-based throughout the Python API; the text file format and
all serialized output use 1-based node numbering.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .errors import (
    AlreadyBipartite,
    Disconnected,
    NotGeneralizedCartan,
    NotSimplyLaced,
    NotSymmetrizable,
)


@dataclass(frozen=True)
class CartanMatrix:
    """Validated generalized Cartan matrix with its minimal symmetrizer.

    d is the unique positive integer symmetrizer that is componentwise minimal
    (gcd 1 on every connected component), t = lcm(d), and t_a = t / d_a.
    Instances are immutable and safe to share between workers.
    """

    entries: tuple
    d: tuple
    t: int
    t_a: tuple
    _adj: tuple = field(repr=False, compare=False)

    @property
    def r(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i][j]

    def neighbors(self, a: int) -> tuple:
        return self._adj[a]

    def rows(self) -> list:
        return [list(row) for row in self.entries]

    @cached_property
    def tamely_laced(self) -> bool:
        """is_tamely_laced, evaluated once per matrix."""
        return is_tamely_laced(self)


def new_cartan(entries: Sequence[Sequence[int]]) -> CartanMatrix:
    """Validate the axioms and compute the minimal symmetrizer by graph
    traversal, propagating d_j / d_i = C_ij / C_ji along adjacency edges."""
    rows = [tuple(int(v) for v in row) for row in entries]
    r = len(rows)
    if r == 0 or any(len(row) != r for row in rows):
        raise NotGeneralizedCartan("matrix must be square and nonempty")
    for i in range(r):
        if rows[i][i] != 2:
            raise NotGeneralizedCartan(f"diagonal entry C[{i + 1}][{i + 1}] != 2")
        for j in range(r):
            if i == j:
                continue
            if rows[i][j] > 0:
                raise NotGeneralizedCartan(f"positive off-diagonal entry C[{i + 1}][{j + 1}]")
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise NotGeneralizedCartan(
                    f"zero pattern not symmetric at ({i + 1},{j + 1})")

    adj = tuple(tuple(j for j in range(r) if j != i and rows[i][j] < 0)
                for i in range(r))

    d = minimal_symmetrizer(rows, "symmetrizer")

    for i in range(r):
        for j in range(r):
            if d[i] * rows[i][j] != d[j] * rows[j][i]:
                raise NotSymmetrizable("DC is not symmetric")

    t = math.lcm(*d)
    return CartanMatrix(tuple(rows), d, t, tuple(t // v for v in d), adj)


def a_type_rows(rank: int) -> list:
    """Rows of the Cartan matrix of type A_rank (the path on rank nodes)."""
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
             for j in range(rank)] for i in range(rank)]


def minimal_symmetrizer(rows, what: str) -> tuple:
    """Minimal positive integers d (gcd 1 on every connected component) with
    d_j / d_i = |M_ij| / |M_ji| along the nonzero off-diagonal entries of the
    square matrix rows, found by graph traversal; inconsistent ratios raise
    NotSymmetrizable.  The caller checks the symmetry it needs."""
    r = len(rows)
    ratio: list = [None] * r
    d = [0] * r
    for root in range(r):
        if ratio[root] is not None:
            continue
        ratio[root] = Fraction(1)
        component = [root]
        queue = deque([root])
        while queue:
            i = queue.popleft()
            for j in range(r):
                if j == i or rows[i][j] == 0:
                    continue
                rij = ratio[i] * Fraction(abs(rows[i][j]), abs(rows[j][i]))
                if ratio[j] is None:
                    ratio[j] = rij
                    component.append(j)
                    queue.append(j)
                elif ratio[j] != rij:
                    raise NotSymmetrizable(
                        f"inconsistent {what} ratios around node {j + 1}")
        scale = math.lcm(*(ratio[i].denominator for i in component))
        ints = [int(ratio[i] * scale) for i in component]
        g = math.gcd(*ints)
        for i, v in zip(component, ints):
            d[i] = v // g
    return tuple(d)


def is_simply_laced(cm: CartanMatrix) -> bool:
    return all(cm[i, j] in (0, -1)
               for i in range(cm.r) for j in range(cm.r) if i != j)


def is_tamely_laced(cm: CartanMatrix) -> bool:
    """True iff every entry C_ij < -1 forces d_i = 1 and C_ji = -1."""
    for i in range(cm.r):
        for j in range(cm.r):
            if i != j and cm[i, j] < -1:
                if cm.d[i] != 1 or cm[j, i] != -1:
                    return False
    return True


def is_connected(cm: CartanMatrix) -> bool:
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in cm.neighbors(i):
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == cm.r


def bipartition(cm: CartanMatrix) -> Optional[tuple]:
    """2-coloring of the adjacency graph as a tuple of +1/-1, or None if an
    odd cycle exists.  The lowest-index node of each component is colored +1."""
    color = [0] * cm.r
    for root in range(cm.r):
        if color[root]:
            continue
        color[root] = 1
        queue = deque([root])
        while queue:
            i = queue.popleft()
            for j in cm.neighbors(i):
                if color[j] == 0:
                    color[j] = -color[i]
                    queue.append(j)
                elif color[j] == color[i]:
                    return None
    return tuple(color)


def bipartite_double(cm: CartanMatrix):
    """Double a simply laced, nonbipartite, connected matrix into a bipartite
    one on nodes {a+} + {a-}.

    Layout: a+ = a and a- = r + a.  Entries: 2 on the diagonal, C_ij between
    i+ and j- for i != j, zero otherwise; the (i+, i-) pairs stay unconnected,
    matching the doubled adjacency graph.  Returns the new matrix together
    with the a -> (a+, a-) index map.
    """
    if not is_simply_laced(cm):
        raise NotSimplyLaced("bipartite double requires a simply laced matrix")
    if bipartition(cm) is not None:
        raise AlreadyBipartite("matrix is already bipartite")
    if not is_connected(cm):
        raise Disconnected("bipartite double requires a connected matrix")
    r = cm.r
    size = 2 * r
    out = [[0] * size for _ in range(size)]
    for a in range(size):
        out[a][a] = 2
    for i in range(r):
        for j in range(r):
            if i != j and cm[i, j] < 0:
                out[i][r + j] = cm[i, j]
                out[r + i][j] = cm[i, j]
    index_map = tuple((a, r + a) for a in range(r))
    return new_cartan(out), index_map


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def parse_matrix_text(text: str):
    """Parse the matrix text format: first the size r, then r rows of r
    integers; '#' starts a comment; an optional '+: i j ...' line (1-based)
    declares a parity split.  Returns (rows, parity_or_None)."""
    rows = []
    plus: Optional[set] = None
    r = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("+:"):
            plus = {int(tok) for tok in line[2:].split()}
            continue
        values = [int(tok) for tok in line.split()]
        if r is None:
            if len(values) != 1:
                raise ValueError("first data line must contain the size r alone")
            r = values[0]
        else:
            rows.append(values)
    if r is None or len(rows) != r or any(len(row) != r for row in rows):
        raise ValueError("matrix text does not contain r rows of r integers")
    parity = None
    if plus is not None:
        if not plus <= set(range(1, r + 1)):
            raise ValueError("parity line lists nodes outside 1..r")
        parity = tuple(1 if i + 1 in plus else -1 for i in range(r))
    return rows, parity


def format_matrix_text(rows: Sequence[Sequence[int]], parity=None) -> str:
    lines = [str(len(rows))]
    lines += [" ".join(str(v) for v in row) for row in rows]
    if parity is not None:
        lines.append("+: " + " ".join(str(i + 1) for i, s in enumerate(parity) if s > 0))
    return "\n".join(lines) + "\n"


def read_cartan_file(path) -> CartanMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        rows, _ = parse_matrix_text(fh.read())
    return new_cartan(rows)
