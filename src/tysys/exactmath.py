"""Exact arithmetic kernel.

Arbitrary-precision rationals (``fractions.Fraction``), sparse multivariate
Laurent polynomials, rational functions, and subtraction-free semifield
elements, together with evaluation homomorphisms and a JSON expression format.

Coefficient rule: a Laurent polynomial stores an integral coefficient as a
Python ``int`` and any other as a ``Fraction`` with denominator > 1, so the
integer coefficients of cluster variables and F-polynomials never pay for
``Fraction`` construction and its gcd.  Coefficients are divided only through
``exact_div``, which gives an int when the divisor divides, else a Fraction;
``/`` on two ints would give a float.

Lowest terms without a gcd: ``coprime_fraction(n, d)`` builds the Fraction
n / d of two coprime ints through ``Fraction(rational)``, the public
one-argument constructor, which copies the numerator and denominator of a
``numbers.Rational`` as they are (the ``numbers.Rational`` contract has them
in lowest terms, the denominator positive).  The lattice solves build their
values this way, since their factors cross-cancel into lowest terms by
construction; ``Fraction(n, d)`` would run a second full gcd on values of
up to 170k bits.

Reduction policy: rational functions and semifield elements are reduced by
integer content and by a common monomial factor.  Solved lattice values and
cluster entries are further reduced by exact division
(``RationalFunction.reduced``), so a quotient that is a Laurent polynomial
is stored as one, with denominator 1.  Full polynomial gcd is deliberately
not implemented; equality is decided by cross-multiplication, which is exact
for any choice of representatives.  Semifield elements keep an internal
factored form so that long mutation sequences cancel repeated factors
syntactically instead of snowballing.  Nothing here discovers factors: the
coefficients of a mutation sequence get their factored form from the
seed's F-polynomials (``cluster.mutate_seed`` hands each mutated
coefficient its atoms through ``set_one_plus``), and any other successor is
the generic ``one_plus()``, (N + D)/D with N + D kept whole.

Derived semifield values are built once and kept on the value, never in a
table keyed by value.  ``inv()`` of a semifield element returns a twin whose
own ``inv()`` is the original, and the twins share their expansions (the
twin's num is the original's den); a rational function builds its inverse
afresh on every call.  ``one_plus()`` keeps its result.

Cost rules: monomial arithmetic and exponent scans run through C builtins
rather than per-exponent Python loops: monomial sums and differences are
``tuple(map(operator.add / sub, ...))``, heap keys ``map(operator.neg,
...)``, exponent minima and the constructor's used-generator scan go
column by column over ``zip(*terms)``, and a remap onto more generators is
one ``operator.itemgetter`` over the monomial with a 0 appended.  The unit
and zero polynomials are shared (``LaurentPoly.one()`` and ``zero()``
return one instance each; polynomials are immutable, and no operation
writes into an operand's terms).  A unit denominator is not folded: the
pair comes back as it went in.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import math
import numbers
import re
from decimal import Decimal
from fractions import Fraction
from operator import add, itemgetter, neg, sub
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    DivisionByZeroPoly,
    EvalDivisionByZero,
    InverseOfZero,
)

Rational = Union[int, Fraction]

_NAT_SPLIT = re.compile(r"(\d+)")


# memoised: a few generator names are sorted on every construction
@functools.cache
def _natural_key(name: str):
    return tuple(int(p) if p.isdigit() else p for p in _NAT_SPLIT.split(name))


def _grlex_key(mono: tuple) -> tuple:
    return (sum(mono), mono)


def _heap_entry(mono: tuple) -> tuple:
    """Min-heap entry whose order is descending graded lex order."""
    return (-sum(mono), tuple(map(neg, mono)), mono)


def _coefficient(value: Rational) -> Rational:
    """The canonical coefficient of value: an int when it is integral, else
    a Fraction with denominator > 1."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def exact_div(a: Rational, b: Rational) -> Rational:
    """a / b as a canonical coefficient: int divmod when b divides a, else a
    Fraction.  The one division of coefficients; a / b of two ints would
    give a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coefficient(a / b)


class _LowestTerms:
    """A numerator and a positive denominator already in lowest terms, as a
    numbers.Rational for Fraction(rational) to copy."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator, self.denominator = numerator, denominator


numbers.Rational.register(_LowestTerms)


def coprime_fraction(n: int, d: int) -> Fraction:
    """n / d as a Fraction without a gcd, for coprime ints n and d (d
    nonzero): the sign is moved to the numerator, and Fraction(rational)
    copies the pair.  Coprime inputs are the caller's promise; nothing here
    checks them."""
    if d < 0:
        n, d = -n, -d
    return Fraction(_LowestTerms(n, d))


class LaurentPoly:
    """Sparse multivariate Laurent polynomial over rational coefficients.

    Instances are immutable and canonical: unused generators are pruned,
    generators are kept in natural name order, and zero coefficients are never
    stored, so ``==`` and ``hash`` are structural.  A coefficient is an
    ``int`` when it is integral and a ``Fraction`` with denominator > 1
    otherwise, never a float and never an integral ``Fraction``; coefficients
    are divided only through ``exact_div``.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Rational]):
        clean = {}
        for mono, coeff in terms.items():
            c = coeff if type(coeff) is int else _coefficient(coeff)
            if c:
                clean[tuple(mono)] = c
        variables = tuple(variables)
        used = [i for i, col in enumerate(zip(*clean)) if any(col)]
        if len(used) != len(variables) or list(variables) != sorted(variables, key=_natural_key):
            kept = sorted(((variables[i], i) for i in used), key=lambda p: _natural_key(p[0]))
            variables = tuple(name for name, _ in kept)
            idx = [i for _, i in kept]
            clean = {tuple(m[i] for i in idx): c for m, c in clean.items()}
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: Rational) -> "LaurentPoly":
        return LaurentPoly((), {(): value})

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def gen(name: str) -> "LaurentPoly":
        return LaurentPoly((name,), {(1,): 1})

    @staticmethod
    def monomial(coeff: Rational, powers: Mapping[str, int]) -> "LaurentPoly":
        names = tuple(sorted(powers, key=_natural_key))
        return LaurentPoly(names, {tuple(powers[n] for n in names): coeff})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        # without generators the only possible monomial is ()
        return not self.vars and self.terms.get(()) == 1

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def has_positive_coeffs(self) -> bool:
        return all(c > 0 for c in self.terms.values())

    def has_nonnegative_exponents(self) -> bool:
        return all(all(e >= 0 for e in m) for m in self.terms)

    # -- alignment ---------------------------------------------------------

    def _remap(self, names: tuple) -> dict:
        """The terms with exponent vectors over names, a sorted superset of
        vars: each name's exponent, read at the appended 0 where self lacks
        it."""
        if self.vars == names:
            return self.terms
        at = {v: i for i, v in enumerate(self.vars)}
        pick = itemgetter(*(at.get(v, len(at)) for v in names))
        if len(names) == 1:  # itemgetter of one index gives a scalar
            return {(pick(m + (0,)),): c for m, c in self.terms.items()}
        return {pick(m + (0,)): c for m, c in self.terms.items()}

    def _aligned(self, other: "LaurentPoly"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        names = tuple(sorted(set(self.vars) | set(other.vars), key=_natural_key))
        return names, self._remap(names), other._remap(names)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        names, a, b = self._aligned(other)
        out = dict(a)
        for m, c in b.items():
            out[m] = out.get(m, 0) + c
        return LaurentPoly(names, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        # a unit factor: polynomials are immutable and canonical, so the
        # product is the other factor itself
        if type(other) is int and other == 1:
            return self
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_one():
            return self
        if self.is_one():
            return other
        names, a, b = self._aligned(other)
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(map(add, ma, mb))
                out[m] = out.get(m, 0) + ca * cb
        return LaurentPoly(names, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n == 0:
            return LaurentPoly.one()
        if n < 0:
            if not self.is_monomial():
                raise ValueError("negative power of a non-monomial Laurent polynomial")
            ((m, c),) = self.terms.items()
            inv = LaurentPoly(self.vars, {tuple(-e for e in m): exact_div(1, c)})
            return inv ** (-n)
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive; 0 for the zero poly."""
        if not self.terms:
            return Fraction(0)
        cs = self.terms.values()
        return Fraction(math.gcd(*(c.numerator for c in cs)),
                        math.lcm(*(c.denominator for c in cs)))

    def min_exponents(self) -> dict:
        return dict(zip(self.vars, map(min, zip(*self.terms))))

    def mul_monomial(self, coeff: Rational, powers: Mapping[str, int]) -> "LaurentPoly":
        """self * coeff * prod v^e: every exponent is shifted, so no two terms
        can merge and no product is formed."""
        coeff = _coefficient(coeff)
        names = tuple(sorted(set(self.vars) | {v for v, e in powers.items() if e},
                             key=_natural_key))
        shift = [powers.get(v, 0) for v in names]
        return LaurentPoly(names, {tuple(map(add, m, shift)): c * coeff
                                   for m, c in self._remap(names).items()})

    def leading(self):
        """(monomial, coefficient) for the graded lexicographic order."""
        mono = max(self.terms, key=_grlex_key)
        return mono, self.terms[mono]

    def evaluate(self, assignment: Mapping[str, Rational]) -> Fraction:
        total = Fraction(0)
        vals = []
        for v in self.vars:
            if v not in assignment:
                raise KeyError(f"assignment missing generator {v!r}")
            vals.append(Fraction(assignment[v]))
        for mono, coeff in self.terms.items():
            term = coeff
            for val, e in zip(vals, mono):
                if e < 0 and val == 0:
                    raise EvalDivisionByZero(f"0**{e} while evaluating")
                term *= val ** e
            total += term
        return total

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.vars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[mono]
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, mono)
                if e
            ]
            if not factors:
                parts.append(str(coeff))
                continue
            body = "*".join(factors)
            if coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"LaurentPoly({self})"


_ZERO = LaurentPoly((), {})
_ONE = LaurentPoly((), {(): 1})


def _as_poly(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly.constant(value)
    return NotImplemented


def gens(*names: str) -> tuple:
    """Generator polynomials for the given names."""
    return tuple(LaurentPoly.gen(n) for n in names)


def laurent_divide_exact(p: LaurentPoly, q: LaurentPoly) -> Optional[LaurentPoly]:
    """p/q when q divides p in the Laurent ring, else None.

    Monomial factors are units here, so both operands are first shifted to
    ordinary polynomials; divisibility is then decided by single-divisor
    multivariate division with remainder under the graded lex order.

    The remainder's leading monomial comes from a heap with lazy deletion:
    an entry whose monomial has left the remainder is skipped.  Each step
    only touches monomials below the one it cancels, so a cancelled leading
    monomial never returns.

    A quotient that cannot exist is mostly rejected before any division:
    by Gauss's lemma, q | p makes the primitive part of q, evaluated at 1,
    divide that of p.
    """
    if q.is_zero():
        raise DivisionByZeroPoly("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero()
    at_p, at_q = (Fraction(sum(f.terms.values())) / f.content() for f in (p, q))
    if (at_p % at_q if at_q else at_p) != 0:
        return None
    names, a, b = p._aligned(q)
    shift_a = tuple(map(min, zip(*a)))
    shift_b = tuple(map(min, zip(*b)))
    a = {tuple(map(sub, m, shift_a)): c for m, c in a.items()}
    b = {tuple(map(sub, m, shift_b)): c for m, c in b.items()}
    lead_b = max(b, key=_grlex_key)
    cb = b[lead_b]
    quotient = {}
    rem = dict(a)
    heap = [_heap_entry(m) for m in rem]
    heapq.heapify(heap)
    while rem:
        lead = heapq.heappop(heap)[2]
        if lead not in rem:
            continue
        diff = tuple(map(sub, lead, lead_b))
        if any(e < 0 for e in diff):
            return None
        coeff = exact_div(rem[lead], cb)
        quotient[diff] = coeff
        for mb, c in b.items():
            m = tuple(map(add, diff, mb))
            if m not in rem:
                rem[m] = -coeff * c
                heapq.heappush(heap, _heap_entry(m))
                continue
            nv = rem[m] - coeff * c
            if nv:
                rem[m] = nv
            else:
                del rem[m]
    back = {v: sa - sb for v, sa, sb in zip(names, shift_a, shift_b) if sa != sb}
    result = LaurentPoly(names, quotient)
    if back:
        result = result.mul_monomial(1, back)
    return result


class RationalFunction:
    """Quotient of Laurent polynomials, reduced by content and monomial only.

    A monomial denominator is folded into the numerator (monomials are units
    of the Laurent ring), so fully Laurent values always carry denominator 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = None, _reduced=False):
        if den is None:
            den = LaurentPoly.one()
        if den.is_zero():
            raise DivisionByZeroPoly("rational function with zero denominator")
        if not _reduced:
            num, den = _reduce_pair(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def gen(name: str) -> "RationalFunction":
        return RationalFunction(LaurentPoly.gen(name))

    @staticmethod
    def constant(value: Rational) -> "RationalFunction":
        return RationalFunction(LaurentPoly.constant(value))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_rf(other) - self

    def __mul__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "RationalFunction":
        if self.is_zero():
            raise InverseOfZero("inverse of the zero rational function")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return _as_rf(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    def reduced(self) -> "RationalFunction":
        """Attempt the exact Laurent division num/den; fall back to self."""
        if self.den.is_one():
            return self
        q = laurent_divide_exact(self.num, self.den)
        if q is None:
            return self
        return RationalFunction(q)

    def evaluate(self, assignment: Mapping[str, Rational]) -> Fraction:
        d = self.den.evaluate(assignment)
        if d == 0:
            raise EvalDivisionByZero("denominator vanishes at the assignment")
        return self.num.evaluate(assignment) / d

    def __eq__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def _as_rf(value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalFunction.constant(value)
    if isinstance(value, LaurentPoly):
        return RationalFunction(value)
    return NotImplemented


def _reduce_pair(num: LaurentPoly, den: LaurentPoly):
    """Joint content + common monomial reduction; monomial dens are folded,
    and a unit den is kept as it is, with num."""
    if num.is_zero():
        return LaurentPoly.zero(), LaurentPoly.one()
    if den.is_one():
        return num, den
    if den.is_monomial():
        ((mono, coeff),) = den.terms.items()
        powers = {v: -e for v, e in zip(den.vars, mono) if e}
        return num.mul_monomial(exact_div(1, coeff), powers), LaurentPoly.one()
    c_num, c_den = num.content(), den.content()
    g = Fraction(math.gcd(c_num.numerator * c_den.denominator,
                          c_den.numerator * c_num.denominator),
                 c_num.denominator * c_den.denominator)
    if g not in (0, 1):
        scale = LaurentPoly.constant(exact_div(1, g))
        num, den = num * scale, den * scale
    mins_n = num.min_exponents()
    mins_d = den.min_exponents()
    shared = {}
    for v in set(mins_n) & set(mins_d):
        e = min(mins_n[v], mins_d[v])
        if e:
            shared[v] = -e
    if shared:
        num = num.mul_monomial(1, shared)
        den = den.mul_monomial(1, shared)
    if den.leading()[1] < 0:
        num, den = -num, -den
    return num, den


# ---------------------------------------------------------------------------
# semifield
# ---------------------------------------------------------------------------


def _split_side(poly: LaurentPoly):
    """(coeff, powers, factors) of one side of a semifield quotient: the
    positive content, the monomial part, and what is left as one factor
    (none when that is 1)."""
    if poly.is_zero() or not poly.has_positive_coeffs():
        raise ValueError("semifield polynomials must be nonzero with positive coefficients")
    coeff = poly.content()
    powers = {v: e for v, e in poly.min_exponents().items() if e}
    if coeff != 1 or powers:
        poly = poly.mul_monomial(exact_div(1, coeff), {v: -e for v, e in powers.items()})
    return coeff, powers, {} if poly.is_one() else {poly: 1}


class SemifieldElement:
    """Element of the universal semifield: a subtraction-free rational value.

    Internally a positive rational coefficient, a (Laurent) monomial part, and
    a multiset of positive polynomial factors with integer exponents.  The
    factored form is what lets iterated mutations cancel; the public num/den
    view expands it back to the contract shape (positive coefficients,
    nonnegative exponents).

    An element keeps what it derives: its expansions, its inverse twin and
    its successor 1 + self.
    """

    __slots__ = ("_coeff", "_powers", "_factors", "_num", "_den", "_inv",
                 "_one_plus")

    def __init__(self, coeff: Fraction, powers: Mapping[str, int],
                 factors: Mapping[LaurentPoly, int]):
        if coeff <= 0:
            raise ValueError("semifield coefficient must be positive")
        object.__setattr__(self, "_coeff", coeff)
        object.__setattr__(self, "_powers", {v: e for v, e in powers.items() if e})
        object.__setattr__(self, "_factors", {f: e for f, e in factors.items() if e})
        for slot in ("_num", "_den", "_inv", "_one_plus"):
            object.__setattr__(self, slot, None)

    def __setattr__(self, name, value):
        raise AttributeError("SemifieldElement is immutable")

    def _keep(self, slot: str, value, twin_slot: str):
        """Store a derived value, and on the inverse twin (if built) under
        the slot it has there."""
        object.__setattr__(self, slot, value)
        if self._inv is not None:
            object.__setattr__(self._inv, twin_slot, value)
        return value

    # -- constructors ------------------------------------------------------

    @staticmethod
    def gen(name: str) -> "SemifieldElement":
        return SemifieldElement(Fraction(1), {name: 1}, {})

    @staticmethod
    def from_fraction(value: Rational) -> "SemifieldElement":
        return SemifieldElement(Fraction(value), {}, {})

    @staticmethod
    def from_num_den(num: LaurentPoly, den: LaurentPoly) -> "SemifieldElement":
        if not (num.has_nonnegative_exponents() and den.has_nonnegative_exponents()):
            raise ValueError("semifield num/den require nonnegative exponents")
        (coeff, powers, factors), (cd, pd, fd) = _split_side(num), _split_side(den)
        for v, e in pd.items():
            powers[v] = powers.get(v, 0) - e
        for f, e in fd.items():
            factors[f] = factors.get(f, 0) - e
        return SemifieldElement(coeff / cd, powers, factors)

    # -- expansion ---------------------------------------------------------

    def _expand_side(self, positive: bool) -> LaurentPoly:
        coeff = self._coeff.numerator if positive else self._coeff.denominator
        powers = {v: abs(e) for v, e in self._powers.items()
                  if (e > 0) == positive and e}
        poly = LaurentPoly.monomial(coeff, powers)
        for f, e in self._factors.items():
            if (e > 0) == positive and e:
                poly = poly * f ** abs(e)
        return poly

    @property
    def num(self) -> LaurentPoly:
        if self._num is None:
            self._keep("_num", self._expand_side(True), "_den")
        return self._num

    @property
    def den(self) -> LaurentPoly:
        if self._den is None:
            self._keep("_den", self._expand_side(False), "_num")
        return self._den

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        other = _as_sf(other)
        if other is NotImplemented:
            return NotImplemented
        powers = dict(self._powers)
        for v, e in other._powers.items():
            powers[v] = powers.get(v, 0) + e
        factors = dict(self._factors)
        for f, e in other._factors.items():
            factors[f] = factors.get(f, 0) + e
        return SemifieldElement(self._coeff * other._coeff, powers, factors)

    __rmul__ = __mul__

    def inv(self) -> "SemifieldElement":
        """1/self, built once.  The twin's inv() is self; twin.num is
        self.den and twin.den is self.num, whichever side expands first."""
        if self._inv is None:
            twin = SemifieldElement(1 / self._coeff,
                                    {v: -e for v, e in self._powers.items()},
                                    {f: -e for f, e in self._factors.items()})
            for slot, value in (("_inv", self), ("_num", self._den),
                                ("_den", self._num)):
                object.__setattr__(twin, slot, value)
            object.__setattr__(self, "_inv", twin)
        return self._inv

    def __truediv__(self, other):
        other = _as_sf(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return _as_sf(other) / self

    def __pow__(self, n: int):
        if n == 0:
            return SemifieldElement.from_fraction(1)
        return SemifieldElement(self._coeff ** n,
                                {v: n * e for v, e in self._powers.items()},
                                {f: n * e for f, e in self._factors.items()})

    def one_plus(self) -> "SemifieldElement":
        """1 + self = (num + den) / den, built once unless set_one_plus gave
        it."""
        if self._one_plus is None:
            object.__setattr__(self, "_one_plus",
                               SemifieldElement.from_num_den(self.num + self.den, self.den))
        return self._one_plus

    def set_one_plus(self, atoms: Iterable[LaurentPoly]) -> None:
        """Give 1 + self as the product of atoms over den, and 1 + 1/self as
        (1 + self) / self on the inverse twin, replacing any successor either
        holds.  The atoms' product must be num + den; that is the caller's
        promise, and nothing here divides or checks it.  den is read off the
        negative part of the factored form, and unit atoms are dropped."""
        factors = {f: e for f, e in self._factors.items() if e < 0}
        for atom in atoms:
            if not atom.is_one():
                factors[atom] = factors.get(atom, 0) + 1
        succ = SemifieldElement(Fraction(1, self._coeff.denominator),
                                {v: e for v, e in self._powers.items() if e < 0}, factors)
        object.__setattr__(self, "_one_plus", succ)
        object.__setattr__(self.inv(), "_one_plus", succ * self.inv())

    def __add__(self, other):
        other = _as_sf(other)
        if other is NotImplemented:
            return NotImplemented
        num = self.num * other.den + other.num * self.den
        return SemifieldElement.from_num_den(num, self.den * other.den)

    __radd__ = __add__

    def evaluate(self, assignment: Mapping[str, Rational]) -> Fraction:
        value = self._coeff
        for v, e in self._powers.items():
            x = Fraction(assignment[v])
            if x == 0 and e < 0:
                raise EvalDivisionByZero(f"0**{e} while evaluating")
            value *= x ** e
        for f, e in self._factors.items():
            x = f.evaluate(assignment)
            if x == 0 and e < 0:
                raise EvalDivisionByZero("factor vanishes at the assignment")
            value *= x ** e
        return value

    def __eq__(self, other):
        """Equal factored forms prove equality at once; equal values need not
        share a factored form, so otherwise cross-multiply."""
        other = _as_sf(other)
        if other is NotImplemented:
            return NotImplemented
        if (self._coeff == other._coeff and self._powers == other._powers
                and self._factors == other._factors):
            return True
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __str__(self):
        d = self.den
        if d.is_one():
            return str(self.num)
        return f"({self.num}) / ({d})"

    def __repr__(self):
        return f"SemifieldElement({self})"


def _as_sf(value):
    if isinstance(value, SemifieldElement):
        return value
    if isinstance(value, (int, Fraction)):
        return SemifieldElement.from_fraction(value)
    return NotImplemented


def one_plus(value):
    """1 + value in the appropriate structure (semifield, rational, function)."""
    if isinstance(value, SemifieldElement):
        return value.one_plus()
    return 1 + value


def inverse(value):
    """Multiplicative inverse for Fraction, RationalFunction, or SemifieldElement."""
    if isinstance(value, (RationalFunction, SemifieldElement)):
        return value.inv()
    if value == 0:
        raise InverseOfZero("inverse of zero")
    return 1 / Fraction(value)


def evaluate(expr, assignment: Mapping[str, Rational]) -> Fraction:
    """Evaluation homomorphism into the rationals."""
    if isinstance(expr, (int, Fraction)):
        return Fraction(expr)
    return expr.evaluate(assignment)


# the bound 2^8 of random numerators and denominators
_RANDOM_TOP = 1 << 8


def random_nonzero_rational(rng) -> Fraction:
    """Uniform num in [-2^8, 2^8] without 0, den in [1, 2^8]; a missing rng
    raises ValueError."""
    if rng is None:
        raise ValueError("a random nonzero rational draws its values from rng, "
                         "but rng is None")
    num = 0
    while num == 0:
        num = rng.randint(-_RANDOM_TOP, _RANDOM_TOP)
    return Fraction(num, rng.randint(1, _RANDOM_TOP))


def random_positive_rational(rng) -> Fraction:
    """Uniform num and den in [1, 2^8]."""
    return Fraction(rng.randint(1, _RANDOM_TOP), rng.randint(1, _RANDOM_TOP))


# ---------------------------------------------------------------------------
# JSON expression format
# ---------------------------------------------------------------------------

_FRACTION_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def fraction_to_text(value: Rational) -> str:
    """'n' or 'n/d', as str(Fraction) writes it, at any length.

    str() and int() refuse integers past the interpreter's digit limit;
    Decimal converts integers of any length and writes an integral Decimal
    with its plain digits.
    """
    value = Fraction(value)
    num, den = (str(Decimal(n)) for n in (value.numerator, value.denominator))
    return num if den == "1" else f"{num}/{den}"


def value_text(value) -> str:
    """str(value) for a violation record, except that a rational with a
    numerator or denominator past 1000 bits is written as its larger bit
    length and a sha256 prefix of its fraction_to_text."""
    if isinstance(value, (int, Fraction)):
        bits = max(abs(value.numerator).bit_length(), value.denominator.bit_length())
        if bits > 1000:
            digest = hashlib.sha256(fraction_to_text(value).encode()).hexdigest()
            return f"<{bits}-bit rational, sha256 {digest[:12]}>"
    return str(value)


def pair_from_text(text) -> tuple:
    """The reduced pair (n, d), d > 0, of a text that fraction_to_text
    writes, with one gcd; ValueError for anything else.

    The pattern admits ASCII digits only, so int() reads every group it
    matches; it refuses a group past the interpreter's digit limit, which
    Decimal reads instead."""
    match = _FRACTION_TEXT.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"{_clipped(text)} is not an integer or a fraction n/d")
    groups = match.groups("1")
    try:
        num, den = int(groups[0]), int(groups[1])
    except ValueError:  # past the digit limit
        num, den = (int(Decimal(group)) for group in groups)
    if den == 0:
        raise ValueError(f"{_clipped(text)} has a zero denominator")
    g = math.gcd(num, den)
    return num // g, den // g


def fraction_from_text(text) -> Fraction:
    """Inverse of fraction_to_text; ValueError for anything else."""
    return coprime_fraction(*pair_from_text(text))


def _clipped(value) -> str:
    shown = repr(value)
    return shown if len(shown) <= 40 else shown[:37] + "..."


def _poly_terms_json(poly: LaurentPoly, names: Sequence[str]):
    pos = {n: i for i, n in enumerate(names)}
    rows = []
    for mono, coeff in poly.terms.items():
        full = [0] * len(names)
        for v, e in zip(poly.vars, mono):
            full[pos[v]] = e
        rows.append([str(coeff), full])
    rows.sort(key=lambda r: r[1])
    return rows

def expr_to_json(expr) -> dict:
    """Dump a RationalFunction or SemifieldElement as num/den term lists."""
    num, den = expr.num, expr.den
    names = sorted(set(num.vars) | set(den.vars), key=_natural_key)
    return {
        "num": _poly_terms_json(num, names),
        "den": _poly_terms_json(den, names),
        "vars": list(names),
    }

