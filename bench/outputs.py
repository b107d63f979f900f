"""Canonical fingerprints and sizes of operation outputs.

A Fraction is hashed as the bytes of its numerator and denominator, never
through str(), which refuses integers past 4300 digits.  A symbolic value
(rational function, semifield element, Laurent polynomial) is hashed through
its exact value at one fixed rational point, so that two equal values with
different representatives hash alike.  The point does not depend on the run
seed: the cluster workloads take no random input, and their digests are
compared against one stored baseline.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from tysys.cluster import SequenceResult
from tysys.exactmath import LaurentPoly, RationalFunction, SemifieldElement
from tysys.tsystem import ValueTable

SYMBOLIC = (LaurentPoly, RationalFunction, SemifieldElement)


class _Point(dict):
    """Assignment that covers every generator name, each mapped to a
    positive rational drawn from a generator seeded by the name."""

    def __contains__(self, name):
        return True

    def __missing__(self, name):
        rng = random.Random(f"fingerprint-point:{name}")
        value = Fraction(rng.randint(1, 1 << 30), rng.randint(1, 1 << 30))
        self[name] = value
        return value


_POINT = _Point()


def _int_bytes(n: int) -> bytes:
    return n.to_bytes((n.bit_length() + 8) // 8, "big", signed=True)


def _feed(h, value):
    if isinstance(value, bool) or value is None:
        h.update(b"b" + repr(value).encode())
    elif isinstance(value, int):
        raw = _int_bytes(value)
        h.update(b"i" + len(raw).to_bytes(8, "big") + raw)
    elif isinstance(value, Fraction):
        h.update(b"q")
        _feed(h, value.numerator)
        _feed(h, value.denominator)
    elif isinstance(value, str):
        raw = value.encode()
        h.update(b"s" + len(raw).to_bytes(8, "big") + raw)
    elif isinstance(value, bytes):
        h.update(b"y" + len(value).to_bytes(8, "big") + value)
    elif isinstance(value, SYMBOLIC):
        h.update(b"e")
        _feed(h, value.evaluate(_POINT))
    elif isinstance(value, (list, tuple)):
        h.update(b"l" + len(value).to_bytes(8, "big"))
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        h.update(b"d" + len(value).to_bytes(8, "big"))
        for key in sorted(value):
            _feed(h, key)
            _feed(h, value[key])
    elif isinstance(value, ValueTable):
        _feed(h, ["table", value.kind, list(value.window), value.values])
    elif isinstance(value, SequenceResult):
        _feed(h, ["sequence", list(value.u_range), value.x, value.y])
    else:
        raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()[:12]


def _leaves(value):
    """Numbers and symbolic values inside nested outputs."""
    if isinstance(value, (Fraction, *SYMBOLIC)):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _leaves(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _leaves(item)
    elif isinstance(value, ValueTable):
        yield from value.values.values()
    elif isinstance(value, SequenceResult):
        yield from value.x.values()
        yield from value.y.values()


def _polys(value):
    if isinstance(value, LaurentPoly):
        return (value,)
    return (value.num, value.den)


def sizes(value):
    """(largest numerator/denominator bit length, largest term count) over
    every number produced.  A rational counts as one term; a symbolic value
    counts the bits of its coefficients and the terms of its expanded
    numerator and denominator."""
    bits = terms = 0
    for leaf in _leaves(value):
        if isinstance(leaf, Fraction):
            bits = max(bits, abs(leaf.numerator).bit_length(),
                       leaf.denominator.bit_length())
            terms = max(terms, 1)
            continue
        for poly in _polys(leaf):
            terms = max(terms, len(poly.terms))
            for coeff in poly.terms.values():
                bits = max(bits, abs(coeff.numerator).bit_length(),
                           coeff.denominator.bit_length())
    return bits, terms
