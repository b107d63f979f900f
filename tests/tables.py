"""Tables of chosen values, for the tests that build a table by hand or
inject a fault into one.

A table is its store of ring pairs, and its values are a read-only view of
that store, so a test writes what it wants a table to hold through table_of:
the ring pair of each value at its slot of the store that the loader lays
for the same kind, system and window (table_store).
"""

from tysys.tsystem import ValueTable, ring_pair, table_store


def table_of(kind, sys, window, values, meta=None):
    """A kind table of sys on window holding values, {var: value}; a value
    None leaves its slot empty, so that {**table.values, var: None} is the
    table with a hole at var.  A value without a ring pair raises
    TypeError, and a variable outside the store's layout KeyError."""
    pairs = table_store(sys, kind, window)
    layout = pairs.layout
    for var, value in values.items():
        a, m, k = var
        if (a, m) not in layout.cell or not layout.lo <= k <= layout.hi:
            raise KeyError(f"{var} lies outside the layout of a {kind} table on {window}")
        got = None if value is None else ring_pair(value)
        if got is None and value is not None:
            raise TypeError(f"{value!r} has no ring pair")
        pairs.store[layout.slot(var)] = got
    return ValueTable(kind, sys, window, pairs, meta)
