"""Table files and the table store: ValueTable.dump writes the indent=1 JSON
of to_json byte for byte from the ring pairs, the loader reads a value text
exactly as the Decimal route did, and a table keeps one store.  The loader
reads every entry straight to its slot, an entry with other keys than dump
writes included, and the pair that pair_from_text reads, or raises the
one-line message of what is wrong with it, pinned here."""

import functools
import json
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tysys.acceptance import FINITE_TYPE
from tysys.cartan import new_cartan
from tysys.exactmath import fraction_from_text, pair_from_text
from tysys.tsystem import (
    LatticeVar,
    SystemSpec,
    ValueTable,
    propagate_t,
    ring_pair,
    table_from_json,
)
from tysys.ysystem import propagate_y, y_to_t

from tables import table_of

A2 = new_cartan(FINITE_TYPE["A2"])


def assert_dump_matches(table: ValueTable, path):
    """dump writes json.dumps(to_json(), sort_keys=True, indent=1) + newline,
    from the stored pairs and again once values have been read, which makes
    equal pairs share one tuple, and the loader reads the file back to the
    same reduced pairs."""
    table.dump(path)
    written = path.read_bytes()
    assert written == (json.dumps(table.to_json(), sort_keys=True, indent=1) + "\n").encode()
    assert len(table.values) == len(table)
    table.dump(path)
    assert path.read_bytes() == written
    assert table_from_json(json.loads(written), table.system, table.kind).pairs() == table.pairs()


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(FINITE_TYPE))
def test_dump_matches_json_on_every_finite_type(tmp_path, name, level):
    cm = new_cartan(FINITE_TYPE[name])
    sys = SystemSpec(cm, level)
    tables = [propagate_y(sys, (0, 9), rng=random.Random(level))]
    # restricted T-propagation cannot schedule max d = 3 (G2) yet
    if max(cm.d) < 3:
        tables.append(propagate_t(sys, (0, 9), rng=random.Random(level)))
    for table in tables:
        assert_dump_matches(table, tmp_path / "table.json")


def test_dump_matches_json_with_meta(tmp_path):
    sys = SystemSpec(new_cartan(FINITE_TYPE["B3"]), 2, restricted=False)
    t_table = y_to_t(propagate_y(sys, (0, 8), rng=random.Random(4)), rng=random.Random(4))
    assert t_table.meta == {"free_choice": "random", "center": 4}
    assert_dump_matches(t_table, tmp_path / "table.json")


def test_dump_matches_json_on_an_empty_table(tmp_path):
    table = table_of("T", SystemSpec(A2, 2), (0, 3), {})
    assert_dump_matches(table, tmp_path / "table.json")
    assert json.loads((tmp_path / "table.json").read_text())["entries"] == []


def test_dump_matches_json_on_negative_and_long_values(tmp_path):
    # past 4300 digits str() refuses an int, and fraction_to_text writes it
    values = {LatticeVar(0, 1, 0): Fraction(-3, 7), LatticeVar(0, 1, 1): -5,
              LatticeVar(1, 1, 0): Fraction(-(7 ** 6000), 3),
              LatticeVar(1, 1, 1): Fraction(2 ** 20000 + 1, 3 ** 9000)}
    meta = {"center": 0, "notes": [1, {"b": None, "a": "x"}], "empty": {}}
    table = table_of("Y", SystemSpec(A2, 2), (0, 1), values, meta)
    assert_dump_matches(table, tmp_path / "table.json")
    assert max(len(e["value"]) for e in table.to_json()["entries"]) > 2 * 4300


def test_table_keeps_one_store(tmp_path):
    table = propagate_t(SystemSpec(A2, 2), (0, 6), rng=random.Random(1))
    stored = table.pairs()
    table.dump(tmp_path / "table.json")
    assert table.pairs() is stored
    assert len(table) == len(stored) and set(table) == set(stored)
    assert all(var in table for var in stored) and LatticeVar(0, 1, 7) not in table
    values = table.values
    assert {var: ring_pair(v) for var, v in values.items()} == stored
    # equal pairs share one value; here T(1, 1, k + 5) = T(2, 1, k)
    assert len({id(value) for value in values.values()}) == len(set(stored.values())) < len(values)
    # the values are read-only; what is written into the store is what the
    # next reader sees
    var = LatticeVar(0, 1, 3)
    with pytest.raises(TypeError):
        values[var] = Fraction(14, 2)
    stored.store[stored.layout.slot(var)] = (7, 1)
    assert table.get(var) == 7
    table.dump(tmp_path / "table.json")
    entries = json.loads((tmp_path / "table.json").read_text())["entries"]
    assert {"a": 1, "m": 1, "k": 3, "kind": "T", "value": "7"} in entries


_FRACTION_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def decimal_route(text) -> Fraction:
    """The loader's value reader as it read every group through Decimal."""
    match = _FRACTION_TEXT.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(text)
    num, den = (int(Decimal(group or "1")) for group in match.groups())
    if den == 0:
        raise ValueError(text)
    return Fraction(num, den)


def outcome(read, text):
    try:
        return read(text)
    except ValueError:
        return ValueError


VALUE_TEXTS = st.one_of(
    st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True),
    # Arabic-Indic three and fullwidth one are digits to int() and Decimal
    st.text(alphabet="0123456789-/ +_.e٣１", max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(VALUE_TEXTS)
@example(" 2")
@example("+1")
@example("1_000")
@example("٣")
@example("-3/000")
@example("-0/7")
@example("0012/-4")
@example("0012/0004")
@example("7" * 5000 + "/" + "3" * 4400)
def test_fraction_from_text_matches_the_decimal_route(text):
    want = outcome(decimal_route, text)
    got = outcome(fraction_from_text, text)
    assert got == want and type(got) is type(want)
    if want is not ValueError:
        assert pair_from_text(text) == (want.numerator, want.denominator)


# --- the loader: each entry straight to its slot, every check kept --------------------


@functools.cache
def _a2_dump() -> str:
    """The JSON of an A2 level-2 T-table on 0..3: entries for a = 1, 2,
    m = 1 and k = 0..3."""
    return json.dumps(propagate_t(SystemSpec(A2, 2), (0, 3), rng=random.Random(1)).to_json())


def _load(entries):
    """The A2 table of _a2_dump with entries in place of its own."""
    data = dict(json.loads(_a2_dump()), entries=entries)
    return table_from_json(json.loads(json.dumps(data)), SystemSpec(A2, 2), "T")


def _entry(**fields):
    return {"a": 1, "m": 1, "k": 0, "kind": "T", "value": "3/2", **fields}


@pytest.mark.parametrize("entries,message", [
    ([5], "table entry 5 is not an object"),
    ([[1, 1, 0]], "table entry [1, 1, 0] is not an object"),
    ([_entry(kind="Y")], "table mixes kinds 'Y' and 'T'"),
    ([_entry(a=True)], "table entry needs integers a, m and k: {'a': True, 'm': 1, 'k': 0}"),
    ([_entry(m=1.0)], "table entry needs integers a, m and k: {'a': 1, 'm': 1.0, 'k': 0}"),
    ([_entry(k="0")], "table entry needs integers a, m and k: {'a': 1, 'm': 1, 'k': '0'}"),
    ([{"a": 1, "m": 1, "value": "1"}],
     "table entry needs integers a, m and k: {'a': 1, 'm': 1, 'k': None}"),
    ([_entry(a=0)], "T[a=0,m=1,k=0]: node 0 is outside 1..2"),
    ([_entry(a=3)], "T[a=3,m=1,k=0]: node 3 is outside 1..2"),
    ([_entry(m=0)], "T[a=1,m=0,k=0]: level m=0 is outside 1..1"),
    ([_entry(m=2)], "T[a=1,m=2,k=0]: level m=2 is outside 1..1"),
    ([_entry(k=-1)], "T[a=1,m=1,k=-1]: k=-1 is outside the window 0..3"),
    ([_entry(k=4)], "T[a=1,m=1,k=4]: k=4 is outside the window 0..3"),
    ([_entry(), _entry(value="5")], "T[a=1,m=1,k=0] appears twice"),
    ([_entry(value="0")], "T[a=1,m=1,k=0]: zero value"),
    ([_entry(value="-0/7")], "T[a=1,m=1,k=0]: zero value"),
    ([_entry(value="1.5")], "T[a=1,m=1,k=0]: '1.5' is not an integer or a fraction n/d"),
    ([_entry(value="+1")], "T[a=1,m=1,k=0]: '+1' is not an integer or a fraction n/d"),
    ([_entry(value=2)], "T[a=1,m=1,k=0]: 2 is not an integer or a fraction n/d"),
    ([{"a": 1, "m": 1, "k": 0}], "T[a=1,m=1,k=0]: None is not an integer or a fraction n/d"),
    ([_entry(value="1/0")], "T[a=1,m=1,k=0]: '1/0' has a zero denominator"),
], ids=["number", "array", "mixed kind", "bool a", "float m", "text k", "no k", "node 0",
        "node 3", "level 0", "level 2", "k below", "k above", "duplicate", "zero",
        "signed zero", "decimal text", "plus sign", "number value", "no value",
        "zero denominator"])
def test_the_loader_keeps_every_one_line_message(entries, message):
    with pytest.raises(ValueError) as caught:
        _load(entries)
    assert str(caught.value) == message


@pytest.mark.parametrize("entry", [
    {"a": 2, "m": 1, "k": 3, "value": "-4/6"},
    _entry(value="0012/0004", extra=None),
    _entry(value="7" * 5000 + "/" + "3" * 4400),
], ids=["no kind", "extra key, unreduced", "past the digit limit"])
def test_the_loader_reads_entries_that_dump_does_not_write(entry):
    # whatever the entry's form, the slot and the reduced pair of pair_from_text
    table = _load([entry])
    var = LatticeVar(entry["a"] - 1, entry["m"], entry["k"])
    assert dict(table.pairs()) == {var: pair_from_text(entry["value"])}


@settings(max_examples=200, deadline=None)
@given(VALUE_TEXTS)
@example("7" * 5000 + "/" + "3" * 4400)
def test_the_loader_reads_a_value_as_pair_from_text_does(text):
    want = outcome(pair_from_text, text)
    got = outcome(lambda text: dict(_load([_entry(value=text)]).pairs()), text)
    if want is ValueError or not want[0]:
        assert got is ValueError
    else:
        assert got == {LatticeVar(0, 1, 0): want}

