import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tysys
from tysys.cli import build_parser, main, parse_window

A2_TEXT = "2\n2 -1\n-1 2\n"
A1_TEXT = "1\n2\n"
MIXED44_TEXT = "# rank 4, one triple and two double bonds\n4\n" \
               "2 -1 0 0\n-3 2 -2 -2\n0 -1 2 -1\n0 -1 -1 2\n"
BA2_TEXT = "2\n0 1\n-1 0\n+: 1\n"
CYCLE3_TEXT = "3\n2 -1 -1\n-1 2 -1\n-1 -1 2\n"
BA3_TEXT = "3\n0 1 0\n-1 0 -1\n0 1 0\n+: 1 3\n"
BA2XBA2_TEXT = "4\n0 1 -1 0\n-1 0 0 1\n1 0 0 -1\n0 -1 1 0\n+: 1 4\n"


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.txt"
    path.write_text(A2_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_parse_window():
    assert parse_window("0..8") == (0, 8)
    assert parse_window("-4..12") == (-4, 12)


def test_parser_is_built_once(a2_file, capsys):
    # main reuses the parser; a parse leaves nothing behind for the next one
    assert build_parser() is build_parser()
    assert run_cli(capsys, "sys", "gen-t", a2_file, "--level", "2")[0] == 0
    assert run_cli(capsys, "sys", "gen-y", a2_file, "--level", "2", "--window", "0..3")[0] == 0
    assert build_parser().parse_args(["cartan", "check", a2_file]).seed == 0


def usage_error(capsys, *argv):
    """The one stderr line of a command that must exit 2 and print nothing."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    return lines[0]


@pytest.mark.parametrize("window", ["0", "a..b", "1..2..3"])
def test_malformed_window_is_a_usage_error(a2_file, capsys, window):
    with pytest.raises(ValueError):
        parse_window(window)
    line = usage_error(capsys, "sys", "gen-t", a2_file, "--level", "2", "--window", window)
    assert line == f"tysys: window must be LO..HI with integer bounds, got {window!r}"


def test_cartan_check_mixed44(tmp_path, capsys):
    path = tmp_path / "m44.txt"
    path.write_text(MIXED44_TEXT)
    code, report = run_cli(capsys, "cartan", "check", str(path))
    assert code == 0
    assert report["d"] == [3, 1, 2, 2]
    assert report["t"] == 6
    assert report["tamely_laced"] is True
    assert report["bipartition"] is None


def test_cartan_check_rejects_bad_matrix(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2\n2 -2\n-1 2\n")  # not symmetrizable? ratios fine: d=(1,2)
    code, report = run_cli(capsys, "cartan", "check", str(path))
    assert code == 0  # valid generalized Cartan matrix, just not simply laced
    path.write_text("2\n2 0\n-1 2\n")
    code, report = run_cli(capsys, "cartan", "check", str(path))
    assert code == 1 and report["pass"] is False


def test_usage_error_exit_code(tmp_path, capsys):
    path = tmp_path / "garbled.txt"
    path.write_text("not a matrix\n")
    assert main(["cartan", "check", str(path)]) == 2
    assert main(["sys", "solve-t", str(path), "--level", "2"]) == 2


def test_gen_t_relations(a2_file, capsys):
    code, report = run_cli(capsys, "sys", "gen-t", a2_file,
                           "--level", "2", "--window", "0..3")
    assert code == 0
    assert len(report["relations"]) == 4
    first = report["relations"][0]
    assert set(first) == {"center", "lhs", "termA", "termM"}


def test_solve_t_and_t2y_pipeline(a2_file, tmp_path, capsys):
    table_path = str(tmp_path / "table.json")
    code, report = run_cli(capsys, "sys", "solve-t", a2_file, "--level", "2",
                           "--window", "0..20", "--seed", "7",
                           "--out", table_path)
    assert code == 0 and report["pass"]
    assert report["relations_checked"] > 0
    code, report = run_cli(capsys, "sys", "t2y", a2_file, "--level", "2",
                           "--in", table_path)
    assert code == 0 and report["pass"]


def test_solve_t_a1_constant_relation(tmp_path, capsys):
    path = tmp_path / "a1.txt"
    path.write_text(A1_TEXT)
    table_path = str(tmp_path / "a1table.json")
    code, report = run_cli(capsys, "sys", "solve-t", str(path), "--level", "2",
                           "--window", "0..8", "--seed", "7", "--out", table_path)
    assert code == 0 and report["pass"]
    with open(table_path) as fh:
        data = json.load(fh)
    from fractions import Fraction

    values = {row["k"]: Fraction(row["value"]) for row in data["entries"]}
    for k in range(1, 8):
        assert values[k - 1] * values[k + 1] == 2


def test_solve_y_y2t_roundtrip(a2_file, tmp_path, capsys):
    ytable = str(tmp_path / "ytable.json")
    code, report = run_cli(capsys, "sys", "solve-y", a2_file,
                           "--level", "unrestricted", "--mcap", "3",
                           "--window", "0..14", "--seed", "3", "--out", ytable)
    assert code == 0 and report["pass"]
    code, report = run_cli(capsys, "sys", "y2t", a2_file,
                           "--level", "unrestricted", "--mcap", "3",
                           "--in", ytable, "--roundtrip", "--seed", "5")
    assert code == 0 and report["pass"]
    assert report["compared"] > 20


def test_y2t_rejects_restricted(a2_file, tmp_path, capsys):
    ytable = str(tmp_path / "ytable.json")
    run_cli(capsys, "sys", "solve-y", a2_file, "--level", "2",
            "--window", "0..10", "--seed", "3", "--out", ytable)
    code = main(["sys", "y2t", a2_file, "--level", "2", "--in", ytable])
    capsys.readouterr()
    assert code == 2


def test_identities_command(a2_file, capsys):
    code, report = run_cli(capsys, "sys", "identities", a2_file)
    assert code == 0 and report["pass"]


def test_cluster_run_and_verify(tmp_path, capsys):
    path = tmp_path / "ba2.txt"
    path.write_text(BA2_TEXT)
    out = str(tmp_path / "seq.json")
    code, report = run_cli(capsys, "cluster", "run", str(path),
                           "--steps", "6", "--out", out)
    assert code == 0
    with open(out) as fh:
        dumped = json.load(fh)
    assert "(1,0)" in dumped["x"]
    code, report = run_cli(capsys, "cluster", "verify", str(path), "--steps", "12")
    assert code == 0 and report["pass"]
    assert "not_checked" not in report


def test_cluster_verify_numeric_names_what_it_did_not_check(tmp_path, capsys):
    path = tmp_path / "ba2.txt"
    path.write_text(BA2_TEXT)
    code, report = run_cli(capsys, "cluster", "verify", str(path), "--steps", "12", "--numeric")
    assert code == 0 and report["pass"] and report["mode"] == "numeric"
    assert report["not_checked"] == ["Laurent"]


@pytest.mark.parametrize("steps", ["0", "1"])
def test_cluster_verify_without_interior_point_fails(tmp_path, capsys, steps):
    path = tmp_path / "ba2.txt"
    path.write_text(BA2_TEXT)
    code, report = run_cli(capsys, "cluster", "verify", str(path), "--steps", steps)
    assert code == 1 and report["pass"] is False
    assert report["relations_checked"] == 0
    assert report["violations"] == [{"relation": "no relation lies inside the window"}]


def test_cluster_correspond(tmp_path, capsys):
    path = tmp_path / "c3.txt"
    path.write_text(CYCLE3_TEXT)
    code, report = run_cli(capsys, "cluster", "correspond", str(path),
                           "--level", "2")
    assert code == 0 and report["pass"]
    assert report["routed_through_double"]


def test_period_scan(a2_file, capsys):
    code, report = run_cli(capsys, "period", "scan", a2_file, "--level", "2",
                           "--window", "0..24", "--max-period", "12",
                           "--seed", "11")
    assert code == 0
    assert report["period"] == 10


@pytest.mark.parametrize("value", ["0", "-3"])
def test_period_scan_needs_a_positive_max_period(a2_file, capsys, value):
    line = usage_error(capsys, "period", "scan", a2_file, "--level", "2",
                       "--max-period", value)
    assert line == f"tysys: max_period must be >= 1, got {value}"


@pytest.mark.parametrize("command", [
    ["sys", "gen-t"], ["sys", "gen-y"], ["sys", "solve-t"], ["sys", "solve-y"],
    ["sys", "t2y"], ["period", "scan"]], ids=lambda command: command[1])
def test_mcap_with_a_restricted_level_is_a_usage_error(a2_file, capsys, command):
    extra = ["--in", a2_file] if command[1] == "t2y" else []
    line = usage_error(capsys, *command, a2_file, "--level", "2", "--mcap", "5", *extra)
    assert line == "tysys: --mcap applies to --level unrestricted only"


@pytest.mark.parametrize("command", [
    ["sys", "gen-t"], ["sys", "gen-y"], ["sys", "solve-t"], ["sys", "solve-y"],
    ["sys", "t2y"], ["period", "scan"]], ids=lambda command: command[1])
def test_level_text_is_a_usage_error(a2_file, capsys, command):
    extra = ["--in", a2_file] if command[1] == "t2y" else []
    for level in ("two", "2.5", ""):
        line = usage_error(capsys, *command, a2_file, "--level", level, *extra)
        assert line == f"tysys: --level takes an integer or 'unrestricted', got {level!r}"


@pytest.mark.parametrize("level", ["two", "unrestricted"])
def test_cluster_correspond_level_text_is_a_usage_error(a2_file, capsys, level):
    line = usage_error(capsys, "cluster", "correspond", a2_file, "--level", level)
    assert line == f"tysys: --level takes an integer, got {level!r}"


def test_y2t_on_a_restricted_level_is_a_usage_error(a2_file, tmp_path, capsys):
    table_path = tmp_path / "y.json"
    run_cli(capsys, "sys", "solve-y", a2_file, "--level", "2", "--out", str(table_path))
    line = usage_error(capsys, "sys", "y2t", a2_file, "--level", "2", "--in", str(table_path))
    assert line == ("tysys: the reconstruction exists for unrestricted systems only; "
                    "pass --level unrestricted --mcap N")


@pytest.mark.parametrize("level", ["1", "0", "-1"])
def test_cluster_correspond_needs_level_two(tmp_path, capsys, level):
    path = tmp_path / "a2.txt"
    path.write_text(A2_TEXT)
    line = usage_error(capsys, "cluster", "correspond", str(path), "--level", level)
    assert line == f"tysys: the exchange matrix needs level >= 2, got {level}"


# sha256 of stdout.  cluster run prints the num/den of every x and y; its
# digests were recorded when the coefficients' factored forms came from the
# F-polynomials, which writes each y in lowest terms.  The verify digests
# predate the caching of coefficient successors and inverses.
@pytest.mark.parametrize("command,text,digest", [
    pytest.param("run", BA3_TEXT, "d095feaac99bc0f0d0666941b266388c2399dc83e807c1029a32bd5ad044c3e0",
                 id="run-BA3"),
    pytest.param("run", BA2XBA2_TEXT,
                 "4f17161baa404a80ec1d7d8681b794d2b57abe0be0a0a89a77d6dd71a0fbbab9",
                 id="run-BA2xBA2"),
    pytest.param("verify", BA3_TEXT,
                 "56bf9e88874501968e05e47ea7adae529a096acf933f2092f6b00f4e5fbad1da",
                 id="verify-BA3"),
    pytest.param("verify", BA2XBA2_TEXT,
                 "ab12e5ab73876eb499768d08d13bd09e21400f36eb91578e8c49e8c62e6c7568",
                 id="verify-BA2xBA2"),
])
def test_cluster_reports_golden(tmp_path, capsys, command, text, digest):
    path = tmp_path / "matrix.txt"
    path.write_text(text)
    assert main(["cluster", command, str(path), "--steps", "8"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cluster_run_numeric_golden(tmp_path, capsys):
    # sha256 of stdout, recorded while numeric values were written by str()
    path = tmp_path / "ba3.txt"
    path.write_text(BA3_TEXT)
    assert main(["cluster", "run", str(path), "--numeric", "--steps", "8"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() \
        == "ac6e757e0b863f7457213d646e636d58ac9a37e0e45382127db629acad260e26"


def test_cluster_run_numeric_past_the_digit_limit(tmp_path, capsys):
    # 16 steps on the seven-node matrix give values past 4300 digits, which
    # str() refuses to write
    from tysys import cluster
    from tysys.cartan import format_matrix_text
    from tysys.cli import derive_rng
    from tysys.exactmath import fraction_from_text

    em = cluster.seven_node_example()
    path = tmp_path / "seven.txt"
    path.write_text(format_matrix_text(em.rows(), em.parity))
    code, report = run_cli(capsys, "cluster", "run", str(path), "--numeric", "--steps", "16")
    assert code == 0
    seq = cluster.run_sequence(em, (0, 16), mode="numeric",
                               rng=derive_rng(0, "cluster-run"))
    for key, values in (("x", seq.x), ("y", seq.y)):
        written = report["sequence"][key]
        assert {k: fraction_from_text(v) for k, v in written.items()} \
            == {f"({i + 1},{u})": v for (i, u), v in values.items()}
    assert max(len(part) for v in report["sequence"]["y"].values()
               for part in v.split("/")) > 4300


def test_reports_are_reproducible(a2_file, capsys):
    args = ("sys", "solve-t", a2_file, "--level", "3", "--window", "0..16",
            "--seed", "42")
    main(list(args))
    first = capsys.readouterr().out
    main(list(args))
    second = capsys.readouterr().out
    assert first == second


def test_verify_all_smoke(capsys):
    code = main(["verify", "all"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 0 and report["pass"]
    assert len(report["criteria"]) == 10
    assert "criterion" in captured.err


def test_period_scan_negative_retries_is_a_usage_error(a2_file, capsys):
    line = usage_error(capsys, "period", "scan", a2_file, "--level", "2", "--retries", "-1")
    assert line == "tysys: retries must be >= 0, got -1"


def test_negative_retries_is_a_usage_error(a2_file, capsys):
    code = main(["sys", "solve-y", a2_file, "--level", "2", "--retries", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.strip().splitlines() == [
        "tysys: retries must be >= 0, got -1"]


@pytest.mark.parametrize("command", ["solve-t", "solve-y", "t2y"])
def test_check_that_compared_nothing_fails(a2_file, tmp_path, capsys, command):
    if command == "t2y":
        table_path = str(tmp_path / "table.json")
        run_cli(capsys, "sys", "solve-t", a2_file, "--level", "2",
                "--window", "0..1", "--out", table_path)
        argv = ["--in", table_path]
    else:
        argv = ["--window", "0..1"]
    code, report = run_cli(capsys, "sys", command, a2_file, "--level", "2", *argv)
    assert code == 1
    assert report["pass"] is False and report["relations_checked"] == 0
    assert report["violations"] == [{"relation": "no relation lies inside the window"}]


B3_TEXT = "3\n2 -1 0\n-1 2 -1\n0 -2 2\n"


@pytest.mark.parametrize("command,text,level,digest", [
    ("gen-t", B3_TEXT, ["--level", "3"],
     "bed52de60685fcec84b384bdcf84437596d86efd0c99f29844c921b843360451"),
    ("gen-y", B3_TEXT, ["--level", "3"],
     "be00b69bf2c36c19a10de90af1c38759aeab80ffa04606c6af7a1d3319cb1399"),
    ("gen-t", MIXED44_TEXT, ["--level", "unrestricted", "--mcap", "2"],
     "df754f5d52579ee7a21f29696abfae7bbf5fb03f97e1d72fbcb5424bd5b7d016"),
    ("gen-y", MIXED44_TEXT, ["--level", "unrestricted", "--mcap", "2"],
     "8143146c46e0e18a31bba507fede8b430a8577c5e7394fd6860705bbe8c7a158"),
])
def test_generated_relations_golden(tmp_path, capsys, command, text, level, digest):
    path = tmp_path / "matrix.txt"
    path.write_text(text)
    assert main(["sys", command, str(path), *level]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_tables_past_the_digit_limit(tmp_path, capsys):
    matrix = tmp_path / "m44.txt"
    matrix.write_text(MIXED44_TEXT)
    y44 = tmp_path / "y44.json"
    system = [str(matrix), "--level", "unrestricted", "--mcap", "2"]
    code, report = run_cli(capsys, "sys", "solve-y", *system, "--window", "0..12",
                           "--seed", "1", "--out", str(y44))
    assert code == 0 and report["pass"]
    entries = json.loads(y44.read_text())["entries"]
    assert max(len(row["value"]) for row in entries) > 4300
    code, report = run_cli(capsys, "sys", "y2t", *system, "--in", str(y44))
    assert code == 0 and report["pass"]


@pytest.fixture(scope="module")
def mixed44_tables(tmp_path_factory):
    """MIXED44 Y- and T-tables on 0..14, whose largest values pass 4300 digits."""
    work = tmp_path_factory.mktemp("m44")
    (work / "m44.txt").write_text(MIXED44_TEXT)
    system = [str(work / "m44.txt"), "--level", "unrestricted", "--mcap", "2",
              "--seed", "3"]
    assert main(["sys", "solve-y", *system, "--window", "0..14",
                 "--out", str(work / "y.json")]) == 0
    assert main(["sys", "y2t", *system, "--in", str(work / "y.json"),
                 "--out", str(work / "t.json")]) == 0
    return work, system


def _run_raw(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_oversized_violation_values_are_clipped(mixed44_tables, capsys):
    # a wrong digit in the longest T-value: t2y fails its checks (exit 1)
    # with a small report instead of refusing to print the values
    work, system = mixed44_tables
    capsys.readouterr()
    table = json.loads((work / "t.json").read_text())
    longest = max(table["entries"], key=lambda row: len(row["value"]))
    assert len(longest["value"]) > 4300
    longest["value"] += "0"
    (work / "t_bad.json").write_text(json.dumps(table))
    code, out = _run_raw(capsys, "sys", "t2y", *system, "--in", str(work / "t_bad.json"))
    report = json.loads(out)
    assert code == 1 and report["pass"] is False and report["violations"]
    assert "-bit rational, sha256 " in out
    assert len(out) < 64 * 1024


def test_oversized_roundtrip_mismatches_are_clipped(mixed44_tables, capsys):
    work, system = mixed44_tables
    capsys.readouterr()
    table = json.loads((work / "y.json").read_text())
    level_one = [row for row in table["entries"] if row["m"] == 1 and 5 <= row["k"] <= 10]
    longest = max(level_one, key=lambda row: len(row["value"]))
    longest["value"] += "1"
    (work / "y_bad.json").write_text(json.dumps(table))
    code, out = _run_raw(capsys, "sys", "y2t", *system, "--in", str(work / "y_bad.json"),
                         "--roundtrip")
    report = json.loads(out)
    assert code == 1 and report["pass"] is False and report["violations"]
    assert len(out) < 64 * 1024


def _drop_entries(data):
    del data["entries"]


def _set_entry(key, value):
    def edit(data):
        data["entries"][0][key] = value

    return edit


def _one_entry_outside_the_window(data):
    data["window"] = [0, 3]
    data["entries"] = [dict(data["entries"][0], k=9)]


def _set_meta(data):
    data["meta"] = 5


def _set_matrix(data):
    data["system"]["matrix"] = [[2, -1], [-2, 2]]


def _unchanged(data):
    pass


def _drop_level(data):
    data["system"]["level"] = None


# (command that writes the table, command that reads it), each without the
# A2 matrix file and the table file
SOLVE_T_THEN_T2Y = (["sys", "solve-t", "--level", "2", "--window", "0..6"],
                    ["sys", "t2y", "--level", "2"])
UNRESTRICTED = ["--level", "unrestricted"]


@pytest.mark.parametrize("steps,edit,message", [
    (SOLVE_T_THEN_T2Y, _drop_entries, "tysys: table has no 'entries' field"),
    (SOLVE_T_THEN_T2Y, _set_entry("value", "1/0"),
     "tysys: T[a=1,m=1,k=0]: '1/0' has a zero denominator"),
    (SOLVE_T_THEN_T2Y, _set_entry("a", 9), "tysys: T[a=9,m=1,k=0]: node 9 is outside 1..2"),
    (SOLVE_T_THEN_T2Y, _set_entry("m", 7),
     "tysys: T[a=1,m=7,k=0]: level m=7 is outside 1..1"),
    (SOLVE_T_THEN_T2Y, _one_entry_outside_the_window,
     "tysys: T[a=1,m=1,k=9]: k=9 is outside the window 0..3"),
    (SOLVE_T_THEN_T2Y, _set_meta, "tysys: table meta must be an object, got 5"),
    (SOLVE_T_THEN_T2Y, _set_matrix, "tysys: table is for another system: "
                                    "matrix [[2, -1], [-2, 2]], not [[2, -1], [-1, 2]]"),
    ((SOLVE_T_THEN_T2Y[0], ["sys", "t2y", "--level", "3"]), _unchanged,
     "tysys: table is for another system: level 2, not 3"),
    (SOLVE_T_THEN_T2Y, _drop_level, "tysys: table is for another system: level None, not 2"),
    ((["sys", "solve-y", *UNRESTRICTED, "--mcap", "3", "--window", "0..6"],
      ["sys", "y2t", *UNRESTRICTED, "--mcap", "4", "--roundtrip"]), _unchanged,
     "tysys: table is for another system: level 3, not 4"),
], ids=["no entries", "zero denominator", "node out of range", "level out of range",
        "k outside the window", "meta not an object", "another matrix", "another level",
        "no level", "another mcap"])
def test_malformed_table_is_a_usage_error(a2_file, tmp_path, capsys, steps, edit, message):
    write, read = steps
    table_path = tmp_path / "table.json"
    run_cli(capsys, *write, a2_file, "--out", str(table_path))
    data = json.loads(table_path.read_text())
    edit(data)
    table_path.write_text(json.dumps(data))
    assert usage_error(capsys, *read, a2_file, "--in", str(table_path)) == message


@pytest.mark.parametrize("roundtrip", [[], ["--roundtrip"]], ids=["y2t", "roundtrip"])
def test_y2t_negative_retries_is_a_usage_error(a2_file, tmp_path, capsys, roundtrip):
    system = [a2_file, "--level", "unrestricted", "--mcap", "3"]
    table_path = tmp_path / "y.json"
    run_cli(capsys, "sys", "solve-y", *system, "--out", str(table_path))
    line = usage_error(capsys, "sys", "y2t", *system, "--in", str(table_path),
                       "--retries", "-1", *roundtrip)
    assert line == "tysys: retries must be >= 0, got -1"


@pytest.mark.parametrize("content,reason", [
    (b"1\n2\n", "Extra data: line 2 column 1 (char 2)"),
    (b"", "Expecting value: line 1 column 1 (char 0)"),
    (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["two numbers", "empty", "not UTF-8"])
@pytest.mark.parametrize("command", [["t2y", "--level", "2"],
                                     ["y2t", *UNRESTRICTED, "--mcap", "3"]],
                         ids=["t2y", "y2t"])
def test_input_that_is_not_json_is_a_usage_error(a2_file, tmp_path, capsys, command,
                                                 content, reason):
    # the message names the file and what it should have held
    table_path = tmp_path / "table.txt"
    table_path.write_bytes(content)
    line = usage_error(capsys, "sys", command[0], a2_file, *command[1:],
                       "--in", str(table_path))
    assert line == f"tysys: {table_path} is not a JSON table: {reason}"


def test_a_json_value_that_is_not_a_table_is_a_usage_error(a2_file, tmp_path, capsys):
    table_path = tmp_path / "table.json"
    table_path.write_text("[1, 2]")
    line = usage_error(capsys, "sys", "t2y", a2_file, "--level", "2", "--in", str(table_path))
    assert line == "tysys: a table is a JSON object"


def _perturbed(src, dst, index):
    """Copy a table dump with the value of entry `index` doubled."""
    from tysys.exactmath import fraction_from_text, fraction_to_text

    data = json.loads(src.read_text())
    entry = data["entries"][index]
    entry["value"] = fraction_to_text(2 * fraction_from_text(entry["value"]))
    dst.write_text(json.dumps(data))


B3_SYSTEM = ["b3.txt", "--level", "2"]
M44_SYSTEM = ["m44.txt", "--level", "unrestricted", "--mcap", "2"]

# (argv, file the step writes, or a (source, copy, entry) table to perturb first)
SOLVE_PIPELINES = {
    "B3 level 2": [
        (["sys", "solve-t", *B3_SYSTEM, "--window", "0..24", "--seed", "7",
          "--out", "t.json"], "t.json"),
        (["sys", "t2y", *B3_SYSTEM, "--in", "t.json"], None),
        (["sys", "t2y", *B3_SYSTEM, "--in", "t_bad.json"], ("t.json", "t_bad.json", 40)),
        (["sys", "solve-y", *B3_SYSTEM, "--window", "0..24", "--seed", "7"], None),
        (["period", "scan", *B3_SYSTEM, "--window", "0..40", "--seed", "7",
          "--max-period", "28"], None),
    ],
    "MIXED44 unrestricted": [
        (["sys", "solve-y", *M44_SYSTEM, "--window", "0..8", "--seed", "3",
          "--out", "y.json"], "y.json"),
        (["sys", "y2t", *M44_SYSTEM, "--in", "y.json", "--roundtrip", "--seed", "3",
          "--out", "t.json"], "t.json"),
        (["sys", "t2y", *M44_SYSTEM, "--in", "t.json"], None),
        (["sys", "t2y", *M44_SYSTEM, "--in", "t_bad.json"], ("t.json", "t_bad.json", 30)),
        (["sys", "y2t", *M44_SYSTEM, "--in", "y_bad.json", "--roundtrip", "--seed", "3"],
         ("y.json", "y_bad.json", 39)),
        (["period", "scan", *M44_SYSTEM, "--window", "0..12", "--seed", "3",
          "--max-period", "8"], None),
    ],
}


def _pipeline_digests(steps, capsys):
    """sha256 of every step's stdout, and of the table a step writes."""
    from pathlib import Path

    digests = []
    for argv, extra in steps:
        if isinstance(extra, tuple):
            src, dst, index = extra
            _perturbed(Path(src), Path(dst), index)
        main(argv)
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        if isinstance(extra, str):
            digests.append(hashlib.sha256(Path(extra).read_bytes()).hexdigest())
    return digests


SOLVE_PIPELINE_DIGESTS = {
    "B3 level 2": [
        "8e01134d17288d902094c076f4e2d17db998b4a0ccbb04658336d66f184f9ade",
        "21097d484dbebe64f96dd6d818f0805eaa7edc6e6f9cf9b594fd9b8c22dbac92",
        "998d4b90391b9438bdad73934f1376fe9c193655b468117ea6640d1554d75ee3",
        "4c5fef9bdf653420e2fbcaef7d8179792c0a22c345c511f0f890d13510695785",
        "4c951af5ca1bf4a35ea1250775c63ac8573d2a615f53fbb696e2c7a2defdd0ce",
        "f52bee70e72e96327b3f6fe05530f348f8c7f3fa8ea4de7f470800dcdcab0c27",
    ],
    "MIXED44 unrestricted": [
        "3c6699ea16107809a523245c37619bdbf18d4595514b59410c1c0efb6824c547",
        "8fedf3bc34c7d294dcbdc13cf43618893bb01276813f0f2d4187336e06d339aa",
        "fa5f1a6f37c8f87ece4a7cce1c76c995c4dbd8ba5831e0079fce02b5ac5f4e6f",
        "4d0df11bf01a24d20734b627105b37bf7e0cb4fa2a9e47207760d9004adec68a",
        "13af2721e83520c4531430168064016ed968aafad707036d13e056c7a375035c",
        "693bde915a1116ca8591162abe41e2c229ef0832edfe26df5db372fface96a4e",
        "96bc34e33305800731098ac17706e16eb8bfb7cabe8e216745ffee310103be19",
        "5c92564a5c3bad005f02c5cc489159382e60992822a1b8ae0758c03ecc30d43b",
    ],
}


@pytest.mark.parametrize("name", sorted(SOLVE_PIPELINES))
def test_solve_and_map_reports_golden(tmp_path, monkeypatch, capsys, name):
    # byte-identical reports and tables, violation records included, for
    # solve-t (with its file), t2y, solve-y, y2t --roundtrip and period scan
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b3.txt").write_text(B3_TEXT)
    (tmp_path / "m44.txt").write_text(MIXED44_TEXT)
    assert _pipeline_digests(SOLVE_PIPELINES[name], capsys) \
        == SOLVE_PIPELINE_DIGESTS[name]


# sha256 of stdout, and of the table solve-t writes, recorded while numeric
# mode still ran the value comparison on tables without a rational function
NUMERIC_PIPELINE = [
    (["sys", "solve-t", *B3_SYSTEM, "--window", "0..24", "--seed", "7",
      "--mode", "numeric"], None),
    (["sys", "solve-t", *B3_SYSTEM, "--window", "0..24", "--seed", "7",
      "--out", "t.json"], "t.json"),
    (["sys", "t2y", *B3_SYSTEM, "--in", "t_bad.json", "--mode", "numeric"],
     ("t.json", "t_bad.json", 40)),
]
NUMERIC_PIPELINE_DIGESTS = [
    "89465ea16e6bfc74e85b889c5b3bb85857105f655deee96ec0a2f522ba89cc30",
    "8e01134d17288d902094c076f4e2d17db998b4a0ccbb04658336d66f184f9ade",
    "21097d484dbebe64f96dd6d818f0805eaa7edc6e6f9cf9b594fd9b8c22dbac92",
    "9da0703cf219ae05236970810bd6fef8ec413413f55900d250e22985adf3cf8b",
]


def test_numeric_mode_reports_golden(tmp_path, monkeypatch, capsys):
    # rational tables are checked exactly in numeric mode too, with the
    # same reports and records
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b3.txt").write_text(B3_TEXT)
    assert _pipeline_digests(NUMERIC_PIPELINE, capsys) == NUMERIC_PIPELINE_DIGESTS


def _reader_gone(argv, after_first_line):
    """(exit code, stderr) of the tysys command argv, run in a new
    interpreter, when the reader of its stdout closes the pipe: after
    reading one line, or at once, before the command has written."""
    env = {**os.environ, "PYTHONPATH": str(Path(tysys.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "tysys.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if after_first_line:
        assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), err


@pytest.mark.parametrize("argv,after_first_line", [
    # about 1 MB of relations: the pipe fills, and the write after the
    # reader has gone fails
    (["sys", "gen-t", "A2", "--level", "4", "--window", "0..800"], True),
    # a short report, still buffered when the pipe is found closed
    (["cartan", "check", "A2"], False),
])
def test_closed_stdout_ends_quietly(a2_file, argv, after_first_line):
    argv = [a2_file if arg == "A2" else arg for arg in argv]
    assert _reader_gone(argv, after_first_line) == (141, b"")
