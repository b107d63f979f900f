"""Reports that run once per invocation, outside the timed passes, and gate
nothing: the known-failure probes and the MIXED44 growth curve."""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from tysys import acceptance, tsystem, ysystem
from tysys.cartan import format_matrix_text, new_cartan
from tysys.tsystem import SystemSpec

from outputs import sizes
from workloads import _cli, sub_rng

GROWTH_WIDTHS = (8, 12, 14, 16)
# propagate_y draws Y(a=2, m=1, k=0) = -1 from this seed on MIXED44 at cap 2
DEGENERATE_Y_SEED = 2017044716


def _raised(call):
    """(exception name, one-line message) of call(), or (None, repr(result))."""
    try:
        result = call()
    except Exception as exc:  # a probe records failures, it never raises
        return type(exc).__name__, str(exc).splitlines()[0][:200]
    return None, repr(result)[:200]


def _cli_probe(argv, expected, out_file=None):
    if out_file is not None and out_file.exists():
        out_file.unlink()
    code, out, err = _cli(argv)
    if code == 0:
        report = json.loads(out)
        message = f"pass {report['pass']}, relations_checked {report['relations_checked']}"
    else:
        message = (err.strip().splitlines() or [""])[-1][:200]
    entry = {"argv": argv, "exit": code, "message": message, "expected": expected}
    if out_file is not None:
        entry["output_bytes"] = out_file.stat().st_size if out_file.exists() else None
    return entry


def known_failures(work: Path):
    """(a) why lattice_growth calls the library instead of the CLI: dumping
        a value past 4300 digits fails inside ValueTable.dump;
    (b) why G2 runs the Y side only: restricted T-propagation cannot
        schedule max d = 3;
    (c) a check that compared nothing still reports a pass;
    (d) why lattice_growth screens its initial data: a sampled Y = -1 makes
        the roundtrip exhaust its retries, which cannot help."""
    mats = {"MIXED44": acceptance.MIXED44_ROWS,
            "G2": acceptance.FINITE_TYPE["G2"],
            "A2": acceptance.FINITE_TYPE["A2"]}
    for name, rows in mats.items():
        (work / f"probe_{name}.txt").write_text(format_matrix_text(rows),
                                                encoding="utf-8")
    mixed = SystemSpec(new_cartan(acceptance.MIXED44_ROWS), 2, restricted=False)
    g2 = SystemSpec(new_cartan(acceptance.FINITE_TYPE["G2"]), 3)
    out_a = work / "probe_a.json"
    report = {
        "a": _cli_probe(["sys", "solve-y", str(work / "probe_MIXED44.txt"),
                         "--level", "unrestricted", "--mcap", "2", "--window",
                         "0..12", "--out", str(out_a)],
                        "exit 2, 'Exceeds the limit (4300 digits)', empty file",
                        out_a),
        "b": _cli_probe(["sys", "solve-t", str(work / "probe_G2.txt"),
                         "--level", "3"], "exit 2, UnschedulableDependency"),
        "c": _cli_probe(["sys", "solve-t", str(work / "probe_A2.txt"),
                         "--level", "2", "--window", "0..1"],
                        "exit 0, pass True with relations_checked 0"),
    }
    report["b"]["raises"], _ = _raised(
        lambda: tsystem.propagate_t(g2, (0, 12), rng=random.Random(0)))
    y_table = ysystem.propagate_y(mixed, (0, 12), rng=random.Random(DEGENERATE_Y_SEED))
    raises, message = _raised(
        lambda: ysystem.roundtrip_check(y_table, rng=random.Random(0)))
    report["d"] = {"raises": raises, "message": message,
                   "expected": "ZeroDivisor, retries exhausted: 1 + Y vanishes"}
    return report


def growth_curve(seed: int):
    """MIXED44 Y-propagation, unrestricted at cap 2, on windows 0..W."""
    sys_ = SystemSpec(new_cartan(acceptance.MIXED44_ROWS), 2, restricted=False)
    curve = []
    for width in GROWTH_WIDTHS:
        rng = sub_rng(seed, f"growth-curve/{width}")
        start = time.perf_counter()
        table = ysystem.propagate_y(sys_, (0, width), rng=rng)
        wall = time.perf_counter() - start
        curve.append({"W": width, "wall_s": wall,
                      "max_value_bits": sizes(table)[0]})
    return curve
