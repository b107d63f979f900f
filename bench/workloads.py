"""The four workloads.  Each is a list of operations run one after another
by one caller (a closed loop in one thread).  An operation is one CLI command
or one library case; its ``run`` is timed, its ``verify`` runs afterwards.

Every random input is derived from the benchmark seed.  The program only
receives the derived inputs: a CLI ``--seed`` or a ``random.Random``.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tysys import acceptance, cartan, cli, cluster, ysystem
from tysys.cartan import format_matrix_text
from tysys.exactmath import random_nonzero_rational
from tysys.tsystem import SystemSpec

from tracer import install_everywhere, uninstall

LATTICE_WINDOW = "0..79"
GROWTH_WINDOW = (0, 15)
GROWTH_CASES = 4
SCREENED_DRAWS = 400
BELT_U = (-1, 11)
CORRESPOND_U = (-4, 4)  # the default u_window of correspondence_check

# dual Coxeter numbers h^v of the finite types in acceptance.FINITE_TYPE
DUAL_COXETER = {"A": lambda r: r + 1, "B": lambda r: 2 * r - 1,
                "C": lambda r: r + 1, "D": lambda r: 6, "F": lambda r: 9,
                "G": lambda r: 4}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    # verify(raw) -> (ok, note, checks, outputs, sized); outputs are hashed,
    # sized are measured for max_value_bits and max_terms
    verify: Callable[[object], tuple]


def sub_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sub_rng(seed: int, label: str) -> random.Random:
    return random.Random(sub_seed(seed, label))


class Capture:
    """Keeps the return values of chosen library functions, so that values a
    command computes but does not print can still be measured and hashed."""

    def __init__(self, qualified_names):
        self.names = qualified_names
        self.seen = []
        self._undo = []

    def install(self):
        for name in self.names:
            self._undo += install_everywhere(name, self._keep)

    def uninstall(self):
        uninstall(self._undo)
        self._undo = []

    def _keep(self, fn):
        seen = self.seen

        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen.append(result)
            return result

        kept.__wrapped__ = fn
        return kept

    def take(self):
        out = list(self.seen)
        self.seen.clear()
        return out


class Workload:
    """Operations plus the capture hooks they need."""

    def __init__(self, ops, capture=None):
        self.ops = ops
        self.capture = capture or Capture([])


# ---------------------------------------------------------------------------
# lattice workloads
# ---------------------------------------------------------------------------


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def _cli_verify(out_file=None, divides=None):
    def verify(raw):
        (code, out, err), captured = raw
        files = out_file.read_bytes() if out_file else b""
        report = json.loads(out) if code in (0, 1) else {}
        ok = code == 0 and report.get("pass") is True and not report.get("violations")
        note = err.strip().splitlines()[-1] if err.strip() else ""
        if ok and divides is not None:
            period = report.get("period")
            ok = bool(period) and divides % period == 0
            note = f"period {period} vs {divides}"
        tables = [c[0] if isinstance(c, tuple) else c for c in captured]
        checks = int(report.get("relations_checked", 0))
        return ok, note, checks, [code, out, files, tables], tables

    return verify


def lattice_periodic(seed: int, work: Path) -> Workload:
    """Every finite type at levels 2-4: solve-t (to a file), t2y (from it),
    solve-y and period scan, each through tysys.cli.main."""
    capture = Capture(["tsystem.propagate_t", "ysystem.propagate_y",
                       "ysystem.t_to_y"])
    ops = []
    for name, rows in acceptance.FINITE_TYPE.items():
        matrix = work / f"{name}.txt"
        matrix.write_text(format_matrix_text(rows), encoding="utf-8")
        cm = cartan.new_cartan(rows)
        h_dual = DUAL_COXETER[name[0]](cm.r)
        for level in (2, 3, 4):
            full_period = 2 * cm.t * (h_dual + level)
            common = [str(matrix), "--level", str(level), "--seed",
                      str(sub_seed(seed, f"{name}/{level}"))]
            t_file = work / f"T_{name}_{level}.json"
            steps = []
            # restricted T-propagation does not support max d = 3 (G2) yet
            if max(cm.d) < 3:
                steps += [
                    ("solve-t", ["sys", "solve-t", *common, "--window",
                                 LATTICE_WINDOW, "--out", str(t_file)], t_file, None),
                    ("t2y", ["sys", "t2y", *common, "--in", str(t_file)], None, None),
                ]
            steps += [
                ("solve-y", ["sys", "solve-y", *common, "--window", LATTICE_WINDOW],
                 None, None),
                ("period", ["period", "scan", *common, "--window", LATTICE_WINDOW,
                            "--max-period", str(full_period)], None, full_period),
            ]
            for label, argv, out_file, divides in steps:
                def run(argv=argv):
                    return _cli(argv), capture.take()

                ops.append(Op(f"{label} {name} L{level}", run,
                              _cli_verify(out_file, divides)))
    return Workload(ops, capture)


def nondegenerate_seed(seed: int, label: str) -> int:
    """First derived seed whose first SCREENED_DRAWS samples (the values
    propagate_y draws for its initial data) avoid -1.  At Y = -1 the factor
    1 + Y vanishes and the Y->T reconstruction is undefined; the
    known-failure probe (d) shows what the library does with such data."""
    for attempt in itertools.count():
        candidate = sub_seed(seed, f"{label}/{attempt}")
        rng = random.Random(candidate)
        if all(random_nonzero_rational(rng) != -1 for _ in range(SCREENED_DRAWS)):
            return candidate


def lattice_growth(seed: int, work: Path) -> Workload:
    """MIXED44 unrestricted at cap 2 on window 0..15: propagate_y, check every
    enumerated relation, then the Y->T->Y roundtrip with the claim identities.
    GROWTH_CASES independent initial data per pass."""
    sys_ = SystemSpec(cartan.new_cartan(acceptance.MIXED44_ROWS), 2, restricted=False)
    ops = []
    for case in range(GROWTH_CASES):
        y_seed = nondegenerate_seed(seed, f"growth/{case}/y")

        def run(case=case, y_seed=y_seed):
            y_table = ysystem.propagate_y(sys_, GROWTH_WINDOW,
                                          rng=random.Random(y_seed))
            rels = [r for r in ysystem.enumerate_y_relations(sys_, y_table.window)
                    if all(v in y_table.values for v in r.variables())]
            bad = ysystem.check_y_solution(y_table, rels)
            report, t_table = ysystem.roundtrip_check(
                y_table, rng=sub_rng(seed, f"growth/{case}/t"))
            return y_table, len(rels), bad, report, t_table

        def verify(raw):
            y_table, n_rels, bad, report, t_table = raw
            ok = not bad and report["pass"] and n_rels > 0
            note = f"{len(bad)} bad relations, roundtrip pass {report['pass']}"
            outputs = [y_table, bad, report, t_table]
            return ok, note, n_rels + report["compared"], outputs, [y_table, t_table]

        ops.append(Op(f"MIXED44 case {case}", run, verify))
    return Workload(ops)


# ---------------------------------------------------------------------------
# cluster workloads (symbolic; the seed changes nothing here)
# ---------------------------------------------------------------------------


def _centres(n: int, u_range) -> int:
    return n * (u_range[1] - u_range[0] - 1)


def cluster_belt(seed: int, work: Path) -> Workload:
    """Acceptance criterion 8: three belts, run_sequence then all eight checks."""
    a2 = cartan.new_cartan(acceptance._a_type(2))
    a3 = cartan.new_cartan(acceptance._a_type(3))
    belts = [("B(A2)", cluster.exchange_matrix_for_level(a2, 2)),
             ("B(A3)", cluster.exchange_matrix_for_level(a3, 2)),
             ("B(A2)xB(A2)", cluster.square_product(a2, a2))]
    ops = []
    for name, em in belts:
        def run(em=em):
            seq = cluster.run_sequence(em, BELT_U, mode="symbolic")
            return seq, [
                cluster.check_x_parity(seq),
                cluster.check_y_parity(seq),
                cluster.check_tb(seq),
                cluster.check_yb(seq, 1),
                cluster.check_yb(seq, -1),
                cluster.laurent_check(seq),
                cluster.t_to_y_b(seq.x, em, 1)[1],
                cluster.t_to_y_b(seq.x, em, -1)[1],
            ]

        def verify(raw, em=em):
            seq, results = raw
            bad = sum(len(r) for r in results)
            checks = len(results) * _centres(em.n, BELT_U)
            return not bad, f"{bad} violations", checks, [seq, results], [seq]

        ops.append(Op(name, run, verify))
    return Workload(ops)


def cluster_correspond(seed: int, work: Path) -> Workload:
    """Acceptance criterion 9: A3 at level 2, A2 at level 3, and the 3-cycle
    at level 2 through its bipartite double."""
    capture = Capture(["cluster.run_sequence"])
    cases = [("A3 level 2", acceptance._a_type(3), 2),
             ("A2 level 3", acceptance._a_type(2), 3),
             ("3-cycle level 2", [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], 2)]
    ops = []
    for name, rows, level in cases:
        cm = cartan.new_cartan(rows)

        def run(cm=cm, level=level, name=name):
            report = cluster.correspondence_check(
                cm, level, rng=sub_rng(seed, f"correspond/{name}"))
            return report, capture.take()

        def verify(raw):
            report, captured = raw
            # the check reads only the clusters, so only they are outputs
            clusters = [seq.x for seq in captured]
            checks = 2 * report["exchange_size"] * (CORRESPOND_U[1] - CORRESPOND_U[0] + 1)
            return (report["pass"], f"{len(report['violations'])} violations",
                    checks, [report, clusters], clusters)

        ops.append(Op(name, run, verify))
    return Workload(ops, capture)


# workloads whose inputs do not depend on the seed: one stored baseline each
SEEDLESS = ("cluster_belt", "cluster_correspond")

WORKLOADS = {
    "lattice_periodic": lattice_periodic,
    "lattice_growth": lattice_growth,
    "cluster_belt": cluster_belt,
    "cluster_correspond": cluster_correspond,
}
