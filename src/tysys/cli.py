"""Command line front end.

Every command prints one JSON report to stdout with a "pass" flag, a
"violations" array, and an echo of its configuration.  Exit codes: 0 when all
checks pass, 1 when a check fails, 2 for usage or input errors, and 141
(128 + SIGPIPE), with no message, when stdout is closed early.  All
randomness is derived from the single --seed value, so identical invocations
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys as _sys

from . import acceptance, cartan, cluster, tsystem, ysystem
from .errors import TysysError
from .tsystem import SystemSpec, table_from_json


def derive_rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def parse_window(text: str):
    try:
        lo, hi = (int(part) for part in text.split(".."))
    except ValueError:
        raise ValueError(f"window must be LO..HI with integer bounds, got {text!r}") from None
    return lo, hi


def parse_level(text: str, unrestricted: bool = True) -> int:
    """The integer of a --level text; a ValueError that names what --level
    accepts (an integer, or 'unrestricted' where unrestricted) otherwise."""
    try:
        return int(text)
    except ValueError:
        accepts = "an integer or 'unrestricted'" if unrestricted else "an integer"
        raise ValueError(f"--level takes {accepts}, got {text!r}") from None


def build_system(cm, level_text: str, mcap) -> SystemSpec:
    if level_text == "unrestricted":
        if mcap is None:
            raise ValueError("unrestricted systems need --mcap")
        return SystemSpec(cm, int(mcap), restricted=False)
    if mcap is not None:
        raise ValueError("--mcap applies to --level unrestricted only")
    return SystemSpec(cm, parse_level(level_text), restricted=True)


def read_table(path, sys_: SystemSpec, kind: str) -> tsystem.ValueTable:
    """The kind table of sys_ in the file at path (table_from_json); a file
    that is not JSON raises a ValueError that names it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as err:  # not JSON, or not UTF-8 text
            raise ValueError(f"{path} is not a JSON table: {err}") from None
    return table_from_json(data, sys=sys_, kind=kind)


def _emit(report: dict) -> int:
    print(json.dumps(report, sort_keys=True, indent=1))
    return 0 if report.get("pass", True) else 1


def _checked(violations: list, relations_checked: int) -> dict:
    """The pass flag and violations of a relation check; a check that
    compared nothing fails."""
    if not relations_checked:
        violations = violations + [{"relation": "no relation lies inside the window"}]
    return {"pass": not violations, "violations": violations,
            "relations_checked": relations_checked}


def _config(args, **extra):
    keep = ("seed", "mode", "window", "level", "mcap", "retries", "steps",
            "free", "max_period")
    cfg = {k: getattr(args, k) for k in keep if getattr(args, k, None) is not None}
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_cartan_check(args) -> int:
    try:
        cm = cartan.read_cartan_file(args.file)
    except (cartan.NotGeneralizedCartan, cartan.NotSymmetrizable) as err:
        return _emit({"pass": False, "violations": [{"relation": str(err)}],
                      "config": _config(args)})
    parity = cartan.bipartition(cm)
    report = {
        "pass": True,
        "violations": [],
        "config": _config(args),
        "rank": cm.r,
        "d": list(cm.d),
        "t": cm.t,
        "t_a": list(cm.t_a),
        "tamely_laced": cartan.is_tamely_laced(cm),
        "simply_laced": cartan.is_simply_laced(cm),
        "bipartition": list(parity) if parity else None,
    }
    return _emit(report)


def cmd_sys_gen(args) -> int:
    cm = cartan.read_cartan_file(args.file)
    sys_ = build_system(cm, args.level, args.mcap)
    rels = tsystem.enumerate_relations(sys_, parse_window(args.window), args.gen_kind)
    payload = {
        "pass": True,
        "violations": [],
        "config": _config(args),
        "system": sys_.describe(),
        "relations": [rel.to_json() for rel in rels],
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
        payload.pop("relations")
        payload["written"] = args.out
    return _emit(payload)


def cmd_sys_solve(args) -> int:
    cm = cartan.read_cartan_file(args.file)
    sys_ = build_system(cm, args.level, args.mcap)
    window = parse_window(args.window)
    if args.solve_kind == "T":
        rng = derive_rng(args.seed, "solve-t")
        table = tsystem.propagate_t(sys_, window, rng=rng, retries=args.retries)
        rels = tsystem.enumerate_relations(sys_, window)
        violations = tsystem.check_t_solution(table, rels, mode=args.mode,
                                              rng=derive_rng(args.seed, "check-t"))
    else:
        rng = derive_rng(args.seed, "solve-y")
        table = ysystem.propagate_y(sys_, window, rng=rng, retries=args.retries)
        rels = ysystem.enumerate_y_relations(sys_, window)
        violations = ysystem.check_y_solution(table, rels, mode=args.mode,
                                              rng=derive_rng(args.seed, "check-y"))
    if args.out:
        table.dump(args.out)
    return _emit({
        **_checked(violations, len(rels)),
        "config": _config(args),
        "values": len(table),
        **({"written": args.out} if args.out else {}),
    })


def cmd_sys_t2y(args) -> int:
    cm = cartan.read_cartan_file(args.file)
    sys_ = build_system(cm, args.level, args.mcap)
    t_table = read_table(args.infile, sys_, "T")
    y_table, violations = ysystem.t_to_y(t_table)
    yrels, bad = ysystem.check_covered(y_table, mode=args.mode, rng=derive_rng(args.seed, "t2y"))
    violations += bad
    if args.out:
        y_table.dump(args.out)
    return _emit({
        **_checked(violations, len(yrels)),
        "config": _config(args),
        "values": len(y_table),
        **({"written": args.out} if args.out else {}),
    })


def cmd_sys_y2t(args) -> int:
    cm = cartan.read_cartan_file(args.file)
    if args.level != "unrestricted":
        raise ValueError("the reconstruction exists for unrestricted systems only; "
                         "pass --level unrestricted --mcap N")
    sys_ = build_system(cm, args.level, args.mcap)
    y_table = read_table(args.infile, sys_, "Y")
    rng = derive_rng(args.seed, "y2t")
    if args.roundtrip:
        report, t_table = ysystem.roundtrip_check(y_table, rng=rng, free=args.free,
                                                  retries=args.retries)
        violations = report["mismatches"] + report["claim_violations"]
        extra = {"compared": report["compared"]}
        passed = report["pass"]
    else:
        t_table = ysystem.y_to_t(y_table, rng=rng, free=args.free, retries=args.retries)
        violations = ysystem.claim_identities_check(t_table, y_table)
        extra = {}
        passed = not violations
    if args.out:
        t_table.dump(args.out)
    return _emit({
        "pass": passed,
        "violations": violations,
        "config": _config(args),
        "values": len(t_table),
        **extra,
        **({"written": args.out} if args.out else {}),
    })


def cmd_sys_identities(args) -> int:
    cm = cartan.read_cartan_file(args.file)
    failed = acceptance.telescoping_failures(
        sorted(set(cm.d) | {1, 2, 3}), (-4, 26), derive_rng(args.seed, "identities"))
    violations = [{"relation": f"first identity at p={p}" if which == 1
                   else f"second identity at weight {p}"} for which, p in failed]
    return _emit({"pass": not violations, "violations": violations,
                  "config": _config(args)})


def cmd_cluster_run(args) -> int:
    em = cluster.read_exchange_file(args.file)
    mode = "numeric" if args.numeric else "auto"
    seq = cluster.run_sequence(em, (0, args.steps), mode=mode,
                               rng=derive_rng(args.seed, "cluster-run"))
    payload = seq.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
        payload = {"written": args.out, "mode": seq.mode}
    return _emit({"pass": True, "violations": [], "config": _config(args),
                  "sequence": payload})


def cmd_cluster_verify(args) -> int:
    em = cluster.read_exchange_file(args.file)
    mode = "numeric" if args.numeric else "auto"
    seq = cluster.run_sequence(em, (0, args.steps), mode=mode,
                               rng=derive_rng(args.seed, "cluster-verify"))
    violations = [v for bad in cluster.sequence_checks(seq).values() for v in bad]
    lo, hi = seq.u_range  # T(B) is centred at every node and interior u
    # a numeric run has no Laurent polynomials to certify
    skipped = {"not_checked": ["Laurent"]} if seq.mode == "numeric" else {}
    return _emit({**_checked(violations, em.n * max(hi - lo - 1, 0)),
                  "config": _config(args), "mode": seq.mode, **skipped})


def cmd_cluster_correspond(args) -> int:
    cm = cartan.read_cartan_file(args.file)
    report = cluster.correspondence_check(cm, parse_level(args.level, unrestricted=False),
                                          rng=derive_rng(args.seed, "correspond"))
    report["config"] = _config(args)
    return _emit(report)


def cmd_period_scan(args) -> int:
    cm = cartan.read_cartan_file(args.file)
    sys_ = build_system(cm, args.level, args.mcap)
    window = parse_window(args.window)
    table = ysystem.propagate_y(sys_, window, rng=derive_rng(args.seed, "period"),
                                retries=args.retries)
    period = ysystem.detect_period(table, args.max_period)
    return _emit({
        "pass": period is not None,
        "violations": [] if period is not None else
        [{"relation": f"no period up to {args.max_period}"}],
        "config": _config(args),
        "period": period,
    })


def cmd_verify_all(args) -> int:
    results = acceptance.run_all(seed=args.seed,
                                 echo=lambda line: print(line, file=_sys.stderr))
    report = {
        "pass": all(r["pass"] for r in results),
        "violations": [{"relation": f"criterion {r['id']}: {f}"}
                       for r in results for f in r["failures"]],
        "config": _config(args),
        "criteria": [{"id": r["id"], "name": r["name"], "pass": r["pass"]}
                     for r in results],
    }
    return _emit(report)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _common(p, window_default=None, level=True):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("exact", "numeric"), default="exact")
    p.add_argument("--retries", type=int, default=16)
    if level:
        p.add_argument("--level", default=None, required=True,
                       help="restriction level (integer >= 2) or 'unrestricted'")
        p.add_argument("--mcap", type=int, default=None,
                       help="level cap for unrestricted windows")
    if window_default is not None:
        p.add_argument("--window", default=window_default,
                       help="slice range, e.g. 0..24")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    top = argparse.ArgumentParser(prog="tysys", description=__doc__)
    sub = top.add_subparsers(dest="group", required=True)

    p = sub.add_parser("cartan").add_subparsers(dest="action", required=True) \
        .add_parser("check")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_cartan_check)

    sysgrp = sub.add_parser("sys").add_subparsers(dest="action", required=True)
    for kind, name in (("T", "gen-t"), ("Y", "gen-y")):
        p = sysgrp.add_parser(name)
        p.add_argument("file")
        p.add_argument("--out")
        _common(p, window_default="0..12")
        p.set_defaults(handler=cmd_sys_gen, gen_kind=kind)
    for kind, name in (("T", "solve-t"), ("Y", "solve-y")):
        p = sysgrp.add_parser(name)
        p.add_argument("file")
        p.add_argument("--out")
        _common(p, window_default="0..12")
        p.set_defaults(handler=cmd_sys_solve, solve_kind=kind)
    p = sysgrp.add_parser("t2y")
    p.add_argument("file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    _common(p)
    p.set_defaults(handler=cmd_sys_t2y)
    p = sysgrp.add_parser("y2t")
    p.add_argument("file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--free", choices=("random", "unit"), default="random")
    p.add_argument("--roundtrip", action="store_true")
    _common(p)
    p.set_defaults(handler=cmd_sys_y2t)
    p = sysgrp.add_parser("identities")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_sys_identities)

    clgrp = sub.add_parser("cluster").add_subparsers(dest="action", required=True)
    p = clgrp.add_parser("run")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_cluster_run)
    p = clgrp.add_parser("verify")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_cluster_verify)
    p = clgrp.add_parser("correspond")
    p.add_argument("file")
    p.add_argument("--level", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_cluster_correspond)

    p = sub.add_parser("period").add_subparsers(dest="action", required=True) \
        .add_parser("scan")
    p.add_argument("file")
    p.add_argument("--max-period", type=int, default=24)
    _common(p, window_default="0..30")
    p.set_defaults(handler=cmd_period_scan)

    p = sub.add_parser("verify").add_subparsers(dest="action", required=True) \
        .add_parser("all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_verify_all)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        _sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: end quietly with the status a
        # SIGPIPE gives, 128 + 13, and send what is still buffered, which
        # the interpreter flushes at exit, to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, _sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (TysysError, ValueError, OSError, json.JSONDecodeError) as err:
        print(f"tysys: {err}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    _sys.exit(main())
