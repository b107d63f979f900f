#!/usr/bin/env python3
"""tysys benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
src/ directory.  Workloads: lattice_periodic, lattice_growth, cluster_belt,
cluster_correspond (see workloads.py).  One pass runs every operation of the
workload once; passes repeat while another one, as long as the last, still
fits in S seconds (there is always at least one).

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced passes (another pair only while it
fits in S seconds) and prints the per-layer metrics of the traced ones, plus
the MIXED44 growth curve on lattice_growth.  Either way the last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it holds the details (raw and corrected pass times, set-up samples,
failed operations, known-failure probes, tracer self-test).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_LOOP_S, SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path("bench") / ".work"
BASELINE = BENCH / "baseline.json"
SETUP_SAMPLES = 5
PROBE_INTERVAL = 0.05  # seconds between speed samples during passes
SETUP_PROBE_INTERVAL = 0.005  # set-up takes a fraction of a second


def _import_library():
    src = ROOT / "src"
    if not (src / "tysys" / "__init__.py").is_file():
        sys.exit(f"run.py: no library sources at {src}/tysys; run from a "
                 "tysys source checkout")
    sys.path.insert(0, str(src))
    import tysys

    if Path(tysys.__file__).resolve().parent != (src / "tysys").resolve():
        sys.exit(f"run.py: imported tysys from {tysys.__file__}, not {src}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the workload, print 'ready' and "
                        "the mean speed-probe seconds, exit")
    p.add_argument("--record", action="store_true",
                   help="store this run's output digests in baseline.json")
    return p.parse_args(argv)


def _setup_samples(args):
    """(seconds, mean probe seconds) per fresh interpreter, from spawning it
    to its first operation being ready: interpreter start, import tysys, and
    building the inputs.  The child samples its own speed while it works."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.communicate()
        word, _, probe = line.partition(" ")
        if word != "ready" or child.returncode != 0:
            sys.exit(f"run.py: set-up child failed with code {child.returncode}")
        samples.append((ready - start, float(probe)))
    return samples


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def _run_pass(ops, tracer=None):
    """Run every operation once; returns (start, end, raw results)."""
    raws = []
    gc.collect()
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        try:
            raws.append((op.run(), None))
        except Exception as exc:  # an operation that raises has failed
            raws.append((None, f"{type(exc).__name__}: {str(exc)[:200]}"))
    return start, time.perf_counter(), raws


class Tally:
    """Outcome of every operation across the passes of one run."""

    def __init__(self, workload, seed, n_ops):
        from outputs import digest, sizes

        self._digest, self._sizes = digest, sizes
        self.attempted = self.failed = 0
        self.failures = []
        self.bits = self.terms = 0
        self.reference = None
        stored = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        per_seed = stored.get("digests", {}).get(workload, {})
        self.baseline = per_seed.get(str(seed), per_seed.get("*"))
        if self.baseline is not None:
            self.baseline = self.baseline.split()
        if self.baseline is not None and len(self.baseline) != n_ops:
            sys.exit(f"run.py: baseline holds {len(self.baseline)} digests "
                     f"for {n_ops} operations")

    def add_pass(self, ops, raws, label):
        """Verify one pass; returns (checks made, digests)."""
        checks = 0
        digests = []
        for op, (raw, error) in zip(ops, raws):
            self.attempted += 1
            if error is None:
                ok, note, op_checks, outputs, sized = op.verify(raw)
                digests.append(self._digest(outputs))
                bits, terms = self._sizes(sized)
                self.bits = max(self.bits, bits)
                self.terms = max(self.terms, terms)
                checks += op_checks
            else:
                ok, note = False, error
                digests.append(None)
            index = len(digests) - 1
            if ok and self.baseline and digests[index] != self.baseline[index]:
                ok, note = False, "output differs from the seed-commit baseline"
            if ok and self.reference is not None and digests[index] != self.reference[index]:
                ok, note = False, f"output differs from the first pass ({label})"
            if not ok:
                self.failed += 1
                self.failures.append({"op": op.name, "pass": label, "note": note})
        if self.reference is None:
            self.reference = digests
        return checks, digests


def _measure(args, workload, tally, probe, detail):
    windows, checks = [], []
    start = time.perf_counter()
    while not windows or (time.perf_counter() - start
                          + windows[-1][1] - windows[-1][0] <= args.seconds):
        t0, t1, raws = _run_pass(workload.ops)
        pass_checks, _ = tally.add_pass(workload.ops, raws, f"pass {len(windows)}")
        del raws  # keep one pass of outputs alive at a time
        windows.append((t0, t1))
        checks.append(pass_checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe.stop()
    corrected = [probe.corrected(t0, t1) for t0, t1 in windows]
    wall = statistics.median(corrected)
    detail["raw_pass_s"] = [t1 - t0 for t0, t1 in windows]
    detail["corrected_pass_s"] = corrected
    return {
        "wall_s": (wall, "s"),
        "checks_per_s": (statistics.median(checks) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "max_value_bits": (tally.bits, "bits"),
        "max_terms": (tally.terms, "count"),
        "ok_ratio": (1 - tally.failed / tally.attempted, "ratio"),
    }


def _measure_traced(args, workload, tally, probe, build):
    from tracer import OVERHEAD, UNITS, Tracer

    tracer = Tracer()
    plain, traced, per_pass = [], [], []
    problems, missing = [], set()
    start = time.perf_counter()
    while not plain or (time.perf_counter() - start + plain[-1][1] - plain[-1][0]
                        + traced[-1][1] - traced[-1][0] <= args.seconds):
        t0, t1, raws = _run_pass(workload.ops)
        _, digests = tally.add_pass(workload.ops, raws, f"untraced {len(plain)}")
        plain.append((t0, t1))
        tracer.install()
        tracer.op = -1
        try:
            build()  # set-up under the tracer, recorded with operation id -1
            t0, t1, raws = _run_pass(workload.ops, tracer)
        finally:
            tracer.uninstall()
        _, traced_digests = tally.add_pass(workload.ops, raws, f"traced {len(traced)}")
        traced.append((t0, t1))
        if traced_digests != digests:
            problems.append("traced and untraced passes differ in their outputs")
        stats, calls = tracer.stats()
        per_pass.append(stats)
        found, absent = tracer.self_test(args.workload, calls)
        problems += found
        missing |= set(absent)
        del raws
    probe.stop()
    tracer.write(WORK / f"spans-{args.workload}.tsv")
    metrics = {}
    for name in per_pass[0]:
        unit = UNITS[name.rsplit(".", 1)[1]]
        metrics[name] = (statistics.median(p[name] for p in per_pass), unit)
    metrics[OVERHEAD] = (
        statistics.median(probe.corrected(t0, t1) for t0, t1 in traced)
        - statistics.median(probe.corrected(t0, t1) for t0, t1 in plain), "s")
    return {"problems": problems[:20], "layers_without_calls": sorted(missing),
            "untraced_raw_s": [t1 - t0 for t0, t1 in plain],
            "traced_raw_s": [t1 - t0 for t0, t1 in traced]}, metrics


def _record(workload_name, seed, digests):
    from workloads import SEEDLESS

    stored = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    key = "*" if workload_name in SEEDLESS else str(seed)
    stored.setdefault("digests", {}).setdefault(workload_name, {})[key] = " ".join(digests)
    BASELINE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    args = _parse(argv)
    if args.setup_only:
        setup_probe = SpeedProbe(SETUP_PROBE_INTERVAL)
        setup_probe.start()
    os.chdir(ROOT)
    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    WORK.mkdir(parents=True, exist_ok=True)

    def build():
        return WORKLOADS[args.workload](args.seed, WORK)

    if args.setup_only:
        build()
        setup_probe.stop()
        print(f"ready {setup_probe.mean()!r}", flush=True)
        return 0

    setup = _setup_samples(args) if args.trace == 0 else []
    workload = build()
    tally = Tally(args.workload, args.seed, len(workload.ops))
    detail = {"workload": args.workload, "seed": args.seed,
              "baseline": "stored" if tally.baseline else "absent"}
    probe = SpeedProbe(PROBE_INTERVAL)
    workload.capture.install()
    probe.start()
    try:
        if args.trace:
            detail["tracer_selftest"], metrics = _measure_traced(
                args, workload, tally, probe, build)
        else:
            metrics = _measure(args, workload, tally, probe, detail)
            corrected = [raw * REFERENCE_LOOP_S / mean for raw, mean in setup]
            metrics["setup_s"] = (statistics.median(corrected), "s")
            detail["setup_raw_s"] = [raw for raw, _ in setup]
            detail["setup_corrected_s"] = corrected
    finally:
        probe.stop()
        workload.capture.uninstall()
    if args.record and tally.failed == 0:
        _record(args.workload, args.seed, tally.reference)

    from probes import growth_curve, known_failures

    detail["known_failures"] = known_failures(WORK)
    if args.workload == "lattice_growth" and args.trace:
        detail["growth_curve"] = growth_curve(args.seed)
    detail["failures"] = tally.failures[:20]
    selftest_ok = not detail.get("tracer_selftest", {}).get("problems")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0 and selftest_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
