"""g2kit benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload cayley-quotients --seed 1 \\
        --seconds 30 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  A run is single-process, single-threaded and closed
loop: it runs the workload's items in pass order, one after the other,
until every item has run and at least --seconds have elapsed.  wall_s and
cpu_s estimate one whole pass from the median calibrated time of each kind
of item (see calibration.py).  Every verdict is checked; a wrong verdict
or a raised error counts as a failed verification and makes the exit
code 1.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass
and then one traced pass, and prints the per-layer metrics and the tracing
overhead.  The last stdout line is the result object; the line before it
records the environment, and the full record with every sample is written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("cayley-quotients", "desk-suites", "modp-symplectic")
# fresh interpreters timed for setup_s; one, for the input-hash check only,
# in tiny and traced runs, which do not report setup_s
SETUP_PROBES = 9


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few cheap items and one set-up probe (self-tests)")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import, build the inputs and warm up; print "
                         "the input hash")
    return ap.parse_args(argv)


def import_library():
    """Import g2kit from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "g2kit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no g2kit sources under {src}")
    sys.path.insert(0, str(src))
    import g2kit
    if Path(g2kit.__file__).resolve().parent != src / "g2kit":
        raise SystemExit(f"perfbench: imported g2kit from {g2kit.__file__}")


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, wl):
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numpy": numpy_version,
        "params": wl.params,
        "seed": args.seed,
        "git_commit": git_commit(),
        "input_hash": wl.input_hash(),
    }


def setup_probe(args):
    """Calibrated wall time of a fresh interpreter that imports g2kit,
    builds the workload's inputs and makes the warm-up call; returns
    (seconds, input hash).  The probe times the calibration kernel itself,
    on its own CPU, and its time is scaled by that speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"] + (["--tiny"] if args.tiny else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    t1 = time.perf_counter()
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    digest, kernel_s, kernel_total_s = proc.stdout.split()[-3:]
    return ((t1 - t0 - float(kernel_total_s))
            * calibration.REFERENCE_S / float(kernel_s), digest)


def run_item(item):
    """The item's verdicts as [(item, label, ok)]; an error is one failed
    verdict."""
    try:
        return [(item.name, label, bool(ok)) for label, ok in item.run()]
    except Exception as exc:  # a raised error is a failed verification
        return [(item.name, f"raised {type(exc).__name__}: {exc}", False)]


def measure(items, seconds, speed, tracer=None):
    """Closed loop over the items in pass order, one at a time, until every
    item has run and at least `seconds` have elapsed.  Returns
    ({kind: [(raw wall, raw cpu, calibrated wall, calibrated cpu)]},
    [verdicts of each pass, the last maybe partial])."""
    spans, passes = [], []
    start = time.perf_counter()
    k = 0
    while k < len(items) or time.perf_counter() - start < seconds:
        index = k % len(items)
        if index == 0:
            passes.append([])
            gc.collect()
        if tracer is not None:
            tracer.item = index
        item = items[index]
        w0, c0 = time.perf_counter(), time.process_time()
        passes[-1] += run_item(item)
        spans.append((item.kind, w0, time.perf_counter(),
                      time.process_time() - c0))
        k += 1
    times = defaultdict(list)
    for kind, w0, w1, cpu in spans:
        times[kind].append((w1 - w0, cpu)
                           + speed.calibrate(w0, w1, w1 - w0, cpu))
    return times, passes


def check_verdicts(passes):
    """(attempted, failed verdicts, stable) over all passes; stable means
    every pass, traced or not, gave the first pass's verdicts."""
    attempted = sum(len(v) for v in passes)
    bad = [v for verdicts in passes for v in verdicts if not v[2]]
    stable = all(v == passes[0][:len(v)] for v in passes)
    return attempted, bad, stable


def pass_estimate(items, times, field):
    """Time of one whole pass: each kind's median item time (field of the
    measure() tuples) times the number of items of that kind in a pass."""
    count = Counter(item.kind for item in items)
    return sum(n * statistics.median(t[field] for t in times[kind])
               for kind, n in count.items())


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import workloads

    if args.setup_probe:
        kernel_times = calibration.kernel_times()
        wl = workloads.BY_NAME[args.workload](args.seed, args.tiny)
        wl.warmup()
        kernel_times += calibration.kernel_times()
        print(wl.input_hash(), statistics.median(kernel_times),
              sum(kernel_times))
        return 0

    with calibration.SpeedSampler() as speed:
        probes = [setup_probe(args) for _ in range(
            1 if args.tiny or args.trace else SETUP_PROBES)]
        wl = workloads.BY_NAME[args.workload](args.seed, args.tiny)
        wl.warmup()
        record = {"workload": args.workload, "trace": args.trace,
                  "env": environment(args, wl)}
        same_inputs = all(h == record["env"]["input_hash"] for _, h in probes)

        if args.trace:
            import tracer
            times, passes = measure(wl.items, 0, speed)
            tr = tracer.Tracer()
            t0 = time.perf_counter()
            with tr:
                traced_times, traced_passes = measure(wl.items, 0, speed, tr)
            factor = speed.factor(t0, time.perf_counter())
            passes += traced_passes
            untraced, traced = (sum(t[2] for ts in tt.values() for t in ts)
                                for tt in (times, traced_times))
            OUT_DIR.mkdir(exist_ok=True)
            tr.write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.tsv")
            # layer times are calibrated like the pass times
            metrics = {k: (v * factor if u == "s" else v, u)
                       for k, (v, u) in tr.metrics().items()}
            metrics["trace.untraced_wall_s"] = (untraced, "s")
            metrics["trace.wall_s"] = (traced, "s")
            metrics["trace.overhead_s"] = (traced - untraced, "s")
            record["absent_targets"] = tr.absent
        else:
            times, passes = measure(wl.items, args.seconds, speed)
            metrics = {
                "wall_s": (pass_estimate(wl.items, times, 2), "s"),
                "cpu_s": (pass_estimate(wl.items, times, 3), "s"),
                "setup_s": (statistics.median(dt for dt, _ in probes), "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "MB"),
            }
            record["raw_wall_s"] = pass_estimate(wl.items, times, 0)
        record["slowdown"] = speed.slowdown()
        record["samples"] = {
            "setup_s": [dt for dt, _ in probes],
            "calibration": speed.samples,
            "items": {kind: [[round(x, 6) for x in t] for t in ts]
                      for kind, ts in times.items()}}
        record["item_timings"] = sum(len(ts) for ts in times.values())

    attempted, bad, stable = check_verdicts(passes)
    correct = not bad and stable and same_inputs
    record.update({
        "passes": len(passes), "attempted": attempted, "failed": len(bad),
        "failed_share": len(bad) / attempted, "failures": bad[:20],
        "verdicts_stable": stable, "probe_inputs_match": same_inputs,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": {k: v for k, v in record.items()
                                 if k != "samples"}}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(bad), "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
