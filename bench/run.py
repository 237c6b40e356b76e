"""Time-to-verdict benchmark for catverify.

One client in one process runs a closed loop: each operation calls
`catverify.cli.main([..., "--json"])` in-process, with stdout captured, on
generated `.async`/`.cat` files, and the next starts only when the verdict
is back. That is the whole user-facing path: parse, compute, print JSON,
exit code. Every verdict is checked against a known answer (see
`inputs.py`, `verdicts.py`) outside the timed region.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each
    python3 bench/run.py --smoke                 # all four at their smallest sizes

The last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` they are the per-layer ones from `spans.py`, plus the tracing
overhead. Inputs, per-input result rows and spans are written under
`.bench_work/` in the checkout. The run exits 1 when a verdict is wrong and
2, printing no result, when the catverify sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

import inputs  # noqa: E402  (sibling modules of this script)
import spans  # noqa: E402
import verdicts  # noqa: E402

SETUP_REPEATS = 3
# reference speed: the speed at which `reference_work` takes this long
REFERENCE_S = 0.010


class OpTimeout(BaseException):
    """Raised by the alarm when an operation exceeds its time limit; a
    BaseException so that no handler inside catverify swallows it."""


def import_catverify():
    """Import catverify afresh from the checkout's `src/`."""
    src = ROOT / "src"
    if not (src / "catverify" / "cli.py").is_file():
        print(f"error: catverify sources not found under {src}", file=sys.stderr)
        sys.exit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules
                 if n == "catverify" or n.startswith("catverify.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("catverify")
    if not Path(package.__file__).resolve().is_relative_to(src):
        print(f"error: imported catverify from {package.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)
    importlib.import_module("catverify.cli")


def reference_work():
    """Fixed pure-Python work (tuples, frozensets, a dict of some 12k
    entries) with no catverify code in it. Its duration tracks how fast the
    machine runs Python at the moment: on a shared machine that changes by
    up to 1.6x within seconds, alike for this loop and for catverify."""
    d = {}
    for i in range(12_000):
        d[(i, "k")] = frozenset((i, i + 1))
    return sum(len(v) for v in d.values())


def calibrate():
    """Collect garbage, then time `reference_work`; the collection also
    gives every operation the same clean start."""
    gc.collect()
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def write_inputs(cases, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    for case in cases:
        case_dir = workdir / case.name
        case_dir.mkdir(parents=True)
        for fname, text in case.files.items():
            (case_dir / fname).write_text(text)
        case.argv = [str(case_dir / a) if a in case.files else a
                     for a in case.argv]


def run_op(case, limit_s):
    """One CLI call: (seconds, status, exit code, stdout)."""
    cli = sys.modules["catverify.cli"]
    out = io.StringIO()

    def on_alarm(signum, frame):
        raise OpTimeout()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    rc, status = None, "ok"
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(case.argv + ["--json"])
    except OpTimeout:
        status = "timeout"
    except (Exception, SystemExit):
        status = "raised"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return elapsed, status, rc, out.getvalue()


def setup(workload, seed, smoke, limit_s):
    """Import catverify, generate and write the inputs, run one warm-up
    operation; return (seconds at reference speed, cases)."""
    before = calibrate()
    start = time.perf_counter()
    import_catverify()
    cases = inputs.make_cases(workload, seed, smoke)
    write_inputs(cases, WORK / f"{workload}-seed{seed}")
    run_op(cases[0], limit_s)
    elapsed = time.perf_counter() - start
    return elapsed * 2 * REFERENCE_S / (before + calibrate()), cases


def measure(cases, seconds, limit_s, tracer=None):
    """Closed loop over whole cycles of the inputs, so every run sees the
    same mix; stops before a cycle would end past `seconds` of measured
    time (after two cycles at least).

    Returns per operation a record (case index, wall seconds, seconds at
    reference speed, Outcome). The time at reference speed scales the wall
    time by REFERENCE_S over the mean of the calibrations just before and
    just after the operation."""
    records, busy = [], 0.0
    cal_before = calibrate()
    while True:
        for i, case in enumerate(cases):
            if tracer is not None:
                tracer.op = len(records)
            elapsed, status, rc, out = run_op(case, limit_s)
            cal_after = calibrate()
            scaled = elapsed * 2 * REFERENCE_S / (cal_before + cal_after)
            cal_before = cal_after
            records.append((i, elapsed, scaled,
                            verdicts.check(case, status, rc, out)))
            busy += elapsed
        cycles = len(records) // len(cases)
        if cycles >= 2 and busy * (cycles + 1) / cycles > seconds:
            return records


def throughput(records, cycle_ops):
    """Cycle size over the median cycle time at reference speed."""
    lat = [r[2] for r in records]
    return cycle_ops / statistics.median(
        sum(lat[i:i + cycle_ops]) for i in range(0, len(lat), cycle_ops))


def end_to_end(records, cycle_ops, setup_s):
    """The end-to-end metrics of an untraced run, times at reference speed."""
    lat = [r[2] for r in records]
    cuts = statistics.quantiles(lat, n=10) if len(lat) > 1 else lat * 9
    n = len(records)
    return {
        "ops_per_s": {"value": throughput(records, cycle_ops), "unit": "1/s"},
        "latency_p50_ms": {"value": cuts[4] * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": cuts[8] * 1e3, "unit": "ms"},
        "decided_ratio": {"value": sum(r[3].decided for r in records) / n,
                          "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def rows(cases, records):
    """One row per input: family, shape, size, median latency, verdict."""
    out = []
    for i, case in enumerate(cases):
        mine = [r for r in records if r[0] == i]
        verdicts_seen = sorted({r[3].verdict for r in mine})
        out.append({
            "input": case.name, "family": case.family, "shape": case.shape,
            "size": case.size, "samples": len(mine),
            "latency_ms": statistics.median(r[2] for r in mine) * 1e3,
            "wall_ms": statistics.median(r[1] for r in mine) * 1e3,
            "samples_ms": [round(r[2] * 1e3, 3) for r in mine],
            "verdict": " | ".join(verdicts_seen),
            "wrong": sum(r[3].wrong for r in mine),
        })
    return out


def run_workload(args):
    WORK.mkdir(exist_ok=True)
    times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        setup_s, cases = setup(args.workload, args.seed, args.smoke,
                               args.op_timeout_s)
        times.append(setup_s)
    if args.workload == "verify":
        for case in cases:
            verdicts.oracle_answers(sys.modules["catverify"], case)

    if args.trace:
        half = args.seconds / 2
        records = measure(cases, half, args.op_timeout_s)
        untraced = throughput(records, len(cases))
        tracer = spans.Tracer()
        tracer.install()
        try:
            records = measure(cases, half, args.op_timeout_s, tracer=tracer)
        finally:
            tracer.uninstall()
        traced = throughput(records, len(cases))
        metrics = tracer.metrics(len(records))
        metrics["tracing.overhead_ops_per_s"] = {
            "value": untraced - traced, "unit": "1/s"}
        metrics["tracing.overhead_share"] = {
            "value": 1 - traced / untraced, "unit": "ratio"}
        tracer.write(WORK / f"spans-{args.workload}.jsonl")
    else:
        records = measure(cases, args.seconds, args.op_timeout_s)
        metrics = end_to_end(records, len(cases), statistics.median(times))

    table = rows(cases, records)
    wrong = sum(r["wrong"] for r in table)
    failed = sum(r[3].failed for r in records)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": len(records), "cycles": len(records) // len(cases),
        "wrong_verdicts": wrong, "failed_ratio": failed / len(records),
        "metrics": metrics, "rows": table,
    }
    name = f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(summary, indent=1))
    print_summary(summary)
    print(json.dumps({"correct": wrong == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 1 if wrong else 0


def print_summary(s):
    print(f"== {s['workload']} (seed {s['seed']}, trace {s['trace']}): "
          f"{s['samples']} operations in {s['cycles']} cycles, closed loop, "
          f"one client")
    print(f"  {'wrong_verdicts':<42} {s['wrong_verdicts']:>14} count")
    print(f"  {'failed_ratio':<42} {s['failed_ratio']:>14.4f} ratio")
    for name, m in s["metrics"].items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'input':<30} {'family':<10} {'size':<8} {'n':>4} "
          f"{'p50 ms':>10}  verdict")
    for r in s["rows"]:
        flag = "  WRONG" if r["wrong"] else ""
        print(f"  {r['input']:<30} {r['family']:<10} {r['size']:<8} "
              f"{r['samples']:>4} {r['latency_ms']:>10.2f}  {r['verdict']}{flag}")


def run_all(args):
    """Each workload in its own process (so peak RSS is its own), in turn."""
    results, code = {}, 0
    for workload in inputs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--op-timeout-s", str(args.op_timeout_s)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, check=False)
        lines = proc.stdout.splitlines()
        has_result = bool(lines) and lines[-1].startswith("{")
        print("\n".join(lines[:-1] if has_result else lines))
        if proc.returncode != 0 or not has_result:
            print(f"{workload}: exit {proc.returncode}")
            code = code or proc.returncode or 1
        if has_result:
            results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values())
        and len(results) == len(inputs.WORKLOADS),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results}))
    return code


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=[*inputs.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=26.0,
                   help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--op-timeout-s", type=float, default=30.0,
                   help="per-operation limit; slower operations are undecided")
    p.add_argument("--smoke", action="store_true",
                   help="smallest inputs, shortest runs, all workloads")
    args = p.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 0.5)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
