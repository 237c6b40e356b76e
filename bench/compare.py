"""Compare benchmark results with a baseline, per input and per workload.

    python3 bench/compare.py BASE NEW...
    python3 bench/compare.py --summarize RESULTS... > baseline.json

NEW are results files that `run.py` writes
(`.bench_work/results-<workload>-seed<n>-trace<t>.json`); BASE is such a
file or a summary made by `--summarize`, such as `bench/baseline.json`.
For each input present in both, the latency ratio new/base is printed; per
workload those ratios are averaged with the geometric mean, so a gain on
wide inputs that costs deep ones shows even when the aggregate does not.
End-to-end metrics are compared as ratios of their values (medians, for a
summary).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import defaultdict


def summarize(paths):
    """Per workload: quartiles of each end-to-end metric over the runs,
    median latency of each input, and the per-layer metrics of traced runs."""
    runs = defaultdict(list)
    traced = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            r = json.load(fh)
        (traced if r["trace"] else runs)[r["workload"]].append(r)
    out = {}
    for workload in sorted(set(runs) | set(traced)):
        entry = {"seeds": sorted(r["seed"] for r in runs[workload]),
                 "wrong_verdicts": sum(r["wrong_verdicts"] for r in runs[workload]),
                 "end_to_end": {}, "rows": {}}
        for name in (runs[workload][0]["metrics"] if runs[workload] else ()):
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            q = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
            entry["end_to_end"][name] = {
                "median": q[1], "q1": q[0], "q3": q[2],
                "unit": runs[workload][0]["metrics"][name]["unit"]}
        by_input = defaultdict(list)
        for r in runs[workload]:
            for row in r["rows"]:
                by_input[row["input"]].append(row["latency_ms"])
        entry["rows"] = {k: statistics.median(v) for k, v in sorted(by_input.items())}
        if traced[workload]:
            t = traced[workload][0]
            entry["per_layer"] = {"seed": t["seed"], "metrics": t["metrics"]}
        out[workload] = entry
    return out


def _view(data, workload):
    """(rows, end-to-end values) of one workload from a results file or a
    summary."""
    if "rows" in data and isinstance(data["rows"], list):
        if data["workload"] != workload:
            return None
        rows = {r["input"]: r["latency_ms"] for r in data["rows"]}
        return rows, {k: m["value"] for k, m in data["metrics"].items()}
    entry = data.get("workloads", data).get(workload)
    if entry is None:
        return None
    return entry["rows"], {k: m["median"] for k, m in entry["end_to_end"].items()}


def compare(base, new):
    workload = new["workload"]
    view = _view(base, workload)
    if view is None:
        print(f"{workload}: not in the baseline")
        return
    base_rows, base_metrics = view
    new_rows, new_metrics = _view(new, workload)
    print(f"== {workload} (seed {new['seed']})")
    ratios = []
    for name, ms in new_rows.items():
        if name in base_rows:
            ratio = ms / base_rows[name]
            ratios.append(ratio)
            print(f"  {name:<36} {base_rows[name]:>10.2f} {ms:>10.2f} ms  x{ratio:.3f}")
    if ratios:
        geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        print(f"  latency ratio, geometric mean over {len(ratios)} inputs: x{geo:.3f}")
    for name, value in new_metrics.items():
        if base_metrics.get(name):
            print(f"  {name:<36} {base_metrics[name]:>12.5g} {value:>12.5g}"
                  f"  x{value / base_metrics[name]:.3f}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--summarize", action="store_true",
                   help="print a summary of the given results files")
    p.add_argument("files", nargs="+")
    args = p.parse_args(argv)
    if args.summarize:
        json.dump({"workloads": summarize(args.files)}, sys.stdout, indent=1)
        print()
        return 0
    with open(args.files[0]) as fh:
        base = json.load(fh)
    for path in args.files[1:]:
        with open(path) as fh:
            compare(base, json.load(fh))
    return 0


if __name__ == "__main__":
    sys.exit(main())
