#!/usr/bin/env python3
"""Build and compare the repository benchmark's trajectory records.

A BENCH_<workload>.json file at the repo root holds one record per
measured tree: the git sha, the host fingerprint perfbench prints, the
seeds, and for every metric its median, quartiles and run count.

Usage:
  bench_compare.py record --label L --git-sha SHA [--note TEXT] RUN.txt...
      Prints a record (JSON) built from perfbench/run.py outputs of one
      tree and one workload (each RUN.txt is one run's full stdout).
  bench_compare.py append BENCH.json RECORD.json
      Appends a record to a trajectory file, creating it if needed.
  bench_compare.py compare BENCH.json [--base LABEL] [--head LABEL]
                   [--benchmark BENCHMARK.json]
      Diffs two records (default: the last two) over the end-to-end
      metrics BENCHMARK.json declares, plus every per-layer metric both
      records hold. A delta is flagged when it exceeds the metric's bound
      in BENCHMARK.json ("BOUND", worse; "GAIN", better) or, for metrics
      without a bound, the base record's spread (the interquartile range
      relative to the median; "SPREAD"). Exits 1 if an end-to-end metric
      is worse by more than its bound.

Standard library only, like check_metrics_schema.py.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_run(path):
    """The fingerprint, workload, seed and metric values of one run."""
    run = {"metrics": {}, "units": {}}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "host":
                run["host"] = dict(p.split("=", 1) for p in parts[1:] if "=" in p)
            elif parts[0] == "workload":
                run["workload"] = parts[1]
                for p in parts[2:]:
                    key, _, value = p.partition("=")
                    run[key] = value
            elif parts[0] in ("metric", "layer") and len(parts) >= 3:
                try:
                    run["metrics"][parts[1]] = float(parts[2])
                except ValueError:
                    continue
                run["units"][parts[1]] = parts[3] if len(parts) > 3 else ""
            elif line.startswith("{") and '"correct"' in line:
                run["correct"] = json.loads(line).get("correct", False)
    return run


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def make_record(args):
    runs = [parse_run(p) for p in args.runs]
    workloads = {r.get("workload") for r in runs}
    if len(workloads) != 1:
        sys.exit(f"runs mix workloads: {sorted(map(str, workloads))}")
    hosts = {json.dumps(r.get("host", {}), sort_keys=True) for r in runs}
    if len(hosts) != 1:
        sys.exit("runs come from different host fingerprints or sources")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    metrics = {}
    for name in names:
        if not any(name in r["metrics"] for r in runs):
            continue
        values = [r["metrics"][name] for r in runs if name in r["metrics"]]
        q1, q3 = quartiles(values)
        figure = lambda v: float(f"{v:.6g}")
        metrics[name] = {
            "unit": next(r["units"][name] for r in runs if name in r["units"]),
            "median": figure(statistics.median(values)),
            "q1": figure(q1),
            "q3": figure(q3),
            "min": figure(min(values)),
            "max": figure(max(values)),
            "n": len(values),
        }
    record = {
        "label": args.label,
        "git_sha": args.git_sha,
        "host": runs[0].get("host", {}),
        "workload": workloads.pop(),
        "seconds": int(runs[0].get("seconds", 0)),
        "seeds": sorted(int(r["seed"]) for r in runs if "seed" in r),
        "all_correct": all(r.get("correct", False) for r in runs),
        "backfilled": False,
        "metrics": metrics,
    }
    if args.note:
        record["note"] = args.note
    json.dump(record, sys.stdout, indent=2)
    print()


def append_record(args):
    with open(args.record) as f:
        record = json.load(f)
    data = {"workload": record["workload"], "records": []}
    if os.path.exists(args.bench):
        with open(args.bench) as f:
            data = json.load(f)
    if data["workload"] != record["workload"]:
        sys.exit(f"{args.bench} holds {data['workload']}, record is {record['workload']}")
    data["records"].append(record)
    with open(args.bench, "w") as f:
        f.write(dumps(data))


def dumps(data):
    """JSON with one line per record field and per metric."""
    def one(value):
        return json.dumps(value, sort_keys=False)
    out = ["{", f'  "workload": {one(data["workload"])},', '  "records": [']
    for i, record in enumerate(data["records"]):
        out.append("    {")
        fields = [k for k in record if k != "metrics"]
        for k in fields:
            out.append(f"      {one(k)}: {one(record[k])},")
        out.append('      "metrics": {')
        names = list(record["metrics"])
        for j, name in enumerate(names):
            comma = "," if j + 1 < len(names) else ""
            out.append(f"        {one(name)}: {one(record['metrics'][name])}{comma}")
        out.append("      }")
        out.append("    }" + ("," if i + 1 < len(data["records"]) else ""))
    out.append("  ]")
    out.append("}")
    return "\n".join(out) + "\n"


def find(records, label):
    for r in records:
        if r["label"] == label:
            return r
    sys.exit(f"no record labelled {label!r}")


def compare(args):
    with open(args.bench) as f:
        records = json.load(f)["records"]
    if len(records) < 2 and not (args.base and args.head):
        sys.exit("need two records to compare")
    base = find(records, args.base) if args.base else records[-2]
    head = find(records, args.head) if args.head else records[-1]
    with open(args.benchmark) as f:
        declared = json.load(f)
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    def machine(record):  # the fingerprint without the source digest
        return {k: v for k, v in record["host"].items() if k != "source"}
    if machine(base) != machine(head):
        print(f"warning: hosts differ ({machine(base)} vs {machine(head)})")

    print(f"{base['workload']}: {base['label']} -> {head['label']}")
    print(f"{'metric':30} {'base':>12} {'head':>12} {'delta':>8} {'spread':>7}  flag")
    regressions = 0
    names = [n for n in bounds if n in base["metrics"] and n in head["metrics"]]
    names += sorted(n for n in base["metrics"] if n in head["metrics"] and n not in bounds)
    for name in names:
        b, h = base["metrics"][name], head["metrics"][name]
        if b["median"] == 0:
            continue
        delta = (h["median"] - b["median"]) / abs(b["median"])
        spread = (b["q3"] - b["q1"]) / abs(b["median"])
        direction = better.get(name)
        worse = (direction == "lower" and delta > 0) or (direction == "higher" and delta < 0)
        flag = ""
        if name in bounds and abs(delta) > bounds[name]["bound"]:
            flag = "BOUND" if worse else "GAIN"
            regressions += worse
        elif name not in bounds and abs(delta) > spread and direction:
            flag = "SPREAD" + (" (worse)" if worse else " (better)")
        print(f"{name:30} {b['median']:12.6g} {h['median']:12.6g} {delta:+8.1%} {spread:7.1%}  {flag}")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--label", required=True)
    rec.add_argument("--git-sha", required=True)
    rec.add_argument("--note")
    rec.add_argument("runs", nargs="+")
    app = sub.add_parser("append")
    app.add_argument("bench")
    app.add_argument("record")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("bench")
    cmp_.add_argument("--base")
    cmp_.add_argument("--head")
    cmp_.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    if args.cmd == "record":
        make_record(args)
    elif args.cmd == "append":
        append_record(args)
    else:
        sys.exit(compare(args))


if __name__ == "__main__":
    main()
