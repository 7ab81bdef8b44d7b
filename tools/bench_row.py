#!/usr/bin/env python3
"""Maintain BENCH_perf.json, the append-only perf trajectory at the repo root.

  tools/bench_row.py append BENCH_perf.json --pr N --label parent|change \\
      --commit HASH [--note TEXT] RUNS.jsonl...
  tools/bench_row.py check OLD.json NEW.json

`append` folds the JSON lines `fncc-bench --out` wrote (one per invocation)
into one row: per workload and end-to-end metric the median, quartiles and
run count, and from traced invocations the per-layer readings (medians).
`check` exits 1 unless NEW parses and OLD's rows are a prefix of NEW's.
"""
import argparse
import json
import os
import statistics
import sys

SCHEMA = "fncc.bench_perf/v1"


def spread(values):
    q1, med, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1
        else [values[0]] * 3
    )
    return {"median": sig(med), "q1": sig(q1), "q3": sig(q3), "n": len(values)}


def sig(x):
    """Six significant digits: beyond any host time's repeatability."""
    return float(f"{x:.6g}")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA or not isinstance(doc.get("rows"), list):
        sys.exit(f"{path}: not a {SCHEMA} document")
    return doc


def dump(doc, path):
    # One row per line, so a PR's diff is the lines it appended.
    rows = ",\n".join(json.dumps(r, sort_keys=True) for r in doc["rows"])
    with open(path, "w") as f:
        f.write('{"schema": "%s", "rows": [\n%s\n]}\n' % (SCHEMA, rows))


def append(args):
    end_to_end, per_layer, seeds = {}, {}, {}
    for path in args.runs:
        with open(path) as f:
            for line in filter(str.strip, f):
                rec = json.loads(line)
                if not rec["result"]["correct"]:
                    sys.exit(f"{path}: incorrect {rec['workload']} invocation")
                into = per_layer if rec["trace"] else end_to_end
                for name, m in rec["result"]["metrics"].items():
                    into.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
                if not rec["trace"]:
                    seeds.setdefault(rec["workload"], []).append(rec["seed"])
    row = {
        "pr": args.pr,
        "label": args.label,
        "commit": args.commit,
        "note": args.note,
        "box": f"{os.cpu_count()} vCPU",
        "workloads": {
            w: {"seeds": seeds[w], **{k: spread(v) for k, v in ms.items()}}
            for w, ms in end_to_end.items()
        },
        "per_layer": {
            w: {k: sig(statistics.median(v)) for k, v in ms.items()}
            for w, ms in per_layer.items()
        },
    }
    doc = load(args.file) if os.path.exists(args.file) else {"schema": SCHEMA, "rows": []}
    doc["rows"].append(row)
    dump(doc, args.file)


def check(args):
    old, new = load(args.old)["rows"], load(args.new)["rows"]
    if new[: len(old)] != old:
        sys.exit(f"{args.new}: rows of {args.old} were edited or removed; rows only append")
    print(f"{args.new}: {len(new)} rows, {len(new) - len(old)} appended")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    a = sub.add_parser("append")
    a.add_argument("file")
    a.add_argument("--pr", type=int, required=True)
    a.add_argument("--label", required=True)
    a.add_argument("--commit", required=True)
    a.add_argument("--note", default="")
    a.add_argument("runs", nargs="+")
    a.set_defaults(run=append)
    c = sub.add_parser("check")
    c.add_argument("old")
    c.add_argument("new")
    c.set_defaults(run=check)
    args = ap.parse_args()
    args.run(args)


if __name__ == "__main__":
    main()
