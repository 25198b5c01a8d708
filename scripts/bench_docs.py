#!/usr/bin/env python3
"""Rewrites README.md's footprint numbers from BENCH_history.json.

The block between the two bench-docs marker comments in README.md is
generated: per workload, the heap_mb median, Q1 and Q3 of the newest
entry scripts/bench_record.sh appended for it (its runs, seeds and
commit with them), and the expected resident bytes at 1M and 10M
records, scaled linearly from serve-lsh-hit's median over its corpus.
Nothing else in the file changes. Run it after appending to the history
(`make bench-docs`); CI runs it and fails if README.md then differs.

usage: scripts/bench_docs.py [HISTORY [README]]
"""
import json
import os
import sys

BEGIN = "<!-- bench-docs:footprint begin -->"
END = "<!-- bench-docs:footprint end -->"
WORKLOADS = ["serve-lsh-hit", "serve-exact-scan", "cluster-r2-mixed"]
SCALED = "serve-lsh-hit"  # the workload the 1M / 10M rows scale from
SCALED_RECORDS = 50_000  # its corpus (bench/run.go)


def newest(entries, workload):
    for e in reversed(entries):
        if e.get("source") == "scripts/bench_record.sh" and "heap_mb" in e["workloads"].get(workload, {}):
            return e
    sys.exit(f"bench_docs: no scripts/bench_record.sh entry measures heap_mb on {workload}")


def render(entries):
    per_record = newest(entries, SCALED)["workloads"][SCALED]["heap_mb"]["median"] * 1e6 / SCALED_RECORDS
    lines = [
        BEGIN,
        "| records | resident (prefilter + postings + names) | segment bytes (disk / page cache) |",
        "|---:|---:|---:|",
    ]
    for n, label in ((1_000_000, "1M"), (10_000_000, "10M")):
        lines.append(f"| {label} | ~{per_record * n / 1e9:.2g} GB | ~{n // 1_000_000} GB |")
    records = f"{SCALED_RECORDS:_}".replace("_", " ")
    lines += [
        "",
        "`heap_mb` (MB of live heap held after set-up; see `bench/README.md`)",
        "as the newest `scripts/bench_record.sh` entry for each workload in",
        f"`BENCH_history.json` measured it. The rows above are `{SCALED}`'s",
        f"median over its {records} records, {per_record:.0f} B a record, scaled linearly.",
        "",
        "| workload | median | Q1 | Q3 | runs | seeds | commit |",
        "|---|---:|---:|---:|---:|---|---|",
    ]
    for w in WORKLOADS:
        e = newest(entries, w)
        h = e["workloads"][w]["heap_mb"]
        seeds = ", ".join(str(s) for s in e["seeds"])
        lines.append(f"| `{w}` | {h['median']:.2f} | {h['q1']:.2f} | {h['q3']:.2f} | {e['runs']} | {seeds} | `{e['commit']}` |")
    lines.append(END)
    return "\n".join(lines)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    history = sys.argv[1] if len(sys.argv) > 1 else os.path.join(root, "BENCH_history.json")
    readme = sys.argv[2] if len(sys.argv) > 2 else os.path.join(root, "README.md")
    text = open(readme).read()
    start, stop = text.find(BEGIN), text.find(END)
    if start < 0 or stop < start:
        sys.exit(f"bench_docs: {readme} has no {BEGIN} ... {END} block")
    block = render(json.load(open(history))["entries"])
    with open(readme, "w") as f:
        f.write(text[:start] + block + text[stop + len(END):])


if __name__ == "__main__":
    main()
