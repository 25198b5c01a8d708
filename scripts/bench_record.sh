#!/usr/bin/env bash
# Appends measured runs to BENCH_history.json, the repo's performance
# trajectory. For every workload named and every seed it runs
#
#   bash bench/run.sh --workload W --seed S --trace 0
#
# R times from the root of a checkout, keeps each run's last stdout line
# (one JSON object) and appends one entry to the history file: the
# commit, nproc, the CPU model, the seeds, R, and per workload the
# median, Q1 and Q3 of every end-to-end metric BENCHMARK.json declares.
#
# With -b DIR, DIR is a second checkout, the baseline (usually the parent
# commit). Every run there is paired with one here, the baseline going
# first in odd pairs and second in even ones, and two entries are
# appended: the baseline's, then this checkout's with a "pairs" block —
# per metric, how many pairs this side won, the gap between the
# medians, and the baseline's IQR.
#
# usage: scripts/bench_record.sh [-r R] [-s SEEDS] [-t SECONDS] [-b DIR] [-n NOTE] [-o FILE] WORKLOAD...
#   -r R        runs per workload and seed (default 5)
#   -s SEEDS    comma-separated seeds (default 1)
#   -t SECONDS  passed to run.sh as --seconds (default: run.sh's own, 30)
#   -b DIR      baseline checkout to alternate with
#   -n NOTE     free text stored with this checkout's entry
#   -o FILE     history file (default BENCH_history.json in this checkout)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
runs=5 seeds=1 seconds="" base="" note="" out="$root/BENCH_history.json"
while getopts "r:s:t:b:n:o:" opt; do
	case $opt in
	r) runs=$OPTARG ;;
	s) seeds=$OPTARG ;;
	t) seconds=$OPTARG ;;
	b) base=$(cd "$OPTARG" && pwd) ;;
	n) note=$OPTARG ;;
	o) out=$OPTARG ;;
	*)
		sed -n '2,/^set -/p' "$0" | sed '$d' >&2
		exit 2
		;;
	esac
done
shift $((OPTIND - 1))
if [ $# -eq 0 ]; then
	echo "bench_record: name at least one workload" >&2
	exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# one DIR SIDE W S runs workload W at seed S once in checkout DIR and
# appends the run's last stdout line to $tmp/SIDE/W.jsonl.
one() {
	local args=(--workload "$3" --seed "$4" --trace 0)
	if [ -n "$seconds" ]; then
		args+=(--seconds "$seconds")
	fi
	mkdir -p "$tmp/$2"
	if ! (cd "$1" && bash bench/run.sh "${args[@]}") >"$tmp/stdout" 2>"$tmp/stderr"; then
		cat "$tmp/stderr" >&2
		echo "bench_record: $3 seed $4 failed in $1" >&2
		exit 1
	fi
	tail -n 1 "$tmp/stdout" >>"$tmp/$2/$3.jsonl"
}

IFS=, read -ra seedlist <<<"$seeds"
for w in "$@"; do
	for s in "${seedlist[@]}"; do
		for ((i = 1; i <= runs; i++)); do
			if [ -n "$base" ] && ((i % 2 == 1)); then
				one "$base" base "$w" "$s"
			fi
			one "$root" head "$w" "$s"
			if [ -n "$base" ] && ((i % 2 == 0)); then
				one "$base" base "$w" "$s"
			fi
			echo "bench_record: $w seed $s run $i/$runs" >&2
		done
	done
done

python3 - "$out" "$tmp" "$root" "$base" "$runs" "$seeds" "$note" "$@" <<'PY'
import datetime, json, os, subprocess, sys

out, tmp, root, base, runs, seeds, note, *workloads = sys.argv[1:]
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
better = {m["name"]: m["better"] for m in spec["end_to_end"]}


def quantile(xs, p):
    xs = sorted(xs)
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def commit(d):
    r = subprocess.run(["git", "-C", d, "describe", "--always", "--dirty", "--abbrev=7"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


cpu = "unknown"
with open("/proc/cpuinfo") as f:
    for line in f:
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break


def side(name, d):
    values, entry = {}, {
        "commit": commit(d),
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seeds": [int(s) for s in seeds.split(",")],
        "runs": int(runs),
        "source": "scripts/bench_record.sh",
        "workloads": {},
    }
    for w in workloads:
        lines = [json.loads(l) for l in open(os.path.join(tmp, name, w + ".jsonl")) if l.strip()]
        values[w] = {m: [l["metrics"][m]["value"] for l in lines] for m in better
                     if all(m in l["metrics"] for l in lines)}
        entry["workloads"][w] = {"failed": sum(l["failed"] for l in lines)}
        for m, xs in values[w].items():
            entry["workloads"][w][m] = {k: round(quantile(xs, p), 6)
                                        for k, p in (("median", 0.5), ("q1", 0.25), ("q3", 0.75))}
    return entry, values


entries = []
head, head_values = side("head", root)
if note:
    head["note"] = note
if base:
    baseline, base_values = side("base", base)
    entries.append(baseline)
    head["baseline"] = baseline["commit"]
    head["pairs"] = {}
    for w in workloads:
        head["pairs"][w] = {}
        for m, xs in head_values[w].items():
            ys = base_values[w].get(m)
            if ys is None:
                continue
            sign = 1 if better[m] == "higher" else -1
            wins = sum(1 for x, y in zip(xs, ys) if sign * (x - y) > 0)
            gap = quantile(xs, 0.5) - quantile(ys, 0.5)
            iqr = quantile(ys, 0.75) - quantile(ys, 0.25)
            head["pairs"][w][m] = {"wins": wins, "of": len(xs), "median_gap": round(gap, 6),
                                   "base_iqr": round(iqr, 6)}
            print(f"bench_record: {w} {m}: {wins}/{len(xs)} pairs won, median gap {gap:+.6g}, "
                  f"baseline IQR {iqr:.6g}", file=sys.stderr)
entries.append(head)

history = {"entries": []}
if os.path.exists(out):
    history = json.load(open(out))
history["entries"].extend(entries)
with open(out + ".tmp", "w") as f:
    json.dump(history, f, indent=1)
    f.write("\n")
os.replace(out + ".tmp", out)
PY
