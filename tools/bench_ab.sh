#!/bin/sh
# A/B the repository benchmark between two commits.
#
# Usage: tools/bench_ab.sh [-n PAIRS] [-s SECONDS] [-w WORKLOADS] [-t 0|1] BASE HEAD
#
# Checks out BASE and HEAD (any commit-ish) into temporary git worktrees,
# builds perfbench in each, then runs `python3 perfbench/run.py` for
# PAIRS pairs per workload (default 10), alternating which side goes
# first so a drift in host speed hits both sides alike.  Both runs of a
# pair use the same seed (1, 2, ...).  WORKLOADS is a comma-separated
# subset of paper_sweep,gen_large,campaign (default all three); SECONDS
# is passed as --seconds (default 30) and -t as --trace (default 0).
#
# For every workload and metric it prints each side's median and
# quartiles, the change of the medians, and in how many pairs HEAD won
# (direction from HEAD's BENCHMARK.json).  It also prints, per side, the
# tasks attempted and failed.  The worktrees live under ${TMPDIR:-/tmp}
# and are removed on exit, also on failure or interrupt.

set -eu

pairs=10
seconds=30
workloads=paper_sweep,gen_large,campaign
trace=0
while getopts n:s:w:t: opt; do
    case "$opt" in
    n) pairs="$OPTARG" ;;
    s) seconds="$OPTARG" ;;
    w) workloads="$OPTARG" ;;
    t) trace="$OPTARG" ;;
    *) exit 2 ;;
    esac
done
shift $((OPTIND - 1))
if [ $# -ne 2 ]; then
    echo "usage: $0 [-n PAIRS] [-s SECONDS] [-w WORKLOADS] [-t 0|1] BASE HEAD" >&2
    exit 2
fi

repo=$(git rev-parse --show-toplevel)
base_rev=$(git -C "$repo" rev-parse --verify "$1^{commit}")
head_rev=$(git -C "$repo" rev-parse --verify "$2^{commit}")

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
cleanup() {
    for side in base head; do
        if [ -d "$work/$side" ]; then
            git -C "$repo" worktree remove --force "$work/$side" || true
        fi
    done
    rm -rf "$work"
    git -C "$repo" worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM

for side in base head; do
    if [ "$side" = base ]; then rev=$base_rev; else rev=$head_rev; fi
    git -C "$repo" worktree add --detach --quiet "$work/$side" "$rev"
    echo "bench_ab: building $side ($(git -C "$repo" rev-parse --short "$rev"))" >&2
    (cd "$work/$side" && dune build --root . --cache=disabled ./perfbench/bench.exe)
done

python3 - "$work" "$pairs" "$seconds" "$workloads" "$trace" \
    "$(git -C "$repo" rev-parse --short "$base_rev")" \
    "$(git -C "$repo" rev-parse --short "$head_rev")" << 'EOF'
import json, os, statistics, subprocess, sys

work, pairs, seconds, workloads, trace, base_id, head_id = sys.argv[1:]
pairs, workloads = int(pairs), workloads.split(",")
dirs = {"base": os.path.join(work, "base"), "head": os.path.join(work, "head")}

with open(os.path.join(dirs["head"], "BENCHMARK.json")) as f:
    bench = json.load(f)
better = {m["name"]: m["better"]
          for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def run(side, workload, seed):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", trace]
    p = subprocess.run(cmd, cwd=dirs[side], stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("bench_ab: %s %s seed %d failed (exit %d)"
                 % (side, workload, seed, p.returncode))
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def num(v):
    return "%d" % v if float(v).is_integer() else "%.4g" % v


def cell(q):
    return "%s [%s, %s]" % (num(q[1]), num(q[0]), num(q[2]))


print("bench_ab: base %s, head %s, %d pair(s), --seconds %s --trace %s"
      % (base_id, head_id, pairs, seconds, trace))
for workload in workloads:
    docs = {"base": [], "head": []}
    for i in range(pairs):
        seed = i + 1
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            docs[side].append(run(side, workload, seed))
        print("bench_ab: %s pair %d/%d done" % (workload, i + 1, pairs),
              file=sys.stderr, flush=True)
    print()
    print("== %s (%d pairs) ==" % (workload, pairs))
    for side in ("base", "head"):
        print("%s: attempted %d, failed %d, all correct: %s"
              % (side, sum(d["attempted"] for d in docs[side]),
                 sum(d["failed"] for d in docs[side]),
                 all(d["correct"] for d in docs[side])))
    print("%-34s %-30s %-30s %9s %6s" % ("metric", "base median [q1, q3]",
                                        "head median [q1, q3]", "change", "wins"))
    names = [n for n in docs["base"][0]["metrics"] if n in docs["head"][0]["metrics"]]
    for name in names:
        b = [d["metrics"][name]["value"] for d in docs["base"]]
        h = [d["metrics"][name]["value"] for d in docs["head"]]
        higher = better.get(name, "lower") == "higher"
        wins = sum(1 for x, y in zip(b, h) if (y > x if higher else y < x))
        bq, hq = quartiles(b), quartiles(h)
        change = 100.0 * (hq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        print("%-34s %-30s %-30s %+8.1f%% %3d/%d"
              % (name, cell(bq), cell(hq), change, wins, pairs))
EOF
