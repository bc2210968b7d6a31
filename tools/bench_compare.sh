#!/bin/sh
# Append one JSON line of per-commit aggregates of a BENCH_results.json
# sweep (totals plus the Table-5 mean percentage changes per machine) to
# TREND.jsonl (default BENCH_trend.jsonl), building the longitudinal
# record that `jumprepc report` and ad-hoc plotting consume.  Comparing
# two sweeps is `jumprepc report --compare OLD.json NEW.json`.
#
# Usage: tools/bench_compare.sh --trend [--no-gate] RESULTS.json [TREND.jsonl]
#
# The commit id comes from git, with "-dirty" appended when the working
# tree differs from HEAD, or from $TREND_COMMIT when set (tests use this
# to fabricate deterministic rows).
#
# When $TREND_WALL_S is set (the sweep's wall-clock seconds, measured by
# the caller), $TREND_PARENT_WALL_S must be set too: the parent commit's
# wall time for the same sweep, measured in the same interleaved session
# (one variable without the other is a usage error, exit 2).  The row
# records both and the gate fires: a wall time more than 15% over the
# parent's fails with exit 1, so a perf regression trips the commit it
# lands on.  Rows from other days are never the reference: on a shared
# host their drift alone can exceed the threshold.  --no-gate still
# records the row but never fails — the escape hatch for machines with
# known-unstable timing.

set -eu

usage() {
    echo "usage: $0 --trend [--no-gate] RESULTS.json [TREND.jsonl]" >&2
    exit 2
}

[ "${1:-}" = "--trend" ] || usage
shift
gate=1
if [ "${1:-}" = "--no-gate" ]; then
    gate=0
    shift
fi
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    usage
fi
if [ "${TREND_WALL_S+set}" != "${TREND_PARENT_WALL_S+set}" ]; then
    echo "$0: TREND_WALL_S and TREND_PARENT_WALL_S go together: the gate" \
        "compares a sweep with its parent measured alongside" >&2
    usage
fi
results="$1"
trend="${2:-BENCH_trend.jsonl}"
if [ -n "${TREND_COMMIT:-}" ]; then
    commit="$TREND_COMMIT"
elif commit=$(git rev-parse --short HEAD 2>/dev/null); then
    git diff --quiet HEAD 2>/dev/null || commit="$commit-dirty"
else
    commit=unknown
fi
exec python3 - "$results" "$trend" "$commit" "$gate" << 'EOF'
import json, os, sys, time

results_path, trend_path, commit = sys.argv[1], sys.argv[2], sys.argv[3]
gate = sys.argv[4] == "1"
with open(results_path) as f:
    doc = json.load(f)
results = doc.get("results", [])

def change(now, base):
    return 100.0 * (now - base) / max(1, base)

row = {
    "commit": commit,
    "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    # Which execution engine produced the sweep (older documents predate
    # the label and were measured by the decoded interpreter).
    "engine": doc.get("engine", "decoded"),
    "measurements": len(results),
    "failures": len(doc.get("failures", [])),
}
for field in ("static_instrs", "static_ujumps", "dyn_instrs", "dyn_ujumps"):
    row[field] = sum(r[field] for r in results)

wall_s = os.environ.get("TREND_WALL_S")
if wall_s is not None:
    row["wall_s"] = round(float(wall_s), 3)
    row["parent_wall_s"] = round(float(os.environ["TREND_PARENT_WALL_S"]), 3)

# Table-5 means: average of per-program percentage changes vs SIMPLE.
by = {(r["program"], r["level"], r["machine"]): r for r in results}
for machine in sorted({r["machine"] for r in results}):
    progs = sorted({r["program"] for r in results if r["machine"] == machine})
    progs = [p for p in progs
             if all((p, lvl, machine) in by for lvl in ("SIMPLE", "LOOPS", "JUMPS"))]
    means = {}
    for lvl_key, lvl in (("loops", "LOOPS"), ("jumps", "JUMPS")):
        for f_key, f in (("static", "static_instrs"), ("dyn", "dyn_instrs")):
            deltas = [change(by[(p, lvl, machine)][f], by[(p, "SIMPLE", machine)][f])
                      for p in progs]
            means["%s_%s_pct" % (f_key, lvl_key)] = (
                round(sum(deltas) / len(deltas), 3) if deltas else 0.0)
    row[machine] = means

# The regression gate compares this sweep's wall time against the
# parent's, measured in the same session.  The row is appended either
# way — a regression should be on the record, not hidden by its own
# failure.
def wall_gate():
    if "wall_s" not in row:
        return None
    parent = row["parent_wall_s"]
    if row["wall_s"] > 1.15 * parent:
        return (
            "bench_compare: wall-time regression: %.3fs is %.1f%% over the "
            "parent's %.3fs (gate: +15%%)"
            % (row["wall_s"], 100.0 * (row["wall_s"] / parent - 1.0), parent))
    print("bench_compare: wall time %.3fs within 15%% of the parent's %.3fs"
          % (row["wall_s"], parent))
    return None

regression = wall_gate()

prior = []
try:
    with open(trend_path) as f:
        prior = [json.loads(line) for line in f if line.strip()]
except FileNotFoundError:
    pass

# Re-running the bench at the same commit must not grow the trend file:
# if the last row already carries this commit id, skip the append so the
# longitudinal record stays one row per commit.
if prior and prior[-1].get("commit") == commit:
    print("bench_compare: %s already the last row of %s; not appending"
          % (commit, trend_path))
else:
    with open(trend_path, "a") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")
    print("bench_compare: appended %s (%d measurements) to %s"
          % (commit, len(results), trend_path))

if regression is not None:
    if gate:
        print(regression)
        sys.exit(1)
    print(regression + " [--no-gate: not failing]")
EOF
