#!/bin/sh
# Minimal CI: build, formatting check (when ocamlformat is available),
# full test suite (alcotest + qcheck + cram).  Exits nonzero on the
# first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

# One executor: concurrency in lib/ is Harness.Pool's worker processes.
# (Tests may still spawn domains, e.g. test_analysis's memo test.)
echo "== no Domain.spawn under lib/ =="
if grep -rn 'Domain\.spawn' lib/; then
  echo "lib/ must not spawn domains; run work on Harness.Pool"; exit 1
fi

echo "== no reference interpreter outside test/ =="
if grep -rn 'run_reference' lib bin bench; then
  echo "the reference loop is a test oracle (test/interp_oracle.ml)"; exit 1
fi

# The study runs through bench, perfbench, certify, report and the
# campaign store; the compilation daemon and its wire protocol are gone.
echo "== no daemon left =="
if grep -rnE 'Daemon\.|Protocol\.|jumprepd' lib bin bench test; then
  echo "the daemon was removed; drive work through Harness.Pool.run"; exit 1
fi

# The sweep's counters are Report.counters over its rows; there is no
# second copy of them in a registry, a worker reply or a store entry.
echo "== no metrics registry left =="
if grep -rnE 'Telemetry\.Metrics|Log\.metrics|r_counters' lib bin bench test; then
  echo "derive sweep counters from the rows (Report.counters)"; exit 1
fi

# A cache bank is fed by the engine, one slice per superblock
# (Sim.Engine.run ~bank).  Per-fetch Bank.access stays exported for the
# tests and perfbench's replay of a recorded fetch stream.
echo "== banks are fed through Sim.Engine.run ~bank =="
if grep -rnE 'Bank\.access([[:space:]]|$)' lib bin bench --exclude-dir=icache; then
  echo "feed a cache bank through Sim.Engine.run ~bank"; exit 1
fi

# Figure 3 is one table of pass rows (lib/opt/driver.ml): a pass's gate,
# certifier treatment and postcondition live in its row, never in a match
# on its name elsewhere.
echo "== no match arms on pass names outside the pass table =="
passes=$(sed -n 's/.*row "\([a-z-]*\)".*/\1/p' lib/opt/driver.ml | sort -u | paste -sd'|' -)
if [ -z "$passes" ]; then
  echo "no pass rows found in lib/opt/driver.ml"; exit 1
fi
if grep -rnE "\|[[:space:]]*\"($passes)\"[[:space:]]*(when|->|\|)" lib bin; then
  echo "decide what a pass is in its row of lib/opt/driver.ml"; exit 1
fi

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed) =="
fi

echo "== dune runtest =="
dune runtest

# Optimizer output is pinned: the MD5 of Prog.pp for every (program,
# level, machine) of the corpus and Gen seeds 0-39.  A change that means
# to alter the output regenerates the file and says why.
echo "== optimizer output digests (354 compiles) =="
dune exec test/opt_digests.exe > _build/opt-digests.txt 2> _build/opt-digests-diags.txt
diff test/opt_digests.expected _build/opt-digests.txt

# The same corpus compiles under --verify-passes (def-before-use and the
# differential oracle after every pass): verifying must not change the
# output, and no pass may be quarantined.
echo "== optimizer output digests under --verify-passes (114 compiles) =="
dune exec test/opt_digests.exe -- --verify-passes \
  > _build/opt-digests-verify.txt 2> _build/opt-digests-verify-diags.txt
grep -v '^gen[0-9]' test/opt_digests.expected \
  | diff - _build/opt-digests-verify.txt
if [ -s _build/opt-digests-verify-diags.txt ]; then
  cat _build/opt-digests-verify-diags.txt
  echo "quarantine or no-convergence under --verify-passes"; exit 1
fi

# Replication decisions are pinned the same way: per compile, the MD5 of
# the Replication_applied/rolled_back event stream plus Jumps.explain of
# the final functions, so a changed decision or rejection reason shows
# even where the output does not.
echo "== replication decision digests (354 compiles) =="
dune exec test/replication_decisions.exe > _build/replication-decisions.txt
diff test/replication_decisions.expected _build/replication-decisions.txt

echo "== fuzz smoke (25 seeds, 2 workers) =="
dune exec bin/jumprepc.exe -- fuzz --seeds 25 -j 2 --quiet --out _build/fuzz-failures

echo "== chaos smoke: crash+hang injection at -j 2, zero lost results =="
dune exec bin/jumprepc.exe -- fuzz --seeds 10 -j 2 --quiet \
  --chaos crash:0.2,seed:9 --out _build/fuzz-chaos
dune exec bench/main.exe -- --json -j 2 --chaos crash:0.1,hang:0.05,seed:11 \
  --trace-out _build/trace-chaos.json
python3 - << 'EOF'
import json
doc = json.load(open("BENCH_results.json"))
results, failures = doc["results"], doc.get("failures", [])
total = len(results) + len(failures)
assert total == 114, f"lost results: {len(results)} done + {len(failures)} failed != 114"
print(f"chaos sweep accounted for all 114 tasks "
      f"({len(results)} done, {len(failures)} failed)")
# The chaos sweep's trace must show the supervisor at work: injected
# faults as chaos instants and at least one retry decision on lane 0.
trace = json.load(open("_build/trace-chaos.json"))
evs = trace["traceEvents"]
chaos = [e for e in evs if e.get("cat") == "chaos"]
retries = [e for e in evs if e["name"] == "task-retry"]
assert chaos, "no chaos instants in the chaos sweep's trace"
assert retries, "no task-retry events in the chaos sweep's trace"
assert all(e["tid"] == 0 for e in retries), "retry events must be on lane 0"
print(f"chaos trace: {len(evs)} events, {len(chaos)} chaos instants, "
      f"{len(retries)} retries")
EOF

echo "== bench --json sweep (2 workers) vs golden baseline =="
SWEEP_T0=$(python3 -c 'import time; print(time.time())')
dune exec bench/main.exe -- --json -j 2 > /dev/null
SWEEP_WALL=$(python3 -c "import time; print(round(time.time() - $SWEEP_T0, 3))")
cmp BENCH_results.json BENCH_baseline.json

echo "== sweep byte-identical at -j 1 and -j 4 =="
dune exec bench/main.exe -- --json -j 1 > /dev/null
cmp BENCH_results.json BENCH_baseline.json
dune exec bench/main.exe -- --json -j 4 > /dev/null
cmp BENCH_results.json BENCH_baseline.json

# The live tables and the report over the byte-identical sweep are one
# renderer over the same rows, so the text must match exactly.
echo "== bench -t 4 -t 5 -t 6 -t bb print jumprepc report's sections =="
dune exec bench/main.exe -- -t 4 -t 5 -t 6 -t bb > _build/tables-live.md
dune exec bin/jumprepc.exe -- report BENCH_results.json | awk '
  /^## / { keep = /^## (Unconditional|Static and dynamic|Instruction cache|Branch)/ }
  keep' > _build/tables-report.md
diff _build/tables-live.md _build/tables-report.md

echo "== campaign: store sweep, kill-and-resume, byte-identity =="
BENCHX=_build/default/bench/main.exe
rm -rf _build/campaign-st1 _build/campaign-st2 _build/campaign-st3

# Cold sharded campaign over 2 worker processes: byte-identical baseline.
"$BENCHX" --json --store _build/campaign-st1 -j 2 > _build/campaign-cold.log
cmp BENCH_results.json BENCH_baseline.json
grep -q 'campaign: 114 tasks, 0 cached, 114 computed' _build/campaign-cold.log

# Warm rerun: zero recomputes, still byte-identical, measurably faster.
WARM_T0=$(python3 -c 'import time; print(time.time())')
"$BENCHX" --json --store _build/campaign-st1 --resume -j 1 > _build/campaign-warm.log
WARM_WALL=$(python3 -c "import time; print(round(time.time() - $WARM_T0, 3))")
cmp BENCH_results.json BENCH_baseline.json
grep -q 'campaign: 114 tasks, 114 cached, 0 computed' _build/campaign-warm.log
echo "campaign warm rerun: ${WARM_WALL}s (cold sweep: ${SWEEP_WALL}s), 0 recomputes"

# Kill drill: SIGKILL one worker process, then the parent, mid-campaign.
# The resumed run (4 workers, chaos on) recomputes only the delta and the
# bytes still match; a second sharded resume finds nothing left to do.
# The kill lands on progress, not on a timer: once 20 of the 114 entries
# are committed (a cold campaign takes about a second, so a fixed sleep
# can miss it and leave the resume nothing to prove).
"$BENCHX" --json --store _build/campaign-st2 -j 2 \
  > _build/campaign-killed.log 2>&1 &
CPID=$!
SEEN=
for i in $(seq 3000); do
  N=$(ls _build/campaign-st2/objects/*/*.json 2>/dev/null | wc -l)
  [ "$N" -ge 114 ] && break
  if [ "$N" -ge 20 ]; then SEEN=$N; break; fi
  sleep 0.01
done
if [ -z "$SEEN" ]; then
  kill -KILL "$CPID" 2>/dev/null || true
  echo "kill drill: the campaign never stood between 20 and 113 entries"; exit 1
fi
WPID=$(pgrep -P "$CPID" 2>/dev/null | head -1 || true)
[ -n "$WPID" ] && kill -KILL "$WPID" 2>/dev/null || true
sleep 0.2
kill -KILL "$CPID" 2>/dev/null || true
wait "$CPID" 2>/dev/null || true
"$BENCHX" --json --store _build/campaign-st2 --resume -j 4 \
  --chaos crash:0.05,seed:3 --retries 4 > _build/campaign-resume.log
cmp BENCH_results.json BENCH_baseline.json
COMPUTED=$(sed -n 's/.* cached, \([0-9]*\) computed.*/\1/p' _build/campaign-resume.log)
if [ "${COMPUTED:-0}" -eq 0 ]; then
  echo "kill drill: the resumed run computed nothing (killed at $SEEN entries)"; exit 1
fi
"$BENCHX" --json --store _build/campaign-st2 --resume -j 2 \
  > _build/campaign-resume2.log
cmp BENCH_results.json BENCH_baseline.json
grep -q ' 114 cached, 0 computed' _build/campaign-resume2.log
echo "campaign: SIGKILL worker+parent at $SEEN entries, resumed $COMPUTED, bytes identical"

# Sharded chaos: worker-process SIGKILLs drawn from the pure schedule;
# every leased task returns to the queue and completes on a respawn.
"$BENCHX" --json --store _build/campaign-st3 -j 2 \
  --chaos crash:0.1,seed:7 --retries 4 > _build/campaign-chaos.log
cmp BENCH_results.json BENCH_baseline.json
grep -q 'campaign: 114 tasks, 0 cached, 114 computed' _build/campaign-chaos.log
echo "campaign: sharded chaos kills recovered, bytes identical"

# Store corruption: truncate one committed entry, bit-flip another; the
# resume warns with a typed store-corrupt diagnostic, recomputes exactly
# those two, and the bytes still match.
python3 - << 'EOF'
import glob, os
entries = sorted(glob.glob("_build/campaign-st1/objects/*/*.json"))
assert len(entries) == 114, len(entries)
os.truncate(entries[0], 10)
with open(entries[1], "r+b") as f:
    data = bytearray(f.read())
    data[len(data) // 2] ^= 0x40
    f.seek(0)
    f.write(data)
EOF
"$BENCHX" --json --store _build/campaign-st1 --resume -j 1 \
  > _build/campaign-corrupt.log 2> _build/campaign-corrupt.err
cmp BENCH_results.json BENCH_baseline.json
grep -q 'campaign: 114 tasks, 112 cached, 2 computed, 2 corrupt' _build/campaign-corrupt.log
test "$(grep -c 'store-corrupt' _build/campaign-corrupt.err)" -eq 2
echo "campaign: 2 corrupted entries recomputed behind store-corrupt warnings"

echo "== fuzz campaign: kill-and-resume keeps the seeds it finished =="
# Workers commit each seed's verdict before replying, so a campaign
# SIGKILLed mid-run keeps what it finished.  The kill lands on progress:
# once 5 of the 25 entries are committed while the workers still run.
# The resumed run must compute only the rest, and print what a cold
# run prints.
FJRC=_build/default/bin/jumprepc.exe
rm -rf _build/fuzz-st _build/fuzz-drill
"$FJRC" fuzz --seeds 25 -j 2 --quiet --out _build/fuzz-drill > _build/fuzz-cold.out
"$FJRC" fuzz --seeds 25 -j 2 --quiet --store _build/fuzz-st \
  --out _build/fuzz-drill > /dev/null 2>&1 &
FPID=$!
SEEN=
for i in $(seq 6000); do
  N=$(ls _build/fuzz-st/objects/*/*.json 2>/dev/null | wc -l)
  if [ "$N" -ge 5 ]; then SEEN=$N; break; fi
  kill -0 "$FPID" 2>/dev/null || break
  sleep 0.01
done
FWPIDS=$(pgrep -P "$FPID" 2>/dev/null || true)
kill -KILL "$FPID" $FWPIDS 2>/dev/null || true
wait "$FPID" 2>/dev/null || true
if [ -z "$SEEN" ] || [ -z "$FWPIDS" ]; then
  echo "fuzz kill drill: the campaign was no longer running when its store held 5 entries"
  exit 1
fi
"$FJRC" fuzz --seeds 25 -j 2 --quiet --store _build/fuzz-st --resume \
  --out _build/fuzz-drill > _build/fuzz-resumed.out 2> _build/fuzz-resumed.err
FCOMPUTED=$(sed -n 's/.* cached, \([0-9]*\) computed.*/\1/p' _build/fuzz-resumed.err)
if [ "${FCOMPUTED:-25}" -ge 25 ]; then
  echo "fuzz kill drill: the resumed run computed every seed (killed at $SEEN entries)"
  exit 1
fi
cmp _build/fuzz-cold.out _build/fuzz-resumed.out
echo "fuzz: SIGKILL at $SEEN entries, resumed $FCOMPUTED of 25 seeds, stdout identical"

echo "== profiled+traced sweep stays byte-identical to the baseline =="
dune exec bench/main.exe -- --json -j 2 --profile \
  --profile-out _build/profile.json --trace-out _build/trace.json > /dev/null
cmp BENCH_results.json BENCH_baseline.json
python3 - << 'EOF'
import json
# Tiny schema check: the trace must load as trace-event JSON with at
# least one complete span per worker lane, and the profile document must
# carry exactly its two sections, the profiler's being its pass rows alone.
trace = json.load(open("_build/trace.json"))
assert isinstance(trace["traceEvents"], list) and trace["displayTimeUnit"] == "ms"
spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
for e in spans:
    assert {"name", "ph", "ts", "dur", "pid", "tid"} <= e.keys(), e
lanes = {e["tid"] for e in spans}
assert {1, 2} <= lanes, f"expected spans on worker lanes 1 and 2, got {lanes}"
profile = json.load(open("_build/profile.json"))
assert list(profile) == ["profile", "pool"], list(profile)
assert profile["profile"]["passes"], "no (function x pass) profiler rows"
assert list(profile["profile"]) == ["passes"], list(profile["profile"])
assert any(k.startswith("pool.") for k in profile["pool"]), "no pool counters"
print(f"trace: {len(spans)} spans on lanes {sorted(lanes)}; "
      f"profile: {len(profile['profile']['passes'])} pass rows")
EOF

# How often each pass is presented, runs and changes the function is
# pinned: a speed-up meant to keep the output must keep these too.
echo "== profiled sweep: per-pass calls/runs/changed match test/pass_counts.expected =="
python3 tools/pass_counts.py _build/profile.json > _build/pass-counts.txt
diff test/pass_counts.expected _build/pass-counts.txt

echo "== perfbench smoke: each workload tiny, traced and untraced =="
python3 perfbench/smoke.py

echo "== report: paper tables from the sweep JSON =="
dune exec bin/jumprepc.exe -- report BENCH_results.json \
  --out _build/report.md --dat _build/report-dat
dune exec bin/jumprepc.exe -- report --compare \
  BENCH_baseline.json BENCH_results.json > _build/report-compare.md
grep -q "No measurement changed" _build/report-compare.md
grep -q "Table 5 shape" _build/report.md

echo "== bench trend: two synthetic snapshots + wall-time gate =="
# CI measures no parent, so these rows name the sweep's own time as the
# parent's; the drill below exercises the gate itself.
rm -f _build/ci-trend.jsonl
TREND_COMMIT=ci-a TREND_WALL_S="$SWEEP_WALL" TREND_PARENT_WALL_S="$SWEEP_WALL" \
  tools/bench_compare.sh --trend BENCH_baseline.json _build/ci-trend.jsonl
TREND_COMMIT=ci-b TREND_WALL_S="$SWEEP_WALL" TREND_PARENT_WALL_S="$SWEEP_WALL" \
  tools/bench_compare.sh --trend BENCH_results.json _build/ci-trend.jsonl
# Re-running at the same commit must be a no-op, not a duplicate row.
TREND_COMMIT=ci-b TREND_WALL_S="$SWEEP_WALL" TREND_PARENT_WALL_S="$SWEEP_WALL" \
  tools/bench_compare.sh --trend BENCH_results.json _build/ci-trend.jsonl
python3 - << 'EOF'
import json
rows = [json.loads(l) for l in open("_build/ci-trend.jsonl")]
assert [r["commit"] for r in rows] == ["ci-a", "ci-b"], rows
for r in rows:
    assert r["measurements"] == 114 and "risc" in r and "cisc" in r, r
    assert r["engine"] == "threaded", r
    assert "wall_s" in r and "parent_wall_s" in r, r
print("trend file has %d rows (same-commit rerun deduplicated)" % len(rows))
EOF

# Deterministic gate drill on a scratch trend file, against a parent
# measured at 10.0s: a 20%-slower row must fail, a 5%-slower row must
# pass, --no-gate must record the row without failing, and a wall time
# without the parent's must be refused as a usage error.  Rows already on
# file (three faster ones) must not be the reference.
rm -f _build/ci-gate.jsonl
for w in 5.0 5.1 4.9; do
  TREND_COMMIT="ci-w$w" TREND_WALL_S="$w" TREND_PARENT_WALL_S="$w" \
    tools/bench_compare.sh --trend BENCH_results.json _build/ci-gate.jsonl > /dev/null
done
if TREND_COMMIT=ci-slow TREND_WALL_S=12.0 TREND_PARENT_WALL_S=10.0 \
     tools/bench_compare.sh --trend BENCH_results.json _build/ci-gate.jsonl \
     > _build/trend-gate.log; then
  echo "trend gate: 20% wall-time regression not caught"; exit 1
fi
grep -q 'wall-time regression' _build/trend-gate.log
TREND_COMMIT=ci-near TREND_WALL_S=10.5 TREND_PARENT_WALL_S=10.0 \
  tools/bench_compare.sh --trend BENCH_results.json _build/ci-gate.jsonl > /dev/null
TREND_COMMIT=ci-escape TREND_WALL_S=30.0 TREND_PARENT_WALL_S=10.0 \
  tools/bench_compare.sh --trend --no-gate BENCH_results.json _build/ci-gate.jsonl \
  > _build/trend-nogate.log
grep -q 'not failing' _build/trend-nogate.log
STATUS=0
(unset TREND_PARENT_WALL_S
 TREND_COMMIT=ci-alone TREND_WALL_S=10.0 \
   tools/bench_compare.sh --trend BENCH_results.json _build/ci-gate.jsonl \
   > /dev/null 2>&1) || STATUS=$?
[ "$STATUS" -eq 2 ] || { echo "trend gate: wall time without the parent's exited $STATUS, want 2"; exit 1; }
echo "trend wall-time gate: regression caught, tolerance and --no-gate honored, parent required"

# Without TREND_COMMIT the row is labelled from git: the short HEAD id
# with "parent" HEAD^ for a clean tree, and "<HEAD>+<7 hex of the SHA-1
# of git diff HEAD>" with "parent" HEAD for an uncommitted one.  Checked
# in a throwaway repository, so both cases run whatever state this
# checkout is in.
LABEL_REPO="$PWD/_build/ci-label-repo"
rm -rf "$LABEL_REPO"
mkdir -p "$LABEL_REPO"
cp BENCH_results.json "$LABEL_REPO/results.json"
(
  unset TREND_COMMIT
  cd "$LABEL_REPO"
  commit() { git -c user.name=ci -c user.email=ci@localhost commit -qam "$1"; }
  git init -q .
  echo one > f && git add f && commit one
  echo two > f && commit two
  ../../tools/bench_compare.sh --trend --no-gate results.json trend.jsonl > /dev/null
  echo three > f
  ../../tools/bench_compare.sh --trend --no-gate results.json trend.jsonl > /dev/null
  echo four > f
  ../../tools/bench_compare.sh --trend --no-gate results.json trend.jsonl > /dev/null
  python3 - "$(git rev-parse --short HEAD^)" "$(git rev-parse --short HEAD)" << 'EOF'
import json, re, sys
first, second = sys.argv[1], sys.argv[2]
rows = [(r["commit"], r["parent"])
        for r in map(json.loads, open("trend.jsonl"))]
assert rows[0] == (second, first), rows
for label, parent in rows[1:]:
    assert re.fullmatch(re.escape(second) + r"\+[0-9a-f]{7}", label), label
    assert parent == second, parent
assert rows[1][0] != rows[2][0], "two changes share a label"
print("trend labels and parents from git:", ", ".join(l for l, _ in rows))
EOF
)

echo "== bench tables smoke; bench accepts exactly its pinned options =="
dune exec bench/main.exe -- -t 1 -t 2 -t fig > /dev/null
# Arg rejects (exit 2) every option not listed here; a removed timing or
# profile option that comes back, or any new one, fails this check.
BENCH_OPTS=$(dune exec bench/main.exe -- --help | awk '$1 ~ /^-/ { print $1 }' | tr '\n' ' ')
[ "$BENCH_OPTS" = "-t --list --json -j --jobs --chaos --task-deadline \
--retries --profile --profile-out --trace-out --store --resume --worker \
-help --help " ] || { echo "bench options changed: $BENCH_OPTS"; exit 1; }
if dune exec bench/main.exe -- --no-such-option > /dev/null 2>&1; then
  echo "bench accepted an unknown option"; exit 1
fi

echo "== lint --strict (examples + bench corpus) =="
for f in examples/c/*.c; do
  dune exec bin/jumprepc.exe -- lint "$f" -O jumps --strict > /dev/null
done
dune exec bin/jumprepc.exe -- lint --benches -O jumps --strict > /dev/null

echo "== examples with bundled inputs reproduce their golden outputs =="
for f in examples/c/*.c; do
  b=$(basename "$f" .c)
  if [ -f "examples/c/$b.expected" ]; then
    if [ -f "examples/c/$b.input" ]; then
      dune exec bin/jumprepc.exe -- run "$f" -O jumps -m risc \
        --input-file "examples/c/$b.input" 2> /dev/null > "_build/golden-$b.out"
    else
      dune exec bin/jumprepc.exe -- run "$f" -O jumps -m risc \
        2> /dev/null > "_build/golden-$b.out"
    fi
    cmp "_build/golden-$b.out" "examples/c/$b.expected"
  fi
done

echo "== certify: static translation validation, all targets x levels =="
for lvl in simple loops jumps; do
  dune exec bin/jumprepc.exe -- certify --benches examples/c/*.c -O "$lvl" \
    > "_build/certify-$lvl.txt" 2> /dev/null
  grep -q ' 0 refuted' "_build/certify-$lvl.txt"
  if grep -v ' 0 refuted' "_build/certify-$lvl.txt" | grep -q 'refuted'; then
    echo "certify: refutations at level $lvl"; exit 1
  fi
done
echo "certify: $(grep -c ' 0 refuted' _build/certify-jumps.txt) targets x 3 levels, zero refutations"

# Figure 3's loop runs "until no change", read from the function: a round
# that ends on its own input is the fixpoint even when passes that undo
# each other (cse and isel on cisc) report changes, and deadvars removes
# a whole dead chain in one run.  So no function of the corpus, and none
# of Gen seeds 0-39, reaches the iteration cap on either machine.
echo "== the fix loop converges everywhere, all levels x machines =="
for lvl in simple loops jumps; do
  for m in risc cisc; do
    dune exec bin/jumprepc.exe -- certify --benches -O "$lvl" -m "$m" \
      > "_build/converge-$lvl-$m.txt" 2>&1
    if grep 'no-convergence' "_build/converge-$lvl-$m.txt"; then
      echo "certify: fix loop hit its iteration cap at $lvl/$m"; exit 1
    fi
  done
done
# The digest step above compiled Gen seeds 0-39 at the same 6
# configurations and wrote their no-convergence diagnostics aside.
if grep 'no-convergence' _build/opt-digests-diags.txt; then
  echo "fix loop hit its iteration cap on a Gen function"; exit 1
fi
echo "no [no-convergence] diagnostic at 3 levels x 2 machines, corpus and Gen seeds 0-39"

# A deliberately corrupted pass must be statically refuted (exit 1) with
# a counterexample path, and the rolled-back pipeline must stay correct.
if dune exec bin/jumprepc.exe -- certify examples/c/collatz.c -O jumps \
     --inject-fault isel:flip-branch > _build/certify-refute.txt 2> /dev/null; then
  echo "certify: injected flip-branch was not refuted"; exit 1
fi
grep -q 'REFUTED' _build/certify-refute.txt
grep -q 'path: ' _build/certify-refute.txt
echo "certify: injected flip-branch refuted with a counterexample path"

echo "== verify-passes strict run =="
cat > _build/ci-verify.c <<'EOF'
int main() {
  int i, s;
  s = 0;
  for (i = 0; i < 10; i++) { s += i; }
  putchar(65 + (s & 15));
  putchar(10);
  return 0;
}
EOF
dune exec bin/jumprepc.exe -- run _build/ci-verify.c -O jumps -m cisc --verify-passes --strict > /dev/null
dune exec bin/jumprepc.exe -- run _build/ci-verify.c -O jumps -m risc --verify-passes --strict > /dev/null
dune exec bin/jumprepc.exe -- bench wc -O jumps -m cisc --verify-passes > /dev/null

echo "CI OK"
