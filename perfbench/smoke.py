#!/usr/bin/env python3
"""Smoke test of the benchmark itself.  Run from the root of the repository:

    python3 perfbench/smoke.py

It checks, on a tiny run of each workload, that every metric BENCHMARK.json
names is printed with its unit and that no task failed; that the traced
run's layer times add up to the traced task time; that a tampered golden
makes tasks fail; and that one full paper_sweep pass reproduces the sums of
BENCH_baseline.json.  Takes about a minute.
"""

import json
import subprocess
import sys

WORKLOADS = ["paper_sweep", "gen_large", "campaign"]
# The spans of a traced task: with the unattributed rest they make up
# harness.task_ms.
LAYER_TIMES = [
    "frontend.parse_ms", "frontend.codegen_ms", "opt.optimize_ms",
    "sim.assemble_ms", "sim.decode_ms", "sim.engine_compile_ms",
    "sim.engine_run_ms", "icache.bank_ms", "harness.verify_ms",
    "harness.unattributed_ms",
]

failures = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def run(workload, trace, *extra, seconds=1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    cmd += list(extra)
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def main():
    spec = json.load(open("BENCHMARK.json"))
    want = {0: units(spec["end_to_end"]), 1: units(spec["per_layer"])}
    for w in WORKLOADS:
        for trace in (0, 1):
            r = run(w, trace, "--tiny")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            tag = "%s --trace %d" % (w, trace)
            expect(got == want[trace], tag + ": every metric, with its unit")
            expect(all(isinstance(v["value"], (int, float))
                       for v in r["metrics"].values()), tag + ": numeric values")
            expect(r["correct"] and r["attempted"] > 0 and r["failed"] == 0,
                   tag + ": failed_share 0 (%d of %d)"
                   % (r["failed"], r["attempted"]))
            if trace == 1:
                m = {k: v["value"] for k, v in r["metrics"].items()}
                task = m["harness.task_ms"]
                parts = sum(m[k] for k in LAYER_TIMES)
                expect(abs(parts - task) <= 1e-6 * task,
                       tag + ": layer self times add up to the task time")
                share = m["harness.unattributed_ms"] / task
                expect(share < 0.05, tag + ": unattributed %.2f%%" % (100 * share))
        r = run(w, 0, "--tiny", "--tamper-golden")
        expect(not r["correct"] and r["failed"] > 0,
               "%s tampered golden: failed_share %d of %d"
               % (w, r["failed"], r["attempted"]))

    base = json.load(open("BENCH_baseline.json"))["results"]
    sums = {
        "dyn_instrs": sum(x["dyn_instrs"] for x in base),
        "dyn_ujumps": sum(x["dyn_ujumps"] for x in base),
        "code_bytes": sum(x["code_bytes"] for x in base),
        "fetch_cost": sum(c["fetch_cost"] for x in base for c in x["caches"]),
    }
    r = run("paper_sweep", 0)
    got = {k: r["metrics"][k]["value"] for k in sums}
    expect(r["correct"] and got == sums,
           "paper_sweep sums equal BENCH_baseline.json's: %s" % got)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
