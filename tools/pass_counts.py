#!/usr/bin/env python3
"""Per-pass run counts of a profiled sweep, without timings.

Usage: tools/pass_counts.py PROFILE_JSON

Reads the document `bench/main.exe --json --profile --profile-out FILE`
writes and prints, for every pass, the sums of its (function x pass)
rows' `calls`, `runs` and `changed`, one pass a line in name order.
tools/ci.sh diffs this against test/pass_counts.expected; a change meant
to alter how often passes run or change regenerates that file with

    tools/pass_counts.py _build/profile.json > test/pass_counts.expected
"""
import collections
import json
import sys

rows = json.load(open(sys.argv[1]))["profile"]["passes"]
sums = collections.defaultdict(lambda: [0, 0, 0])
for r in rows:
    s = sums[r["pass"]]
    s[0] += r["calls"]
    s[1] += r["runs"]
    s[2] += r["changed"]
print("pass calls runs changed")
for name in sorted(sums):
    print(name, *sums[name])
