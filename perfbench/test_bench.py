#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/test_bench.py [WORKLOAD ...]

For each workload (all four by default):

1. two untraced runs with the same seed give identical counted metrics
   (log_bytes_per_txn, ckpt_bytes_per_txn, sim_restart_*, heap_peak_mb,
   ship_bytes_per_txn);
2. a second seed gives txn_ok_share = 1.0 (and a correct run);
3. a traced run reports every per-layer metric named in BENCHMARK.json,
   trace.coverage >= 0.9, and a span file whose spans nest, whose self
   times sum to no more than their root's wall time;
4. every run's meta line records the source revision, nproc, the OCaml
   version, the seed and its sample counts.

Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTED = ["log_bytes_per_txn", "ckpt_bytes_per_txn",
           "sim_restart_first_commit_ms", "sim_restart_resident_ms",
           "heap_peak_mb", "ship_bytes_per_txn"]
SEED_A, SEED_B = 101, 202


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit("FAIL %s seed %d trace %d: exit %d\n%s" % (
            workload, seed, trace, out.returncode, out.stderr[-3000:]))
    meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
    for key in ("git_rev", "nproc", "ocaml", "seed", "samples"):
        check(key in meta, "%s: meta lacks %s" % (workload, key))
    check(meta["seed"] == seed, "%s: meta seed" % workload)
    check(result["correct"], "%s seed %d: incorrect run" % (workload, seed))
    return meta, result


def check(cond, what):
    if not cond:
        sys.exit("FAIL " + what)


def check_spans(workload):
    """Spans nest; siblings do not overlap; self times sum to at most
    the root's wall time."""
    path = os.path.join(ROOT, "perfbench", "out", workload + "-spans.tsv")
    spans = {}
    with open(path) as f:
        next(f)
        for line in f:
            sid, name, start, end, parent, _txn, _words = line.split("\t")
            spans[int(sid)] = (name, int(start), int(end), int(parent))
    check(len(spans) > 0, "%s: no spans written" % workload)
    children = {}
    for sid, (_, start, end, parent) in spans.items():
        check(start <= end, "%s: span %d ends before it starts" % (workload, sid))
        if parent >= 0:
            check(parent in spans, "%s: span %d has unknown parent" % (workload, sid))
            _, pstart, pend, _ = spans[parent]
            check(pstart <= start and end <= pend,
                  "%s: span %d not inside its parent %d" % (workload, sid, parent))
            children.setdefault(parent, []).append(sid)
    self_ns = {}
    for sid, (_, start, end, _) in spans.items():
        kids = sorted(children.get(sid, []), key=lambda k: spans[k][1])
        for a, b in zip(kids, kids[1:]):
            check(spans[a][2] <= spans[b][1],
                  "%s: children %d and %d of %d overlap" % (workload, a, b, sid))
        self_ns[sid] = (end - start) - sum(spans[k][2] - spans[k][1] for k in kids)
        check(self_ns[sid] >= 0, "%s: span %d has negative self time" % (workload, sid))
    # sum of self times over each root's tree
    total = {}
    for sid in spans:
        root = sid
        while spans[root][3] >= 0:
            root = spans[root][3]
        total[root] = total.get(root, 0) + self_ns[sid]
    for root, s in total.items():
        _, start, end, _ = spans[root]
        check(s <= end - start,
              "%s: self times of root %d sum past its wall time" % (workload, root))
    return len(spans)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    for w in workloads:
        _, a = run(w, SEED_A, 0)
        _, b = run(w, SEED_A, 0)
        check(set(a["metrics"]) == set(end_to_end),
              "%s: end-to-end metric names differ from BENCHMARK.json" % w)
        for m in COUNTED:
            check(a["metrics"][m]["value"] == b["metrics"][m]["value"],
                  "%s: %s differs between two runs of seed %d (%r vs %r)" % (
                      w, m, SEED_A, a["metrics"][m]["value"], b["metrics"][m]["value"]))
        _, c = run(w, SEED_B, 0)
        check(c["metrics"]["txn_ok_share"]["value"] == 1.0,
              "%s: txn_ok_share %r at seed %d" % (
                  w, c["metrics"]["txn_ok_share"]["value"], SEED_B))
        _, t = run(w, SEED_B, 1)
        check(set(t["metrics"]) == set(per_layer),
              "%s: per-layer metric names differ from BENCHMARK.json" % w)
        cov = t["metrics"]["trace.coverage"]["value"]
        check(cov >= 0.9, "%s: trace.coverage %.3f < 0.9" % (w, cov))
        n = check_spans(w)
        print("ok %s: counted metrics repeat, ok share 1.0, coverage %.3f, %d spans nest"
              % (w, cov, n), flush=True)


if __name__ == "__main__":
    main()
