#!/usr/bin/env python3
"""CI guard for the runtime metrics subsystem (stdlib only).

Reads a ``--metrics-json`` file (from ``irdl_opt`` or any PerfHarness
bench; either the bare registry object or a ``--json`` summary with a
``metrics`` key) and fails when the instrumentation looks dead:

* the verifier latency histogram ``irdl_verify_function_duration_ns``
  must have samples — every workload this gate reads verifies IR, so an
  empty histogram means the verifier's instrumentation went dark;
* the ops-verified statistic ``irdl_verify_ops_total`` must be nonzero —
  statistics are counters in the same registry, so a zero means they
  stopped reaching it (or the workload verified nothing);
* the arena counters ``ir_arena_slabs_allocated_total`` and
  ``ir_arena_bytes_allocated_total`` must be nonzero — every
  Operation::create and Block::create goes through the per-context
  OpArena, so any workload that builds IR (in particular one parsing a
  region-bearing dialect, where blocks and block arguments are arena
  storage too) reserves at least one slab and serves bytes from it; a
  zero means IR storage stopped flowing through the arena (or its
  gauges went dark);
* every histogram with samples must satisfy p50 <= p90 <= p99 <= max,
  i.e. the shard merge and quantile estimator are self-consistent.

The remaining series (dispatch hits/rejects, verifier latency, reader
throughput, thread-pool counters) are printed for the log but never fail
the job: workloads legitimately skip some of them (e.g. a single-thread
run never touches the pool).

Usage: check_metrics.py METRICS.json [--no-require-arena]
"""

import json
import sys

VERIFY_LATENCY = "irdl_verify_function_duration_ns"
ARENA_SLABS = "ir_arena_slabs_allocated_total"
ARENA_BYTES = "ir_arena_bytes_allocated_total"
OPS_VERIFIED = "irdl_verify_ops_total"


def series_key(entry):
    labels = dict(entry.get("labels", {}))
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return entry["name"] + (f"{{{inner}}}" if inner else "")


def main(argv):
    require_arena = "--no-require-arena" not in argv
    paths = [a for a in argv[1:] if not a.startswith("--")]
    unknown = [a for a in argv[1:]
               if a.startswith("--") and a != "--no-require-arena"]
    if len(paths) != 1 or unknown:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    with open(paths[0]) as f:
        data = json.load(f)
    metrics = data.get("metrics", data)  # bare registry or --json summary

    counters = {series_key(c): c["value"] for c in metrics.get("counters", [])}
    failed = False

    print("counters:")
    for key, value in sorted(counters.items()):
        print(f"  {value:12d}  {key}")
    for name, what in ((ARENA_SLABS, "reserves arena slabs"),
                       (ARENA_BYTES, "serves bytes from the arena")):
        total = sum(v for k, v in counters.items() if k.startswith(name))
        if require_arena and total == 0:
            print(f"\nerror: {name} is zero in {paths[0]} — every "
                  f"Operation::create and Block::create {what}, so a "
                  "workload that builds IR with metrics on must light "
                  "this up", file=sys.stderr)
            failed = True

    if counters.get(OPS_VERIFIED, 0) == 0:
        print(f"\nerror: {OPS_VERIFIED} is zero in {paths[0]} — the "
              "workload verifies IR, so the verifier's statistics are not "
              "reaching the metrics registry", file=sys.stderr)
        failed = True

    print("histograms:")
    for hist in sorted(metrics.get("histograms", []), key=series_key):
        count = hist.get("count", 0)
        if not count:
            continue
        p50, p90, p99 = hist["p50"], hist["p90"], hist["p99"]
        hi = hist.get("max", 0)
        ordered = p50 <= p90 <= p99
        print(f"  {series_key(hist)}: count={count} "
              f"p50={p50} p90={p90} p99={p99} max={hi}"
              f"{'' if ordered else '  MISORDERED'}")
        if not ordered:
            print(f"\nerror: percentiles out of order in {series_key(hist)}",
                  file=sys.stderr)
            failed = True

    verify_samples = sum(h.get("count", 0)
                         for h in metrics.get("histograms", [])
                         if h.get("name") == VERIFY_LATENCY)
    if verify_samples == 0:
        print(f"\nerror: {VERIFY_LATENCY} has no samples in {paths[0]} — "
              "the workload verifies IR, so the verifier's instrumentation "
              "is not firing", file=sys.stderr)
        failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
