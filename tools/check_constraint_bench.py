#!/usr/bin/env python3
"""CI guard for the compiled constraint engine (stdlib only).

Reads the ``--json`` output of ``perf_constraints`` (the
``BENCH_perf_constraints.json`` artifact from the bench-smoke step) and
fails when the compiled engine is not faster than the tree interpreter
on the ``large`` workload. The phase breakdown emits paired
``<workload>-interpreted`` / ``<workload>-compiled`` timing nodes; this
script keys on those names.

When the summary carries ``bench_phase_duration_ns`` histograms (the
PhaseSampler per-iteration samples), the comparison prefers each
engine's **p50** over the timing tree's wall-clock mean: the median is
robust against one preempted iteration skewing a 500-iteration run on a
noisy shared runner. Old artifacts without the histograms fall back to
wall_ms.

Only the ``large`` pair gates CI: it is the dispatch-table sweet spot
(64 distinct definitions, 500 repetitions), big enough that a genuine
engine regression dominates runner noise. The smaller pairs are printed
for the log but never fail the job.

Usage: check_constraint_bench.py BENCH_perf_constraints.json
"""

import json
import sys

GATED_WORKLOAD = "large"


def collect_pairs(node, pairs):
    """Walks the timing tree collecting <workload> -> {engine: wall_ms}."""
    name = node.get("name", "")
    for suffix, engine in (("-interpreted", "interpreted"), ("-compiled", "compiled")):
        if name.endswith(suffix):
            workload = name[: -len(suffix)]
            pairs.setdefault(workload, {})[engine] = node["wall_ms"]
    for child in node.get("children", []):
        collect_pairs(child, pairs)


def collect_p50_pairs(metrics):
    """Collects <workload> -> {engine: p50_ms} from the PhaseSampler
    bench_phase_duration_ns histograms, when present."""
    pairs = {}
    for hist in (metrics or {}).get("histograms", []):
        if hist.get("name") != "bench_phase_duration_ns":
            continue
        phase = dict(hist.get("labels", {})).get("phase", "")
        if not hist.get("count"):
            continue
        for suffix, engine in (("-interpreted", "interpreted"),
                               ("-compiled", "compiled")):
            if phase.endswith(suffix):
                workload = phase[: -len(suffix)]
                pairs.setdefault(workload, {})[engine] = hist["p50"] / 1e6
    return pairs


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    with open(argv[1]) as f:
        data = json.load(f)

    pairs = {}
    collect_pairs(data.get("timing", {}).get("tree", {}), pairs)
    p50_pairs = collect_p50_pairs(data.get("metrics"))

    complete = {w: p for w, p in sorted(pairs.items())
                if "interpreted" in p and "compiled" in p}
    if GATED_WORKLOAD not in complete:
        print(f"error: no {GATED_WORKLOAD}-interpreted/{GATED_WORKLOAD}-compiled "
              f"pair in {argv[1]}; found: {sorted(pairs)}", file=sys.stderr)
        return 2

    failed = False
    for workload, p in complete.items():
        p50 = p50_pairs.get(workload, {})
        if "interpreted" in p50 and "compiled" in p50:
            interp, compiled, basis = p50["interpreted"], p50["compiled"], "p50"
        else:
            interp, compiled, basis = p["interpreted"], p["compiled"], "wall"
        speedup = interp / compiled if compiled else float("inf")
        gated = workload == GATED_WORKLOAD
        ok = compiled < interp
        status = "ok" if ok else ("FAIL" if gated else "slow (not gated)")
        print(f"{workload:16} interpreted={interp:9.3f}ms "
              f"compiled={compiled:9.3f}ms speedup={speedup:5.2f}x "
              f"[{basis}]  {status}")
        if gated and not ok:
            failed = True

    if failed:
        print(f"\nerror: compiled engine is not faster than the tree "
              f"interpreter on the '{GATED_WORKLOAD}' workload", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
