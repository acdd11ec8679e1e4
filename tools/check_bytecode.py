#!/usr/bin/env python3
"""CI guard for the bytecode spec-load fast path (stdlib only).

Reads the ``--json`` output of ``perf_bytecode`` (the
``BENCH_perf_bytecode.json`` artifact from the bench-smoke step) and
fails unless **the file load beats the frontend**: loading dialect specs
from an ``.irbc`` file must be faster than running the textual IRDL
frontend on the same specs (``spec-file-load`` vs ``spec-frontend``).
Both paths compile the constraint programs at registration; the file
load skips lexing, parsing and semantic analysis. ``perf_bytecode``
takes 10 samples of each phase, alternating the kinds after one
unsampled warm-up load of each. ``spec-bytecode`` (the same load from a
buffer already in memory) is printed alongside for the log.

Comparisons use the exact per-iteration **mean** (histogram sum/count)
rather than p50: the metrics histograms bucket at powers of two, so
phases 20%% apart can report the identical quantized p50 and a strict
"<" on p50 would be vacuous. The quantized p50s are printed alongside
for the log.

Usage: check_bytecode.py BENCH_perf_bytecode.json
"""

import json
import sys

PHASES = ("spec-frontend", "spec-bytecode", "spec-file-load")


def collect_phases(metrics):
    """Collects phase -> {mean_ms, p50_ms, count} from the PhaseSampler
    bench_phase_duration_ns histograms."""
    phases = {}
    for hist in (metrics or {}).get("histograms", []):
        if hist.get("name") != "bench_phase_duration_ns":
            continue
        phase = dict(hist.get("labels", {})).get("phase", "")
        count = hist.get("count", 0)
        if phase not in PHASES or not count:
            continue
        phases[phase] = {
            "mean_ms": hist["sum"] / count / 1e6,
            "p50_ms": hist.get("p50", 0) / 1e6,
            "count": count,
        }
    return phases


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    with open(argv[1]) as f:
        data = json.load(f)

    phases = collect_phases(data.get("metrics"))
    missing = [p for p in PHASES if p not in phases]
    if missing:
        print(f"error: phases missing from {argv[1]}: {missing} "
              f"(found: {sorted(phases)})", file=sys.stderr)
        return 2

    for name in PHASES:
        p = phases[name]
        print(f"{name:16} mean={p['mean_ms']:9.3f}ms "
              f"p50={p['p50_ms']:9.3f}ms n={p['count']}")

    frontend = phases["spec-frontend"]["mean_ms"]
    file_load = phases["spec-file-load"]["mean_ms"]

    print(f"\nfile load vs frontend : {frontend / file_load:5.2f}x")
    if not file_load < frontend:
        print(f"\nerror: spec file load ({file_load:.3f}ms) is not faster "
              f"than the IRDL frontend ({frontend:.3f}ms)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
