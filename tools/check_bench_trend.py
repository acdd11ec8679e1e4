#!/usr/bin/env python3
"""Bench-trajectory comparison between two bench-json artifacts (stdlib only).

Compares the ``BENCH_*.json`` files of a previous run (typically the
``bench-json-*`` artifact downloaded from the last run on main) against
the current run and emits a GitHub Actions ``::warning::`` annotation
for every phase whose p50 regressed by more than 25%%. Phases are the
``bench_phase_duration_ns`` histograms recorded by PhaseSampler, keyed
by their ``phase`` label; when a histogram is absent the phase's timing
tree ``wall_ms`` is used instead.

Most phases are advisory: the power-of-two histogram buckets quantize
p50 (a phase can jump one bucket, i.e. 2x, from a small true change)
and CI runners are noisy, so they emit ``::warning::`` annotations and
never block a merge. The BLOCKING_PHASES below are the exception — the
IR-construction hot paths the arena storage refactor is accountable
for (large-module verification in perf_verifier, the parse/print p50s
in perf_parse). Those come from PhaseSampler histograms with enough
per-iteration samples to ride out bucket quantization, and a >25% p50
regression on any of them exits 1 and fails the bench-trend job.
Exit 2 only for unusable input (missing dirs, no common phases).

Usage: check_bench_trend.py BASELINE_DIR CURRENT_DIR
"""

import fnmatch
import json
import os
import sys

REGRESSION_THRESHOLD = 0.25

# Phases (as bench/phase, fnmatch patterns) whose p50 regression is a
# hard failure rather than an annotation. Keep this list to phases
# backed by PhaseSampler histograms — timing-tree wall_ms entries are
# single-shot and too noisy to block on.
BLOCKING_PHASES = [
    "perf_verifier/large-module-verify-compiled-x30",
    "perf_parse/parse-custom",
    "perf_parse/parse-generic",
    "perf_parse/parse-deep-region",
    "perf_parse/print-custom",
    "perf_ir_construction/construct-100k-ops",
    "perf_ir_construction/erase-100k-ops",
    "perf_ir_construction/construct-100k-blocks",
    "perf_ir_construction/erase-100k-blocks",
    "perf_ir_construction/blockarg-churn",
    "perf_ir_construction/splitbefore-churn",
]


def is_blocking(phase):
    return any(fnmatch.fnmatch(phase, pat) for pat in BLOCKING_PHASES)


def walk_tree(node, out, prefix=""):
    """Flattens a timing tree into {scope-path: wall_ms}."""
    name = prefix + node.get("name", "?")
    out[name] = node.get("wall_ms", 0.0)
    for child in node.get("children", []):
        walk_tree(child, out, name + "/")


def collect_file(path):
    """Collects {phase: p50_ms} from one BENCH_*.json, preferring exact
    PhaseSampler histograms over coarse timing-tree scopes."""
    with open(path) as f:
        data = json.load(f)

    phases = {}
    timing = data.get("timing") or {}
    for group in timing if isinstance(timing, list) else [timing]:
        tree = group.get("tree")
        if tree:
            walk_tree(tree, phases)
    for hist in (data.get("metrics") or {}).get("histograms", []):
        if hist.get("name") != "bench_phase_duration_ns":
            continue
        phase = dict(hist.get("labels", {})).get("phase", "")
        if phase and hist.get("count"):
            phases[phase] = hist.get("p50", 0) / 1e6
    return phases


def collect_dir(path):
    """Collects {bench/phase: p50_ms} over every BENCH_*.json in a dir.
    A single file is accepted too."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, f) for f in os.listdir(path)
            if f.startswith("BENCH_") and f.endswith(".json"))
    phases = {}
    for f in files:
        bench = os.path.basename(f)[len("BENCH_"):-len(".json")]
        try:
            for phase, ms in collect_file(f).items():
                phases[f"{bench}/{phase}"] = ms
        except (OSError, ValueError) as e:
            print(f"note: skipping {f}: {e}", file=sys.stderr)
    return phases


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    baseline = collect_dir(argv[1])
    current = collect_dir(argv[2])
    common = sorted(set(baseline) & set(current))
    if not common:
        print(f"error: no common phases between {argv[1]} and {argv[2]}",
              file=sys.stderr)
        return 2

    regressed = 0
    blocking_failures = 0
    print(f"{'phase':48} {'baseline':>10} {'current':>10} {'delta':>8}")
    for phase in common:
        old, new = baseline[phase], current[phase]
        if old <= 0:
            continue
        delta = (new - old) / old
        gate = " [gated]" if is_blocking(phase) else ""
        print(f"{phase:48} {old:9.3f}ms {new:9.3f}ms {delta:+7.1%}{gate}")
        if delta > REGRESSION_THRESHOLD:
            regressed += 1
            if is_blocking(phase):
                blocking_failures += 1
                print(f"::error title=bench regression (blocking)::{phase} "
                      f"p50 {old:.3f}ms -> {new:.3f}ms ({delta:+.1%}, "
                      f"threshold +{REGRESSION_THRESHOLD:.0%})")
            else:
                print(f"::warning title=bench regression::{phase} p50 "
                      f"{old:.3f}ms -> {new:.3f}ms ({delta:+.1%}, threshold "
                      f"+{REGRESSION_THRESHOLD:.0%})")

    only_old = sorted(set(baseline) - set(current))
    only_new = sorted(set(current) - set(baseline))
    if only_old:
        print(f"note: phases gone since baseline: {only_old}")
    if only_new:
        print(f"note: new phases (no baseline): {only_new}")
    print(f"\n{len(common)} phases compared, {regressed} regressed "
          f"beyond +{REGRESSION_THRESHOLD:.0%} "
          f"({blocking_failures} on gated phases)")
    return 1 if blocking_failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
