#!/usr/bin/env bash
# Runs the runtime-overhead benchmarks and records machine-readable results.
#
#   tools/run_bench.sh [BUILD_DIR]          full run; writes
#                                           BENCH_task_overhead.json,
#                                           BENCH_fig7_ode_overhead.json,
#                                           BENCH_fig5_spmv_hybrid.json,
#                                           BENCH_fig6_dynamic_selection.json,
#                                           BENCH_memory_overlap.json,
#                                           BENCH_predict_accuracy.json,
#                                           BENCH_scheduler_lookahead.json and
#                                           BENCH_distributed_scaling.json at
#                                           the repo root
#   tools/run_bench.sh --smoke [BUILD_DIR]  tiny iteration counts into a
#                                           temp dir, JSON validity checked
#                                           (the `bench-smoke` ctest)
#
# BENCH_task_overhead.json carries before/after numbers: "baseline" is the
# committed reference run (bench/baseline_task_overhead.json; its context
# names the host, and it is re-taken whenever the file is re-captured on a
# new host), "current" is this run, and "speedup" is baseline/current per
# benchmark (wall real_time).
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SMOKE=0
BUILD_DIR="$ROOT/build"
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    -h|--help) sed -n '2,15p' "${BASH_SOURCE[0]}"; exit 0 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

TASK_BENCH="$BUILD_DIR/bench/bench_task_overhead"
FIG7_BENCH="$BUILD_DIR/bench/bench_fig7_ode_overhead"
FIG5_BENCH="$BUILD_DIR/bench/bench_fig5_spmv_hybrid"
FIG6_BENCH="$BUILD_DIR/bench/bench_fig6_dynamic_selection"
OVERLAP_BENCH="$BUILD_DIR/bench/bench_memory_overlap"
PREDICT_BENCH="$BUILD_DIR/bench/bench_predict_accuracy"
LOOKAHEAD_BENCH="$BUILD_DIR/bench/bench_scheduler_lookahead"
DIST_BENCH="$BUILD_DIR/bench/bench_distributed_scaling"
for bin in "$TASK_BENCH" "$FIG7_BENCH" "$FIG5_BENCH" "$FIG6_BENCH" \
           "$OVERLAP_BENCH" "$PREDICT_BENCH" "$LOOKAHEAD_BENCH" \
           "$DIST_BENCH"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake --build $BUILD_DIR -j)" >&2
    exit 1
  fi
done

if [[ "$SMOKE" == 1 ]]; then
  OUT_DIR="$(mktemp -d)"
  trap 'rm -rf "$OUT_DIR"' EXIT
  MIN_TIME=0.01
  SMOKE_ARGS=(--smoke)
else
  OUT_DIR="$ROOT"
  MIN_TIME=0.5
  SMOKE_ARGS=()
fi

RAW="$OUT_DIR/bench_task_overhead_raw.json"
"$TASK_BENCH" "--benchmark_min_time=$MIN_TIME" \
  "--benchmark_out=$RAW" --benchmark_out_format=json
"$FIG7_BENCH" "${SMOKE_ARGS[@]}" "--json=$OUT_DIR/BENCH_fig7_ode_overhead.json"
"$FIG5_BENCH" "${SMOKE_ARGS[@]}" "--json=$OUT_DIR/BENCH_fig5_spmv_hybrid.json"
"$FIG6_BENCH" "${SMOKE_ARGS[@]}" \
  "--json=$OUT_DIR/BENCH_fig6_dynamic_selection.json"
"$OVERLAP_BENCH" "${SMOKE_ARGS[@]}" "--json=$OUT_DIR/BENCH_memory_overlap.json"
"$LOOKAHEAD_BENCH" "${SMOKE_ARGS[@]}" \
  "--json=$OUT_DIR/BENCH_scheduler_lookahead.json"
"$DIST_BENCH" "${SMOKE_ARGS[@]}" \
  "--json=$OUT_DIR/BENCH_distributed_scaling.json"
# Exits non-zero on a full run when a predicted/simulated ratio leaves the
# ±30% band (docs/predict.md "Accuracy"); --smoke only checks the pipeline.
"$PREDICT_BENCH" "${SMOKE_ARGS[@]}" "--json=$OUT_DIR/BENCH_predict_accuracy.json"

# Merge the committed baseline with this run into the before/after document.
python3 - "$ROOT/bench/baseline_task_overhead.json" "$RAW" \
  "$OUT_DIR/BENCH_task_overhead.json" <<'EOF'
import json
import sys

baseline_path, current_path, out_path = sys.argv[1:4]

def rows(path):
    doc = json.load(open(path))
    out = {}
    for b in doc.get("benchmarks", []):
        out[b["name"]] = {
            "real_time_us": b["real_time"],
            "cpu_time_us": b["cpu_time"],
            "items_per_second": b.get("items_per_second"),
        }
    return doc, out

baseline_doc, baseline = rows(baseline_path)
current_doc, current = rows(current_path)
speedup = {
    name: baseline[name]["real_time_us"] / current[name]["real_time_us"]
    for name in baseline
    if name in current and current[name]["real_time_us"] > 0
}
json.dump(
    {
        "description": "per-task overhead, the committed baseline run "
                       "(bench/baseline_task_overhead.json) against this "
                       "run (µs wall time per benchmark iteration; "
                       "Pipelined/Independent iterate 256-task batches)",
        "baseline_context": baseline_doc.get("context", {}),
        "current_context": current_doc.get("context", {}),
        "baseline": baseline,
        "current": current,
        "speedup": speedup,
    },
    open(out_path, "w"),
    indent=2,
)
print(f"wrote {out_path}")
for name, s in sorted(speedup.items()):
    print(f"  {name}: {s:.2f}x vs baseline")
EOF

rm -f "$OUT_DIR/bench_task_overhead_raw.json"

if [[ "$SMOKE" != 1 ]]; then
  # Drift check: compare this run's prediction ratios against the committed
  # baseline (bench/baseline_predict_accuracy.json). A drift above 10
  # percentage points means either the models, the scheduler, or the
  # predictor changed behaviour — flagged, not fatal (the ±30% band above
  # already gates correctness).
  python3 - "$ROOT/bench/baseline_predict_accuracy.json" \
    "$OUT_DIR/BENCH_predict_accuracy.json" <<'EOF'
import json
import sys

baseline_path, current_path = sys.argv[1:3]
def ratios(path):
    doc = json.load(open(path))
    return {(r["app"], r["machine"]): r["ratio"] for r in doc["rows"]}
baseline, current = ratios(baseline_path), ratios(current_path)
drifted = False
for key in sorted(baseline):
    if key not in current:
        continue
    drift = abs(current[key] - baseline[key])
    marker = " <-- drift" if drift > 0.10 else ""
    drifted |= drift > 0.10
    print(f"  predict accuracy {key[0]}/{key[1]}: ratio "
          f"{current[key]:.3f} (baseline {baseline[key]:.3f}){marker}")
if drifted:
    print("warning: prediction-accuracy ratios drifted >0.10 from the "
          "committed baseline", file=sys.stderr)
EOF

  # Scheduler-lookahead gates (docs/runtime.md "lookahead"): the adversarial
  # DAG must keep its >= 1.15x win over dmda, the paper-workload parity rows
  # must not regress below dmda beyond noise, and replay must stay within a
  # few percent of the eager scheduler's per-task cost. Ratios are also
  # diffed against the committed baseline
  # (bench/baseline_scheduler_lookahead.json) to flag behavioural drift.
  python3 - "$ROOT/bench/baseline_scheduler_lookahead.json" \
    "$OUT_DIR/BENCH_scheduler_lookahead.json" <<'EOF'
import json
import sys

baseline_path, current_path = sys.argv[1:3]
def ratios(path):
    doc = json.load(open(path))
    return {r["case"]: r["ratio"] for r in doc["rows"]}
baseline, current = ratios(baseline_path), ratios(current_path)
gates = {
    "adversarial": 1.15,      # lookahead must beat dmda here
    "fig5_parity": 0.90,      # parity rows: not worse beyond noise
    "fig7_parity": 0.90,
    "replay_overhead": 0.90,  # replay within a few percent of eager
}
failed = False
for case in sorted(current):
    ratio = current[case]
    floor = gates.get(case)
    base = baseline.get(case)
    drift = f" (baseline {base:.2f}x)" if base is not None else ""
    marker = ""
    if floor is not None and ratio < floor:
        marker = f" <-- below gate {floor:.2f}x"
        failed = True
    print(f"  scheduler lookahead {case}: {ratio:.2f}x{drift}{marker}")
if failed:
    print("error: scheduler-lookahead ratios fell below their gates",
          file=sys.stderr)
    sys.exit(1)
EOF

  # Distributed-scaling gates (docs/runtime.md "Distributed simulation"):
  # overlapping the halo exchange with interior compute must keep its
  # >= 1.3x win over blocking exchange on the 4-node Jacobi run, and the
  # 4-node weak scaling must stay >= 2.0x of the 1-node run. Headline
  # numbers are also diffed against the committed baseline
  # (bench/baseline_distributed_scaling.json) to flag behavioural drift.
  python3 - "$ROOT/bench/baseline_distributed_scaling.json" \
    "$OUT_DIR/BENCH_distributed_scaling.json" <<'EOF'
import json
import sys

baseline_path, current_path = sys.argv[1:3]
def headline(path):
    doc = json.load(open(path))
    return {k: doc[k] for k in ("overlap_speedup_4node", "weak_scaling_4node")}
baseline, current = headline(baseline_path), headline(current_path)
gates = {
    "overlap_speedup_4node": 1.3,  # overlapped vs blocking exchange
    "weak_scaling_4node": 2.0,     # 4-node scaled speedup (4.0 = ideal)
}
failed = False
for key in sorted(current):
    ratio = current[key]
    floor = gates[key]
    base = baseline.get(key)
    drift = f" (baseline {base:.2f}x)" if base is not None else ""
    marker = ""
    if ratio < floor:
        marker = f" <-- below gate {floor:.2f}x"
        failed = True
    elif base is not None and abs(ratio - base) > 0.5:
        marker = " <-- drift"
    print(f"  distributed scaling {key}: {ratio:.2f}x{drift}{marker}")
if failed:
    print("error: distributed-scaling ratios fell below their gates",
          file=sys.stderr)
    sys.exit(1)
EOF
fi

if [[ "$SMOKE" == 1 ]]; then
  # Validity gate: every document must parse.
  python3 -c "
import json, sys
for path in sys.argv[1:]:
    json.load(open(path))
print('bench smoke OK: JSON outputs parse')
" "$OUT_DIR/BENCH_task_overhead.json" "$OUT_DIR/BENCH_fig7_ode_overhead.json" \
  "$OUT_DIR/BENCH_fig5_spmv_hybrid.json" \
  "$OUT_DIR/BENCH_fig6_dynamic_selection.json" \
  "$OUT_DIR/BENCH_memory_overlap.json" \
  "$OUT_DIR/BENCH_predict_accuracy.json" \
  "$OUT_DIR/BENCH_scheduler_lookahead.json" \
  "$OUT_DIR/BENCH_distributed_scaling.json"
fi
