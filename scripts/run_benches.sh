#!/bin/bash
# Runs the reproduction bench campaign: every figure/table bench plus the
# perf-trajectory bench (bench_throughput), one output file per bench under
# --out-dir, then copies the machine-readable BENCH_*.json artifacts to the
# repo root so trajectory diffs show up in review. Each successful
# bench_throughput run also appends one schema-tagged line to the committed
# BENCH_history.jsonl, so the perf trajectory accumulates across campaigns
# and any prior entry can serve as a --compare baseline (FILE.jsonl[:N]).
#
# This replaces the three ad-hoc root-level run_benches*.sh scripts: the
# bench list, scale, and output location are flags instead of copies.
#
# Usage:
#   scripts/run_benches.sh [options] [bench ...]
#     --build-dir DIR   build tree holding bench binaries   (default: build)
#     --out-dir DIR     where .txt/.err/.json land          (default: bench_results)
#     --scale S         export MUDI_BENCH_SCALE=S (0 < S <= 1)
#     --compare F       after bench_throughput runs, print a per-(preset,
#                       policy) sim-s/wall-s + decision-latency regression table
#                       against baseline artifact F (a prior BENCH_throughput
#                       .json, e.g. the committed one; or FILE.jsonl[:N] to
#                       compare against history entry N — default: the last)
#     --max-regress R   with --compare: fail the campaign when any pair's
#                       sim-s/wall-s fell more than fraction R (0 < R < 1)
#     --list            print the default campaign bench list and exit
#     bench ...         run only these benches (default: the full campaign)
set -u

cd "$(dirname "$0")/.."

BUILD_DIR=build
OUT_DIR=bench_results
SCALE=""
COMPARE=""
MAX_REGRESS=""
ONLY=()

ALL_BENCHES=(
  bench_fig01_traces bench_fig02_training_traces bench_fig03_inf_inf_interference
  bench_fig04_inf_train_interference bench_fig05_latency_curves bench_fig07_layer_census
  bench_fig08_slo_violation bench_fig09_training_eff bench_fig10_utilization
  bench_fig11_model_accuracy bench_fig12_incremental bench_fig13_ablation
  bench_fig14_max_throughput bench_fig15_load_sensitivity bench_fig16_bursty_case
  bench_fig17_mudi_more bench_fig18_overhead bench_fig19_fault_recovery
  bench_ctrl_fault bench_micro_substrates bench_tab02_fitting_error
  bench_tab04_swap_fraction bench_throughput
)

HISTORY_FILE=BENCH_history.jsonl

# Appends one schema-tagged line to the committed BENCH_history.jsonl from a
# fresh BENCH_throughput.json: the artifact flattened to a single line with a
# "history" envelope ({schema, seq, recorded_utc, git, host}) spliced in as
# the first key. `host` names the machine the timings come from (CPU model,
# online CPUs, 1-minute load average when the run ended), so two entries
# from different hosts or loads are not read as a code change. Each line
# stays a valid bench_throughput document (the validator tolerates the extra
# top-level key), so any entry works as a --compare baseline directly.
append_history() {
  local artifact="$1" seq stamp git_rev body cpu load host
  seq=1
  if [[ -f "$HISTORY_FILE" ]]; then
    seq=$(($(wc -l < "$HISTORY_FILE") + 1))
  fi
  stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)
  git_rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
  body=$(tr '\n' ' ' < "$artifact" | sed 's/^[^{]*{//')
  cpu=$(sed -n 's/^model name[[:space:]]*: *//p' /proc/cpuinfo 2>/dev/null | head -1 | tr -d '"\\')
  load=$(cut -d' ' -f1 /proc/loadavg 2>/dev/null)
  host=$(printf '{"cpu":"%s","nproc":%s,"loadavg_1m":%s}' "${cpu:-unknown}" "$(nproc)" "${load:-null}")
  printf '{"history":{"schema":"mudi.bench_history.v1","seq":%s,"recorded_utc":"%s","git":"%s","host":%s},%s\n' \
    "$seq" "$stamp" "$git_rev" "$host" "$body" >> "$HISTORY_FILE"
  echo "history: appended entry $seq to $HISTORY_FILE"
}

# Resolves a --compare spec to a baseline JSON document on stdout: a plain
# .json path passes through untouched; FILE.jsonl takes the last history
# entry; FILE.jsonl:N takes entry N (1-based line number, which matches each
# entry's "seq" field). Fails when the file or the entry is missing.
extract_history_entry() {
  local spec="$1" file="$1" n=""
  if [[ "$spec" == *.jsonl:* ]]; then
    file="${spec%:*}"
    n="${spec##*:}"
  fi
  if [[ ! -f "$file" ]]; then
    echo "no history file: $file" >&2
    return 1
  fi
  local total
  total=$(wc -l < "$file")
  if [[ -z "$n" ]]; then
    n="$total"
  fi
  if ! [[ "$n" =~ ^[0-9]+$ ]] || (( n < 1 || n > total )); then
    echo "history entry '$n' out of range (1..$total) in $file" >&2
    return 1
  fi
  sed -n "${n}p" "$file"
}

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out-dir)   OUT_DIR="$2";   shift 2 ;;
    --scale)     SCALE="$2";     shift 2 ;;
    --compare)     COMPARE="$2";     shift 2 ;;
    --max-regress) MAX_REGRESS="$2"; shift 2 ;;
    --list)      printf '%s\n' "${ALL_BENCHES[@]}"; exit 0 ;;
    -h|--help)   grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    --*)         echo "unknown option: $1" >&2; exit 2 ;;
    *)           ONLY+=("$1"); shift ;;
  esac
done

BENCHES=("${ALL_BENCHES[@]}")
if [[ ${#ONLY[@]} -gt 0 ]]; then
  BENCHES=("${ONLY[@]}")
fi
if [[ -n "$SCALE" ]]; then
  export MUDI_BENCH_SCALE="$SCALE"
fi

mkdir -p "$OUT_DIR"
failures=0

for b in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$b"
  if [[ ! -x "$bin" ]]; then
    echo "=== MISSING $b (no binary at $bin; build first) ===" >&2
    failures=$((failures + 1))
    continue
  fi
  echo "=== RUNNING $b ==="
  if [[ "$b" == bench_throughput ]]; then
    # The perf-trajectory bench writes its own versioned JSON artifact.
    # With --compare it also prints the regression table vs the baseline
    # (visible on the terminal, not just in the .txt, so campaign runs show
    # the trajectory at a glance) and exits non-zero past --max-regress.
    THROUGHPUT_FLAGS=()
    if [[ -n "$COMPARE" ]]; then
      BASELINE="$COMPARE"
      if [[ "$COMPARE" == *.jsonl || "$COMPARE" == *.jsonl:* ]]; then
        BASELINE="$OUT_DIR/.compare_baseline.json"
        if ! extract_history_entry "$COMPARE" > "$BASELINE"; then
          echo "bad --compare spec: $COMPARE" >&2
          exit 2
        fi
      fi
      THROUGHPUT_FLAGS+=("--compare=$BASELINE")
    fi
    if [[ -n "$MAX_REGRESS" ]]; then
      THROUGHPUT_FLAGS+=("--max-regress=$MAX_REGRESS")
    fi
    "$bin" --out="$OUT_DIR/BENCH_throughput.json" "${THROUGHPUT_FLAGS[@]}" \
      > >(tee "$OUT_DIR/$b.txt") 2> "$OUT_DIR/$b.err"
  else
    # Each experiment run appends one labeled JSON line (counters, gauges,
    # histograms — queue depth, utilization, decision counts) to the bench's
    # telemetry file, giving every bench table its scheduling context.
    MUDI_TELEMETRY_JSON="$OUT_DIR/BENCH_$b.json" \
      "$bin" > "$OUT_DIR/$b.txt" 2> "$OUT_DIR/$b.err"
  fi
  rc=$?
  echo "=== DONE $b (rc=$rc) ==="
  if [[ $rc -ne 0 ]]; then
    failures=$((failures + 1))
  elif [[ "$b" == bench_throughput ]]; then
    append_history "$OUT_DIR/BENCH_throughput.json"
  fi
done

# Publish the machine-readable artifacts at the repo root: the committed
# BENCH_*.json files are the perf/metrics trajectory reviewers diff.
shopt -s nullglob
for json in "$OUT_DIR"/BENCH_*.json; do
  cp -f "$json" .
done
shopt -u nullglob

if [[ $failures -gt 0 ]]; then
  echo "CAMPAIGN_FAILED ($failures benches failed)" >&2
  exit 1
fi
echo CAMPAIGN_COMPLETE
