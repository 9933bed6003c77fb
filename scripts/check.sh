#!/bin/bash
# Repo health gate. Runs, in order:
#
#   lint     tools/mudi_lint over src/ tests/ bench/ tools/ examples/ —
#            the full two-pass semantic engine (12 checks: per-file token
#            checks plus the cross-file include-graph/layering, shared-state,
#            sync-primitive, and hot-path-alloc passes). Any unsuppressed
#            finding fails. The stage also emits --json and gates it through
#            mudi_lint --validate (mudi.lint.v1 schema), and the summary
#            table carries per-check finding counts. Runs in every mode,
#            including --fast.
#   format   non-fatal clang-format drift report (skipped when clang-format
#            is not installed). Never fails the gate; it exists so future PRs
#            converge on .clang-format instead of diverging silently.
#   build    plain tree with the -Wall -Wextra warning gate: any compiler
#            warning fails (this also backs the [[nodiscard]] Status gate).
#   tests    full tier-1 ctest suite in the plain tree.
#   asan     AddressSanitizer+UBSan tree (-fno-sanitize-recover=all) with the
#            full suite. Skipped by --fast.
#   tsan     ThreadSanitizer tree with the full suite. Opt-in via --tsan.
#   bench    perf-trajectory smoke: bench_throughput at the tiny "smoke"
#            preset, then schema-validate the JSON it emitted, then the
#            repo benchmark's self-test (python3 mudibench/run.py
#            --selftest: builds mudibench/ against src/ and checks that its
#            decorated, plain and repeated runs give one result digest), then
#            the cross-version digest pin: the untraced
#            .bench_build/mudibench/mudibench --workload fleet|coldstart|chaos
#            --seed 7 must reproduce the digests in PINNED_DIGESTS below (a
#            change that alters any simulated outcome fails here, and a
#            deliberate outcome change re-pins the table).
#            Opt-in via --bench. Fails on a non-zero bench exit, a missing
#            artifact, a malformed/incomplete document, a failed self-test
#            or a digest that differs from its pin. It then smoke-runs
#            bench_fig18_overhead at MUDI_BENCH_SCALE=0.02 (micro-benchmarks
#            filtered out) and fails unless both Fig. 18(b) tables report a
#            non-zero placement count. It also runs the learner-fit micro-benchmarks
#            (bench_micro_substrates --benchmark_filter='Fit$') and prints
#            CPU ns per fit in the stage detail, without gating on them.
#            When the committed
#            BENCH_throughput.json baseline exists, also re-runs the smoke
#            preset at full scale and FAILS if any (preset, policy) pair's
#            simulated seconds per wall second regressed more than 20%
#            against it (WARN instead of FAIL under --fast, so quick local
#            iterations aren't blocked by machine noise).
#   chaos    the fault suites — device faults (Fault*), control-plane faults
#            (CtrlFault*/ControlFault*/KvStore*), retry/backoff (Retr*), and
#            the determinism replays — under the ASan+UBSan tree. Opt-in via
#            --chaos. Reuses build-asan when the asan stage already built it.
#   replay   decision-trace record/replay smoke under the ASan+UBSan tree.
#            Records a smoke run and fidelity-replays it (mudi_cli
#            --replay-verify fails unless the replayed metrics are
#            byte-identical and >=90% of profiler invocations were served
#            from the trace), then counterfactual-replays the trace: the
#            same policy must reproduce every recorded decision, and the
#            device-only ablation's what-if trace must trace_diff cleanly
#            against the source. Opt-in via --replay; reuses build-asan.
#
# Usage: scripts/check.sh [--fast | --sanitize | --tsan | --bench | --chaos | --replay ...] [build-dir]
#   (no flags)   lint + format + build + tests + asan
#   --fast       lint + format + build + tests (skip all sanitizer trees)
#   --sanitize   lint + asan tree only (the pre-existing deep-memory gate)
#   --tsan       lint + tsan tree only; combine with --sanitize to run both
#   --bench      additionally run the bench smoke stage (any mode)
#   --chaos      additionally run the fault suites under ASan (any mode)
#   --replay     additionally run the record/replay smoke under ASan (any mode)
#   build-dir    plain-tree build directory (default: build). Sanitizer trees
#                always use build-asan / build-tsan.
#
# A PASS/FAIL/SKIP summary table prints at the end; exit status is non-zero
# iff any non-skipped stage failed.
set -u
cd "$(dirname "$0")/.."

RUN_BUILD=1
RUN_TESTS=1
RUN_ASAN=1
RUN_TSAN=0
RUN_BENCH=0
RUN_CHAOS=0
RUN_REPLAY=0
FAST_MODE=0
EXPLICIT_MODE=0
BUILD_DIR="build"

while [ $# -gt 0 ]; do
  case "$1" in
    --fast)
      RUN_ASAN=0
      RUN_TSAN=0
      FAST_MODE=1
      EXPLICIT_MODE=1
      ;;
    --sanitize)
      if [ "$EXPLICIT_MODE" -eq 0 ]; then
        RUN_BUILD=0
        RUN_TESTS=0
        RUN_TSAN=0
        EXPLICIT_MODE=1
      fi
      RUN_ASAN=1
      ;;
    --tsan)
      if [ "$EXPLICIT_MODE" -eq 0 ]; then
        RUN_BUILD=0
        RUN_TESTS=0
        RUN_ASAN=0
        EXPLICIT_MODE=1
      fi
      RUN_TSAN=1
      ;;
    --bench)
      RUN_BENCH=1
      ;;
    --chaos)
      RUN_CHAOS=1
      ;;
    --replay)
      RUN_REPLAY=1
      ;;
    -h|--help)
      sed -n '2,70p' "$0"
      exit 0
      ;;
    -*)
      echo "check.sh: unknown flag $1 (see --help)"
      exit 2
      ;;
    *)
      BUILD_DIR="$1"
      ;;
  esac
  shift
done

STAGE_NAMES=()
STAGE_RESULTS=()
STAGE_DETAILS=()
FAILED=0

record() {  # record <stage> <PASS|FAIL|SKIP> [detail]
  STAGE_NAMES+=("$1")
  STAGE_RESULTS+=("$2")
  STAGE_DETAILS+=("${3:-}")
  if [ "$2" = "FAIL" ]; then
    FAILED=1
  fi
}

summary_and_exit() {
  echo
  echo "== summary =="
  printf '%-10s %-7s %s\n' "stage" "result" "detail"
  printf '%-10s %-7s %s\n' "-----" "------" "------"
  for i in "${!STAGE_NAMES[@]}"; do
    printf '%-10s %-7s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}" "${STAGE_DETAILS[$i]}"
  done
  if [ "$FAILED" -ne 0 ]; then
    echo "CHECK FAILED"
    exit 1
  fi
  echo "CHECK OK"
  exit 0
}

# Configure + build + (optionally) test one tree with the warning gate.
# run_tree <dir> <stage-prefix> <extra-flags> <env-prefix> <run-tests>
run_tree() {
  local dir="$1" stage="$2" flags="$3" envs="$4" run_tests="$5"
  echo "== ${stage}: configure (${dir}) =="
  if [ -n "$flags" ]; then
    cmake -B "$dir" -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="$flags" \
      -DCMAKE_EXE_LINKER_FLAGS="$flags" > /dev/null || {
      record "$stage" FAIL
      return 1
    }
  else
    cmake -B "$dir" -S . > /dev/null || {
      record "$stage" FAIL
      return 1
    }
  fi
  echo "== ${stage}: build (warning gate) =="
  local log
  log=$(mktemp)
  cmake --build "$dir" -j "$(nproc)" 2>&1 | tee "$log"
  local rc=${PIPESTATUS[0]}
  if [ "$rc" -ne 0 ]; then
    echo "${stage}: build error"
    rm -f "$log"
    record "$stage" FAIL
    return 1
  fi
  if grep -E "warning:" "$log" > /dev/null; then
    echo "${stage}: compiler warnings:"
    grep -E "warning:" "$log" | sort -u
    rm -f "$log"
    record "$stage" FAIL
    return 1
  fi
  rm -f "$log"
  if [ "$run_tests" -eq 1 ]; then
    echo "== ${stage}: tests =="
    if ! (cd "$dir" && env $envs ctest --output-on-failure -j "$(nproc)"); then
      record "$stage" FAIL
      return 1
    fi
  fi
  record "$stage" PASS
  return 0
}

# -- lint ---------------------------------------------------------------------
echo "== lint (two-pass semantic engine) =="
if cmake -B "$BUILD_DIR" -S . > /dev/null &&
   cmake --build "$BUILD_DIR" -j "$(nproc)" --target mudi_lint > /dev/null; then
  LINT_LOG=$(mktemp -t mudi_lint.XXXXXX.log)
  LINT_JSON=$(mktemp -t mudi_lint.XXXXXX.json)
  "$BUILD_DIR"/tools/mudi_lint --root . | tee "$LINT_LOG"
  LINT_RC=${PIPESTATUS[0]}
  # Per-check counts for the summary table, from the text-mode footer
  # ("mudi_lint:   <check>  N unsuppressed, M suppressed" — only checks with
  # at least one finding appear; a silent footer means the repo is fully clean).
  LINT_DETAIL=$(awk '/unsuppressed, .* suppressed$/ { printf "%s%s:%s/%s", sep, $2, $3, $5; sep=" " }' \
    "$LINT_LOG")
  [ -n "$LINT_DETAIL" ] && LINT_DETAIL="findings (unsup/sup): $LINT_DETAIL"
  # Schema gate: the --json artifact must validate as mudi.lint.v1, whether
  # or not the findings pass — a malformed report is its own failure.
  if ! "$BUILD_DIR"/tools/mudi_lint --root . --json > "$LINT_JSON" 2>/dev/null; then
    :  # non-zero just mirrors unsuppressed findings; the validate call gates shape
  fi
  if ! "$BUILD_DIR"/tools/mudi_lint --validate "$LINT_JSON"; then
    echo "lint: --json output failed mudi.lint.v1 schema validation"
    LINT_RC=1
    LINT_DETAIL="${LINT_DETAIL:+$LINT_DETAIL; }json schema invalid"
  fi
  rm -f "$LINT_LOG" "$LINT_JSON"
  if [ "$LINT_RC" -eq 0 ]; then
    record "lint" PASS "12 checks, 0 unsuppressed${LINT_DETAIL:+; $LINT_DETAIL}"
  else
    record "lint" FAIL "$LINT_DETAIL"
  fi
else
  echo "lint: failed to build tools/mudi_lint"
  record "lint" FAIL "mudi_lint build failed"
fi
if [ "$FAILED" -ne 0 ]; then
  summary_and_exit
fi

# -- format (non-fatal) -------------------------------------------------------
echo "== format (non-fatal drift report) =="
if command -v clang-format > /dev/null 2>&1; then
  DRIFT=0
  CHECKED=0
  while IFS= read -r f; do
    CHECKED=$((CHECKED + 1))
    if ! clang-format --dry-run -Werror "$f" > /dev/null 2>&1; then
      DRIFT=$((DRIFT + 1))
      echo "format drift: $f"
    fi
  done < <(find src tests bench tools examples \
             \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) | sort)
  echo "format: ${DRIFT}/${CHECKED} file(s) drift from .clang-format (informational)"
  record "format" PASS
else
  echo "format: clang-format not installed; skipping"
  record "format" SKIP
fi

# -- plain tree: build + tests ------------------------------------------------
if [ "$RUN_BUILD" -eq 1 ]; then
  run_tree "$BUILD_DIR" "build" "" "" 0 || summary_and_exit
  if [ "$RUN_TESTS" -eq 1 ]; then
    echo "== tests =="
    if (cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)"); then
      record "tests" PASS
    else
      record "tests" FAIL
      summary_and_exit
    fi
  else
    record "tests" SKIP
  fi
else
  record "build" SKIP
  record "tests" SKIP
fi

# -- sanitizer trees ----------------------------------------------------------
if [ "$RUN_ASAN" -eq 1 ]; then
  ASAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -g"
  run_tree "build-asan" "asan" "$ASAN_FLAGS" \
    "ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 UBSAN_OPTIONS=print_stacktrace=1" 1 \
    || summary_and_exit
else
  record "asan" SKIP
fi

if [ "$RUN_TSAN" -eq 1 ]; then
  TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -g"
  run_tree "build-tsan" "tsan" "$TSAN_FLAGS" \
    "TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1" 1 \
    || summary_and_exit
else
  record "tsan" SKIP
fi

# -- bench smoke (opt-in) -----------------------------------------------------
if [ "$RUN_BENCH" -eq 1 ]; then
  echo "== bench: perf-trajectory smoke =="
  BENCH_BIN="$BUILD_DIR/bench/bench_throughput"
  BENCH_OUT=$(mktemp -t bench_throughput_smoke.XXXXXX.json)
  BENCH_RESULT=PASS
  if cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_throughput > /dev/null &&
     MUDI_BENCH_SCALE=0.05 "$BENCH_BIN" --presets=smoke --out="$BENCH_OUT" &&
     [ -s "$BENCH_OUT" ] &&
     "$BENCH_BIN" --validate="$BENCH_OUT"; then
    BENCH_RESULT=PASS
  else
    echo "bench: smoke run or JSON validation failed"
    BENCH_RESULT=FAIL
  fi
  rm -f "$BENCH_OUT"
  # mudibench/ builds src/ on its own and overrides every SchedulingEnv
  # virtual, so an src/ API change can break it without breaking this tree.
  echo "== bench: mudibench self-test =="
  if ! python3 mudibench/run.py --selftest; then
    echo "bench: mudibench self-test failed"
    BENCH_RESULT=FAIL
  fi
  # The self-test compares one build with itself; these pins compare it with
  # every earlier version whose simulated outcomes it must reproduce.
  echo "== bench: mudibench seed-7 digests vs pinned values =="
  declare -A PINNED_DIGESTS=(
    [fleet]=ad8817b952d970b1
    [coldstart]=b866fcc185dfddd7
    [chaos]=f56f7510d595c645
  )
  for workload in fleet coldstart chaos; do
    DIGEST=$(MUDI_FIT_THREADS=1 .bench_build/mudibench/mudibench --workload "$workload" \
               --seed 7 | sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p')
    if [ "$DIGEST" = "${PINNED_DIGESTS[$workload]}" ]; then
      echo "bench: $workload digest $DIGEST matches its pin"
    else
      echo "bench: $workload digest ${DIGEST:-missing} != pinned ${PINNED_DIGESTS[$workload]}"
      BENCH_RESULT=FAIL
    fi
  done
  # Fig. 18(b) reads the decision time from the harness's
  # policy.select_device region: a small run must print table (b) for both
  # clusters with a non-zero placement count, or the bench is printing nothing.
  echo "== bench: Fig. 18 overhead smoke =="
  FIG18_OUT=$(mktemp -t bench_fig18_smoke.XXXXXX.txt)
  if cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_fig18_overhead > /dev/null &&
     MUDI_BENCH_SCALE=0.02 "$BUILD_DIR"/bench/bench_fig18_overhead \
       --benchmark_filter='^$' > "$FIG18_OUT" 2> /dev/null; then
    FIG18_COUNTS=$(sed -n 's/^(b) .* (\([0-9]*\) placements):$/\1/p' "$FIG18_OUT")
    if [ "$(echo "$FIG18_COUNTS" | grep -c '^[1-9][0-9]*$')" -ne 2 ]; then
      echo "bench: Fig. 18 table (b) missing or empty (placements: ${FIG18_COUNTS:-none})"
      BENCH_RESULT=FAIL
    else
      echo "bench: Fig. 18 table (b) placements: $(echo $FIG18_COUNTS)"
    fi
  else
    echo "bench: Fig. 18 smoke run failed"
    BENCH_RESULT=FAIL
  fi
  rm -f "$FIG18_OUT"
  # Regression gate against the committed perf-trajectory baseline. The
  # committed artifact was produced at full scale, so the gate re-runs the
  # smoke preset at full scale too (it is tiny — well under a minute) for an
  # apples-to-apples comparison of simulated seconds per wall second (not
  # events/s: a change that fires fewer events for the same simulated work
  # lowers events/s while the run gets faster); exit 3 means some (preset,
  # policy) pair regressed past --max-regress.
  if [ "$BENCH_RESULT" = PASS ] && [ -f BENCH_throughput.json ]; then
    echo "== bench: smoke sim-s/wall-s vs committed BENCH_throughput.json (>20% fails) =="
    REGRESS_OUT=$(mktemp -t bench_throughput_regress.XXXXXX.json)
    MUDI_BENCH_SCALE=1 "$BENCH_BIN" --presets=smoke --out="$REGRESS_OUT" \
      --compare=BENCH_throughput.json --max-regress=0.2
    REGRESS_RC=$?
    rm -f "$REGRESS_OUT"
    if [ "$REGRESS_RC" -eq 3 ]; then
      if [ "$FAST_MODE" -eq 1 ]; then
        echo "bench: smoke sim-s/wall-s regressed >20% vs baseline (WARN under --fast)"
        BENCH_RESULT=WARN
      else
        echo "bench: smoke sim-s/wall-s regressed >20% vs committed baseline"
        BENCH_RESULT=FAIL
      fi
    elif [ "$REGRESS_RC" -ne 0 ]; then
      echo "bench: regression compare failed (rc=$REGRESS_RC)"
      BENCH_RESULT=FAIL
    fi
  fi
  # Learner-fit micro-benchmarks at Initialize's cross-validation shape
  # (DESIGN.md §12.5). Informational, not a gate: shared-host noise swamps any
  # per-fit threshold, so the CPU ns per fit only lands in the stage detail.
  echo "== bench: learner fit micro-benchmarks (informational) =="
  FIT_DETAIL=""
  if cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_micro_substrates > /dev/null; then
    FIT_DETAIL=$("$BUILD_DIR"/bench/bench_micro_substrates --benchmark_filter='Fit$' \
                   --benchmark_format=csv 2>/dev/null |
                 awk -F, '/^"BM_/ { gsub(/"/, "", $1); sub(/^BM_/, "", $1);
                                    printf "%s%s=%.0f", sep, $1, $4; sep=" " }')
  fi
  echo "bench: cpu ns/fit: ${FIT_DETAIL:-unavailable}"
  record "bench" "$BENCH_RESULT" "cpu ns/fit: ${FIT_DETAIL:-unavailable}"
else
  record "bench" SKIP
fi

# -- chaos: fault suites under ASan (opt-in) ----------------------------------
if [ "$RUN_CHAOS" -eq 1 ]; then
  echo "== chaos: fault suites (device + control plane) under ASan+UBSan =="
  CHAOS_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -g"
  CHAOS_RESULT=PASS
  # Only the suites the fault domain touches are built, so --chaos stays much
  # cheaper than the full asan stage (and reuses build-asan when that stage
  # already populated it).
  if cmake -B build-asan -S . \
       -DCMAKE_BUILD_TYPE=RelWithDebInfo \
       -DCMAKE_CXX_FLAGS="$CHAOS_FLAGS" \
       -DCMAKE_EXE_LINKER_FLAGS="$CHAOS_FLAGS" > /dev/null &&
     cmake --build build-asan -j "$(nproc)" \
       --target fault_test determinism_test cluster_test common_test > /dev/null; then
    if (cd build-asan && \
        env ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
            UBSAN_OPTIONS=print_stacktrace=1 \
        ctest --output-on-failure -j "$(nproc)" \
          -R '(Fault|KvStore|Retr|Determinism|Chaos)'); then
      CHAOS_RESULT=PASS
    else
      CHAOS_RESULT=FAIL
    fi
  else
    echo "chaos: failed to build fault suites under ASan"
    CHAOS_RESULT=FAIL
  fi
  record "chaos" "$CHAOS_RESULT"
else
  record "chaos" SKIP
fi

# -- replay: record/replay smoke under ASan (opt-in) --------------------------
if [ "$RUN_REPLAY" -eq 1 ]; then
  echo "== replay: decision-trace record/replay smoke under ASan+UBSan =="
  REPLAY_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -g"
  REPLAY_ENV="ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 UBSAN_OPTIONS=print_stacktrace=1"
  REPLAY_RESULT=PASS
  REPLAY_TRACE=$(mktemp -t mudi_replay_smoke.XXXXXX.trace)
  WHATIF_TRACE=$(mktemp -t mudi_replay_whatif.XXXXXX.trace)
  if cmake -B build-asan -S . \
       -DCMAKE_BUILD_TYPE=RelWithDebInfo \
       -DCMAKE_CXX_FLAGS="$REPLAY_FLAGS" \
       -DCMAKE_EXE_LINKER_FLAGS="$REPLAY_FLAGS" > /dev/null &&
     cmake --build build-asan -j "$(nproc)" \
       --target mudi_cli trace_diff > /dev/null; then
    # (1) Record a smoke run, then fidelity-replay it: mudi_cli exits
    # non-zero unless the replayed metrics are byte-identical to the
    # recorded run AND >=90% of profiler invocations were served from the
    # trace instead of recomputed.
    if ! env $REPLAY_ENV build-asan/tools/mudi_cli \
           --policy Mudi --tasks 24 --seed 7 --replay-verify "$REPLAY_TRACE"; then
      echo "replay: record->replay fidelity check failed"
      REPLAY_RESULT=FAIL
    fi
    # (2) Same-policy counterfactual: with no simulation at all, Mudi over
    # its own trace must reproduce every recorded decision.
    if [ "$REPLAY_RESULT" = PASS ]; then
      WHATIF_OUT=$(env $REPLAY_ENV build-asan/tools/mudi_cli \
                     --whatif "$REPLAY_TRACE" --policy Mudi)
      if [ $? -ne 0 ] || ! echo "$WHATIF_OUT" | grep -q "no divergence"; then
        echo "replay: same-policy counterfactual failed to reproduce the trace"
        echo "$WHATIF_OUT"
        REPLAY_RESULT=FAIL
      fi
    fi
    # (3) Cross-policy counterfactual + diff: the device-only ablation
    # writes its what-if trace, and trace_diff must align it against the
    # source (exit 1 = diverged is expected; only exit 2 = bad input fails).
    if [ "$REPLAY_RESULT" = PASS ]; then
      if ! env $REPLAY_ENV build-asan/tools/mudi_cli \
             --whatif "$REPLAY_TRACE" --policy Mudi-device-only \
             --record "$WHATIF_TRACE" > /dev/null; then
        echo "replay: cross-policy counterfactual run failed"
        REPLAY_RESULT=FAIL
      else
        env $REPLAY_ENV build-asan/tools/trace_diff \
          "$REPLAY_TRACE" "$WHATIF_TRACE" > /dev/null
        if [ $? -eq 2 ]; then
          echo "replay: trace_diff rejected the recorded/what-if trace pair"
          REPLAY_RESULT=FAIL
        fi
      fi
    fi
  else
    echo "replay: failed to build mudi_cli/trace_diff under ASan"
    REPLAY_RESULT=FAIL
  fi
  rm -f "$REPLAY_TRACE" "$WHATIF_TRACE"
  record "replay" "$REPLAY_RESULT"
else
  record "replay" SKIP
fi

summary_and_exit
