#!/usr/bin/env bash
# The single pre-merge gate: tier-1 build + full ctest, then the
# correctness matrix of scripts/check.sh (lint + sanitizers), then the
# performance-trajectory snapshot.
#
#   scripts/ci.sh               # tier-1 + lint + ASan + UBSan + model check
#   scripts/ci.sh --fast        # tier-1 + lint + ASan (quick local loop)
#   scripts/ci.sh --tsan        # ... plus the threaded suites under TSan
#   scripts/ci.sh --no-bench    # skip the BENCH_pipeline.json snapshot and
#                               # the perfbench smoke tests
#   scripts/ci.sh --no-docs     # skip the EXPERIMENTS.md drift gate
#   scripts/ci.sh --no-model    # skip the shm-protocol model-checking stage
#   scripts/ci.sh --no-chaos    # skip the fixed-seed fault-injection matrix
#   scripts/ci.sh --no-sched    # skip the adaptive-scheduler gate (bench_sched)
#   scripts/ci.sh --no-plugins  # skip the in-situ analytics gate (bench_plugin)
#   scripts/ci.sh --no-facility # skip the multi-tenant facility gate (bench_facility)
#   scripts/ci.sh --no-static   # skip the static gates (dmr_lint + -Wthread-safety)
#   scripts/ci.sh --no-verify   # skip the dmr_verify dataflow analyzer
#
# Extra flags are passed through to scripts/check.sh. Exits non-zero on
# the first failing step. Pass or fail, it ends with a summary of every
# stage that did not run: opted out by a flag, or reported
# "SKIPPED (reason)" by scripts/check.sh because this host lacks its
# tool.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
RUN_BENCH=1
RUN_DOCS=1
RUN_MODEL=1
RUN_CHAOS=1
RUN_SCHED=1
RUN_PLUGINS=1
RUN_FACILITY=1
RUN_STATIC=1
RUN_VERIFY=1
CHECK_ARGS=()
for arg in "$@"; do
  case "$arg" in
    --no-bench) RUN_BENCH=0 ;;
    --no-docs) RUN_DOCS=0 ;;
    --no-model) RUN_MODEL=0 ;;
    --no-chaos) RUN_CHAOS=0 ;;
    --no-sched) RUN_SCHED=0 ;;
    --no-plugins) RUN_PLUGINS=0 ;;
    --no-facility) RUN_FACILITY=0 ;;
    --no-static) RUN_STATIC=0 ;;
    --no-verify) RUN_VERIFY=0 ;;
    --fast) RUN_MODEL=0; RUN_CHAOS=0; RUN_SCHED=0; RUN_PLUGINS=0; RUN_FACILITY=0; CHECK_ARGS+=("$arg") ;;
    *) CHECK_ARGS+=("$arg") ;;
  esac
done
if [ "$RUN_MODEL" = 1 ]; then
  CHECK_ARGS+=("--model")
fi
if [ "$RUN_CHAOS" = 1 ]; then
  CHECK_ARGS+=("--chaos")
fi
if [ "$RUN_SCHED" = 1 ]; then
  CHECK_ARGS+=("--sched")
fi
if [ "$RUN_PLUGINS" = 1 ]; then
  CHECK_ARGS+=("--plugins")
fi
if [ "$RUN_FACILITY" = 1 ]; then
  CHECK_ARGS+=("--facility")
fi
if [ "$RUN_STATIC" = 1 ]; then
  CHECK_ARGS+=("--static")
fi
if [ "$RUN_VERIFY" = 1 ]; then
  CHECK_ARGS+=("--verify")
fi

CURRENT_STEP=""
step() { CURRENT_STEP="$*"; printf '\n==== %s ====\n' "$*"; }

# Skipped stages, one "stage: SKIPPED (reason)" line each; scripts/
# check.sh appends its own through DMR_SKIP_LOG.
DMR_SKIP_LOG="$(mktemp)"
export DMR_SKIP_LOG
opted_out() {
  if [ "$1" = 0 ]; then
    printf '%s: SKIPPED (%s)\n' "$2" "opted out by $3" >>"$DMR_SKIP_LOG"
  fi
}
opted_out "$RUN_BENCH" "bench_pipeline + perfbench smoke tests" "--no-bench"
opted_out "$RUN_DOCS" "docs drift" "--no-docs"
opted_out "$RUN_MODEL" "model checker" "--no-model or --fast"
opted_out "$RUN_CHAOS" "chaos (bench_fault --check)" "--no-chaos or --fast"
opted_out "$RUN_SCHED" "sched (bench_sched --check)" "--no-sched or --fast"
opted_out "$RUN_PLUGINS" "plugins (bench_plugin --check)" "--no-plugins or --fast"
opted_out "$RUN_FACILITY" "facility (bench_facility --check)" "--no-facility or --fast"
opted_out "$RUN_STATIC" "static gates (dmr_lint + -Wthread-safety)" "--no-static"
opted_out "$RUN_VERIFY" "verify (dmr_verify)" "--no-verify"
summary() {
  local rc=$?
  printf '\n==== ci.sh summary ====\n'
  if [ -s "$DMR_SKIP_LOG" ]; then
    cat "$DMR_SKIP_LOG"
  else
    echo "no stage was skipped"
  fi
  rm -f "$DMR_SKIP_LOG"
  [ "$rc" = 0 ] || echo "ci.sh FAILED (exit $rc) in: $CURRENT_STEP"
}
trap summary EXIT

# ------------------------------------------------------- tier-1: ctest
# The plain-build test run every PR must keep green (ROADMAP.md).
step "tier-1 build"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

step "tier-1 ctest"
ctest --test-dir build --output-on-failure -j "$JOBS"

# ------------------------------------------------------ docs-drift gate
# EXPERIMENTS.md's paper-vs-measured tables and results/figures/*.json
# are generated from the simulation; fail when the committed versions
# disagree with what the code measures (deterministic regeneration, see
# scripts/gen_experiments_md.sh).
if [ "$RUN_DOCS" = 1 ]; then
  step "docs drift (EXPERIMENTS.md vs gen_experiments)"
  scripts/gen_experiments_md.sh --check
fi

# --------------------------------------- correctness: lint + sanitizers
step "scripts/check.sh ${CHECK_ARGS[*]:-}"
scripts/check.sh ${CHECK_ARGS[@]+"${CHECK_ARGS[@]}"}

# ------------------------------------------- performance trajectory
# One diffable JSON per run; compare against the previous PR's snapshot
# to spot pipeline-stage or substrate regressions.
if [ "$RUN_BENCH" = 1 ]; then
  step "bench_pipeline -> build/BENCH_pipeline.json"
  cmake --build build -j "$JOBS" --target bench_pipeline
  ./build/bench/bench_pipeline build/BENCH_pipeline.json

  # The end-to-end benchmark's own tests (~25 s; ~1.5 min when it first
  # builds its own Release tree): every workload in smoke mode, and a
  # flipped output byte must still fail its read-back check.
  step "perfbench smoke tests"
  python3 perfbench/test_perfbench.py
fi

step "ci green"
