#!/usr/bin/env bash
# The single pre-merge gate: tier-1 build + full ctest, then the
# correctness matrix of scripts/check.sh (lint + sanitizers), then the
# performance-trajectory snapshot.
#
#   scripts/ci.sh               # every stage: tier-1 + docs drift + lint +
#                               # ASan + UBSan + model check + chaos + sched +
#                               # plugins + facility + static gates + bench
#   scripts/ci.sh --fast        # quick local loop: skips UBSan and the
#                               # model/chaos/sched/plugins/facility gates
#   scripts/ci.sh --tsan        # ... plus the threaded suites under TSan
#
# --fast and --tsan are the only flags; both are passed on to
# scripts/check.sh. Any other flag exits 2 with usage before the first
# stage runs. Exits non-zero on the first failing step. Pass or fail, it
# ends with a summary of every stage that did not run: left out by
# --fast, or reported "SKIPPED (reason)" by scripts/check.sh because
# this host lacks its tool.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
FAST=0
CHECK_ARGS=()
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --tsan) ;;
    *)
      echo "ci.sh: unknown option: $arg" >&2
      echo "usage: scripts/ci.sh [--fast] [--tsan]" >&2
      exit 2
      ;;
  esac
  CHECK_ARGS+=("$arg")
done
# The slow check.sh gates the full run adds and --fast leaves out.
FULL_ONLY_ARGS=(--model --chaos --sched --plugins --facility)
if [ "$FAST" = 0 ]; then
  CHECK_ARGS+=("${FULL_ONLY_ARGS[@]}")
fi
CHECK_ARGS+=("--static")

CURRENT_STEP=""
step() { CURRENT_STEP="$*"; printf '\n==== %s ====\n' "$*"; }

# Skipped stages, one "stage: SKIPPED (reason)" line each; scripts/
# check.sh appends its own through DMR_SKIP_LOG.
DMR_SKIP_LOG="$(mktemp)"
export DMR_SKIP_LOG
if [ "$FAST" = 1 ]; then
  for gate in "${FULL_ONLY_ARGS[@]}"; do
    printf 'check.sh %s: SKIPPED (--fast)\n' "$gate" >>"$DMR_SKIP_LOG"
  done
fi
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
step "docs drift (EXPERIMENTS.md vs gen_experiments)"
scripts/gen_experiments_md.sh --check

# --------------------------------------- correctness: lint + sanitizers
step "scripts/check.sh ${CHECK_ARGS[*]:-}"
scripts/check.sh ${CHECK_ARGS[@]+"${CHECK_ARGS[@]}"}

# ------------------------------------------- performance trajectory
# One diffable JSON per run; compare against the previous PR's snapshot
# to spot pipeline-stage or substrate regressions.
step "bench_pipeline -> build/BENCH_pipeline.json"
cmake --build build -j "$JOBS" --target bench_pipeline
./build/bench/bench_pipeline build/BENCH_pipeline.json

# The end-to-end benchmark's own tests (~25 s; ~1.5 min when it first
# builds its own Release tree): every workload in smoke mode, and a
# flipped output byte must still fail its read-back check.
step "perfbench smoke tests"
python3 perfbench/test_perfbench.py

step "ci green"
