#!/usr/bin/env bash
# Parallel-mode tier-1 tests under ThreadSanitizer.
#
# Builds the "tsan" preset (build-tsan/, ACTOP_SANITIZE=thread, which the
# toplevel CMakeLists maps to -fsanitize=thread) and runs the portion of the
# tier-1 suite that exercises the sharded engine's worker threads: the
# ShardedEngine unit tests (window barriers, rail cuts, exchange hooks), the
# sharded network test (an envelope released on another shard's thread parks
# in that thread's pool), the parallel scenario suite (four-shard fig10b equivalence and --threads=4
# report determinism), and the chaos harness's parallel determinism + seed
# sweep. The serial suites add nothing under TSan — they are single-threaded
# by construction — so the default filter keeps the run minutes, not hours
# (TSan is ~5-15x on these simulators).
#
# Any data race in the conservative-window protocol (a shard reading a
# neighbour's Simulation outside the barrier, an exchange buffer touched
# before its epoch is published, a stats counter shared across workers)
# aborts the test immediately via halt_on_error.
#
# Usage:
#   scripts/check_tsan.sh              # parallel-exercising suites under TSan
#   scripts/check_tsan.sh -R Sharded   # extra args replace the default filter
#   TSAN_FULL=1 scripts/check_tsan.sh  # entire tier-1 suite under TSan

set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset tsan >/dev/null
cmake --build build-tsan -j >/dev/null

# A configure/build that silently produced nothing must not let the ctest
# below "pass" on an empty or stale test universe.
if [[ ! -f build-tsan/CTestTestfile.cmake ]]; then
  echo "check_tsan: ERROR: build-tsan/ has no CTest manifest; build failed?" >&2
  exit 1
fi

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
cd build-tsan

if [[ $# -gt 0 ]]; then
  ctest --output-on-failure -j "$(nproc)" "$@"
elif [[ "${TSAN_FULL:-0}" == "1" ]]; then
  ctest --output-on-failure -j "$(nproc)" -LE perf
else
  ctest --output-on-failure -j "$(nproc)" \
    -R 'ShardedEngine|NetworkSharded|ScenarioParallel|ChaosDeterminism|ChaosParallelSeed'
fi
