#!/usr/bin/env bash
# Lint gate: run clang-tidy (config: .clang-tidy at the repo root) over the
# project's own sources using the compile database of an existing build
# directory. Exits nonzero on any finding (WarningsAsErrors: '*').
#
# Usage: tools/run_lint.sh [--tier fast|deep] [--serial]
#                          [--sources-from FILE] [build-dir]
#   --tier fast     (default) the curated .clang-tidy check set — quick
#                   enough to gate every build.
#   --tier deep     additionally enables the path-sensitive analyzer tier:
#                   clang-analyzer-*, concurrency-*, and the cert-* subset
#                   documented in the .clang-tidy header. Slower by design;
#                   run it from `ctest -L analysis` or CI, not the inner
#                   loop.
#   --serial        force the per-file fallback loop even when the parallel
#                   run-clang-tidy driver is available (the fixture test
#                   uses this to exercise exit-code aggregation).
#   --sources-from  newline-separated file list (absolute, or relative to
#                   the repo root) replacing the default `find` over
#                   src/tools/bench/examples — used by the fixture test.
#   build-dir       defaults to ./build; must contain compile_commands.json
#                   (exported unconditionally by the root CMakeLists).
#
# Environments without clang-tidy (the tool is optional for building) skip
# the gate with exit 0 so `ctest -L lint` / `-L analysis` stay green
# everywhere; CI images that do ship clang-tidy enforce it.

set -u

tier=fast
serial=0
sources_from=""
build_dir=""

while [ $# -gt 0 ]; do
  case "$1" in
    --tier)
      tier="${2:?--tier needs a value}"
      shift 2
      ;;
    --tier=*)
      tier="${1#*=}"
      shift
      ;;
    --serial)
      serial=1
      shift
      ;;
    --sources-from)
      sources_from="${2:?--sources-from needs a file}"
      shift 2
      ;;
    --*)
      echo "run_lint: unknown option $1" >&2
      exit 2
      ;;
    *)
      build_dir="$1"
      shift
      ;;
  esac
done

case "${tier}" in
  fast|deep) ;;
  *)
    echo "run_lint: --tier must be fast or deep, got '${tier}'" >&2
    exit 2
    ;;
esac

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${build_dir:-${repo_root}/build}"

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "run_lint: clang-tidy not found on PATH — ${tier} lint tier skipped" >&2
  exit 0
fi

if [ ! -f "${build_dir}/compile_commands.json" ]; then
  echo "run_lint: ${build_dir}/compile_commands.json not found." >&2
  echo "run_lint: configure first: cmake -B '${build_dir}' -S '${repo_root}'" >&2
  exit 2
fi

# Deep tier: path-sensitive checks appended on top of the .clang-tidy
# Checks. Later globs win in clang-tidy's resolution, so the negations
# (justified in the .clang-tidy header) must ride *after* the positive
# globs here — listing them in the config file alone would be overridden
# by the appended cert-* glob.
deep_checks='clang-analyzer-*,concurrency-*,cert-*'
deep_checks+=',-cert-err58-cpp'   # gtest/benchmark static registrations
deep_checks+=',-cert-msc32-c,-cert-msc51-cpp'  # deterministic seeds required
deep_checks+=',-cert-dcl21-cpp'   # deprecated upstream; fights move semantics
tidy_args=()
if [ "${tier}" = deep ]; then
  tidy_args+=("--checks=${deep_checks}")
fi

# Project sources only: the compile database also covers third-party code
# (GTest/benchmark object libraries) and generated header TUs that are
# gated elsewhere.
if [ -n "${sources_from}" ]; then
  mapfile -t sources < "${sources_from}"
else
  mapfile -t sources < <(cd "${repo_root}" &&
    find src tools bench examples -name '*.cpp' | sort)
fi

if [ "${#sources[@]}" -eq 0 ]; then
  echo "run_lint: no sources to lint" >&2
  exit 2
fi

if [ "${serial}" -eq 0 ] && command -v run-clang-tidy >/dev/null 2>&1; then
  # Parallel driver when available (ships with clang-tidy). It aggregates
  # per-file failures itself: nonzero exit if any file had findings.
  cd "${repo_root}"
  run-clang-tidy -quiet -p "${build_dir}" ${tidy_args[0]:+"${tidy_args[@]}"} \
    "${sources[@]}"
  exit $?
fi

# Fallback: per-file loop. Failures are *counted*, never short-circuited,
# so a clean file after a dirty one cannot mask the dirty one's findings
# (tests/lint_fixture.cmake seeds exactly that ordering).
checked=0
failed=0
for f in "${sources[@]}"; do
  [ -n "${f}" ] || continue
  case "${f}" in
    /*) path="${f}" ;;
    *) path="${repo_root}/${f}" ;;
  esac
  if ! clang-tidy --quiet ${tidy_args[0]:+"${tidy_args[@]}"} \
      -p "${build_dir}" "${path}"; then
    failed=$((failed + 1))
  fi
  checked=$((checked + 1))
done

echo "run_lint: ${tier} tier: ${checked} file(s) checked, ${failed} with findings" >&2
[ "${failed}" -eq 0 ]
