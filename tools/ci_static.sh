#!/usr/bin/env bash
# CI static-analysis gate: the one command a pipeline runs to enforce every
# static check this repo defines.
#
#   1. `cmake --build <dir> --target check-static` — one ns_lint run over
#      the real tree (architecture, concurrency and hot-path packs, with
#      the header compile check), then the fast clang-tidy tier (each stage
#      skips cleanly where its toolchain is missing).
#   2. `ctest -L analysis` from <dir> — the positive ns_lint tree run, every
#      seeded negative fixture (one per rule), the no-manifest usage
#      check, header self-containment, and the deep lint tier where
#      available.
#
# Both stages always run; the exit code is the OR of their failures, so a
# fixture regression cannot hide behind a green tree run or vice versa.
#
# Usage: tools/ci_static.sh [build-dir]   (build-dir defaults to ./build,
# which must already be configured; the target builds what it needs.)

set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

if [ ! -f "${build_dir}/CMakeCache.txt" ]; then
  echo "ci_static: ${build_dir} is not a configured build dir." >&2
  echo "ci_static: run: cmake -B '${build_dir}' -S '${repo_root}'" >&2
  exit 2
fi

status=0

if ! cmake --build "${build_dir}" --target check-static; then
  echo "ci_static: check-static FAILED" >&2
  status=1
fi

if ! ctest --test-dir "${build_dir}" -L analysis --output-on-failure; then
  echo "ci_static: ctest -L analysis FAILED" >&2
  status=1
fi

exit "${status}"
