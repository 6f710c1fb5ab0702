#!/usr/bin/env bash
# SimSweep static/dynamic concurrency-analysis driver.
#
# Passes (each reported PASS / FAIL / SKIP in the final summary):
#   audit          simsweep_audit cross-artifact linter (DESIGN.md §2.6).
#                  Dependency-free C++ — builds with any host compiler, so
#                  it runs even on GCC-only hosts and the static_analysis
#                  ctest no longer skips there.
#   clang-tidy     .clang-tidy checks (bugprone-*, concurrency-*,
#                  performance-*) over src/, tests/ and bench/, driven by
#                  the build tree's compile_commands.json
#                  (CMAKE_EXPORT_COMPILE_COMMANDS is ON by default).
#   thread-safety  clang++ -Wthread-safety -Wthread-safety-beta
#                  -Werror=thread-safety over src/ (the -beta tier checks
#                  the lock_ranks acquired_after edges).
#   compile-fail   tests/compile_fail/*.cpp must FAIL to compile under the
#                  thread-safety flags (deliberate lock-rank inversions).
#   matrix         (--full only) SIMSWEEP_CHECKED build + executor death
#                  tests; TSan build + `ctest -L tsan`; ASan+UBSan build +
#                  full ctest.
#
# Modes: --ctest (default, static passes only) | --full (adds the matrix).
#
# Exit: 0 = every pass that ran is clean; 77 = ctest SKIP, nothing could
#       run (no compiler at all); 1 = at least one pass failed; 2 = usage.
set -u

SRC="${SIMSWEEP_SOURCE_DIR:-$(cd "$(dirname "$0")/.." && pwd)}"
BUILD="${SIMSWEEP_BUILD_DIR:-$SRC/build}"
MODE="${1:---ctest}"
JOBS="${SIMSWEEP_ANALYSIS_JOBS:-$(nproc 2>/dev/null || echo 2)}"

# Per-pass results, appended as "name:STATUS" (bash-3.2-safe: no
# associative arrays). The summary loop and the exit code derive from
# this list alone, so a pass can never fail without failing the run —
# the exit-propagation bug this rewrite removes.
results=()

note()   { printf '== %s\n' "$*"; }
record() { results+=("$1:$2"); printf '== pass %-14s %s\n' "$1" "$2"; }

# ---------------------------------------------------------------------- audit
run_audit() {
  local bin="${SIMSWEEP_AUDIT_BIN:-}"
  if [ -z "$bin" ] || [ ! -x "$bin" ]; then
    # Standalone invocation (not via ctest): build the linter on the fly
    # with whatever host compiler exists.
    local cxx
    cxx=$(command -v c++ || command -v g++ || command -v clang++ || true)
    if [ -z "$cxx" ]; then
      record audit SKIP "no C++ compiler to build simsweep_audit"
      return 0
    fi
    bin="${TMPDIR:-/tmp}/simsweep_audit.$$"
    note "audit: building simsweep_audit with $cxx"
    if ! "$cxx" -std=c++20 -O1 -o "$bin" \
         "$SRC/tools/audit/simsweep_audit.cpp"; then
      record audit FAIL
      return 0
    fi
    # shellcheck disable=SC2064  # expand now: $bin is local to this fn
    trap "rm -f '$bin'" EXIT
  fi
  note "audit: $bin $SRC"
  if "$bin" "$SRC"; then
    record audit PASS
  else
    record audit FAIL
  fi
}

# ---------------------------------------------------------------- clang-tidy
run_clang_tidy() {
  local tidy
  tidy=$(command -v clang-tidy || true)
  if [ -z "$tidy" ]; then
    record clang-tidy SKIP
    return 0
  fi
  local db="$BUILD"
  if [ ! -f "$db/compile_commands.json" ]; then
    note "clang-tidy: no compile_commands.json in $db - configuring one"
    db="$SRC/build-analysis"
    cmake -B "$db" -S "$SRC" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
          >/dev/null || { record clang-tidy FAIL; return 0; }
  fi
  note "clang-tidy: src/ tests/ bench/ against $db/compile_commands.json"
  local rc=0 f
  while IFS= read -r f; do
    "$tidy" -p "$db" --quiet "$f" || rc=1
  done < <(find "$SRC/src" "$SRC/tests" "$SRC/bench" \
                -name '*.cpp' -not -path '*/fixtures/*' \
                -not -path '*/compile_fail/*' | sort)
  if [ "$rc" -eq 0 ]; then record clang-tidy PASS; else record clang-tidy FAIL; fi
}

# ------------------------------------------------- Clang thread-safety pass
thread_safety_flags() {
  printf '%s\n' -fsyntax-only -std=c++20 -Wall -Wextra \
         -Wthread-safety -Wthread-safety-beta -Werror=thread-safety \
         -I "$SRC/src"
}

run_thread_safety() {
  local cxx
  cxx=$(command -v clang++ || true)
  if [ -z "$cxx" ]; then
    record thread-safety SKIP
    return 0
  fi
  note "-Wthread-safety(-beta): syntax-checking src/ with clang++"
  local rc=0 f
  local flags; mapfile -t flags < <(thread_safety_flags)
  while IFS= read -r f; do
    "$cxx" "${flags[@]}" "$f" || rc=1
  done < <(find "$SRC/src" -name '*.cpp' | sort)
  if [ "$rc" -eq 0 ]; then record thread-safety PASS; else record thread-safety FAIL; fi
}

# ----------------------------------------------------- compile-fail corpus
run_compile_fail() {
  local cxx
  cxx=$(command -v clang++ || true)
  if [ -z "$cxx" ]; then
    record compile-fail SKIP
    return 0
  fi
  local rc=0 f
  local flags; mapfile -t flags < <(thread_safety_flags)
  while IFS= read -r f; do
    note "compile-fail: $f (must NOT compile)"
    if "$cxx" "${flags[@]}" "$f" 2>/dev/null; then
      printf 'compile-fail: %s compiled cleanly but must be rejected\n' \
             "$f" >&2
      rc=1
    fi
  done < <(find "$SRC/tests/compile_fail" -name '*.cpp' 2>/dev/null | sort)
  if [ "$rc" -eq 0 ]; then record compile-fail PASS; else record compile-fail FAIL; fi
}

# ------------------------------------------------------- dynamic build matrix
matrix_failed=0

build_and_test() {
  # build_and_test <dir-suffix> <ctest-args...> -- <cmake-args...>
  local dir="$SRC/build-$1"; shift
  local ctest_args=()
  while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do ctest_args+=("$1"); shift; done
  [ "$#" -gt 0 ] && shift  # drop --
  note "matrix[$dir]: configure ($*)"
  cmake -B "$dir" -S "$SRC" "$@" >/dev/null \
    || { matrix_failed=1; return 1; }
  note "matrix[$dir]: build"
  cmake --build "$dir" -j "$JOBS" >/dev/null \
    || { matrix_failed=1; return 1; }
  note "matrix[$dir]: ctest ${ctest_args[*]:-}"
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" "${ctest_args[@]}") \
    || matrix_failed=1
}

run_full_matrix() {
  # Checked build: executor protocol invariants + the deliberate-violation
  # death tests live in test_parallel.
  build_and_test checked -R 'ThreadPool|Lanes|Checked|SatSweeper|SweepProbe|CecService|Portfolio' \
    -- -DSIMSWEEP_CHECKED=ON
  # TSan over the concurrency-labelled suites.
  build_and_test tsan -L tsan -LE static_analysis \
    -- -DSIMSWEEP_SANITIZE=thread
  # ASan+UBSan over the whole suite (static_analysis itself excluded to
  # avoid recursion).
  build_and_test asan -LE static_analysis \
    -- "-DSIMSWEEP_SANITIZE=address;undefined"
  if [ "$matrix_failed" -eq 0 ]; then record matrix PASS; else record matrix FAIL; fi
}

case "$MODE" in
  --ctest|--quick)
    run_audit
    run_clang_tidy
    run_thread_safety
    run_compile_fail
    ;;
  --full)
    run_audit
    run_clang_tidy
    run_thread_safety
    run_compile_fail
    run_full_matrix
    ;;
  *)
    echo "usage: $0 [--ctest|--quick|--full]" >&2
    exit 2
    ;;
esac

# ------------------------------------------------------------------ summary
echo
echo "static analysis summary:"
ran_any=0
failed=0
for entry in "${results[@]}"; do
  printf '  %-14s %s\n' "${entry%%:*}" "${entry#*:}"
  case "${entry#*:}" in
    PASS) ran_any=1 ;;
    FAIL) ran_any=1; failed=1 ;;
  esac
done

if [ "$failed" -ne 0 ]; then
  echo "static analysis: FAILED" >&2
  exit 1
fi
if [ "$ran_any" -eq 0 ]; then
  echo "static analysis: no analysis tool available on this host - SKIP"
  exit 77
fi
echo "static analysis: OK"
