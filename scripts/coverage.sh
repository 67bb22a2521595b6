#!/bin/sh
# Line-coverage run: configure an instrumented tree (DELTACOL_COVERAGE=ON),
# build, run the full ctest suite, and summarize line coverage per source
# directory. The summary is written to <build_dir>/coverage_summary.txt (CI
# uploads it as an artifact) and echoed to stdout.
#
# Usage: scripts/coverage.sh [build_dir]   (default: build-cov)
#
# Summarizers, best available first:
#   * gcovr  — per-file table + totals (apt install gcovr);
#   * gcov   — raw fallback: aggregates "Lines executed" per object file with
#              awk, no extra dependencies beyond the compiler itself.
set -eu

BUILD_DIR="${1:-build-cov}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
SUMMARY="$BUILD_DIR/coverage_summary.txt"

cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DDELTACOL_COVERAGE=ON \
  -DDELTACOL_BUILD_BENCH=OFF \
  -DDELTACOL_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 2)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc 2>/dev/null || echo 2)"

if command -v gcovr >/dev/null 2>&1; then
  # Restrict to the library sources; tests measuring themselves is noise.
  gcovr --root "$SRC_DIR" --filter "$SRC_DIR/src/" \
    --print-summary --txt "$SUMMARY" "$BUILD_DIR"
  cat "$SUMMARY"
else
  echo "gcovr not found; falling back to raw gcov aggregation" >&2
  # Whole build tree, like the gcovr path: test TUs drive the coverage of
  # header-only code (e.g. the templated queries in frontier_bfs.h), and the
  # src/-prefix filter below drops gtest/system-header noise.
  find "$BUILD_DIR" -name '*.gcda' | while read -r gcda; do
    # -n: report only, no .gcov files; object-dir keyed so src paths resolve.
    gcov -n -o "$(dirname "$gcda")" "$gcda" 2>/dev/null
  done | awk -v src="$SRC_DIR/src/" '
    /^File /          { file = $2; gsub(/\x27/, "", file) }
    /^Lines executed/ {
      # Library sources only; headers are measured once per including TU,
      # so aggregate line counts per file across TUs.
      if (index(file, src) != 1) next
      split($0, a, ":"); split(a[2], b, "% of ");
      cov[file] += b[1] / 100.0 * b[2]; tot[file] += b[2];
    }
    END {
      for (f in tot) {
        covered += cov[f]; total += tot[f]
        short = f; sub(src, "", short)
        printf "%7.2f%% of %5d lines  %s\n",
               100.0 * cov[f] / tot[f], tot[f], short
      }
      if (total > 0)
        printf "%7.2f%% of %5d lines  TOTAL\n",
               100.0 * covered / total, total
    }' | sort -k4 | tee "$SUMMARY"
fi
echo "coverage summary: $SUMMARY"
