#!/usr/bin/env bash
# Differential multi-process check: spawn a 2-rank localhost TCP cluster per
# generator-zoo workload (LOCAL and CONGEST(B=64)) and require every rank's
# canonical output to be byte-identical to the in-process reference.
#
#   scripts/run_local_cluster.sh [BUILD_DIR] [WORLD] \
#       [--partition contiguous|cluster] [--load FILE]
#
# BUILD_DIR defaults to ./build, WORLD to 2, --partition picks the shard
# ownership map (graph/renumber.h). Canonical output is checked the same way
# for either choice, since the partition is placement-only. --load FILE runs
# the one edge list FILE (graph/io.h format) instead of the zoo: every rank
# and the reference stream their slices from it, so the ranks answer halo
# requests from streamed slices. Canonical output is every line of
# deltacol_mpi_like not starting with "# " (rank-local wire counters are
# "# "-prefixed and excluded; see the launcher's file comment).
# Exit 0 iff every rank of every workload matches its reference.
set -u

BUILD_DIR=build
WORLD=2
PARTITION=contiguous
LOAD=
positional=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --partition)
      [[ $# -ge 2 ]] || { echo "error: --partition needs a value" >&2; exit 2; }
      PARTITION="$2"
      shift 2
      ;;
    --load)
      [[ $# -ge 2 ]] || { echo "error: --load needs a file" >&2; exit 2; }
      LOAD="$2"
      shift 2
      ;;
    *)
      positional=$((positional + 1))
      case "$positional" in
        1) BUILD_DIR="$1" ;;
        2) WORLD="$1" ;;
        *) echo "error: unexpected argument '$1'" >&2; exit 2 ;;
      esac
      shift
      ;;
  esac
done
case "$PARTITION" in contiguous|cluster) ;; *)
  echo "error: --partition must be contiguous or cluster" >&2; exit 2 ;;
esac

BIN="$BUILD_DIR/deltacol_mpi_like"
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not built (run cmake --build $BUILD_DIR first)" >&2
  exit 2
fi

if [[ -n "$LOAD" && ! -f "$LOAD" ]]; then
  echo "error: --load file $LOAD not found" >&2
  exit 2
fi

# deltacol_mpi_like reads each workload through SOURCE_FLAG.
if [[ -n "$LOAD" ]]; then
  SOURCE_FLAG=--load
  WORKLOADS=("$LOAD")
else
  SOURCE_FLAG=--gen
  WORKLOADS=(regular-500-6 gallai-400-4 sparse-400-6 3-components triangle-cactus)
fi
CONGEST=(0 64)
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# run_cluster GEN BITS TAG — in-process reference + WORLD tcp ranks, diffing
# each rank's canonical lines against the reference. Writes per-rank outputs
# to $TMP/$TAG-rank$r.txt. Returns 0 iff all ranks byte-identical.
run_cluster() {
  local gen="$1" bits="$2" tag="$3"
  local attempt port_base ref rc ok r
  for attempt in 1 2 3; do
    port_base=$((20000 + (RANDOM % 40000)))
    ref="$TMP/$tag-ref.txt"
    if ! "$BIN" "$SOURCE_FLAG" "$gen" --transport inproc --world "$WORLD" \
         --congest-bits "$bits" --partition "$PARTITION" --out "$ref"; then
      echo "FAIL $gen B=$bits: in-process reference failed" >&2
      return 1
    fi
    local pids=()
    for ((r = 0; r < WORLD; ++r)); do
      "$BIN" "$SOURCE_FLAG" "$gen" --transport tcp --rank "$r" \
        --world "$WORLD" --port-base "$port_base" --congest-bits "$bits" \
        --partition "$PARTITION" \
        --out "$TMP/$tag-rank$r.txt" 2> "$TMP/$tag-rank$r.err" &
      pids+=($!)
    done
    rc=0
    for pid in "${pids[@]}"; do
      wait "$pid" || rc=1
    done
    if [[ $rc -ne 0 && $attempt -lt 3 ]]; then
      # Most likely a port collision with an unrelated process — retry on
      # a fresh range.
      continue
    fi
    if [[ $rc -ne 0 ]]; then
      echo "FAIL $gen B=$bits: a rank exited nonzero" >&2
      cat "$TMP/$tag-rank"*.err >&2
      return 1
    fi
    ok=1
    for ((r = 0; r < WORLD; ++r)); do
      if ! diff <(grep -v '^# ' "$TMP/$tag-rank$r.txt") "$ref" \
           > "$TMP/$tag-rank$r.diff"; then
        echo "FAIL $gen B=$bits rank $r: output differs from reference:" >&2
        cat "$TMP/$tag-rank$r.diff" >&2
        ok=0
      fi
    done
    [[ $ok -eq 1 ]] && return 0
    return 1
  done
  return 1
}

failures=0
run=0
for gen in "${WORKLOADS[@]}"; do
  for bits in "${CONGEST[@]}"; do
    run=$((run + 1))
    tag="$(basename "$gen")-$bits"
    if ! run_cluster "$gen" "$bits" "$tag"; then
      failures=$((failures + 1))
      continue
    fi
    echo "OK   $gen B=$bits partition=$PARTITION:" \
         "$WORLD ranks byte-identical to in-process"
    # Rank-local wire summary (legitimately differs per rank).
    grep -h '^# ' "$TMP/$tag-rank"*.txt | sed "s|^# |  wire $gen B=$bits |"
  done
done

echo "---"
echo "$((run - failures))/$run workload runs byte-identical" \
     "(partition=$PARTITION)"
[[ $failures -eq 0 ]]
