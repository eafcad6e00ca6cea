#!/usr/bin/env bash
# Cross-process contract of the persistent result store: uncoordinated
# cscpta processes racing one store directory must each emit the
# storeless aggregate byte for byte, leave only checksum-valid entries
# behind, serve a warm repeat (batch and single run) entirely from the
# store — the single run's report and points-to answer byte-identical,
# timings stripped, to a storeless run's, at --jobs 1 and 4 — keep it
# under the largest --store-max-age, publish each distinct key of a
# manifest with repeated pairs once at --jobs 4, and agree with a
# --workers fleet. After every pass the store
# directory holds nothing but objects/: the entry files are its only
# state. Registered with CTest as cscpta_store_concurrency;
# tests/store/StoreConcurrencyTest.cpp covers the in-process half.
#
# Usage: store_concurrency.sh <path-to-cscpta> <examples-dir>
set -euo pipefail

CSCPTA=${1:?usage: store_concurrency.sh <cscpta> <examples-dir>}
EXAMPLES=${2:?usage: store_concurrency.sh <cscpta> <examples-dir>}
# Manifest-relative program paths resolve against the manifest's
# directory (a temp dir here), so both arguments must be absolute.
CSCPTA=$(cd "$(dirname "$CSCPTA")" && pwd)/$(basename "$CSCPTA")
EXAMPLES=$(cd "$EXAMPLES" && pwd)
STRIP=$(cd "$(dirname "$0")" && pwd)/strip_timings.py

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Fails unless store directory $1 lists exactly "objects".
only_objects() {
  local Listing
  Listing=$(ls -A "$1")
  if [ "$Listing" != "objects" ]; then
    echo "store_concurrency: $1 holds more than objects/:" $Listing >&2
    exit 1
  fi
}

# Six runs, no duplicate (program, spec) pairs — every task is a store
# interaction, so the warm pass must report served 6/6.
cat > "$TMP/manifest.json" <<EOF
{
  "entries": [
    { "label": "figure1", "program": "$EXAMPLES/figure1.jir",
      "specs": ["ci", "csc", "2obj"] },
    { "label": "containers", "program": "$EXAMPLES/containers.jir",
      "specs": ["ci", "csc", "2obj"] }
  ]
}
EOF

# The storeless oracle every store-assisted pass must reproduce.
"$CSCPTA" --batch "$TMP/manifest.json" --json > "$TMP/ref.json"

# Two uncoordinated processes race one cold store.
"$CSCPTA" --batch "$TMP/manifest.json" --json \
  --store "$TMP/store" > "$TMP/a.json" &
PID_A=$!
"$CSCPTA" --batch "$TMP/manifest.json" --json \
  --store "$TMP/store" > "$TMP/b.json" &
PID_B=$!
wait "$PID_A"
wait "$PID_B"
cmp "$TMP/ref.json" "$TMP/a.json"
cmp "$TMP/ref.json" "$TMP/b.json"
only_objects "$TMP/store"

# Only checksum-valid entries may survive the race.
"$CSCPTA" --scrub --store "$TMP/store" | tee "$TMP/scrub.txt"
grep -q ", 0 corrupt" "$TMP/scrub.txt"
only_objects "$TMP/store"

# Warm repeat: byte-identical and fully store-served.
"$CSCPTA" --batch "$TMP/manifest.json" --json --store "$TMP/store" \
  --stats > "$TMP/warm.json" 2> "$TMP/warm.log"
cmp "$TMP/ref.json" "$TMP/warm.json"
grep -q "store stats: served 6/6 runs" "$TMP/warm.log"
only_objects "$TMP/store"

# A single run shares the batch's entries: one key for every mode. The
# served runs are decoded from their entries (ResultKeys::lookupOrRun,
# through the one decoder), so their report and points-to
# answers must match a storeless run's once timings are stripped.
SINGLE=("$EXAMPLES/figure1.jir" --analyses ci,csc,2obj --json
        --points-to Main.main.result1)
"$CSCPTA" "${SINGLE[@]}" > "$TMP/single-ref.raw"
"$CSCPTA" "${SINGLE[@]}" --store "$TMP/store" --stats \
  > "$TMP/single.raw" 2> "$TMP/single.log"
grep -q "store stats: served 3/3 runs" "$TMP/single.log"
python3 "$STRIP" "$TMP/single-ref.raw" "$TMP/single-ref.json"
python3 "$STRIP" "$TMP/single.raw" "$TMP/single.json"
cmp "$TMP/single-ref.json" "$TMP/single.json"
only_objects "$TMP/store"

# A single run's --jobs changes nothing but timings: four analyses on
# four threads, storeless, into a cold store and from the warm one,
# report what one thread reports storeless.
JOBS=("$EXAMPLES/figure1.jir" --analyses ci,csc,2obj,zipper-e --json
      --points-to Main.main.result1)
"$CSCPTA" "${JOBS[@]}" --jobs 1 > "$TMP/jobs-ref.raw"
"$CSCPTA" "${JOBS[@]}" --jobs 4 > "$TMP/jobs-storeless.raw"
"$CSCPTA" "${JOBS[@]}" --jobs 4 --store "$TMP/store3" > "$TMP/jobs-cold.raw"
"$CSCPTA" "${JOBS[@]}" --jobs 4 --store "$TMP/store3" --stats \
  > "$TMP/jobs-warm.raw" 2> "$TMP/jobs-warm.log"
grep -q "store stats: served 4/4 runs" "$TMP/jobs-warm.log"
python3 "$STRIP" "$TMP/jobs-ref.raw" "$TMP/jobs-ref.json"
for MODE in storeless cold warm; do
  python3 "$STRIP" "$TMP/jobs-$MODE.raw" "$TMP/jobs-$MODE.json"
  cmp "$TMP/jobs-ref.json" "$TMP/jobs-$MODE.json"
done
only_objects "$TMP/store3"

# The largest accepted age bound keeps every entry (the GC age test
# must not wrap); one past it is a usage error (exit 2).
"$CSCPTA" "$EXAMPLES/figure1.jir" --analyses ci,csc,2obj \
  --store "$TMP/store" --store-max-age 18446744073709551 --stats \
  > /dev/null 2> "$TMP/maxage.log"
grep -q "store stats: served 3/3 runs" "$TMP/maxage.log"
RC=0
"$CSCPTA" "$EXAMPLES/figure1.jir" --store "$TMP/store" \
  --store-max-age 18446744073709551615 > /dev/null 2>&1 || RC=$?
if [ "$RC" -ne 2 ]; then
  echo "store_concurrency: --store-max-age overflow exited $RC, not 2" >&2
  exit 1
fi
only_objects "$TMP/store"

# Repeated (program, spec) pairs, two under alias spellings: 12 tasks
# over 6 distinct keys. However --jobs 4 schedules them, a cold pass
# solves and publishes each key once, serves the other six tasks from
# their owners' rows, and reports the storeless aggregate. Five passes,
# each into a fresh store, so an unlucky schedule has room to show.
cat > "$TMP/repeats.json" <<EOF
{
  "entries": [
    { "label": "figure1", "program": "$EXAMPLES/figure1.jir",
      "specs": ["ci", "csc", "2obj"] },
    { "label": "containers", "program": "$EXAMPLES/containers.jir",
      "specs": ["ci", "csc", "2obj"] },
    { "label": "figure1-again", "program": "$EXAMPLES/figure1.jir",
      "specs": ["ci", "k-obj", "CSC"] },
    { "label": "containers-again", "program": "$EXAMPLES/containers.jir",
      "specs": ["2obj", "ci", "csc"] }
  ]
}
EOF
"$CSCPTA" --batch "$TMP/repeats.json" --json > "$TMP/repeats-ref.json"
for PASS in 1 2 3 4 5; do
  "$CSCPTA" --batch "$TMP/repeats.json" --json --jobs 4 \
    --store "$TMP/repeats-$PASS" --stats \
    > "$TMP/repeats-$PASS.json" 2> "$TMP/repeats-$PASS.log"
  cmp "$TMP/repeats-ref.json" "$TMP/repeats-$PASS.json"
  grep -q "cache stats: hits 6, misses 6, 6 entries" \
    "$TMP/repeats-$PASS.log"
  grep -q "hits 0, misses 6, publishes 6," "$TMP/repeats-$PASS.log"
  only_objects "$TMP/repeats-$PASS"
done

# A worker fleet over a fresh store agrees with everything above, and
# the pinned fleet stats line classifies every worker's exit cause.
"$CSCPTA" --batch "$TMP/manifest.json" --json --store "$TMP/store2" \
  --workers 2 --stats > "$TMP/fleet.json" 2> "$TMP/fleet.log"
cmp "$TMP/ref.json" "$TMP/fleet.json"
grep -q "fleet stats: spawned 2 workers (0 respawns), 2 exited clean" \
  "$TMP/fleet.log"
grep -q "tasks 6 done, 0 quarantined" "$TMP/fleet.log"
only_objects "$TMP/store2"

echo "store_concurrency: OK"
