#!/usr/bin/env bash
# CLI smoke: runs the tricensus CLI end to end and checks its outputs against
# pinned sha256 digests, counts, messages and exit codes.
#
#     bash tests/cli_smoke.sh
#
# It runs from the repository root, whatever the working directory, with the
# package imported from src/.  Its files go to $RUNNER_TEMP; unless that is
# set, to a fresh temporary directory, removed on exit.  Any failed command
# ends it with a nonzero exit.
set -e
cd "$(dirname "$0")/.."
if [ -z "$RUNNER_TEMP" ]; then
  RUNNER_TEMP="$(mktemp -d)"
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

PYTHONPATH=src python -m tricensus verify --family double_circle --n 10 --full-suite
PYTHONPATH=src python -m tricensus verify --family random --n 10 --trials 20 --seed 7 --jobs 2
PYTHONPATH=src python -m tricensus verify --family quasi_convex --n 20 --trials 10 --cap 20
PYTHONPATH=src python -m tricensus verify --family quasi_convex --n 30 --trials 10 --cap 30
PYTHONPATH=src python -m tricensus verify --family double_circle --n 30 --cap 30
PYTHONPATH=src python -m tricensus verify --family random --n 16 --trials 10 --seed 7 --cap 16
PYTHONHASHSEED=0 PYTHONPATH=src python -m tricensus verify --family random --n 10 --trials 20 --seed 7 \
  --full-suite --report "$RUNNER_TEMP/hash0.jsonl"
PYTHONHASHSEED=1 PYTHONPATH=src python -m tricensus verify --family random --n 10 --trials 20 --seed 7 \
  --full-suite --report "$RUNNER_TEMP/hash1.jsonl"
cmp "$RUNNER_TEMP/hash0.jsonl" "$RUNNER_TEMP/hash1.jsonl"
PYTHONPATH=src python -m tricensus gen --family double_circle --n 76 -o "$RUNNER_TEMP/dc76.pts"
echo "bdb4ffafa52147ab376cedbf9a8e1b55bdda8ee381485e879019531b557bc743  $RUNNER_TEMP/dc76.pts" | sha256sum -c
PYTHONPATH=src python -m tricensus gen --family quasi_convex --n 60 \
  --sides 0,2,4,6,8,10,12,14,16,18,20,22,24,26,28,30,32,34,36,38 -o "$RUNNER_TEMP/qc60.pts"
echo "a29ebe06e4a97c61aab01f9587265c182973cb6b1e800e320e7722b266e731d2  $RUNNER_TEMP/qc60.pts" | sha256sum -c
PYTHONPATH=src python -m tricensus classify --json "$RUNNER_TEMP/dc76.pts" > "$RUNNER_TEMP/dc76.json"
echo "f8218dd534cbe9d576b4e150a08f26f7c5dfbf65d5d288653763d52597ddc551  $RUNNER_TEMP/dc76.json" | sha256sum -c
PYTHONPATH=src python -m tricensus classify "$RUNNER_TEMP/dc76.pts" > "$RUNNER_TEMP/dc76.txt"
echo "47e2e8a19b6d9b94dea90e46557b5996f66530e45de5172d3f2d51931fe81bb0  $RUNNER_TEMP/dc76.txt" | sha256sum -c
PYTHONPATH=src python -m tricensus gen --family random --n 60 --seed 5 -o "$RUNNER_TEMP/random60.pts"
PYTHONPATH=src python -m tricensus classify --json "$RUNNER_TEMP/random60.pts" > "$RUNNER_TEMP/random60.json"
echo "d0a53fb5c6e473410f2b4d5c62387d9997bdb24d04403ca0147150cdb9522a04  $RUNNER_TEMP/random60.json" | sha256sum -c
PYTHONPATH=src python -m tricensus classify "$RUNNER_TEMP/random60.pts" > "$RUNNER_TEMP/random60.txt"
echo "08150f0095584c17f0e194ab6cafbebae99037e18be5be13a060160a7d30a35e  $RUNNER_TEMP/random60.txt" | sha256sum -c
PYTHONPATH=src python -m tricensus gen --family random --n 18 --seed 7 -o "$RUNNER_TEMP/random18.pts"
test "$(PYTHONPATH=src python -m tricensus count "$RUNNER_TEMP/random18.pts" --mode partial)" = 858062367
PYTHONPATH=src python -m tricensus gen --family random --n 20 --seed 7 -o "$RUNNER_TEMP/random20.pts"
test "$(PYTHONPATH=src python -m tricensus count "$RUNNER_TEMP/random20.pts" --mode partial)" = 40593070645
test "$(PYTHONPATH=src python -m tricensus count "$RUNNER_TEMP/random20.pts" --mode full)" = 2870436504
PYTHONPATH=src python -m tricensus gen --family double_circle --n 24 -o "$RUNNER_TEMP/dc24.pts"
test "$(PYTHONPATH=src python -m tricensus count "$RUNNER_TEMP/dc24.pts" --mode full)" = 2239507936
test "$(PYTHONPATH=src python -m tricensus count "$RUNNER_TEMP/dc24.pts" --mode partial)" = 91482563640
PYTHONPATH=src python -m tricensus gen --family random --n 11 --seed 5 -o "$RUNNER_TEMP/random11.pts"
PYTHONPATH=src python -m tricensus count "$RUNNER_TEMP/random11.pts" --mode partial --enumerate \
  > "$RUNNER_TEMP/listing11.txt" 2> "$RUNNER_TEMP/count11.txt"
test "$(cat "$RUNNER_TEMP/count11.txt")" = 12378
echo "c63e04590b322e5faf51fa2fd4ceec3e87484d966fd0d8aa979fbbc45b7c25cf  $RUNNER_TEMP/listing11.txt" \
  | sha256sum -c
PYTHONPATH=src python -m tricensus count "$RUNNER_TEMP/random11.pts" --mode full --enumerate \
  > "$RUNNER_TEMP/full11.txt" 2> "$RUNNER_TEMP/fullcount11.txt"
test "$(cat "$RUNNER_TEMP/fullcount11.txt")" = 4611
echo "c53a0f2e40a6d32993d51a1f0e016e99996520ddca8de48103d7e3f918a4f0a1  $RUNNER_TEMP/full11.txt" \
  | sha256sum -c
PYTHONPATH=src python -m tricensus gen --family double_circle --n 14 -o "$RUNNER_TEMP/dc14.pts"
PYTHONPATH=src python -m tricensus count "$RUNNER_TEMP/dc14.pts" --mode full --enumerate \
  > "$RUNNER_TEMP/full14.txt" 2> "$RUNNER_TEMP/fullcount14.txt"
test "$(cat "$RUNNER_TEMP/fullcount14.txt")" = 20979
echo "06e5e7b0630fadf925a24e4ef7db1012a53bc0253518cad28fa0b0af506d6a00  $RUNNER_TEMP/full14.txt" \
  | sha256sum -c
PYTHONPATH=src python -m tricensus count "$RUNNER_TEMP/dc14.pts" --mode partial --enumerate \
  > "$RUNNER_TEMP/listing14.txt" 2> "$RUNNER_TEMP/count14.txt"
test "$(cat "$RUNNER_TEMP/count14.txt")" = 208012
echo "0cc40ef019a02c6cefa9ca0197f82e3e854cf52f35f147b67ce73db3eecdbf1e  $RUNNER_TEMP/listing14.txt" \
  | sha256sum -c
{ code=0; PYTHONPATH=src python -m tricensus count "$RUNNER_TEMP/random11.pts" --mode partial \
  --enumerate 2> "$RUNNER_TEMP/head11.txt" || code=$?; echo "$code" > "$RUNNER_TEMP/code11.txt"; } \
  | head -1 > "$RUNNER_TEMP/first11.txt"
test "$(cat "$RUNNER_TEMP/code11.txt")" -eq 1
test "$(cat "$RUNNER_TEMP/first11.txt")" = "0,2,7 0,2,8 0,3,5 0,3,8 0,7,9"
test ! -s "$RUNNER_TEMP/head11.txt"
PYTHONPATH=src python -m tricensus gen --family random --n 14 --seed 3 -o "$RUNNER_TEMP/random14.pts"
{ code=0; (ulimit -v 300000; PYTHONPATH=src python -m tricensus count "$RUNNER_TEMP/random14.pts" \
  --mode partial --enumerate 2> "$RUNNER_TEMP/head14.txt") || code=$?; \
  echo "$code" > "$RUNNER_TEMP/code14.txt"; } | head -2 > "$RUNNER_TEMP/first14.txt"
test "$(cat "$RUNNER_TEMP/code14.txt")" -eq 1
test ! -s "$RUNNER_TEMP/head14.txt"
printf '%s\n' "2,6,8 4,10,13 6,8,10 6,10,13" "2,6,8 4,10,13 6,8,13 8,10,13" \
  | cmp - "$RUNNER_TEMP/first14.txt"
PYTHONPATH=src python -m tricensus gen --family random --n 15 --seed 1 -o "$RUNNER_TEMP/random15.pts"
code=0; PYTHONPATH=src python -m tricensus count "$RUNNER_TEMP/random15.pts" --mode partial --enumerate \
  2> "$RUNNER_TEMP/refused15.txt" || code=$?; test "$code" -eq 1
grep -qx "tricensus: refused: enumeration refused for 15 points (cap 14)" "$RUNNER_TEMP/refused15.txt"
code=0; PYTHONPATH=src python -m tricensus gen --family quasi_convex --n 8 --sides 1,1 \
  -o "$RUNNER_TEMP/repeated.pts" || code=$?; test "$code" -eq 1
PYTHONPATH=src python -m tricensus gen --family double_circle --n 8 -o "$RUNNER_TEMP/dc8.pts"
PYTHONPATH=src python -m tricensus charvec "$RUNNER_TEMP/dc8.pts" --radial --center 6 \
  > "$RUNNER_TEMP/radial8.txt"
test "$(wc -l < "$RUNNER_TEMP/radial8.txt")" -eq 31
test "$(grep -cw 6 "$RUNNER_TEMP/radial8.txt")" -eq 0
awk 'NR == 1 { print; next } { print $1 "/7", $2 "/7" }' "$RUNNER_TEMP/dc8.pts" > "$RUNNER_TEMP/dc8_7.pts"
PYTHONPATH=src python -m tricensus charvec "$RUNNER_TEMP/dc8_7.pts" --radial --center 6 \
  > "$RUNNER_TEMP/radial8_7.txt"
cmp "$RUNNER_TEMP/radial8.txt" "$RUNNER_TEMP/radial8_7.txt"
echo "c799be5027247624eae5ac3fb6d94da5d4fd235df199e0a20827445ff92c5ca8  $RUNNER_TEMP/radial8.txt" | sha256sum -c
echo "c799be5027247624eae5ac3fb6d94da5d4fd235df199e0a20827445ff92c5ca8  $RUNNER_TEMP/radial8_7.txt" \
  | sha256sum -c
psi8="$(PYTHONPATH=src python -m tricensus charvec "$RUNNER_TEMP/dc8.pts" --radial --center 6 --check-psi)"
psi8_7="$(PYTHONPATH=src python -m tricensus charvec "$RUNNER_TEMP/dc8_7.pts" --radial --center 6 --check-psi)"
test "$psi8" = "injective over 31 good polygons"
test "$psi8_7" = "$psi8"
chi8="$(PYTHONPATH=src python -m tricensus charvec "$RUNNER_TEMP/dc8.pts" --apex 1 --arms 0,2 --chi 01001)"
test "$chi8" = "0 7 3 6 5 2"
test "$(PYTHONPATH=src python -m tricensus charvec "$RUNNER_TEMP/dc8_7.pts" --apex 1 --arms 0,2 --chi 01001)" = "$chi8"
code=0; PYTHONPATH=src python -m tricensus charvec "$RUNNER_TEMP/dc8.pts" --apex 1 --arms 0,2 --chi 01001 \
  --check-psi --center 3 || code=$?; test "$code" -eq 1
code=0; PYTHONPATH=src python -m tricensus charvec "$RUNNER_TEMP/dc8.pts" --apex 0 --arms 1,2 --chi 01001 \
  2> "$RUNNER_TEMP/outside8.txt" || code=$?; test "$code" -eq 1
test "$(cat "$RUNNER_TEMP/outside8.txt")" = "tricensus: error: (1952, -576) is not strictly inside the angle"
code=0; PYTHONPATH=src python -m tricensus charvec "$RUNNER_TEMP/dc8_7.pts" --apex 0 --arms 1,2 --chi 01001 \
  2> "$RUNNER_TEMP/outside8_7.txt" || code=$?; test "$code" -eq 1
test "$(cat "$RUNNER_TEMP/outside8_7.txt")" = "tricensus: error: (1952/7, -576/7) is not strictly inside the angle"
code=0; PYTHONPATH=src python -m tricensus charvec "$RUNNER_TEMP/dc8.pts" --radial --check-psi \
  --center 3 || code=$?; test "$code" -eq 1
PYTHONPATH=src python -m tricensus gen --family double_circle --n 30 -o "$RUNNER_TEMP/dc30.pts"
code=0; PYTHONPATH=src python -m tricensus charvec "$RUNNER_TEMP/dc30.pts" --radial --center 15 \
  2> "$RUNNER_TEMP/refused30.txt" || code=$?; test "$code" -eq 1
test "$(cat "$RUNNER_TEMP/refused30.txt")" = "tricensus: refused: good-polygon enumeration refused for 29 points (cap 10)"
PYTHONPATH=src python -m tricensus gen --family quasi_convex --n 9 --sides 0,2,5 -o "$RUNNER_TEMP/qc9.pts"
awk 'NR == 1 { print; next } { print $1 "/7", $2 "/7" }' "$RUNNER_TEMP/qc9.pts" > "$RUNNER_TEMP/qc9_7.pts"
PYTHONPATH=src python -m tricensus classify --json "$RUNNER_TEMP/qc9.pts" > "$RUNNER_TEMP/qc9.json"
PYTHONPATH=src python -m tricensus classify --json "$RUNNER_TEMP/qc9_7.pts" > "$RUNNER_TEMP/qc9_7.json"
cmp "$RUNNER_TEMP/qc9.json" "$RUNNER_TEMP/qc9_7.json"
awk 'NR == 1 { print; next } { print 2 * $1 "/14", 2 * $2 "/14" }' "$RUNNER_TEMP/qc9.pts" > "$RUNNER_TEMP/qc9_14.pts"
PYTHONPATH=src python -m tricensus classify --json "$RUNNER_TEMP/qc9_14.pts" > "$RUNNER_TEMP/qc9_14.json"
cmp "$RUNNER_TEMP/qc9.json" "$RUNNER_TEMP/qc9_14.json"
qc9="$(PYTHONPATH=src python -m tricensus count "$RUNNER_TEMP/qc9.pts" --mode partial)"
test "$qc9" = 429
test "$(PYTHONPATH=src python -m tricensus count "$RUNNER_TEMP/qc9_7.pts" --mode partial)" = "$qc9"
test "$(PYTHONPATH=src python -m tricensus count "$RUNNER_TEMP/qc9_14.pts" --mode partial)" = "$qc9"
printf '# tricensus points v1\n1e-3 0\n1 0\n0 1\n' > "$RUNNER_TEMP/exponent.pts"
code=0; PYTHONPATH=src python -m tricensus classify "$RUNNER_TEMP/exponent.pts" || code=$?
test "$code" -eq 1
