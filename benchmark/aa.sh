#!/bin/sh
# The acceptance check: run the whole set twice on the working tree and
# compare the two results. Two runs of the same code must agree within the
# benchmark's own bounds: no cell `worse`, no cell `unresolved`.
#
#   benchmark/aa.sh            # seed 1 for both runs
#   SEED=7 benchmark/aa.sh
set -eu
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
seed="${SEED:-1}"
out=benchmark/out

cargo build --release --offline --quiet --manifest-path "$manifest"
distbench() {
    cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
}

distbench run --seed "$seed" --out "$out/aa-A.json"
distbench run --seed "$seed" --out "$out/aa-B.json"

status=0
distbench compare "$out/aa-A.json" "$out/aa-B.json" >"$out/aa-compare.txt" || status=$?
cat "$out/aa-compare.txt"
# A row ends in "%  <verdict>"; the summary line also names the verdicts.
if grep -q '%  unresolved$' "$out/aa-compare.txt"; then
    echo "aa.sh: some cells are unresolved (a run's own value is looser than the bound)" >&2
    status=1
fi
exit "$status"
