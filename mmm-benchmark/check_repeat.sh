#!/usr/bin/env bash
# Repeatability check: runs the whole benchmark twice on one build and
# exits non-zero unless the two results agree, i.e. for every workload
# and end-to-end metric the two medians are within the metric's bound,
# every digest matches, and no repetition failed.
#
#   mmm-benchmark/check_repeat.sh [benchmark flags...]
#
# Flags (--seconds, --workload, --seed) pass through to both runs. The
# results are left in mmm-benchmark-repeat-1.json and -2.json in the
# repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path mmm-benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-mmm-benchmark/target}/release/mmm-benchmark"

for i in 1 2; do
  "$bin" "$@" --out "mmm-benchmark-repeat-$i.json" > /dev/null
done
"$bin" --compare mmm-benchmark-repeat-1.json mmm-benchmark-repeat-2.json
