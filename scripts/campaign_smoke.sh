#!/usr/bin/env bash
# Campaign kill/resume gate: prove the keystone property end-to-end
# on the real binary.
#
# Runs the smoke manifest to completion in one directory; runs it
# again in a second directory but stops after a few cells (--limit, a
# deterministic stand-in for a mid-campaign kill: checkpoints on disk,
# grid incomplete), resumes it to completion, and then requires the
# two merged aggregates to be byte-identical (cmp) *and* to pass the
# mmm-inspect campaign diff at threshold 0, which also checks each
# aggregate against its directory's manifest and cell records. Any
# difference exits non-zero.
#
#   usage: campaign_smoke.sh [out-root]   (default: target/campaign-smoke)
set -euo pipefail

ROOT="${1:-target/campaign-smoke}"
MANIFEST=manifests/smoke.json
KILL_AFTER="${MMM_CAMPAIGN_KILL_AFTER:-5}"

rm -rf "$ROOT"
mkdir -p "$ROOT"

run() { cargo run --release -q -p mmm-bench --bin mmm-campaign -- "$@"; }

echo "== uninterrupted run"
run "$MANIFEST" --out "$ROOT/whole"

echo "== interrupted run (stopping after $KILL_AFTER cells)"
run "$MANIFEST" --out "$ROOT/split" --limit "$KILL_AFTER"

echo "== resume"
run "$MANIFEST" --out "$ROOT/split"

echo "== byte-identity gate"
cmp "$ROOT/whole/aggregate.json" "$ROOT/split/aggregate.json"

echo "== mmm-inspect campaign gate"
cargo run --release -q -p mmm-bench --bin mmm-inspect -- campaign \
  "$ROOT/whole/aggregate.json" "$ROOT/split/aggregate.json"

echo "campaign_smoke: OK: resumed aggregate is byte-identical"
