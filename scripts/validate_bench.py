#!/usr/bin/env python3
"""Validate ``BENCH_*.json`` perf-baseline files.

Usage: ``validate_bench.py <file> [<file> ...]``

Each file must be a single JSON object (one line) with the schema
written by ``perf_smoke``: identity fields, a positive measured cycle
count, finite non-negative wall/throughput numbers, a per-rep
wall-seconds list consistent with the rep count, and run provenance
(a non-negative Unix ``timestamp``, a non-empty ``host`` name, plus
``git_describe``/``git_commit`` and ``diff_fnv``, the FNV-1a 64 of
``git diff HEAD`` without the ``BENCH_*.json`` baselines as 16 hex
digits, required whenever ``git_describe`` ends in ``-dirty`` and
otherwise null or 16 hex digits). Profiled
baselines (``MMM_PROFILE=1``)
additionally carry a ``profile`` section whose phase shares must sum
to ~100%. Exits non-zero (failing CI) on any malformed file. Uses only
the Python standard library.
"""

import json
import math
import re
import sys

REQUIRED = {
    "bench": str,
    "config": str,
    "benchmark": str,
    "warmup_cycles": int,
    "measured_cycles": int,
    "wall_seconds": (int, float),
    "sim_cycles_per_sec": (int, float),
    "reps": int,
    "rep_wall_seconds": list,
    "git_describe": str,
    "git_commit": str,
    "timestamp": (int, float),
    "host": str,
}

# Keys every embedded ``profile`` section (MMM_PROFILE=1 runs) must
# carry, written by the self-profiler's ``to_json``.
PROFILE_REQUIRED = ("total_nanos", "phase_nanos", "phase_shares", "wheel")


def fail(msg: str) -> None:
    print(f"validate_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(obj, dict):
        fail(f"{path}: expected an object, got {type(obj).__name__}")
    for key, ty in REQUIRED.items():
        if key not in obj:
            fail(f"{path}: missing key {key!r}")
        if not isinstance(obj[key], ty) or isinstance(obj[key], bool):
            fail(f"{path}: {key!r} has type {type(obj[key]).__name__}")
    if obj["measured_cycles"] <= 0:
        fail(f"{path}: measured_cycles must be positive")
    for key in ("wall_seconds", "sim_cycles_per_sec"):
        v = float(obj[key])
        if not math.isfinite(v) or v < 0.0:
            fail(f"{path}: {key} must be finite and non-negative, got {v}")
    if obj["reps"] < 1:
        fail(f"{path}: reps must be >= 1")
    walls = obj["rep_wall_seconds"]
    if len(walls) != obj["reps"]:
        fail(f"{path}: rep_wall_seconds has {len(walls)} entries, reps={obj['reps']}")
    if not all(
        isinstance(w, (int, float)) and math.isfinite(float(w)) and float(w) >= 0.0
        for w in walls
    ):
        fail(f"{path}: rep_wall_seconds entries must be finite and non-negative")
    if float(obj["wall_seconds"]) != min(float(w) for w in walls):
        fail(f"{path}: wall_seconds must be the fastest repetition")
    ts = float(obj["timestamp"])
    if not math.isfinite(ts) or ts < 0.0:
        fail(f"{path}: timestamp must be finite and non-negative, got {ts}")
    if not obj["host"].strip():
        fail(f"{path}: host must be a non-empty string")
    if not obj["git_commit"].strip():
        fail(f"{path}: git_commit must be a non-empty string")
    if "diff_fnv" not in obj:
        fail(f"{path}: missing key 'diff_fnv'")
    fnv = obj["diff_fnv"]
    if fnv is None:
        if obj["git_describe"].endswith("-dirty"):
            fail(f"{path}: a -dirty git_describe needs a diff_fnv hash")
    elif not isinstance(fnv, str) or not re.fullmatch(r"[0-9a-f]{16}", fnv):
        fail(f"{path}: diff_fnv must be null or 16 hex digits, got {fnv!r}")
    if "profile" in obj:
        validate_profile(path, obj["profile"])
    print(
        f"validate_bench: OK: {path}: {obj['sim_cycles_per_sec']:.0f} "
        f"cycles/sec over {obj['measured_cycles']} cycles "
        f"({obj['reps']} reps, {obj['git_describe']})"
    )


def validate_profile(path: str, prof: object) -> None:
    """Validate the optional self-profiler section: phase shares must
    be finite, non-negative percentages summing to ~100 (or all zero
    for an empty window), and the wheel introspection block must be
    present with a sane skip efficiency."""
    if not isinstance(prof, dict):
        fail(f"{path}: profile must be an object, got {type(prof).__name__}")
    for key in PROFILE_REQUIRED:
        if key not in prof:
            fail(f"{path}: profile missing key {key!r}")
    total = prof["total_nanos"]
    if not isinstance(total, int) or isinstance(total, bool) or total < 0:
        fail(f"{path}: profile.total_nanos must be a non-negative integer")
    shares = prof["phase_shares"]
    if not isinstance(shares, dict) or not shares:
        fail(f"{path}: profile.phase_shares must be a non-empty object")
    for name, v in shares.items():
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            fail(f"{path}: profile.phase_shares.{name} has type {type(v).__name__}")
        if not math.isfinite(float(v)) or float(v) < 0.0:
            fail(f"{path}: profile.phase_shares.{name} must be finite and >= 0")
    share_sum = sum(float(v) for v in shares.values())
    if total > 0 and abs(share_sum - 100.0) > 0.5:
        fail(f"{path}: profile.phase_shares sum to {share_sum:.3f}, expected ~100")
    # The table-driven sampler and the batched ring refill took op
    # generation out of the hot loop's profile; keep it out.
    op_gen = float(shares.get("op_gen", 0.0))
    if total > 0 and op_gen >= 10.0:
        fail(f"{path}: profile.phase_shares.op_gen is {op_gen:.1f}%, expected < 10")
    wheel = prof["wheel"]
    if not isinstance(wheel, dict):
        fail(f"{path}: profile.wheel must be an object")
    for key in ("wake_hits", "ticks", "advanced_cycles", "skip_efficiency"):
        if key not in wheel:
            fail(f"{path}: profile.wheel missing key {key!r}")
    eff = wheel["skip_efficiency"]
    if (
        not isinstance(eff, (int, float))
        or isinstance(eff, bool)
        or not math.isfinite(float(eff))
        or not 0.0 <= float(eff) <= 1.0
    ):
        fail(f"{path}: profile.wheel.skip_efficiency must be in [0, 1], got {eff}")
    print(
        f"validate_bench: OK: {path}: profile section "
        f"({share_sum:.1f}% shares, skip efficiency {float(eff):.3f})"
    )


def main() -> None:
    if len(sys.argv) < 2:
        fail("usage: validate_bench.py <BENCH_*.json> [...]")
    for path in sys.argv[1:]:
        validate(path)


if __name__ == "__main__":
    main()
