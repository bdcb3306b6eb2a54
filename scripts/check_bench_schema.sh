#!/usr/bin/env bash
# Validates every BENCH_*.json artifact at the repo root:
#   1. parses as JSON, and
#   2. carries the common top-level keys every bench binary must emit:
#      "baseline" (string: what the speedup is measured against) and
#      "speedup"  (number: the headline ratio for that bench).
# Keeping the artifacts on one schema lets downstream tooling (and the
# README tables) consume them uniformly. Run from anywhere; exits
# non-zero on the first violation.
set -euo pipefail

cd "$(dirname "$0")/.."

if ! command -v jq >/dev/null 2>&1; then
    echo "check_bench_schema: jq not found; skipping schema validation" >&2
    exit 0
fi

shopt -s nullglob
files=(BENCH_*.json)
if [ ${#files[@]} -eq 0 ]; then
    echo "check_bench_schema: no BENCH_*.json artifacts found" >&2
    exit 1
fi

status=0
# Artifacts the tier-1 gate must always produce: their absence is a
# failure, not a silent pass of the glob above.
for required in BENCH_widedim.json BENCH_spgemm.json BENCH_batch.json; do
    if [ ! -f "$required" ]; then
        echo "FAIL $required: required artifact missing" >&2
        status=1
    fi
done
for f in "${files[@]}"; do
    if ! jq empty "$f" 2>/dev/null; then
        echo "FAIL $f: not valid JSON" >&2
        status=1
        continue
    fi
    if ! jq -e '(.baseline | type) == "string"' "$f" >/dev/null; then
        echo "FAIL $f: missing top-level string key \"baseline\"" >&2
        status=1
        continue
    fi
    if ! jq -e '(.speedup | type) == "number"' "$f" >/dev/null; then
        echo "FAIL $f: missing top-level numeric key \"speedup\"" >&2
        status=1
        continue
    fi
    # Committed artifacts must come from full benchmark runs. The
    # working-tree copy may be a smoke artifact (tier1 regenerates most
    # benches in smoke shape), so the gate inspects the version at HEAD:
    # files not (yet) tracked are skipped.
    if committed=$(git show "HEAD:$f" 2>/dev/null); then
        if jq -e '.smoke == true' <<<"$committed" >/dev/null 2>&1; then
            echo "FAIL $f: committed artifact is a smoke run — commit a full run" >&2
            status=1
            continue
        fi
    fi
    printf 'ok   %-20s speedup %sx vs %s\n' "$f" \
        "$(jq -r '.speedup' "$f")" "$(jq -r '.baseline' "$f")"
done

exit $status
