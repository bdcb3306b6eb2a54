#!/usr/bin/env bash
# Alternating A/B servebench pairs between two revisions of this
# repository: the protocol every claimed end-to-end gain rests on.
#
# Usage:
#   scripts/ab.sh [--align] [--trace] [--seconds S] \
#       <parent-rev> <change-rev> <workload> <pairs> <seed-base>
#
# Each revision (any commit or tree name `git archive` takes) is
# exported with `git archive` into its own directory under the scratch
# directory and built there offline, so the checkout and `.git` stay
# untouched; a revision already built there is reused. Pair `i` runs
# both sides on seed `seed-base + i`, untraced, for S seconds (default
# 10); the side that runs first swaps every pair. Every run must print
# `"correct": true` with no failed request, or the script stops.
#
#   --align    builds both sides with
#              RUSTFLAGS="-C llvm-args=-align-all-functions=6", the
#              code-placement control (64-byte function alignment).
#   --trace    runs `--trace 1` instead, which adds the per-layer and
#              wall-clock metrics (`latency_ms_p50` among them).
#
# For every metric of the runs' last line it prints the parent and
# change medians, the parent's interquartile range, the change/parent
# ratio of the medians, and in how many pairs the change read lower.
# Metrics gated in BENCHMARK.json's `end_to_end` come first, marked `*`.
#
# Environment: AB_SCRATCH is the scratch directory (default
# ${TMPDIR:-/tmp}/mpspmm-ab). The raw last lines are kept there, in
# runs-<workload>-<parent>-<change>.tsv.
set -euo pipefail

align=0
trace=0
seconds=10
while [[ $# -gt 0 && $1 == --* ]]; do
  case "$1" in
    --align) align=1 ;;
    --trace) trace=1 ;;
    --seconds) seconds="$2"; shift ;;
    *) echo "ab.sh: unknown flag $1" >&2; exit 2 ;;
  esac
  shift
done
if [[ $# -ne 5 ]]; then
  sed -n '2,/^set -euo/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
parent_rev="$1" change_rev="$2" workload="$3" pairs="$4" seed_base="$5"

cd "$(dirname "$0")/.."
repo="$(pwd)"
scratch="${AB_SCRATCH:-${TMPDIR:-/tmp}/mpspmm-ab}"
mkdir -p "$scratch"
flags=""
suffix=""
if [[ $align == 1 ]]; then
  flags="-C llvm-args=-align-all-functions=6"
  suffix="-align"
fi

# Exports and builds one revision; prints its servebench binary.
build() {
  local tree dir
  tree="$(git -C "$repo" rev-parse --verify --quiet "$1^{tree}")" ||
    { echo "ab.sh: no revision $1" >&2; exit 2; }
  dir="$scratch/${tree:0:12}$suffix"
  if [[ ! -x $dir/servebench/target/release/servebench ]]; then
    rm -rf "$dir"
    mkdir -p "$dir"
    git -C "$repo" archive "$tree" | tar -x -C "$dir"
    echo "ab.sh: building $1 (tree ${tree:0:12}) in $dir" >&2
    (cd "$dir" && RUSTFLAGS="$flags" cargo build --release --offline --quiet \
      --manifest-path servebench/Cargo.toml) >&2
  fi
  echo "$dir/servebench/target/release/servebench"
}

parent_bin="$(build "$parent_rev")"
change_bin="$(build "$change_rev")"
log="$scratch/runs-$workload-${parent_rev//\//_}-${change_rev//\//_}$suffix.tsv"
: > "$log"

# One untraced (or traced) run; appends "side<TAB>pair<TAB>last line".
run() {
  local side="$1" bin="$2" pair="$3" last
  last="$("$bin" --workload "$workload" --seed "$((seed_base + pair))" \
    --seconds "$seconds" --trace "$trace" | tail -n 1)"
  case "$last" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *) echo "ab.sh: $side pair $pair not verified: $last" >&2; exit 1 ;;
  esac
  printf '%s\t%s\t%s\n' "$side" "$pair" "$last" >> "$log"
}

for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    run parent "$parent_bin" "$i"
    run change "$change_bin" "$i"
  else
    run change "$change_bin" "$i"
    run parent "$parent_bin" "$i"
  fi
  echo "ab.sh: pair $((i + 1))/$pairs done" >&2
done

python3 - "$log" "$repo/BENCHMARK.json" "$workload" "$pairs" "$align" "$trace" <<'EOF'
import json, statistics, sys

log, bench, workload, pairs, align, trace = sys.argv[1:]
gated = [m["name"] for m in json.load(open(bench))["end_to_end"]]
runs = {"parent": {}, "change": {}}
for line in open(log):
    side, pair, last = line.rstrip("\n").split("\t", 2)
    runs[side][int(pair)] = {k: v["value"] for k, v in json.loads(last)["metrics"].items()}
common = sorted(set(runs["parent"]) & set(runs["change"]))
names = [n for n in gated if n in runs["parent"][common[0]]]
names += sorted(n for n in runs["parent"][common[0]] if n not in names)

def quartiles(xs):
    xs = sorted(xs)
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q[0], q[2]

print(f"# {workload}: {len(common)} pairs, align={align}, trace={trace}")
print(f"{'metric':<34} {'parent':>12} {'change':>12} {'parent IQR':>25} {'ratio':>7} {'lower':>7}")
for n in names:
    ps = [runs["parent"][i].get(n) for i in common]
    cs = [runs["change"][i].get(n) for i in common]
    if any(v is None for v in ps + cs):
        continue
    pm, cm = statistics.median(ps), statistics.median(cs)
    q1, q3 = quartiles(ps)
    ratio = cm / pm if pm else float("nan")
    lower = sum(c < p for p, c in zip(ps, cs))
    mark = "*" if n in gated else " "
    print(f"{mark}{n:<33} {pm:>12.6g} {cm:>12.6g} {q1:>12.6g}–{q3:<12.6g} {ratio:>7.3f} {lower:>3}/{len(common)}")
EOF
