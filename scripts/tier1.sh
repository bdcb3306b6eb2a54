#!/usr/bin/env bash
# Tier-1 gate: release build, lint wall, test suite (including a
# debug-assert run of the engine-vs-oracle property tests), and the
# benchmark artifacts.
#
# Usage: scripts/tier1.sh
# Also runs the servebench unit tests and a one-second smoke run of each
# servebench workload, which must report every reply correct, and then
# every example under examples/, each of which must exit 0.
# Emits BENCH_engine.json (engine vs the seed executor), BENCH_simd.json
# (vectorized data path vs the scalar oracle path), BENCH_serve.json
# (coalesced vs one-request serving, smoke shape) and BENCH_batch.json
# (packed-window serving vs per-request serving, smoke shape) into
# target/tier1-bench/, then validates their common schema (measured
# headline with its p10/p90 band, run count and worker count) there and
# on the committed full-run artifacts in the repository root. Ends by
# checking that the root BENCH_*.json files were left untouched.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

# Checksums of the committed full-run artifacts: the bench binaries below
# run in their own directory, so these must come out of tier-1 unchanged.
root_sums="$(sha256sum BENCH_*.json)"

cargo fmt --all -- --check
cargo build --release
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc with warnings denied: a doc link to a private, renamed or
# deleted item fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --keep-going
# The root package's suites, then every other member's: each suite runs
# once.
cargo test -q
cargo test --workspace --exclude merge-path-spmm -q
# Debug build (debug_assertions on): overflow checks and the engine's
# internal invariant asserts are live while the oracle property tests run.
# Each suite sweeps the scalar oracle data path next to the default
# (vectorized) one.
cargo test -q -p mpspmm-core --test engine_oracle
# The engine oracle, the concurrent-engine suite and the scheduler suite
# (row spans equal to the ascending row sum at every worker count, at
# narrow and wide dims) and the packed-window path, over a block-diagonal
# pack and over its constituents (all bit-identical at any worker
# count): pin the
# resolved count to a matrix of values and re-run their property tests
# (debug build, invariant asserts live). batch_oracle sweeps
# packed-vs-sequential across DataPath x workers, including empty graphs
# and single-graph windows. gemm_dense pins the engine GEMM, which runs
# every GCN feature transform, bit-exactly to the zero-skip loop at the
# served layer-0 shapes, and the core `gemm` unit tests run the
# work-sized band claims on a global pool of every size. The core
# `engine` unit tests run the row fold (every tile plan, ISA clone and
# epilogue against the scalar oracle) on a global pool of every size too.
# serve_integration's packing server runs at the resolved count, so
# packed serving is checked against the oracle at every count too. The
# serve unit tests run at every count as well: a window that panics is
# answered with `Internal` and the next one matches the oracle, and a
# poisoned stats lock still serves.
for w in 1 2 8; do
  MPSPMM_WORKERS=$w cargo test -q -p mpspmm-core --lib gemm
  MPSPMM_WORKERS=$w cargo test -q -p mpspmm-core --lib engine
  MPSPMM_WORKERS=$w cargo test -q -p mpspmm-core --test engine_oracle
  MPSPMM_WORKERS=$w cargo test -q -p mpspmm-core --test engine_concurrent
  MPSPMM_WORKERS=$w cargo test -q -p mpspmm-core --test engine_sched
  MPSPMM_WORKERS=$w cargo test -q -p mpspmm-core --test gemm_dense
  MPSPMM_WORKERS=$w cargo test -q -p mpspmm-core --test batch_oracle
  MPSPMM_WORKERS=$w cargo test -q -p mpspmm-serve --test serve_integration
  MPSPMM_WORKERS=$w cargo test -q -p mpspmm-serve --lib
done
# The fused layer pipeline promises fused == unfused at every worker
# count; re-run its oracle property suite across the same matrix, and the
# GCN unit tests, which pin the served arena buffer pattern (one fresh
# buffer per block per call once warm) and the recycled forward's bits.
for w in 1 2 8; do
  MPSPMM_WORKERS=$w cargo test -q -p mpspmm-gcn --test fused_oracle
  MPSPMM_WORKERS=$w cargo test -q -p mpspmm-gcn --lib
done
# The end-to-end serving benchmark (its own workspace): its unit tests,
# then a one-second smoke run of every workload. Each run checks every
# reply against a reference computed before timing, so a kernel change
# that corrupts served results fails here.
cargo test --release --offline --manifest-path servebench/Cargo.toml
for wl in ppi-gcn nell-spmm molecule-pack; do
  last="$(cargo run --release --offline --quiet --manifest-path servebench/Cargo.toml -- \
    --workload "$wl" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
  case "$last" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *)
      echo "servebench $wl: replies not verified: $last" >&2
      exit 1
      ;;
  esac
done
# Every example under examples/ runs to completion (release build, a
# fraction of a second each); a non-zero exit fails the gate.
for ex in examples/*.rs; do
  cargo run --release --offline --quiet --example "$(basename "$ex" .rs)"
done
# Every bench binary writes its BENCH_*.json into its working directory,
# so each runs from target/tier1-bench/, never from the repository root.
bench_dir="$root/target/tier1-bench"
rm -rf "$bench_dir"
mkdir -p "$bench_dir"
bench() {
  (cd "$bench_dir" && cargo run --release --manifest-path "$root/Cargo.toml" \
    -p mpspmm-bench --bin "$@")
}
bench bench_engine
bench bench_simd
bench bench_serve -- --smoke
# Packed-window bench, smoke shape: exercises the packed serving pipeline
# end to end (bulk admission, one engine call over each window's
# constituents) and its untimed bit-identity spot check against the
# sequential oracle.
bench bench_batch -- --smoke
scripts/check_bench_schema.sh "$bench_dir"
scripts/check_bench_schema.sh
if ! sha256sum --quiet --check <<<"$root_sums"; then
  echo "tier1: a committed BENCH_*.json in the repository root changed" >&2
  exit 1
fi
