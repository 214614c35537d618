#!/usr/bin/env bash
# Offline CI gate: everything here must pass with no network access
# (the workspace has no external dependencies by design).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --check

echo "== build (release) =="
cargo build --release --offline

echo "== tests (whole workspace, via default-members) =="
# The root Cargo.toml lists every crate in `default-members`, so this
# bare command runs every workspace test, not just the root package's.
cargo test -q --offline

echo "== simbench tests (the benchmark builds against the public APIs) =="
cargo test --offline --manifest-path simbench/Cargo.toml

echo "== clippy =="
cargo clippy --all-targets --offline -- -D warnings

echo "== bench binaries build =="
cargo build --benches --release --offline

echo "== determinism check (serial vs parallel vs sharded) =="
# The gate's id set includes fig6-xxl: a small-scale fleet sweep whose
# rendered notes carry the sparse pool's resident-page digests, so all
# three legs also prove memory materialization/elision byte-identity.
cargo run --release --offline -p bench -- --check-determinism

echo "== fig6-xxl fleet sweep (2048 machines on the sparse lazy-page pool) =="
# The determinism gate only compares legs of one build, so the fleet
# memory digests are pinned here: a change to page placement or content
# must not pass silently.
xxl=$(cargo run --release --offline -p bench -- fig6-xxl)
for pinned in "write-seq-seq .* digest 1a3dc11041dec325" "write-rand-rand .* digest 2e1cc107103fbb25"; do
  grep -q "$pinned" <<<"$xxl" || { echo "fig6-xxl: no note matches '$pinned'"; exit 1; }
done

echo "== open-loop traffic smoke sweep (3-way determinism, all apps) =="
cargo run --release --offline -p bench -- --traffic all --load 0.25 --check-determinism

echo "== txn smoke sweep (3-way determinism, all profiles, both modes) =="
cargo run --release --offline -p bench -- --txn all --load 0.05 --check-determinism

echo "== micro set, sharded (--shards 2) =="
cargo run --release --offline -p bench -- micro --shards 2 >/dev/null

echo "== bench-compare (sim_ops must match committed BENCH_engine.json) =="
# --serial: the committed baseline was recorded serially, so wall-time
# comparisons are apples-to-apples (sim_ops are identical either way).
cargo run --release --offline -p bench -- --serial --bench-compare BENCH_engine.json

echo "== static verb analysis (verbcheck over every experiment program) =="
cargo run --release --offline -p bench -- --lint all

echo "== device-capability sweep (every profile must stay error-free) =="
cargo run --release --offline -p bench -- --lint --caps sweep all >/dev/null

echo "== auto-fix fixpoint (zero W2xx after repro --lint --fix all) =="
cargo run --release --offline -p bench -- --lint --fix all >/dev/null

echo "CI OK"
