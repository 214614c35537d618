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

echo "== simbench full-size seed-42 run (expected.txt pins) =="
# simbench exits 0 even when a check fails, and its smoke tests run only
# seed 7 at --quick sizes; only a full-size seed-42 run (under a minute)
# checks the digests pinned in simbench/expected.txt, so gate on its
# result line.
sb=$(cargo run --release --offline --quiet --manifest-path simbench/Cargo.toml -- --seed 42 --seconds 1)
grep -Eq '^\{"correct": true, "attempted": [0-9]+, "failed": 0,' <<<"$sb" || {
  grep -E '^\{"correct"' <<<"$sb" | cut -c1-120
  echo "simbench: seed-42 run is not correct with 0 failed checks"
  exit 1
}
# Peak heap is deterministic for a given build, so hold each workload's
# to the level it has reached, with headroom, instead of letting it slip
# back silently:
# - fleet-sparse: horizon-pruned resource calendars and 16 B NIC cache
#   entries (30.3 MiB; 38.4 with 24 B entries, 45.4 before the pruning);
# - openloop-apps: one Zipf alias table per build, built in place, and
#   no per-window latency series (0.78 MiB; 1.5 with Vose's work stacks
#   beside the table, 16.5 when every worker kept a series);
# - apps-closed: 12.5 MiB;
# - txn-rw: allocation-free transactions (0.15 MiB; 8.2 before them).
for gate in fleet-sparse:32 openloop-apps:1 apps-closed:13 txn-rw:0.5; do
  w=${gate%:*} cap=${gate#*:}
  heap=$(grep -oE "\"$w/peak_heap_mib\": \\{\"value\": [0-9.]+" <<<"$sb" | grep -oE '[0-9.]+$' || true)
  awk -v h="$heap" -v cap="$cap" 'BEGIN { exit !(h != "" && h <= cap) }' || {
    echo "simbench: $w peak_heap_mib ${heap:-missing} exceeds $cap MiB"
    exit 1
  }
done

echo "== clippy =="
cargo clippy --all-targets --offline -- -D warnings

echo "== rustdoc (no broken or private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --keep-going

echo "== bench binaries build =="
cargo build --benches --release --offline

echo "== root examples (run to completion, so their asserts execute) =="
for ex in quickstart remote_locks disaggregated_kv shuffle_pipeline; do
  cargo run --release --offline --quiet --example "$ex" >/dev/null
done

echo "== determinism check (serial vs parallel vs sharded) =="
# The gate runs the registry's gate-tagged experiments. They include
# fig6-xxl, a small-scale fleet sweep whose rendered notes carry the
# sparse pool's resident-page digests, so all three legs also prove
# memory materialization/elision byte-identity; and txn-fairness, whose
# two pods the sharded leg deals to two threads.
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

echo "== txn digests (txn-contention: both modes x five conflicts; txn-fairness) =="
# The smoke sweep only compares legs of one build, so the txn
# experiments' digest notes are pinned here, as fig6-xxl's are: a change
# to commit/abort accounting or latency must not pass silently.
txn=$(cargo run --release --offline -p bench -- txn-contention txn-fairness)
for pinned in \
  "optimistic digests: 0:6c1f42240f44b2b3 0.2:6a8dd2254c3f56b9 0.4:b1676f64d7d4c0c1 0.6:4a0bde481194a0c2 0.8:5f93161aba97e6b5" \
  "locked digests: 0:a647a401897f05ec 0.2:fc218d6f747219b0 0.4:aab6dc14549596ce 0.6:d426015052b6f41b 0.8:de2a954110c7dd89" \
  "digests: fifo-x1:6eb999ac98baf268 fifo-x8:9f6949fee4777880 drr-x1:f473dfbd7bde0f7a drr-x8:c465eeb19a8fb24c"; do
  grep -qF "$pinned" <<<"$txn" || { echo "txn: no note matches '$pinned'"; exit 1; }
done

echo "== micro set: --shards 1 and --shards 3 render identical stdout =="
# The micro set's fig6/fig8 cells are multi-component testbeds, and three
# shards deal their components unevenly, so the rendered stdout must
# match byte for byte.
m1=$(cargo run --release --offline -p bench -- micro --shards 1)
m3=$(cargo run --release --offline -p bench -- micro --shards 3)
cmp <(printf '%s\n' "$m1") <(printf '%s\n' "$m3") || {
  echo "micro: --shards 1 and --shards 3 stdout differ"
  exit 1
}

echo "== sim_ops pins (every pinned registry row must match exactly) =="
# Simulated work is deterministic, so each pinned experiment's sim_ops
# must equal its bench::EXPERIMENTS pin exactly; any drift fails.
cargo run --release --offline -p bench -- --serial --check-sim-ops

echo "== static verb analysis (verbcheck over every experiment program) =="
cargo run --release --offline -p bench -- --lint all

echo "== device-capability sweep (every profile must stay error-free) =="
cargo run --release --offline -p bench -- --lint --caps sweep all >/dev/null

echo "== auto-fix fixpoint (zero W2xx after repro --lint --fix all) =="
cargo run --release --offline -p bench -- --lint --fix all >/dev/null

echo "== production Rust lines (information only) =="
scripts/prod_lines.sh

echo "CI OK"
